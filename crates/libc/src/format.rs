//! A minimal printf-style formatter with byte-level taint tracking.
//!
//! Supports `%s`, `%d`, `%u`, `%x`, `%c`, `%%` — enough for the flows
//! the paper's case studies exercise (`sprintf` URL building in
//! QQPhoneBook, the `fprintf(FILE, "%s %s %s", …)` sink of Fig. 8).

use crate::helpers::cstr;
use ndroid_dvm::Taint;
use ndroid_emu::runtime::{tracking, ArgCursor, NativeCtx};

/// Formats `fmt` (a guest string address) consuming arguments from
/// `args`. Returns the output bytes and a per-byte taint vector
/// (all-clear when the analysis does not track native taint).
pub fn format_guest(
    ctx: &NativeCtx<'_>,
    fmt_addr: u32,
    args: &mut ArgCursor,
) -> (Vec<u8>, Vec<Taint>) {
    let fmt = cstr(ctx, fmt_addr);
    let track = tracking(ctx);
    let mut out: Vec<u8> = Vec::new();
    let mut taints: Vec<Taint> = Vec::new();
    let push = |bytes: &[u8], t: Taint, out: &mut Vec<u8>, taints: &mut Vec<Taint>| {
        out.extend_from_slice(bytes);
        taints.extend(std::iter::repeat_n(t, bytes.len()));
    };

    let mut i = 0;
    while i < fmt.len() {
        let b = fmt[i];
        if b != b'%' {
            // The format string's own taint rides along byte-for-byte.
            let t = if track {
                ctx.shadow.mem.get(fmt_addr.wrapping_add(i as u32))
            } else {
                Taint::CLEAR
            };
            push(&[b], t, &mut out, &mut taints);
            i += 1;
            continue;
        }
        i += 1;
        let spec = fmt.get(i).copied().unwrap_or(b'%');
        i += 1;
        match spec {
            b'%' => push(b"%", Taint::CLEAR, &mut out, &mut taints),
            b'c' => {
                let (v, t) = args.next(ctx);
                push(&[v as u8], t, &mut out, &mut taints);
            }
            b'd' => {
                let (v, t) = args.next(ctx);
                let s = format!("{}", v as i32);
                push(s.as_bytes(), t, &mut out, &mut taints);
            }
            b'u' => {
                let (v, t) = args.next(ctx);
                let s = format!("{v}");
                push(s.as_bytes(), t, &mut out, &mut taints);
            }
            b'x' => {
                let (v, t) = args.next(ctx);
                let s = format!("{v:x}");
                push(s.as_bytes(), t, &mut out, &mut taints);
            }
            b's' => {
                let (ptr, ptr_taint) = args.next(ctx);
                let s = cstr(ctx, ptr);
                for (j, byte) in s.iter().enumerate() {
                    let t = if track {
                        ctx.shadow.mem.get(ptr.wrapping_add(j as u32)) | ptr_taint
                    } else {
                        Taint::CLEAR
                    };
                    push(&[*byte], t, &mut out, &mut taints);
                }
            }
            other => {
                // Unknown specifier: emit literally (glibc would too,
                // near enough, and our guests only use the above).
                push(&[b'%', other], Taint::CLEAR, &mut out, &mut taints);
            }
        }
    }
    (out, taints)
}

/// Writes formatted output (with taints) into guest memory at `dst`,
/// NUL-terminated. Returns the number of data bytes written.
pub fn write_formatted(
    ctx: &mut NativeCtx<'_>,
    dst: u32,
    bytes: &[u8],
    taints: &[Taint],
    max: Option<usize>,
) -> u32 {
    let n = match max {
        Some(m) => bytes.len().min(m.saturating_sub(1)),
        None => bytes.len(),
    };
    ctx.mem.write_bytes(dst, &bytes[..n]);
    ctx.mem.write_u8(dst.wrapping_add(n as u32), 0);
    if tracking(ctx) {
        for (i, t) in taints[..n].iter().enumerate() {
            ctx.shadow.mem.set(dst.wrapping_add(i as u32), *t);
        }
        ctx.shadow.mem.set(dst.wrapping_add(n as u32), Taint::CLEAR);
    }
    n as u32
}
