//! Modeled string/memory functions of Table VI, with the
//! `TrustCallPolicy` taint transfers.
//!
//! Listing 3 of the paper shows the `memcpy` model: "propagate the
//! srcAddr's taint to destAddr" byte by byte. Every function here does
//! the real data operation on guest memory and mirrors it in the taint
//! map when the analysis tracks native taint.

use crate::helpers::{cstr, cstr_taint, prov_libc};
use ndroid_dvm::Taint;
use ndroid_emu::runtime::{arg, arg_taint, set_ret_taint, tracking, NativeCtx};
use ndroid_emu::EmuError;
use std::cmp::Ordering;

/// `void *memcpy(void *dest, const void *src, size_t n)`, also bound as
/// `memmove`: the copy goes through a buffer, so overlap is safe.
pub fn memcpy(ctx: &mut NativeCtx<'_>, name: &'static str) -> Result<u32, EmuError> {
    let (dst, src, n) = (arg(ctx, 0), arg(ctx, 1), arg(ctx, 2));
    let data = ctx.mem.read_bytes(src, n as usize);
    ctx.mem.write_bytes(dst, &data);
    if tracking(ctx) {
        ctx.shadow.mem.copy_range(dst, src, n);
        ctx.shadow.ops += n as u64;
        prov_libc(ctx, name, ctx.shadow.mem.range_taint(src, n));
    }
    set_ret_taint(ctx, arg_taint(ctx, 0));
    Ok(dst)
}

/// `void *memset(void *s, int c, size_t n)`
pub fn memset(ctx: &mut NativeCtx<'_>, name: &'static str) -> Result<u32, EmuError> {
    let (dst, c, n) = (arg(ctx, 0), arg(ctx, 1), arg(ctx, 2));
    for i in 0..n {
        ctx.mem.write_u8(dst.wrapping_add(i), c as u8);
    }
    if tracking(ctx) {
        let t = arg_taint(ctx, 1);
        ctx.shadow.mem.set_range(dst, n, t);
        prov_libc(ctx, name, t);
    }
    set_ret_taint(ctx, arg_taint(ctx, 0));
    Ok(dst)
}

/// `size_t strlen(const char *s)`
pub fn strlen(ctx: &mut NativeCtx<'_>, _: &'static str) -> Result<u32, EmuError> {
    let s = arg(ctx, 0);
    let len = ctx.mem.cstr_len(s) as u32;
    let t = cstr_taint(ctx, s);
    set_ret_taint(ctx, t);
    Ok(len)
}

/// The result of a comparison of the `a_len` bytes at argument 0 with
/// the `b_len` bytes at argument 1 that came out `ord`, tainted with
/// the union of both ranges.
fn cmp_common(ctx: &mut NativeCtx<'_>, a_len: usize, b_len: usize, ord: Ordering) -> u32 {
    let t = if tracking(ctx) {
        let ta = ctx.shadow.mem.range_taint(arg(ctx, 0), a_len.max(1) as u32);
        let tb = ctx.shadow.mem.range_taint(arg(ctx, 1), b_len.max(1) as u32);
        ta | tb
    } else {
        Taint::CLEAR
    };
    set_ret_taint(ctx, t);
    match ord {
        Ordering::Less => (-1i32) as u32,
        Ordering::Equal => 0,
        Ordering::Greater => 1,
    }
}

/// `int strcmp(const char *a, const char *b)`
pub fn strcmp(ctx: &mut NativeCtx<'_>, _: &'static str) -> Result<u32, EmuError> {
    let a = cstr(ctx, arg(ctx, 0));
    let b = cstr(ctx, arg(ctx, 1));
    Ok(cmp_common(ctx, a.len(), b.len(), a.cmp(&b)))
}

/// `int strncmp(const char *a, const char *b, size_t n)`
pub fn strncmp(ctx: &mut NativeCtx<'_>, _: &'static str) -> Result<u32, EmuError> {
    let n = arg(ctx, 2) as usize;
    let mut a = cstr(ctx, arg(ctx, 0));
    let mut b = cstr(ctx, arg(ctx, 1));
    a.truncate(n);
    b.truncate(n);
    Ok(cmp_common(ctx, a.len(), b.len(), a.cmp(&b)))
}

/// `int strcasecmp(const char *a, const char *b)`
pub fn strcasecmp(ctx: &mut NativeCtx<'_>, _: &'static str) -> Result<u32, EmuError> {
    let a = cstr(ctx, arg(ctx, 0)).to_ascii_lowercase();
    let b = cstr(ctx, arg(ctx, 1)).to_ascii_lowercase();
    Ok(cmp_common(ctx, a.len(), b.len(), a.cmp(&b)))
}

/// `int strncasecmp(const char *a, const char *b, size_t n)`
pub fn strncasecmp(ctx: &mut NativeCtx<'_>, _: &'static str) -> Result<u32, EmuError> {
    let n = arg(ctx, 2) as usize;
    let mut a = cstr(ctx, arg(ctx, 0)).to_ascii_lowercase();
    let mut b = cstr(ctx, arg(ctx, 1)).to_ascii_lowercase();
    a.truncate(n);
    b.truncate(n);
    Ok(cmp_common(ctx, a.len(), b.len(), a.cmp(&b)))
}

/// `int memcmp(const void *a, const void *b, size_t n)`, compared in
/// place page by page up to the first difference.
pub fn memcmp(ctx: &mut NativeCtx<'_>, _: &'static str) -> Result<u32, EmuError> {
    let (a, b, n) = (arg(ctx, 0), arg(ctx, 1), arg(ctx, 2) as usize);
    let ord = ctx
        .mem
        .chunks(a, n)
        .flatten()
        .cmp(ctx.mem.chunks(b, n).flatten());
    Ok(cmp_common(ctx, n, n, ord))
}

/// `char *strcpy(char *dst, const char *src)`
pub fn strcpy(ctx: &mut NativeCtx<'_>, name: &'static str) -> Result<u32, EmuError> {
    let (dst, src) = (arg(ctx, 0), arg(ctx, 1));
    let s = cstr(ctx, src);
    ctx.mem.write_cstr(dst, &s);
    if tracking(ctx) {
        ctx.shadow.mem.copy_range(dst, src, s.len() as u32 + 1);
        prov_libc(ctx, name, ctx.shadow.mem.range_taint(src, s.len().max(1) as u32));
    }
    set_ret_taint(ctx, arg_taint(ctx, 0));
    Ok(dst)
}

/// `char *strncpy(char *dst, const char *src, size_t n)`
pub fn strncpy(ctx: &mut NativeCtx<'_>, name: &'static str) -> Result<u32, EmuError> {
    let (dst, src, n) = (arg(ctx, 0), arg(ctx, 1), arg(ctx, 2));
    let mut s = cstr(ctx, src);
    s.truncate(n as usize);
    ctx.mem.write_bytes(dst, &s);
    for i in s.len() as u32..n {
        ctx.mem.write_u8(dst.wrapping_add(i), 0);
    }
    if tracking(ctx) {
        ctx.shadow.mem.copy_range(dst, src, s.len() as u32);
        ctx.shadow
            .mem
            .clear_range(dst.wrapping_add(s.len() as u32), n - s.len() as u32);
        prov_libc(ctx, name, ctx.shadow.mem.range_taint(src, s.len().max(1) as u32));
    }
    set_ret_taint(ctx, arg_taint(ctx, 0));
    Ok(dst)
}

/// `char *strcat(char *dst, const char *src)`
pub fn strcat(ctx: &mut NativeCtx<'_>, name: &'static str) -> Result<u32, EmuError> {
    let (dst, src) = (arg(ctx, 0), arg(ctx, 1));
    let dlen = ctx.mem.cstr_len(dst) as u32;
    let s = cstr(ctx, src);
    ctx.mem.write_cstr(dst.wrapping_add(dlen), &s);
    if tracking(ctx) {
        ctx.shadow
            .mem
            .copy_range(dst.wrapping_add(dlen), src, s.len() as u32 + 1);
        prov_libc(ctx, name, ctx.shadow.mem.range_taint(src, s.len().max(1) as u32));
    }
    set_ret_taint(ctx, arg_taint(ctx, 0));
    Ok(dst)
}

/// `char *strchr(const char *s, int c)` — pointer into `s` or NULL.
///
/// Taint: the returned pointer carries only the `s` pointer
/// argument's taint. Which byte matched depends on the content, but
/// that is a position (control) dependence, and NDroid tracks only
/// copy and arithmetic flows (§V-C), so content taint does not reach
/// the pointer; the bytes it points at keep their own taint.
pub fn strchr(ctx: &mut NativeCtx<'_>, _: &'static str) -> Result<u32, EmuError> {
    let (s, c) = (arg(ctx, 0), arg(ctx, 1) as u8);
    let bytes = cstr(ctx, s);
    set_ret_taint(ctx, arg_taint(ctx, 0));
    Ok(bytes
        .iter()
        .position(|b| *b == c)
        .map(|i| s.wrapping_add(i as u32))
        .unwrap_or(0))
}

/// `char *strrchr(const char *s, int c)`
///
/// Taint: the returned pointer carries only the `s` pointer
/// argument's taint. Which byte matched depends on the content, but
/// that is a position (control) dependence, and NDroid tracks only
/// copy and arithmetic flows (§V-C), so content taint does not reach
/// the pointer; the bytes it points at keep their own taint.
pub fn strrchr(ctx: &mut NativeCtx<'_>, _: &'static str) -> Result<u32, EmuError> {
    let (s, c) = (arg(ctx, 0), arg(ctx, 1) as u8);
    let bytes = cstr(ctx, s);
    set_ret_taint(ctx, arg_taint(ctx, 0));
    Ok(bytes
        .iter()
        .rposition(|b| *b == c)
        .map(|i| s.wrapping_add(i as u32))
        .unwrap_or(0))
}

/// `void *memchr(const void *s, int c, size_t n)`, searched in place
/// up to the first match.
///
/// Taint: the returned pointer carries only the `s` pointer
/// argument's taint. Which byte matched depends on the content, but
/// that is a position (control) dependence, and NDroid tracks only
/// copy and arithmetic flows (§V-C), so content taint does not reach
/// the pointer; the bytes it points at keep their own taint.
pub fn memchr(ctx: &mut NativeCtx<'_>, _: &'static str) -> Result<u32, EmuError> {
    let (s, c, n) = (arg(ctx, 0), arg(ctx, 1) as u8, arg(ctx, 2));
    set_ret_taint(ctx, arg_taint(ctx, 0));
    let hit = ctx
        .mem
        .chunks(s, n as usize)
        .flatten()
        .position(|b| *b == c);
    Ok(hit.map_or(0, |i| s.wrapping_add(i as u32)))
}

/// `char *strstr(const char *haystack, const char *needle)`
///
/// Taint: the returned pointer carries only the `haystack` pointer
/// argument's taint. Which byte matched depends on the content, but
/// that is a position (control) dependence, and NDroid tracks only
/// copy and arithmetic flows (§V-C), so content taint does not reach
/// the pointer; the bytes it points at keep their own taint.
pub fn strstr(ctx: &mut NativeCtx<'_>, _: &'static str) -> Result<u32, EmuError> {
    let (h, n) = (arg(ctx, 0), arg(ctx, 1));
    let hay = cstr(ctx, h);
    let needle = cstr(ctx, n);
    set_ret_taint(ctx, arg_taint(ctx, 0));
    if needle.is_empty() {
        return Ok(h);
    }
    Ok(hay
        .windows(needle.len())
        .position(|w| w == needle.as_slice())
        .map(|i| h.wrapping_add(i as u32))
        .unwrap_or(0))
}

/// `char *strdup(const char *s)` — malloc + copy, taints ride along.
pub fn strdup(ctx: &mut NativeCtx<'_>, name: &'static str) -> Result<u32, EmuError> {
    let src = arg(ctx, 0);
    let s = cstr(ctx, src);
    let dst = ctx.kernel.heap.malloc(s.len() as u32 + 1);
    if dst == 0 {
        set_ret_taint(ctx, Taint::CLEAR);
        return Ok(0);
    }
    ctx.mem.write_cstr(dst, &s);
    if tracking(ctx) {
        ctx.shadow.mem.copy_range(dst, src, s.len() as u32 + 1);
        prov_libc(ctx, name, ctx.shadow.mem.range_taint(src, s.len().max(1) as u32));
    }
    set_ret_taint(ctx, arg_taint(ctx, 0));
    Ok(dst)
}

fn parse_int(bytes: &[u8]) -> i64 {
    let s = String::from_utf8_lossy(bytes);
    let s = s.trim_start();
    let (neg, digits) = match s.strip_prefix('-') {
        Some(rest) => (true, rest),
        None => (false, s.strip_prefix('+').unwrap_or(s)),
    };
    let mut v: i64 = 0;
    for c in digits.chars() {
        match c.to_digit(10) {
            Some(d) => v = v.saturating_mul(10).saturating_add(d as i64),
            None => break,
        }
    }
    if neg {
        -v
    } else {
        v
    }
}

/// `int atoi(const char *s)`, also bound as `atol` — result taint =
/// string taint.
pub fn atoi(ctx: &mut NativeCtx<'_>, _: &'static str) -> Result<u32, EmuError> {
    let s = arg(ctx, 0);
    let v = parse_int(&cstr(ctx, s)) as i32;
    let t = cstr_taint(ctx, s);
    set_ret_taint(ctx, t);
    Ok(v as u32)
}

/// `unsigned long strtoul(const char *s, char **endp, int base)`,
/// with C's base rules: base 0 reads a `0x`/`0X` prefix as hex, a
/// leading `0` as octal and anything else as decimal; base 16 accepts
/// an optional `0x`; a base outside {0, 2..=36} converts nothing and
/// returns 0. Leading whitespace and one sign are skipped, a value
/// past `ULONG_MAX` saturates, and with no digits `*endp` is `s`. Also
/// bound as `strtol`, whose out-of-range values are therefore not
/// clamped to `LONG_MIN`/`LONG_MAX`.
///
/// Taint: the result carries the whole string's taint. `*endp` is a
/// pointer into `s`, so its 4 shadow bytes take the taint of the `s`
/// pointer argument, the rule `strchr`'s return follows. Where the
/// parse stopped depends on the string's bytes; that position
/// dependence is not tracked.
pub fn strtoul(ctx: &mut NativeCtx<'_>, _: &'static str) -> Result<u32, EmuError> {
    let (s, endp, base) = (arg(ctx, 0), arg(ctx, 1), arg(ctx, 2));
    let (v, consumed) = parse_ulong(&cstr(ctx, s), base);
    if endp != 0 {
        ctx.mem.write_u32(endp, s.wrapping_add(consumed as u32));
        if tracking(ctx) {
            let t = arg_taint(ctx, 0);
            ctx.shadow.mem.set_range(endp, 4, t);
        }
    }
    let t = cstr_taint(ctx, s);
    set_ret_taint(ctx, t);
    Ok(v)
}

/// Parses `bytes` as C `strtoul` does with a 32-bit `unsigned long`:
/// the value and the number of bytes consumed, 0 when no digit
/// converted.
fn parse_ulong(bytes: &[u8], base: u32) -> (u32, usize) {
    let at = |i: usize| bytes.get(i).copied().unwrap_or(0);
    let mut i = bytes.iter().take_while(|b| b.is_ascii_whitespace() || **b == 0x0b).count();
    let neg = at(i) == b'-';
    if matches!(at(i), b'-' | b'+') {
        i += 1;
    }
    let hex_prefix =
        at(i) == b'0' && matches!(at(i + 1), b'x' | b'X') && at(i + 2).is_ascii_hexdigit();
    let radix = match base {
        0 if hex_prefix => 16,
        0 if at(i) == b'0' => 8,
        0 => 10,
        2..=36 => base,
        _ => return (0, 0),
    };
    if radix == 16 && hex_prefix {
        i += 2;
    }
    let start = i;
    let mut v = 0u64;
    while let Some(d) = char::from(at(i)).to_digit(radix) {
        v = (v * u64::from(radix) + u64::from(d)).min(u64::from(u32::MAX) + 1);
        i += 1;
    }
    if i == start {
        return (0, 0);
    }
    match u32::try_from(v) {
        Ok(v) if neg => (v.wrapping_neg(), i),
        Ok(v) => (v, i),
        Err(_) => (u32::MAX, i),
    }
}

/// `int sscanf(const char *s, const char *fmt, ...)` — supports `%d`
/// and `%s`, enough for the modeled guests. Taint flows from the input
/// string's bytes to each converted output.
pub fn sscanf(ctx: &mut NativeCtx<'_>, name: &'static str) -> Result<u32, EmuError> {
    let src = arg(ctx, 0);
    let fmt = cstr(ctx, arg(ctx, 1));
    let input = cstr(ctx, src);
    let text = String::from_utf8_lossy(&input).into_owned();
    let mut words = text.split_whitespace();
    let mut out_arg = 2usize;
    let mut converted = 0u32;
    let track = tracking(ctx);
    let src_taint = if track {
        ctx.shadow.mem.range_taint(src, input.len().max(1) as u32)
    } else {
        Taint::CLEAR
    };
    let mut i = 0;
    while i + 1 < fmt.len() {
        if fmt[i] == b'%' {
            let ptr = arg(ctx, out_arg);
            out_arg += 1;
            let Some(word) = words.next() else { break };
            match fmt[i + 1] {
                b'd' => {
                    ctx.mem.write_u32(ptr, parse_int(word.as_bytes()) as i32 as u32);
                    if track {
                        ctx.shadow.mem.set_range(ptr, 4, src_taint);
                    }
                    converted += 1;
                }
                b's' => {
                    ctx.mem.write_cstr(ptr, word.as_bytes());
                    if track {
                        ctx.shadow
                            .mem
                            .set_range(ptr, word.len() as u32 + 1, src_taint);
                    }
                    converted += 1;
                }
                _ => {}
            }
            i += 2;
        } else {
            i += 1;
        }
    }
    prov_libc(ctx, name, src_taint);
    set_ret_taint(ctx, Taint::CLEAR);
    Ok(converted)
}

/// `long sysconf(int name)` — constant configuration values.
pub fn sysconf(ctx: &mut NativeCtx<'_>, _: &'static str) -> Result<u32, EmuError> {
    set_ret_taint(ctx, Taint::CLEAR);
    Ok(match arg(ctx, 0) {
        30 => 4096, // _SC_PAGESIZE
        84 => 4,    // _SC_NPROCESSORS_ONLN
        _ => 1,
    })
}

// --- allocator family -------------------------------------------------

/// `void *malloc(size_t size)`
pub fn malloc(ctx: &mut NativeCtx<'_>, _: &'static str) -> Result<u32, EmuError> {
    let size = arg(ctx, 0);
    let p = ctx.kernel.heap.malloc(size);
    set_ret_taint(ctx, Taint::CLEAR);
    Ok(p)
}

/// `void free(void *p)`
pub fn free(ctx: &mut NativeCtx<'_>, _: &'static str) -> Result<u32, EmuError> {
    let p = arg(ctx, 0);
    if let Some(size) = ctx.kernel.heap.size_of(p) {
        if tracking(ctx) {
            // Freed memory must not keep stale taint (it would
            // false-positive a future allocation).
            ctx.shadow.mem.clear_range(p, size);
        }
    }
    ctx.kernel.heap.free(p);
    set_ret_taint(ctx, Taint::CLEAR);
    Ok(0)
}

/// `void *calloc(size_t n, size_t size)`
pub fn calloc(ctx: &mut NativeCtx<'_>, _: &'static str) -> Result<u32, EmuError> {
    let total = arg(ctx, 0).saturating_mul(arg(ctx, 1));
    let p = ctx.kernel.heap.malloc(total);
    if p != 0 {
        for i in 0..total {
            ctx.mem.write_u8(p.wrapping_add(i), 0);
        }
        if tracking(ctx) {
            ctx.shadow.mem.clear_range(p, total);
        }
    }
    set_ret_taint(ctx, Taint::CLEAR);
    Ok(p)
}

/// `void *realloc(void *p, size_t size)`
pub fn realloc(ctx: &mut NativeCtx<'_>, _: &'static str) -> Result<u32, EmuError> {
    let (p, size) = (arg(ctx, 0), arg(ctx, 1));
    if p == 0 {
        let np = ctx.kernel.heap.malloc(size);
        set_ret_taint(ctx, Taint::CLEAR);
        return Ok(np);
    }
    let old = ctx.kernel.heap.size_of(p).unwrap_or(0);
    let np = ctx.kernel.heap.malloc(size);
    if np != 0 {
        let n = old.min(size);
        let data = ctx.mem.read_bytes(p, n as usize);
        ctx.mem.write_bytes(np, &data);
        if tracking(ctx) {
            ctx.shadow.mem.copy_range(np, p, n);
            ctx.shadow.mem.clear_range(p, old);
        }
        ctx.kernel.heap.free(p);
    }
    set_ret_taint(ctx, Taint::CLEAR);
    Ok(np)
}
