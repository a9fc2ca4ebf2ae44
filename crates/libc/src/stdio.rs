//! Modeled stdio: the `sprintf` family and `FILE*`-based I/O.
//!
//! `fprintf`, `fwrite`, `fputc`, `fputs` are sinks (Table VII /
//! Fig. 8's `SinkHandler[fprintf]`).

use crate::format::{format_guest, write_formatted};
use crate::helpers::{cstr, guest_buf, prov_libc};
use ndroid_dvm::Taint;
use ndroid_emu::runtime::{arg, set_ret_taint, tracking, ArgCursor, NativeCtx, MAX_TRANSFER};
use ndroid_emu::trace::Lossy;
use ndroid_emu::EmuError;

/// Allocates a guest `FILE` structure wrapping `fd`.
fn file_new(ctx: &mut NativeCtx<'_>, fd: i32) -> u32 {
    let p = ctx.kernel.heap.malloc(16);
    ctx.mem.write_u32(p, 0xF11E_0000 | (fd as u32 & 0xFFFF));
    p
}

/// Extracts the fd from a guest `FILE*`.
fn file_fd(ctx: &NativeCtx<'_>, file: u32) -> Result<i32, EmuError> {
    let word = ctx.mem.read_u32(file);
    if word & 0xFFFF_0000 != 0xF11E_0000 {
        return Err(EmuError::Kernel(format!("bad FILE* {file:#x}")));
    }
    Ok((word & 0xFFFF) as i32)
}

/// `FILE *fopen(const char *path, const char *mode)`
pub fn fopen(ctx: &mut NativeCtx<'_>, _: &'static str) -> Result<u32, EmuError> {
    let path = String::from_utf8_lossy(&cstr(ctx, arg(ctx, 0))).into_owned();
    let mode = cstr(ctx, arg(ctx, 1));
    let create = mode.contains(&b'w') || mode.contains(&b'a');
    ctx.trace
        .push("libc", format_args!("TrustCallHandler[fopen] Open '{path}'"));
    let fd = match ctx.kernel.open(&path, create) {
        Ok(fd) => fd,
        Err(_) => {
            set_ret_taint(ctx, Taint::CLEAR);
            return Ok(0);
        }
    };
    let file = file_new(ctx, fd);
    ctx.trace
        .push("libc", format_args!("TrustCallHandler[fopen] Return FILE@{file:#x}"));
    set_ret_taint(ctx, Taint::CLEAR);
    Ok(file)
}

/// `int fclose(FILE *f)`
pub fn fclose(ctx: &mut NativeCtx<'_>, _: &'static str) -> Result<u32, EmuError> {
    let file = arg(ctx, 0);
    let fd = file_fd(ctx, file)?;
    ctx.trace
        .push("libc", format_args!("TrustCallHandler[fclose] Close FILE@{file:#x}"));
    ctx.kernel.close(fd)?;
    ctx.kernel.heap.free(file);
    set_ret_taint(ctx, Taint::CLEAR);
    Ok(0)
}

/// How many of `n` items of `size` bytes `fread` and `fwrite` move: the
/// whole items that fit in [`MAX_TRANSFER`] bytes (C's short count), so
/// `size * items` never overflows.
fn items_within_cap(size: u32, n: u32) -> u32 {
    MAX_TRANSFER.checked_div(size).map_or(n, |fit| n.min(fit))
}

/// `size_t fread(void *buf, size_t size, size_t n, FILE *f)`.
pub fn fread(ctx: &mut NativeCtx<'_>, _: &'static str) -> Result<u32, EmuError> {
    let (buf, size, n, file) = (arg(ctx, 0), arg(ctx, 1), arg(ctx, 2), arg(ctx, 3));
    let fd = file_fd(ctx, file)?;
    set_ret_taint(ctx, Taint::CLEAR);
    let len = size * items_within_cap(size, n);
    let data = ctx.kernel.read(fd, len as usize)?;
    ctx.mem.write_bytes(buf, &data);
    if tracking(ctx) {
        // File contents carry no native taint in this model (file
        // *writes* were already reported at the sink).
        ctx.shadow.mem.clear_range(buf, data.len() as u32);
    }
    Ok((data.len() as u32).checked_div(size).unwrap_or(0))
}

/// `size_t fwrite(const void *buf, size_t size, size_t n, FILE *f)` —
/// **sink**.
pub fn fwrite(ctx: &mut NativeCtx<'_>, _: &'static str) -> Result<u32, EmuError> {
    let (buf, size, n, file) = (arg(ctx, 0), arg(ctx, 1), arg(ctx, 2), arg(ctx, 3));
    let fd = file_fd(ctx, file)?;
    set_ret_taint(ctx, Taint::CLEAR);
    let items = items_within_cap(size, n);
    let (data, taint) = guest_buf(ctx, buf, size * items);
    ctx.kernel.write(&mut ctx.shadow.prov, fd, data, taint)?;
    Ok(items)
}

/// `int fputc(int c, FILE *f)` — **sink**.
pub fn fputc(ctx: &mut NativeCtx<'_>, _: &'static str) -> Result<u32, EmuError> {
    let (c, file) = (arg(ctx, 0), arg(ctx, 1));
    let fd = file_fd(ctx, file)?;
    let taint = if tracking(ctx) {
        ctx.shadow.regs[0]
    } else {
        Taint::CLEAR
    };
    ctx.kernel.write(&mut ctx.shadow.prov, fd, [c as u8][..].into(), taint)?;
    set_ret_taint(ctx, Taint::CLEAR);
    Ok(c)
}

/// `int fputs(const char *s, FILE *f)` — **sink**.
pub fn fputs(ctx: &mut NativeCtx<'_>, _: &'static str) -> Result<u32, EmuError> {
    let (s, file) = (arg(ctx, 0), arg(ctx, 1));
    let fd = file_fd(ctx, file)?;
    let data = cstr(ctx, s);
    let taint = if tracking(ctx) {
        ctx.shadow.mem.range_taint(s, data.len().max(1) as u32)
    } else {
        Taint::CLEAR
    };
    let n = ctx
        .kernel
        .write(&mut ctx.shadow.prov, fd, data.into(), taint)?;
    set_ret_taint(ctx, Taint::CLEAR);
    Ok(n as u32)
}

/// `char *fgets(char *buf, int n, FILE *f)`
pub fn fgets(ctx: &mut NativeCtx<'_>, _: &'static str) -> Result<u32, EmuError> {
    let (buf, n, file) = (arg(ctx, 0), arg(ctx, 1), arg(ctx, 2));
    let fd = file_fd(ctx, file)?;
    let data = ctx.kernel.read(fd, (n.saturating_sub(1)) as usize)?;
    if data.is_empty() {
        set_ret_taint(ctx, Taint::CLEAR);
        return Ok(0);
    }
    let line_len = data
        .iter()
        .position(|b| *b == b'\n')
        .map(|i| i + 1)
        .unwrap_or(data.len());
    ctx.mem.write_bytes(buf, &data[..line_len]);
    ctx.mem.write_u8(buf.wrapping_add(line_len as u32), 0);
    set_ret_taint(ctx, Taint::CLEAR);
    Ok(buf)
}

/// `int getc(FILE *f)`
pub fn getc(ctx: &mut NativeCtx<'_>, _: &'static str) -> Result<u32, EmuError> {
    let file = arg(ctx, 0);
    let fd = file_fd(ctx, file)?;
    let data = ctx.kernel.read(fd, 1)?;
    set_ret_taint(ctx, Taint::CLEAR);
    Ok(data.first().map(|b| *b as u32).unwrap_or(u32::MAX)) // EOF = -1
}

/// `FILE *fdopen(int fd, const char *mode)`
pub fn fdopen(ctx: &mut NativeCtx<'_>, _: &'static str) -> Result<u32, EmuError> {
    let fd = arg(ctx, 0) as i32;
    let file = file_new(ctx, fd);
    set_ret_taint(ctx, Taint::CLEAR);
    Ok(file)
}

/// `int sprintf(char *dst, const char *fmt, ...)`
pub fn sprintf(ctx: &mut NativeCtx<'_>, name: &'static str) -> Result<u32, EmuError> {
    let dst = arg(ctx, 0);
    let mut args = ArgCursor::Aapcs(2);
    let (bytes, taints) = format_guest(ctx, arg(ctx, 1), &mut args);
    let n = write_formatted(ctx, dst, &bytes, &taints, None);
    prov_libc(ctx, name, taints.iter().fold(Taint::CLEAR, |acc, t| acc.union(*t)));
    set_ret_taint(ctx, Taint::CLEAR);
    Ok(n)
}

/// `int snprintf(char *dst, size_t size, const char *fmt, ...)`
pub fn snprintf(ctx: &mut NativeCtx<'_>, name: &'static str) -> Result<u32, EmuError> {
    let dst = arg(ctx, 0);
    let size = arg(ctx, 1) as usize;
    let mut args = ArgCursor::Aapcs(3);
    let (bytes, taints) = format_guest(ctx, arg(ctx, 2), &mut args);
    let n = write_formatted(ctx, dst, &bytes, &taints, Some(size));
    prov_libc(ctx, name, taints.iter().fold(Taint::CLEAR, |acc, t| acc.union(*t)));
    set_ret_taint(ctx, Taint::CLEAR);
    Ok(n)
}

/// `int vsprintf(char *dst, const char *fmt, va_list ap)`
pub fn vsprintf(ctx: &mut NativeCtx<'_>, name: &'static str) -> Result<u32, EmuError> {
    let dst = arg(ctx, 0);
    let mut args = ArgCursor::Slots(arg(ctx, 2));
    let (bytes, taints) = format_guest(ctx, arg(ctx, 1), &mut args);
    let n = write_formatted(ctx, dst, &bytes, &taints, None);
    prov_libc(ctx, name, taints.iter().fold(Taint::CLEAR, |acc, t| acc.union(*t)));
    set_ret_taint(ctx, Taint::CLEAR);
    Ok(n)
}

/// `int vsnprintf(char *dst, size_t size, const char *fmt, va_list ap)`
pub fn vsnprintf(ctx: &mut NativeCtx<'_>, name: &'static str) -> Result<u32, EmuError> {
    let dst = arg(ctx, 0);
    let size = arg(ctx, 1) as usize;
    let mut args = ArgCursor::Slots(arg(ctx, 3));
    let (bytes, taints) = format_guest(ctx, arg(ctx, 2), &mut args);
    let n = write_formatted(ctx, dst, &bytes, &taints, Some(size));
    prov_libc(ctx, name, taints.iter().fold(Taint::CLEAR, |acc, t| acc.union(*t)));
    set_ret_taint(ctx, Taint::CLEAR);
    Ok(n)
}

fn fprintf_common(
    ctx: &mut NativeCtx<'_>,
    file: u32,
    fmt: u32,
    mut args: ArgCursor,
) -> Result<u32, EmuError> {
    let fd = file_fd(ctx, file)?;
    let (bytes, taints) = format_guest(ctx, fmt, &mut args);
    let taint = taints.iter().fold(Taint::CLEAR, |acc, t| acc.union(*t));
    ctx.trace.push(
        "sink",
        format_args!(
            "SinkHandler[fprintf] FILE@{file:#x} taint={taint} data='{}'",
            Lossy(&bytes)
        ),
    );
    let n = ctx
        .kernel
        .write(&mut ctx.shadow.prov, fd, bytes.into(), taint)?;
    set_ret_taint(ctx, Taint::CLEAR);
    Ok(n as u32)
}

/// `int fprintf(FILE *f, const char *fmt, ...)` — **sink** (Fig. 8).
pub fn fprintf(ctx: &mut NativeCtx<'_>, _: &'static str) -> Result<u32, EmuError> {
    let (file, fmt) = (arg(ctx, 0), arg(ctx, 1));
    fprintf_common(ctx, file, fmt, ArgCursor::Aapcs(2))
}

/// `int vfprintf(FILE *f, const char *fmt, va_list ap)` — **sink**.
pub fn vfprintf(ctx: &mut NativeCtx<'_>, _: &'static str) -> Result<u32, EmuError> {
    let (file, fmt, ap) = (arg(ctx, 0), arg(ctx, 1), arg(ctx, 2));
    fprintf_common(ctx, file, fmt, ArgCursor::Slots(ap))
}
