//! The raw system-call layer of Table VII: fd-based I/O, sockets,
//! memory mapping, and the remaining hooked calls (stubs that are
//! still observed/logged, since NDroid hooks them to characterize
//! behaviour even when they carry no taint).

use crate::helpers::{cstr_lossy, guest_buf};
use ndroid_dvm::Taint;
use ndroid_emu::runtime::{arg, set_ret_taint, tracking, NativeCtx};
use ndroid_emu::trace::Lossy;
use ndroid_emu::EmuError;

/// `int open(const char *path, int flags)` — flags bit 6 (`O_CREAT`)
/// creates.
pub fn open(ctx: &mut NativeCtx<'_>, _: &'static str) -> Result<u32, EmuError> {
    let path = cstr_lossy(ctx, arg(ctx, 0));
    let flags = arg(ctx, 1);
    let create = flags & 0o100 != 0 || flags & 0x3 != 0; // O_CREAT or write modes
    set_ret_taint(ctx, Taint::CLEAR);
    match ctx.kernel.open(&path, create) {
        Ok(fd) => Ok(fd as u32),
        Err(_) => Ok(u32::MAX), // -1
    }
}

/// `int close(int fd)`
pub fn close(ctx: &mut NativeCtx<'_>, _: &'static str) -> Result<u32, EmuError> {
    let fd = arg(ctx, 0) as i32;
    set_ret_taint(ctx, Taint::CLEAR);
    Ok(match ctx.kernel.close(fd) {
        Ok(()) => 0,
        Err(_) => u32::MAX,
    })
}

/// `ssize_t read(int fd, void *buf, size_t n)`
pub fn read(ctx: &mut NativeCtx<'_>, _: &'static str) -> Result<u32, EmuError> {
    let (fd, buf, n) = (arg(ctx, 0) as i32, arg(ctx, 1), arg(ctx, 2));
    let data = ctx.kernel.read(fd, n as usize)?;
    ctx.mem.write_bytes(buf, &data);
    if tracking(ctx) {
        ctx.shadow.mem.clear_range(buf, data.len() as u32);
    }
    set_ret_taint(ctx, Taint::CLEAR);
    Ok(data.len() as u32)
}

/// `ssize_t write(int fd, const void *buf, size_t n)` — **sink**. Like
/// `send` and `sendto`, it moves at most
/// [`MAX_TRANSFER`](ndroid_emu::runtime::MAX_TRANSFER) bytes and returns
/// the count moved (C's short write); the call is recorded either way.
pub fn write(ctx: &mut NativeCtx<'_>, _: &'static str) -> Result<u32, EmuError> {
    let (fd, buf, n) = (arg(ctx, 0) as i32, arg(ctx, 1), arg(ctx, 2));
    set_ret_taint(ctx, Taint::CLEAR);
    let (data, taint) = guest_buf(ctx, buf, n);
    Ok(ctx.kernel.write(&mut ctx.shadow.prov, fd, data, taint)? as u32)
}

/// `int socket(int domain, int type, int protocol)`
pub fn socket(ctx: &mut NativeCtx<'_>, _: &'static str) -> Result<u32, EmuError> {
    set_ret_taint(ctx, Taint::CLEAR);
    Ok(ctx.kernel.socket() as u32)
}

/// `int connect(int fd, const struct sockaddr *addr, socklen_t len)` —
/// the sockaddr is modeled as a C string naming the destination.
pub fn connect(ctx: &mut NativeCtx<'_>, _: &'static str) -> Result<u32, EmuError> {
    let fd = arg(ctx, 0) as i32;
    let dest = cstr_lossy(ctx, arg(ctx, 1));
    ctx.trace
        .push("libc", format_args!("TrustCallHandler[connect] fd={fd} dest={dest}"));
    set_ret_taint(ctx, Taint::CLEAR);
    Ok(match ctx.kernel.connect(fd, dest) {
        Ok(()) => 0,
        Err(_) => u32::MAX,
    })
}

/// `ssize_t send(int fd, const void *buf, size_t n, int flags)` — **sink**.
pub fn send(ctx: &mut NativeCtx<'_>, _: &'static str) -> Result<u32, EmuError> {
    let (fd, buf, n) = (arg(ctx, 0) as i32, arg(ctx, 1), arg(ctx, 2));
    set_ret_taint(ctx, Taint::CLEAR);
    let (data, taint) = guest_buf(ctx, buf, n);
    ctx.trace.push(
        "sink",
        format_args!(
            "SinkHandler[send] fd={fd} taint={taint} data='{}'",
            Lossy(&data)
        ),
    );
    Ok(ctx.kernel.send(&mut ctx.shadow.prov, fd, data, taint)? as u32)
}

/// `ssize_t sendto(int fd, const void *buf, size_t n, int flags,
/// const struct sockaddr *dest, socklen_t len)` — **sink** (Fig. 7's
/// ePhone leak fires here).
pub fn sendto(ctx: &mut NativeCtx<'_>, _: &'static str) -> Result<u32, EmuError> {
    let (fd, buf, n) = (arg(ctx, 0) as i32, arg(ctx, 1), arg(ctx, 2));
    set_ret_taint(ctx, Taint::CLEAR);
    let (data, taint) = guest_buf(ctx, buf, n);
    let dest = cstr_lossy(ctx, arg(ctx, 4));
    ctx.trace.push(
        "sink",
        format_args!(
            "SinkHandler[sendto] fd={fd} dest={dest} taint={taint} data='{}'",
            Lossy(&data)
        ),
    );
    Ok(ctx.kernel.sendto(&mut ctx.shadow.prov, fd, data, dest, taint)? as u32)
}

/// `ssize_t recv(int fd, void *buf, size_t n, int flags)`
pub fn recv(ctx: &mut NativeCtx<'_>, _: &'static str) -> Result<u32, EmuError> {
    set_ret_taint(ctx, Taint::CLEAR);
    Ok(0) // nothing to receive in the simulated network
}

/// `ssize_t recvfrom(...)`
pub fn recvfrom(ctx: &mut NativeCtx<'_>, _: &'static str) -> Result<u32, EmuError> {
    set_ret_taint(ctx, Taint::CLEAR);
    Ok(0)
}

/// `void *mmap(void *addr, size_t len, …)`
pub fn mmap(ctx: &mut NativeCtx<'_>, _: &'static str) -> Result<u32, EmuError> {
    let len = arg(ctx, 1);
    set_ret_taint(ctx, Taint::CLEAR);
    Ok(ctx.kernel.heap.malloc(len))
}

/// `int munmap(void *addr, size_t len)`
pub fn munmap(ctx: &mut NativeCtx<'_>, _: &'static str) -> Result<u32, EmuError> {
    let addr = arg(ctx, 0);
    if tracking(ctx) {
        if let Some(size) = ctx.kernel.heap.size_of(addr) {
            ctx.shadow.mem.clear_range(addr, size);
        }
    }
    ctx.kernel.heap.free(addr);
    set_ret_taint(ctx, Taint::CLEAR);
    Ok(0)
}

/// `void *dlopen(const char *name, int flags)` — returns an opaque
/// non-zero handle.
pub fn dlopen(ctx: &mut NativeCtx<'_>, _: &'static str) -> Result<u32, EmuError> {
    let name = cstr_lossy(ctx, arg(ctx, 0));
    ctx.trace
        .push("libc", format_args!("TrustCallHandler[dlopen] '{name}'"));
    set_ret_taint(ctx, Taint::CLEAR);
    Ok(0xD10_0001)
}

/// A hooked call that is observed but modeled as a success-returning
/// stub (Table VII entries with no dataflow in the reproduction).
pub fn observed_stub(ctx: &mut NativeCtx<'_>, name: &'static str) -> Result<u32, EmuError> {
    ctx.trace.push("libc", format_args!("TrustCallHandler[{name}]"));
    set_ret_taint(ctx, Taint::CLEAR);
    Ok(0)
}
