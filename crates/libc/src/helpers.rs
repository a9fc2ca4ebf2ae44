//! Shared helpers for the modeled functions: provenance, guest-string
//! and sink-buffer utilities. Arguments and return taints go through the
//! AAPCS surface in [`ndroid_emu::runtime`].

use ndroid_dvm::Taint;
use ndroid_emu::runtime::{tracking, NativeCtx, MAX_TRANSFER};
use std::sync::Arc;

/// Records a libc-model provenance event: `func` moved `taint`-labeled
/// data. No-op when the recorder is off or the data is clean, so the
/// untraced path pays one branch.
pub fn prov_libc(ctx: &mut NativeCtx<'_>, func: &'static str, taint: Taint) {
    if taint.is_tainted() && ctx.shadow.prov.is_on() {
        ctx.shadow.prov.emit(ndroid_provenance::ProvEvent::Libc {
            func: func.into(),
            label: taint.0,
        });
    }
}

/// Reads a NUL-terminated guest string.
pub fn cstr(ctx: &NativeCtx<'_>, addr: u32) -> Vec<u8> {
    ctx.mem.read_cstr(addr)
}

/// Reads a guest string lossily as UTF-8, ready to share with the
/// kernel and the sink log: a string within one page is read in place
/// and copied once, into the shared text.
pub fn cstr_lossy(ctx: &NativeCtx<'_>, addr: u32) -> Arc<str> {
    String::from_utf8_lossy(&ctx.mem.cstr_bytes(addr)).into()
}

/// The taint union over a guest string's bytes (including its length
/// dependence — the bytes *are* the data).
pub fn cstr_taint(ctx: &NativeCtx<'_>, addr: u32) -> Taint {
    if !tracking(ctx) {
        return Taint::CLEAR;
    }
    let len = ctx.mem.cstr_len(addr) as u32;
    ctx.shadow.mem.range_taint(addr, len.max(1))
}

/// The guest bytes at `addr` that a sink sends, with their taint union
/// (clear when not tracking): the first `n`, but at most
/// [`MAX_TRANSFER`], bounded before anything is allocated. A sink that
/// sends fewer bytes than asked returns C's short count, and a looping
/// guest sends the rest in calls of their own. The bytes are copied
/// once, into the buffer the sink log keeps.
pub fn guest_buf(ctx: &NativeCtx<'_>, addr: u32, n: u32) -> (Arc<[u8]>, Taint) {
    let n = n.min(MAX_TRANSFER);
    let taint = if tracking(ctx) { ctx.shadow.mem.range_taint(addr, n) } else { Taint::CLEAR };
    let mut data: Arc<[u8]> = std::iter::repeat_n(0, n as usize).collect();
    let out = Arc::get_mut(&mut data).expect("a new buffer is unshared");
    let mut at = 0;
    for chunk in ctx.mem.chunks(addr, n as usize) {
        out[at..at + chunk.len()].copy_from_slice(chunk);
        at += chunk.len();
    }
    (data, taint)
}
