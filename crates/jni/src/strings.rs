//! String-related JNI functions: the object-creation group of Table III
//! (`NewStringUTF` → `dvmCreateStringFromCstr`, `NewString` →
//! `dvmCreateStringFromUnicode`) and the `GetString*` accessors whose
//! `TrustCallHandler`s appear in the paper's Figs. 7 and 8.

use crate::helpers::{checked_jsize, deref, dvm_err, object_taint, prov_transfer};
use crate::registry::in_chain;
use ndroid_dvm::Taint;
use ndroid_emu::runtime::{arg, new_local, set_ret_taint, tracking, NativeCtx};
use ndroid_emu::EmuError;
use ndroid_provenance::Direction;
use std::rc::Rc;

/// `jstring NewStringUTF(const char *bytes)`
///
/// Reproduces the hook sequence of Fig. 6: the outer function is
/// instrumented *and* its memory-allocation counterpart
/// `dvmCreateStringFromCstr` (multilevel hooking gives NDroid both the
/// indirect reference and the real object address; §V-B "Object
/// Creation").
pub fn new_string_utf(ctx: &mut NativeCtx<'_>) -> Result<u32, EmuError> {
    let src = arg(ctx, 0);
    let bytes = ctx.mem.read_cstr(src);
    let text = String::from_utf8_lossy(&bytes).into_owned();
    let taint = if tracking(ctx) {
        ctx.shadow.mem.range_taint(src, bytes.len().max(1) as u32)
    } else {
        Taint::CLEAR
    };
    ctx.trace.push("hook", "NewStringUTF Begin");
    let (id, real_addr) = in_chain(ctx, "NewStringUTF", |ctx, maf| {
        ctx.trace.push("data", &text);
        let id = ctx.dvm.heap.alloc_string(text, taint);
        let real_addr = ctx.dvm.heap.direct_addr(id).map_err(dvm_err)?;
        ctx.trace.push("hook", format_args!("{maf} return {real_addr:#x}"));
        Ok::<_, EmuError>((id, real_addr))
    })?;
    if taint.is_tainted() {
        ctx.trace.push("taint", format_args!("realStringAddr:{real_addr:#x}"));
        ctx.trace.push(
            "taint",
            format_args!("add taint {} to new string object@{real_addr:#x}", taint.0),
        );
        ctx.trace
            .push("taint", format_args!("t({real_addr:x}) := {taint}"));
    }
    let r = new_local(ctx, id, taint);
    if taint.is_tainted() {
        ctx.trace.push("hook", format_args!("NewStringUTF return {r:#x}"));
    }
    ctx.trace.push("hook", "NewStringUTF End");
    prov_transfer(ctx, "NewStringUTF", taint, Direction::NativeToJava);
    set_ret_taint(ctx, taint);
    Ok(r)
}

/// `jstring NewString(const jchar *chars, jsize len)` — UTF-16 input.
/// `len` is at most [`MAX_TRANSFER`](ndroid_emu::runtime::MAX_TRANSFER)
/// (else `BadLength`); `chars` wraps at the top of memory like every
/// guest address.
pub fn new_string(ctx: &mut NativeCtx<'_>) -> Result<u32, EmuError> {
    let (src, len) = (arg(ctx, 0), checked_jsize(arg(ctx, 1))?);
    let mut units = Vec::with_capacity(len as usize);
    for i in 0..len {
        units.push(ctx.mem.read_u16(src.wrapping_add(2 * i)));
    }
    let text = String::from_utf16_lossy(&units);
    let taint = if tracking(ctx) {
        ctx.shadow.mem.range_taint(src, (2 * len).max(1))
    } else {
        Taint::CLEAR
    };
    ctx.trace.push("hook", "NewString Begin");
    let id = in_chain(ctx, "NewString", |ctx, _| ctx.dvm.heap.alloc_string(text, taint));
    ctx.trace.push("hook", "NewString End");
    let r = new_local(ctx, id, taint);
    prov_transfer(ctx, "NewString", taint, Direction::NativeToJava);
    set_ret_taint(ctx, taint);
    Ok(r)
}

/// `const char *GetStringUTFChars(jstring s, jboolean *isCopy)`
///
/// Copies the string into a native buffer; the object's taint
/// propagates to every byte (the step-1/2/3 `TrustCallHandler` lines of
/// Fig. 8).
pub fn get_string_utf_chars(ctx: &mut NativeCtx<'_>) -> Result<u32, EmuError> {
    let jstr = arg(ctx, 0);
    let is_copy = arg(ctx, 1);
    let id = deref(ctx, jstr)?;
    let (text, dvm_taint) = {
        let (s, t) = ctx.dvm.heap.string(id).map_err(dvm_err)?;
        (Rc::clone(s), t)
    };
    let taint = if tracking(ctx) {
        dvm_taint | object_taint(ctx, jstr)
    } else {
        Taint::CLEAR
    };
    ctx.trace
        .push("hook", "TrustCallHandler[GetStringUTFChars] begin");
    if taint.is_tainted() {
        ctx.trace
            .push("taint", format_args!("jstring taint:{}", taint.0));
    }
    let buf = ctx.kernel.heap.malloc(text.len() as u32 + 1);
    ctx.mem.write_cstr(buf, text.as_bytes());
    if tracking(ctx) {
        ctx.shadow
            .mem
            .set_range(buf, text.len() as u32, taint);
        ctx.shadow.mem.set(buf.wrapping_add(text.len() as u32), Taint::CLEAR);
        if taint.is_tainted() {
            ctx.trace.push("taint", format_args!("t({buf:x}) := {}", taint.0));
        }
    }
    if is_copy != 0 {
        ctx.mem.write_u8(is_copy, 1);
    }
    ctx.trace
        .push("hook", "TrustCallHandler[GetStringUTFChars] end");
    prov_transfer(ctx, "GetStringUTFChars", taint, Direction::JavaToNative);
    set_ret_taint(ctx, taint);
    Ok(buf)
}

/// `void ReleaseStringUTFChars(jstring s, const char *chars)`
pub fn release_string_utf_chars(ctx: &mut NativeCtx<'_>) -> Result<u32, EmuError> {
    let buf = arg(ctx, 1);
    if let Some(size) = ctx.kernel.heap.size_of(buf) {
        if tracking(ctx) {
            ctx.shadow.mem.clear_range(buf, size);
        }
    }
    ctx.kernel.heap.free(buf);
    set_ret_taint(ctx, Taint::CLEAR);
    Ok(0)
}

/// `const jchar *GetStringChars(jstring s, jboolean *isCopy)` —
/// UTF-16 copy-out, the wide sibling of `GetStringUTFChars`.
pub fn get_string_chars(ctx: &mut NativeCtx<'_>) -> Result<u32, EmuError> {
    let jstr = arg(ctx, 0);
    let is_copy = arg(ctx, 1);
    let id = deref(ctx, jstr)?;
    let (units, dvm_taint) = {
        let (s, t) = ctx.dvm.heap.string(id).map_err(dvm_err)?;
        (s.encode_utf16().collect::<Vec<u16>>(), t)
    };
    let taint = if tracking(ctx) {
        dvm_taint | object_taint(ctx, jstr)
    } else {
        Taint::CLEAR
    };
    let buf = ctx.kernel.heap.malloc((units.len() as u32) * 2 + 2);
    for (i, u) in units.iter().enumerate() {
        ctx.mem.write_u16(buf.wrapping_add(2 * i as u32), *u);
    }
    ctx.mem.write_u16(buf.wrapping_add(2 * units.len() as u32), 0);
    if tracking(ctx) {
        ctx.shadow.mem.set_range(buf, units.len() as u32 * 2, taint);
    }
    if is_copy != 0 {
        ctx.mem.write_u8(is_copy, 1);
    }
    prov_transfer(ctx, "GetStringChars", taint, Direction::JavaToNative);
    set_ret_taint(ctx, taint);
    Ok(buf)
}

/// `void ReleaseStringChars(jstring s, const jchar *chars)`
pub fn release_string_chars(ctx: &mut NativeCtx<'_>) -> Result<u32, EmuError> {
    release_string_utf_chars(ctx)
}

/// `jsize GetStringLength(jstring s)` (UTF-16 length; ours equals the
/// char count).
pub fn get_string_length(ctx: &mut NativeCtx<'_>) -> Result<u32, EmuError> {
    let jstr = arg(ctx, 0);
    let id = deref(ctx, jstr)?;
    let (s, dvm_taint) = ctx.dvm.heap.string(id).map_err(dvm_err)?;
    let len = s.chars().count() as u32;
    let t = if tracking(ctx) {
        dvm_taint | object_taint(ctx, jstr)
    } else {
        Taint::CLEAR
    };
    set_ret_taint(ctx, t);
    Ok(len)
}

/// `jsize GetStringUTFLength(jstring s)`
pub fn get_string_utf_length(ctx: &mut NativeCtx<'_>) -> Result<u32, EmuError> {
    let jstr = arg(ctx, 0);
    let id = deref(ctx, jstr)?;
    let (s, dvm_taint) = ctx.dvm.heap.string(id).map_err(dvm_err)?;
    let len = s.len() as u32;
    let t = if tracking(ctx) {
        dvm_taint | object_taint(ctx, jstr)
    } else {
        Taint::CLEAR
    };
    set_ret_taint(ctx, t);
    Ok(len)
}
