//! Array JNI functions: `New<Prim>Array`/`NewObjectArray` (object
//! creation, Table III) and the element accessors. Every element
//! access goes through the interpreter's own checked accessors
//! ([`Heap::elements`](ndroid_dvm::Heap::elements) and
//! [`Heap::elements_mut`](ndroid_dvm::Heap::elements_mut)), so a span
//! the interpreter rejects fails here with the same typed error before
//! any guest memory, slot or taint is touched.

use crate::helpers::{
    checked_jsize, deref, dvm_err, object_taint, prov_transfer, ref_arg, return_local,
};
use crate::registry::in_chain;
use ndroid_dvm::{ArrayKind, HeapObject, IndirectRef, Taint};
use ndroid_emu::runtime::{arg, new_local, set_ret_taint, tracking, NativeCtx};
use ndroid_emu::EmuError;
use ndroid_provenance::Direction;

/// Creates a `len`-element array for `nof`; `len` is at most
/// [`MAX_TRANSFER`](ndroid_emu::runtime::MAX_TRANSFER), else `BadLength`
/// before anything is allocated.
fn alloc_array(
    ctx: &mut NativeCtx<'_>,
    kind: ArrayKind,
    len: u32,
    nof: &'static str,
) -> Result<u32, EmuError> {
    let len = checked_jsize(len)?;
    ctx.trace.push("hook", format_args!("{nof} Begin"));
    let id = in_chain(ctx, nof, |ctx, _| {
        ctx.dvm.heap.alloc(HeapObject::Array {
            kind,
            data: vec![0; len as usize],
            taint: Taint::CLEAR,
        })
    });
    ctx.trace.push("hook", format_args!("{nof} End"));
    let r = new_local(ctx, id, Taint::CLEAR);
    set_ret_taint(ctx, Taint::CLEAR);
    Ok(r)
}

/// `jintArray NewIntArray(jsize len)` (and the other primitive widths —
/// all share 32-bit slots in the reproduction).
pub fn new_primitive_array(
    ctx: &mut NativeCtx<'_>,
    nof: &'static str,
) -> Result<u32, EmuError> {
    let len = arg(ctx, 0);
    alloc_array(ctx, ArrayKind::Primitive, len, nof)
}

/// `jbyteArray NewByteArray(jsize len)`
pub fn new_byte_array(ctx: &mut NativeCtx<'_>) -> Result<u32, EmuError> {
    let len = arg(ctx, 0);
    alloc_array(ctx, ArrayKind::Byte, len, "NewByteArray")
}

/// `jobjectArray NewObjectArray(jsize len, jclass cls, jobject init)`
pub fn new_object_array(ctx: &mut NativeCtx<'_>) -> Result<u32, EmuError> {
    let len = arg(ctx, 0);
    alloc_array(ctx, ArrayKind::Object, len, "NewObjectArray")
}

/// `jsize GetArrayLength(jarray a)`
pub fn get_array_length(ctx: &mut NativeCtx<'_>) -> Result<u32, EmuError> {
    let jarr = arg(ctx, 0);
    let id = deref(ctx, jarr)?;
    let len = ctx.dvm.heap.array(id).map_err(dvm_err)?.0.len() as u32;
    set_ret_taint(ctx, object_taint(ctx, jarr));
    Ok(len)
}

/// Which elements an array copy moves, and through which buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Span {
    /// `Get/Release<Type>ArrayElements(a, …)`: the whole array, through
    /// a native buffer that `Get` allocates and `Release` frees.
    Elements,
    /// `Get/Set<Type>ArrayRegion(a, start, len, buf)`: `len` elements
    /// from `start`, through the caller's buffer.
    Region,
}

/// `Release<Type>ArrayElements` mode that frees the buffer without
/// copying it back.
const JNI_ABORT: u32 = 2;

/// The copy-out half of the array accessors:
/// `jbyte *GetByteArrayElements(a, jboolean *isCopy)` (and `Int`), and
/// `void GetByteArrayRegion(a, jsize start, jsize len, jbyte *buf)`
/// (and `Int`). Copies elements to native memory, `width` bytes each
/// (1 or 4), with the array's label (its own and its reference's
/// shadow entry) spread over the bytes, and records a Java→native
/// transfer under `api`.
pub fn copy_out(
    ctx: &mut NativeCtx<'_>,
    api: &'static str,
    width: u32,
    span: Span,
) -> Result<u32, EmuError> {
    let jarr = arg(ctx, 0);
    let id = deref(ctx, jarr)?;
    let (start, len, buf) = match span {
        Span::Elements => {
            let len = ctx.dvm.heap.array(id).map_err(dvm_err)?.0.len() as u32;
            (0, len, ctx.kernel.heap.malloc(len.saturating_mul(width).max(width)))
        }
        Span::Region => (arg(ctx, 1), arg(ctx, 2), arg(ctx, 3)),
    };
    // The reference's taint includes the array's own label.
    let taint = object_taint(ctx, jarr);
    let (data, _) = ctx.dvm.heap.elements(id, start, len).map_err(dvm_err)?;
    for (i, &v) in data.iter().enumerate() {
        let at = buf.wrapping_add(width.wrapping_mul(i as u32));
        match width {
            1 => ctx.mem.write_u8(at, v as u8),
            _ => ctx.mem.write_u32(at, v),
        }
    }
    if tracking(ctx) {
        ctx.shadow.mem.set_range(buf, len.saturating_mul(width), taint);
    }
    prov_transfer(ctx, api, taint, Direction::JavaToNative);
    if span == Span::Region {
        set_ret_taint(ctx, Taint::CLEAR);
        return Ok(0);
    }
    let is_copy = arg(ctx, 1);
    if is_copy != 0 {
        ctx.mem.write_u8(is_copy, 1);
    }
    set_ret_taint(ctx, taint);
    Ok(buf)
}

/// The copy-in half of the array accessors:
/// `void ReleaseByteArrayElements(a, jbyte *buf, jint mode)` (and
/// `Int`), and `void SetByteArrayRegion(a, jsize start, jsize len,
/// const jbyte *buf)` (and `Int`). Copies native memory back into the
/// elements, `width` bytes each, unions the buffer's taint into the
/// array's label and its reference's shadow entry — exactly the flow
/// TaintDroid alone would lose — and records a native→Java transfer
/// under `api`. `Release` then frees the buffer; mode `JNI_ABORT`
/// frees it without copying.
pub fn copy_in(
    ctx: &mut NativeCtx<'_>,
    api: &'static str,
    width: u32,
    span: Span,
) -> Result<u32, EmuError> {
    let jarr = arg(ctx, 0);
    let id = deref(ctx, jarr)?;
    let (start, len, buf, copy) = match span {
        Span::Elements => {
            let len = ctx.dvm.heap.array(id).map_err(dvm_err)?.0.len() as u32;
            (0, len, arg(ctx, 1), arg(ctx, 2) != JNI_ABORT)
        }
        Span::Region => (arg(ctx, 1), arg(ctx, 2), arg(ctx, 3), true),
    };
    let track = tracking(ctx);
    if copy {
        let (data, label) = ctx.dvm.heap.elements_mut(id, start, len).map_err(dvm_err)?;
        for (i, slot) in data.iter_mut().enumerate() {
            let at = buf.wrapping_add(width.wrapping_mul(i as u32));
            *slot = match width {
                1 => ctx.mem.read_u8(at).into(),
                _ => ctx.mem.read_u32(at),
            };
        }
        let buf_taint = if track {
            ctx.shadow.mem.range_taint(buf, len.saturating_mul(width).max(1))
        } else {
            Taint::CLEAR
        };
        *label |= buf_taint;
        if track && buf_taint.is_tainted() {
            ctx.shadow.taint_object(IndirectRef(jarr), buf_taint);
        }
        prov_transfer(ctx, api, buf_taint, Direction::NativeToJava);
    }
    if span == Span::Elements {
        if let Some(size) = ctx.kernel.heap.size_of(buf) {
            if track {
                ctx.shadow.mem.clear_range(buf, size);
            }
        }
        ctx.kernel.heap.free(buf);
    }
    set_ret_taint(ctx, Taint::CLEAR);
    Ok(0)
}

/// `jobject GetObjectArrayElement(jobjectArray a, jsize i)`
pub fn get_object_array_element(
    ctx: &mut NativeCtx<'_>,
    api: &'static str,
) -> Result<u32, EmuError> {
    let (jarr, index) = (arg(ctx, 0), arg(ctx, 1));
    let id = deref(ctx, jarr)?;
    let value = ctx.dvm.heap.elements(id, index, 1).map_err(dvm_err)?.0[0];
    let taint = object_taint(ctx, jarr);
    Ok(return_local(ctx, api, value, taint))
}

/// `void SetObjectArrayElement(jobjectArray a, jsize i, jobject v)`
pub fn set_object_array_element(
    ctx: &mut NativeCtx<'_>,
    api: &'static str,
) -> Result<u32, EmuError> {
    let (jarr, index) = (arg(ctx, 0), arg(ctx, 1));
    let id = deref(ctx, jarr)?;
    let (value, taint) = ref_arg(ctx, 2)?;
    let (slot, label) = ctx.dvm.heap.elements_mut(id, index, 1).map_err(dvm_err)?;
    slot[0] = value;
    *label |= taint;
    prov_transfer(ctx, api, taint, Direction::NativeToJava);
    set_ret_taint(ctx, Taint::CLEAR);
    Ok(0)
}
