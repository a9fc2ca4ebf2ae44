//! Array JNI functions: `New<Prim>Array`/`NewObjectArray` (object
//! creation, Table III) and element accessors.

use crate::helpers::{checked_jsize, deref, dvm_err, new_local_ref, object_taint, prov_transfer};
use crate::registry::dvm_addr;
use ndroid_dvm::{ArrayKind, Dvm, DvmError, HeapObject, ObjectId, Taint};
use ndroid_emu::runtime::{arg, arg_taint, set_ret_taint, tracking, NativeCtx};
use ndroid_emu::EmuError;
use ndroid_provenance::Direction;
use std::ops::Range;

/// The elements and label of array `id`; `WrongObjectKind` for any
/// other object.
fn array_data<'a>(ctx: &'a NativeCtx<'_>, id: ObjectId) -> Result<(&'a [u32], Taint), EmuError> {
    match ctx.dvm.heap.get(id).map_err(dvm_err)? {
        HeapObject::Array { data, taint, .. } => Ok((data, *taint)),
        _ => Err(EmuError::Dvm(DvmError::WrongObjectKind { expected: "Array" })),
    }
}

/// The elements `[start, start + len)` of array `id`, checked against
/// its length without wrapping before any guest memory is touched. A
/// region outside the array is `IndexOutOfBounds`, the analogue of the
/// `ArrayIndexOutOfBoundsException` JNI throws; its index is the first
/// one past the array that the region names.
fn region(ctx: &NativeCtx<'_>, id: ObjectId, start: u32, len: u32) -> Result<Range<usize>, EmuError> {
    let n = array_data(ctx, id)?.0.len();
    match start.checked_add(len) {
        Some(end) if end as usize <= n => Ok(start as usize..end as usize),
        _ => Err(EmuError::Dvm(DvmError::IndexOutOfBounds {
            index: if start as usize > n { start } else { n as u32 },
            len: n as u32,
        })),
    }
}

/// Creates a `len`-element array for `nof`; `len` is at most
/// [`MAX_TRANSFER`](ndroid_emu::runtime::MAX_TRANSFER), else `BadLength`
/// before anything is allocated.
fn alloc_array(
    ctx: &mut NativeCtx<'_>,
    kind: ArrayKind,
    len: u32,
    maf: &str,
    nof: &str,
) -> Result<u32, EmuError> {
    let len = checked_jsize(len)?;
    ctx.trace.push("hook", format_args!("{nof} Begin"));
    let maf_addr = dvm_addr(maf);
    ctx.analysis
        .on_branch(ctx.shadow, dvm_addr(nof) + 0x10, maf_addr);
    let id = ctx.dvm.heap.alloc(HeapObject::Array {
        kind,
        data: vec![0; len as usize],
        taint: Taint::CLEAR,
    });
    ctx.analysis
        .on_branch(ctx.shadow, maf_addr + 4, dvm_addr(nof) + 0x14);
    ctx.trace.push("hook", format_args!("{nof} End"));
    let r = new_local_ref(ctx, id, Taint::CLEAR);
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
    alloc_array(ctx, ArrayKind::Primitive, len, "dvmAllocPrimitiveArray", nof)
}

/// `jbyteArray NewByteArray(jsize len)`
pub fn new_byte_array(ctx: &mut NativeCtx<'_>) -> Result<u32, EmuError> {
    let len = arg(ctx, 0);
    alloc_array(ctx, ArrayKind::Byte, len, "dvmAllocPrimitiveArray", "NewByteArray")
}

/// `jobjectArray NewObjectArray(jsize len, jclass cls, jobject init)`
pub fn new_object_array(ctx: &mut NativeCtx<'_>) -> Result<u32, EmuError> {
    let len = arg(ctx, 0);
    alloc_array(ctx, ArrayKind::Object, len, "dvmAllocArrayByClass", "NewObjectArray")
}

/// `jsize GetArrayLength(jarray a)`
pub fn get_array_length(ctx: &mut NativeCtx<'_>) -> Result<u32, EmuError> {
    let jarr = arg(ctx, 0);
    let id = deref(ctx, jarr)?;
    let len = array_data(ctx, id)?.0.len() as u32;
    set_ret_taint(ctx, object_taint(ctx, jarr));
    Ok(len)
}

/// `jbyte *GetByteArrayElements(jbyteArray a, jboolean *isCopy)` — copy
/// out with the array's single label spread over the bytes.
pub fn get_byte_array_elements(ctx: &mut NativeCtx<'_>) -> Result<u32, EmuError> {
    let jarr = arg(ctx, 0);
    let id = deref(ctx, jarr)?;
    let (data, arr_taint) = array_data(ctx, id)?;
    let data = data.to_vec();
    let taint = if tracking(ctx) {
        arr_taint | object_taint(ctx, jarr)
    } else {
        Taint::CLEAR
    };
    let buf = ctx.kernel.heap.malloc(data.len().max(1) as u32);
    for (i, v) in data.iter().enumerate() {
        ctx.mem.write_u8(buf.wrapping_add(i as u32), *v as u8);
    }
    if tracking(ctx) {
        ctx.shadow.mem.set_range(buf, data.len() as u32, taint);
    }
    let is_copy = arg(ctx, 1);
    if is_copy != 0 {
        ctx.mem.write_u8(is_copy, 1);
    }
    prov_transfer(ctx, "GetByteArrayElements", taint, Direction::JavaToNative);
    set_ret_taint(ctx, taint);
    Ok(buf)
}

/// `void ReleaseByteArrayElements(jbyteArray a, jbyte *buf, jint mode)`
/// — copies back (mode 0/COMMIT) and propagates native-buffer taint to
/// the array object, exactly the flow TaintDroid alone would lose.
pub fn release_byte_array_elements(ctx: &mut NativeCtx<'_>) -> Result<u32, EmuError> {
    let jarr = arg(ctx, 0);
    let buf = arg(ctx, 1);
    let mode = arg(ctx, 2);
    let id = deref(ctx, jarr)?;
    if mode != 2 {
        // 2 = JNI_ABORT: discard.
        let len = match ctx.dvm.heap.get(id).map_err(dvm_err)? {
            HeapObject::Array { data, .. } => data.len(),
            _ => 0,
        };
        let bytes = ctx.mem.read_bytes(buf, len);
        let buf_taint = if tracking(ctx) {
            ctx.shadow.mem.range_taint(buf, len.max(1) as u32)
        } else {
            Taint::CLEAR
        };
        if let HeapObject::Array { data, taint, .. } =
            ctx.dvm.heap.get_mut(id).map_err(dvm_err)?
        {
            for (i, b) in bytes.iter().enumerate() {
                data[i] = *b as u32;
            }
            *taint |= buf_taint;
        }
        if tracking(ctx) && buf_taint.is_tainted() {
            ctx.shadow
                .taint_object(ndroid_dvm::IndirectRef(jarr), buf_taint);
        }
        prov_transfer(ctx, "ReleaseByteArrayElements", buf_taint, Direction::NativeToJava);
    }
    if let Some(size) = ctx.kernel.heap.size_of(buf) {
        if tracking(ctx) {
            ctx.shadow.mem.clear_range(buf, size);
        }
    }
    ctx.kernel.heap.free(buf);
    set_ret_taint(ctx, Taint::CLEAR);
    Ok(0)
}

/// `jint *GetIntArrayElements(jintArray a, jboolean *isCopy)` —
/// word-wide copy-out with the array label spread over the words.
pub fn get_int_array_elements(ctx: &mut NativeCtx<'_>) -> Result<u32, EmuError> {
    let jarr = arg(ctx, 0);
    let id = deref(ctx, jarr)?;
    let (data, arr_taint) = array_data(ctx, id)?;
    let data = data.to_vec();
    let taint = if tracking(ctx) {
        arr_taint | object_taint(ctx, jarr)
    } else {
        Taint::CLEAR
    };
    let buf = ctx.kernel.heap.malloc((data.len() as u32 * 4).max(4));
    for (i, v) in data.iter().enumerate() {
        ctx.mem.write_u32(buf.wrapping_add(4 * i as u32), *v);
    }
    if tracking(ctx) {
        ctx.shadow.mem.set_range(buf, data.len() as u32 * 4, taint);
    }
    let is_copy = arg(ctx, 1);
    if is_copy != 0 {
        ctx.mem.write_u8(is_copy, 1);
    }
    prov_transfer(ctx, "GetIntArrayElements", taint, Direction::JavaToNative);
    set_ret_taint(ctx, taint);
    Ok(buf)
}

/// `void ReleaseIntArrayElements(jintArray a, jint *buf, jint mode)`
pub fn release_int_array_elements(ctx: &mut NativeCtx<'_>) -> Result<u32, EmuError> {
    let jarr = arg(ctx, 0);
    let buf = arg(ctx, 1);
    let mode = arg(ctx, 2);
    let id = deref(ctx, jarr)?;
    if mode != 2 {
        let len = match ctx.dvm.heap.get(id).map_err(dvm_err)? {
            HeapObject::Array { data, .. } => data.len(),
            _ => 0,
        };
        let words: Vec<u32> = (0..len)
            .map(|i| ctx.mem.read_u32(buf.wrapping_add(4 * i as u32)))
            .collect();
        let buf_taint = if tracking(ctx) {
            ctx.shadow.mem.range_taint(buf, (len as u32 * 4).max(1))
        } else {
            Taint::CLEAR
        };
        if let HeapObject::Array { data, taint, .. } =
            ctx.dvm.heap.get_mut(id).map_err(dvm_err)?
        {
            data.copy_from_slice(&words);
            *taint |= buf_taint;
        }
        if tracking(ctx) && buf_taint.is_tainted() {
            ctx.shadow
                .taint_object(ndroid_dvm::IndirectRef(jarr), buf_taint);
        }
        prov_transfer(ctx, "ReleaseByteArrayElements", buf_taint, Direction::NativeToJava);
    }
    if let Some(size) = ctx.kernel.heap.size_of(buf) {
        if tracking(ctx) {
            ctx.shadow.mem.clear_range(buf, size);
        }
    }
    ctx.kernel.heap.free(buf);
    set_ret_taint(ctx, Taint::CLEAR);
    Ok(0)
}

/// `void GetIntArrayRegion(jintArray a, jsize start, jsize len, jint *buf)`
pub fn get_int_array_region(ctx: &mut NativeCtx<'_>) -> Result<u32, EmuError> {
    let (jarr, start, len, buf) = (arg(ctx, 0), arg(ctx, 1), arg(ctx, 2), arg(ctx, 3));
    let id = deref(ctx, jarr)?;
    let range = region(ctx, id, start, len)?;
    let (data, arr_taint) = array_data(ctx, id)?;
    let slice = data[range].to_vec();
    for (i, v) in slice.iter().enumerate() {
        ctx.mem.write_u32(buf.wrapping_add(4 * i as u32), *v);
    }
    if tracking(ctx) {
        let t = arr_taint | object_taint(ctx, jarr);
        ctx.shadow.mem.set_range(buf, len.saturating_mul(4), t);
        prov_transfer(ctx, "GetIntArrayRegion", t, Direction::JavaToNative);
    }
    set_ret_taint(ctx, Taint::CLEAR);
    Ok(0)
}

/// `void SetIntArrayRegion(jintArray a, jsize start, jsize len, const jint *buf)`
pub fn set_int_array_region(ctx: &mut NativeCtx<'_>) -> Result<u32, EmuError> {
    let (jarr, start, len, buf) = (arg(ctx, 0), arg(ctx, 1), arg(ctx, 2), arg(ctx, 3));
    let id = deref(ctx, jarr)?;
    let range = region(ctx, id, start, len)?;
    let words: Vec<u32> = (0..len)
        .map(|i| ctx.mem.read_u32(buf.wrapping_add(4 * i)))
        .collect();
    let buf_taint = if tracking(ctx) {
        ctx.shadow.mem.range_taint(buf, len.saturating_mul(4).max(1))
    } else {
        Taint::CLEAR
    };
    if let HeapObject::Array { data, taint, .. } = ctx.dvm.heap.get_mut(id).map_err(dvm_err)? {
        data[range].copy_from_slice(&words);
        *taint |= buf_taint;
    }
    if tracking(ctx) && buf_taint.is_tainted() {
        ctx.shadow
            .taint_object(ndroid_dvm::IndirectRef(jarr), buf_taint);
    }
    prov_transfer(ctx, "SetIntArrayRegion", buf_taint, Direction::NativeToJava);
    set_ret_taint(ctx, Taint::CLEAR);
    Ok(0)
}

/// `void GetByteArrayRegion(jbyteArray a, jsize start, jsize len, jbyte *buf)`
pub fn get_byte_array_region(ctx: &mut NativeCtx<'_>) -> Result<u32, EmuError> {
    let (jarr, start, len, buf) = (arg(ctx, 0), arg(ctx, 1), arg(ctx, 2), arg(ctx, 3));
    let id = deref(ctx, jarr)?;
    let range = region(ctx, id, start, len)?;
    let (data, arr_taint) = array_data(ctx, id)?;
    let slice = data[range].to_vec();
    for (i, v) in slice.iter().enumerate() {
        ctx.mem.write_u8(buf.wrapping_add(i as u32), *v as u8);
    }
    if tracking(ctx) {
        let t = arr_taint | object_taint(ctx, jarr);
        ctx.shadow.mem.set_range(buf, len, t);
        prov_transfer(ctx, "GetByteArrayRegion", t, Direction::JavaToNative);
    }
    set_ret_taint(ctx, Taint::CLEAR);
    Ok(0)
}

/// `void SetByteArrayRegion(jbyteArray a, jsize start, jsize len, const jbyte *buf)`
pub fn set_byte_array_region(ctx: &mut NativeCtx<'_>) -> Result<u32, EmuError> {
    let (jarr, start, len, buf) = (arg(ctx, 0), arg(ctx, 1), arg(ctx, 2), arg(ctx, 3));
    let id = deref(ctx, jarr)?;
    let range = region(ctx, id, start, len)?;
    let bytes = ctx.mem.read_bytes(buf, len as usize);
    let buf_taint = if tracking(ctx) {
        ctx.shadow.mem.range_taint(buf, len.max(1))
    } else {
        Taint::CLEAR
    };
    if let HeapObject::Array { data, taint, .. } = ctx.dvm.heap.get_mut(id).map_err(dvm_err)? {
        for (slot, b) in data[range].iter_mut().zip(&bytes) {
            *slot = *b as u32;
        }
        *taint |= buf_taint;
    }
    if tracking(ctx) && buf_taint.is_tainted() {
        ctx.shadow
            .taint_object(ndroid_dvm::IndirectRef(jarr), buf_taint);
    }
    prov_transfer(ctx, "SetByteArrayRegion", buf_taint, Direction::NativeToJava);
    set_ret_taint(ctx, Taint::CLEAR);
    Ok(0)
}

/// `jobject GetObjectArrayElement(jobjectArray a, jsize i)`
pub fn get_object_array_element(ctx: &mut NativeCtx<'_>) -> Result<u32, EmuError> {
    let (jarr, index) = (arg(ctx, 0), arg(ctx, 1));
    let id = deref(ctx, jarr)?;
    let value = match ctx.dvm.heap.get(id).map_err(dvm_err)? {
        HeapObject::Array { data, .. } => data.get(index as usize).copied().unwrap_or(0),
        _ => 0,
    };
    if value == 0 {
        set_ret_taint(ctx, Taint::CLEAR);
        return Ok(0);
    }
    let elem = Dvm::expect_obj(value).map_err(dvm_err)?;
    let t = if tracking(ctx) {
        object_taint(ctx, jarr)
            | ctx
                .dvm
                .heap
                .get(elem)
                .map(|o| o.overall_taint())
                .unwrap_or(Taint::CLEAR)
    } else {
        Taint::CLEAR
    };
    let r = new_local_ref(ctx, elem, t);
    set_ret_taint(ctx, t);
    Ok(r)
}

/// `void SetObjectArrayElement(jobjectArray a, jsize i, jobject v)`
pub fn set_object_array_element(ctx: &mut NativeCtx<'_>) -> Result<u32, EmuError> {
    let (jarr, index, jval) = (arg(ctx, 0), arg(ctx, 1), arg(ctx, 2));
    let id = deref(ctx, jarr)?;
    let value = if jval == 0 {
        0
    } else {
        Dvm::ref_value(deref(ctx, jval)?)
    };
    let extra = if tracking(ctx) {
        object_taint(ctx, jval) | arg_taint(ctx, 2)
    } else {
        Taint::CLEAR
    };
    if let HeapObject::Array { data, taint, .. } = ctx.dvm.heap.get_mut(id).map_err(dvm_err)? {
        if let Some(slot) = data.get_mut(index as usize) {
            *slot = value;
        }
        *taint |= extra;
    }
    set_ret_taint(ctx, Taint::CLEAR);
    Ok(0)
}
