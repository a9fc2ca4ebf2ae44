//! Shared helpers: JNI handle encodings and taint utilities. Arguments
//! and return taints go through the AAPCS surface in
//! [`ndroid_emu::runtime`].

use ndroid_dvm::{
    ClassId, Dvm, DvmError, FieldId, HeapObject, IndirectRef, MethodId, ObjectId, Taint,
};
use ndroid_emu::runtime::{
    arg, arg_taint, new_local, set_ret_taint, tracking, NativeCtx, MAX_TRANSFER,
};
use ndroid_emu::EmuError;
use ndroid_provenance::{Direction, ProvEvent};

/// Records a Java↔native provenance transfer for a JNI accessor.
/// No-op when the recorder is off or the moved data is clean, so the
/// hot path pays one branch.
pub fn prov_transfer(
    ctx: &mut NativeCtx<'_>,
    api: &'static str,
    taint: Taint,
    direction: Direction,
) {
    if taint.is_tainted() && ctx.shadow.prov.is_on() {
        ctx.shadow.prov.emit(ProvEvent::Transfer {
            api: api.into(),
            label: taint.0,
            direction,
        });
    }
}

/// A guest `jsize` for a new string or array, checked before anything
/// is allocated.
///
/// # Errors
///
/// [`DvmError::BadLength`] for a negative length or one above
/// [`MAX_TRANSFER`].
pub fn checked_jsize(len: u32) -> Result<u32, EmuError> {
    if len > MAX_TRANSFER {
        return Err(EmuError::Dvm(DvmError::BadLength {
            len: len as i32,
            max: MAX_TRANSFER,
        }));
    }
    Ok(len)
}

/// Encodes a `jclass` handle.
pub fn jclass(id: ClassId) -> u32 {
    0xC1A5_0000 | id.0
}

/// Decodes a `jclass` handle.
///
/// # Errors
///
/// [`EmuError::Kernel`] on a malformed handle.
pub fn class_of(handle: u32) -> Result<ClassId, EmuError> {
    if handle & 0xFFFF_0000 == 0xC1A5_0000 {
        Ok(ClassId(handle & 0xFFFF))
    } else {
        Err(EmuError::Kernel(format!("bad jclass {handle:#x}")))
    }
}

/// Encodes a `jmethodID`.
pub fn jmethod(id: MethodId) -> u32 {
    id.0 + 1
}

/// Decodes a `jmethodID`.
///
/// # Errors
///
/// [`EmuError::Kernel`] on the null method id.
pub fn method_of(handle: u32) -> Result<MethodId, EmuError> {
    handle
        .checked_sub(1)
        .map(MethodId)
        .ok_or_else(|| EmuError::Kernel("null jmethodID".into()))
}

/// Encodes a `jfieldID` (bit 31 = static, bits 30:16 = class,
/// bits 15:0 = field index).
pub fn jfield(f: FieldId) -> u32 {
    ((f.is_static as u32) << 31) | ((f.class.0 & 0x7FFF) << 16) | f.index as u32
}

/// Decodes a `jfieldID`.
pub fn field_of(handle: u32) -> FieldId {
    FieldId {
        class: ClassId((handle >> 16) & 0x7FFF),
        index: (handle & 0xFFFF) as u16,
        is_static: handle & 0x8000_0000 != 0,
    }
}

/// Resolves an indirect-reference argument to its object id.
///
/// # Errors
///
/// [`EmuError::Dvm`] with [`DvmError::BadIndirectRef`] on stale/null refs.
pub fn deref(ctx: &NativeCtx<'_>, raw: u32) -> Result<ObjectId, EmuError> {
    ctx.dvm
        .refs
        .decode(IndirectRef(raw))
        .map_err(EmuError::Dvm)
}

/// The full taint visible on an object reference from the native
/// context: the shadow object map entry (keyed by indirect ref, §V-B)
/// unioned with the DVM-level object taint.
pub fn object_taint(ctx: &NativeCtx<'_>, raw: u32) -> Taint {
    if !tracking(ctx) {
        return Taint::CLEAR;
    }
    let shadow = ctx.shadow.object_taint(IndirectRef(raw));
    let dvm_level = ctx
        .dvm
        .refs
        .decode(IndirectRef(raw))
        .ok()
        .and_then(|id| ctx.dvm.heap.get(id).ok())
        .map(|o| o.overall_taint())
        .unwrap_or(Taint::CLEAR);
    shadow | dvm_level
}

/// Argument `i`, a `jobject` to store, as the Dalvik reference it names
/// (0 for null) and its taint: the argument's own unioned with the
/// object's ([`object_taint`]).
///
/// # Errors
///
/// [`DvmError::BadIndirectRef`] on a stale reference.
pub fn ref_arg(ctx: &NativeCtx<'_>, i: usize) -> Result<(u32, Taint), EmuError> {
    let jobj = arg(ctx, i);
    let value = if jobj == 0 { 0 } else { Dvm::ref_value(deref(ctx, jobj)?) };
    let taint = if tracking(ctx) {
        object_taint(ctx, jobj) | arg_taint(ctx, i)
    } else {
        Taint::CLEAR
    };
    Ok((value, taint))
}

/// Returns Dalvik reference `value`, read from a slot labelled `taint`,
/// to native code, the way `api` does: null stays null; an object
/// becomes a fresh local reference labelled with the slot's taint and
/// the object's own, in R0 and in the shadow object map, recorded as a
/// Java→native transfer.
pub fn return_local(ctx: &mut NativeCtx<'_>, api: &'static str, value: u32, taint: Taint) -> u32 {
    let Some(id) = Dvm::obj_id(value) else {
        set_ret_taint(ctx, Taint::CLEAR);
        return 0;
    };
    let taint = if tracking(ctx) {
        taint | ctx.dvm.heap.get(id).map_or(Taint::CLEAR, HeapObject::overall_taint)
    } else {
        Taint::CLEAR
    };
    prov_transfer(ctx, api, taint, Direction::JavaToNative);
    let r = new_local(ctx, id, taint);
    set_ret_taint(ctx, taint);
    r
}

/// Convenience: turns a [`DvmError`] into an [`EmuError`].
pub fn dvm_err(e: DvmError) -> EmuError {
    EmuError::Dvm(e)
}
