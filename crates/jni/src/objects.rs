//! Class/method/field resolution, object creation (`NewObject*` →
//! `dvmAllocObject`, Table III) and the field-access group (Table IV).

use crate::helpers::{
    class_of, deref, dvm_err, field_of, jclass, jfield, jmethod, prov_transfer, ref_arg,
    return_local,
};
use crate::registry::in_chain;
use ndroid_dvm::{ClassId, DvmError, HeapObject, ObjectId, Taint};
use ndroid_emu::runtime::{arg, arg_taint, new_local, set_ret_taint, tracking, NativeCtx};
use ndroid_emu::EmuError;
use ndroid_provenance::Direction;

/// `jclass FindClass(const char *name)` — accepts both `a/b/C` and
/// `La/b/C;` spellings.
pub fn find_class(ctx: &mut NativeCtx<'_>) -> Result<u32, EmuError> {
    let raw = ctx.mem.read_cstr(arg(ctx, 0));
    let name = String::from_utf8_lossy(&raw).into_owned();
    let canonical = if name.starts_with('L') && name.ends_with(';') {
        name.clone()
    } else {
        format!("L{name};")
    };
    let id = ctx.dvm.program.find_class(&canonical).map_err(dvm_err)?;
    set_ret_taint(ctx, Taint::CLEAR);
    Ok(jclass(id))
}

/// `jmethodID GetMethodID(jclass cls, const char *name, const char *sig)`
pub fn get_method_id(ctx: &mut NativeCtx<'_>) -> Result<u32, EmuError> {
    let cls = class_of(arg(ctx, 0))?;
    let name = String::from_utf8_lossy(&ctx.mem.read_cstr(arg(ctx, 1))).into_owned();
    let m = ctx.dvm.program.find_method(cls, &name).map_err(dvm_err)?;
    set_ret_taint(ctx, Taint::CLEAR);
    Ok(jmethod(m))
}

/// `jmethodID GetStaticMethodID(...)` — same resolution.
pub fn get_static_method_id(ctx: &mut NativeCtx<'_>) -> Result<u32, EmuError> {
    get_method_id(ctx)
}

/// `jfieldID Get[Static]FieldID(jclass cls, const char *name, const char *sig)`
/// — searches only the `holder` kind's fields.
pub fn get_field_id(ctx: &mut NativeCtx<'_>, holder: Holder) -> Result<u32, EmuError> {
    let cls = class_of(arg(ctx, 0))?;
    let name = String::from_utf8_lossy(&ctx.mem.read_cstr(arg(ctx, 1))).into_owned();
    let is_static = holder == Holder::Static;
    let f = ctx.dvm.program.find_field(cls, &name, is_static).map_err(dvm_err)?;
    set_ret_taint(ctx, Taint::CLEAR);
    Ok(jfield(f))
}

/// `jobject NewObject(jclass cls, jmethodID ctor, ...)` — allocates the
/// instance via `dvmAllocObject`; constructor side effects are not
/// modeled (our guests initialize through `Set*Field`).
pub fn new_object(ctx: &mut NativeCtx<'_>, nof: &'static str) -> Result<u32, EmuError> {
    let cls = class_of(arg(ctx, 0))?;
    ctx.trace.push("hook", format_args!("{nof} Begin"));
    let id = in_chain(ctx, nof, |ctx, _| {
        let nfields = ctx.dvm.program.get_class(cls).map_err(dvm_err)?.instance_fields.len();
        Ok::<_, EmuError>(ctx.dvm.heap.alloc(HeapObject::Instance {
            class: cls,
            fields: vec![0; nfields],
            taints: vec![Taint::CLEAR; nfields],
        }))
    })?;
    ctx.trace.push("hook", format_args!("{nof} End"));
    let r = new_local(ctx, id, Taint::CLEAR);
    set_ret_taint(ctx, Taint::CLEAR);
    Ok(r)
}

/// Where a field accessor's slot lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Holder {
    /// An instance field of the `jobject` argument (`Get/Set<Type>Field`).
    Instance,
    /// A static field of the `jclass` argument (`Get/SetStatic<Type>Field`).
    Static,
}

/// The slot a field accessor names.
enum Slot {
    Instance(ObjectId, u16),
    Static(ClassId, u16),
}

/// The slot `(obj | cls, fid)` names, once the `jfieldID` is known to be
/// a `holder` field of the object's class or of the `jclass` argument.
///
/// # Errors
///
/// [`DvmError::WrongObjectKind`] for a static id given to an instance
/// accessor or the reverse, an id of another class, or an instance
/// accessor's object that is not a class instance.
fn field_slot(ctx: &NativeCtx<'_>, holder: Holder) -> Result<Slot, EmuError> {
    let f = field_of(arg(ctx, 1));
    // `owner` is the `jclass` the id must belong to.
    let (slot, owner) = match holder {
        Holder::Instance => {
            let id = deref(ctx, arg(ctx, 0))?;
            let HeapObject::Instance { class, .. } = ctx.dvm.heap.get(id).map_err(dvm_err)? else {
                return Err(dvm_err(DvmError::WrongObjectKind { expected: "Object" }));
            };
            (Slot::Instance(id, f.index), jclass(*class))
        }
        Holder::Static => (Slot::Static(f.class, f.index), arg(ctx, 0)),
    };
    let expected = match holder {
        Holder::Instance if f.is_static => "instance field ID",
        Holder::Static if !f.is_static => "static field ID",
        _ if owner != jclass(f.class) => "field ID of this class",
        _ => return Ok(slot),
    };
    Err(dvm_err(DvmError::WrongObjectKind { expected }))
}

/// What a field holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FieldType {
    /// A primitive, moved as its 32-bit slot.
    Prim,
    /// An object, moved as a Dalvik reference on the Java side and an
    /// indirect reference on the native side.
    Object,
}

/// `Get[Static]<Type>Field(jobject obj | jclass cls, jfieldID fid)` —
/// "get a field's taint after executing Get*Field" (§V-B). Reads the
/// slot a matching `jfieldID` names through the interpreter's checked
/// accessors (`Heap::field`, `Dvm::static_slot`) and returns its value
/// with its taint in R0, recorded as a Java→native transfer under
/// `api`; an object field returns a fresh local reference that also
/// carries the object's taint.
pub fn get_field(
    ctx: &mut NativeCtx<'_>,
    api: &'static str,
    holder: Holder,
    ty: FieldType,
) -> Result<u32, EmuError> {
    let (value, taint) = match field_slot(ctx, holder)? {
        Slot::Instance(id, index) => ctx.dvm.heap.field(id, index),
        Slot::Static(class, index) => ctx.dvm.static_slot(class, index).map(|slot| *slot),
    }
    .map_err(dvm_err)?;
    let taint = if tracking(ctx) { taint } else { Taint::CLEAR };
    if ty == FieldType::Object {
        return Ok(return_local(ctx, api, value, taint));
    }
    prov_transfer(ctx, api, taint, Direction::JavaToNative);
    set_ret_taint(ctx, taint);
    Ok(value)
}

/// `Set[Static]<Type>Field(jobject obj | jclass cls, jfieldID fid, value)`
/// — "add taints to the corresponding field before executing Set*Field"
/// (§V-B). Stores the value with the taint of its argument (and, for an
/// object, the object's taint) through the interpreter's checked
/// accessors, recorded as a native→Java transfer under `api`.
pub fn set_field(
    ctx: &mut NativeCtx<'_>,
    api: &'static str,
    holder: Holder,
    ty: FieldType,
) -> Result<u32, EmuError> {
    let slot = field_slot(ctx, holder)?;
    let (value, taint) = match ty {
        FieldType::Prim if tracking(ctx) => (arg(ctx, 2), arg_taint(ctx, 2)),
        FieldType::Prim => (arg(ctx, 2), Taint::CLEAR),
        FieldType::Object => ref_arg(ctx, 2)?,
    };
    match slot {
        Slot::Instance(id, index) => ctx.dvm.heap.set_field(id, index, value, taint),
        Slot::Static(class, index) => {
            ctx.dvm.static_slot(class, index).map(|slot| *slot = (value, taint))
        }
    }
    .map_err(dvm_err)?;
    prov_transfer(ctx, api, taint, Direction::NativeToJava);
    set_ret_taint(ctx, Taint::CLEAR);
    Ok(0)
}
