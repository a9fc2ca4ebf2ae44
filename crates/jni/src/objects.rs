//! Class/method/field resolution, object creation (`NewObject*` →
//! `dvmAllocObject`, Table III) and the field-access group (Table IV).

use crate::helpers::{
    class_of, deref, dvm_err, field_of, jclass, jfield, jmethod, new_local_ref, object_taint,
    prov_transfer,
};
use crate::registry::dvm_addr;
use ndroid_dvm::{Dvm, HeapObject, Taint};
use ndroid_emu::runtime::{arg, arg_taint, set_ret_taint, tracking, NativeCtx};
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

/// `jfieldID GetFieldID(jclass cls, const char *name, const char *sig)`
pub fn get_field_id(ctx: &mut NativeCtx<'_>) -> Result<u32, EmuError> {
    let cls = class_of(arg(ctx, 0))?;
    let name = String::from_utf8_lossy(&ctx.mem.read_cstr(arg(ctx, 1))).into_owned();
    let f = ctx.dvm.program.find_field(cls, &name).map_err(dvm_err)?;
    set_ret_taint(ctx, Taint::CLEAR);
    Ok(jfield(f))
}

/// `jfieldID GetStaticFieldID(...)`
pub fn get_static_field_id(ctx: &mut NativeCtx<'_>) -> Result<u32, EmuError> {
    get_field_id(ctx)
}

/// `jobject NewObject(jclass cls, jmethodID ctor, ...)` — allocates the
/// instance via `dvmAllocObject`; constructor side effects are not
/// modeled (our guests initialize through `Set*Field`).
pub fn new_object(ctx: &mut NativeCtx<'_>, nof: &'static str) -> Result<u32, EmuError> {
    let cls = class_of(arg(ctx, 0))?;
    ctx.trace.push("hook", format_args!("{nof} Begin"));
    let maf = dvm_addr("dvmAllocObject");
    ctx.analysis
        .on_branch(ctx.shadow, dvm_addr(nof) + 0x10, maf);
    let nfields = ctx
        .dvm
        .program
        .get_class(cls)
        .map_err(dvm_err)?
        .instance_fields
        .len();
    let id = ctx.dvm.heap.alloc(HeapObject::Instance {
        class: cls,
        fields: vec![0; nfields],
        taints: vec![Taint::CLEAR; nfields],
    });
    ctx.analysis
        .on_branch(ctx.shadow, maf + 4, dvm_addr(nof) + 0x14);
    ctx.trace.push("hook", format_args!("{nof} End"));
    let r = new_local_ref(ctx, id, Taint::CLEAR);
    set_ret_taint(ctx, Taint::CLEAR);
    Ok(r)
}

/// `Get<Prim>Field(jobject obj, jfieldID fid)` — "get a field's taint
/// after executing Get*Field" (§V-B).
pub fn get_field(ctx: &mut NativeCtx<'_>) -> Result<u32, EmuError> {
    let jobj = arg(ctx, 0);
    let f = field_of(arg(ctx, 1));
    let id = deref(ctx, jobj)?;
    let (value, ftaint) = match ctx.dvm.heap.get(id).map_err(dvm_err)? {
        HeapObject::Instance { fields, taints, .. } => {
            let v = fields.get(f.index as usize).copied().unwrap_or(0);
            let t = taints.get(f.index as usize).copied().unwrap_or(Taint::CLEAR);
            (v, t)
        }
        _ => {
            return Err(EmuError::Dvm(ndroid_dvm::DvmError::WrongObjectKind {
                expected: "Object",
            }))
        }
    };
    let t = if tracking(ctx) { ftaint } else { Taint::CLEAR };
    prov_transfer(ctx, "GetField", t, Direction::JavaToNative);
    set_ret_taint(ctx, t);
    Ok(value)
}

/// `jobject GetObjectField(jobject obj, jfieldID fid)` — the value is a
/// Dalvik reference that must be wrapped as an indirect reference.
pub fn get_object_field(ctx: &mut NativeCtx<'_>) -> Result<u32, EmuError> {
    let jobj = arg(ctx, 0);
    let f = field_of(arg(ctx, 1));
    let id = deref(ctx, jobj)?;
    let (value, ftaint) = match ctx.dvm.heap.get(id).map_err(dvm_err)? {
        HeapObject::Instance { fields, taints, .. } => (
            fields.get(f.index as usize).copied().unwrap_or(0),
            taints.get(f.index as usize).copied().unwrap_or(Taint::CLEAR),
        ),
        _ => {
            return Err(EmuError::Dvm(ndroid_dvm::DvmError::WrongObjectKind {
                expected: "Object",
            }))
        }
    };
    if value == 0 {
        set_ret_taint(ctx, Taint::CLEAR);
        return Ok(0);
    }
    let target = Dvm::expect_obj(value).map_err(dvm_err)?;
    let obj_level = ctx
        .dvm
        .heap
        .get(target)
        .map(|o| o.overall_taint())
        .unwrap_or(Taint::CLEAR);
    let t = if tracking(ctx) {
        ftaint | obj_level
    } else {
        Taint::CLEAR
    };
    prov_transfer(ctx, "GetObjectField", t, Direction::JavaToNative);
    let r = new_local_ref(ctx, target, t);
    set_ret_taint(ctx, t);
    Ok(r)
}

/// `Set<Prim>Field(jobject obj, jfieldID fid, value)` — "add taints to
/// the corresponding field before executing Set*Field" (§V-B).
pub fn set_field(ctx: &mut NativeCtx<'_>) -> Result<u32, EmuError> {
    let jobj = arg(ctx, 0);
    let f = field_of(arg(ctx, 1));
    let value = arg(ctx, 2);
    let t = if tracking(ctx) {
        arg_taint(ctx, 2)
    } else {
        Taint::CLEAR
    };
    let id = deref(ctx, jobj)?;
    if let HeapObject::Instance { fields, taints, .. } =
        ctx.dvm.heap.get_mut(id).map_err(dvm_err)?
    {
        if let Some(slot) = fields.get_mut(f.index as usize) {
            *slot = value;
            taints[f.index as usize] = t;
        }
    }
    prov_transfer(ctx, "SetField", t, Direction::NativeToJava);
    set_ret_taint(ctx, Taint::CLEAR);
    Ok(0)
}

/// `void SetObjectField(jobject obj, jfieldID fid, jobject value)` —
/// unwraps the indirect reference and stores the Dalvik reference; the
/// shadow object taint moves onto the field.
pub fn set_object_field(ctx: &mut NativeCtx<'_>) -> Result<u32, EmuError> {
    let jobj = arg(ctx, 0);
    let f = field_of(arg(ctx, 1));
    let jval = arg(ctx, 2);
    let value = if jval == 0 {
        0
    } else {
        Dvm::ref_value(deref(ctx, jval)?)
    };
    let t = if tracking(ctx) {
        object_taint(ctx, jval) | arg_taint(ctx, 2)
    } else {
        Taint::CLEAR
    };
    let id = deref(ctx, jobj)?;
    if let HeapObject::Instance { fields, taints, .. } =
        ctx.dvm.heap.get_mut(id).map_err(dvm_err)?
    {
        if let Some(slot) = fields.get_mut(f.index as usize) {
            *slot = value;
            taints[f.index as usize] = t;
        }
    }
    prov_transfer(ctx, "SetObjectField", t, Direction::NativeToJava);
    set_ret_taint(ctx, Taint::CLEAR);
    Ok(0)
}

/// `GetStatic<Prim>Field(jclass cls, jfieldID fid)`
pub fn get_static_field(ctx: &mut NativeCtx<'_>) -> Result<u32, EmuError> {
    let f = field_of(arg(ctx, 1));
    let (value, t) = ctx
        .dvm
        .program
        .statics
        .get(f.class.0 as usize)
        .and_then(|s| s.get(f.index as usize))
        .copied()
        .unwrap_or((0, Taint::CLEAR));
    set_ret_taint(ctx, if tracking(ctx) { t } else { Taint::CLEAR });
    Ok(value)
}

/// `GetStaticObjectField(jclass cls, jfieldID fid)`
pub fn get_static_object_field(ctx: &mut NativeCtx<'_>) -> Result<u32, EmuError> {
    let f = field_of(arg(ctx, 1));
    let (value, t) = ctx
        .dvm
        .program
        .statics
        .get(f.class.0 as usize)
        .and_then(|s| s.get(f.index as usize))
        .copied()
        .unwrap_or((0, Taint::CLEAR));
    if value == 0 {
        set_ret_taint(ctx, Taint::CLEAR);
        return Ok(0);
    }
    let target = Dvm::expect_obj(value).map_err(dvm_err)?;
    let obj_level = ctx
        .dvm
        .heap
        .get(target)
        .map(|o| o.overall_taint())
        .unwrap_or(Taint::CLEAR);
    let taint = if tracking(ctx) {
        t | obj_level
    } else {
        Taint::CLEAR
    };
    let r = new_local_ref(ctx, target, taint);
    set_ret_taint(ctx, taint);
    Ok(r)
}

/// `SetStatic<Prim>Field(jclass cls, jfieldID fid, value)`
pub fn set_static_field(ctx: &mut NativeCtx<'_>) -> Result<u32, EmuError> {
    let f = field_of(arg(ctx, 1));
    let value = arg(ctx, 2);
    let t = if tracking(ctx) {
        arg_taint(ctx, 2)
    } else {
        Taint::CLEAR
    };
    if let Some(slot) = ctx
        .dvm
        .program
        .statics
        .get_mut(f.class.0 as usize)
        .and_then(|s| s.get_mut(f.index as usize))
    {
        *slot = (value, t);
    }
    set_ret_taint(ctx, Taint::CLEAR);
    Ok(0)
}

/// `SetStaticObjectField(jclass cls, jfieldID fid, jobject value)`
pub fn set_static_object_field(ctx: &mut NativeCtx<'_>) -> Result<u32, EmuError> {
    let f = field_of(arg(ctx, 1));
    let jval = arg(ctx, 2);
    let value = if jval == 0 {
        0
    } else {
        Dvm::ref_value(deref(ctx, jval)?)
    };
    let t = if tracking(ctx) {
        object_taint(ctx, jval) | arg_taint(ctx, 2)
    } else {
        Taint::CLEAR
    };
    if let Some(slot) = ctx
        .dvm
        .program
        .statics
        .get_mut(f.class.0 as usize)
        .and_then(|s| s.get_mut(f.index as usize))
    {
        *slot = (value, t);
    }
    set_ret_taint(ctx, Taint::CLEAR);
    Ok(0)
}
