//! The JNI-exit group: `Call<Type>Method{,V,A}` (Table II), exceptions
//! (`ThrowNew` → `initException` → `dvmCallMethod` → `dvmInterpret`),
//! and reference management.
//!
//! Each call runs its Java method inside the hook chain of its row
//! ([`in_chain`]): `Call*Method → dvmCallMethod{,V,A} → dvmInterpret`
//! on the way in and the `C+4`-style returns on the way out. Argument
//! taints cross into the DVM frame via
//! [`ndroid_emu::runtime::call_java_method`], which is the paper's
//! "setting the taints in the DVM stack when native codes invoke Java
//! methods" (§V-B).

use crate::helpers::{dvm_err, method_of, object_taint};
use crate::registry::in_chain;
use ndroid_dvm::{ArgBuf, IndirectRef, IndirectRefKind, Taint};
use ndroid_emu::runtime::{
    arg, arg_taint, call_java_method, new_local, set_ret_taint, tracking, ArgCursor, HostTable,
    NativeCtx,
};
use ndroid_emu::EmuError;

/// How a `Call*Method` variant receives its arguments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArgForm {
    /// `...` — variadic registers/stack after the fixed parameters.
    Varargs,
    /// `va_list` — pointer to packed 32-bit slots.
    VaList,
    /// `jvalue *` — pointer to packed 32-bit slots.
    JvalueArray,
}

/// Shared implementation of the 90 `Call…Method…` functions.
///
/// `is_static` selects `CallStatic*` (first fixed arg is a `jclass`,
/// otherwise a `jobject` receiver that becomes the callee's `this`).
pub fn call_method(
    ctx: &mut NativeCtx<'_>,
    table: &HostTable,
    name: &'static str,
    is_static: bool,
    form: ArgForm,
) -> Result<u32, EmuError> {
    let mid = method_of(arg(ctx, 1))?;
    let def = ctx.dvm.program.get_method(mid).map_err(dvm_err)?;
    ctx.trace.push("hook", format_args!("{name} Begin"));

    // Collect callee arguments with their native-side taints.
    let mut call_args = ArgBuf::new();
    if !is_static {
        let receiver = arg(ctx, 0);
        let t = if tracking(ctx) {
            arg_taint(ctx, 0) | object_taint(ctx, receiver)
        } else {
            Taint::CLEAR
        };
        call_args.push((receiver, t));
    }
    let mut args = match form {
        ArgForm::Varargs => ArgCursor::Aapcs(2),
        ArgForm::VaList | ArgForm::JvalueArray => ArgCursor::Slots(arg(ctx, 2)),
    };
    for kind in def.shorty.bytes().skip(1) {
        let (value, mut t) = args.next(ctx);
        if kind == b'L' && tracking(ctx) {
            t |= object_taint(ctx, value);
        }
        call_args.push((value, t));
    }

    let result = in_chain(ctx, name, |ctx, _| {
        let def = ctx.dvm.program.method(mid);
        ctx.trace.push("java-call", format_args!("Method Name: {}", def.name));
        ctx.trace.push("java-call", format_args!("Method Shorty: {}", def.shorty));
        ctx.trace.push("java-call", format_args!("Method registerSize: {}", def.registers_size));
        let frame = ctx.dvm.stack.frame_guest_addr();
        ctx.trace.push("java-call", format_args!("curFrame@{frame:#x}"));
        for (i, (v, t)) in call_args.iter().enumerate() {
            if t.is_tainted() {
                ctx.trace.push(
                    "taint",
                    format_args!("args[{i}]@{v:#x} taint: {:#x} -> DVM frame", t.0),
                );
            }
        }
        call_java_method(ctx, table, mid, &call_args)
    });
    ctx.trace.push("hook", format_args!("{name} End"));

    let (value, taint) = result?;
    set_ret_taint(ctx, taint);
    Ok(value)
}

/// `jint ThrowNew(jclass cls, const char *msg)` — "add the taint of the
/// third parameter of ThrowNew to the string object in the new
/// exception object" (§V-B). (The class is the second parameter here
/// because the env pointer is omitted.)
pub fn throw_new(ctx: &mut NativeCtx<'_>) -> Result<u32, EmuError> {
    let cls_handle = arg(ctx, 0);
    let msg_ptr = arg(ctx, 1);
    let msg = String::from_utf8_lossy(&ctx.mem.read_cstr(msg_ptr)).into_owned();
    let taint = if tracking(ctx) {
        ctx.shadow
            .mem
            .range_taint(msg_ptr, msg.len().max(1) as u32)
    } else {
        Taint::CLEAR
    };
    let class_name = crate::helpers::class_of(cls_handle)
        .ok()
        .and_then(|c| ctx.dvm.program.get_class(c).ok())
        .map(|def| def.name.clone())
        .unwrap_or_else(|| "Ljava/lang/RuntimeException;".to_string());

    ctx.trace.push("hook", "ThrowNew Begin");
    let exc = in_chain(ctx, "ThrowNew", |ctx, _| ctx.dvm.throw_new(&class_name, &msg, taint));
    if taint.is_tainted() {
        ctx.trace.push(
            "taint",
            format_args!("add taint {} to exception message string", taint.0),
        );
    }
    ctx.trace.push("hook", "ThrowNew End");
    ctx.dvm.pending_exception = Some(exc);
    set_ret_taint(ctx, Taint::CLEAR);
    Ok(0)
}

/// `jthrowable ExceptionOccurred()`
pub fn exception_occurred(ctx: &mut NativeCtx<'_>) -> Result<u32, EmuError> {
    set_ret_taint(ctx, Taint::CLEAR);
    match ctx.dvm.pending_exception {
        Some(exc) => Ok(new_local(ctx, exc, Taint::CLEAR)),
        None => Ok(0),
    }
}

/// `void ExceptionClear()`
pub fn exception_clear(ctx: &mut NativeCtx<'_>) -> Result<u32, EmuError> {
    ctx.dvm.pending_exception = None;
    set_ret_taint(ctx, Taint::CLEAR);
    Ok(0)
}

/// `jobject NewGlobalRef(jobject r)` — the shadow taint follows the new
/// key so GC-surviving references stay tainted.
pub fn new_global_ref(ctx: &mut NativeCtx<'_>) -> Result<u32, EmuError> {
    let old = arg(ctx, 0);
    if old == 0 {
        set_ret_taint(ctx, Taint::CLEAR);
        return Ok(0);
    }
    let id = crate::helpers::deref(ctx, old)?;
    let t = object_taint(ctx, old);
    let g = ctx.dvm.refs.add(IndirectRefKind::Global, id);
    if tracking(ctx) {
        ctx.shadow.taint_object(g, t);
    }
    set_ret_taint(ctx, t);
    Ok(g.0)
}

/// `void DeleteGlobalRef(jobject r)`
pub fn delete_global_ref(ctx: &mut NativeCtx<'_>) -> Result<u32, EmuError> {
    let r = IndirectRef(arg(ctx, 0));
    ctx.dvm.refs.delete(r).map_err(dvm_err)?;
    ctx.shadow.objects.remove(&r);
    set_ret_taint(ctx, Taint::CLEAR);
    Ok(0)
}

/// `void DeleteLocalRef(jobject r)`
pub fn delete_local_ref(ctx: &mut NativeCtx<'_>) -> Result<u32, EmuError> {
    let r = IndirectRef(arg(ctx, 0));
    ctx.dvm.refs.delete(r).map_err(dvm_err)?;
    ctx.shadow.objects.remove(&r);
    set_ret_taint(ctx, Taint::CLEAR);
    Ok(0)
}

/// Resolves a `Call…Method…` host-function name into its dispatch
/// parameters, or `None` if the name is not part of the family.
pub fn parse_call_name(name: &str) -> Option<(bool, ArgForm)> {
    if !name.starts_with("Call") {
        return None;
    }
    let rest = &name[4..];
    let (is_static, rest) = match rest.strip_prefix("Static") {
        Some(r) => (true, r),
        None => (false, rest.strip_prefix("Nonvirtual").unwrap_or(rest)),
    };
    let type_ok = [
        "Void", "Object", "Boolean", "Byte", "Char", "Short", "Int", "Long", "Float", "Double",
    ]
    .iter()
    .any(|t| rest.starts_with(t));
    if !type_ok {
        return None;
    }
    let form = if rest.ends_with("MethodV") {
        ArgForm::VaList
    } else if rest.ends_with("MethodA") {
        ArgForm::JvalueArray
    } else if rest.ends_with("Method") {
        ArgForm::Varargs
    } else {
        return None;
    };
    Some((is_static, form))
}

/// The full list of Table II call-function names (90 entries:
/// 3 kinds × 10 types × 3 forms).
pub fn call_family_names() -> Vec<String> {
    let mut names = Vec::with_capacity(90);
    for kind in ["", "Nonvirtual", "Static"] {
        for ty in [
            "Void", "Object", "Boolean", "Byte", "Char", "Short", "Int", "Long", "Float",
            "Double",
        ] {
            for form in ["", "V", "A"] {
                names.push(format!("Call{kind}{ty}Method{form}"));
            }
        }
    }
    names
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn call_family_is_ninety() {
        let names = call_family_names();
        assert_eq!(names.len(), 90);
        assert!(names.iter().any(|n| n == "CallVoidMethod"));
        assert!(names.iter().any(|n| n == "CallStaticIntMethodA"));
        assert!(names.iter().any(|n| n == "CallNonvirtualObjectMethodV"));
        // All unique.
        let set: std::collections::HashSet<_> = names.iter().collect();
        assert_eq!(set.len(), 90);
    }

    #[test]
    fn parse_call_names() {
        assert_eq!(parse_call_name("CallVoidMethod"), Some((false, ArgForm::Varargs)));
        assert_eq!(
            parse_call_name("CallVoidMethodA"),
            Some((false, ArgForm::JvalueArray))
        );
        assert_eq!(
            parse_call_name("CallStaticObjectMethodV"),
            Some((true, ArgForm::VaList))
        );
        assert_eq!(
            parse_call_name("CallNonvirtualIntMethod"),
            Some((false, ArgForm::Varargs))
        );
        assert_eq!(parse_call_name("NewStringUTF"), None);
        assert_eq!(parse_call_name("CallBogusMethod"), None);
        for name in call_family_names() {
            assert!(parse_call_name(&name).is_some(), "{name} must parse");
        }
    }

    #[test]
    fn misparse_rejected() {
        assert_eq!(parse_call_name("Call"), None);
        assert_eq!(parse_call_name("CallVoid"), None);
        assert_eq!(parse_call_name("CallVoidMethodX"), None);
    }
}
