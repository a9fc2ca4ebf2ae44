//! Trap-address assignment and registration for the `libdvm.so`
//! region: DVM-internal functions (hook targets for multilevel
//! hooking) and the guest-callable JNI environment functions.

use crate::calls::{self, parse_call_name};
use crate::{arrays, objects, strings};
use ndroid_emu::layout::LIBDVM_BASE;
use ndroid_emu::runtime::{HostTable, NativeCtx};
use ndroid_emu::EmuError;
use std::collections::HashMap;
use std::sync::OnceLock;

/// Spacing between function trap addresses (large enough that the
/// `+0x10`/`+0x14`/`+0x20`/`+0x24` call-site offsets used for virtual
/// branch events stay inside the owning function's slot).
const STRIDE: u32 = 0x40;

/// DVM-internal functions NDroid hooks (never called directly by guest
/// code; they appear as virtual-branch targets).
pub const DVM_INTERNAL_NAMES: &[&str] = &[
    "dvmCallJNIMethod",
    "dvmInterpret",
    "dvmCallMethod",
    "dvmCallMethodV",
    "dvmCallMethodA",
    "dvmDecodeIndirectRef",
    "dvmAllocObject",
    "dvmCreateStringFromUnicode",
    "dvmCreateStringFromCstr",
    "dvmAllocArrayByClass",
    "dvmAllocPrimitiveArray",
    "initException",
];

/// Guest-callable JNI environment functions outside the call family.
const ENV_NAMES: &[&str] = &[
    "NewStringUTF",
    "NewString",
    "GetStringUTFChars",
    "ReleaseStringUTFChars",
    "GetStringChars",
    "ReleaseStringChars",
    "GetStringLength",
    "GetStringUTFLength",
    "NewObject",
    "NewObjectV",
    "NewObjectA",
    "NewObjectArray",
    "NewBooleanArray",
    "NewByteArray",
    "NewCharArray",
    "NewShortArray",
    "NewIntArray",
    "NewLongArray",
    "NewFloatArray",
    "NewDoubleArray",
    "GetArrayLength",
    "GetByteArrayElements",
    "ReleaseByteArrayElements",
    "GetIntArrayElements",
    "ReleaseIntArrayElements",
    "GetIntArrayRegion",
    "SetIntArrayRegion",
    "GetByteArrayRegion",
    "SetByteArrayRegion",
    "GetObjectArrayElement",
    "SetObjectArrayElement",
    "FindClass",
    "GetMethodID",
    "GetStaticMethodID",
    "GetFieldID",
    "GetStaticFieldID",
    "GetObjectField",
    "GetBooleanField",
    "GetByteField",
    "GetCharField",
    "GetShortField",
    "GetIntField",
    "GetLongField",
    "GetFloatField",
    "GetDoubleField",
    "SetObjectField",
    "SetBooleanField",
    "SetByteField",
    "SetCharField",
    "SetShortField",
    "SetIntField",
    "SetLongField",
    "SetFloatField",
    "SetDoubleField",
    "GetStaticObjectField",
    "GetStaticIntField",
    "SetStaticObjectField",
    "SetStaticIntField",
    "ThrowNew",
    "ExceptionOccurred",
    "ExceptionClear",
    "NewGlobalRef",
    "DeleteGlobalRef",
    "DeleteLocalRef",
];

/// The complete ordered name list for the libdvm region.
pub fn jni_names() -> &'static [String] {
    static NAMES: OnceLock<Vec<String>> = OnceLock::new();
    NAMES.get_or_init(|| {
        let mut v: Vec<String> = DVM_INTERNAL_NAMES.iter().map(|s| s.to_string()).collect();
        v.extend(ENV_NAMES.iter().map(|s| s.to_string()));
        v.extend(calls::call_family_names());
        v
    })
}

/// The trap address of a libdvm-region function: an O(1) lookup in an
/// index built once per process from [`jni_names`].
///
/// # Panics
///
/// Panics on an unknown name (a workload-construction bug).
pub fn dvm_addr(name: &str) -> u32 {
    static INDEX: OnceLock<HashMap<&'static str, u32>> = OnceLock::new();
    let index = INDEX.get_or_init(|| {
        (jni_names().iter().enumerate())
            .map(|(i, n)| (n.as_str(), LIBDVM_BASE + STRIDE * i as u32))
            .collect()
    });
    *index
        .get(name)
        .unwrap_or_else(|| panic!("unknown libdvm function {name}"))
}

type Impl = fn(&mut NativeCtx<'_>) -> Result<u32, EmuError>;

/// The implementation of an environment function that needs nothing
/// but the context.
fn env_impl(name: &str) -> Impl {
    match name {
        "NewStringUTF" => strings::new_string_utf,
        "NewString" => strings::new_string,
        "GetStringUTFChars" => strings::get_string_utf_chars,
        "ReleaseStringUTFChars" => strings::release_string_utf_chars,
        "GetStringChars" => strings::get_string_chars,
        "ReleaseStringChars" => strings::release_string_chars,
        "GetStringLength" => strings::get_string_length,
        "GetStringUTFLength" => strings::get_string_utf_length,
        "NewObjectArray" => arrays::new_object_array,
        "NewByteArray" => arrays::new_byte_array,
        "GetArrayLength" => arrays::get_array_length,
        "GetByteArrayElements" => arrays::get_byte_array_elements,
        "ReleaseByteArrayElements" => arrays::release_byte_array_elements,
        "GetIntArrayElements" => arrays::get_int_array_elements,
        "ReleaseIntArrayElements" => arrays::release_int_array_elements,
        "GetIntArrayRegion" => arrays::get_int_array_region,
        "SetIntArrayRegion" => arrays::set_int_array_region,
        "GetByteArrayRegion" => arrays::get_byte_array_region,
        "SetByteArrayRegion" => arrays::set_byte_array_region,
        "GetObjectArrayElement" => arrays::get_object_array_element,
        "SetObjectArrayElement" => arrays::set_object_array_element,
        "FindClass" => objects::find_class,
        "GetMethodID" => objects::get_method_id,
        "GetStaticMethodID" => objects::get_static_method_id,
        "GetFieldID" => objects::get_field_id,
        "GetStaticFieldID" => objects::get_static_field_id,
        "GetObjectField" => objects::get_object_field,
        "GetBooleanField" | "GetByteField" | "GetCharField" | "GetShortField" | "GetIntField"
        | "GetLongField" | "GetFloatField" | "GetDoubleField" => objects::get_field,
        "SetObjectField" => objects::set_object_field,
        "SetBooleanField" | "SetByteField" | "SetCharField" | "SetShortField" | "SetIntField"
        | "SetLongField" | "SetFloatField" | "SetDoubleField" => objects::set_field,
        "GetStaticObjectField" => objects::get_static_object_field,
        "GetStaticIntField" => objects::get_static_field,
        "SetStaticObjectField" => objects::set_static_object_field,
        "SetStaticIntField" => objects::set_static_field,
        "ThrowNew" => calls::throw_new,
        "ExceptionOccurred" => calls::exception_occurred,
        "ExceptionClear" => calls::exception_clear,
        "NewGlobalRef" => calls::new_global_ref,
        "DeleteGlobalRef" => calls::delete_global_ref,
        "DeleteLocalRef" => calls::delete_local_ref,
        other => unreachable!("unhandled JNI function {other}"),
    }
}

/// Registers every guest-callable JNI function in `table`.
///
/// DVM-internal functions are *not* registered: they exist only as
/// virtual branch targets; a guest branching to one is a wild branch,
/// exactly as jumping into the middle of libdvm would misbehave.
pub fn install_jni(table: &mut HostTable) {
    for name in jni_names() {
        let name: &'static str = name.as_str();
        if DVM_INTERNAL_NAMES.contains(&name) {
            continue;
        }
        let addr = dvm_addr(name);
        if let Some((is_static, form)) = parse_call_name(name) {
            table.register(addr, name, move |ctx, t| {
                calls::call_method(ctx, t, name, is_static, form)
            });
            continue;
        }
        match name {
            "NewObject" | "NewObjectV" | "NewObjectA" => {
                table.register(addr, name, move |ctx, _| objects::new_object(ctx, name))
            }
            "NewBooleanArray" | "NewCharArray" | "NewShortArray" | "NewIntArray"
            | "NewLongArray" | "NewFloatArray" | "NewDoubleArray" => {
                table.register(addr, name, move |ctx, _| {
                    arrays::new_primitive_array(ctx, name)
                });
            }
            _ => {
                let f = env_impl(name);
                table.register(addr, name, move |ctx, _| f(ctx));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_unique_and_addressable() {
        let names = jni_names();
        let set: std::collections::HashSet<_> = names.iter().collect();
        assert_eq!(set.len(), names.len(), "duplicate names");
        assert_eq!(dvm_addr("dvmCallJNIMethod"), LIBDVM_BASE);
        assert!(dvm_addr("NewStringUTF") > LIBDVM_BASE);
        assert!(dvm_addr("CallStaticDoubleMethodA") > dvm_addr("CallVoidMethod"));
    }

    #[test]
    fn install_covers_all_callable() {
        let mut table = HostTable::new();
        install_jni(&mut table);
        let expected = jni_names().len() - DVM_INTERNAL_NAMES.len();
        assert_eq!(table.len(), expected);
        assert!(table.name_at(dvm_addr("NewStringUTF")).is_some());
        assert!(table.name_at(dvm_addr("CallVoidMethodA")).is_some());
        assert!(
            table.name_at(dvm_addr("dvmInterpret")).is_none(),
            "internals are branch targets, not callables"
        );
    }

    /// Every callable is registered under a borrow of the static name
    /// list, never a fresh copy per boot (the generated `Call*`,
    /// `New<Prim>Array` and `Get/Set<Prim>Field` names used to be
    /// leaked on every install): the table answers with the very same
    /// string.
    #[test]
    fn registered_names_borrow_the_static_list() {
        let mut table = HostTable::new();
        install_jni(&mut table);
        for name in jni_names() {
            if let Some(held) = table.name_at(dvm_addr(name)) {
                assert!(
                    std::ptr::eq(held.as_ptr(), name.as_ptr()),
                    "{name} was copied"
                );
            }
        }
        for name in [
            "CallVoidMethodA",
            "NewIntArray",
            "GetIntField",
            "SetLongField",
        ] {
            assert!(table.name_at(dvm_addr(name)).is_some(), "{name} registered");
        }
    }

    #[test]
    #[should_panic(expected = "unknown libdvm function")]
    fn unknown_name_panics() {
        dvm_addr("NotAJniFunction");
    }
}
