//! Trap-address assignment and registration for the `libdvm.so`
//! region: DVM-internal functions (hook targets for multilevel
//! hooking) and the guest-callable JNI environment functions.

use crate::calls::{self, parse_call_name};
use crate::{arrays, objects, strings};
use ndroid_emu::layout::LIBDVM_BASE;
use ndroid_emu::runtime::HostTable;
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

/// The trap address of a libdvm-region function.
///
/// # Panics
///
/// Panics on an unknown name (a workload-construction bug).
pub fn dvm_addr(name: &str) -> u32 {
    let i = jni_names()
        .iter()
        .position(|n| n == name)
        .unwrap_or_else(|| panic!("unknown libdvm function {name}"));
    LIBDVM_BASE + STRIDE * i as u32
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
            "NewStringUTF" => table.register(addr, name, |ctx, _| strings::new_string_utf(ctx)),
            "NewString" => table.register(addr, name, |ctx, _| strings::new_string(ctx)),
            "GetStringUTFChars" => {
                table.register(addr, name, |ctx, _| strings::get_string_utf_chars(ctx))
            }
            "ReleaseStringUTFChars" => {
                table.register(addr, name, |ctx, _| strings::release_string_utf_chars(ctx))
            }
            "GetStringChars" => table.register(addr, name, |ctx, _| strings::get_string_chars(ctx)),
            "ReleaseStringChars" => {
                table.register(addr, name, |ctx, _| strings::release_string_chars(ctx))
            }
            "GetStringLength" => {
                table.register(addr, name, |ctx, _| strings::get_string_length(ctx))
            }
            "GetStringUTFLength" => {
                table.register(addr, name, |ctx, _| strings::get_string_utf_length(ctx))
            }
            "NewObject" | "NewObjectV" | "NewObjectA" => {
                table.register(addr, name, move |ctx, _| objects::new_object(ctx, name))
            }
            "NewObjectArray" => table.register(addr, name, |ctx, _| arrays::new_object_array(ctx)),
            "NewByteArray" => table.register(addr, name, |ctx, _| arrays::new_byte_array(ctx)),
            "NewBooleanArray" | "NewCharArray" | "NewShortArray" | "NewIntArray"
            | "NewLongArray" | "NewFloatArray" | "NewDoubleArray" => {
                table.register(addr, name, move |ctx, _| {
                    arrays::new_primitive_array(ctx, name)
                });
            }
            "GetArrayLength" => table.register(addr, name, |ctx, _| arrays::get_array_length(ctx)),
            "GetByteArrayElements" => {
                table.register(addr, name, |ctx, _| arrays::get_byte_array_elements(ctx))
            }
            "ReleaseByteArrayElements" => table.register(addr, name, |ctx, _| {
                arrays::release_byte_array_elements(ctx)
            }),
            "GetIntArrayElements" => {
                table.register(addr, name, |ctx, _| arrays::get_int_array_elements(ctx))
            }
            "ReleaseIntArrayElements" => {
                table.register(addr, name, |ctx, _| arrays::release_int_array_elements(ctx))
            }
            "GetIntArrayRegion" => {
                table.register(addr, name, |ctx, _| arrays::get_int_array_region(ctx))
            }
            "SetIntArrayRegion" => {
                table.register(addr, name, |ctx, _| arrays::set_int_array_region(ctx))
            }
            "GetByteArrayRegion" => {
                table.register(addr, name, |ctx, _| arrays::get_byte_array_region(ctx))
            }
            "SetByteArrayRegion" => {
                table.register(addr, name, |ctx, _| arrays::set_byte_array_region(ctx))
            }
            "GetObjectArrayElement" => {
                table.register(addr, name, |ctx, _| arrays::get_object_array_element(ctx))
            }
            "SetObjectArrayElement" => {
                table.register(addr, name, |ctx, _| arrays::set_object_array_element(ctx))
            }
            "FindClass" => table.register(addr, name, |ctx, _| objects::find_class(ctx)),
            "GetMethodID" => table.register(addr, name, |ctx, _| objects::get_method_id(ctx)),
            "GetStaticMethodID" => {
                table.register(addr, name, |ctx, _| objects::get_static_method_id(ctx))
            }
            "GetFieldID" => table.register(addr, name, |ctx, _| objects::get_field_id(ctx)),
            "GetStaticFieldID" => {
                table.register(addr, name, |ctx, _| objects::get_static_field_id(ctx))
            }
            "GetObjectField" => table.register(addr, name, |ctx, _| objects::get_object_field(ctx)),
            "GetBooleanField" | "GetByteField" | "GetCharField" | "GetShortField"
            | "GetIntField" | "GetLongField" | "GetFloatField" | "GetDoubleField" => {
                table.register(addr, name, |ctx, _| objects::get_field(ctx));
            }
            "SetObjectField" => table.register(addr, name, |ctx, _| objects::set_object_field(ctx)),
            "SetBooleanField" | "SetByteField" | "SetCharField" | "SetShortField"
            | "SetIntField" | "SetLongField" | "SetFloatField" | "SetDoubleField" => {
                table.register(addr, name, |ctx, _| objects::set_field(ctx));
            }
            "GetStaticObjectField" => {
                table.register(addr, name, |ctx, _| objects::get_static_object_field(ctx))
            }
            "GetStaticIntField" => {
                table.register(addr, name, |ctx, _| objects::get_static_field(ctx))
            }
            "SetStaticObjectField" => {
                table.register(addr, name, |ctx, _| objects::set_static_object_field(ctx))
            }
            "SetStaticIntField" => {
                table.register(addr, name, |ctx, _| objects::set_static_field(ctx))
            }
            "ThrowNew" => table.register(addr, name, |ctx, _| calls::throw_new(ctx)),
            "ExceptionOccurred" => {
                table.register(addr, name, |ctx, _| calls::exception_occurred(ctx))
            }
            "ExceptionClear" => table.register(addr, name, |ctx, _| calls::exception_clear(ctx)),
            "NewGlobalRef" => table.register(addr, name, |ctx, _| calls::new_global_ref(ctx)),
            "DeleteGlobalRef" => table.register(addr, name, |ctx, _| calls::delete_global_ref(ctx)),
            "DeleteLocalRef" => table.register(addr, name, |ctx, _| calls::delete_local_ref(ctx)),
            other => unreachable!("unhandled JNI function {other}"),
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
