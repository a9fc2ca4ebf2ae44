//! Trap-address assignment and registration for the `libdvm.so`
//! region: DVM-internal functions (hook targets for multilevel
//! hooking) and the guest-callable JNI environment functions.

use crate::arrays::{self, Span::Elements, Span::Region};
use crate::calls::{self, parse_call_name};
use crate::objects::{self, FieldType::Object, FieldType::Prim, Holder::Instance, Holder::Static};
use crate::strings;
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

/// A guest-callable environment function's body, given the context and
/// the name it is bound to (the `api` of its provenance events).
type Impl = fn(&mut NativeCtx<'_>, &'static str) -> Result<u32, EmuError>;

/// `Get<Prim>Field` and `Set<Prim>Field` for each of the eight primitive
/// types: one body each, recording under the family's name.
const GET_FIELD: Impl = |c, _| objects::get_field(c, "GetField", Instance, Prim);
const SET_FIELD: Impl = |c, _| objects::set_field(c, "SetField", Instance, Prim);

/// The guest-callable JNI environment functions outside the call
/// family, in trap-address order, each bound to its body. A `static`,
/// not a `const`, so each name has the one address [`jni_names`] and
/// the host table both borrow.
static ENV: &[(&str, Impl)] = &[
    ("NewStringUTF", |c, _| strings::new_string_utf(c)),
    ("NewString", |c, _| strings::new_string(c)),
    ("GetStringUTFChars", |c, _| strings::get_string_utf_chars(c)),
    ("ReleaseStringUTFChars", |c, _| strings::release_string_utf_chars(c)),
    ("GetStringChars", |c, _| strings::get_string_chars(c)),
    ("ReleaseStringChars", |c, _| strings::release_string_chars(c)),
    ("GetStringLength", |c, _| strings::get_string_length(c)),
    ("GetStringUTFLength", |c, _| strings::get_string_utf_length(c)),
    ("NewObject", objects::new_object),
    ("NewObjectV", objects::new_object),
    ("NewObjectA", objects::new_object),
    ("NewObjectArray", |c, _| arrays::new_object_array(c)),
    ("NewBooleanArray", arrays::new_primitive_array),
    ("NewByteArray", |c, _| arrays::new_byte_array(c)),
    ("NewCharArray", arrays::new_primitive_array),
    ("NewShortArray", arrays::new_primitive_array),
    ("NewIntArray", arrays::new_primitive_array),
    ("NewLongArray", arrays::new_primitive_array),
    ("NewFloatArray", arrays::new_primitive_array),
    ("NewDoubleArray", arrays::new_primitive_array),
    ("GetArrayLength", |c, _| arrays::get_array_length(c)),
    ("GetByteArrayElements", |c, n| arrays::copy_out(c, n, 1, Elements)),
    ("ReleaseByteArrayElements", |c, n| arrays::copy_in(c, n, 1, Elements)),
    ("GetIntArrayElements", |c, n| arrays::copy_out(c, n, 4, Elements)),
    ("ReleaseIntArrayElements", |c, n| arrays::copy_in(c, n, 4, Elements)),
    ("GetIntArrayRegion", |c, n| arrays::copy_out(c, n, 4, Region)),
    ("SetIntArrayRegion", |c, n| arrays::copy_in(c, n, 4, Region)),
    ("GetByteArrayRegion", |c, n| arrays::copy_out(c, n, 1, Region)),
    ("SetByteArrayRegion", |c, n| arrays::copy_in(c, n, 1, Region)),
    ("GetObjectArrayElement", arrays::get_object_array_element),
    ("SetObjectArrayElement", arrays::set_object_array_element),
    ("FindClass", |c, _| objects::find_class(c)),
    ("GetMethodID", |c, _| objects::get_method_id(c)),
    ("GetStaticMethodID", |c, _| objects::get_static_method_id(c)),
    ("GetFieldID", |c, _| objects::get_field_id(c, Instance)),
    ("GetStaticFieldID", |c, _| objects::get_field_id(c, Static)),
    ("GetObjectField", |c, n| objects::get_field(c, n, Instance, Object)),
    ("GetBooleanField", GET_FIELD),
    ("GetByteField", GET_FIELD),
    ("GetCharField", GET_FIELD),
    ("GetShortField", GET_FIELD),
    ("GetIntField", GET_FIELD),
    ("GetLongField", GET_FIELD),
    ("GetFloatField", GET_FIELD),
    ("GetDoubleField", GET_FIELD),
    ("SetObjectField", |c, n| objects::set_field(c, n, Instance, Object)),
    ("SetBooleanField", SET_FIELD),
    ("SetByteField", SET_FIELD),
    ("SetCharField", SET_FIELD),
    ("SetShortField", SET_FIELD),
    ("SetIntField", SET_FIELD),
    ("SetLongField", SET_FIELD),
    ("SetFloatField", SET_FIELD),
    ("SetDoubleField", SET_FIELD),
    ("GetStaticObjectField", |c, n| objects::get_field(c, n, Static, Object)),
    ("GetStaticIntField", |c, n| objects::get_field(c, n, Static, Prim)),
    ("SetStaticObjectField", |c, n| objects::set_field(c, n, Static, Object)),
    ("SetStaticIntField", |c, n| objects::set_field(c, n, Static, Prim)),
    ("ThrowNew", |c, _| calls::throw_new(c)),
    ("ExceptionOccurred", |c, _| calls::exception_occurred(c)),
    ("ExceptionClear", |c, _| calls::exception_clear(c)),
    ("NewGlobalRef", |c, _| calls::new_global_ref(c)),
    ("DeleteGlobalRef", |c, _| calls::delete_global_ref(c)),
    ("DeleteLocalRef", |c, _| calls::delete_local_ref(c)),
];

/// The 90 `Call…Method…` names, generated once per process.
fn call_names() -> &'static [String] {
    static NAMES: OnceLock<Vec<String>> = OnceLock::new();
    NAMES.get_or_init(calls::call_family_names)
}

/// The complete ordered name list for the libdvm region: the DVM
/// internals, the environment functions, then the call family.
pub fn jni_names() -> &'static [&'static str] {
    static NAMES: OnceLock<Vec<&'static str>> = OnceLock::new();
    NAMES.get_or_init(|| {
        let env = ENV.iter().map(|&(name, _)| name);
        let calls = call_names().iter().map(String::as_str);
        DVM_INTERNAL_NAMES.iter().copied().chain(env).chain(calls).collect()
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
            .map(|(i, &n)| (n, LIBDVM_BASE + STRIDE * i as u32))
            .collect()
    });
    *index
        .get(name)
        .unwrap_or_else(|| panic!("unknown libdvm function {name}"))
}

/// Registers every guest-callable JNI function in `table`, under a
/// borrow of its name in [`jni_names`].
///
/// DVM-internal functions are *not* registered: they exist only as
/// virtual branch targets; a guest branching to one is a wild branch,
/// exactly as jumping into the middle of libdvm would misbehave.
pub fn install_jni(table: &mut HostTable) {
    for &(name, f) in ENV {
        table.register(dvm_addr(name), name, move |ctx, _| f(ctx, name));
    }
    for name in call_names() {
        let name = name.as_str();
        let (is_static, form) = parse_call_name(name).expect("a call-family name parses");
        table.register(dvm_addr(name), name, move |ctx, t| {
            calls::call_method(ctx, t, name, is_static, form)
        });
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
        let first_env = LIBDVM_BASE + STRIDE * DVM_INTERNAL_NAMES.len() as u32;
        assert_eq!(dvm_addr(ENV[0].0), first_env, "the environment follows the internals");
        assert!(dvm_addr("CallStaticDoubleMethodA") > dvm_addr("CallVoidMethod"));
    }

    #[test]
    fn install_covers_all_callable() {
        let mut table = HostTable::new();
        install_jni(&mut table);
        let expected = jni_names().len() - DVM_INTERNAL_NAMES.len();
        assert_eq!(table.len(), expected);
        for name in ENV.iter().map(|&(name, _)| name).chain(["CallVoidMethodA"]) {
            assert!(table.name_at(dvm_addr(name)).is_some(), "{name} registered");
        }
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
    }

    #[test]
    #[should_panic(expected = "unknown libdvm function")]
    fn unknown_name_panics() {
        dvm_addr("NotAJniFunction");
    }
}
