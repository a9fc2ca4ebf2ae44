//! Trap-address assignment and registration for the `libdvm.so`
//! region: DVM-internal functions (hook targets for multilevel
//! hooking) and the guest-callable JNI environment functions.
//!
//! Each environment function is one row: its name, its body and its
//! hook chain, the Table III levels a call to it enters (Fig. 5). The
//! `Call*Method*` rows are generated, each with the chain of its
//! argument form. One address table, built from the rows once per
//! process ([`hook_table`]), serves both sides of multilevel hooking:
//! [`HookTable::at`] tells the analysis where a chain starts and which
//! functions are inner levels, and [`in_chain`] walks a body through
//! its own chain.

use crate::arrays::{self, Span::Elements, Span::Region};
use crate::calls::{self, parse_call_name, ArgForm};
use crate::objects::{self, FieldType::Object, FieldType::Prim, Holder::Instance, Holder::Static};
use crate::strings;
use ndroid_emu::layout::LIBDVM_BASE;
use ndroid_emu::runtime::{HostTable, NativeCtx};
use ndroid_emu::EmuError;
use ndroid_libc::registry::{trap_addr, TrapIndex};
use std::sync::OnceLock;

/// Spacing between function trap addresses (large enough that the
/// `+0x10`/`+0x14` call-site offsets of the virtual branch events stay
/// inside the owning function's slot).
const STRIDE: u32 = 0x40;

/// Where in a level's slot its call to the next level sits: the
/// virtual branch into a level comes from `CALL_SITE` bytes into the
/// level above, and returns to the instruction after it ("C+4").
const CALL_SITE: u32 = 0x10;

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

/// One inner level of a hook chain: the DVM-internal function it
/// enters, and the name under which the body logs `<name> Begin` on
/// entering it and `<name> End` on leaving it (`None`: no lines).
type Level = (&'static str, Option<&'static str>);

/// A hooked function's chain past T1, outermost level first: the
/// Table III functions a call to it enters, and the condition chain
/// T2, T3 of Fig. 5. Empty for a function that starts no chain.
type Chain = &'static [Level];

/// One environment function: its name, its body and its hook chain.
type Row = (&'static str, Impl, Chain);

const NO_CHAIN: Chain = &[];
const ALLOC_OBJECT: Chain = &[("dvmAllocObject", None)];
const ALLOC_PRIMITIVE_ARRAY: Chain = &[("dvmAllocPrimitiveArray", None)];

/// The chain of a `Call*Method*` function: the `dvmCallMethod*` bridge
/// of its argument form, then `dvmInterpret`, both logged (every bridge
/// under the family's name).
fn call_chain(form: ArgForm) -> Chain {
    const INTERPRET: Level = ("dvmInterpret", Some("dvmInterpret"));
    const LOG: Option<&str> = Some("dvmCallMethod");
    match form {
        ArgForm::Varargs => &[("dvmCallMethod", LOG), INTERPRET],
        ArgForm::VaList => &[("dvmCallMethodV", LOG), INTERPRET],
        ArgForm::JvalueArray => &[("dvmCallMethodA", LOG), INTERPRET],
    }
}

/// `Get<Prim>Field` and `Set<Prim>Field` for each of the eight primitive
/// types: one body each, recording under the family's name.
const GET_FIELD: Impl = |c, _| objects::get_field(c, "GetField", Instance, Prim);
const SET_FIELD: Impl = |c, _| objects::set_field(c, "SetField", Instance, Prim);

/// The guest-callable JNI environment functions outside the call
/// family, in trap-address order, each bound to its body. A `static`,
/// not a `const`, so each name has the one address [`jni_names`] and
/// the host table both borrow.
static ENV: &[Row] = &[
    (
        "NewStringUTF",
        |c, _| strings::new_string_utf(c),
        &[("dvmCreateStringFromCstr", Some("dvmCreateStringFromCstr"))],
    ),
    ("NewString", |c, _| strings::new_string(c), &[("dvmCreateStringFromUnicode", None)]),
    ("GetStringUTFChars", |c, _| strings::get_string_utf_chars(c), NO_CHAIN),
    ("ReleaseStringUTFChars", |c, _| strings::release_string_utf_chars(c), NO_CHAIN),
    ("GetStringChars", |c, _| strings::get_string_chars(c), NO_CHAIN),
    ("ReleaseStringChars", |c, _| strings::release_string_chars(c), NO_CHAIN),
    ("GetStringLength", |c, _| strings::get_string_length(c), NO_CHAIN),
    ("GetStringUTFLength", |c, _| strings::get_string_utf_length(c), NO_CHAIN),
    ("NewObject", objects::new_object, ALLOC_OBJECT),
    ("NewObjectV", objects::new_object, ALLOC_OBJECT),
    ("NewObjectA", objects::new_object, ALLOC_OBJECT),
    ("NewObjectArray", |c, _| arrays::new_object_array(c), &[("dvmAllocArrayByClass", None)]),
    ("NewBooleanArray", arrays::new_primitive_array, ALLOC_PRIMITIVE_ARRAY),
    ("NewByteArray", |c, _| arrays::new_byte_array(c), ALLOC_PRIMITIVE_ARRAY),
    ("NewCharArray", arrays::new_primitive_array, ALLOC_PRIMITIVE_ARRAY),
    ("NewShortArray", arrays::new_primitive_array, ALLOC_PRIMITIVE_ARRAY),
    ("NewIntArray", arrays::new_primitive_array, ALLOC_PRIMITIVE_ARRAY),
    ("NewLongArray", arrays::new_primitive_array, ALLOC_PRIMITIVE_ARRAY),
    ("NewFloatArray", arrays::new_primitive_array, ALLOC_PRIMITIVE_ARRAY),
    ("NewDoubleArray", arrays::new_primitive_array, ALLOC_PRIMITIVE_ARRAY),
    ("GetArrayLength", |c, _| arrays::get_array_length(c), NO_CHAIN),
    ("GetByteArrayElements", |c, n| arrays::copy_out(c, n, 1, Elements), NO_CHAIN),
    ("ReleaseByteArrayElements", |c, n| arrays::copy_in(c, n, 1, Elements), NO_CHAIN),
    ("GetIntArrayElements", |c, n| arrays::copy_out(c, n, 4, Elements), NO_CHAIN),
    ("ReleaseIntArrayElements", |c, n| arrays::copy_in(c, n, 4, Elements), NO_CHAIN),
    ("GetIntArrayRegion", |c, n| arrays::copy_out(c, n, 4, Region), NO_CHAIN),
    ("SetIntArrayRegion", |c, n| arrays::copy_in(c, n, 4, Region), NO_CHAIN),
    ("GetByteArrayRegion", |c, n| arrays::copy_out(c, n, 1, Region), NO_CHAIN),
    ("SetByteArrayRegion", |c, n| arrays::copy_in(c, n, 1, Region), NO_CHAIN),
    ("GetObjectArrayElement", arrays::get_object_array_element, NO_CHAIN),
    ("SetObjectArrayElement", arrays::set_object_array_element, NO_CHAIN),
    ("FindClass", |c, _| objects::find_class(c), NO_CHAIN),
    ("GetMethodID", |c, _| objects::get_method_id(c), NO_CHAIN),
    ("GetStaticMethodID", |c, _| objects::get_static_method_id(c), NO_CHAIN),
    ("GetFieldID", |c, _| objects::get_field_id(c, Instance), NO_CHAIN),
    ("GetStaticFieldID", |c, _| objects::get_field_id(c, Static), NO_CHAIN),
    ("GetObjectField", |c, n| objects::get_field(c, n, Instance, Object), NO_CHAIN),
    ("GetBooleanField", GET_FIELD, NO_CHAIN),
    ("GetByteField", GET_FIELD, NO_CHAIN),
    ("GetCharField", GET_FIELD, NO_CHAIN),
    ("GetShortField", GET_FIELD, NO_CHAIN),
    ("GetIntField", GET_FIELD, NO_CHAIN),
    ("GetLongField", GET_FIELD, NO_CHAIN),
    ("GetFloatField", GET_FIELD, NO_CHAIN),
    ("GetDoubleField", GET_FIELD, NO_CHAIN),
    ("SetObjectField", |c, n| objects::set_field(c, n, Instance, Object), NO_CHAIN),
    ("SetBooleanField", SET_FIELD, NO_CHAIN),
    ("SetByteField", SET_FIELD, NO_CHAIN),
    ("SetCharField", SET_FIELD, NO_CHAIN),
    ("SetShortField", SET_FIELD, NO_CHAIN),
    ("SetIntField", SET_FIELD, NO_CHAIN),
    ("SetLongField", SET_FIELD, NO_CHAIN),
    ("SetFloatField", SET_FIELD, NO_CHAIN),
    ("SetDoubleField", SET_FIELD, NO_CHAIN),
    ("GetStaticObjectField", |c, n| objects::get_field(c, n, Static, Object), NO_CHAIN),
    ("GetStaticIntField", |c, n| objects::get_field(c, n, Static, Prim), NO_CHAIN),
    ("SetStaticObjectField", |c, n| objects::set_field(c, n, Static, Object), NO_CHAIN),
    ("SetStaticIntField", |c, n| objects::set_field(c, n, Static, Prim), NO_CHAIN),
    ("ThrowNew", |c, _| calls::throw_new(c), &[("initException", None), ("dvmCallMethod", None)]),
    ("ExceptionOccurred", |c, _| calls::exception_occurred(c), NO_CHAIN),
    ("ExceptionClear", |c, _| calls::exception_clear(c), NO_CHAIN),
    ("NewGlobalRef", |c, _| calls::new_global_ref(c), NO_CHAIN),
    ("DeleteGlobalRef", |c, _| calls::delete_global_ref(c), NO_CHAIN),
    ("DeleteLocalRef", |c, _| calls::delete_local_ref(c), NO_CHAIN),
];

/// The 90 `Call…Method…` names, generated once per process.
fn call_names() -> &'static [String] {
    static NAMES: OnceLock<Vec<String>> = OnceLock::new();
    NAMES.get_or_init(calls::call_family_names)
}

/// Every libdvm function in trap-address order, with its hook chain:
/// the DVM internals (which start none), the environment functions,
/// then the call family.
fn rows() -> impl Iterator<Item = (&'static str, Chain)> {
    let internals = DVM_INTERNAL_NAMES.iter().map(|&name| (name, NO_CHAIN));
    let env = ENV.iter().map(|&(name, _, chain)| (name, chain));
    let calls = call_names().iter().map(|name| {
        let (_, form) = parse_call_name(name).expect("a call-family name parses");
        (name.as_str(), call_chain(form))
    });
    internals.chain(env).chain(calls)
}

/// The complete ordered name list for the libdvm region: the DVM
/// internals, the environment functions, then the call family.
pub fn jni_names() -> &'static [&'static str] {
    static NAMES: OnceLock<Vec<&'static str>> = OnceLock::new();
    NAMES.get_or_init(|| rows().map(|(name, _)| name).collect())
}

/// The trap address of a libdvm-region function: an O(1) lookup in an
/// index built once per process from [`jni_names`].
///
/// # Panics
///
/// Panics on an unknown name (a workload-construction bug).
pub fn dvm_addr(name: &str) -> u32 {
    static INDEX: TrapIndex = OnceLock::new();
    trap_addr(&INDEX, "libdvm", jni_names(), LIBDVM_BASE, STRIDE, name)
}

/// What multilevel hooking makes of a branch target.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Hook {
    /// A call from the code under analysis starts this chain (T1): the
    /// function's own trap address, then each level's.
    Starts(&'static [u32]),
    /// An inner level of some chain: instrumented only inside one, and
    /// on every call under unconditional hooking (ablation D1).
    Inner,
    /// No chain involves the function there, or no function traps there.
    Unhooked,
}

/// One libdvm function's part in the hook chains.
struct Slot {
    /// The chain a call to it starts, as trap addresses, its own first
    /// (empty when it starts none).
    addrs: Vec<u32>,
    /// The levels `addrs` was built from.
    levels: Chain,
    /// Whether it is an inner level of some chain.
    inner: bool,
}

/// The address table of the hook chains: one slot per libdvm function,
/// in trap-address order, built from the rows once per process and
/// borrowed by every analysis.
pub struct HookTable {
    slots: Vec<Slot>,
}

impl HookTable {
    /// The part of the libdvm function at `addr` in the hook chains of
    /// Table III: an O(1) index by trap slot.
    pub fn at(&'static self, addr: u32) -> Hook {
        match self.slot_at(addr) {
            Some(slot) if slot.inner => Hook::Inner,
            Some(slot) if !slot.addrs.is_empty() => Hook::Starts(&slot.addrs),
            _ => Hook::Unhooked,
        }
    }

    /// The slot of the function that traps at `addr`, if one does.
    fn slot_at(&self, addr: u32) -> Option<&Slot> {
        let offset = addr.wrapping_sub(LIBDVM_BASE);
        if !offset.is_multiple_of(STRIDE) {
            return None;
        }
        self.slots.get((offset / STRIDE) as usize)
    }
}

/// The hook-chain address table, built from the rows on first use.
pub fn hook_table() -> &'static HookTable {
    static TABLE: OnceLock<HookTable> = OnceLock::new();
    TABLE.get_or_init(|| {
        let inner: Vec<&str> = rows().flat_map(|(_, chain)| chain.iter().map(|l| l.0)).collect();
        let slots = rows()
            .map(|(name, levels)| {
                let names = levels.iter().map(|l| l.0);
                Slot {
                    addrs: match levels {
                        [] => Vec::new(),
                        _ => [name].into_iter().chain(names).map(dvm_addr).collect(),
                    },
                    levels,
                    inner: inner.contains(&name),
                }
            })
            .collect();
        HookTable { slots }
    })
}

/// Runs `body` inside the hook chain that a call to `name` starts
/// (Fig. 5). Each level is entered by a virtual branch from the call
/// site of the level above and logged if its row says so; `body` runs
/// at the deepest level, given that function's name; then the levels
/// are left innermost first, each by a return to the instruction after
/// its call site, whether `body` failed or not. For a function that
/// starts no chain, this only runs `body`.
///
/// # Panics
///
/// Panics on an unknown name (a workload-construction bug).
pub fn in_chain<T>(
    ctx: &mut NativeCtx<'_>,
    name: &'static str,
    body: impl FnOnce(&mut NativeCtx<'_>, &'static str) -> T,
) -> T {
    let slot = hook_table().slot_at(dvm_addr(name)).expect("every libdvm function has a slot");
    let (addrs, levels) = (&slot.addrs, slot.levels);
    for (k, &(_, log)) in levels.iter().enumerate() {
        ctx.analysis.on_branch(ctx.shadow, addrs[k] + CALL_SITE, addrs[k + 1]);
        if let Some(log) = log {
            ctx.trace.push("hook", format_args!("{log} Begin"));
        }
    }
    let result = body(ctx, levels.last().map_or(name, |l| l.0));
    for (k, &(_, log)) in levels.iter().enumerate().rev() {
        ctx.analysis.on_branch(ctx.shadow, addrs[k + 1] + 4, addrs[k] + CALL_SITE + 4);
        if let Some(log) = log {
            ctx.trace.push("hook", format_args!("{log} End"));
        }
    }
    result
}

/// Registers every guest-callable JNI function in `table`, under a
/// borrow of its name in [`jni_names`].
///
/// DVM-internal functions are *not* registered: they exist only as
/// virtual branch targets; a guest branching to one is a wild branch,
/// exactly as jumping into the middle of libdvm would misbehave.
pub fn install_jni(table: &mut HostTable) {
    for &(name, f, _) in ENV {
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
        for name in ENV.iter().map(|&(name, ..)| name).chain(["CallVoidMethodA"]) {
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
