//! The hook chains of the libdvm rows (Table III, Fig. 5): each chained
//! function's row names the paper's levels, and a call from native code
//! enters every level and leaves it again.

use ndroid_arm::Reg;
use ndroid_dvm::bytecode::DexInsn;
use ndroid_dvm::framework::install_framework;
use ndroid_dvm::{ClassDef, ClassId, InvokeKind, MethodDef, MethodId, MethodKind, Program};
use ndroid_emu::layout::in_native_code;
use ndroid_emu::multilevel::MultilevelHook;
use ndroid_emu::runtime::{Analysis, HostTable, MAX_TRANSFER};
use ndroid_emu::testutil::World;
use ndroid_emu::ShadowState;
use ndroid_jni::calls::call_family_names;
use ndroid_jni::helpers::{jclass, jmethod};
use ndroid_jni::{dvm_addr, hook_table, install_jni, jni_names, Hook};

/// The paper's chain of each hooked function, by name: Table III's
/// NOF → MAF pairs, each `Call*` function's bridge (by its argument
/// form) and `dvmInterpret`, and `ThrowNew → initException →
/// dvmCallMethod`.
fn table_iii(name: &str) -> Option<Vec<&'static str>> {
    let maf = match name {
        "NewObject" | "NewObjectV" | "NewObjectA" => "dvmAllocObject",
        "NewString" => "dvmCreateStringFromUnicode",
        "NewStringUTF" => "dvmCreateStringFromCstr",
        "NewObjectArray" => "dvmAllocArrayByClass",
        "ThrowNew" => return Some(vec!["initException", "dvmCallMethod"]),
        _ if name.starts_with("Call") => {
            let bridge = match name.as_bytes().last() {
                Some(b'V') => "dvmCallMethodV",
                Some(b'A') => "dvmCallMethodA",
                _ => "dvmCallMethod",
            };
            return Some(vec![bridge, "dvmInterpret"]);
        }
        _ if name.starts_with("New") && name.ends_with("Array") => "dvmAllocPrimitiveArray",
        _ => return None,
    };
    Some(vec![maf])
}

/// The chain-tracking part of the NDroid analysis, over the same FSM:
/// native code entering a function that starts a chain activates it,
/// every branch feeds the active chains, and an unwound one is dropped.
#[derive(Default)]
struct ChainWatch {
    active: Vec<MultilevelHook>,
    /// The deepest level any chain reached since [`call`] reset it.
    deepest: usize,
}

impl Analysis for ChainWatch {
    fn on_branch(&mut self, _: &mut ShadowState, from: u32, to: u32) {
        for hook in &mut self.active {
            if let Some(level) = hook.on_branch(from, to) {
                self.deepest = self.deepest.max(level + 1);
            }
        }
        self.active.retain(|hook| hook.depth() > 0);
        if let Hook::Starts(chain) = hook_table().at(to) {
            if in_native_code(from) {
                self.active.push(MultilevelHook::enter(chain, from));
                self.deepest = self.deepest.max(1);
            }
        }
    }
}

/// The rows' chains are the paper's: every chained function's chain,
/// and the inner levels, by trap address.
fn assert_rows_are_table_iii() {
    let mut chained = 0;
    for &name in jni_names() {
        match (hook_table().at(dvm_addr(name)), table_iii(name)) {
            (Hook::Starts(chain), Some(levels)) => {
                let want: Vec<u32> = std::iter::once(name).chain(levels).map(dvm_addr).collect();
                assert_eq!(chain, want, "{name}");
                chained += 1;
            }
            (Hook::Starts(chain), None) => panic!("{name} starts {chain:x?}, not in Table III"),
            (got, Some(_)) => panic!("{name} is {got:?}, but starts a Table III chain"),
            (_, None) => {}
        }
    }
    assert_eq!(chained, call_family_names().len() + 14 + 1, "Call*, Table III's NOFs, ThrowNew");
    let is_inner = |&n: &&str| hook_table().at(dvm_addr(n)) == Hook::Inner;
    let inner: Vec<&str> = jni_names().iter().copied().filter(is_inner).collect();
    assert_eq!(
        inner,
        [
            "dvmInterpret",
            "dvmCallMethod",
            "dvmCallMethodV",
            "dvmCallMethodA",
            "dvmAllocObject",
            "dvmCreateStringFromUnicode",
            "dvmCreateStringFromCstr",
            "dvmAllocArrayByClass",
            "dvmAllocPrimitiveArray",
            "initException",
        ]
    );
    // Only a function's own trap address counts, and only in libdvm.
    for addr in [dvm_addr("NewObject") + 4, dvm_addr("dvmInterpret") + 0x10, 0x1000_0000] {
        assert_eq!(hook_table().at(addr), Hook::Unhooked, "{addr:#x}");
    }
}

/// Where the test world keeps guest data.
const DATA: u32 = 0x2000_0000;

/// A world whose class `Lapp/C;` holds a static and a virtual `ok()V`
/// that return, and a static and a virtual `boom()V` that invoke a
/// method that does not exist.
fn world() -> (World<ChainWatch>, ClassId) {
    let mut program = Program::new();
    install_framework(&mut program);
    let c = program.add_class(ClassDef { name: "Lapp/C;".into(), ..ClassDef::default() });
    let fail = DexInsn::Invoke { kind: InvokeKind::Static, method: MethodId(0x7777), args: vec![] };
    for (name, body) in [("ok", vec![DexInsn::ReturnVoid]), ("boom", vec![fail])] {
        let def = MethodDef::new(name, "V", MethodKind::Bytecode(body));
        program.add_method(c, def.clone().with_registers(1));
        program.add_method(c, MethodDef { name: format!("{name}This"), ..def.virtual_method() });
    }
    let mut table = HostTable::new();
    install_jni(&mut table);
    let mut w = World::new(program, table, ChainWatch::default());
    w.mem.write_cstr(DATA, b"hi");
    (w, c)
}

/// Arguments for a call of the chained function `name` that succeeds,
/// and for one that fails, if it can fail (`NewStringUTF` and
/// `ThrowNew` cannot).
fn calls(w: &mut World<ChainWatch>, c: ClassId, name: &str) -> (Vec<u32>, Option<Vec<u32>>) {
    let method = |w: &World<ChainWatch>, m| jmethod(w.dvm.program.find_method(c, m).unwrap());
    let (cls, forged_cls) = (jclass(c), jclass(ClassId(0x7777)));
    let too_long = MAX_TRANSFER + 1;
    match name {
        _ if name.starts_with("CallStatic") => {
            let (ok, boom) = (method(w, "ok"), method(w, "boom"));
            (vec![cls, ok, DATA], Some(vec![cls, boom, DATA]))
        }
        _ if name.starts_with("Call") => {
            let this = w.dvm.heap.alloc(ndroid_dvm::HeapObject::Instance {
                class: c,
                fields: vec![],
                taints: vec![],
            });
            let this = w.dvm.refs.add(ndroid_dvm::IndirectRefKind::Local, this).0;
            let (ok, boom) = (method(w, "okThis"), method(w, "boomThis"));
            (vec![this, ok, DATA], Some(vec![this, boom, DATA]))
        }
        "NewObject" | "NewObjectV" | "NewObjectA" => (vec![cls, 0], Some(vec![forged_cls, 0])),
        "NewString" => (vec![DATA, 2], Some(vec![DATA, too_long])),
        "NewStringUTF" => (vec![DATA], None),
        "ThrowNew" => (vec![cls, DATA], None),
        "NewObjectArray" => (vec![2, cls, 0], Some(vec![too_long, cls, 0])),
        _ if name.starts_with("New") => (vec![4], Some(vec![too_long])),
        _ => panic!("{name} starts a chain this test does not call"),
    }
}

/// Calls `name(args)` from native code: whether it succeeded, and the
/// deepest chain level it reached.
fn call(w: &mut World<ChainWatch>, name: &str, args: &[u32]) -> (bool, usize) {
    w.analysis.deepest = 0;
    let ok = w
        .try_run(&[], |asm| {
            for (&reg, &a) in [Reg::R0, Reg::R1, Reg::R2].iter().zip(args) {
                asm.ldr_const(reg, a);
            }
            asm.call_abs(dvm_addr(name));
        })
        .is_ok();
    w.dvm.pending_exception = None;
    (ok, w.analysis.deepest)
}

/// Every chained function, called from native code, enters each level
/// of its row's chain and leaves it again: on success the chain has
/// unwound, and on failure only T1 holds (the native call that an
/// error never returns from), whether the body failed inside the chain
/// or before entering it.
fn assert_calls_leave_their_chains() {
    let (mut w, c) = world();
    let mut inside = Vec::new();
    for &name in jni_names() {
        let Hook::Starts(chain) = hook_table().at(dvm_addr(name)) else { continue };
        let (ok_args, err_args) = calls(&mut w, c, name);
        assert_eq!(call(&mut w, name, &ok_args), (true, chain.len()), "{name} Ok");
        assert!(w.analysis.active.is_empty(), "{name} Ok left a chain active");
        let Some(err_args) = err_args else { continue };
        let (ok, deepest) = call(&mut w, name, &err_args);
        assert!(!ok, "{name}{err_args:x?} must fail");
        let depths: Vec<usize> = w.analysis.active.drain(..).map(|h| h.depth()).collect();
        assert_eq!(depths, [1], "{name} Err left an inner level active");
        if deepest == chain.len() {
            inside.push(name);
        }
    }
    // The bodies that can fail inside their chain do.
    assert_eq!(inside.len(), call_family_names().len() + 3, "Call* and NewObject*: {inside:?}");
}

/// The hook chains of Table III and Fig. 5 live in the libdvm rows: they
/// are the paper's, and each chained function walks its own.
#[test]
fn chains_cover_call_family_and_creation() {
    assert_rows_are_table_iii();
    assert_calls_leave_their_chains();
}
