//! The ePhone 3.3 flow of Fig. 7 — a real-world Case 2.
//!
//! Java passes contact-tainted data (taint `0x2`) to the native
//! `callregister`, which converts it with `GetStringUTFChars`, pushes
//! it through `memcpy`/`memmove`/`sprintf`, and finally `sendto`s a SIP
//! REGISTER to `softphone.comwave.net`.

use crate::builder::{App, AppBuilder};
use ndroid_arm::reg::RegList;
use ndroid_arm::Reg;
use ndroid_dvm::bytecode::DexInsn;
use ndroid_dvm::{InvokeKind, MethodDef, MethodKind};
use ndroid_jni::dvm_addr;
use ndroid_libc::libc_addr;

/// Builds the ePhone replica.
pub fn ephone() -> App {
    let mut b = AppBuilder::new(
        "ePhone-3.3",
        "Fig. 7: callregister -> GetStringUTFChars -> memcpy/sprintf -> sendto (Case 2)",
    );
    let c = b.class("Lcom/vnet/asip/general/general;");
    let staging = b.data_buffer(128);
    let message = b.data_buffer(256);
    let sip_fmt = b.data_cstr("REGISTER sip:softphone.comwave.net From: \"%s\"");
    let dest = b.data_cstr("softphone.comwave.net");

    // int callregister(int, int, String contact)  — args[2] is the
    // tainted String, as in the paper's log.
    let entry = b.asm.label();
    b.asm.bind(entry).unwrap();
    b.asm
        .push(RegList::of(&[Reg::R4, Reg::R5, Reg::R6, Reg::LR]));
    b.asm.mov(Reg::R0, Reg::R2); // args[2]: contact jstring
    b.asm.mov_imm(Reg::R1, 0).unwrap();
    b.asm.call_abs(dvm_addr("GetStringUTFChars"));
    b.asm.mov(Reg::R4, Reg::R0); // contact chars
    // Fig. 7 shows the data passing through memcpy and memmove before
    // hitting the network.
    b.asm.call_abs(libc_addr("strlen"));
    b.asm.add_imm(Reg::R2, Reg::R0, 1).unwrap(); // len incl. NUL
    b.asm.ldr_const(Reg::R0, staging);
    b.asm.mov(Reg::R1, Reg::R4);
    b.asm.call_abs(libc_addr("memcpy"));
    b.asm.ldr_const(Reg::R1, staging);
    b.asm.add_imm(Reg::R0, Reg::R1, 4).unwrap();
    b.asm.mov_imm(Reg::R2, 60).unwrap();
    b.asm.call_abs(libc_addr("memmove")); // shuffle within staging
    // sprintf(message, SIP_FMT, staging+4)
    b.asm.ldr_const(Reg::R0, message);
    b.asm.ldr_const(Reg::R1, sip_fmt);
    b.asm.ldr_const(Reg::R2, staging + 4);
    b.asm.call_abs(libc_addr("sprintf"));
    // fd = socket()
    b.asm.call_abs(libc_addr("socket"));
    b.asm.mov(Reg::R5, Reg::R0);
    // len = strlen(message)
    b.asm.ldr_const(Reg::R0, message);
    b.asm.call_abs(libc_addr("strlen"));
    b.asm.mov(Reg::R6, Reg::R0);
    // sendto(fd, message, len, 0, dest, 0)
    b.asm.mov(Reg::R0, Reg::R5);
    b.asm.ldr_const(Reg::R1, message);
    b.asm.mov(Reg::R2, Reg::R6);
    b.asm.mov_imm(Reg::R3, 0).unwrap();
    b.asm.ldr_const(Reg::R4, dest);
    b.asm.sub_imm(Reg::SP, Reg::SP, 8).unwrap();
    b.asm.str(Reg::R4, Reg::SP, 0);
    b.asm.mov_imm(Reg::R4, 0).unwrap();
    b.asm.str(Reg::R4, Reg::SP, 4);
    b.asm.call_abs(libc_addr("sendto"));
    b.asm.add_imm(Reg::SP, Reg::SP, 8).unwrap();
    b.asm.mov_imm(Reg::R0, 0).unwrap();
    b.asm
        .pop(RegList::of(&[Reg::R4, Reg::R5, Reg::R6, Reg::PC]));
    let callregister = b.native_method(c, "callregister", "IIIL", true, entry);

    let contact = b
        .program
        .find_method_by_name("Landroid/provider/ContactsProvider;", "queryName")
        .unwrap();
    b.method(
        c,
        MethodDef::new(
            "register",
            "V",
            MethodKind::Bytecode(vec![
                DexInsn::Invoke {
                    kind: InvokeKind::Static,
                    method: contact,
                    args: vec![],
                },
                DexInsn::MoveResult { dst: 2 },
                DexInsn::Const { dst: 0, value: 0 },
                DexInsn::Const { dst: 1, value: 0 },
                DexInsn::Invoke {
                    kind: InvokeKind::Static,
                    method: callregister,
                    args: vec![0, 1, 2],
                },
                DexInsn::ReturnVoid,
            ]),
        )
        .with_registers(3),
    );
    let mut app = b
        .finish("Lcom/vnet/asip/general/general;", "register")
        .unwrap();
    app.lib_name = "libasip.so".to_string();
    app
}

#[cfg(test)]
mod tests {
    use super::*;
    use ndroid_core::Mode;
    use ndroid_dvm::Taint;

    #[test]
    fn taintdroid_misses_the_sip_register() {
        let sys = ephone().run(Mode::TaintDroid).unwrap();
        assert!(sys.leaks().is_empty());
        assert_eq!(sys.report().network_log.len(), 1, "data still exfiltrated");
    }

    #[test]
    fn ndroid_catches_with_taint_0x2() {
        let sys = ephone().run(Mode::NDroid).unwrap();
        let leaks = sys.leaks();
        assert_eq!(leaks.len(), 1);
        assert_eq!(leaks[0].taint, Taint::CONTACTS, "the paper's 0x2");
        assert_eq!(leaks[0].sink, "sendto");
        assert_eq!(leaks[0].dest, "softphone.comwave.net");
        assert!(leaks[0].data.starts_with(b"REGISTER sip:softphone.comwave.net"));
        assert!(String::from_utf8_lossy(&leaks[0].data).contains("Vincent"));
    }

    #[test]
    fn trace_shows_the_fig7_call_chain() {
        let sys = ephone().run(Mode::NDroid).unwrap();
        let log = sys.trace.render();
        assert!(log.contains("callregister"));
        assert!(log.contains("GetStringUTFChars"));
        assert!(log.contains("SinkHandler[sendto]"));
    }
}
