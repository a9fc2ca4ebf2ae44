//! The proof-of-concept app for Case 2 (Fig. 8).
//!
//! `boolean recordContact(String id, String name, String email)` — a
//! *virtual* native method (the paper logs `args[1..3]`, with `this`
//! in `args[0]` and shorty `ZLLL`). It converts the three tainted
//! strings with `GetStringUTFChars`, opens `/sdcard/CONTACTS`, and
//! `fprintf`s them — the file-write sink.

use crate::builder::{App, AppBuilder};
use ndroid_arm::reg::RegList;
use ndroid_arm::Reg;
use ndroid_dvm::bytecode::DexInsn;
use ndroid_dvm::{InvokeKind, MethodDef, MethodKind};
use ndroid_jni::dvm_addr;
use ndroid_libc::libc_addr;

/// Builds the Case-2 PoC.
pub fn poc_case2() -> App {
    let mut b = AppBuilder::new(
        "PoC-case2",
        "Fig. 8: recordContact -> GetStringUTFChars x3 -> fopen/fprintf/fclose",
    );
    let c = b.class("Lcom/ndroid/demos/Demos;");
    let path = b.data_cstr("/sdcard/CONTACTS");
    let mode_w = b.data_cstr("w");
    let fmt = b.data_cstr("%s %s %s  ");

    // boolean recordContact(String id, String name, String email)
    // virtual: r0 = this, r1..r3 = the strings.
    let entry = b.asm.label();
    b.asm.bind(entry).unwrap();
    b.asm
        .push(RegList::of(&[Reg::R4, Reg::R5, Reg::R6, Reg::R7, Reg::LR]));
    b.asm.mov(Reg::R4, Reg::R1);
    b.asm.mov(Reg::R5, Reg::R2);
    b.asm.mov(Reg::R6, Reg::R3);
    // 1st call: id
    b.asm.mov(Reg::R0, Reg::R4);
    b.asm.mov_imm(Reg::R1, 0).unwrap();
    b.asm.call_abs(dvm_addr("GetStringUTFChars"));
    b.asm.mov(Reg::R4, Reg::R0);
    // 2nd call: name
    b.asm.mov(Reg::R0, Reg::R5);
    b.asm.mov_imm(Reg::R1, 0).unwrap();
    b.asm.call_abs(dvm_addr("GetStringUTFChars"));
    b.asm.mov(Reg::R5, Reg::R0);
    // 3rd call: email
    b.asm.mov(Reg::R0, Reg::R6);
    b.asm.mov_imm(Reg::R1, 0).unwrap();
    b.asm.call_abs(dvm_addr("GetStringUTFChars"));
    b.asm.mov(Reg::R6, Reg::R0);
    // Step 4: fopen("/sdcard/CONTACTS", "w")
    b.asm.ldr_const(Reg::R0, path);
    b.asm.ldr_const(Reg::R1, mode_w);
    b.asm.call_abs(libc_addr("fopen"));
    b.asm.mov(Reg::R7, Reg::R0);
    // Step 5: fprintf(file, "%s %s %s  ", id, name, email) — email on
    // the stack (5th AAPCS argument).
    b.asm.ldr_const(Reg::R1, fmt);
    b.asm.mov(Reg::R2, Reg::R4);
    b.asm.mov(Reg::R3, Reg::R5);
    b.asm.sub_imm(Reg::SP, Reg::SP, 4).unwrap();
    b.asm.str(Reg::R6, Reg::SP, 0);
    b.asm.mov(Reg::R0, Reg::R7);
    b.asm.call_abs(libc_addr("fprintf"));
    b.asm.add_imm(Reg::SP, Reg::SP, 4).unwrap();
    // Step 6: fclose(file)
    b.asm.mov(Reg::R0, Reg::R7);
    b.asm.call_abs(libc_addr("fclose"));
    b.asm.mov_imm(Reg::R0, 1).unwrap(); // RETURN '1' (true)
    b.asm
        .pop(RegList::of(&[Reg::R4, Reg::R5, Reg::R6, Reg::R7, Reg::PC]));
    let record = b.native_method(c, "recordContact", "ZLLL", false, entry);

    let qid = b
        .program
        .find_method_by_name("Landroid/provider/ContactsProvider;", "queryId")
        .unwrap();
    let qname = b
        .program
        .find_method_by_name("Landroid/provider/ContactsProvider;", "queryName")
        .unwrap();
    let qemail = b
        .program
        .find_method_by_name("Landroid/provider/ContactsProvider;", "queryEmail")
        .unwrap();
    b.method(
        c,
        MethodDef::new(
            "main",
            "V",
            MethodKind::Bytecode(vec![
                // this = new Demos()
                DexInsn::NewInstance { dst: 0, class: c },
                DexInsn::Invoke {
                    kind: InvokeKind::Static,
                    method: qid,
                    args: vec![],
                },
                DexInsn::MoveResult { dst: 1 },
                DexInsn::Invoke {
                    kind: InvokeKind::Static,
                    method: qname,
                    args: vec![],
                },
                DexInsn::MoveResult { dst: 2 },
                DexInsn::Invoke {
                    kind: InvokeKind::Static,
                    method: qemail,
                    args: vec![],
                },
                DexInsn::MoveResult { dst: 3 },
                DexInsn::Invoke {
                    kind: InvokeKind::Virtual,
                    method: record,
                    args: vec![0, 1, 2, 3],
                },
                DexInsn::ReturnVoid,
            ]),
        )
        .with_registers(4),
    );
    let mut app = b.finish("Lcom/ndroid/demos/Demos;", "main").unwrap();
    app.lib_name = "libdemos.so".to_string();
    app
}

#[cfg(test)]
mod tests {
    use super::*;
    use ndroid_core::Mode;
    use ndroid_dvm::{SinkCtx, Taint};

    #[test]
    fn taintdroid_misses_the_file_write() {
        let sys = poc_case2().run(Mode::TaintDroid).unwrap();
        assert!(sys.leaks().is_empty());
        assert_eq!(
            sys.kernel.fs.get("/sdcard/CONTACTS").map(Vec::as_slice),
            Some(b"1 Vincent cx@gg.com  ".as_slice()),
            "the contact record still landed on disk"
        );
    }

    #[test]
    fn ndroid_catches_fprintf_with_0x2() {
        let sys = poc_case2().run(Mode::NDroid).unwrap();
        let leaks = sys.leaks();
        assert_eq!(leaks.len(), 1);
        assert_eq!(leaks[0].taint, Taint::CONTACTS, "the paper's taint value 0x2");
        assert_eq!(leaks[0].context, SinkCtx::Native);
        assert_eq!(leaks[0].dest, "/sdcard/CONTACTS");
        assert_eq!(*leaks[0].data, *b"1 Vincent cx@gg.com  ");
    }

    #[test]
    fn trace_matches_fig8_steps() {
        let sys = poc_case2().run(Mode::NDroid).unwrap();
        let log = sys.trace.render();
        // dvmCallJNIMethod hook with the method identity.
        assert!(log.contains("recordContact"));
        assert!(log.contains("Lcom/ndroid/demos/Demos;"));
        assert!(log.contains("shorty: ZLLL"));
        // SourcePolicy found and applied.
        assert!(log.contains("Find a source function @"));
        // The three GetStringUTFChars conversions.
        let gsc = log.matches("TrustCallHandler[GetStringUTFChars] begin").count();
        assert_eq!(gsc, 3, "three conversions as in Fig. 8");
        // fopen / fprintf-sink / fclose.
        assert!(log.contains("TrustCallHandler[fopen] Open '/sdcard/CONTACTS'"));
        assert!(log.contains("SinkHandler[fprintf]"));
        assert!(log.contains("TrustCallHandler[fclose]"));
    }

    #[test]
    fn source_policy_was_created_for_tainted_call() {
        let sys = poc_case2().run(Mode::NDroid).unwrap();
        let stats = sys.ndroid_stats().unwrap();
        assert!(stats.source_policies >= 1);
        assert!(stats.jni_entries >= 1);
        assert!(stats.insns_traced > 0);
    }
}
