//! The QQPhoneBook 3.5 flow of Fig. 6 — a real-world Case 1′.
//!
//! Step 1: Java calls the native `makeLoginRequestPackageMd5` whose
//! fourth argument (`args[3]`, a `String`) carries contacts+SMS taint
//! `0x202`; the native code parks the data in its own memory.
//! Step 2: Java calls `getPostUrl`, whose **untainted** invocation
//! builds `http://sync.3g.qq.com/xpimlogin?sid=…` from the parked data
//! (step 2.1: `NewStringUTF` over tainted memory) and returns it.
//! Step 3: Java posts the URL — the leak TaintDroid alone cannot see.

use crate::builder::{App, AppBuilder};
use ndroid_arm::reg::RegList;
use ndroid_arm::Reg;
use ndroid_dvm::bytecode::DexInsn;
use ndroid_dvm::{InvokeKind, MethodDef, MethodKind};
use ndroid_jni::dvm_addr;
use ndroid_libc::libc_addr;

/// Builds the QQPhoneBook replica.
pub fn qq_phonebook() -> App {
    let mut b = AppBuilder::new(
        "QQPhoneBook-3.5",
        "Fig. 6: login-package MD5 + getPostUrl URL exfiltration (Case 1')",
    );
    let c = b.class("Lcom/tencent/tccsync/LoginUtil;");
    let sid_buf = b.data_buffer(256);
    let url_buf = b.data_buffer(512);
    let url_fmt = b.data_cstr("http://sync.3g.qq.com/xpimlogin?sid=%s");

    // int makeLoginRequestPackageMd5(int, int, int, String data)
    // The tainted String is args[3], as in the paper's log.
    let make_login = b.asm.label();
    b.asm.bind(make_login).unwrap();
    b.asm.push(RegList::of(&[Reg::R4, Reg::LR]));
    b.asm.mov(Reg::R0, Reg::R3); // args[3]: the tainted jstring
    b.asm.mov_imm(Reg::R1, 0).unwrap();
    b.asm.call_abs(dvm_addr("GetStringUTFChars"));
    b.asm.mov(Reg::R1, Reg::R0);
    b.asm.ldr_const(Reg::R0, sid_buf);
    b.asm.call_abs(libc_addr("strcpy")); // park the secret in native memory
    b.asm.mov_imm(Reg::R0, 0).unwrap();
    b.asm.pop(RegList::of(&[Reg::R4, Reg::PC]));
    let make_login_m = b.native_method(
        c,
        "makeLoginRequestPackageMd5",
        "IIIIL",
        true,
        make_login,
    );

    // String getPostUrl() — no tainted parameters!
    let get_post_url = b.asm.label();
    b.asm.bind(get_post_url).unwrap();
    b.asm.push(RegList::of(&[Reg::LR]));
    b.asm.ldr_const(Reg::R0, url_buf);
    b.asm.ldr_const(Reg::R1, url_fmt);
    b.asm.ldr_const(Reg::R2, sid_buf);
    b.asm.call_abs(libc_addr("sprintf"));
    b.asm.ldr_const(Reg::R0, url_buf);
    b.asm.call_abs(dvm_addr("NewStringUTF")); // step 2.1
    b.asm.pop(RegList::of(&[Reg::PC]));
    let get_post_url_m = b.native_method(c, "getPostUrl", "L", true, get_post_url);

    let contacts = b
        .program
        .find_method_by_name("Landroid/provider/ContactsProvider;", "queryName")
        .unwrap();
    let sms = b
        .program
        .find_method_by_name("Landroid/provider/SmsProvider;", "queryLastMessage")
        .unwrap();
    let concat = b
        .program
        .find_method_by_name("Ljava/lang/String;", "concat")
        .unwrap();
    let post = b
        .program
        .find_method_by_name("Lorg/apache/http/HttpClient;", "post")
        .unwrap();
    b.method(
        c,
        MethodDef::new(
            "login",
            "V",
            MethodKind::Bytecode(vec![
                // data = contacts ++ sms  (taint 0x202 = CONTACTS|SMS)
                DexInsn::Invoke {
                    kind: InvokeKind::Static,
                    method: contacts,
                    args: vec![],
                },
                DexInsn::MoveResult { dst: 0 },
                DexInsn::Invoke {
                    kind: InvokeKind::Static,
                    method: sms,
                    args: vec![],
                },
                DexInsn::MoveResult { dst: 1 },
                DexInsn::Invoke {
                    kind: InvokeKind::Static,
                    method: concat,
                    args: vec![0, 1],
                },
                DexInsn::MoveResult { dst: 0 },
                // Step 1: makeLoginRequestPackageMd5(1, 2, 3, data)
                DexInsn::Const { dst: 1, value: 1 },
                DexInsn::Const { dst: 2, value: 2 },
                DexInsn::Const { dst: 3, value: 3 },
                DexInsn::Invoke {
                    kind: InvokeKind::Static,
                    method: make_login_m,
                    args: vec![1, 2, 3, 0],
                },
                // Step 2: url = getPostUrl()   (no tainted args)
                DexInsn::Invoke {
                    kind: InvokeKind::Static,
                    method: get_post_url_m,
                    args: vec![],
                },
                DexInsn::MoveResult { dst: 0 },
                // Step 3: post(url) → sink at sync.3g.qq.com
                DexInsn::Invoke {
                    kind: InvokeKind::Static,
                    method: post,
                    args: vec![0],
                },
                DexInsn::ReturnVoid,
            ]),
        )
        .with_registers(4),
    );
    let mut app = b.finish("Lcom/tencent/tccsync/LoginUtil;", "login").unwrap();
    app.lib_name = "libtccsync.so".to_string();
    app
}

#[cfg(test)]
mod tests {
    use super::*;
    use ndroid_core::Mode;
    use ndroid_dvm::Taint;

    #[test]
    fn taintdroid_misses_the_url_leak() {
        let sys = qq_phonebook().run(Mode::TaintDroid).unwrap();
        assert!(sys.leaks().is_empty());
        // But the URL with the secret did go out.
        let events = sys.all_sink_events();
        assert!(events
            .iter()
            .any(|e| String::from_utf8_lossy(&e.data).contains("sync.3g.qq.com/xpimlogin?sid=")));
    }

    #[test]
    fn ndroid_catches_it_with_0x202() {
        let sys = qq_phonebook().run(Mode::NDroid).unwrap();
        let leaks = sys.leaks();
        assert_eq!(leaks.len(), 1);
        assert_eq!(
            leaks[0].taint,
            Taint::CONTACTS | Taint::SMS,
            "the paper's 0x202 label"
        );
        assert_eq!(leaks[0].taint.0, 0x202);
        assert_eq!(leaks[0].dest, "sync.3g.qq.com");
        assert!(String::from_utf8_lossy(&leaks[0].data).contains("xpimlogin?sid=Vincent"));
    }

    #[test]
    fn trace_matches_fig6_structure() {
        let sys = qq_phonebook().run(Mode::NDroid).unwrap();
        let log = sys.trace.render();
        assert!(log.contains("makeLoginRequestPackageMd5"));
        assert!(log.contains("getPostUrl"));
        assert!(log.contains("NewStringUTF Begin"));
        assert!(log.contains("dvmCreateStringFromCstr"));
        assert!(
            log.contains("add taint 514 to new string object@"),
            "0x202 = 514 decimal, as in Fig. 6"
        );
        assert!(log.contains("NewStringUTF End"));
    }
}
