//! Cross-crate integration tests: whole apps through the whole stack
//! (bytecode interpreter → JNI bridge → ARM emulator → libc models →
//! kernel sinks) under every analysis configuration.

use ndroid::apps::{all_case_apps, benign, ephone, poc_case2, poc_case3, qq_phonebook};
use ndroid::core::Mode;
use ndroid::dvm::{SinkCtx, Taint};

#[test]
fn detection_matrix_matches_table1() {
    // TaintDroid: only case 1. NDroid: all five.
    for (case, app, expected_taint) in all_case_apps() {
        let td = !app.run(Mode::TaintDroid).unwrap().leaks().is_empty();
        assert_eq!(td, case == "case1", "taintdroid on {case}");
        let _ = expected_taint;
    }
    for (case, app, expected_taint) in all_case_apps() {
        let sys = app.run(Mode::NDroid).unwrap();
        let leaks = sys.leaks();
        assert_eq!(leaks.len(), 1, "ndroid on {case}");
        assert!(
            leaks[0].taint.contains(expected_taint),
            "{case}: taint {} should contain {expected_taint}",
            leaks[0].taint
        );
    }
}

#[test]
fn droidscope_like_matches_taintdroid_detection() {
    // "no new information flows than TaintDroid were reported in
    // [DroidScope]" — but our DroidScope-like config *does* track
    // native flows (it shares NDroid's propagation), so the paper's
    // detection claim is about the published tool, not the technique.
    // What must hold here: the whole-system tracer detects at least
    // what TaintDroid does. Its speed is not checked: `exp cfbench`
    // prints it, and EXPERIMENTS.md explains why it stays close to
    // NDroid's here (no guest-binary interpreter to trace).
    for (case, app, _) in all_case_apps() {
        let sys = app.run(Mode::DroidScopeLike).unwrap();
        if case == "case1" {
            assert!(!sys.leaks().is_empty());
        }
    }
}

#[test]
fn vanilla_mode_runs_everything_with_no_taint() {
    for (case, app, _) in all_case_apps() {
        let sys = app.run(Mode::Vanilla).unwrap();
        assert!(sys.leaks().is_empty(), "{case}");
        assert!(
            !sys.all_sink_events().is_empty(),
            "{case}: the data still flowed"
        );
    }
}

#[test]
fn benign_apps_clean_under_all_modes() {
    for mode in [Mode::TaintDroid, Mode::NDroid, Mode::DroidScopeLike] {
        for app in [
            benign::physics_game(),
            benign::audio_license_check(),
            benign::dsp_filter(),
        ] {
            let name = app.name.clone();
            let sys = app.run(mode).unwrap();
            assert!(sys.leaks().is_empty(), "{name} under {mode}");
        }
    }
}

#[test]
fn named_replicas_reproduce_figure_flows() {
    // Fig. 6: QQPhoneBook — 0x202 to sync.3g.qq.com.
    let sys = qq_phonebook::qq_phonebook().run(Mode::NDroid).unwrap();
    let leaks = sys.leaks();
    assert_eq!(leaks[0].taint.0, 0x202);
    assert_eq!(leaks[0].dest, "sync.3g.qq.com");

    // Fig. 7: ePhone — 0x2 via sendto to softphone.comwave.net.
    let sys = ephone::ephone().run(Mode::NDroid).unwrap();
    let leaks = sys.leaks();
    assert_eq!(leaks[0].taint.0, 0x2);
    assert_eq!(leaks[0].sink, "sendto");

    // Fig. 8: PoC case 2 — fprintf to /sdcard/CONTACTS.
    let sys = poc_case2::poc_case2().run(Mode::NDroid).unwrap();
    let leaks = sys.leaks();
    assert_eq!(leaks[0].context, SinkCtx::Native);
    assert_eq!(leaks[0].dest, "/sdcard/CONTACTS");

    // Fig. 9: PoC case 3 — callback into Java, caught at Socket.send.
    let sys = poc_case3::poc_case3().run(Mode::NDroid).unwrap();
    let leaks = sys.leaks();
    assert_eq!(leaks[0].context, SinkCtx::Java);
    assert!(leaks[0].taint.contains(Taint::PHONE_NUMBER));
}

#[test]
fn os_view_reconstructor_sees_loaded_libraries() {
    let sys = ephone::ephone().run(Mode::NDroid).unwrap();
    let procs = sys.os_view();
    let p = procs.iter().find(|p| p.comm == "app_process").unwrap();
    assert!(p.module_base("libasip.so").is_some(), "third-party lib");
    assert!(p.module_base("libdvm.so").is_some());
    assert!(p.module_base("libc.so").is_some());
    // Every leak-producing instruction was inside the mapped library.
    let lib = p.module_base("libasip.so").unwrap();
    assert!(ndroid::emu::layout::in_native_code(lib));
}

#[test]
fn trace_log_structure_covers_all_hook_groups() {
    let sys = poc_case3::poc_case3().run(Mode::NDroid).unwrap();
    let log = sys.trace.render();
    // JNI entry group (dvmCallJNIMethod).
    assert!(log.contains("dvmCallJNIMethod"));
    // Object creation group (NewStringUTF → dvmCreateStringFromCstr).
    assert!(log.contains("dvmCreateStringFromCstr"));
    // JNI exit group (Call*Method → dvmCallMethod* → dvmInterpret).
    assert!(log.contains("dvmInterpret Begin"));
    // Source policies.
    assert!(log.contains("SourceHandler"));
}

#[test]
fn analysis_stats_are_populated() {
    let sys = poc_case2::poc_case2().run(Mode::NDroid).unwrap();
    let stats = sys.ndroid_stats().unwrap();
    assert!(stats.insns_traced > 10);
    assert!(stats.branch_events > 5);
    assert!(stats.jni_entries >= 1);
    assert!(stats.source_policies >= 1);
    assert!(sys.native_insns() > 30, "real ARM instructions ran");
}

#[test]
fn repeated_runs_are_deterministic() {
    let a = poc_case2::poc_case2().run(Mode::NDroid).unwrap();
    let b = poc_case2::poc_case2().run(Mode::NDroid).unwrap();
    assert_eq!(a.leaks().len(), b.leaks().len());
    assert_eq!(a.native_insns(), b.native_insns());
    assert_eq!(a.bytecodes(), b.bytecodes());
    assert_eq!(a.trace.len(), b.trace.len());
}

#[test]
fn loaded_library_can_be_disassembled() {
    let app = ndroid::apps::ephone::ephone();
    let sys = app.launch(ndroid::core::Mode::NDroid);
    let lines = sys.disassemble_module("libasip.so").expect("module mapped");
    assert!(lines.len() > 20, "whole library disassembled");
    let text: String = lines.iter().map(|l| l.to_string() + "\n").collect();
    assert!(text.contains("blx r12"), "the JNI/libc call idiom:\n{}",
        &text[..600.min(text.len())]);
    assert!(sys.disassemble_module("libmissing.so").is_none());
}
