//! The snapshot fan-out determinism gate: a system forked from a
//! copy-on-write [`ndroid_core::Snapshot`] and driven some way must
//! produce a [`ndroid_core::RunReport`] **equal** to a freshly booted
//! system driven the same way — including the provenance flow-graph
//! fingerprint at [`ProvenanceLevel::Full`] and every cache counter —
//! across all three tracer engines (optimized, blocks-off, reference).
//!
//! A fork taken in the middle of a provenance segment must not seal
//! early: the segment layout is part of the report.
//!
//! Also pins the nastiest coherency case: the detour app overwrites
//! its own prologue *at runtime* (self-modifying code) after a fork
//! whose decode/superblock caches were carried warm from the parent.

use ndroid_apps::adversarial;
use ndroid_apps::driver::{drive, gated_leak_app, GATED_ENTRIES};
use ndroid_apps::qq_phonebook::qq_phonebook;
use ndroid_core::{NDroidSystem, ProvenanceLevel, RunReport, SystemConfig};

/// The three engine configurations the gate must hold for, all with
/// full provenance so the report carries event fingerprints.
fn engine_configs() -> Vec<(&'static str, SystemConfig)> {
    let base = SystemConfig::ndroid()
        .quiet(true)
        .provenance(ProvenanceLevel::Full);
    vec![
        ("optimized", base.clone()),
        ("no-blocks", base.clone().blocks(false)),
        ("reference", base.reference()),
    ]
}

/// Drives `steps` monkey events from `seed` and reports.
fn monkey_run(sys: &mut NDroidSystem, steps: usize, seed: u64) -> RunReport {
    let d = drive(sys, "Lapp/Sync;", &GATED_ENTRIES, steps, seed);
    assert_eq!(d.errors, 0, "driver invocations must not fail");
    d.report
}

#[test]
fn forked_run_equals_fresh_run_across_engines() {
    for (name, cfg) in engine_configs() {
        let mut fresh = gated_leak_app().launch_with(cfg.clone());
        let want = monkey_run(&mut fresh, 40, 3);

        let snap = gated_leak_app().launch_with(cfg).snapshot();
        let mut forked = snap.fork();
        let got = monkey_run(&mut forked, 40, 3);
        assert_eq!(got, want, "{name}: forked run diverged from fresh run");

        // The image is reusable: a second fork replays identically.
        let mut again = snap.fork();
        assert_eq!(monkey_run(&mut again, 40, 3), want, "{name}: second fork");
    }
}

/// Fork in mid-segment: with a segment size of 3, the image is captured
/// after one run of the qq_phonebook entry point (13 events), so the
/// fork carries a part-filled unsealed hot tier and lands inside a
/// segment. Forking must not seal: the forked run's segment layout —
/// and so its whole report, frozen store included — equals a fresh
/// run's.
#[test]
fn fork_inside_a_segment_equals_fresh_run() {
    for (name, cfg) in engine_configs() {
        let cfg = cfg.provenance_capacity(3);
        let app = qq_phonebook();
        let (class, method) = app.entry.clone();
        let run = |sys: &mut NDroidSystem| {
            sys.run_java(&class, &method, &[])
                .expect("entry point runs");
        };
        let mut fresh = app.launch_with(cfg.clone());
        run(&mut fresh);
        run(&mut fresh);
        let want = fresh.report();

        let mut image = qq_phonebook().launch_with(cfg);
        run(&mut image);
        let frozen = image.provenance().freeze().expect("Full run has a store");
        let unsealed = frozen.tail().len();
        assert!(
            0 < unsealed && unsealed < 3,
            "{name}: capture must land inside a segment ({unsealed} unsealed)"
        );
        let mut forked = image.snapshot().fork();
        run(&mut forked);
        let got = forked.report();
        assert_eq!(got, want, "{name}: forked run diverged from fresh run");
        assert!(
            got.provenance_store.is_some(),
            "{name}: Full run carries its store"
        );
        assert!(
            got.provenance.expect("Full run digests").segments > 0,
            "{name}: capacity 3 seals segments"
        );
    }
}

#[test]
fn parent_divergence_never_bleeds_into_forks() {
    for (name, cfg) in engine_configs() {
        let mut fresh = gated_leak_app().launch_with(cfg.clone());
        let want = monkey_run(&mut fresh, 25, 9);

        let mut parent = gated_leak_app().launch_with(cfg);
        let snap = parent.snapshot();
        // Heavy divergent activity on the parent *after* the capture:
        // a different schedule, plus a moving GC compaction.
        monkey_run(&mut parent, 60, 0xDEAD);
        parent.force_gc();

        let mut forked = snap.fork();
        assert_eq!(
            monkey_run(&mut forked, 25, 9),
            want,
            "{name}: parent mutations bled into the fork"
        );
    }
}

/// A fork records into a recorder of its own. After a fork runs
/// native sinks, the parent's provenance count and report are what they
/// were at the capture, and a sibling fork taken afterwards holds the
/// image's.
#[test]
fn a_fork_records_into_its_own_recorder() {
    for (name, cfg) in engine_configs() {
        let mut parent = gated_leak_app().launch_with(cfg);
        monkey_run(&mut parent, 10, 5);
        let image = (parent.provenance().recorded(), parent.report());
        let snap = parent.snapshot();

        let mut a = snap.fork();
        let ran = monkey_run(&mut a, 25, 9);
        assert!(
            ran.network_log.len() > image.1.network_log.len(),
            "{name}: the fork must reach a native sink"
        );
        assert!(a.provenance().recorded() > image.0, "{name}: the fork recorded");
        let after = (parent.provenance().recorded(), parent.report());
        assert_eq!(after, image, "{name}: the fork recorded into its parent");

        let b = snap.fork();
        let sibling = (b.provenance().recorded(), b.report());
        assert_eq!(sibling, image, "{name}: a sibling fork differs from the image");
    }
}

/// Self-modifying code after a fork: the detour app installs an
/// inline `B target` over its own prologue from in-guest stores. The
/// fork's decode and superblock caches were carried warm from the
/// parent's image, so a stale cache would run the *unpatched* decoy
/// and miss the leak. Regression for the epoch/rebind protocol.
#[test]
fn smc_after_fork_detour_regression() {
    for (name, cfg) in engine_configs() {
        // Fresh baseline.
        let fresh = adversarial::detour_leak()
            .run_with(cfg.clone())
            .expect("fresh detour run");
        let want = fresh.report();
        assert_eq!(fresh.leaks().len(), 1, "{name}: detour baseline leaks");

        // Fork from a launched-but-not-run image; the patch happens
        // inside the forked run, over Rc-shared code pages.
        let app = adversarial::detour_leak();
        let entry = app.entry.clone();
        let snap = app.launch_with(cfg).snapshot();
        let mut forked = snap.fork();
        forked.run_java(&entry.0, &entry.1, &[]).expect("forked detour run");
        assert_eq!(forked.leaks().len(), 1, "{name}: SMC leak missed after fork");
        assert_eq!(forked.report(), want, "{name}: forked detour run diverged");

        // A sibling fork sees unpatched code again and replays the
        // whole install-and-leak sequence identically.
        let mut sibling = snap.fork();
        sibling.run_java(&entry.0, &entry.1, &[]).expect("sibling detour run");
        assert_eq!(sibling.report(), want, "{name}: sibling fork diverged");
    }
}

/// Forking a *finished* system carries its warm caches; re-running the
/// entry re-installs the detour over already-patched pages (another
/// round of in-guest stores against carried cache state) and must
/// still detect the leak exactly like a fresh double run.
#[test]
fn refork_of_finished_run_stays_coherent() {
    let cfg = SystemConfig::ndroid().quiet(true);

    let app = adversarial::detour_leak();
    let entry = app.entry.clone();
    let mut fresh = app.launch_with(cfg.clone());
    fresh.run_java(&entry.0, &entry.1, &[]).expect("first run");
    fresh.run_java(&entry.0, &entry.1, &[]).expect("second run");
    let want = fresh.report();

    let app = adversarial::detour_leak();
    let entry = app.entry.clone();
    let mut parent = app.launch_with(cfg);
    parent.run_java(&entry.0, &entry.1, &[]).expect("parent run");
    let mut forked = parent.snapshot().fork();
    forked.run_java(&entry.0, &entry.1, &[]).expect("forked rerun");
    assert_eq!(forked.report(), want, "re-fork of a finished run diverged");
}
