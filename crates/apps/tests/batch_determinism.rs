//! Batch-farm determinism: for any job mix the merged [`BatchReport`]
//! is identical — field-for-field and byte-for-byte in its rendering —
//! to the inline reference `run_inline`, whether the farm runs 1, 2,
//! or 8 workers, and whatever order the jobs finish in. Plus the
//! budget contract: budget exhaustion classifies as `Deadline` (never
//! `Crashed`) and never disturbs the job after it. Replay a failing
//! mix with `TESTKIT_SEED`.

use std::sync::mpsc;
use std::time::Duration;

use ndroid_apps::farm::{app_job, Adversarial, CorpusShard, Gallery, Monkey};
use ndroid_apps::{crypto_hider, qq_phonebook, thumb_spy, App, AppBuilder};
use ndroid_arm::reg::RegList;
use ndroid_arm::Reg;
use ndroid_core::batch::{
    jobs_from, run_batch, run_inline, AnalysisJob, BatchConfig, BatchReport, JobOutcome,
    JobSource,
};
use ndroid_core::{EventKind, ProvQuery, ProvenanceLevel, RunReport, SystemConfig};
use ndroid_dvm::bytecode::DexInsn;
use ndroid_dvm::{DvmError, InvokeKind, MethodDef, MethodId, MethodKind};
use ndroid_emu::EmuError;
use ndroid_jni::dvm_addr;
use ndroid_testkit::prelude::*;

/// One deterministic job mix: gallery apps, a corpus shard, and monkey
/// sessions, all parameterized by the generated values.
fn job_mix(shard: usize, shard_seed: u64, sessions: usize, steps: usize) -> Vec<AnalysisJob> {
    let config = SystemConfig::ndroid().quiet(true);
    jobs_from(
        &[
            &Gallery,
            &CorpusShard { n: shard, seed: shard_seed },
            &Monkey::fresh(sessions, steps, shard_seed ^ 0x5EED),
        ],
        &config,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn worker_count_never_changes_the_report(
        shard in 4usize..10,
        shard_seed in any::<u64>(),
        sessions in 0usize..4,
        steps in 1usize..30,
    ) {
        let one = run_batch(job_mix(shard, shard_seed, sessions, steps), BatchConfig::new(1));
        let two = run_batch(job_mix(shard, shard_seed, sessions, steps), BatchConfig::new(2));
        let eight = run_batch(job_mix(shard, shard_seed, sessions, steps), BatchConfig::new(8));
        prop_assert_eq!(&one, &two);
        prop_assert_eq!(&one, &eight);
        prop_assert_eq!(one.render(), eight.render());
        prop_assert_eq!(one.results.len(), 3 + shard + sessions);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The cross-run query satellite: with a sealing segment size,
    /// `BatchReport::query` over a 2- or 8-worker merge is
    /// byte-identical (structurally and in its rendering) to the same
    /// query over the sequential 1-worker merge — per-label,
    /// sink-kind, and seq-range filters alike. The frozen stores ride
    /// `RunReport` across worker threads, so this also pins that the
    /// sealing itself is schedule-free.
    #[test]
    fn prov_queries_are_worker_count_invariant(
        shard in 4usize..8,
        shard_seed in any::<u64>(),
        cap in 2usize..6,
        bits in 1u32..0x800,
    ) {
        let jobs = || {
            let config = SystemConfig::ndroid()
                .quiet(true)
                .provenance(ProvenanceLevel::Full)
                .provenance_capacity(cap);
            jobs_from(&[&Gallery, &CorpusShard { n: shard, seed: shard_seed }], &config)
        };
        let one = run_batch(jobs(), BatchConfig::new(1));
        let two = run_batch(jobs(), BatchConfig::new(2));
        let eight = run_batch(jobs(), BatchConfig::new(8));
        let queries = [
            ProvQuery::new().label(bits),
            ProvQuery::new().kind(EventKind::Sink),
            ProvQuery::new().kind(EventKind::Source).seq_range(0, 4),
            ProvQuery::new().sink("send"),
        ];
        for q in &queries {
            let sequential = one.query(q);
            prop_assert_eq!(&sequential, &two.query(q));
            prop_assert_eq!(&sequential, &eight.query(q));
            prop_assert_eq!(sequential.render(), eight.query(q).render());
            // Hits are merged by submission order, sequence within.
            prop_assert!(sequential
                .hits
                .windows(2)
                .all(|w| (w[0].job, w[0].seq) < (w[1].job, w[1].seq)));
        }
        // Every completed job carried a frozen store to query.
        prop_assert!(one
            .results
            .iter()
            .filter_map(|r| r.outcome.report())
            .all(|rep| rep.provenance_store.is_some()));
    }
}

/// Crashing and failing jobs merge deterministically too — panic
/// payloads and error strings land in the same slots for any worker
/// count. Kept out of the property loop so the intentional panics
/// don't multiply across cases.
#[test]
fn crashes_and_failures_merge_deterministically() {
    let mix = || {
        let config = SystemConfig::ndroid().quiet(true);
        let mut jobs = Gallery.jobs(&config);
        jobs.insert(
            1,
            AnalysisJob::new("synthetic/crash", || panic!("deterministic boom")),
        );
        jobs.push(AnalysisJob::new("synthetic/fail", || {
            Err(EmuError::Kernel("deterministic failure".into()))
        }));
        jobs
    };
    let one = run_batch(mix(), BatchConfig::new(1));
    let eight = run_batch(mix(), BatchConfig::new(8));
    assert_eq!(one, eight);
    assert_eq!(one.render(), eight.render());
    assert_eq!(one.crashed(), 1);
    assert_eq!(one.failed(), 1);
    assert_eq!(one.completed(), 3);
    assert!(matches!(
        &one.results[1].outcome,
        JobOutcome::Crashed(m) if m == "deterministic boom"
    ));
    assert!(matches!(
        &one.results[4].outcome,
        JobOutcome::Failed(m) if m == "kernel: deterministic failure"
    ));
}

/// Provenance recording rides the farm deterministically: the per-job
/// flow-graph fingerprints and leak-path counts in the merged report are
/// identical whether 1, 2, or 8 workers ran the pinned gallery apps —
/// the event streams are per-system, so worker scheduling can't
/// interleave them.
#[test]
fn provenance_fingerprints_are_worker_count_invariant() {
    let jobs = || {
        let config = SystemConfig::ndroid()
            .quiet(true)
            .provenance(ProvenanceLevel::Full);
        Gallery.jobs(&config)
    };
    let fingerprints = |r: &BatchReport| -> Vec<(String, u64, usize)> {
        r.results
            .iter()
            .map(|j| {
                let (p, store) = match &j.outcome {
                    JobOutcome::Completed(rep) => (
                        rep.provenance.expect("Full-level job carries a summary"),
                        rep.provenance_store
                            .as_ref()
                            .expect("Full-level job carries a store"),
                    ),
                    other => panic!("gallery job did not complete: {other:?}"),
                };
                (j.label.clone(), store.fingerprint(), p.leak_paths)
            })
            .collect()
    };
    let one = run_batch(jobs(), BatchConfig::new(1));
    let two = run_batch(jobs(), BatchConfig::new(2));
    let eight = run_batch(jobs(), BatchConfig::new(8));
    let pinned = fingerprints(&one);
    assert_eq!(pinned, fingerprints(&two));
    assert_eq!(pinned, fingerprints(&eight));
    assert_eq!(pinned.len(), 3, "three gallery apps");
    for (name, _, leak_paths) in &pinned {
        assert!(*leak_paths > 0, "{name}: every gallery app yields a leak path");
    }
    assert_eq!(one, eight, "whole merged reports stay equal too");
}

/// The canonical mixed job list: gallery (with provenance recording),
/// a corpus shard, forked monkey sessions, and the adversarial corpus.
fn full_mix() -> Vec<AnalysisJob> {
    let config = SystemConfig::ndroid()
        .quiet(true)
        .provenance(ProvenanceLevel::Full);
    jobs_from(
        &[
            &Gallery,
            &CorpusShard { n: 6, seed: 0xD514 },
            &Monkey::forked(3, 20, 0x5EED),
            &Adversarial,
        ],
        &config,
    )
}

/// The farm reproduces the inline reference byte for byte at 1, 2 and
/// 4 workers — fields (provenance summaries included) and rendering.
#[test]
fn run_batch_is_byte_identical_to_run_inline_at_any_worker_count() {
    let inline = run_inline(full_mix());
    for workers in [1usize, 2, 4] {
        let farm = run_batch(full_mix(), BatchConfig::new(workers));
        assert_eq!(farm, inline, "run_batch({workers} workers) vs run_inline");
        assert_eq!(farm.render(), inline.render(), "render bytes diverge at {workers} workers");
    }
    // The provenance fingerprints really are pinned by the equality:
    // every gallery job carries a summary and a leak path.
    for r in inline.results.iter().take(3) {
        let summary = r
            .outcome
            .report()
            .and_then(|rep| rep.provenance)
            .expect("gallery job at Full level carries a summary");
        assert!(summary.leak_paths > 0, "{}: no leak path", r.label);
    }
}

/// Runs one app to completion under `config` and snapshots its report.
fn analyse(config: SystemConfig, app: fn() -> App) -> Result<RunReport, EmuError> {
    app().run_with(config).map(|sys| sys.report())
}

/// Jobs finish out of submission order at 2 workers, whatever the
/// schedule: job 0 waits until job 2 has started, and job 2 can start
/// only once job 1 has finished and freed the second worker. So job 1
/// always finishes first, and the merge must still equal the inline
/// reference row for row.
#[test]
fn merge_ignores_completion_order() {
    let jobs = |gated: bool| {
        let config = SystemConfig::ndroid().quiet(true);
        let (started, wait) = mpsc::channel::<()>();
        let (c0, c1) = (config.clone(), config.clone());
        vec![
            AnalysisJob::new("first", move || {
                if gated {
                    // A farm that runs job 0 without job 2 starting
                    // beside it crashes job 0 here instead of hanging.
                    wait.recv_timeout(Duration::from_secs(30))
                        .expect("job 2 never started while job 0 waited");
                }
                analyse(c0, qq_phonebook::qq_phonebook)
            }),
            AnalysisJob::new("second", move || analyse(c1, thumb_spy::thumb_spy)),
            AnalysisJob::new("third", move || {
                // The send fails only if job 0 has already returned
                // (ungated, or timed out); then nobody is waiting.
                let _ = started.send(());
                analyse(config, crypto_hider::crypto_hider)
            }),
        ]
    };
    let inline = run_inline(jobs(false));
    let farm = run_batch(jobs(true), BatchConfig::new(2));
    assert_eq!(farm, inline);
    assert_eq!(farm.render(), inline.render());
    assert_eq!(farm.completed(), 3);
}

/// A job that exhausts its guest instruction budget classifies as
/// `Deadline` — not `Crashed`, not `Failed` — and the job after it on
/// the same single worker runs unharmed.
#[test]
fn budget_exhaustion_is_deadline_and_the_next_job_survives() {
    let starved = SystemConfig::ndroid().quiet(true).budget(5);
    let healthy = SystemConfig::ndroid().quiet(true);
    let jobs = || {
        vec![
            app_job("starved", starved.clone(), qq_phonebook::qq_phonebook),
            app_job("healthy", healthy.clone(), qq_phonebook::qq_phonebook),
        ]
    };
    let farm = run_batch(jobs(), BatchConfig::new(1));

    assert!(
        matches!(
            &farm.results[0].outcome,
            JobOutcome::Deadline(m) if m.contains("exceeded instruction budget")
        ),
        "budget exhaustion must classify as Deadline, got {:?}",
        farm.results[0].outcome
    );
    let healthy_run = farm.results[1]
        .outcome
        .report()
        .expect("healthy job completes after the budget-capped one");
    assert!(healthy_run.leaked(), "the job after ran the app faithfully");
    assert_eq!(farm.crashed(), 0);
    assert_eq!(farm.deadlined(), 1);

    // The inline reference and a 2-worker farm classify the identical
    // jobs identically, so the byte-identity contract holds for
    // budget-capped lists too.
    let inline = run_inline(jobs());
    assert_eq!(inline, farm);
    assert_eq!(inline.render(), farm.render());
    assert_eq!(run_batch(jobs(), BatchConfig::new(2)), inline);

    // The classification comes from the error's variant: the native
    // budget ran out under a Java entry, so the native→DVM crossing
    // carries it as a typed flag.
    let err = qq_phonebook::qq_phonebook().run_with(starved).unwrap_err();
    assert!(
        matches!(err, EmuError::Dvm(DvmError::NativeFailure { budget_exhausted: true, .. })),
        "{err:?}"
    );
}

/// Runs `jobs()` inline and through the farm at 1, 2 and 4 workers,
/// checks every run merges identically, and returns the inline report.
fn same_at_any_worker_count(jobs: impl Fn() -> Vec<AnalysisJob>) -> BatchReport {
    let inline = run_inline(jobs());
    for workers in [1usize, 2, 4] {
        assert_eq!(run_batch(jobs(), BatchConfig::new(workers)), inline, "{workers} workers");
    }
    inline
}

/// A guest-chosen error text cannot pick its outcome class: a
/// pure-native app whose only call is `FindClass("fuel exhausted")`
/// fails to find the class, and that is `Failed` although its message
/// names a budget.
#[test]
fn guest_text_naming_a_budget_is_failed() {
    let app = || {
        let mut b = AppBuilder::new("fuel_text", "FindClass(\"fuel exhausted\")");
        let name = b.data_cstr("fuel exhausted");
        let entry = b.asm.label();
        b.asm.bind(entry).unwrap();
        b.asm.push(RegList::of(&[Reg::LR]));
        b.asm.ldr_const(Reg::R0, name);
        b.asm.call_abs(dvm_addr("FindClass"));
        b.asm.pop(RegList::of(&[Reg::PC]));
        b.finish_pure_native(entry).unwrap()
    };
    let report = same_at_any_worker_count(|| {
        vec![app_job("fuel_text", SystemConfig::ndroid().quiet(true), app)]
    });
    assert!(
        matches!(
            &report.results[0].outcome,
            JobOutcome::Failed(m) if m.contains("fuel exhausted")
        ),
        "{:?}",
        report.results[0].outcome
    );
}

/// Java `main` calls the native `outer`, which calls back into Java
/// `inner` through `CallVoidMethodA`. `inner` is `inner_body`, with
/// `spin` (a native infinite loop) available to it.
fn callback_app(inner_body: fn(MethodId) -> Vec<DexInsn>) -> App {
    let mut b = AppBuilder::new("nested", "Java -> native -> CallVoidMethodA -> Java");
    let c = b.class("Lt/Nest;");
    let cls_str = b.data_cstr("Lt/Nest;");
    let inner_str = b.data_cstr("inner");
    let jvalues = b.data_buffer(16);

    // void outer() — virtual: r0 = this.
    let outer_entry = b.asm.label();
    b.asm.bind(outer_entry).unwrap();
    b.asm.push(RegList::of(&[Reg::R4, Reg::LR]));
    b.asm.mov(Reg::R4, Reg::R0);
    b.asm.ldr_const(Reg::R0, cls_str);
    b.asm.call_abs(dvm_addr("FindClass"));
    b.asm.ldr_const(Reg::R1, inner_str);
    b.asm.call_abs(dvm_addr("GetMethodID"));
    b.asm.mov(Reg::R1, Reg::R0);
    b.asm.mov(Reg::R0, Reg::R4);
    b.asm.ldr_const(Reg::R2, jvalues);
    b.asm.call_abs(dvm_addr("CallVoidMethodA"));
    b.asm.pop(RegList::of(&[Reg::R4, Reg::PC]));
    let outer = b.native_method(c, "outer", "V", false, outer_entry);

    // void spin() — never returns.
    let spin_entry = b.asm.label();
    b.asm.bind(spin_entry).unwrap();
    let top = b.asm.here_label();
    b.asm.b(top);
    let spin = b.native_method(c, "spin", "V", false, spin_entry);

    let inner = MethodDef::new("inner", "V", MethodKind::Bytecode(inner_body(spin)));
    b.method(c, inner.virtual_method().with_registers(1));
    b.method(
        c,
        MethodDef::new(
            "main",
            "V",
            MethodKind::Bytecode(vec![
                DexInsn::NewInstance { dst: 0, class: c },
                DexInsn::Invoke { kind: InvokeKind::Virtual, method: outer, args: vec![0] },
                DexInsn::ReturnVoid,
            ]),
        )
        .with_registers(1),
    );
    b.finish("Lt/Nest;", "main").unwrap()
}

/// The nested app under a small instruction budget and interpreter
/// fuel, as one job.
fn nested_job(label: &str, inner_body: fn(MethodId) -> Vec<DexInsn>) -> AnalysisJob {
    AnalysisJob::new(label, move || {
        let mut sys = callback_app(inner_body)
            .launch_with(SystemConfig::ndroid().quiet(true).budget(20_000));
        sys.dvm.fuel = 20_000;
        sys.run_java("Lt/Nest;", "main", &[])?;
        Ok(sys.report())
    })
}

/// A budget that runs out two crossings deep is still a deadline:
/// native code reached from a JNI callback (Java → native →
/// `CallVoidMethodA` → Java → native spin) exhausts the instruction
/// budget, and Java code reached from native code exhausts the
/// interpreter's fuel.
#[test]
fn budgets_exhausted_in_a_callback_are_deadlines() {
    let report = same_at_any_worker_count(|| {
        vec![
            nested_job("native_spin", |spin| {
                vec![
                    DexInsn::Invoke { kind: InvokeKind::Virtual, method: spin, args: vec![0] },
                    DexInsn::ReturnVoid,
                ]
            }),
            nested_job("java_spin", |_| vec![DexInsn::Goto { target: 0 }]),
        ]
    });
    let rows: Vec<&JobOutcome> = report.results.iter().map(|r| &r.outcome).collect();
    assert!(
        matches!(rows[..], [
            JobOutcome::Deadline(native),
            JobOutcome::Deadline(java),
        ] if native.contains("exceeded instruction budget") && java.contains("fuel exhausted")),
        "{}",
        report.render()
    );
}
