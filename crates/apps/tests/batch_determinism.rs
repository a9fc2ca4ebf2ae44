//! Batch-farm determinism: for any job mix the merged [`BatchReport`]
//! is identical — field-for-field and byte-for-byte in its rendering —
//! whether the farm runs 1, 2, or 8 workers. Replay a failing mix with
//! `TESTKIT_SEED`.

use ndroid_apps::farm::{CorpusShard, Gallery, Monkey};
use ndroid_core::batch::{
    jobs_from, run_batch, AnalysisJob, BatchConfig, BatchReport, JobOutcome, JobSource,
};
use ndroid_core::{EventKind, ProvQuery, ProvenanceLevel, SystemConfig};
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
            Err("deterministic failure".to_string())
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
        JobOutcome::Failed(m) if m == "deterministic failure"
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
                let p = match &j.outcome {
                    JobOutcome::Completed(rep) => {
                        rep.provenance.expect("Full-level job carries a summary")
                    }
                    other => panic!("gallery job did not complete: {other:?}"),
                };
                (j.label.clone(), p.fingerprint, p.leak_paths)
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
