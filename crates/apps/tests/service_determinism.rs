//! Resident-service determinism: a service's `drain()` report is
//! byte-identical to the inline reference `run_inline` over the same
//! jobs in submission order — at any worker count, with provenance
//! fingerprints included, and regardless of how many threads raced the
//! submissions. Plus the budget contract: budget exhaustion classifies
//! as `Deadline` (never `Crashed`) in every mode, and a budget-capped
//! job never disturbs the job queued behind it.

use ndroid_apps::farm::{Adversarial, CorpusShard, Gallery, Monkey};
use ndroid_core::batch::{
    jobs_from, run_batch, run_inline, AnalysisJob, BatchConfig, JobOutcome, JobSource,
};
use ndroid_core::{AnalysisService, ProvenanceLevel, ServiceConfig, SystemConfig};

/// The canonical mixed job list: gallery (with provenance recording),
/// a corpus shard, monkey sessions, and the adversarial corpus.
fn job_mix() -> Vec<AnalysisJob> {
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

/// `drain()` reproduces the inline reference byte for byte at 1, 2,
/// and 8 service workers — fields (provenance summaries included) and
/// rendering.
#[test]
fn drain_is_byte_identical_to_run_inline_at_any_worker_count() {
    let offline = run_inline(job_mix());
    for workers in [1usize, 2, 8] {
        let service = AnalysisService::start(ServiceConfig::new(workers).capacity(64));
        for job in job_mix() {
            service.submit(job).unwrap();
        }
        let drained = service.shutdown();
        assert_eq!(drained, offline, "service({workers} workers) vs offline");
        assert_eq!(
            drained.render(),
            offline.render(),
            "render bytes diverge at {workers} workers"
        );
    }
    // The provenance fingerprints really are pinned by the equality:
    // every gallery job carries a summary and a leak path.
    let summaries: Vec<_> = offline
        .results
        .iter()
        .take(3)
        .map(|r| {
            r.outcome
                .report()
                .and_then(|rep| rep.provenance)
                .expect("gallery job at Full level carries a summary")
        })
        .collect();
    assert_eq!(summaries.len(), 3);
    for s in &summaries {
        assert!(s.leak_paths > 0);
    }
}

/// Two threads race their submissions through one service; the drained
/// report matches `run_inline` over the same jobs **in observed
/// submission (ticket) order** — interleaving changes which seq a job
/// gets, never how its result merges.
#[test]
fn interleaved_two_thread_submission_is_deterministic() {
    let service = AnalysisService::start(ServiceConfig::new(2).capacity(64));

    // Split the mix into halves by index parity; each thread submits
    // one half and records which submission seq each job received.
    let jobs: Vec<AnalysisJob> = job_mix();
    let total = jobs.len();
    let (mut even, mut odd) = (Vec::new(), Vec::new());
    for (i, job) in jobs.into_iter().enumerate() {
        if i % 2 == 0 {
            even.push((i, job));
        } else {
            odd.push((i, job));
        }
    }
    let mut observed: Vec<(u64, usize)> = std::thread::scope(|s| {
        let handles = [even, odd].map(|half| {
            let service = &service;
            s.spawn(move || {
                half.into_iter()
                    .map(|(i, job)| (service.submit(job).unwrap().seq, i))
                    .collect::<Vec<(u64, usize)>>()
            })
        });
        handles.into_iter().flat_map(|h| h.join().unwrap()).collect()
    });
    let drained = service.shutdown();

    // Rebuild the same jobs, ordered by the seq each one actually got.
    observed.sort_by_key(|(seq, _)| *seq);
    assert_eq!(observed.len(), total);
    let mut fresh: Vec<Option<AnalysisJob>> = job_mix().into_iter().map(Some).collect();
    let reordered: Vec<AnalysisJob> = observed
        .iter()
        .map(|(_, i)| fresh[*i].take().unwrap())
        .collect();
    let offline = run_inline(reordered);

    assert_eq!(drained, offline);
    assert_eq!(drained.render(), offline.render());
}

/// A job that exhausts its guest instruction budget classifies as
/// `Deadline` — not `Crashed`, not `Failed` — in every mode, and the
/// job queued behind it runs unharmed.
#[test]
fn budget_exhaustion_is_deadline_and_slot_survives() {
    let starved = SystemConfig::ndroid().quiet(true).budget(5);
    let healthy = SystemConfig::ndroid().quiet(true);

    // Capacity 1: the budget-capped job and the healthy job pass
    // through the one-job queue back to back.
    let service = AnalysisService::start(ServiceConfig::new(1).capacity(1));
    let mk = |cfg: &SystemConfig, label: &str| {
        let cfg = cfg.clone();
        AnalysisJob::new(label, move || {
            ndroid_apps::qq_phonebook::qq_phonebook()
                .run_with(cfg)
                .map(|sys| sys.report())
                .map_err(|e| e.to_string())
        })
    };
    service.submit(mk(&starved, "starved")).unwrap();
    service.submit(mk(&healthy, "healthy")).unwrap();
    let drained = service.shutdown();

    assert!(
        matches!(
            &drained.results[0].outcome,
            JobOutcome::Deadline(m) if m.contains("exceeded instruction budget")
        ),
        "budget exhaustion must classify as Deadline, got {:?}",
        drained.results[0].outcome
    );
    let healthy_run = drained.results[1]
        .outcome
        .report()
        .expect("healthy job completes behind the budget-capped one");
    assert!(healthy_run.leaked(), "the job behind ran the app faithfully");
    assert_eq!(drained.crashed(), 0);
    assert_eq!(drained.deadlined(), 1);

    // The inline reference and a 2-worker `run_batch` classify the
    // identical jobs identically, so the byte-identity contract holds
    // for budget-capped lists too.
    let jobs = || vec![mk(&starved, "starved"), mk(&healthy, "healthy")];
    let inline = run_inline(jobs());
    assert_eq!(inline, drained);
    assert_eq!(inline.render(), drained.render());
    assert_eq!(run_batch(jobs(), BatchConfig::new(2)), inline);
}

/// Streaming consumption: results arrive through `recv_result` while
/// workers run, every ticket is answered exactly once, and a fully
/// streamed service drains to an empty report (nothing left to merge).
#[test]
fn streaming_results_cover_every_ticket() {
    let service = AnalysisService::start(ServiceConfig::new(2).capacity(16));
    let cfg = SystemConfig::ndroid().quiet(true);
    let tickets: Vec<_> = CorpusShard { n: 6, seed: 0xD514 }
        .jobs(&cfg)
        .into_iter()
        .map(|job| service.submit(job).unwrap())
        .collect();
    assert_eq!(tickets.len(), 6);
    let mut seen: Vec<u64> = (0..tickets.len())
        .map(|_| {
            let r = service.recv_result().expect("a result per ticket");
            assert!(r.outcome.report().is_some());
            r.seq
        })
        .collect();
    seen.sort_unstable();
    let mut expected: Vec<u64> = tickets.iter().map(|t| t.seq).collect();
    expected.sort_unstable();
    assert_eq!(seen, expected);
    let report = service.shutdown();
    assert!(report.results.is_empty(), "everything was streamed already");
}
