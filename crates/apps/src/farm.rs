//! Front-end for the batch-analysis farm ([`ndroid_core::batch`]) and
//! the resident service ([`ndroid_core::service`]): packages the
//! workloads this crate knows how to build — gallery apps, Table-I
//! case apps, synthetic corpus samples, monkey-driver sessions — as
//! [`JobSource`]s ([`Gallery`], [`Cases`], [`CorpusShard`],
//! [`Adversarial`], [`Monkey`]).
//!
//! Jobs construct their `App` (and its `NDroidSystem`) *inside* the
//! closure, on whatever worker thread picks them up; only the
//! [`SystemConfig`] and a builder `fn` (or a [`FlowSpec`]) cross the
//! thread boundary. That keeps `App` itself free of any `Send`
//! obligation and guarantees per-worker system isolation.
//!
//! Feed a source to the offline farm with
//! [`ndroid_core::batch::jobs_from`] + [`ndroid_core::batch::run_batch`],
//! or stream it through a live service with
//! [`ndroid_core::AnalysisService::submit_source`]. (The legacy
//! free-function entry points — `gallery_jobs` & co. — survived one
//! release as `#[deprecated]` wrappers and are gone.)

use crate::builder::{App, NamedApp};
use crate::driver::{drive, gated_leak_app, GATED_ENTRIES};
use crate::synth::{build, FlowSpec, Hop, Sink, Source};
use ndroid_core::batch::{AnalysisJob, JobSource};
use ndroid_core::SystemConfig;
use ndroid_corpus::{AppRecord, CorpusConfig, JniType};

/// Wraps one app constructor as a job: build, run to completion under
/// `config`, snapshot the [`ndroid_core::RunReport`].
pub fn app_job(
    label: impl Into<String>,
    config: SystemConfig,
    builder: fn() -> App,
) -> AnalysisJob {
    AnalysisJob::new(label, move || {
        builder()
            .run_with(config)
            .map(|sys| sys.report())
            .map_err(|e| e.to_string())
    })
}

/// The three case-study gallery apps (QQPhoneBook, the Thumb spy, the
/// crypto hider), in pinned order.
#[derive(Debug, Clone, Copy, Default)]
pub struct Gallery;

impl JobSource for Gallery {
    fn name(&self) -> &'static str {
        "gallery"
    }

    fn jobs(&self, config: &SystemConfig) -> Vec<AnalysisJob> {
        let apps: [NamedApp; 3] = [
            ("gallery/qq_phonebook", crate::qq_phonebook::qq_phonebook),
            ("gallery/thumb_spy", crate::thumb_spy::thumb_spy),
            ("gallery/crypto_hider", crate::crypto_hider::crypto_hider),
        ];
        apps.into_iter()
            .map(|(label, f)| app_job(label, config.clone(), f))
            .collect()
    }
}

/// The Table-I information-flow case apps, in pinned order.
#[derive(Debug, Clone, Copy, Default)]
pub struct Cases;

impl JobSource for Cases {
    fn name(&self) -> &'static str {
        "cases"
    }

    fn jobs(&self, config: &SystemConfig) -> Vec<AnalysisJob> {
        let apps: [NamedApp; 6] = [
            ("case/case1", crate::cases::case1),
            ("case/case1'", crate::cases::case1_prime),
            ("case/case1'-cb", crate::cases::case1_prime_callback),
            ("case/case2", crate::cases::case2),
            ("case/case3", crate::cases::case3),
            ("case/case4", crate::cases::case4),
        ];
        apps.into_iter()
            .map(|(label, f)| app_job(label, config.clone(), f))
            .collect()
    }
}

fn record_hash(record: &AppRecord) -> u64 {
    // FNV-1a over the fields that survive corpus regeneration, so a
    // record always maps to the same flow.
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |bytes: &[u8]| {
        for b in bytes {
            h ^= *b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    eat(&record.id.to_le_bytes());
    for lib in &record.native_libs {
        eat(lib.as_bytes());
    }
    for class in &record.native_decl_classes {
        eat(class.as_bytes());
    }
    h
}

/// Deterministically maps a corpus [`AppRecord`] to the [`FlowSpec`]
/// its synthetic stand-in app realizes. Pure function of the record,
/// so the ground truth (`spec.leak`) is known without running anything.
pub fn spec_for_record(record: &AppRecord) -> FlowSpec {
    const SOURCES: [Source; 4] =
        [Source::Imei, Source::Contact, Source::Sms, Source::Location];
    const HOPS: [Hop; 5] =
        [Hop::Strcpy, Hop::Memcpy, Hop::XorLoop, Hop::Sprintf, Hop::Strdup];
    const SINKS: [Sink; 3] = [Sink::NativeSend, Sink::NativeFile, Sink::JavaSend];
    let h = record_hash(record);
    let n_hops = 1 + (h >> 2) as usize % 3;
    let hops = (0..n_hops)
        .map(|i| HOPS[(h >> (4 + 3 * i)) as usize % HOPS.len()])
        .collect();
    FlowSpec {
        source: SOURCES[h as usize % SOURCES.len()],
        hops,
        sink: SINKS[(h >> 16) as usize % SINKS.len()],
        leak: !(h >> 24).is_multiple_of(4), // ~75% of samples actually leak
        // Deliberately mutation-free: the pinned corpus/batch goldens
        // predate mutations. Mutated specs live in the adversarial
        // corpus ([`crate::adversarial`]).
        mutations: vec![],
    }
}

/// A scaled-down corpus whose §III proportions survive the shrink:
/// half the apps are Type I, a quarter of those ship no library, one
/// Type-III straggler. `seed` feeds the generator's PRNG.
pub fn shard_corpus_config(n: usize, seed: u64) -> CorpusConfig {
    let n = n.max(4) as u32;
    CorpusConfig {
        total: 4 * n,
        type1: 2 * n,
        type2: (n / 4).max(1),
        type2_loadable: (n / 8).max(1),
        type3: 1,
        type1_without_libs: n / 2,
        admob_fraction: 0.481,
        seed,
    }
}

/// A pinned corpus shard: the first `n` Type-I (library-shipping)
/// samples of the corpus generated from `seed`, each record mapped
/// through [`spec_for_record`] to a synthetic JNI flow app with known
/// ground truth, built and run on the worker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CorpusShard {
    /// Number of samples in the shard.
    pub n: usize,
    /// Corpus generator seed.
    pub seed: u64,
}

impl JobSource for CorpusShard {
    fn name(&self) -> &'static str {
        "corpus_shard"
    }

    fn jobs(&self, config: &SystemConfig) -> Vec<AnalysisJob> {
        let records = ndroid_corpus::generate(&shard_corpus_config(self.n, self.seed));
        records
            .into_iter()
            .filter(|r| r.jni_type() == JniType::TypeI && !r.native_libs.is_empty())
            .take(self.n)
            .map(|record| {
                let spec = spec_for_record(&record);
                let label = format!("corpus/app_{:05}", record.id);
                let config = config.clone();
                AnalysisJob::new(label, move || {
                    build(&spec)
                        .run_with(config)
                        .map(|sys| sys.report())
                        .map_err(|e| e.to_string())
                })
            })
            .collect()
    }
}

/// The adversarial corpus ([`crate::adversarial::corpus`]), in pinned
/// corpus order. Score the resulting [`ndroid_core::BatchReport`] with
/// [`ndroid_core::score::score_batch`] against
/// [`crate::adversarial::expected_leak`].
#[derive(Debug, Clone, Copy, Default)]
pub struct Adversarial;

impl JobSource for Adversarial {
    fn name(&self) -> &'static str {
        "adversarial"
    }

    fn jobs(&self, config: &SystemConfig) -> Vec<AnalysisJob> {
        crate::adversarial::corpus()
            .into_iter()
            .map(|case| {
                let config = config.clone();
                AnalysisJob::new(case.label, move || {
                    case.build()
                        .run_with(config)
                        .map(|sys| sys.report())
                        .map_err(|e| e.to_string())
                })
            })
            .collect()
    }
}

/// Monkey-driver sessions over the gated-leak app: session `i` drives
/// `steps` pseudo-random events from seed `base_seed + i`. A session
/// whose invocations throw is reported as a failed job.
///
/// With `fork: true`, sessions fan out from a **copy-on-write
/// snapshot** instead of re-booting: each worker thread boots and
/// warms the app once per distinct [`SystemConfig`], captures an
/// [`ndroid_core::Snapshot`], and every session on that worker forks
/// from the image (O(page-table), pages copied lazily on first
/// write). Behaviorally identical to `fork: false` — the same `steps`
/// events from the same seed produce an equal
/// [`ndroid_core::RunReport`]; the `exp snapshot` gate and the
/// determinism tests pin that equality. Because the warm image is
/// thread-local, resident service workers
/// ([`ndroid_core::AnalysisService`]) keep it hot across submissions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Monkey {
    /// Number of driver sessions.
    pub sessions: usize,
    /// Pseudo-random events per session.
    pub steps: usize,
    /// Session `i` seeds its PRNG with `base_seed + i`.
    pub base_seed: u64,
    /// Fork each session from a per-worker warm CoW snapshot instead
    /// of booting fresh.
    pub fork: bool,
}

impl Monkey {
    /// Fresh-boot sessions (the legacy `monkey_jobs` shape).
    pub fn fresh(sessions: usize, steps: usize, base_seed: u64) -> Monkey {
        Monkey { sessions, steps, base_seed, fork: false }
    }

    /// Snapshot-forked sessions (the legacy `monkey_fork_jobs` shape).
    pub fn forked(sessions: usize, steps: usize, base_seed: u64) -> Monkey {
        Monkey { sessions, steps, base_seed, fork: true }
    }
}

impl JobSource for Monkey {
    fn name(&self) -> &'static str {
        "monkey"
    }

    fn jobs(&self, config: &SystemConfig) -> Vec<AnalysisJob> {
        use ndroid_core::Snapshot;
        use std::cell::RefCell;

        // One warm image per worker thread per configuration. Snapshots
        // hold `Rc`s and so cannot cross threads; jobs only carry the
        // (Send) config and rebuild the image on whichever worker runs
        // them first.
        thread_local! {
            static WARM: RefCell<Option<(SystemConfig, Snapshot)>> =
                const { RefCell::new(None) };
        }

        let fork = self.fork;
        let steps = self.steps;
        (0..self.sessions)
            .map(|i| {
                let seed = self.base_seed + i as u64;
                let config = config.clone();
                AnalysisJob::new(format!("monkey/session_{i:03}"), move || {
                    let mut sys = if fork {
                        WARM.with(|warm| {
                            let mut warm = warm.borrow_mut();
                            match warm.as_ref() {
                                Some((c, snap)) if *c == config => snap.fork(),
                                _ => {
                                    let booted =
                                        gated_leak_app().launch_with(config.clone());
                                    let snap = booted.snapshot();
                                    let sys = snap.fork();
                                    *warm = Some((config.clone(), snap));
                                    sys
                                }
                            }
                        })
                    } else {
                        gated_leak_app().launch_with(config)
                    };
                    let report =
                        drive(&mut sys, "Lapp/Sync;", &GATED_ENTRIES, steps, seed);
                    if report.errors > 0 {
                        return Err(format!("{} invocations failed", report.errors));
                    }
                    Ok(report.report)
                })
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ndroid_core::batch::{jobs_from, run_batch, BatchConfig};
    use ndroid_core::Mode;

    #[test]
    fn gallery_jobs_all_leak() {
        let jobs = Gallery.jobs(&SystemConfig::ndroid().quiet(true));
        let report = run_batch(jobs, BatchConfig::new(2));
        assert_eq!(report.completed(), 3);
        assert_eq!(report.leaking(), 3, "{}", report.render());
    }

    #[test]
    fn corpus_shard_matches_ground_truth() {
        let cfg = SystemConfig::ndroid().quiet(true);
        let n = 8;
        let jobs = CorpusShard { n, seed: 0xD514 }.jobs(&cfg);
        assert_eq!(jobs.len(), n);

        // Recompute the ground truth the same way the job list did.
        let records = ndroid_corpus::generate(&shard_corpus_config(n, 0xD514));
        let truth: Vec<bool> = records
            .iter()
            .filter(|r| r.jni_type() == JniType::TypeI && !r.native_libs.is_empty())
            .take(n)
            .map(|r| spec_for_record(r).expected_leak())
            .collect();

        let report = run_batch(jobs, BatchConfig::new(2));
        assert_eq!(report.completed(), n);
        for (result, expect_leak) in report.results.iter().zip(truth) {
            let run = result.outcome.report().unwrap();
            assert_eq!(
                run.leaked(),
                expect_leak,
                "{}: NDroid verdict disagrees with spec ground truth",
                result.label
            );
        }
    }

    #[test]
    fn adversarial_jobs_score_perfectly() {
        let jobs = Adversarial.jobs(&SystemConfig::ndroid().quiet(true));
        let report = run_batch(jobs, BatchConfig::new(4));
        let score =
            ndroid_core::score::score_batch(&report, crate::adversarial::expected_leak);
        assert!(score.perfect(), "{}", score.render());
        assert_eq!(score.aggregate.recall(), 1.0);
        assert_eq!(score.aggregate.precision(), 1.0);
        assert_eq!(score.aggregate.total(), crate::adversarial::corpus().len());
    }

    #[test]
    fn forked_monkey_sessions_equal_fresh_boots() {
        // The fan-out determinism gate in miniature: the same sessions
        // driven from per-worker CoW forks and from fresh boots must
        // produce byte-identical batch reports.
        let cfg = SystemConfig::ndroid().quiet(true);
        let fresh = run_batch(Monkey::fresh(4, 30, 11).jobs(&cfg), BatchConfig::new(2));
        let forked = run_batch(Monkey::forked(4, 30, 11).jobs(&cfg), BatchConfig::new(2));
        assert_eq!(forked, fresh);
        assert_eq!(forked.render(), fresh.render());
    }

    #[test]
    fn monkey_sessions_complete() {
        let jobs = Monkey::fresh(3, 40, 7).jobs(&SystemConfig::ndroid().quiet(true));
        let report = run_batch(jobs, BatchConfig::new(2));
        assert_eq!(report.completed(), 3);
        assert_eq!(report.results[0].label, "monkey/session_000");
        // Every completed session reports through the unified RunReport.
        for r in &report.results {
            let run = r.outcome.report().unwrap();
            assert_eq!(run.mode, Mode::NDroid);
        }
    }

    #[test]
    fn sources_compose() {
        let cfg = SystemConfig::ndroid().quiet(true);
        // jobs_from concatenates sources in order, labels intact.
        let jobs = jobs_from(&[&Gallery, &Cases], &cfg);
        assert_eq!(jobs.len(), 9);
        assert_eq!(jobs[0].label, "gallery/qq_phonebook");
        assert_eq!(jobs[3].label, "case/case1");
    }
}
