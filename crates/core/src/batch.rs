//! The batch-analysis farm: runs a work list of analysis jobs across
//! worker threads and merges their results deterministically.
//!
//! The paper evaluates NDroid one app at a time inside a single QEMU
//! instance; the farm is what scales the reproduction to corpora. The
//! design constraints, in order:
//!
//! 1. **Determinism.** A [`BatchReport`] is byte-identical for the same
//!    job list regardless of worker count or scheduling order. Results
//!    are merged in submission order, and the report carries no worker
//!    count, timing, or other schedule-dependent data.
//! 2. **Panic isolation.** A job that panics is recorded as
//!    [`JobOutcome::Crashed`] and its worker takes the next job —
//!    one bad sample never loses a shard of the corpus.
//! 3. **No shared mutable analysis state.** Each job constructs its own
//!    [`crate::NDroidSystem`] inside its closure; workers share only
//!    the job list and the result rows.
//!
//! Jobs are `FnOnce` closures returning `Result<RunReport, EmuError>`,
//! so the farm never needs the app types themselves to be `Send` — the
//! closure builds everything on the worker thread. The error stays
//! typed up to the classifier, which tells a budget exhaustion from any
//! other failure by variant, never by its text. The thin front-end
//! in `ndroid-apps` (`farm` module) packages gallery apps, corpus
//! samples, and monkey-driver runs into [`JobSource`]s.
//!
//! The farm has one scheduler: [`run_batch`] starts `min(workers,
//! jobs)` scoped threads that each take the next `(index, job)` pair
//! from one shared, enumerated job list and write its outcome into
//! that index's row of a preallocated vector, so the merge is the
//! vector itself, already in submission order. Its reference is
//! [`run_inline`], a plain loop on the caller's thread that shares
//! only the outcome classifier with it: every farm gate checks a
//! threaded merge against it, as the reference engine checks the
//! optimized tracer.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Mutex, OnceLock};

use crate::config::SystemConfig;
use crate::report::RunReport;
pub use crate::report::{JobOutcome, JobResult};
use ndroid_emu::EmuError;
use ndroid_provenance::{ProvEvent, ProvQuery, QueryStats};

/// The closure type a job runs on its worker thread.
type JobFn = Box<dyn FnOnce() -> Result<RunReport, EmuError> + Send + 'static>;

/// One unit of work: a label (stable across runs, used as the merge
/// key's human-readable face) and the closure that builds a system,
/// runs it, and snapshots its [`RunReport`].
pub struct AnalysisJob {
    /// Stable human-readable identifier, e.g. `"gallery/qq_phonebook"`
    /// or `"corpus/sample_017"`.
    pub label: String,
    pub(crate) run: JobFn,
}

impl AnalysisJob {
    /// Wraps a closure as a job.
    pub fn new(
        label: impl Into<String>,
        run: impl FnOnce() -> Result<RunReport, EmuError> + Send + 'static,
    ) -> AnalysisJob {
        AnalysisJob { label: label.into(), run: Box::new(run) }
    }
}

impl std::fmt::Debug for AnalysisJob {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AnalysisJob").field("label", &self.label).finish_non_exhaustive()
    }
}

/// A named family of analysis jobs: what the farm ([`run_batch`] and
/// [`run_inline`] via [`jobs_from`]) consumes.
/// Implementations live where the workloads do — `ndroid-apps::farm`
/// provides `Gallery`, `Cases`, `CorpusShard`, `Adversarial`, and
/// `Monkey`.
pub trait JobSource {
    /// Stable source name (used in logs and labels).
    fn name(&self) -> &'static str;
    /// Materializes the source's jobs for `config`, in the source's
    /// pinned submission order.
    fn jobs(&self, config: &SystemConfig) -> Vec<AnalysisJob>;
}

/// Concatenates several sources' jobs in order — the canonical way to
/// assemble a mixed batch (`jobs_from(&[&Gallery, &CorpusShard{..}],
/// &config)`).
pub fn jobs_from(sources: &[&dyn JobSource], config: &SystemConfig) -> Vec<AnalysisJob> {
    sources.iter().flat_map(|s| s.jobs(config)).collect()
}

/// Farm tuning: the worker count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchConfig {
    /// Number of worker threads. `1` runs the whole list on one
    /// worker; `0` is clamped to `1` (both by [`BatchConfig::new`] and
    /// by [`run_batch`], so even a hand-rolled `BatchConfig { workers:
    /// 0 }` runs every job).
    pub workers: usize,
}

impl BatchConfig {
    /// A farm with `workers` threads (`0` clamps to `1`).
    pub fn new(workers: usize) -> BatchConfig {
        BatchConfig { workers: workers.max(1) }
    }
}

impl Default for BatchConfig {
    fn default() -> BatchConfig {
        BatchConfig::new(1)
    }
}

/// The deterministic merge of a batch run: one [`JobResult`] per
/// submitted job, in submission order. Deliberately carries no worker
/// count, schedule, or timing — `BatchReport`s from 1-worker and
/// N-worker runs of the same job list compare equal (and render to
/// byte-identical text).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct BatchReport {
    /// Per-job results in submission order.
    pub results: Vec<JobResult>,
}

impl BatchReport {
    /// Jobs that completed.
    pub fn completed(&self) -> usize {
        self.results.iter().filter(|r| matches!(r.outcome, JobOutcome::Completed(_))).count()
    }

    /// Jobs that returned an error.
    pub fn failed(&self) -> usize {
        self.results.iter().filter(|r| matches!(r.outcome, JobOutcome::Failed(_))).count()
    }

    /// Jobs that panicked.
    pub fn crashed(&self) -> usize {
        self.results.iter().filter(|r| matches!(r.outcome, JobOutcome::Crashed(_))).count()
    }

    /// Jobs that exhausted their guest instruction budget or
    /// interpreter fuel.
    pub fn deadlined(&self) -> usize {
        self.results.iter().filter(|r| matches!(r.outcome, JobOutcome::Deadline(_))).count()
    }

    /// Completed jobs whose report detected at least one leak.
    pub fn leaking(&self) -> usize {
        self.results
            .iter()
            .filter_map(|r| r.outcome.report())
            .filter(|rep| rep.leaked())
            .count()
    }

    /// Renders one line per job plus a summary footer. Schedule-free by
    /// construction, so this string is the byte-identity witness used
    /// by the determinism tests and the CI golden check.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for r in &self.results {
            match &r.outcome {
                JobOutcome::Completed(rep) => {
                    let leaks = rep.leaks();
                    let status = if leaks.is_empty() { "clean" } else { "LEAK" };
                    out.push_str(&format!(
                        "{:<32} {:<9} {:<10} {status:<6} leaks={} sinks={} violations={} insns={}\n",
                        r.label,
                        rep.mode.to_string(),
                        rep.engine.to_string(),
                        leaks.len(),
                        rep.sink_events.len(),
                        rep.violations.len(),
                        rep.native_insns,
                    ));
                }
                JobOutcome::Failed(e) => {
                    out.push_str(&format!("{:<32} FAILED {e}\n", r.label));
                }
                JobOutcome::Crashed(msg) => {
                    out.push_str(&format!("{:<32} CRASHED {msg}\n", r.label));
                }
                JobOutcome::Deadline(msg) => {
                    out.push_str(&format!("{:<32} DEADLINE {msg}\n", r.label));
                }
            }
        }
        out.push_str(&format!(
            "total={} completed={} failed={} crashed={} deadline={} leaking={}\n",
            self.results.len(),
            self.completed(),
            self.failed(),
            self.crashed(),
            self.deadlined(),
            self.leaking(),
        ));
        out
    }

    /// Runs a provenance query across every completed job that carries
    /// a frozen store, merging per-job hits **by submission order**
    /// (the job index is part of every hit, sequence numbers stay
    /// per-run). Because the `BatchReport` itself is schedule-free,
    /// the merged result — and its rendering — is byte-identical at
    /// any worker count; jobs without a store (`Off` runs, failures)
    /// contribute nothing.
    pub fn query(&self, query: &ProvQuery) -> BatchQueryResult {
        let mut hits = Vec::new();
        let mut stats = QueryStats::default();
        for (job, r) in self.results.iter().enumerate() {
            let Some(store) = r.outcome.report().and_then(|rep| rep.provenance_store.as_ref())
            else {
                continue;
            };
            let result = query.run(store);
            stats = stats.merged(result.stats);
            hits.extend(result.hits.into_iter().map(|hit| BatchQueryHit {
                job,
                label: r.label.clone(),
                seq: hit.seq,
                event: hit.event,
            }));
        }
        BatchQueryResult { hits, stats }
    }
}

/// One query hit from a batch-wide query: which job (submission
/// index + label) and where in that run's stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchQueryHit {
    /// Submission index of the job within the batch.
    pub job: usize,
    /// The job's label as submitted.
    pub label: String,
    /// Sequence number within that job's recorded stream.
    pub seq: u64,
    /// The matching event.
    pub event: ProvEvent,
}

/// The merged hits and aggregated segment accounting of one
/// [`BatchReport::query`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchQueryResult {
    /// Hits in (submission order, sequence) order.
    pub hits: Vec<BatchQueryHit>,
    /// Segment skip/decode accounting summed across jobs.
    pub stats: QueryStats,
}

impl BatchQueryResult {
    /// Deterministic rendering — one `<label> seq N: <canonical>` line
    /// per hit plus the aggregated stats footer; the byte-identity
    /// witness for the cross-run query gates.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for hit in &self.hits {
            out.push_str(&format!(
                "{} seq {}: {}\n",
                hit.label,
                hit.seq,
                hit.event.canonical()
            ));
        }
        out.push_str(&format!(
            "-- segments {} decoded {} skipped {}\n",
            self.stats.segments, self.stats.decoded, self.stats.skipped
        ));
        out
    }
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs one job closure under `catch_unwind` and classifies the result.
/// The farm's only outcome classifier, run by [`run_batch`]'s workers
/// and by [`run_inline`]. An error is a [`JobOutcome::Deadline`] when
/// [`EmuError::is_budget_exhausted`] says so and a
/// [`JobOutcome::Failed`] otherwise; its text is rendered only here.
pub(crate) fn execute_outcome(run: JobFn) -> JobOutcome {
    match catch_unwind(AssertUnwindSafe(run)) {
        Ok(Ok(report)) => JobOutcome::Completed(report),
        Ok(Err(e)) if e.is_budget_exhausted() => JobOutcome::Deadline(e.to_string()),
        Ok(Err(e)) => JobOutcome::Failed(e.to_string()),
        Err(payload) => JobOutcome::Crashed(panic_message(payload)),
    }
}

/// Runs every job and merges the outcomes into a [`BatchReport`].
///
/// `min(workers, jobs)` scoped threads (at least one) each take the
/// next unstarted job in submission order and write its outcome into
/// that job's row, so the rows are the merge. Each job runs under
/// `catch_unwind`, so a panicking job becomes [`JobOutcome::Crashed`]
/// and its worker moves on. The result equals [`run_inline`] over the
/// same jobs at any worker count.
pub fn run_batch(jobs: Vec<AnalysisJob>, config: BatchConfig) -> BatchReport {
    let workers = config.workers.min(jobs.len()).max(1);
    let rows: Vec<OnceLock<JobResult>> = jobs.iter().map(|_| OnceLock::new()).collect();
    let pending = Mutex::new(jobs.into_iter().enumerate());
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                let Some((i, job)) = pending.lock().unwrap().next() else { break };
                let row = JobResult { label: job.label, outcome: execute_outcome(job.run) };
                assert!(rows[i].set(row).is_ok(), "each index is handed out once");
            });
        }
    });
    let results = rows.into_iter().map(|row| row.into_inner().expect("every job ran")).collect();
    BatchReport { results }
}

/// The farm's reference: runs every job on the caller's thread, one
/// after another, and merges the outcomes in submission order. No
/// threads or shared rows — only the outcome classifier is shared with
/// [`run_batch`], so its merge is checked against a loop that cannot
/// share a scheduling or merge bug.
pub fn run_inline(jobs: Vec<AnalysisJob>) -> BatchReport {
    let results = jobs
        .into_iter()
        .map(|job| JobResult { label: job.label, outcome: execute_outcome(job.run) })
        .collect();
    BatchReport { results }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EngineKind;
    use crate::system::Mode;

    fn fake_report(insns: u64) -> RunReport {
        RunReport {
            mode: Mode::NDroid,
            engine: EngineKind::Optimized,
            sink_events: Vec::new(),
            network_log: Vec::new(),
            violations: Vec::new(),
            stats: None,
            native_insns: insns,
            bytecodes: 0,
            provenance: None,
            provenance_store: None,
        }
    }

    fn job_list() -> Vec<AnalysisJob> {
        (0..13u64)
            .map(|i| {
                AnalysisJob::new(format!("job_{i:02}"), move || match i % 5 {
                    3 => Err(EmuError::Kernel(format!("job {i} failed"))),
                    4 => panic!("deterministic boom"),
                    _ => Ok(fake_report(i * 100)),
                })
            })
            .collect()
    }

    #[test]
    fn merge_is_submission_ordered_and_schedule_free() {
        let inline = run_inline(job_list());
        let one = run_batch(job_list(), BatchConfig::new(1));
        let four = run_batch(job_list(), BatchConfig::new(4));
        let many = run_batch(job_list(), BatchConfig::new(32));
        assert_eq!(inline, one);
        assert_eq!(inline, four);
        assert_eq!(inline, many);
        assert_eq!(inline.render(), four.render());
        assert_eq!(inline.results.len(), 13);
        assert_eq!(inline.results[0].label, "job_00");
        assert_eq!(inline.results[12].label, "job_12");
    }

    #[test]
    fn panics_become_crashed_not_lost_workers() {
        let report = run_batch(job_list(), BatchConfig::new(2));
        assert_eq!(report.crashed(), 2); // jobs 4 and 9
        assert_eq!(report.failed(), 2); // jobs 3 and 8
        assert_eq!(report.completed(), 13 - 2 - 2);
        assert!(matches!(
            report.results[4].outcome,
            JobOutcome::Crashed(ref m) if m == "deterministic boom"
        ));
        assert!(matches!(report.results[3].outcome, JobOutcome::Failed(_)));
    }

    #[test]
    fn empty_batch_and_zero_workers() {
        let report = run_batch(Vec::new(), BatchConfig::new(0));
        assert!(report.results.is_empty());
        assert_eq!(
            report.render(),
            "total=0 completed=0 failed=0 crashed=0 deadline=0 leaking=0\n"
        );
    }

    /// Regression: a zero-worker config — whether built through the
    /// clamping constructor or as a bare struct literal — must still
    /// run a non-empty job list to completion rather than spawning
    /// zero workers and hanging the merge.
    #[test]
    fn zero_workers_with_jobs_completes() {
        assert_eq!(BatchConfig::new(0).workers, 1);
        let clamped = run_batch(job_list(), BatchConfig::new(0));
        assert_eq!(clamped.results.len(), 13);
        // The literal bypasses `new`'s clamp; `run_batch` re-clamps.
        let literal = run_batch(job_list(), BatchConfig { workers: 0 });
        assert_eq!(literal, clamped);
        assert_eq!(literal.render(), clamped.render());
    }

    /// A budget-exhaustion error (`EmuError::Timeout` or
    /// `DvmError::OutOfFuel`) classifies as `Deadline`, not `Failed` —
    /// identically at any worker count, so the merge contract holds for
    /// budget-capped jobs too.
    #[test]
    fn budget_exhaustion_classifies_as_deadline() {
        use ndroid_dvm::DvmError;

        let jobs = || {
            vec![
                AnalysisJob::new("ok", || Ok(fake_report(1))),
                AnalysisJob::new("budget", || Err(EmuError::Timeout)),
                AnalysisJob::new("fuel", || Err(EmuError::Dvm(DvmError::OutOfFuel))),
                AnalysisJob::new("other", || Err(EmuError::Kernel("plain failure".into()))),
            ]
        };
        let one = run_batch(jobs(), BatchConfig::new(1));
        let four = run_batch(jobs(), BatchConfig::new(4));
        assert_eq!(one, four);
        assert_eq!(one, run_inline(jobs()));
        assert_eq!(one.deadlined(), 2);
        assert_eq!(one.failed(), 1);
        assert_eq!(one.completed(), 1);
        assert!(matches!(one.results[1].outcome, JobOutcome::Deadline(_)));
        assert!(matches!(one.results[2].outcome, JobOutcome::Deadline(_)));
        assert!(matches!(one.results[3].outcome, JobOutcome::Failed(_)));
        assert!(one.render().contains("DEADLINE"));
    }

    #[test]
    fn job_sources_concatenate_in_order() {
        struct Fake(&'static str, usize);
        impl JobSource for Fake {
            fn name(&self) -> &'static str {
                self.0
            }
            fn jobs(&self, _config: &SystemConfig) -> Vec<AnalysisJob> {
                let name = self.0;
                (0..self.1)
                    .map(|i| {
                        AnalysisJob::new(format!("{name}/{i}"), move || {
                            Ok(fake_report(i as u64))
                        })
                    })
                    .collect()
            }
        }
        let cfg = SystemConfig::ndroid();
        let b = Fake("b", 1);
        assert_eq!(b.name(), "b");
        let jobs = jobs_from(&[&Fake("a", 2), &b], &cfg);
        let labels: Vec<&str> = jobs.iter().map(|j| j.label.as_str()).collect();
        assert_eq!(labels, ["a/0", "a/1", "b/0"]);
    }
}
