//! The resident analysis service: the farm's one scheduler, a job queue
//! over resident worker threads.
//!
//! [`crate::batch::run_batch`] is a short-lived service: it starts one
//! with a slot per job, submits a fixed list, and returns the
//! `shutdown()` merge. Kept resident, the [`AnalysisService`] is a
//! server:
//!
//! * **Open submission.** [`AnalysisService::submit`] accepts jobs
//!   while workers run. The queue is bounded ([`ServiceConfig::capacity`]
//!   job slots); `submit` blocks for a free slot (backpressure).
//! * **Deadlines and budgets.** A job's deterministic guest-instruction
//!   budget ([`crate::SystemConfig::budget`]) classifies as
//!   [`JobOutcome::Deadline`]. On top, the service enforces a
//!   *wall-clock* deadline
//!   ([`crate::batch::JobBuilder::deadline`], measured from
//!   submission): preemption is between jobs — a job whose deadline
//!   expired while queued is marked `Deadline` without ever running,
//!   so one slow bulk job can never be killed mid-run but an expired
//!   backlog is shed in O(1) per job. `run_batch` clears deadlines, so
//!   its merge stays schedule-free.
//! * **Priority lanes.** [`Lane::Interactive`] dequeues strictly ahead
//!   of [`Lane::Bulk`], except that after
//!   [`ServiceConfig::bulk_age_limit`] consecutive interactive
//!   dequeues while bulk work waited, the bulk head runs — bulk
//!   progress is guaranteed (starvation-proof aging) while interactive
//!   latency stays within one bulk-job granularity of idle.
//! * **Bounded memory via slot recycling.** Submission installs the job
//!   in one of `capacity` pre-allocated slots; the slot is recycled the
//!   moment a worker lifts the closure out, so the set of queued-but-
//!   unstarted closures (the heavy part: boxed app constructors,
//!   configs, specs) never exceeds `capacity`. Workers are resident
//!   threads, so per-worker warm state — e.g. the thread-local
//!   [`crate::Snapshot`] keyed by [`crate::SystemConfig`] that
//!   `ndroid-apps::farm::Monkey { fork: true }` jobs maintain —
//!   survives across jobs, batches, and drains (for `run_batch`, across
//!   the jobs of one call).
//! * **Streaming results.** [`AnalysisService::recv_result`] yields
//!   [`ServiceResult`]s in completion order as jobs finish;
//!   [`AnalysisService::drain`] waits for the queue to empty and merges
//!   every not-yet-consumed result in submission order into a
//!   [`BatchReport`] that is **byte-identical** to
//!   [`crate::batch::run_batch`] over the same jobs in the same order —
//!   every offline golden gate doubles as a service gate.
//!
//! The determinism contract works because there is one worker loop and
//! one outcome classifier (`crate::batch::execute_outcome`): scheduling
//! decides only *when* a job runs, and a [`crate::RunReport`] is a pure
//! function of the job.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use crate::batch::{execute_outcome, AnalysisJob, BatchReport, JobSource, Lane};
use crate::config::SystemConfig;
use crate::report::{JobOutcome, JobResult};

/// Tuning for one [`AnalysisService`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceConfig {
    /// Resident worker threads (`0` clamps to `1`).
    pub workers: usize,
    /// Job slots: the maximum number of submitted-but-unstarted jobs.
    /// [`AnalysisService::submit`] blocks while all slots are occupied.
    /// `0` clamps to `1`.
    pub capacity: usize,
    /// Aging knob for the bulk lane: after this many consecutive
    /// interactive dequeues while bulk work waited, the bulk head is
    /// served regardless of interactive backlog. `0` clamps to `1`.
    pub bulk_age_limit: usize,
}

impl ServiceConfig {
    /// A service with `workers` resident threads and the default
    /// capacity (64 slots) and bulk aging (4 interactive dequeues).
    pub fn new(workers: usize) -> ServiceConfig {
        ServiceConfig { workers: workers.max(1), capacity: 64, bulk_age_limit: 4 }
    }

    /// Sets the queue capacity (job slots).
    #[must_use]
    pub fn capacity(mut self, capacity: usize) -> ServiceConfig {
        self.capacity = capacity.max(1);
        self
    }

    /// Sets the bulk-lane aging limit.
    #[must_use]
    pub fn bulk_age_limit(mut self, limit: usize) -> ServiceConfig {
        self.bulk_age_limit = limit.max(1);
        self
    }
}

impl Default for ServiceConfig {
    fn default() -> ServiceConfig {
        ServiceConfig::new(1)
    }
}

/// Receipt for one accepted submission.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobTicket {
    /// Global submission sequence number — the position this job's
    /// result occupies in [`AnalysisService::drain`]'s merge.
    pub seq: u64,
    /// The job's label.
    pub label: String,
    /// The lane the job was queued in.
    pub lane: Lane,
}

/// Why a submission was not accepted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// The service has been closed; no further work is accepted.
    ShutDown,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::ShutDown => write!(f, "service is shut down"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// One finished job, streamed in completion order by
/// [`AnalysisService::recv_result`]. Richer than the offline
/// [`JobResult`] row (lane, queue latency) — [`AnalysisService::drain`]
/// discards the schedule-dependent extras so its merge stays
/// byte-identical to the offline mode.
#[derive(Debug, Clone)]
pub struct ServiceResult {
    /// The submission sequence number (matches the [`JobTicket`]).
    pub seq: u64,
    /// The job's label.
    pub label: String,
    /// The lane the job rode.
    pub lane: Lane,
    /// How long the job waited between submission and dequeue.
    pub waited: Duration,
    /// What happened.
    pub outcome: JobOutcome,
}

impl ServiceResult {
    /// The offline-merge row for this result (label + outcome only).
    pub fn into_job_result(self) -> JobResult {
        JobResult { label: self.label, outcome: self.outcome }
    }
}

/// One occupied job slot: everything submit installs and a worker
/// lifts back out. The `Vec<Option<Slot>>` arena plus a free list is
/// the recycling pool — no allocation per admission beyond the job the
/// caller already built.
struct Slot {
    seq: u64,
    submitted: Instant,
    deadline: Option<Instant>,
    job: AnalysisJob,
}

/// Mutable service state, under one mutex.
struct State {
    /// The slot arena (`capacity` entries).
    slots: Vec<Option<Slot>>,
    /// Indexes of free slots.
    free: Vec<usize>,
    /// Queued slot indexes, per lane, FIFO.
    interactive: VecDeque<usize>,
    bulk: VecDeque<usize>,
    /// Consecutive interactive dequeues while bulk work waited.
    interactive_streak: usize,
    /// Jobs currently executing on workers.
    running: usize,
    /// Next submission sequence number.
    next_seq: u64,
    /// Finished, not-yet-consumed results, completion-ordered.
    done: VecDeque<ServiceResult>,
    /// No further submissions; workers exit once the lanes drain.
    closed: bool,
}

impl State {
    /// Picks the next queued slot index under strict priority with
    /// aging: interactive first, unless bulk has waited through
    /// `age_limit` consecutive interactive dequeues.
    fn pick(&mut self, age_limit: usize) -> Option<usize> {
        let bulk_waiting = !self.bulk.is_empty();
        if !self.interactive.is_empty()
            && (!bulk_waiting || self.interactive_streak < age_limit)
        {
            if bulk_waiting {
                self.interactive_streak += 1;
            } else {
                self.interactive_streak = 0;
            }
            self.interactive.pop_front()
        } else if bulk_waiting {
            self.interactive_streak = 0;
            self.bulk.pop_front()
        } else {
            None
        }
    }

    fn queued(&self) -> usize {
        self.interactive.len() + self.bulk.len()
    }
}

/// Shared service internals: the state plus the four wait conditions.
struct Inner {
    cfg: ServiceConfig,
    state: Mutex<State>,
    /// Signaled when a slot frees (submitters wait here).
    slot_freed: Condvar,
    /// Signaled when work is queued or the service closes (workers).
    work_ready: Condvar,
    /// Signaled when a result finishes (streaming consumers).
    result_ready: Condvar,
    /// Signaled when the last admitted job finishes (drain).
    idle: Condvar,
}

impl Inner {
    /// Lifts the next queued slot, blocking while the service is open
    /// but idle; `None` once it is closed and the lanes are empty.
    fn next_slot(&self) -> Option<Slot> {
        let mut state = self.state.lock().unwrap();
        loop {
            if let Some(idx) = state.pick(self.cfg.bulk_age_limit) {
                let slot = state.slots[idx]
                    .take()
                    .expect("queued slot index points at an occupied slot");
                // Recycle the slot immediately: admission capacity
                // bounds *queued* closures, and a freed slot readmits a
                // blocked submitter before this job even starts.
                state.free.push(idx);
                state.running += 1;
                drop(state);
                self.slot_freed.notify_one();
                return Some(slot);
            }
            if state.closed {
                return None;
            }
            state = self.work_ready.wait(state).unwrap();
        }
    }

    /// Delivers a finished job to the result stream.
    fn complete(&self, result: ServiceResult) {
        let mut state = self.state.lock().unwrap();
        state.running -= 1;
        state.done.push_back(result);
        let idle = state.running == 0 && state.queued() == 0;
        drop(state);
        self.result_ready.notify_all();
        if idle {
            self.idle.notify_all();
        }
    }
}

/// A resident worker: lift a slot, run it under panic isolation (or
/// record its expired deadline), push the result; exit once the service
/// is closed and drained.
fn worker_loop(inner: &Inner) {
    while let Some(slot) = inner.next_slot() {
        let now = Instant::now();
        let outcome = match slot.deadline {
            // The message is deliberately free of wall-clock data so a
            // drained report stays stable across runs.
            Some(d) if now >= d => {
                JobOutcome::Deadline("wall-clock deadline expired while queued".to_string())
            }
            _ => execute_outcome(slot.job.run),
        };
        inner.complete(ServiceResult {
            seq: slot.seq,
            label: slot.job.label,
            lane: slot.job.lane,
            waited: now.duration_since(slot.submitted),
            outcome,
        });
    }
}

/// The resident analysis service. Start one with
/// [`AnalysisService::start`]; workers live until
/// [`AnalysisService::shutdown`] (or drop).
///
/// ```ignore
/// let service = AnalysisService::start(ServiceConfig::new(4).capacity(128));
/// let ticket = service.submit(job)?;
/// while let Some(result) = service.recv_result() { /* stream */ }
/// let report = service.shutdown(); // offline-identical merge
/// ```
pub struct AnalysisService {
    inner: Arc<Inner>,
    workers: Vec<JoinHandle<()>>,
}

impl AnalysisService {
    /// Boots the service: spawns `config.workers` resident worker
    /// threads over an empty queue.
    pub fn start(config: ServiceConfig) -> AnalysisService {
        let workers_n = config.workers.max(1);
        let capacity = config.capacity.max(1);
        let cfg = ServiceConfig {
            workers: workers_n,
            capacity,
            bulk_age_limit: config.bulk_age_limit.max(1),
        };
        let inner = Arc::new(Inner {
            cfg,
            state: Mutex::new(State {
                slots: (0..capacity).map(|_| None).collect(),
                free: (0..capacity).rev().collect(),
                interactive: VecDeque::new(),
                bulk: VecDeque::new(),
                interactive_streak: 0,
                running: 0,
                next_seq: 0,
                done: VecDeque::new(),
                closed: false,
            }),
            slot_freed: Condvar::new(),
            work_ready: Condvar::new(),
            result_ready: Condvar::new(),
            idle: Condvar::new(),
        });
        let workers = (0..workers_n)
            .map(|me| {
                let inner = Arc::clone(&inner);
                thread::Builder::new()
                    .name(format!("ndroid-service-{me}"))
                    .spawn(move || worker_loop(&inner))
                    .expect("spawn service worker")
            })
            .collect();
        AnalysisService { inner, workers }
    }

    /// Submits a job, blocking while every slot is occupied
    /// (backpressure). The job's [`Lane`] and deadline come from the
    /// job itself ([`AnalysisJob::builder`]).
    ///
    /// # Errors
    ///
    /// [`SubmitError::ShutDown`] after [`AnalysisService::close`].
    pub fn submit(&self, job: AnalysisJob) -> Result<JobTicket, SubmitError> {
        let mut state = self.inner.state.lock().unwrap();
        loop {
            if state.closed {
                return Err(SubmitError::ShutDown);
            }
            if let Some(idx) = state.free.pop() {
                return Ok(self.admit(state, idx, job));
            }
            state = self.inner.slot_freed.wait(state).unwrap();
        }
    }

    /// Installs `job` in slot `idx` and wakes a worker. Caller holds
    /// the state lock and has already popped `idx` off the free list.
    fn admit(
        &self,
        mut state: std::sync::MutexGuard<'_, State>,
        idx: usize,
        job: AnalysisJob,
    ) -> JobTicket {
        let seq = state.next_seq;
        state.next_seq += 1;
        let now = Instant::now();
        let ticket = JobTicket { seq, label: job.label.clone(), lane: job.lane };
        match job.lane {
            Lane::Interactive => state.interactive.push_back(idx),
            Lane::Bulk => state.bulk.push_back(idx),
        }
        state.slots[idx] =
            Some(Slot { seq, submitted: now, deadline: job.deadline.map(|d| now + d), job });
        drop(state);
        self.inner.work_ready.notify_one();
        ticket
    }

    /// Submits every job a [`JobSource`] yields for `config`, in source
    /// order, all riding `lane`. Blocks for slots as needed
    /// (backpressure applies per job), so a source larger than the
    /// queue capacity streams through rather than failing.
    ///
    /// # Errors
    ///
    /// [`SubmitError::ShutDown`] if the service closes mid-stream
    /// (tickets already issued stay valid).
    pub fn submit_source(
        &self,
        source: &dyn JobSource,
        config: &SystemConfig,
        lane: Lane,
    ) -> Result<Vec<JobTicket>, SubmitError> {
        let mut tickets = Vec::new();
        for mut job in source.jobs(config) {
            job.lane = lane;
            tickets.push(self.submit(job)?);
        }
        Ok(tickets)
    }

    /// The next finished result, in completion order — blocks while
    /// the service is open but idle. Returns `None` once the service
    /// is closed and every result has been consumed.
    pub fn recv_result(&self) -> Option<ServiceResult> {
        let mut state = self.inner.state.lock().unwrap();
        loop {
            if let Some(r) = state.done.pop_front() {
                return Some(r);
            }
            if state.closed && state.running == 0 && state.queued() == 0 {
                return None;
            }
            state = self.inner.result_ready.wait(state).unwrap();
        }
    }

    /// Streaming iterator over results in completion order; ends when
    /// the service is closed and drained (see
    /// [`AnalysisService::recv_result`]).
    pub fn results(&self) -> Results<'_> {
        Results { service: self }
    }

    /// Jobs admitted but not yet finished (queued + running).
    pub fn in_flight(&self) -> usize {
        let state = self.inner.state.lock().unwrap();
        state.queued() + state.running
    }

    /// Waits until every admitted job has finished, then merges every
    /// result **not already consumed** by
    /// [`AnalysisService::recv_result`] in submission order. For a
    /// service used in drain mode (no streaming consumption), the
    /// returned [`BatchReport`] — fields and rendering — is
    /// byte-identical to [`crate::batch::run_batch`] over the same
    /// jobs in submission order, at any worker count.
    ///
    /// Submissions racing a `drain` land in either this report or the
    /// next one, depending on whether they were admitted before the
    /// queue emptied.
    pub fn drain(&self) -> BatchReport {
        let mut state = self.inner.state.lock().unwrap();
        while state.running > 0 || state.queued() > 0 {
            state = self.inner.idle.wait(state).unwrap();
        }
        let mut rows: Vec<ServiceResult> = state.done.drain(..).collect();
        drop(state);
        rows.sort_by_key(|r| r.seq);
        BatchReport { results: rows.into_iter().map(ServiceResult::into_job_result).collect() }
    }

    /// Closes the queue: future submissions fail with
    /// [`SubmitError::ShutDown`]; already-admitted jobs still run.
    pub fn close(&self) {
        let mut state = self.inner.state.lock().unwrap();
        state.closed = true;
        drop(state);
        self.inner.work_ready.notify_all();
        self.inner.slot_freed.notify_all();
        self.inner.result_ready.notify_all();
    }

    /// Closes, drains, joins the workers, and returns the final merged
    /// report (everything not consumed by streaming).
    pub fn shutdown(mut self) -> BatchReport {
        self.close();
        let report = self.drain();
        for h in self.workers.drain(..) {
            h.join().expect("service worker panicked outside a job");
        }
        report
    }

    /// The effective (clamped) configuration.
    pub fn config(&self) -> ServiceConfig {
        self.inner.cfg
    }
}

impl Drop for AnalysisService {
    fn drop(&mut self) {
        self.close();
        for h in self.workers.drain(..) {
            // Job panics are caught, so a failed join is a worker-loop
            // bug.
            h.join().expect("service worker panicked outside a job");
        }
    }
}

impl std::fmt::Debug for AnalysisService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AnalysisService")
            .field("config", &self.inner.cfg)
            .field("in_flight", &self.in_flight())
            .finish()
    }
}

/// Streaming result iterator — see [`AnalysisService::results`].
pub struct Results<'a> {
    service: &'a AnalysisService,
}

impl Iterator for Results<'_> {
    type Item = ServiceResult;
    fn next(&mut self) -> Option<ServiceResult> {
        self.service.recv_result()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EngineKind;
    use crate::system::Mode;
    use crate::RunReport;

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

    fn ok_job(label: &str, insns: u64) -> AnalysisJob {
        AnalysisJob::new(label, move || Ok(fake_report(insns)))
    }

    /// A job that signals when it starts and blocks its worker until
    /// the returned sender fires. `started.recv()` is how tests pin a
    /// worker before queueing more work behind it.
    fn gate_job(
        label: &str,
    ) -> (AnalysisJob, std::sync::mpsc::Sender<()>, std::sync::mpsc::Receiver<()>) {
        let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
        let (started_tx, started_rx) = std::sync::mpsc::channel::<()>();
        let job = AnalysisJob::new(label, move || {
            started_tx.send(()).ok();
            release_rx.recv().ok();
            Ok(fake_report(0))
        });
        (job, release_tx, started_rx)
    }

    #[test]
    fn zero_workers_and_capacity_clamp_to_one() {
        let service = AnalysisService::start(
            ServiceConfig { workers: 0, capacity: 0, bulk_age_limit: 0 },
        );
        assert_eq!(service.config().workers, 1);
        assert_eq!(service.config().capacity, 1);
        assert_eq!(service.config().bulk_age_limit, 1);
        service.submit(ok_job("only", 7)).unwrap();
        let report = service.shutdown();
        assert_eq!(report.completed(), 1);
        assert_eq!(report.results[0].label, "only");
    }

    #[test]
    fn submit_while_running_streams_results() {
        let service = AnalysisService::start(ServiceConfig::new(2).capacity(8));
        for i in 0..6 {
            service.submit(ok_job(&format!("job_{i}"), i)).unwrap();
        }
        let mut seen: Vec<u64> = (0..6).map(|_| service.recv_result().unwrap().seq).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..6).collect::<Vec<_>>());
        // More work after the first wave: the service stayed resident.
        let t = service.submit(ok_job("late", 99)).unwrap();
        assert_eq!(t.seq, 6);
        let late = service.recv_result().unwrap();
        assert_eq!(late.label, "late");
        assert!(matches!(late.outcome, JobOutcome::Completed(_)));
        assert_eq!(service.shutdown().results.len(), 0);
    }

    #[test]
    fn submit_backpressure_and_slot_recycling() {
        // One worker pinned by a gate job; capacity 2 fills with the
        // two queued jobs behind it.
        let service = AnalysisService::start(ServiceConfig::new(1).capacity(2));
        let (gate, release, started) = gate_job("gate");
        service.submit(gate).unwrap();
        // Once the gate is running, its slot has been recycled and the
        // single worker is pinned; fill both slots behind it.
        started.recv().unwrap();
        service.submit(ok_job("q0", 0)).unwrap();
        service.submit(ok_job("q1", 1)).unwrap();
        thread::scope(|s| {
            let (admitted_tx, admitted) = std::sync::mpsc::channel();
            let service = &service;
            s.spawn(move || admitted_tx.send(service.submit(ok_job("q2", 2)).unwrap()).unwrap());
            // Both slots are full: the third submit blocks.
            assert!(admitted.recv_timeout(Duration::from_millis(50)).is_err());
            assert_eq!(service.in_flight(), 3, "gate running + q0, q1 queued");
            release.send(()).unwrap();
            // Slots recycle as the worker drains; the blocked job gets in.
            assert_eq!(admitted.recv().unwrap().seq, 3);
        });
        let report = service.shutdown();
        assert_eq!(report.completed(), 4);
        let labels: Vec<&str> = report.results.iter().map(|r| r.label.as_str()).collect();
        assert_eq!(labels, ["gate", "q0", "q1", "q2"]);
    }

    #[test]
    fn interactive_lane_jumps_queued_bulk() {
        let service = AnalysisService::start(ServiceConfig::new(1).capacity(8));
        let (gate, release, started) = gate_job("gate");
        service.submit(gate).unwrap();
        started.recv().unwrap();
        // Queue bulk first, then interactive; with one worker the
        // completion order is fully determined by the lane policy.
        for i in 0..2 {
            service
                .submit(AnalysisJob::builder(format!("bulk_{i}")).run(move || Ok(fake_report(i))))
                .unwrap();
        }
        for i in 0..2 {
            service
                .submit(
                    AnalysisJob::builder(format!("int_{i}"))
                        .lane(Lane::Interactive)
                        .run(move || Ok(fake_report(i))),
                )
                .unwrap();
        }
        release.send(()).unwrap();
        let order: Vec<String> = (0..5).map(|_| service.recv_result().unwrap().label).collect();
        assert_eq!(order, ["gate", "int_0", "int_1", "bulk_0", "bulk_1"]);
        // The drained report is nevertheless submission-ordered.
        let service2 = AnalysisService::start(ServiceConfig::new(1).capacity(8));
        let (gate, release, started) = gate_job("gate");
        service2.submit(gate).unwrap();
        started.recv().unwrap();
        for i in 0..2 {
            service2
                .submit(AnalysisJob::builder(format!("bulk_{i}")).run(move || Ok(fake_report(i))))
                .unwrap();
        }
        for i in 0..2 {
            service2
                .submit(
                    AnalysisJob::builder(format!("int_{i}"))
                        .lane(Lane::Interactive)
                        .run(move || Ok(fake_report(i))),
                )
                .unwrap();
        }
        release.send(()).unwrap();
        let report = service2.shutdown();
        let labels: Vec<&str> = report.results.iter().map(|r| r.label.as_str()).collect();
        assert_eq!(labels, ["gate", "bulk_0", "bulk_1", "int_0", "int_1"]);
    }

    #[test]
    fn bulk_aging_prevents_starvation() {
        // Exercise the picker directly: with age limit 2 and a full
        // interactive queue, bulk is served every third dequeue.
        let mut state = State {
            slots: Vec::new(),
            free: Vec::new(),
            interactive: (0..6).collect(),
            bulk: (10..12).collect(),
            interactive_streak: 0,
            running: 0,
            next_seq: 0,
            done: VecDeque::new(),
            closed: false,
        };
        let mut order = Vec::new();
        while let Some(idx) = state.pick(2) {
            order.push(idx);
        }
        assert_eq!(order, [0, 1, 10, 2, 3, 11, 4, 5]);
    }

    #[test]
    fn expired_deadline_preempts_before_start() {
        let service = AnalysisService::start(ServiceConfig::new(1).capacity(4));
        let (gate, release, started) = gate_job("gate");
        service.submit(gate).unwrap();
        started.recv().unwrap();
        // Deadline ZERO: expired the moment it can be dequeued.
        service
            .submit(
                AnalysisJob::builder("doomed")
                    .deadline(Duration::ZERO)
                    .run(|| panic!("must never run")),
            )
            .unwrap();
        service.submit(ok_job("after", 1)).unwrap();
        release.send(()).unwrap();
        let report = service.shutdown();
        assert_eq!(report.results.len(), 3);
        assert!(matches!(
            &report.results[1].outcome,
            JobOutcome::Deadline(m) if m.contains("wall-clock deadline expired")
        ));
        // The recycled slot behind the deadline job is uncorrupted.
        assert_eq!(report.results[2].label, "after");
        assert!(matches!(report.results[2].outcome, JobOutcome::Completed(_)));
        assert_eq!(report.deadlined(), 1);
    }

    #[test]
    fn submit_after_close_fails() {
        let service = AnalysisService::start(ServiceConfig::new(1));
        service.close();
        let err = service.submit(ok_job("x", 0)).unwrap_err();
        assert_eq!(err, SubmitError::ShutDown);
        assert_eq!(err.to_string(), "service is shut down");
        assert!(service.recv_result().is_none());
    }

    #[test]
    fn results_iterator_ends_at_shutdown() {
        let service = AnalysisService::start(ServiceConfig::new(2).capacity(8));
        for i in 0..5 {
            service.submit(ok_job(&format!("j{i}"), i)).unwrap();
        }
        service.close();
        let mut labels: Vec<String> = service.results().map(|r| r.label).collect();
        labels.sort();
        assert_eq!(labels, ["j0", "j1", "j2", "j3", "j4"]);
    }
}
