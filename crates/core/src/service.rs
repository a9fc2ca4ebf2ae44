//! The resident analysis service: the farm's one scheduler, a bounded
//! FIFO job queue over resident worker threads.
//!
//! [`crate::batch::run_batch`] is a short-lived service: it starts one
//! with room to queue every job, submits a fixed list, and returns the
//! `shutdown()` merge. Kept resident, the [`AnalysisService`] is a
//! server:
//!
//! * **Open submission, bounded queue.** [`AnalysisService::submit`]
//!   accepts jobs while workers run, and blocks while
//!   [`ServiceConfig::capacity`] submitted jobs are still waiting to
//!   start (backpressure). A job leaves the queue the moment a worker
//!   lifts it, so the queued-but-unstarted closures (the heavy part:
//!   boxed app constructors, configs, specs) never exceed `capacity`.
//! * **One policy: FIFO.** Workers start jobs in submission order. A
//!   job's deterministic guest-instruction budget
//!   ([`crate::SystemConfig::budget`]) classifies as
//!   [`JobOutcome::Deadline`]; nothing is preempted on host time.
//! * **Resident workers.** Per-worker warm state — e.g. the
//!   thread-local [`crate::Snapshot`] keyed by [`crate::SystemConfig`]
//!   that `ndroid-apps::farm::Monkey { fork: true }` jobs maintain —
//!   survives across jobs, batches, and drains (for `run_batch`, across
//!   the jobs of one call).
//! * **Streaming results.** [`AnalysisService::recv_result`] yields
//!   [`ServiceResult`]s in completion order as jobs finish;
//!   [`AnalysisService::drain`] waits for the queue to empty and merges
//!   every not-yet-consumed result in submission order into a
//!   [`BatchReport`].
//!
//! The determinism contract: a drained [`BatchReport`] equals
//! [`crate::batch::run_inline`] over the same jobs in submission order,
//! at any worker count. Scheduling decides only *when* a job runs, the
//! outcome classifier (`crate::batch::execute_outcome`) is shared, and
//! a [`crate::RunReport`] is a pure function of the job. `run_inline`
//! shares nothing else with this module, so the farm gates compare
//! against it.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::{self, JoinHandle};

use crate::batch::{execute_outcome, AnalysisJob, BatchReport};
use crate::report::{JobOutcome, JobResult};

/// Tuning for one [`AnalysisService`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceConfig {
    /// Resident worker threads (`0` clamps to `1`).
    pub workers: usize,
    /// The maximum number of submitted-but-unstarted jobs.
    /// [`AnalysisService::submit`] blocks while the queue holds this
    /// many. `0` clamps to `1`.
    pub capacity: usize,
}

impl ServiceConfig {
    /// A service with `workers` resident threads and the default
    /// capacity (64 queued jobs).
    pub fn new(workers: usize) -> ServiceConfig {
        ServiceConfig { workers: workers.max(1), capacity: 64 }
    }

    /// Sets the queue capacity.
    #[must_use]
    pub fn capacity(mut self, capacity: usize) -> ServiceConfig {
        self.capacity = capacity.max(1);
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
/// [`AnalysisService::recv_result`]: a merge row plus the submission
/// sequence number that places it.
#[derive(Debug, Clone)]
pub struct ServiceResult {
    /// The submission sequence number (matches the [`JobTicket`]).
    pub seq: u64,
    /// The job's label.
    pub label: String,
    /// What happened.
    pub outcome: JobOutcome,
}

/// Mutable service state, under one mutex.
#[derive(Default)]
struct State {
    /// Submitted, unstarted jobs with their sequence numbers, FIFO;
    /// never longer than the capacity.
    queue: VecDeque<(u64, AnalysisJob)>,
    /// Jobs currently executing on workers.
    running: usize,
    /// Next submission sequence number.
    next_seq: u64,
    /// Finished, not-yet-consumed results, completion-ordered.
    done: VecDeque<ServiceResult>,
    /// No further submissions; workers exit once the queue drains.
    closed: bool,
}

/// Shared service internals: the state plus the four wait conditions.
struct Inner {
    capacity: usize,
    state: Mutex<State>,
    /// Signaled when a queued job starts (submitters wait here).
    space_freed: Condvar,
    /// Signaled when work is queued or the service closes (workers).
    work_ready: Condvar,
    /// Signaled when a result finishes (streaming consumers).
    result_ready: Condvar,
    /// Signaled when the last admitted job finishes (drain).
    idle: Condvar,
}

impl Inner {
    /// Lifts the next queued job, blocking while the service is open
    /// but idle; `None` once it is closed and the queue is empty.
    fn next_job(&self) -> Option<(u64, AnalysisJob)> {
        let mut state = self.state.lock().unwrap();
        loop {
            if let Some(next) = state.queue.pop_front() {
                state.running += 1;
                drop(state);
                // The capacity bounds *queued* closures: a started job
                // readmits a blocked submitter before it even runs.
                self.space_freed.notify_one();
                return Some(next);
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
        let idle = state.running == 0 && state.queue.is_empty();
        drop(state);
        self.result_ready.notify_all();
        if idle {
            self.idle.notify_all();
        }
    }
}

/// A resident worker: lift the next job, run it under panic isolation,
/// push the result; exit once the service is closed and drained.
fn worker_loop(inner: &Inner) {
    while let Some((seq, job)) = inner.next_job() {
        let outcome = execute_outcome(job.run);
        inner.complete(ServiceResult { seq, label: job.label, outcome });
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
/// let report = service.shutdown(); // equals run_inline over the same jobs
/// ```
pub struct AnalysisService {
    inner: Arc<Inner>,
    workers: Vec<JoinHandle<()>>,
}

impl AnalysisService {
    /// Boots the service: spawns `config.workers` resident worker
    /// threads over an empty queue.
    pub fn start(config: ServiceConfig) -> AnalysisService {
        let inner = Arc::new(Inner {
            capacity: config.capacity.max(1),
            state: Mutex::new(State::default()),
            space_freed: Condvar::new(),
            work_ready: Condvar::new(),
            result_ready: Condvar::new(),
            idle: Condvar::new(),
        });
        let workers = (0..config.workers.max(1))
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

    /// Queues a job, blocking while `capacity` jobs are already waiting
    /// to start (backpressure).
    ///
    /// # Errors
    ///
    /// [`SubmitError::ShutDown`] after [`AnalysisService::close`].
    pub fn submit(&self, job: AnalysisJob) -> Result<JobTicket, SubmitError> {
        let mut state = self.inner.state.lock().unwrap();
        while !state.closed && state.queue.len() >= self.inner.capacity {
            state = self.inner.space_freed.wait(state).unwrap();
        }
        if state.closed {
            return Err(SubmitError::ShutDown);
        }
        let seq = state.next_seq;
        state.next_seq += 1;
        let ticket = JobTicket { seq, label: job.label.clone() };
        state.queue.push_back((seq, job));
        drop(state);
        self.inner.work_ready.notify_one();
        Ok(ticket)
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
            if state.closed && state.running == 0 && state.queue.is_empty() {
                return None;
            }
            state = self.inner.result_ready.wait(state).unwrap();
        }
    }

    /// Waits until every admitted job has finished, then merges every
    /// result **not already consumed** by
    /// [`AnalysisService::recv_result`] in submission order. For a
    /// service used in drain mode (no streaming consumption), the
    /// returned [`BatchReport`] — fields and rendering — equals
    /// [`crate::batch::run_inline`] over the same jobs in submission
    /// order, at any worker count.
    ///
    /// Submissions racing a `drain` land in either this report or the
    /// next one, depending on whether they were admitted before the
    /// queue emptied.
    pub fn drain(&self) -> BatchReport {
        let mut state = self.inner.state.lock().unwrap();
        while state.running > 0 || !state.queue.is_empty() {
            state = self.inner.idle.wait(state).unwrap();
        }
        let mut rows: Vec<ServiceResult> = state.done.drain(..).collect();
        drop(state);
        rows.sort_by_key(|r| r.seq);
        let results =
            rows.into_iter().map(|r| JobResult { label: r.label, outcome: r.outcome }).collect();
        BatchReport { results }
    }

    /// Closes the queue: future submissions fail with
    /// [`SubmitError::ShutDown`]; already-admitted jobs still run.
    pub fn close(&self) {
        let mut state = self.inner.state.lock().unwrap();
        state.closed = true;
        drop(state);
        self.inner.work_ready.notify_all();
        self.inner.space_freed.notify_all();
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
            .field("workers", &self.workers.len())
            .field("capacity", &self.inner.capacity)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EngineKind;
    use crate::system::Mode;
    use crate::RunReport;
    use std::time::Duration;

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

    /// A bare literal bypasses `new`'s clamps; `start` re-clamps, so a
    /// zero-capacity queue still admits work and zero workers still
    /// drain it (unclamped, `submit` or `shutdown` would hang).
    #[test]
    fn zero_workers_and_capacity_clamp_to_one() {
        let service = AnalysisService::start(ServiceConfig { workers: 0, capacity: 0 });
        service.submit(ok_job("first", 7)).unwrap();
        service.submit(ok_job("second", 8)).unwrap();
        let report = service.shutdown();
        assert_eq!(report.completed(), 2);
        assert_eq!(report.results[0].label, "first");
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
    fn submit_blocks_at_capacity() {
        // One worker pinned by a gate job; capacity 2 fills with the
        // two queued jobs behind it.
        let service = AnalysisService::start(ServiceConfig::new(1).capacity(2));
        let (gate, release, started) = gate_job("gate");
        service.submit(gate).unwrap();
        // Once the gate is running it has left the queue and the single
        // worker is pinned; queue two jobs behind it.
        started.recv().unwrap();
        service.submit(ok_job("q0", 0)).unwrap();
        service.submit(ok_job("q1", 1)).unwrap();
        thread::scope(|s| {
            let (admitted_tx, admitted) = std::sync::mpsc::channel();
            let service = &service;
            s.spawn(move || admitted_tx.send(service.submit(ok_job("q2", 2)).unwrap()).unwrap());
            // The queue is full: the third submit blocks.
            assert!(admitted.recv_timeout(Duration::from_millis(50)).is_err());
            release.send(()).unwrap();
            // The queue drains as the worker starts jobs; the blocked
            // job gets in.
            assert_eq!(admitted.recv().unwrap().seq, 3);
        });
        let report = service.shutdown();
        assert_eq!(report.completed(), 4);
        let labels: Vec<&str> = report.results.iter().map(|r| r.label.as_str()).collect();
        assert_eq!(labels, ["gate", "q0", "q1", "q2"]);
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
    fn result_stream_ends_at_close() {
        let service = AnalysisService::start(ServiceConfig::new(2).capacity(8));
        for i in 0..5 {
            service.submit(ok_job(&format!("j{i}"), i)).unwrap();
        }
        service.close();
        let mut labels: Vec<String> =
            std::iter::from_fn(|| service.recv_result()).map(|r| r.label).collect();
        labels.sort();
        assert_eq!(labels, ["j0", "j1", "j2", "j3", "j4"]);
    }
}
