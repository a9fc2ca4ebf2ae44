//! Resident-service benchmarks: the submit→result round-trip on an idle
//! service and the time to submit and drain one 16-job wave. Writes
//! `BENCH_service.json`; `TESTKIT_BENCH_SMOKE=1` runs a minimal pass.
//!
//! Interpreting the numbers: `latency/idle` is the floor — one
//! submission through an empty queue to a warm worker and back.
//! `throughput/wave_16` submits 16 jobs and drains them;
//! jobs/sec = 16 / (median_ns * 1e-9).

use ndroid_apps::farm::Monkey;
use ndroid_core::batch::{AnalysisJob, JobSource};
use ndroid_core::{AnalysisService, ServiceConfig, SystemConfig};
use ndroid_testkit::bench::{black_box, Suite};

/// Session length: long enough that the session's own runtime, not
/// scheduler noise, dominates the measured round-trip.
const STEPS: usize = 32;

/// One unit of resident-service work: a monkey session forked from the
/// per-worker warm snapshot (the `Monkey { fork: true }` pattern the
/// service keeps hot across submissions).
fn session_job(config: &SystemConfig) -> AnalysisJob {
    Monkey::forked(1, STEPS, 0xBE9C).jobs(config).pop().expect("one session job")
}

fn main() {
    let mut suite = Suite::new("service");
    let config = SystemConfig::ndroid().quiet(true);
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    let service = AnalysisService::start(ServiceConfig::new(workers).capacity(8));

    // Floor: submit -> result on an idle service with warm workers.
    suite.bench("service/latency/idle", || {
        service.submit(session_job(&config)).expect("service accepts the job");
        let r = service.recv_result().expect("service is open");
        black_box(r.outcome.report().is_some());
    });

    // Throughput: a 16-job wave submitted and drained; the 8-job
    // capacity makes the wave pass through `submit`'s backpressure.
    suite.bench("service/throughput/wave_16", || {
        for _ in 0..16 {
            service.submit(session_job(&config)).expect("service accepts the wave");
        }
        let report = service.drain();
        assert_eq!(report.completed(), 16);
        black_box(report);
    });

    suite.finish();
    drop(service);
}
