//! Batch-farm throughput: the canonical job list (gallery apps + a
//! corpus shard) run sequentially and at 2/4/8 workers. Writes
//! `BENCH_batch.json`; `TESTKIT_BENCH_SMOKE=1` runs a minimal pass.
//!
//! Interpreting the numbers: one farm worker runs the whole list on a
//! single scoped worker thread, so `workers_1` vs `workers_N` isolates
//! the farm's scaling from its fixed overhead, and `inline` (the
//! `run_inline` reference on the bench thread) vs `workers_1` measures
//! that overhead. On a multi-core host `workers_4` should approach a 4x
//! speedup; on a single-core host (such as a CI container pinned to
//! one CPU) all variants are necessarily within noise of each other —
//! the recorded artifact is honest about the hardware it ran on.

use ndroid_apps::farm::{CorpusShard, Gallery};
use ndroid_core::batch::{jobs_from, run_batch, run_inline, AnalysisJob, BatchConfig};
use ndroid_core::SystemConfig;
use ndroid_testkit::bench::{black_box, Suite};

/// Shard size for the bench job list — smaller than the CI gate's 32
/// so a full sample set stays fast on one core.
const SHARD_SIZE: usize = 8;
const SHARD_SEED: u64 = 0xD514;

fn jobs() -> Vec<AnalysisJob> {
    let config = SystemConfig::ndroid().quiet(true);
    jobs_from(
        &[&Gallery, &CorpusShard { n: SHARD_SIZE, seed: SHARD_SEED }],
        &config,
    )
}

fn main() {
    let mut suite = Suite::new("batch");
    let n_jobs = jobs().len();
    for workers in [1usize, 2, 4, 8] {
        suite.bench(&format!("farm/{n_jobs}_jobs/workers_{workers}"), || {
            let report = run_batch(jobs(), BatchConfig::new(workers));
            assert_eq!(report.completed(), n_jobs);
            black_box(report);
        });
    }
    // The same list with no farm at all: `run_inline` runs it on the
    // bench thread, so the farm's fixed overhead (thread spawn, job
    // hand-out, row merge) is measurable.
    suite.bench(&format!("inline/{n_jobs}_jobs"), || {
        let report = run_inline(jobs());
        assert_eq!(report.completed(), n_jobs);
        black_box(report);
    });
    suite.finish();
}
