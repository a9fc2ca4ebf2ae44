//! Adversarial-corpus cost: how much the anti-analysis families
//! (runtime detours, Thumb↔ARM interworking trampolines, rewritten
//! JNI bodies, mutation chains) cost to analyze relative to the
//! cooperative gallery, and what the scoring harness itself adds.
//! Writes `BENCH_adversarial.json`; `TESTKIT_BENCH_SMOKE=1` runs a
//! minimal pass.
//!
//! Interpreting the numbers: the SMC families (`detour`, `rewrite`)
//! pay decode-cache invalidations on top of the plain run, so they
//! bound the handler-cache recovery cost; `corpus/batch` is the whole
//! 15-case corpus through the 4-worker farm — the unit the
//! `exp adversarial` CI gate re-runs — and `corpus/score` isolates the
//! pure scoring pass over a pre-computed batch report.

use ndroid_apps::adversarial::{self, expected_leak};
use ndroid_apps::farm::Adversarial;
use ndroid_core::batch::{run_batch, BatchConfig, JobSource};
use ndroid_core::{score_batch, SystemConfig};
use ndroid_testkit::bench::{black_box, Suite};

fn main() {
    let mut suite = Suite::new("adversarial");
    let config = SystemConfig::ndroid().quiet(true);

    // One representative per hand-built family, leak variant (the
    // adversarial machinery fires on these; benign twins track within
    // noise).
    for (tag, build) in [
        ("family/detour", adversarial::detour_leak as fn() -> ndroid_apps::App),
        ("family/interwork", adversarial::interwork_leak),
        ("family/rewrite", adversarial::rewrite_leak),
    ] {
        let config = config.clone();
        suite.bench(tag, move || {
            let sys = build().run_with(config.clone()).expect("case runs");
            black_box(sys.report());
        });
    }

    // The full corpus through the farm, exactly as the CI gate runs it.
    suite.bench("corpus/batch", || {
        let batch = run_batch(Adversarial.jobs(&config), BatchConfig::new(4));
        black_box(batch.results.len());
    });

    // Scoring isolated from the runs: re-score one pre-computed batch.
    let batch = run_batch(Adversarial.jobs(&config), BatchConfig::new(4));
    suite.bench("corpus/score", || {
        let score = score_batch(&batch, expected_leak);
        black_box(score.perfect());
    });

    suite.finish();
}
