//! Per-kernel wall time under each analysis mode (the statistically
//! rigorous companion to `exp cfbench`), timed by the hermetic
//! `ndroid_testkit::bench` suite. Writes `BENCH_cfbench.json`;
//! `TESTKIT_BENCH_SMOKE=1` runs a minimal pass for CI.

use ndroid_cfbench::all_kernels;
use ndroid_core::Mode;
use ndroid_testkit::bench::Suite;

const ITERS: u32 = 2_000;

fn main() {
    let mut suite = Suite::new("cfbench");
    for kernel in all_kernels() {
        for mode in [Mode::Vanilla, Mode::TaintDroid, Mode::NDroid, Mode::DroidScopeLike] {
            let mut sys = kernel.boot(mode);
            suite.bench(&format!("{}/{}", kernel.name, mode), || {
                kernel.run(&mut sys, ITERS);
            });
        }
    }
    suite.finish();
}
