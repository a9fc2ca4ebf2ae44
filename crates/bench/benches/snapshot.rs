//! Copy-on-write snapshot benchmarks: the cost of booting the
//! gated-leak app fresh (the pre-snapshot fan-out baseline) vs
//! capturing an image vs forking a runnable system from it. A fork
//! skips the program build, the native-library load and the task-table
//! write, and comes out about ten times cheaper than a boot (≈1.5 µs
//! against ≈16 µs on a 2-vCPU VM); the host table and the chain specs
//! are built once per process, so neither side pays for them. Also
//! measures a full forked monkey session and reports
//! how many pages a driven fork actually privatizes. Writes
//! `BENCH_snapshot.json`; `TESTKIT_BENCH_SMOKE=1` runs a minimal pass
//! for CI.

use ndroid_apps::driver::{drive, gated_leak_app, GATED_ENTRIES};
use ndroid_core::SystemConfig;
use ndroid_testkit::bench::{black_box, Suite};

fn main() {
    let mut suite = Suite::new("snapshot");
    let config = SystemConfig::ndroid().quiet(true);

    // Baseline: the per-session cost snapshotting eliminates.
    let cfg = config.clone();
    suite.bench("snapshot/boot_fresh", || {
        let sys = gated_leak_app().launch_with(cfg.clone());
        black_box(sys.mode);
    });

    // Capturing an image from a booted system.
    let booted = gated_leak_app().launch_with(config.clone());
    suite.bench("snapshot/capture", || {
        black_box(booted.snapshot().mode());
    });

    // The fan-out primitive: image -> runnable system, O(page-table).
    let snap = gated_leak_app().launch_with(config.clone()).snapshot();
    suite.bench("snapshot/fork", || {
        let sys = snap.fork();
        black_box(sys.mode);
    });

    // A whole forked monkey session (fork + 25 driven events), the
    // unit of work `exp snapshot` fans out by the thousand.
    let mut seed = 0u64;
    suite.bench("snapshot/fork_and_drive_25", || {
        let mut sys = snap.fork();
        seed = seed.wrapping_add(1);
        let d = drive(&mut sys, "Lapp/Sync;", &GATED_ENTRIES, 25, seed);
        black_box(d.report.sink_events.len());
    });

    // How much of the image a driven session actually privatizes:
    // resident (unshared) guest pages after the run, vs the fully
    // resident fresh boot. Printed for the log; the timing rows above
    // are what CI smoke-checks.
    let mut sys = snap.fork();
    drive(&mut sys, "Lapp/Sync;", &GATED_ENTRIES, 25, 1);
    let fresh = gated_leak_app().launch_with(config);
    println!(
        "resident guest pages: fresh boot {} -> driven fork {}",
        fresh.mem.resident_pages(),
        sys.mem.resident_pages(),
    );

    suite.finish();
}
