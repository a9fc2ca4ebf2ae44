//! `monkey_fanout`: many short random-driving sessions forked from one
//! warm image — the same layers as `app_scan`, but a fork (about a
//! microsecond) replaces a boot, and each session crosses between Java
//! and native many times.

use std::time::Instant;

use ndroid_apps::driver::{drive, gated_leak_app, MonkeyRng, GATED_ENTRIES};
use ndroid_core::{NDroidSystem, ProvenanceLevel, RunReport, Snapshot, SystemConfig};

use crate::common::{
    layer_table, paired, per_layer, timed_setups, trials, write_spans, Checks, Counters, Metric,
    Opts, Outcome, Series, Trial,
};
use crate::host::HostSpeed;
use crate::trace::{Layer, Tracer};

/// Entry points each session drives.
pub const STEPS: usize = 25;
/// Sessions run on fresh boots in set-up; the first forked sessions must
/// equal them.
pub const FRESH_TWINS: usize = 16;
const CLASS: &str = "Lapp/Sync;";

/// The sessions' configuration.
pub fn config() -> SystemConfig {
    SystemConfig::ndroid()
        .quiet(true)
        .provenance(ProvenanceLevel::Full)
}

/// Ground truth of a session: the gated app leaks once per `doSync`
/// that follows an `enableSync`, replaying the driver's choices.
pub fn expected_leaks(seed: u64, steps: usize) -> usize {
    let mut rng = MonkeyRng::new(seed);
    let mut enabled = false;
    let mut leaks = 0;
    for _ in 0..steps {
        match GATED_ENTRIES[rng.below(GATED_ENTRIES.len())] {
            "enableSync" => enabled = true,
            "doSync" if enabled => leaks += 1,
            _ => {}
        }
    }
    leaks
}

/// The warm image: the gated-leak app built, booted and captured.
pub fn image(config: &SystemConfig, tr: Option<&mut Tracer>) -> Snapshot {
    match tr {
        None => gated_leak_app().launch_with(config.clone()).snapshot(),
        Some(t) => {
            let app = t.rec.span(Layer::Load, gated_leak_app);
            let sys = t.rec.span(Layer::Boot, || app.launch_with(config.clone()));
            t.rec.span(Layer::Fork, || sys.snapshot())
        }
    }
}

/// A finished session.
pub struct Session {
    /// The session's run report.
    pub report: RunReport,
    /// Leak paths in its flow graph.
    pub leak_paths: usize,
    /// Work the session did.
    pub counters: Counters,
}

/// Drives `steps` entry points of `sys` from `seed`, then reports and
/// counts leak paths. Untraced, this is the farm's `Monkey` job body.
pub fn session_on(
    mut sys: NDroidSystem,
    seed: u64,
    steps: usize,
    mut tr: Option<&mut Tracer>,
) -> Result<Session, String> {
    let before = Counters::of(&sys);
    let (report, errors, leak_paths) = match tr.as_deref_mut() {
        None => {
            let d = drive(&mut sys, CLASS, &GATED_ENTRIES, steps, seed);
            (d.report, d.errors, sys.flow_graph().total_leak_paths())
        }
        Some(t) => {
            let mut rng = MonkeyRng::new(seed);
            let mut errors = 0;
            for _ in 0..steps {
                let entry = GATED_ENTRIES[rng.below(GATED_ENTRIES.len())];
                if t.run_java(&mut sys, CLASS, entry, &[]).is_err() {
                    errors += 1;
                }
            }
            let report = t.rec.span(Layer::Report, || sys.report());
            let paths = t
                .rec
                .span(Layer::LeakPaths, || sys.flow_graph().total_leak_paths());
            (report, errors, paths)
        }
    };
    if errors > 0 {
        return Err(format!("session {seed}: {errors} invocations failed"));
    }
    let counters = Counters::of(&sys).since(before);
    match tr {
        Some(t) => t.rec.span(Layer::Teardown, || drop(sys)),
        None => drop(sys),
    }
    Ok(Session {
        report,
        leak_paths,
        counters,
    })
}

/// One session of `steps` entry points forked from `snap`.
pub fn forked(
    snap: &Snapshot,
    seed: u64,
    steps: usize,
    mut tr: Option<&mut Tracer>,
) -> Result<Session, String> {
    let sys = match tr.as_deref_mut() {
        Some(t) => t.rec.span(Layer::Fork, || snap.fork()),
        None => snap.fork(),
    };
    session_on(sys, seed, steps, tr)
}

/// Checks a session against its ground truth.
pub fn check_session(
    checks: &mut Checks,
    seed: u64,
    steps: usize,
    result: &Result<Session, String>,
) {
    match result {
        Ok(s) => {
            let expected = expected_leaks(seed, steps);
            let leaks = s.report.leaks().len();
            checks.check(
                leaks == expected && (s.leak_paths > 0) == (leaks > 0),
                || {
                    format!(
                        "session {seed}: {leaks} leaks, {} paths; ground truth {expected} leaks",
                        s.leak_paths
                    )
                },
            );
        }
        Err(e) => checks.check(false, || e.clone()),
    }
}

/// Set-up: the warm image, and the first [`FRESH_TWINS`] sessions run on
/// freshly booted systems, which the forked ones are checked against.
fn setup(opts: &Opts, config: &SystemConfig) -> (Snapshot, Vec<Result<Session, String>>) {
    let fresh = (0..FRESH_TWINS)
        .map(|i| {
            let sys = gated_leak_app().launch_with(config.clone());
            session_on(sys, session_seed(opts, i), STEPS, None)
        })
        .collect();
    (image(config, None), fresh)
}

/// The seed of the run's `i`-th session.
fn session_seed(opts: &Opts, i: usize) -> u64 {
    opts.seed.wrapping_add(i as u64)
}

/// Runs the workload.
pub fn run(opts: &Opts) -> Outcome {
    let config = config();
    let mut out = Outcome::default();
    let ((snap, fresh), setup_s) = timed_setups(opts, || setup(opts, &config));
    for (i, session) in fresh.iter().enumerate() {
        check_session(&mut out.checks, session_seed(opts, i), STEPS, session);
    }
    if opts.trace {
        trace(opts, &config, &mut out);
        return out;
    }
    let mut cal = HostSpeed::new(opts);
    let mut series = Series::default();
    let mut i = 0;
    trials(opts, |trial| {
        let mut t = Trial::default();
        let t_phase = Instant::now();
        while t.samples() < opts.min_samples() || t_phase.elapsed() < opts.slice() {
            cal.tick();
            let seed = session_seed(opts, i);
            let t0 = Instant::now();
            let result = forked(&snap, seed, STEPS, None);
            t.op(t0.elapsed(), cal.scale());
            check_session(&mut out.checks, seed, STEPS, &result);
            // Fork == fresh boot.
            if let Some(reference) = fresh.get(i) {
                let same = matches!((&result, reference), (Ok(f), Ok(r)) if f.report == r.report);
                out.checks.check(same, || {
                    format!("session {seed}: forked report differs from a fresh boot")
                });
            }
            i += 1;
        }
        let host = cal.take_overall();
        if trial.is_some() {
            series.add(&t, host, opts.smoke);
        }
    });
    out.metrics = series.end_to_end(&setup_s);
    out.detail = series.detail(("sessions_per_s", "1/s"), "session");
    out
}

/// The trace run: the image captured untraced and traced, then paired
/// sessions forked from each.
fn trace(opts: &Opts, config: &SystemConfig, out: &mut Outcome) {
    let mut tracer = Tracer::new();
    let t0 = Instant::now();
    let plain = image(config, None);
    let setup_untraced = t0.elapsed().as_nanos() as u64;
    let t0 = Instant::now();
    let traced_image = image(config, Some(&mut tracer));
    let setup_traced = t0.elapsed().as_nanos() as u64;

    let mut counters = Counters::default();
    let checks = &mut out.checks;
    let seed = |i: usize| session_seed(opts, i);
    let mut pass = paired(
        opts,
        &mut tracer,
        FRESH_TWINS,
        |i, tr| {
            let snap = if tr.is_some() { &traced_image } else { &plain };
            forked(snap, seed(i), STEPS, tr)
        },
        |i, untraced, traced| {
            if let Ok(s) = &traced {
                counters.add(s.counters);
            }
            let same = matches!((&untraced, &traced), (Ok(u), Ok(t)) if u.report == t.report);
            checks.check(same, || {
                format!("session {}: traced report differs from untraced", seed(i))
            });
            check_session(checks, seed(i), STEPS, &traced);
        },
    );
    pass.untraced_ns += setup_untraced;
    pass.traced_ns += setup_traced;
    pass.counters = counters;
    out.metrics = per_layer(&tracer.rec, &pass);
    out.detail = vec![Metric::value("traced_ops", "count", pass.ops as f64)];
    println!("{}", layer_table(&tracer.rec, &pass));
    write_spans(opts, &tracer.rec);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ground_truth_matches_a_directed_session() {
        // Whatever the seed, the replayed choices and the real run agree.
        for seed in [1, 7, 0xD514] {
            let sys = gated_leak_app().launch_with(config());
            let s = session_on(sys, seed, STEPS, None).unwrap();
            assert_eq!(
                s.report.leaks().len(),
                expected_leaks(seed, STEPS),
                "seed {seed}"
            );
        }
    }
}
