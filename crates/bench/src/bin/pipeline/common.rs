//! What every workload shares: run options, the trial schedule, output
//! checks, metric records and the final report line.

use std::time::{Duration, Instant};

use ndroid_core::NDroidSystem;

use crate::host::HostSpeed;
use crate::stats::{self, Summary};
use crate::trace::{Layer, Recorder, Tracer, LAYERS};

/// Timed trials per run; each metric is their median. Nine, not five:
/// with five, one trial caught in a burst of host contention moved the
/// median enough to put run-to-run spreads above 3%.
pub const TRIALS: usize = 9;
/// Fewest set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 5;
/// Set-ups repeat until this much time has passed...
const SETUP_TIME: Duration = Duration::from_secs(1);
/// ...or this many were timed.
const MAX_SETUPS: usize = 1000;
/// Latency samples a trial needs before its p99 counts (ten beyond it).
pub const MIN_TAIL_SAMPLES: usize = 1000;

/// Options of one workload run.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Input seed: corpus shard and monkey seeds.
    pub seed: u64,
    /// Measured time of the run, in seconds.
    pub seconds: f64,
    /// Record the per-layer trace instead of end-to-end metrics.
    pub trace: bool,
    /// Minimal sizes for a quick functional check.
    pub smoke: bool,
    /// Where a trace run writes its kept spans.
    pub spans: Option<String>,
}

impl Opts {
    /// Length of one trial: the run's seconds shared by one untimed
    /// warm-up trial and [`TRIALS`] timed ones (zero in smoke runs, where
    /// each trial does its minimum work).
    pub fn slice(&self) -> Duration {
        if self.smoke {
            Duration::ZERO
        } else {
            Duration::from_secs_f64(self.seconds / (TRIALS + 1) as f64)
        }
    }

    /// Samples a latency trial must collect before it may end.
    pub fn min_samples(&self) -> usize {
        if self.smoke {
            1
        } else {
            MIN_TAIL_SAMPLES
        }
    }

    /// Set-ups to time.
    pub fn setups(&self) -> usize {
        if self.smoke {
            1
        } else {
            SETUPS
        }
    }

    /// Wall time of a trace run's loop of untraced/traced pairs.
    pub fn trace_slice(&self) -> Duration {
        if self.smoke {
            Duration::ZERO
        } else {
            Duration::from_secs_f64(self.seconds * 0.3)
        }
    }
}

/// Output checks: every outcome checked counts as attempted, every
/// mismatch as failed.
#[derive(Debug, Default)]
pub struct Checks {
    /// Outcomes checked.
    pub attempted: u64,
    /// Outcomes that were wrong.
    pub failed: u64,
    /// The first few failure descriptions.
    pub notes: Vec<String>,
}

impl Checks {
    /// Records one checked outcome.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < 20 {
                self.notes.push(what());
            }
        }
    }

    /// Adds the outcomes `other` checked.
    pub fn absorb(&mut self, other: Checks) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        let room = 20usize.saturating_sub(self.notes.len());
        self.notes.extend(other.notes.into_iter().take(room));
    }
}

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Value (the median over trials for trial metrics).
    pub value: f64,
    /// Spread over trials, when the value is a median of trials.
    pub trials: Option<Summary>,
    /// Samples behind each trial's value, when it is a percentile.
    pub samples: Option<usize>,
}

impl Metric {
    /// A single measured value.
    pub fn value(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
        Metric {
            name: name.into(),
            unit,
            value,
            trials: None,
            samples: None,
        }
    }

    /// The median of per-trial values.
    pub fn trials(name: impl Into<String>, unit: &'static str, per_trial: &[f64]) -> Metric {
        let s = Summary::of(per_trial);
        Metric {
            name: name.into(),
            unit,
            value: s.median,
            trials: Some(s),
            samples: None,
        }
    }

    /// Notes the smallest per-trial sample count behind the value.
    pub fn with_samples(mut self, samples: usize) -> Metric {
        self.samples = Some(samples);
        self
    }

    /// The human-readable line: value, unit, quartiles and counts.
    pub fn line(&self) -> String {
        let mut s = format!(
            "  {:<32} {:>14} {:<8}",
            self.name,
            num(self.value),
            self.unit
        );
        if let Some(t) = self.trials {
            s.push_str(&format!(
                " q1 {}  q3 {}  n={} trials",
                num(t.q1),
                num(t.q3),
                t.n
            ));
        }
        if let Some(n) = self.samples {
            s.push_str(&format!(", >={n} samples/trial"));
        }
        s
    }
}

/// A value for a table: four decimals, six below 1 (set-up seconds,
/// shares).
pub fn num(v: f64) -> String {
    if v.abs() < 1.0 {
        format!("{v:.6}")
    } else {
        format!("{v:.4}")
    }
}

/// Everything a workload run produces.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Output checks.
    pub checks: Checks,
    /// The metrics of the final report line (end-to-end or per-layer).
    pub metrics: Vec<Metric>,
    /// Workload-specific numbers, printed but not in the report line.
    pub detail: Vec<Metric>,
}

/// One trial's operation times, raw and at reference host speed (each
/// time multiplied by the host scale current when it was taken).
#[derive(Debug, Default)]
pub struct Trial {
    raw_us: Vec<f64>,
    scaled_us: Vec<f64>,
}

impl Trial {
    /// One operation that took `dt`.
    pub fn op(&mut self, dt: Duration, scale: f64) {
        let us = dt.as_secs_f64() * 1e6;
        self.raw_us.push(us);
        self.scaled_us.push(us * scale);
    }

    /// Operations so far.
    pub fn samples(&self) -> usize {
        self.raw_us.len()
    }

    /// Raw operations per second of busy time.
    pub fn raw_rate(&self) -> f64 {
        rate(&self.raw_us)
    }
}

/// Operations per second of busy time, from each operation's time.
fn rate(samples_us: &[f64]) -> f64 {
    samples_us.len() as f64 * 1e6 / samples_us.iter().sum::<f64>()
}

/// Per-trial throughput, p50 and p99.
#[derive(Debug, Default)]
struct Stats {
    rate: Vec<f64>,
    p50: Vec<f64>,
    p99: Vec<f64>,
}

impl Stats {
    /// In a full run a trial must have enough samples for its p99 (see
    /// [`stats::tail`]).
    fn add(&mut self, samples_us: &[f64], smoke: bool) {
        let p99 = if smoke {
            stats::quantile(samples_us, 0.99)
        } else {
            stats::tail(samples_us, 0.99).expect("trial has >= 1000 latency samples")
        };
        self.rate.push(rate(samples_us));
        self.p50.push(stats::median(samples_us));
        self.p99.push(p99);
    }
}

/// The timed trials of a run.
#[derive(Debug, Default)]
pub struct Series {
    raw: Stats,
    scaled: Stats,
    host: Vec<f64>,
    min_samples: usize,
}

impl Series {
    /// Adds one timed trial, with the host scale over it.
    pub fn add(&mut self, t: &Trial, host: f64, smoke: bool) {
        self.min_samples = if self.host.is_empty() {
            t.samples()
        } else {
            self.min_samples.min(t.samples())
        };
        self.raw.add(&t.raw_us, smoke);
        self.scaled.add(&t.scaled_us, smoke);
        self.host.push(host);
    }

    /// The end-to-end metrics every workload reports, at reference host
    /// speed, in report order.
    pub fn end_to_end(&self, setup_s: &[f64]) -> Vec<Metric> {
        vec![
            Metric::trials("setup_s", "s", setup_s),
            Metric::trials("ops_per_s", "1/s", &self.scaled.rate),
            Metric::trials("op_p50_us", "us", &self.scaled.p50).with_samples(self.min_samples),
        ]
    }

    /// Printed beside the end-to-end metrics: the p99 (too noisy on a
    /// shared host to gate: 12–18% run-to-run spread), the raw numbers
    /// under workload-specific names, the host scale, and the process's
    /// peak memory.
    pub fn detail(&self, rate: (&str, &'static str), latency: &str) -> Vec<Metric> {
        let n = self.min_samples;
        vec![
            Metric::trials("op_p99_us", "us", &self.scaled.p99).with_samples(n),
            Metric::trials(format!("raw.{}", rate.0), rate.1, &self.raw.rate),
            Metric::trials(format!("raw.{latency}_p50_us"), "us", &self.raw.p50).with_samples(n),
            Metric::trials(format!("raw.{latency}_p99_us"), "us", &self.raw.p99).with_samples(n),
            Metric::trials("host.scale", "ratio", &self.host),
            Metric::value("peak_rss_mb", "MiB", peak_rss_mb()),
        ]
    }
}

/// Times `setup` at least [`Opts::setups`] times and, in a full run, until
/// [`SETUP_TIME`] has passed, keeping the last result. Returns it with the
/// per-set-up seconds at reference host speed.
pub fn timed_setups<T>(opts: &Opts, mut setup: impl FnMut() -> T) -> (T, Vec<f64>) {
    let mut cal = HostSpeed::new(opts);
    let mut secs = Vec::new();
    let mut last = None;
    let t_all = Instant::now();
    while secs.len() < opts.setups()
        || (!opts.smoke && t_all.elapsed() < SETUP_TIME && secs.len() < MAX_SETUPS)
    {
        drop(last.take());
        cal.tick();
        let scale = cal.scale();
        let t0 = Instant::now();
        last = Some(setup());
        secs.push(t0.elapsed().as_secs_f64() * scale);
    }
    (last.expect("at least one set-up"), secs)
}

/// Runs one warm-up trial and [`TRIALS`] timed ones; `trial(i)` gets
/// `None` for the warm-up and `Some(k)` for timed trial `k`. A smoke run
/// has a single timed trial and no warm-up.
pub fn trials(opts: &Opts, mut trial: impl FnMut(Option<usize>)) {
    if opts.smoke {
        trial(Some(0));
        return;
    }
    trial(None);
    for k in 0..TRIALS {
        trial(Some(k));
    }
}

/// Peak resident set size of this process, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Work counters of a system, read before and after an operation.
#[derive(Debug, Default, Clone, Copy)]
pub struct Counters {
    /// Dalvik bytecodes interpreted.
    pub bytecodes: u64,
    /// Guest instructions retired.
    pub insns: u64,
    /// Superblock-cache hits.
    pub block_hits: u64,
    /// Superblock-cache misses.
    pub block_misses: u64,
    /// Superblocks built.
    pub blocks_built: u64,
    /// Provenance events recorded.
    pub prov_events: u64,
}

impl Counters {
    /// The counters of `sys` now.
    pub fn of(sys: &NDroidSystem) -> Counters {
        Counters {
            bytecodes: sys.bytecodes(),
            insns: sys.native_insns(),
            block_hits: sys.blocks.hits,
            block_misses: sys.blocks.misses,
            blocks_built: sys.blocks.built,
            prov_events: sys.provenance().recorded(),
        }
    }

    /// The work done between `before` and `self`.
    #[must_use]
    pub fn since(self, before: Counters) -> Counters {
        Counters {
            bytecodes: self.bytecodes - before.bytecodes,
            insns: self.insns - before.insns,
            block_hits: self.block_hits - before.block_hits,
            block_misses: self.block_misses - before.block_misses,
            blocks_built: self.blocks_built - before.blocks_built,
            prov_events: self.prov_events - before.prov_events,
        }
    }

    /// Adds `work` to the totals.
    pub fn add(&mut self, work: Counters) {
        self.bytecodes += work.bytecodes;
        self.insns += work.insns;
        self.block_hits += work.block_hits;
        self.block_misses += work.block_misses;
        self.blocks_built += work.blocks_built;
        self.prov_events += work.prov_events;
    }
}

/// What a trace run measured: `ops` operations, each run untraced and
/// traced.
#[derive(Debug)]
pub struct TracePass {
    /// Operations in each pass.
    pub ops: u64,
    /// Wall time of the untraced runs, in nanoseconds.
    pub untraced_ns: u64,
    /// Wall time of the traced runs, in nanoseconds.
    pub traced_ns: u64,
    /// Work counters summed over the traced operations.
    pub counters: Counters,
    /// Host scale over the pass (see [`HostSpeed`]).
    pub scale: f64,
}

/// The trace run's loop: operation `i` runs once untraced and once
/// traced (alternating which goes first, so neither always finds the
/// caches warm), and `twins(i, untraced, traced)` checks the pair. Runs
/// at least `min_ops` operations and until [`Opts::trace_slice`] passes.
/// The returned pass has no counters yet.
pub fn paired<R>(
    opts: &Opts,
    tracer: &mut Tracer,
    min_ops: usize,
    mut op: impl FnMut(usize, Option<&mut Tracer>) -> R,
    mut twins: impl FnMut(usize, R, R),
) -> TracePass {
    let mut cal = HostSpeed::new(opts);
    let (mut untraced_ns, mut traced_ns) = (0u64, 0u64);
    let t_phase = Instant::now();
    let mut i = 0;
    while i < min_ops || t_phase.elapsed() < opts.trace_slice() {
        cal.tick();
        tracer.rec.op = i as u32;
        let mut timed = |tr: Option<&mut Tracer>, ns: &mut u64| {
            let t0 = Instant::now();
            let r = op(i, tr);
            *ns += t0.elapsed().as_nanos() as u64;
            r
        };
        let (u, t) = if i % 2 == 0 {
            let u = timed(None, &mut untraced_ns);
            (u, timed(Some(&mut *tracer), &mut traced_ns))
        } else {
            let t = timed(Some(&mut *tracer), &mut traced_ns);
            (timed(None, &mut untraced_ns), t)
        };
        twins(i, u, t);
        i += 1;
    }
    TracePass {
        ops: i as u64,
        untraced_ns,
        traced_ns,
        counters: Counters::default(),
        scale: cal.take_overall(),
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The per-layer metrics every workload reports from its trace pass.
/// Times are at reference host speed, like the end-to-end metrics.
pub fn per_layer(rec: &Recorder, pass: &TracePass) -> Vec<Metric> {
    let ops = pass.ops.max(1) as f64;
    let traced = pass.traced_ns as f64;
    let c = &pass.counters;
    let s = pass.scale;
    let mut out = vec![
        Metric::value("trace.op_us", "us", s * traced / ops / 1e3),
        Metric::value(
            "trace.overhead_x",
            "x",
            ratio(traced, pass.untraced_ns as f64),
        ),
        Metric::value(
            "trace.unattributed_frac",
            "fraction",
            ratio(traced - rec.attributed_ns() as f64, traced).max(0.0),
        ),
    ];
    for layer in LAYERS {
        out.push(Metric::value(
            format!("{}_share", layer.name()),
            "fraction",
            ratio(rec.self_of(layer) as f64, traced),
        ));
    }
    let per_call = |layer: Layer| ratio(rec.self_of(layer) as f64, rec.calls_of(layer) as f64);
    out.extend([
        Metric::value("core.boot_us", "us", s * per_call(Layer::Boot) / 1e3),
        Metric::value(
            "dvm.ns_per_bytecode",
            "ns",
            s * ratio(rec.self_of(Layer::Dvm) as f64, c.bytecodes as f64),
        ),
        Metric::value(
            "jni.native_ns_per_insn",
            "ns",
            s * ratio(rec.self_of(Layer::JniNative) as f64, c.insns as f64),
        ),
        Metric::value(
            "libc.models_us_per_call",
            "us",
            s * per_call(Layer::LibcModels) / 1e3,
        ),
        Metric::value("dvm.bytecodes", "count", c.bytecodes as f64 / ops),
        Metric::value("arm.insns", "count", c.insns as f64 / ops),
        Metric::value(
            "jni.native_calls",
            "count",
            rec.calls_of(Layer::JniNative) as f64 / ops,
        ),
        Metric::value(
            "jni.functions_calls",
            "count",
            rec.calls_of(Layer::JniFunctions) as f64 / ops,
        ),
        Metric::value(
            "libc.models_calls",
            "count",
            rec.calls_of(Layer::LibcModels) as f64 / ops,
        ),
        Metric::value("arm.blocks_built", "count", c.blocks_built as f64 / ops),
        Metric::value(
            "arm.block_hit_ratio",
            "fraction",
            ratio(c.block_hits as f64, (c.block_hits + c.block_misses) as f64),
        ),
        Metric::value(
            "arm.insns_per_dispatch",
            "ratio",
            ratio(c.insns as f64, (rec.blocks + rec.steps) as f64),
        ),
        Metric::value("provenance.events", "count", c.prov_events as f64 / ops),
    ]);
    out
}

/// Human-readable per-layer table of a trace pass (times at reference
/// host speed).
pub fn layer_table(rec: &Recorder, pass: &TracePass) -> String {
    let ops = pass.ops.max(1) as f64;
    let mut s = format!(
        "  {:<26} {:>10} {:>14} {:>12} {:>8}\n",
        "layer", "calls/op", "self us/op", "us/call", "share"
    );
    for layer in LAYERS {
        let calls = rec.calls_of(layer);
        let self_ns = pass.scale * rec.self_of(layer) as f64;
        s.push_str(&format!(
            "  {:<26} {:>10.3} {:>14.3} {:>12.3} {:>7.1}%\n",
            layer.name(),
            calls as f64 / ops,
            self_ns / ops / 1e3,
            ratio(self_ns, calls as f64) / 1e3,
            100.0 * ratio(rec.self_of(layer) as f64, pass.traced_ns as f64)
        ));
    }
    s
}

/// Writes the kept spans of a trace run to the `--spans` file, if any.
pub fn write_spans(opts: &Opts, rec: &Recorder) {
    if let Some(path) = &opts.spans {
        if let Err(e) = std::fs::write(path, crate::trace::spans_json(&rec.spans)) {
            eprintln!("pipeline: cannot write spans to {path}: {e}");
        }
    }
}

/// The final report line: one JSON object.
pub fn report_line(checks: &Checks, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checks.failed == 0 && checks.attempted > 0,
        checks.attempted.max(1),
        checks.failed,
        body.join(", ")
    )
}

/// A JSON number with every digit `f64` keeps (`null` is not a number,
/// so non-finite values print as 0 and the run is flagged elsewhere).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checks_count_attempts_and_failures() {
        let mut c = Checks::default();
        c.check(true, || unreachable!());
        c.check(false, || "wrong verdict".into());
        assert_eq!((c.attempted, c.failed), (2, 1));
        assert_eq!(c.notes, ["wrong verdict"]);
    }

    #[test]
    fn report_line_has_exactly_four_keys() {
        let mut c = Checks::default();
        c.check(true, String::new);
        let line = report_line(&c, &[Metric::value("setup_s", "s", 0.8127)]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \
             \"metrics\": {\"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn smoke_trials_have_no_length() {
        let opts = Opts {
            seed: 1,
            seconds: 20.0,
            trace: false,
            smoke: true,
            spans: None,
        };
        assert_eq!(opts.slice(), Duration::ZERO);
        let full = Opts {
            smoke: false,
            ..opts
        };
        assert_eq!(full.slice(), Duration::from_secs(2));
    }
}
