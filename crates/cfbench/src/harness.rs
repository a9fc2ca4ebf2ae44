//! The Fig. 10 harness: wall-clock overhead of each analysis mode
//! relative to vanilla, per kernel and per repetition, plus the
//! Native/Java/Overall scores. Every cell is a median with its
//! interquartile range over the repetitions, as the paper reports
//! NDroid's 5.45 ± 0.414×.

use crate::kernels::{all_kernels, Kernel, KernelKind};
use ndroid_core::{Mode, SystemConfig};
use std::fmt;
use std::time::{Duration, Instant};

/// One row of the Fig. 10 chart.
#[derive(Debug, Clone)]
pub struct KernelRow {
    /// CF-Bench row name.
    pub name: &'static str,
    /// Native or Java.
    pub kind: KernelKind,
    /// Vanilla wall time of each repetition.
    pub vanilla: Vec<Duration>,
    /// (mode, wall time of each repetition) per analyzed mode.
    pub results: Vec<(Mode, Vec<Duration>)>,
}

impl KernelRow {
    /// The median and quartiles of the overhead under `mode`, if
    /// measured, where repetition *i*'s overhead is its mode time over
    /// its vanilla time.
    pub fn spread(&self, mode: Mode) -> Option<Spread> {
        let (_, times) = self.results.iter().find(|(m, _)| *m == mode)?;
        let overheads: Vec<f64> = times
            .iter()
            .zip(&self.vanilla)
            .map(|(t, v)| t.as_secs_f64() / v.as_secs_f64().max(1e-9))
            .collect();
        Some(Spread::of(&overheads))
    }

    /// The median overhead under `mode`, if measured.
    pub fn overhead(&self, mode: Mode) -> Option<f64> {
        self.spread(mode).map(|s| s.median)
    }
}

/// A median and its interquartile range.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spread {
    /// Median.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
}

impl Spread {
    /// The median and the quartiles of `values` by the "exclusive"
    /// method (Python's `statistics.quantiles(values, n=4)` default);
    /// with one value all three are that value. `NaN` when empty.
    pub fn of(values: &[f64]) -> Spread {
        let mut s = values.to_vec();
        s.sort_by(f64::total_cmp);
        let n = s.len();
        match n {
            0 => Spread { median: f64::NAN, q1: f64::NAN, q3: f64::NAN },
            1 => Spread { median: s[0], q1: s[0], q3: s[0] },
            _ => {
                let median = if n % 2 == 1 { s[n / 2] } else { (s[n / 2 - 1] + s[n / 2]) / 2.0 };
                let cut = |i: usize| {
                    let j = (i * (n + 1) / 4).clamp(1, n - 1);
                    let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
                    (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
                };
                Spread { median, q1: cut(1), q3: cut(3) }
            }
        }
    }
}

impl fmt::Display for Spread {
    /// `median [q1..q3]`, two decimals each.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2} [{:.2}..{:.2}]", self.median, self.q1, self.q3)
    }
}

/// The full report.
#[derive(Debug, Clone)]
pub struct Fig10Report {
    /// Per-kernel rows, in Fig. 10 order.
    pub rows: Vec<KernelRow>,
    /// Modes measured (excluding vanilla).
    pub modes: Vec<Mode>,
    /// Iterations per kernel invocation.
    pub iterations: u32,
    /// Repetitions per kernel and mode (the paper used 30).
    pub repetitions: u32,
}

fn geomean(values: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = values.fold((0.0, 0u32), |(s, n), v| (s + v.max(1e-9).ln(), n + 1));
    if n == 0 {
        1.0
    } else {
        (sum / n as f64).exp()
    }
}

impl Fig10Report {
    /// A score under `mode` over the rows of `kind` (all rows, the
    /// "Overall Score", when `None`): the geometric mean of the
    /// per-kernel medians, bracketed
    /// by the geometric means of the per-kernel first and third
    /// quartiles.
    pub fn score(&self, mode: Mode, kind: Option<KernelKind>) -> Spread {
        let spreads: Vec<Spread> = self
            .rows
            .iter()
            .filter(|r| kind.is_none_or(|k| r.kind == k))
            .filter_map(|r| r.spread(mode))
            .collect();
        Spread {
            median: geomean(spreads.iter().map(|s| s.median)),
            q1: geomean(spreads.iter().map(|s| s.q1)),
            q3: geomean(spreads.iter().map(|s| s.q3)),
        }
    }

    /// Geometric-mean median overhead of the native kernels under
    /// `mode` ("Native Score").
    pub fn native_score(&self, mode: Mode) -> f64 {
        self.score(mode, Some(KernelKind::Native)).median
    }

    /// Geometric-mean median overhead of the Java kernels under `mode`
    /// ("Java Score").
    pub fn java_score(&self, mode: Mode) -> f64 {
        self.score(mode, Some(KernelKind::Java)).median
    }

    /// Renders the Fig. 10-style table, each cell `median [q1..q3]`.
    pub fn render(&self) -> String {
        const CELL: usize = 26;
        let mut out = String::new();
        out.push_str(&format!("{:<22}", "kernel"));
        for m in &self.modes {
            out.push_str(&format!("{:>CELL$}", format!("{m} (x)")));
        }
        out.push('\n');
        let mut line = |label: &str, cell: &dyn Fn(Mode) -> Spread| {
            out.push_str(&format!("{label:<22}"));
            for m in &self.modes {
                out.push_str(&format!("{:>CELL$}", cell(*m).to_string()));
            }
            out.push('\n');
        };
        for row in &self.rows {
            line(row.name, &|m| row.spread(m).unwrap_or(Spread::of(&[])));
        }
        for (label, kind) in [
            ("Native Score", Some(KernelKind::Native)),
            ("Java Score", Some(KernelKind::Java)),
            ("Overall Score", None),
        ] {
            line(label, &|m| self.score(m, kind));
        }
        out
    }
}

/// Wall time of one timed run of `kernel` under `mode` on a freshly
/// booted system.
fn time_once(
    kernel: &Kernel,
    mode: Mode,
    iterations: u32,
    tweak: &dyn Fn(SystemConfig) -> SystemConfig,
) -> Duration {
    let mut sys = kernel.boot_with(tweak(SystemConfig::new(mode).quiet(true)));
    // Warm the code path once so page faults/alloc noise stay out.
    kernel.run(&mut sys, 1.max(iterations / 100));
    let start = Instant::now();
    kernel.run(&mut sys, iterations);
    start.elapsed()
}

/// Runs the whole suite: every kernel under vanilla plus `modes`.
pub fn run_suite(modes: &[Mode], iterations: u32, repetitions: u32) -> Fig10Report {
    run_suite_with(modes, iterations, repetitions, |c| c)
}

/// [`run_suite`] with a configuration tweak applied to every boot —
/// the Fig. 10 A/B entry point (e.g. `|c| c.blocks(false)` measures
/// the per-instruction stepper instead of superblock dispatch).
pub fn run_suite_with(
    modes: &[Mode],
    iterations: u32,
    repetitions: u32,
    tweak: impl Fn(SystemConfig) -> SystemConfig,
) -> Fig10Report {
    let mut rows = Vec::new();
    for kernel in all_kernels() {
        let mut row = KernelRow {
            name: kernel.name,
            kind: kernel.kind,
            vanilla: Vec::new(),
            results: modes.iter().map(|m| (*m, Vec::new())).collect(),
        };
        // Repetition i times vanilla and then every mode back to back,
        // so its per-mode ratios share whatever the host did meanwhile.
        for _ in 0..repetitions {
            row.vanilla.push(time_once(&kernel, Mode::Vanilla, iterations, &tweak));
            for (mode, times) in &mut row.results {
                times.push(time_once(&kernel, *mode, iterations, &tweak));
            }
        }
        rows.push(row);
    }
    Fig10Report {
        rows,
        modes: modes.to_vec(),
        iterations,
        repetitions,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_suite_produces_sane_overheads() {
        let report = run_suite(&[Mode::NDroid], 2_000, 1);
        assert_eq!(report.rows.len(), 13);
        for row in &report.rows {
            let o = row.overhead(Mode::NDroid).unwrap();
            assert!(o.is_finite() && o > 0.05, "{}: {o}", row.name);
        }
        let rendered = report.render();
        assert!(rendered.contains("Native MIPS"));
        assert!(rendered.contains("Overall Score"));
    }

    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "timing claim about optimized code; run with --release (scripts/ci.sh does)"
    )]
    fn native_overhead_exceeds_java_overhead() {
        // The architectural claim behind Fig. 10: NDroid traces every
        // *native* instruction but leaves the interpreter alone. The
        // claim originates on the per-instruction stepper, so it is
        // pinned with superblock dispatch off — with blocks on the
        // native-side tracing cost collapses (see BENCH_blocks.json)
        // and the ordering is no longer architecturally forced.
        // Release builds only: in a debug build the stepper's tracer
        // and the DVM's own taint tracking both cost about 1.3x, so
        // the claim does not hold there (EXPERIMENTS.md, D5).
        let report = run_suite_with(&[Mode::NDroid], 200_000, 3, |c| c.blocks(false));
        let native = report.native_score(Mode::NDroid);
        let java = report.java_score(Mode::NDroid);
        assert!(
            native > java,
            "native {native:.2}x should exceed java {java:.2}x"
        );
        assert!(java < 3.0, "Java-side cost stays small: {java:.2}x");
    }

    #[test]
    fn spread_uses_exclusive_quartiles() {
        // Python: statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        let s = Spread::of(&[5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.5, 3.0, 4.5));
        // Python: statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        let s = Spread::of(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.25, 2.5, 3.75));
        let s = Spread::of(&[7.0]);
        assert_eq!((s.q1, s.median, s.q3), (7.0, 7.0, 7.0));
        assert_eq!(Spread::of(&[1.0, 2.0, 3.0, 4.0]).to_string(), "2.50 [1.25..3.75]");
    }

    #[test]
    fn spread_pairs_each_repetition_with_its_vanilla_run() {
        let ms = Duration::from_millis;
        let row = KernelRow {
            name: "k",
            kind: KernelKind::Native,
            vanilla: vec![ms(10), ms(20), ms(40)],
            results: vec![(Mode::NDroid, vec![ms(20), ms(60), ms(40)])],
        };
        let (median, q1, q3) = (2.0, 1.0, 3.0);
        assert_eq!(row.spread(Mode::NDroid), Some(Spread { median, q1, q3 }));
        assert_eq!(row.spread(Mode::TaintDroid), None);
        let report = Fig10Report {
            rows: vec![row],
            modes: vec![Mode::NDroid],
            iterations: 1,
            repetitions: 3,
        };
        assert!(report.render().contains("2.00 [1.00..3.00]"));
    }

    #[test]
    fn geomean_basics() {
        assert!((geomean([4.0, 1.0].into_iter()) - 2.0).abs() < 1e-9);
        assert_eq!(geomean(std::iter::empty()), 1.0);
    }
}
