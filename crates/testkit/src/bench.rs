//! Micro-benchmark timer replacing criterion: warmup, median-of-N
//! sampling, a throughput line per benchmark, and a machine-readable
//! JSON report written to `BENCH_<suite>.json`.
//!
//! Environment knobs:
//! * `TESTKIT_BENCH_SMOKE=1` — minimal warmup and sampling, for CI
//!   smoke passes where only "runs and reports" matters.
//! * `TESTKIT_BENCH_DIR=<dir>` — where the JSON report lands
//!   (defaults to the current directory).

use std::time::{Duration, Instant};

/// Re-export so benches don't need to import `std::hint`.
pub use std::hint::black_box;

/// One benchmark's measurements.
#[derive(Debug, Clone)]
pub struct BenchResult {
    /// Benchmark id, e.g. `"cfbench/crc32/NDroid"`.
    pub name: String,
    /// Median wall time per iteration, nanoseconds.
    pub median_ns: f64,
    /// All per-iteration samples (ns), sorted.
    pub samples_ns: Vec<f64>,
    /// Iterations timed per sample.
    pub iters_per_sample: u64,
    /// Iterations per second implied by the median.
    pub throughput: f64,
}

/// One derived scalar recorded alongside the timings — a size, a
/// ratio, a throughput computed from a measured median — so gates can
/// check quantities the timer itself doesn't produce.
#[derive(Debug, Clone)]
pub struct BenchMetric {
    /// Metric id, e.g. `"store/bytes_per_event"`.
    pub name: String,
    /// The value.
    pub value: f64,
    /// Unit label, e.g. `"bytes"` or `"events/s"`.
    pub unit: String,
}

/// A named collection of benchmarks; writes `BENCH_<name>.json` on
/// [`Suite::finish`].
pub struct Suite {
    name: String,
    results: Vec<BenchResult>,
    metrics: Vec<BenchMetric>,
    smoke: bool,
    warmup: Duration,
    target_sample: Duration,
    samples: usize,
}

impl Suite {
    /// Creates a suite (reads the smoke-mode env var once).
    pub fn new(name: &str) -> Suite {
        let smoke = std::env::var("TESTKIT_BENCH_SMOKE").is_ok_and(|v| v != "0");
        Suite {
            name: name.to_string(),
            results: Vec::new(),
            metrics: Vec::new(),
            smoke,
            warmup: if smoke {
                Duration::ZERO
            } else {
                Duration::from_millis(150)
            },
            target_sample: Duration::from_millis(25),
            samples: if smoke { 3 } else { 9 },
        }
    }

    /// Times `f`, recording a result under `name`.
    pub fn bench<F: FnMut()>(&mut self, name: &str, mut f: F) {
        // Warmup until the clock budget is spent (at least one call).
        let start = Instant::now();
        loop {
            f();
            if start.elapsed() >= self.warmup {
                break;
            }
        }

        // Calibrate iterations per sample from a single timed call.
        let t0 = Instant::now();
        f();
        let one = t0.elapsed().max(Duration::from_nanos(50));
        let iters = if self.smoke {
            1
        } else {
            (self.target_sample.as_nanos() / one.as_nanos()).clamp(1, 1_000_000) as u64
        };

        let mut samples: Vec<f64> = (0..self.samples)
            .map(|_| {
                let t = Instant::now();
                for _ in 0..iters {
                    f();
                }
                t.elapsed().as_nanos() as f64 / iters as f64
            })
            .collect();
        samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median_ns = samples[samples.len() / 2];
        let throughput = if median_ns > 0.0 {
            1e9 / median_ns
        } else {
            f64::INFINITY
        };

        println!(
            "bench {:<48} {:>14} /iter   {:>14}/s{}",
            format!("{}/{}", self.name, name),
            fmt_ns(median_ns),
            fmt_count(throughput),
            if self.smoke { "   [smoke]" } else { "" },
        );

        self.results.push(BenchResult {
            name: name.to_string(),
            median_ns,
            samples_ns: samples,
            iters_per_sample: iters,
            throughput,
        });
    }

    /// Records a derived scalar metric, printed immediately and
    /// emitted under `"metrics"` in the JSON report.
    pub fn metric(&mut self, name: &str, value: f64, unit: &str) {
        println!(
            "metric {:<47} {:>14.2} {}",
            format!("{}/{}", self.name, name),
            value,
            unit
        );
        self.metrics.push(BenchMetric {
            name: name.to_string(),
            value,
            unit: unit.to_string(),
        });
    }

    /// Prints the summary and writes `BENCH_<suite>.json`. Returns the
    /// path written.
    pub fn finish(self) -> std::path::PathBuf {
        let dir = std::env::var("TESTKIT_BENCH_DIR").unwrap_or_else(|_| ".".to_string());
        let path = std::path::Path::new(&dir).join(format!("BENCH_{}.json", self.name));
        let json = self.to_json();
        if let Err(e) = std::fs::write(&path, &json) {
            eprintln!("[testkit] could not write {}: {e}", path.display());
        } else {
            println!(
                "bench suite '{}': {} benchmarks -> {}",
                self.name,
                self.results.len(),
                path.display()
            );
        }
        path
    }

    /// The JSON report (hand-rolled; the workspace has no serde).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!("  \"suite\": {},\n", json_str(&self.name)));
        out.push_str(&format!("  \"smoke\": {},\n", self.smoke));
        out.push_str("  \"results\": [\n");
        for (i, r) in self.results.iter().enumerate() {
            out.push_str("    {");
            out.push_str(&format!("\"name\": {}, ", json_str(&r.name)));
            out.push_str(&format!("\"median_ns\": {:.1}, ", r.median_ns));
            out.push_str(&format!("\"iters_per_sample\": {}, ", r.iters_per_sample));
            out.push_str(&format!("\"samples\": {}, ", r.samples_ns.len()));
            out.push_str(&format!("\"throughput_per_sec\": {:.1}", r.throughput));
            out.push_str(if i + 1 == self.results.len() {
                "}\n"
            } else {
                "},\n"
            });
        }
        out.push_str("  ],\n");
        out.push_str("  \"metrics\": [\n");
        for (i, m) in self.metrics.iter().enumerate() {
            out.push_str("    {");
            out.push_str(&format!("\"name\": {}, ", json_str(&m.name)));
            out.push_str(&format!("\"value\": {:.3}, ", m.value));
            out.push_str(&format!("\"unit\": {}", json_str(&m.unit)));
            out.push_str(if i + 1 == self.metrics.len() {
                "}\n"
            } else {
                "},\n"
            });
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Results measured so far (mainly for tests).
    pub fn results(&self) -> &[BenchResult] {
        &self.results
    }

    /// Metrics recorded so far (mainly for tests).
    pub fn metrics(&self) -> &[BenchMetric] {
        &self.metrics
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn fmt_ns(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.1} ns")
    } else if ns < 1_000_000.0 {
        format!("{:.2} µs", ns / 1_000.0)
    } else if ns < 1e9 {
        format!("{:.2} ms", ns / 1e6)
    } else {
        format!("{:.2} s", ns / 1e9)
    }
}

fn fmt_count(n: f64) -> String {
    if n >= 1e9 {
        format!("{:.2}G", n / 1e9)
    } else if n >= 1e6 {
        format!("{:.2}M", n / 1e6)
    } else if n >= 1e3 {
        format!("{:.2}k", n / 1e3)
    } else {
        format!("{n:.1}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke_suite(name: &str) -> Suite {
        // Force smoke parameters without relying on the env var (tests
        // run in parallel; the var is read at construction only).
        let mut s = Suite::new(name);
        s.smoke = true;
        s.warmup = Duration::ZERO;
        s.samples = 3;
        s
    }

    #[test]
    fn measures_and_reports() {
        let mut suite = smoke_suite("unit");
        let mut acc = 0u64;
        suite.bench("spin", || {
            for i in 0..100u64 {
                acc = acc.wrapping_add(black_box(i));
            }
        });
        assert_eq!(suite.results().len(), 1);
        let r = &suite.results()[0];
        assert!(r.median_ns > 0.0);
        assert!(r.throughput > 0.0);
        assert_eq!(r.samples_ns.len(), 3);
    }

    #[test]
    fn json_shape_is_stable() {
        let mut suite = smoke_suite("jsonshape");
        suite.bench("noop", || {
            black_box(1 + 1);
        });
        suite.metric("bytes_per_event", 12.5, "bytes");
        let json = suite.to_json();
        assert!(json.contains("\"suite\": \"jsonshape\""));
        assert!(json.contains("\"name\": \"noop\""));
        assert!(json.contains("\"median_ns\""));
        assert!(json.contains("\"throughput_per_sec\""));
        assert!(json.contains("\"metrics\""));
        assert!(json.contains("\"name\": \"bytes_per_event\""));
        assert!(json.contains("\"value\": 12.500"));
        assert!(json.contains("\"unit\": \"bytes\""));
        assert_eq!(suite.metrics().len(), 1);
    }

    #[test]
    fn json_escapes_quotes() {
        assert_eq!(json_str("a\"b\\c"), "\"a\\\"b\\\\c\"");
    }

    #[test]
    fn finish_writes_file() {
        let dir = std::env::temp_dir().join("testkit-bench-test");
        std::fs::create_dir_all(&dir).unwrap();
        std::env::set_var("TESTKIT_BENCH_DIR", &dir);
        let mut suite = smoke_suite("filewrite");
        suite.bench("noop", || {
            black_box(0u8);
        });
        let path = suite.finish();
        std::env::remove_var("TESTKIT_BENCH_DIR");
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"suite\": \"filewrite\""));
        std::fs::remove_file(path).ok();
    }
}
