//! `pipeline`: the end-to-end NDroid benchmark.
//!
//! ```text
//! pipeline --workload <app_scan|cfbench|monkey_fanout>
//!          [--seed 0xD514] [--seconds 20] [--trace 0|1] [--smoke] [--spans FILE]
//! pipeline compare <BASE> <NEW> [--bounds BENCHMARK.json]
//! pipeline summarize <DIR>
//! ```
//!
//! A workload run builds its inputs from `--seed`, times one set-up
//! several times, then one untimed warm-up trial and nine timed trials
//! sharing `--seconds`, checks every output, prints each metric with its
//! unit and quartiles, and ends with one JSON line:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 1` it
//! instead runs the workload's operations untraced and then traced, and
//! reports per-layer metrics. It exits non-zero on any wrong output.
//!
//! `compare` and `summarize` read saved run outputs; see README.md.

mod app_scan;
mod cfbench;
mod common;
mod compare;
mod host;
mod json;
mod monkey;
mod stats;
mod trace;

use common::{report_line, Opts, Outcome};

/// The workloads, in the order the README describes them.
pub const WORKLOADS: [&str; 3] = ["app_scan", "cfbench", "monkey_fanout"];

/// Default seed: the corpus shard every golden in the repository pins.
const DEFAULT_SEED: u64 = 0xD514;
/// Default measured seconds per run.
const DEFAULT_SECONDS: f64 = 20.0;

/// A parsed command line.
#[derive(Debug)]
enum Command {
    Run {
        workload: String,
        opts: Opts,
    },
    Compare {
        base: String,
        new: String,
        bounds: String,
    },
    Summarize {
        dir: String,
    },
}

fn parse_u64(s: &str) -> Result<u64, String> {
    let parsed = match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => s.parse(),
    };
    parsed.map_err(|_| format!("not an unsigned integer: {s:?}"))
}

fn parse(args: &[String]) -> Result<Command, String> {
    let mut it = args.iter();
    let mut positional = Vec::new();
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = DEFAULT_SECONDS;
    let mut trace = false;
    let mut smoke = false;
    let mut spans = None;
    let mut bounds = "BENCHMARK.json".to_string();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().cloned().ok_or(format!("{name} needs a value"));
        match arg.as_str() {
            "--workload" => workload = Some(value("--workload")?),
            "--seed" => seed = parse_u64(&value("--seed")?)?,
            "--seconds" => {
                let v = value("--seconds")?;
                seconds = v
                    .parse()
                    .map_err(|_| format!("--seconds: not a number: {v:?}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {v}"));
                }
            }
            "--trace" => {
                trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                }
            }
            "--smoke" => smoke = true,
            "--spans" => spans = Some(value("--spans")?),
            "--bounds" => bounds = value("--bounds")?,
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            _ => positional.push(arg.clone()),
        }
    }
    match positional.first().map(String::as_str) {
        Some("compare") if positional.len() == 3 => Ok(Command::Compare {
            base: positional[1].clone(),
            new: positional[2].clone(),
            bounds,
        }),
        Some("summarize") if positional.len() == 2 => Ok(Command::Summarize {
            dir: positional[1].clone(),
        }),
        None => {
            let workload = workload.ok_or("--workload is required")?;
            if !WORKLOADS.contains(&workload.as_str()) {
                return Err(format!(
                    "unknown workload {workload:?}; one of {WORKLOADS:?}"
                ));
            }
            Ok(Command::Run {
                workload,
                opts: Opts {
                    seed,
                    seconds,
                    trace,
                    smoke,
                    spans,
                },
            })
        }
        Some(_) => Err(format!("unexpected arguments {positional:?}")),
    }
}

/// Runs one workload.
pub fn run_workload(workload: &str, opts: &Opts) -> Outcome {
    match workload {
        "app_scan" => app_scan::run(opts),
        "cfbench" => cfbench::run(opts),
        "monkey_fanout" => monkey::run(opts),
        other => unreachable!("workload {other} passed argument validation"),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = match parse(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("pipeline: {e}");
            std::process::exit(2);
        }
    };
    match command {
        Command::Compare { base, new, bounds } => {
            std::process::exit(compare::main(&base, &new, &bounds))
        }
        Command::Summarize { dir } => std::process::exit(compare::summarize(&dir)),
        Command::Run { workload, opts } => {
            let mut out = run_workload(&workload, &opts);
            for m in &out.metrics {
                let ok = m.value.is_finite();
                out.checks
                    .check(ok, || format!("metric {} is not a number", m.name));
            }
            println!(
                "== pipeline {workload}: seed {:#x}, {} s, trace {} ==",
                opts.seed,
                opts.seconds,
                u8::from(opts.trace)
            );
            for m in out.metrics.iter().chain(&out.detail) {
                println!("{}", m.line());
            }
            println!(
                "  checks: {} attempted, {} failed (failed_frac {:.6})",
                out.checks.attempted,
                out.checks.failed,
                out.checks.failed as f64 / out.checks.attempted.max(1) as f64
            );
            for note in &out.checks.notes {
                println!("  FAILED: {note}");
            }
            println!("{}", report_line(&out.checks, &out.metrics));
            if out.checks.failed > 0 {
                std::process::exit(1);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_a_run_command_line() {
        let c = parse(&args("--workload cfbench --seed 7 --seconds 10 --trace 1")).unwrap();
        match c {
            Command::Run { workload, opts, .. } => {
                assert_eq!(workload, "cfbench");
                assert_eq!(opts.seed, 7);
                assert_eq!(opts.seconds, 10.0);
                assert!(opts.trace && !opts.smoke);
            }
            other => panic!("{other:?}"),
        }
        let c = parse(&args("--workload app_scan --seed 0xD514")).unwrap();
        assert!(matches!(
            c,
            Command::Run {
                opts: Opts { seed: 0xD514, .. },
                ..
            }
        ));
    }

    #[test]
    fn rejects_bad_input() {
        assert!(parse(&args("--workload nope")).is_err());
        assert!(parse(&args("--workload cfbench --trace 2")).is_err());
        assert!(parse(&args("--workload cfbench --seed -1")).is_err());
        assert!(parse(&args("--workload cfbench --seconds 0")).is_err());
        assert!(parse(&args("--seed 3")).is_err());
        assert!(parse(&args("compare only-one")).is_err());
    }

    /// Every workload, at smoke size, with every check on and both trace
    /// settings, finishes in well under five seconds.
    #[test]
    fn smoke_runs_pass_their_checks() {
        for workload in WORKLOADS {
            for trace in [false, true] {
                let opts = Opts {
                    seed: 0xD514,
                    seconds: 1.0,
                    trace,
                    smoke: true,
                    spans: None,
                };
                let t0 = std::time::Instant::now();
                let out = run_workload(workload, &opts);
                let took = t0.elapsed();
                assert_eq!(
                    out.checks.failed, 0,
                    "{workload} trace={trace}: {:?}",
                    out.checks.notes
                );
                assert!(out.checks.attempted > 0, "{workload}: nothing checked");
                assert!(
                    out.metrics.iter().all(|m| m.value.is_finite()),
                    "{workload}: {:?}",
                    out.metrics
                );
                assert!(
                    took.as_secs_f64() < 5.0,
                    "{workload} trace={trace} took {took:?}"
                );
            }
        }
    }
}
