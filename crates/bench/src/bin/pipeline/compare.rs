//! `compare`: two sets of saved runs, per workload and end-to-end metric,
//! judged against the bounds in `BENCHMARK.json`; and `summarize`, which
//! turns a directory of runs into a `baseline.json`.
//!
//! A run set is either a directory of saved run outputs — files named
//! `<workload>.<anything>.out` whose last line is the run's report — or a
//! `baseline.json`. Verdicts, per metric:
//!
//! * `unresolved` — either set's quartile range exceeds the bound (unless
//!   every new run beats every base run: `better`), or fewer than five
//!   runs on a side;
//! * `worse` — the new median is worse than the base median by more than
//!   the bound;
//! * `better` — the new median is better by more than the base's own
//!   quartile range;
//! * `within bound` — otherwise.

use std::collections::BTreeMap;
use std::path::Path;

use crate::common::num;
use crate::json::{self, Value};
use crate::stats::Summary;
use crate::WORKLOADS;

/// Runs a side needs before its median is judged.
const MIN_RUNS: usize = 5;

/// Per workload, per metric, the value of each run.
type RunSet = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

/// An end-to-end metric's rule from `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Rule {
    /// Metric name.
    pub name: String,
    /// Whether higher values are better.
    pub higher_is_better: bool,
    /// Largest tolerated worsening, as a share of the base median.
    pub bound: f64,
}

/// The end-to-end rules of a `BENCHMARK.json` document.
pub fn rules(doc: &Value) -> Result<Vec<Rule>, String> {
    doc.get("end_to_end")
        .ok_or("no end_to_end list")?
        .as_array()
        .iter()
        .map(|m| {
            let name = m
                .get("name")
                .and_then(Value::as_str)
                .ok_or("metric without a name")?;
            let better = m
                .get("better")
                .and_then(Value::as_str)
                .ok_or("metric without better")?;
            let bound = m
                .get("bound")
                .and_then(Value::as_f64)
                .ok_or("metric without bound")?;
            Ok(Rule {
                name: name.to_string(),
                higher_is_better: better == "higher",
                bound,
            })
        })
        .collect()
}

/// The metrics of one report line, if it is a correct run's.
fn report_metrics(line: &str) -> Option<Vec<(String, f64)>> {
    let v = json::parse(line).ok()?;
    if v.get("correct") != Some(&Value::Bool(true)) {
        return None;
    }
    Some(
        v.get("metrics")?
            .members()
            .iter()
            .filter_map(|(k, m)| Some((k.clone(), m.get("value")?.as_f64()?)))
            .collect(),
    )
}

/// Loads a run set from a directory of run outputs or a `baseline.json`.
pub fn load(path: &str) -> Result<RunSet, String> {
    let mut set = RunSet::new();
    if Path::new(path).is_dir() {
        let mut files: Vec<_> = std::fs::read_dir(path)
            .map_err(|e| format!("{path}: {e}"))?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .collect();
        files.sort();
        for file in files {
            let name = file
                .file_name()
                .and_then(|n| n.to_str())
                .unwrap_or_default();
            let workload = name.split('.').next().unwrap_or_default();
            if !WORKLOADS.contains(&workload) || !name.ends_with(".out") {
                continue;
            }
            let text =
                std::fs::read_to_string(&file).map_err(|e| format!("{}: {e}", file.display()))?;
            let last = text
                .lines()
                .rev()
                .find(|l| !l.trim().is_empty())
                .unwrap_or_default();
            match report_metrics(last) {
                Some(metrics) => {
                    for (k, v) in metrics {
                        set.entry(workload.to_string())
                            .or_default()
                            .entry(k)
                            .or_default()
                            .push(v);
                    }
                }
                None => eprintln!(
                    "compare: skipping {} (no correct report line)",
                    file.display()
                ),
            }
        }
    } else {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let doc = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
        for (workload, w) in doc
            .get("workloads")
            .ok_or("no workloads in baseline")?
            .members()
        {
            for run in w.get("runs").map(Value::as_array).unwrap_or_default() {
                for (k, m) in run.get("metrics").map(Value::members).unwrap_or_default() {
                    if let Some(v) = m.as_f64() {
                        set.entry(workload.clone())
                            .or_default()
                            .entry(k.clone())
                            .or_default()
                            .push(v);
                    }
                }
            }
        }
    }
    Ok(set)
}

/// A comparison verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Improved beyond the base's own spread.
    Better,
    /// Worse by more than the bound.
    Worse,
    /// Neither.
    WithinBound,
    /// Too noisy (or too few runs) to judge.
    Unresolved,
}

impl std::fmt::Display for Verdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::WithinBound => "within bound",
            Verdict::Unresolved => "unresolved",
        })
    }
}

/// Judges `new` against `base` under `rule`.
pub fn verdict(base: &[f64], new: &[f64], rule: &Rule) -> Verdict {
    if base.len() < MIN_RUNS || new.len() < MIN_RUNS {
        return Verdict::Unresolved;
    }
    let (b, n) = (Summary::of(base), Summary::of(new));
    let sign = if rule.higher_is_better { 1.0 } else { -1.0 };
    let gain = sign * (n.median - b.median) / b.median;
    let max = |v: &[f64]| v.iter().copied().fold(f64::MIN, f64::max);
    let min = |v: &[f64]| v.iter().copied().fold(f64::MAX, f64::min);
    let all_better = if rule.higher_is_better {
        min(new) > max(base)
    } else {
        max(new) < min(base)
    };
    if b.spread().max(n.spread()) > rule.bound {
        return if all_better {
            Verdict::Better
        } else {
            Verdict::Unresolved
        };
    }
    if gain < -rule.bound {
        Verdict::Worse
    } else if gain > 0.0 && (n.median - b.median).abs() > b.q3 - b.q1 {
        Verdict::Better
    } else {
        Verdict::WithinBound
    }
}

/// `pipeline compare BASE NEW`: prints the table and returns the exit
/// code (1 when any metric is worse or unresolved, 2 on bad input).
pub fn main(base: &str, new: &str, bounds: &str) -> i32 {
    let loaded = (|| -> Result<(Vec<Rule>, RunSet, RunSet), String> {
        let text = std::fs::read_to_string(bounds).map_err(|e| format!("{bounds}: {e}"))?;
        let rules = rules(&json::parse(&text).map_err(|e| format!("{bounds}: {e}"))?)?;
        Ok((rules, load(base)?, load(new)?))
    })();
    let (rules, base_set, new_set) = match loaded {
        Ok(x) => x,
        Err(e) => {
            eprintln!("compare: {e}");
            return 2;
        }
    };
    println!(
        "{:<14} {:<12} {:>14} {:>25} {:>14} {:>25}  {:>5}  verdict",
        "workload", "metric", "base median", "base q1..q3", "new median", "new q1..q3", "bound"
    );
    let mut bad = 0;
    for workload in WORKLOADS {
        for rule in &rules {
            let get = |set: &RunSet| {
                set.get(workload)
                    .and_then(|m| m.get(&rule.name))
                    .cloned()
                    .unwrap_or_default()
            };
            let (b, n) = (get(&base_set), get(&new_set));
            if b.is_empty() && n.is_empty() {
                continue;
            }
            let v = verdict(&b, &n, rule);
            if matches!(v, Verdict::Worse | Verdict::Unresolved) {
                bad += 1;
            }
            let (bs, ns) = (Summary::of(&b), Summary::of(&n));
            println!(
                "{workload:<14} {:<12} {:>14} {:>25} {:>14} {:>25}  {:>5.2}  {v} (runs {}/{})",
                rule.name,
                num(bs.median),
                format!("{}..{}", num(bs.q1), num(bs.q3)),
                num(ns.median),
                format!("{}..{}", num(ns.q1), num(ns.q3)),
                rule.bound,
                b.len(),
                n.len()
            );
        }
    }
    i32::from(bad > 0)
}

/// `pipeline summarize DIR`: prints a `baseline.json` document for the
/// runs in `DIR` — every run's metrics, their median and quartiles per
/// workload, the host's `nproc` and the compiler version.
pub fn summarize(dir: &str) -> i32 {
    let set = match load(dir) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("summarize: {e}");
            return 2;
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let rustc = std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string());
    let mut out = format!(
        "{{\n  \"nproc\": {nproc},\n  \"rustc\": {},\n  \"workloads\": {{",
        json::quote(&rustc)
    );
    for (wi, (workload, metrics)) in set.iter().enumerate() {
        let runs = metrics.values().map(Vec::len).max().unwrap_or(0);
        out.push_str(&format!(
            "{}\n    {}: {{\n      \"runs\": [",
            if wi > 0 { "," } else { "" },
            json::quote(workload)
        ));
        for r in 0..runs {
            let fields: Vec<String> = metrics
                .iter()
                .filter_map(|(k, v)| v.get(r).map(|x| format!("{}: {x:?}", json::quote(k))))
                .collect();
            out.push_str(&format!(
                "{}\n        {{\"metrics\": {{{}}}}}",
                if r > 0 { "," } else { "" },
                fields.join(", ")
            ));
        }
        out.push_str("\n      ],\n      \"summary\": {");
        for (mi, (k, v)) in metrics.iter().enumerate() {
            let s = Summary::of(v);
            out.push_str(&format!(
                "{}\n        {}: {{\"median\": {:?}, \"q1\": {:?}, \"q3\": {:?}, \"spread\": {:?}, \"runs\": {}}}",
                if mi > 0 { "," } else { "" },
                json::quote(k),
                s.median,
                s.q1,
                s.q3,
                s.spread(),
                s.n
            ));
        }
        out.push_str("\n      }\n    }");
    }
    out.push_str("\n  }\n}");
    println!("{out}");
    0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rule(higher: bool, bound: f64) -> Rule {
        Rule {
            name: "m".into(),
            higher_is_better: higher,
            bound,
        }
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let base = [100.0, 101.0, 99.0, 100.5, 99.5];
        // Slightly worse, inside a 10% bound.
        assert_eq!(
            verdict(
                &base,
                &[103.0, 104.0, 102.0, 103.5, 102.5],
                &rule(false, 0.1)
            ),
            Verdict::WithinBound
        );
        // Worse by 20% on a lower-is-better metric.
        assert_eq!(
            verdict(
                &base,
                &[120.0, 121.0, 119.0, 120.5, 119.5],
                &rule(false, 0.1)
            ),
            Verdict::Worse
        );
        // The same numbers are a gain when higher is better.
        assert_eq!(
            verdict(
                &base,
                &[120.0, 121.0, 119.0, 120.5, 119.5],
                &rule(true, 0.1)
            ),
            Verdict::Better
        );
        // Too noisy to judge...
        let noisy = [60.0, 140.0, 100.0, 80.0, 120.0];
        assert_eq!(
            verdict(&base, &noisy, &rule(false, 0.1)),
            Verdict::Unresolved
        );
        // ...unless every new run beats every base run.
        assert_eq!(
            verdict(&noisy, &[10.0, 11.0, 12.0, 13.0, 14.0], &rule(false, 0.1)),
            Verdict::Better
        );
        // Too few runs.
        assert_eq!(
            verdict(&base[..4], &base, &rule(false, 0.1)),
            Verdict::Unresolved
        );
    }

    #[test]
    fn reads_rules_and_report_lines() {
        let doc = json::parse(
            r#"{"end_to_end": [{"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.1},
                               {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.1}]}"#,
        )
        .unwrap();
        let r = rules(&doc).unwrap();
        assert_eq!(
            r,
            vec![
                Rule {
                    name: "setup_s".into(),
                    higher_is_better: false,
                    bound: 0.1
                },
                Rule {
                    name: "ops_per_s".into(),
                    higher_is_better: true,
                    bound: 0.1
                },
            ]
        );
        let ok = r#"{"correct": true, "attempted": 1, "failed": 0, "metrics": {"setup_s": {"value": 0.5, "unit": "s"}}}"#;
        assert_eq!(report_metrics(ok), Some(vec![("setup_s".to_string(), 0.5)]));
        let wrong = ok.replace("true", "false");
        assert_eq!(report_metrics(&wrong), None);
    }
}
