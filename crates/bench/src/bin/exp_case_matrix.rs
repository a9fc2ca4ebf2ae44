//! Experiment: Table I / Fig. 3 — the information-flow case matrix.
//!
//! Runs one app per {source, intermediate, sink} scenario under
//! TaintDroid-only and NDroid (plus benign apps for false-positive
//! checks) through the batch-analysis farm and prints the detection
//! matrix. Expected shape: TaintDroid detects only Case 1; NDroid
//! detects every leak case; nobody flags the benign apps.
//!
//! `--workers N` shards the runs across N farm workers (default 1);
//! the matrix is identical for any N. `--trace` additionally prints
//! the first NDroid trace events per case.

use ndroid_apps::builder::App;
use ndroid_apps::farm::Cases;
use ndroid_apps::{all_case_apps, benign, farm};
use ndroid_core::batch::JobSource;
use ndroid_core::batch::{run_batch, BatchConfig};
use ndroid_core::report::{collect_outcome, DetectionReport};
use ndroid_core::{Mode, SystemConfig};

fn workers_arg() -> usize {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == "--workers")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(1)
}

fn main() {
    let modes = [Mode::TaintDroid, Mode::NDroid];
    let workers = workers_arg();
    let trace = std::env::args().any(|a| a == "--trace");
    let mut report = DetectionReport::new();

    println!("== Table I / Fig. 3 — information flows through JNI ==");
    println!("(farm: {workers} worker(s))\n");

    if trace {
        for (case, app, _) in all_case_apps() {
            let description = app.description.clone();
            let sys = app.run(Mode::NDroid).expect("app run");
            println!("--- {case} ({description}) trace ---");
            for e in sys.trace.events().iter().take(40) {
                println!("  {e}");
            }
            println!();
        }
    }

    // Ground truth markers: the actual device values plus the taint
    // source names.
    let device = ndroid_dvm::framework::DeviceProfile::default();
    let mut values = vec![
        device.device_id.clone(),
        device.contact.1.clone(),
        device.last_sms.clone(),
    ];
    for (_, _, taint) in all_case_apps() {
        for name in taint.source_names() {
            if !values.contains(&name.to_string()) {
                values.push(name.to_string());
            }
        }
    }
    let value_refs: Vec<&str> = values.iter().map(String::as_str).collect();

    for mode in modes {
        let config = SystemConfig::new(mode).quiet(true);
        let mut jobs = Cases.jobs(&config);
        let benign_apps: [(&str, fn() -> App); 3] = [
            ("benign-game", benign::physics_game),
            ("benign-license", benign::audio_license_check),
            ("benign-dsp", benign::dsp_filter),
        ];
        for (name, f) in benign_apps {
            jobs.push(farm::app_job(name, config.clone(), f));
        }
        let batch = run_batch(jobs, BatchConfig::new(workers));
        for result in batch.results {
            let run = result
                .outcome
                .report()
                .unwrap_or_else(|| panic!("{} did not complete", result.label));
            let case = result
                .label
                .strip_prefix("case/")
                .unwrap_or(&result.label);
            let markers: &[&str] = if case.starts_with("benign") {
                &[]
            } else {
                &value_refs
            };
            report.push(collect_outcome(case, run, markers));
        }
    }

    println!("{}", report.render(&modes));

    // Assert the paper's claim programmatically.
    let taintdroid_detects: Vec<&str> = report
        .outcomes()
        .iter()
        .filter(|o| o.mode == Mode::TaintDroid && o.detected())
        .map(|o| o.case.as_str())
        .collect();
    let ndroid_leak_cases: Vec<_> = report
        .outcomes()
        .iter()
        .filter(|o| o.mode == Mode::NDroid && !o.case.starts_with("benign"))
        .collect();
    let ndroid_detects = ndroid_leak_cases.iter().filter(|o| o.detected()).count();
    let leak_cases = ndroid_leak_cases.len();
    println!("taintdroid detects: {taintdroid_detects:?} (paper: only case 1)");
    println!("ndroid detects:     {ndroid_detects}/{leak_cases} leak cases (paper: all)");
    for o in report.outcomes() {
        if o.detected() {
            for l in &o.leaks {
                println!(
                    "  [{} / {}] {}",
                    o.case,
                    o.mode,
                    ndroid_core::report::describe_leak(l)
                );
            }
        }
    }
}
