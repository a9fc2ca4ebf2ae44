//! The information flows through JNI: the Table I / Fig. 3 case matrix,
//! its per-case flow logs, and the Figs. 6–9 case studies.

use ndroid_apps::farm::{self, Cases};
use ndroid_apps::{all_case_apps, benign, ephone, poc_case2, poc_case3, qq_phonebook};
use ndroid_core::batch::{run_batch, JobSource};
use ndroid_core::report::{collect_outcome, describe_leak, DetectionReport};
use ndroid_core::Mode;

use crate::Opts;

const HEADER: &str = "== Table I / Fig. 3 — information flows through JNI ==\n";

/// Table I / Fig. 3: one app per {source, intermediate, sink} scenario
/// under TaintDroid and NDroid, plus benign apps as the false-positive
/// control, through the farm. Expected shape: TaintDroid detects only
/// Case 1, NDroid every leak case, nobody flags the benign apps.
pub fn case_matrix(opts: &Opts) -> Result<String, String> {
    let modes = [Mode::TaintDroid, Mode::NDroid];
    let mut out = String::new();
    outln!(out, "{HEADER}");

    // Ground truth markers: the device values plus the taint source
    // names.
    let device = ndroid_dvm::framework::DeviceProfile::default();
    let mut values = vec![device.device_id, device.contact.1, device.last_sms];
    for (_, _, taint) in all_case_apps() {
        for name in taint.source_names() {
            if !values.contains(&name) {
                values.push(name);
            }
        }
    }

    let mut report = DetectionReport::new();
    for mode in modes {
        let config = opts.config(mode).quiet(true);
        let mut jobs = Cases.jobs(&config);
        jobs.push(farm::app_job("benign-game", config.clone(), benign::physics_game));
        jobs.push(farm::app_job("benign-license", config.clone(), benign::audio_license_check));
        jobs.push(farm::app_job("benign-dsp", config.clone(), benign::dsp_filter));
        for result in run_batch(jobs, opts.farm()).results {
            let run = result
                .outcome
                .report()
                .ok_or_else(|| format!("{} did not complete", result.label))?;
            let case = result.label.strip_prefix("case/").unwrap_or(&result.label);
            let markers: &[&str] = if case.starts_with("benign") { &[] } else { &values };
            report.push(collect_outcome(case, run, markers));
        }
    }
    outln!(out, "{}", report.render(&modes));

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
    outln!(out, "taintdroid detects: {taintdroid_detects:?} (paper: only case 1)");
    outln!(
        out,
        "ndroid detects:     {ndroid_detects}/{} leak cases (paper: all)",
        ndroid_leak_cases.len()
    );
    for o in report.outcomes().iter().filter(|o| o.detected()) {
        for l in &o.leaks {
            outln!(out, "  [{} / {}] {}", o.case, o.mode, describe_leak(l));
        }
    }
    Ok(out)
}

/// Fig. 3 (a–c): the first 40 NDroid trace events of every case app,
/// the step-by-step flow each scenario draws.
pub fn case_flows(opts: &Opts) -> Result<String, String> {
    let mut out = String::new();
    outln!(out, "{HEADER}");
    for (case, app, _) in all_case_apps() {
        let description = app.description.clone();
        let sys = app.run_with(opts.config(Mode::NDroid)).map_err(|e| format!("{case}: {e}"))?;
        outln!(out, "--- {case} ({description}) trace ---");
        for e in sys.trace.events().iter().take(40) {
            outln!(out, "  {e}");
        }
        outln!(out);
    }
    Ok(out)
}

/// Figs. 6–9: the QQPhoneBook, ePhone and PoC replicas under NDroid;
/// each analysis trace should match its figure structurally (same
/// hooks, same taint values, same sinks).
pub fn casestudies(opts: &Opts) -> Result<String, String> {
    let figures = [
        ("Fig. 6", qq_phonebook::qq_phonebook()),
        ("Fig. 7", ephone::ephone()),
        ("Fig. 8", poc_case2::poc_case2()),
        ("Fig. 9", poc_case3::poc_case3()),
    ];
    let mut out = String::new();
    for (figure, app) in figures {
        let name = app.name.clone();
        outln!(out, "== {figure}: {name} ==");
        outln!(out, "   {}\n", app.description);
        let sys = app.run_with(opts.config(Mode::NDroid)).map_err(|e| format!("{name}: {e}"))?;
        for event in sys.trace.events() {
            outln!(out, "  {event}");
        }
        outln!(out);
        if sys.leaks().is_empty() {
            outln!(out, "  -> no leak detected\n");
        }
        for leak in sys.leaks() {
            outln!(out, "  -> LEAK: {}", describe_leak(leak));
            outln!(out, "     data: {}", String::from_utf8_lossy(&leak.data));
        }
        if let Some(stats) = sys.ndroid_stats() {
            outln!(
                out,
                "     stats: {} insns traced, {} jni entries, {} source policies, {} chains",
                stats.insns_traced,
                stats.jni_entries,
                stats.source_policies,
                stats.chains_activated
            );
        }
        outln!(out, "\n{}\n", "=".repeat(72));
    }
    Ok(out)
}
