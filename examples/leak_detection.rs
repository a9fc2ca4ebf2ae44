//! Leak-detection tour: run every information-flow scenario of the
//! paper's Table I plus the real-app replicas (Figs. 6–9) under both
//! TaintDroid-only and NDroid, and print the detection matrix and the
//! per-leak details.
//!
//! ```sh
//! cargo run --example leak_detection
//! ```

use ndroid::apps::{all_case_apps, ephone, poc_case2, poc_case3, qq_phonebook};
use ndroid::core::report::describe_leak;
use ndroid::core::Mode;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("=== Table I — the five {{source, intermediate, sink}} cases ===\n");
    println!("{:<10} {:<42} {:<12} {:<12}", "case", "flow", "taintdroid", "ndroid");
    for (case, _, _) in all_case_apps() {
        let (desc, td, nd) = {
            let apps = all_case_apps();
            let (_, app_td, _) = apps
                .into_iter()
                .find(|(c, _, _)| *c == case)
                .expect("case exists");
            let desc = app_td.description.clone();
            let td = !app_td.run(Mode::TaintDroid)?.leaks().is_empty();
            let apps = all_case_apps();
            let (_, app_nd, _) = apps
                .into_iter()
                .find(|(c, _, _)| *c == case)
                .expect("case exists");
            let nd = !app_nd.run(Mode::NDroid)?.leaks().is_empty();
            (desc, td, nd)
        };
        let cell = |b: bool| if b { "detected" } else { "MISSED" };
        println!("{case:<10} {desc:<42} {:<12} {:<12}", cell(td), cell(nd));
    }

    println!("\n=== Real-app replicas (Figs. 6–9) under NDroid ===\n");
    for (fig, app) in [
        ("Fig. 6", qq_phonebook::qq_phonebook()),
        ("Fig. 7", ephone::ephone()),
        ("Fig. 8", poc_case2::poc_case2()),
        ("Fig. 9", poc_case3::poc_case3()),
    ] {
        let name = app.name.clone();
        let sys = app.run(Mode::NDroid)?;
        for leak in sys.leaks() {
            println!("{fig} {name:<16} {}", describe_leak(leak));
            println!("{:>24} data: {}", "", truncate(&String::from_utf8_lossy(&leak.data), 60));
        }
    }
    Ok(())
}

fn truncate(s: &str, n: usize) -> String {
    if s.len() <= n {
        s.to_string()
    } else {
        format!("{}…", &s[..n])
    }
}
