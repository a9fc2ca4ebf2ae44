//! The `ndroid` command-line tool: run the evaluation workloads under
//! any analysis configuration, inspect traces, and disassemble the
//! native libraries — the interactive face of the reproduction.

#![forbid(unsafe_code)]

use ndroid::apps::{self, App};
use ndroid::core::report::describe_leak;
use ndroid::core::Mode;

type AppEntry = (&'static str, fn() -> App);

fn registry() -> Vec<AppEntry> {
    vec![
        ("case1", apps::cases::case1 as fn() -> App),
        ("case1-prime", apps::cases::case1_prime),
        ("case1-prime-cb", apps::cases::case1_prime_callback),
        ("case2", apps::cases::case2),
        ("case3", apps::cases::case3),
        ("case4", apps::cases::case4),
        ("qq-phonebook", apps::qq_phonebook::qq_phonebook),
        ("ephone", apps::ephone::ephone),
        ("poc-case2", apps::poc_case2::poc_case2),
        ("poc-case3", apps::poc_case3::poc_case3),
        ("thumb-spy", apps::thumb_spy::thumb_spy),
        ("crypto-hider", apps::crypto_hider::crypto_hider),
        ("dyndex", apps::dyndex::dyndex_app),
        ("native-game", apps::pure_native::native_game_leaky),
        ("native-puzzle", apps::pure_native::native_game_benign),
        ("gated-sync", apps::driver::gated_leak_app),
        ("benign-game", apps::benign::physics_game),
        ("benign-license", apps::benign::audio_license_check),
        ("benign-dsp", apps::benign::dsp_filter),
    ]
}

fn find_app(name: &str) -> Option<App> {
    registry()
        .into_iter()
        .find(|(n, _)| *n == name)
        .map(|(_, f)| f())
}

fn parse_mode(s: &str) -> Option<Mode> {
    match s {
        "vanilla" => Some(Mode::Vanilla),
        "taintdroid" => Some(Mode::TaintDroid),
        "ndroid" => Some(Mode::NDroid),
        "droidscope" | "droidscope-like" => Some(Mode::DroidScopeLike),
        _ => None,
    }
}

fn usage() -> ! {
    eprintln!(
        "ndroid — dynamic taint analysis of JNI information flows (DSN'14 reproduction)

USAGE:
    ndroid list                         list the workload apps
    ndroid run <app> [<mode>]           run an app (mode: vanilla | taintdroid | ndroid | droidscope; default ndroid)
    ndroid trace <app>                  run under NDroid and print the full analysis trace
    ndroid disasm <app>                 disassemble the app's native library
    ndroid corpus                       print the §III market-study statistics
"
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("list") => {
            println!("{:<18} description", "app");
            println!("{}", "-".repeat(72));
            for (name, f) in registry() {
                let app = f();
                println!("{:<18} {}", name, app.description);
            }
        }
        Some("run") => {
            let Some(name) = args.get(1) else { usage() };
            let mode = args
                .get(2)
                .map(|m| parse_mode(m).unwrap_or_else(|| usage()))
                .unwrap_or(Mode::NDroid);
            let Some(app) = find_app(name) else {
                eprintln!("unknown app '{name}' (try `ndroid list`)");
                std::process::exit(1);
            };
            match app.run(mode) {
                Ok(sys) => {
                    println!("ran under {mode}:");
                    println!(
                        "  {} native instruction(s), {} bytecode(s), {} sink call(s)",
                        sys.native_insns(),
                        sys.bytecodes(),
                        sys.all_sink_events().len()
                    );
                    let leaks = sys.leaks();
                    if leaks.is_empty() {
                        println!("  no leaks detected");
                    }
                    for leak in leaks {
                        println!("  LEAK: {}", describe_leak(leak));
                        println!("        data: {}", String::from_utf8_lossy(&leak.data));
                    }
                    if let Some(stats) = sys.ndroid_stats() {
                        println!(
                            "  analysis: {} insns traced ({} cache-skipped), {} jni entries, {} source policies, {} chains",
                            stats.insns_traced,
                            stats.insns_skipped,
                            stats.jni_entries,
                            stats.source_policies,
                            stats.chains_activated
                        );
                    }
                }
                Err(e) => {
                    eprintln!("app failed: {e}");
                    std::process::exit(1);
                }
            }
        }
        Some("trace") => {
            let Some(name) = args.get(1) else { usage() };
            let Some(app) = find_app(name) else {
                eprintln!("unknown app '{name}'");
                std::process::exit(1);
            };
            match app.run(Mode::NDroid) {
                Ok(sys) => print!("{}", sys.trace.render()),
                Err(e) => {
                    eprintln!("app failed: {e}");
                    std::process::exit(1);
                }
            }
        }
        Some("disasm") => {
            let Some(name) = args.get(1) else { usage() };
            let Some(app) = find_app(name) else {
                eprintln!("unknown app '{name}'");
                std::process::exit(1);
            };
            let lib = app.lib_name.clone();
            let sys = app.launch(Mode::Vanilla);
            match sys.disassemble_module(&lib) {
                Some(lines) => {
                    println!("{lib}:");
                    for line in lines {
                        println!("  {line}");
                    }
                }
                None => eprintln!("no native library mapped"),
            }
        }
        Some("corpus") => {
            let config = ndroid::corpus::CorpusConfig::default();
            let stats = ndroid::corpus::classify(&ndroid::corpus::generate(&config));
            print!("{}", stats.render());
        }
        _ => usage(),
    }
}
