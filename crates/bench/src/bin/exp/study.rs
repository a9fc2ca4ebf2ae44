//! The market study and the driving methodology: §III / Fig. 2, the §VI
//! manual survey, and §VI / §VII random vs. manual input.

use ndroid_apps::driver::{drive, gated_leak_app};
use ndroid_apps::farm::{self, CorpusShard, Monkey};
use ndroid_apps::qq_phonebook::qq_phonebook;
use ndroid_apps::survey::survey_apps;
use ndroid_core::batch::{run_batch, JobSource};
use ndroid_core::{Mode, ProvEvent, ProvenanceLevel};
use ndroid_corpus::{classify, generate, CorpusConfig, JniType};
use ndroid_dvm::Taint;

use crate::Opts;

/// The pinned Type-I shard the corpus experiment analyzes.
const SHARD_SIZE: usize = 32;
const SHARD_SEED: u64 = 0xD514;

/// §III + Fig. 2: regenerates every published number from the
/// calibrated synthetic corpus (227,911 apps; 37,506 Type I; 1,738
/// Type II, 394 loadable; 16 Type III; 4,034 lib-less Type I apps with
/// 48.1% AdMob; the Game-dominated categories; the library ranking),
/// then runs a pinned 32-sample Type-I shard through NDroid on the farm
/// and scores each verdict against the sample's ground truth. Every
/// sample must agree.
pub fn corpus(opts: &Opts) -> Result<String, String> {
    let config = CorpusConfig::default();
    let mut out = String::new();
    outln!(out, "== §III — analysis of apps using JNI ==");
    outln!(
        out,
        "generating calibrated corpus (n = {}, seed = {:#x}) …\n",
        config.total,
        config.seed
    );
    let stats = classify(&generate(&config));
    outln!(out, "{}", stats.render());

    outln!(out, "paper-vs-measured:");
    let rows = [
        ("total apps", 227_911usize, stats.total),
        ("type I", 37_506, stats.type1),
        ("type II", 1_738, stats.type2),
        ("type II loadable", 394, stats.type2_loadable),
        ("type III", 16, stats.type3),
        ("type I without libs", 4_034, stats.type1_without_libs),
    ];
    for (name, paper, measured) in rows {
        let status = if paper == measured { "match" } else { "DIFF" };
        outln!(out, "  {name:<22} paper {paper:>7}   measured {measured:>7}   [{status}]");
    }
    outln!(
        out,
        "  {:<22} paper {:>6.2}%   measured {:>6.2}%",
        "native fraction",
        16.46,
        100.0 * stats.native_fraction
    );
    outln!(
        out,
        "  {:<22} paper {:>6.1}%   measured {:>6.1}%",
        "AdMob fraction",
        48.1,
        100.0 * stats.admob_fraction
    );
    let game_pct = stats
        .category_histogram
        .first()
        .map(|(_, n)| 100.0 * *n as f64 / stats.type1 as f64)
        .unwrap_or(0.0);
    outln!(
        out,
        "  {:<22} paper {:>6.1}%   measured {:>6.1}%   (Fig. 2)",
        "Game category",
        42.0,
        game_pct
    );

    outln!(
        out,
        "\n== farm: analyzing a {SHARD_SIZE}-sample Type-I shard (seed {SHARD_SEED:#x}) =="
    );
    let jobs = CorpusShard { n: SHARD_SIZE, seed: SHARD_SEED }.jobs(&opts.quiet());
    let batch = run_batch(jobs, opts.farm());
    out.push_str(&batch.render());

    let shard = generate(&farm::shard_corpus_config(SHARD_SIZE, SHARD_SEED));
    let truth: Vec<bool> = shard
        .iter()
        .filter(|r| r.jni_type() == JniType::TypeI && !r.native_libs.is_empty())
        .take(SHARD_SIZE)
        .map(|r| farm::spec_for_record(r).leak)
        .collect();
    let agree = batch
        .results
        .iter()
        .zip(&truth)
        .filter(|(result, &leak)| result.outcome.report().map(|r| r.leaked()) == Some(leak))
        .count();
    outln!(
        out,
        "\nground-truth agreement: {agree}/{} samples (leak specs detected, decoy specs clean)",
        truth.len()
    );
    if agree != truth.len() {
        return Err(format!("{agree}/{} shard verdicts agree with ground truth", truth.len()));
    }
    Ok(out)
}

/// §VI: eight manually driven apps; NDroid finds three delivering
/// contact or SMS data to native code (a JNI entry whose argument
/// label carries either bit) and one, ePhone, leaking it.
pub fn survey(opts: &Opts) -> Result<String, String> {
    let private = Taint::CONTACTS | Taint::SMS;
    let config = opts.config(Mode::NDroid).provenance(ProvenanceLevel::Summary);
    let mut out = String::new();
    outln!(out, "== §VI — manually driven apps ==\n");
    let (mut delivered, mut leaked) = (0, 0);
    for (i, entry) in survey_apps().into_iter().enumerate() {
        let name = entry.app.name.clone();
        let sys = entry.app.run_with(config.clone()).map_err(|e| format!("{name}: {e}"))?;
        let delivers = sys.prov_events().iter().any(|ev| {
            matches!(ev, ProvEvent::JniEntry { label, .. } if Taint(*label).intersects(private))
        });
        let leaks = sys.leaks().iter().any(|l| l.taint.intersects(private));
        delivered += usize::from(delivers || leaks);
        leaked += usize::from(leaks);
        outln!(
            out,
            "  app {:>2}: {:<18} delivers-to-native: {:<5}  leaks: {}",
            i + 1,
            name,
            delivers || leaks,
            leaks
        );
    }
    outln!(out);
    outln!(out, "delivered contact/SMS to native code: {delivered} (paper: 3)");
    outln!(out, "leaked through native code:           {leaked} (paper: 1, ePhone)");
    Ok(out)
}

/// §VI / §VII: Monkeyrunner-style random input vs. manual (directed)
/// input. Random driving across the corpus surfaced only QQPhoneBook's
/// leak, and §VII concedes that "simple tools like monkeyrunner cannot
/// enumerate all possible paths in an app". The random trials run as
/// farm jobs, one monkey session per seed.
pub fn monkey(opts: &Opts) -> Result<String, String> {
    let mut out = String::new();
    outln!(out, "== §VI / §VII — input generation and path coverage ==\n");

    // QQPhoneBook: its leak sits on the main login path, so even random
    // driving that happens to call login() finds it.
    let mut sys = qq_phonebook().launch_with(opts.config(Mode::NDroid));
    let events = 3;
    let report = drive(&mut sys, "Lcom/tencent/tccsync/LoginUtil;", &["login"], events, 0xD514);
    outln!(
        out,
        "QQPhoneBook under random driving ({events} events): {} leak(s) found",
        report.report.leaks().len()
    );

    // The gated app: the leak needs enableSync before doSync.
    outln!(out, "\ngated-sync app (leak requires a 2-step sequence):");
    let trials = 50;
    for steps in [1usize, 2, 5, 20, 100] {
        let batch = run_batch(Monkey::fresh(trials, steps, 1).jobs(&opts.quiet()), opts.farm());
        let found = batch.leaking();
        outln!(
            out,
            "  {steps:>3} random events: leak found in {found:>2}/{trials} trials ({:>3.0}%)",
            100.0 * found as f64 / trials as f64
        );
    }

    // Manual (directed) input always finds it.
    let mut sys = gated_leak_app().launch_with(opts.config(Mode::NDroid));
    for method in ["enableSync", "doSync"] {
        sys.run_java("Lapp/Sync;", method, &[]).map_err(|e| format!("{method}: {e}"))?;
    }
    outln!(
        out,
        "\nmanual driving (enableSync; doSync): {} leak(s) — the §VI manual phase",
        sys.report().leaks().len()
    );
    outln!(
        out,
        "\nconclusion (matches §VII): random input under-covers multi-step\n\
         paths; detection quality is bounded by the input generator, not\n\
         by the taint tracker."
    );
    Ok(out)
}
