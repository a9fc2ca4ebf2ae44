//! The farm and provenance gates: batch and snapshot determinism, the
//! adversarial corpus score, and the leak-path and fleet-query
//! transcripts.

use ndroid_apps::adversarial::{corpus, expected_leak};
use ndroid_apps::farm::{Adversarial, CorpusShard, Gallery, Monkey};
use ndroid_apps::{crypto_hider, qq_phonebook, thumb_spy};
use ndroid_core::batch::{jobs_from, run_batch, run_inline, BatchReport, JobSource};
use ndroid_core::{score_batch, EventKind, FlowGraph, ProvQuery, ProvenanceLevel};
use ndroid_dvm::Taint;

use crate::Opts;

/// The pinned corpus shard the batch gate analyzes.
const SHARD: CorpusShard = CorpusShard { n: 32, seed: 0xD514 };

/// Monkey sessions the snapshot gate fans out, their length and seed.
const SESSIONS: usize = 1000;
const STEPS: usize = 25;
const BASE_SEED: u64 = 0x5EED;

/// `Err` unless `a` and `b` agree field for field and in rendering.
fn same(what: &str, a: &BatchReport, b: &BatchReport) -> Result<(), String> {
    let why = match crate::first_diff(&a.render(), &b.render()) {
        Some(why) => why,
        None if a != b => "reports differ, renders agree".into(),
        None => return Ok(()),
    };
    Err(format!("{what} DIVERGED: {why}"))
}

/// `Err` unless every job in `report` completed.
fn all_completed(report: &BatchReport) -> Result<(), String> {
    if report.completed() == report.results.len() {
        Ok(())
    } else {
        Err("not every job completed".into())
    }
}

/// The gallery and the pinned corpus shard run sequentially through the
/// inline reference and through the farm at `--workers`; the merged
/// `BatchReport`s must be byte-identical.
pub fn batch(opts: &Opts) -> Result<String, String> {
    let jobs = || jobs_from(&[&Gallery, &SHARD], &opts.quiet());
    let mut out = String::new();
    outln!(out, "== batch farm determinism: gallery + {}-sample corpus shard ==", SHARD.n);
    let sequential = run_inline(jobs());
    let parallel = run_batch(jobs(), opts.farm());
    out.push_str(&sequential.render());
    same("sequential vs parallel merge", &sequential, &parallel)?;
    all_completed(&sequential)?;
    outln!(out, "\nsequential vs parallel merge: reports IDENTICAL / renders byte-identical");
    Ok(out)
}

/// 1000 monkey schedules over the gated-leak app, re-booting a fresh
/// system per session through the inline reference and forking every
/// session from one warmed copy-on-write image per worker at
/// `--workers`; the merges must be byte-identical.
pub fn snapshot(opts: &Opts) -> Result<String, String> {
    let config = opts.quiet();
    let mut out = String::new();
    outln!(out, "== snapshot fan-out determinism: {SESSIONS} monkey sessions x {STEPS} steps ==");
    let rebooted = run_inline(Monkey::fresh(SESSIONS, STEPS, BASE_SEED).jobs(&config));
    let forked = run_batch(Monkey::forked(SESSIONS, STEPS, BASE_SEED).jobs(&config), opts.farm());
    outln!(
        out,
        "re-booted: {} completed, {} leaking | forked: {} completed, {} leaking",
        rebooted.completed(),
        rebooted.leaking(),
        forked.completed(),
        forked.leaking(),
    );
    same("re-boot-per-session vs fork-from-image", &forked, &rebooted)?;
    if rebooted.completed() != SESSIONS {
        return Err("not every session completed".into());
    }
    outln!(
        out,
        "re-boot-per-session vs fork-from-image: reports IDENTICAL / renders byte-identical"
    );
    Ok(out)
}

/// Every reconstructed source→sink path of `graph`, one `[label] path`
/// line each, in sink order then bit order.
fn leak_paths(graph: &FlowGraph) -> String {
    let mut out = String::new();
    for sink in graph.sinks() {
        for path in graph.leak_paths(sink) {
            outln!(out, "[{}] {}", Taint::bit_name(path.label), graph.render_path(&path));
        }
    }
    out
}

/// The adversarial corpus (detour, interwork, rewrite, mutation and
/// benign families) through the farm at `--workers`, which must merge
/// byte-identically to the inline reference, then scored against its
/// ground truth: recall 1.0 on taint-preserving cases and precision 1.0
/// on taint-killing and benign ones, or the gate fails. Then every
/// case's leak paths at `Level::Full`.
pub fn adversarial(opts: &Opts) -> Result<String, String> {
    let batch = run_batch(Adversarial.jobs(&opts.quiet()), opts.farm());
    same("farm vs inline merge", &batch, &run_inline(Adversarial.jobs(&opts.quiet())))?;
    let score = score_batch(&batch, expected_leak);
    let mut out = score.render();
    if !score.perfect() {
        return Err(format!("adversarial corpus NOT scored perfectly:\n{out}"));
    }
    outln!(out);
    let config = opts.quiet().provenance(ProvenanceLevel::Full);
    for case in corpus() {
        let label = &case.label;
        let sys = case.build().run_with(config.clone()).map_err(|e| format!("{label}: {e}"))?;
        let graph = sys.flow_graph();
        match graph.total_leak_paths() {
            0 => outln!(out, "== {label}: clean, 0 leak paths =="),
            total => {
                outln!(out, "== {label}: {total} leak paths ==");
                out.push_str(&leak_paths(&graph));
            }
        }
    }
    Ok(out)
}

/// Each pinned gallery app at `Level::Full`: its event count, leak-path
/// count and provenance fingerprint, then every leak path.
pub fn provenance(opts: &Opts) -> Result<String, String> {
    let gallery = [
        ("qq_phonebook", qq_phonebook::qq_phonebook()),
        ("thumb_spy", thumb_spy::thumb_spy()),
        ("crypto_hider", crypto_hider::crypto_hider()),
    ];
    let mut out = String::new();
    for (name, app) in gallery {
        let sys = app
            .run_with(opts.quiet().provenance(ProvenanceLevel::Full))
            .map_err(|e| format!("{name}: {e}"))?;
        let graph = sys.flow_graph();
        let store = sys.report().provenance_store.ok_or("no provenance store")?;
        outln!(
            out,
            "== {name}: {} events, {} leak paths (fingerprint {:#018x}) ==",
            graph.events().len(),
            graph.total_leak_paths(),
            store.fingerprint(),
        );
        out.push_str(&leak_paths(&graph));
    }
    Ok(out)
}

/// The gallery and adversarial corpus through the farm with provenance
/// segments sealing at capacity 4: each job's tier counters (events
/// recorded, segments sealed), then a fixed set of cross-run
/// [`ProvQuery`]s.
pub fn prov_query(opts: &Opts) -> Result<String, String> {
    let config = opts.quiet().provenance(ProvenanceLevel::Full).provenance_capacity(4);
    let batch = run_batch(jobs_from(&[&Gallery, &Adversarial], &config), opts.farm());

    let mut out = String::new();
    outln!(out, "== tier counters ==");
    for r in &batch.results {
        let p = r
            .outcome
            .report()
            .and_then(|rep| rep.provenance)
            .ok_or_else(|| format!("{} carries no provenance summary", r.label))?;
        outln!(
            out,
            "{:<44} recorded={:<4} segments={}",
            r.label,
            p.recorded,
            p.segments
        );
    }

    let queries: [(&str, ProvQuery); 6] = [
        ("label 0x2", ProvQuery::new().label(0x2)),
        ("label 0x200", ProvQuery::new().label(0x200)),
        ("kind sink", ProvQuery::new().kind(EventKind::Sink)),
        ("sources in seq 0..8", ProvQuery::new().kind(EventKind::Source).seq_range(0, 8)),
        ("sink send", ProvQuery::new().sink("send")),
        (
            "sink HttpClient.post carrying 0x202",
            ProvQuery::new().sink("HttpClient.post").label(0x202),
        ),
    ];
    for (desc, q) in &queries {
        outln!(out, "\n== query: {desc} ==");
        out.push_str(&batch.query(q).render());
    }
    Ok(out)
}
