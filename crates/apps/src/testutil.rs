//! Test-support helpers shared by the pinned-gallery and adversarial
//! integration suites (`gallery_regression`, `oracle_gallery`,
//! `provenance_gallery`, `adversarial_regression`): the pinned gallery
//! list, engine/provenance run wrappers, the engine bit-identity
//! assertion, and the provenance path-coverage assertion.
//!
//! Not `#[cfg(test)]`-gated because integration tests link the crate
//! externally; production code has no reason to call these.

use crate::builder::{App, NamedApp};
use ndroid_core::analysis::AnalysisStats;
use ndroid_core::{
    EngineKind, FlowGraph, Mode, NDroidSystem, ProvEvent, ProvenanceLevel, RunReport, SystemConfig,
};
use ndroid_dvm::Taint;

/// The pinned case-study gallery: name ↔ constructor.
pub const GALLERY: [NamedApp; 3] = [
    ("qq_phonebook", crate::qq_phonebook::qq_phonebook),
    ("thumb_spy", crate::thumb_spy::thumb_spy),
    ("crypto_hider", crate::crypto_hider::crypto_hider),
];

/// Builds and runs an app under plain NDroid mode.
pub fn run_ndroid(build: impl Fn() -> App) -> NDroidSystem {
    build().run(Mode::NDroid).expect("app run")
}

/// Builds and runs an app under NDroid with the given tracer engine,
/// returning its report.
pub fn run_engine(build: impl Fn() -> App, engine: EngineKind) -> RunReport {
    build()
        .run_with(SystemConfig::ndroid().engine(engine))
        .expect("engine run")
        .report()
}

/// Builds and runs an app under NDroid with the given engine and
/// provenance recording level.
pub fn run_prov(
    build: impl Fn() -> App,
    engine: EngineKind,
    level: ProvenanceLevel,
) -> NDroidSystem {
    build()
        .run_with(SystemConfig::ndroid().engine(engine).provenance(level))
        .expect("app runs")
}

/// Builds and runs an app with the given provenance segment size —
/// small capacities force segment sealing on the short gallery
/// streams.
pub fn run_store(
    build: impl Fn() -> App,
    engine: EngineKind,
    level: ProvenanceLevel,
    capacity: usize,
) -> NDroidSystem {
    build()
        .run_with(
            SystemConfig::ndroid()
                .engine(engine)
                .provenance(level)
                .provenance_capacity(capacity),
        )
        .expect("app runs")
}

/// Runs the three tracer configurations — the optimized engine with
/// superblock dispatch (the default), the optimized engine stepping
/// per instruction (`blocks(false)`), and the reference engine —
/// asserts their reports agree on everything externally observable,
/// and returns the reference-engine report for pinned-leak checks.
pub fn assert_reports_match(build: impl Fn() -> App, name: &str) -> RunReport {
    let opt = run_engine(&build, EngineKind::Optimized);
    let stepper = build()
        .run_with(SystemConfig::ndroid().blocks(false))
        .expect("blocks-off run")
        .report();
    let reference = run_engine(&build, EngineKind::Reference);
    assert_eq!(opt.engine, EngineKind::Optimized);
    assert_eq!(
        reference.engine,
        EngineKind::Reference,
        "{name}: reference engine must actually be installed"
    );

    assert_eq!(
        opt.sink_events, reference.sink_events,
        "{name}: sink-event reports diverge between engines"
    );
    assert_eq!(
        opt.network_log, reference.network_log,
        "{name}: network logs diverge between engines"
    );
    assert_eq!(
        opt.violations, reference.violations,
        "{name}: protection violations diverge between engines"
    );
    assert_eq!(
        (opt.native_insns, opt.bytecodes),
        (reference.native_insns, reference.bytecodes),
        "{name}: engines executed different instruction counts"
    );
    // Superblock dispatch vs the per-instruction stepper on the same
    // optimized engine: block compilation must be invisible to every
    // externally observable result.
    assert_eq!(
        opt.sink_events, stepper.sink_events,
        "{name}: sink-event reports diverge between blocks on/off"
    );
    assert_eq!(
        opt.network_log, stepper.network_log,
        "{name}: network logs diverge between blocks on/off"
    );
    assert_eq!(
        opt.violations, stepper.violations,
        "{name}: protection violations diverge between blocks on/off"
    );
    assert_eq!(
        (opt.native_insns, opt.bytecodes),
        (stepper.native_insns, stepper.bytecodes),
        "{name}: blocks on/off executed different instruction counts"
    );
    // Both modes trace through the same lowered steps, so every
    // analysis counter but the block cache's own must agree.
    let without_block_counters = |r: &RunReport| {
        r.stats.clone().map(|s| AnalysisStats {
            block_hits: 0,
            block_misses: 0,
            block_invalidations: 0,
            blocks_built: 0,
            ..s
        })
    };
    assert_eq!(
        without_block_counters(&opt),
        without_block_counters(&stepper),
        "{name}: analysis stats diverge between blocks on/off"
    );
    reference
}

/// For every pinned leak the graph holds a matching `Sink` event with a
/// non-empty path per label bit, starting at a `Source` that carries
/// that bit and ending at the sink itself.
pub fn assert_paths_cover_pinned_leaks(name: &str, sys: &NDroidSystem, graph: &FlowGraph) {
    let leaks = sys.leaks();
    assert!(!leaks.is_empty(), "{name}: app must leak");
    for leak in leaks {
        let sink_idx = graph
            .events()
            .iter()
            .position(|e| {
                matches!(e, ProvEvent::Sink { sink, dest, label, .. }
                    if *sink == leak.sink && *dest == leak.dest && *label == leak.taint.0)
            })
            .unwrap_or_else(|| {
                panic!("{name}: no Sink event matches pinned leak {leak:?}")
            });
        let paths = graph.leak_paths(sink_idx);
        assert_eq!(
            paths.len(),
            leak.taint.0.count_ones() as usize,
            "{name}: one path per label bit"
        );
        for path in &paths {
            assert!(
                leak.taint.contains(Taint(path.label)),
                "{name}: path label {:#x} within the leak label",
                path.label
            );
            assert!(path.nodes.len() >= 2, "{name}: path spans source to sink");
            assert_eq!(*path.nodes.last().unwrap(), sink_idx);
            let first = &graph.events()[path.nodes[0]];
            assert!(
                matches!(first, ProvEvent::Source { label, .. } if label & path.label != 0),
                "{name}: path for bit {:#x} must start at a Source, got {}",
                path.label,
                first.canonical()
            );
        }
    }
}
