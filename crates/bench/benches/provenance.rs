//! Provenance recording overhead: the three gallery apps run end to
//! end at every [`ProvenanceLevel`], plus a pure-native Thumb workload
//! (the tracer hot path the `Off` contract protects). Writes
//! `BENCH_provenance.json`; `TESTKIT_BENCH_SMOKE=1` runs a minimal
//! pass.
//!
//! Interpreting the numbers: `gallery/off` must sit within measurement
//! noise of `gallery/baseline` (a config that never mentions
//! provenance) — `Level::Off` leaves the handle's store unallocated, so
//! the hot path pays exactly one null-check branch per potential
//! emission. `summary` adds boundary/libc/sink events only; `full`
//! additionally aggregates per-basic-block native summaries, so it is
//! the upper bound.

use ndroid_apps::App;
use ndroid_core::{ProvEvent, ProvHandle, ProvQuery, ProvenanceLevel, SystemConfig};
use ndroid_testkit::bench::{black_box, Suite};

const GALLERY: [fn() -> App; 3] = [
    ndroid_apps::qq_phonebook::qq_phonebook,
    ndroid_apps::thumb_spy::thumb_spy,
    ndroid_apps::crypto_hider::crypto_hider,
];

fn run_gallery(config: &SystemConfig) {
    for build in GALLERY {
        let sys = build().run_with(config.clone()).expect("gallery app runs");
        black_box(sys.report());
    }
}

fn main() {
    let mut suite = Suite::new("provenance");
    // A config that never touches the provenance knob: the pre-subsystem
    // behavior, for the zero-cost comparison.
    suite.bench("gallery/baseline", || {
        run_gallery(&SystemConfig::ndroid().quiet(true));
    });
    for (tag, level) in [
        ("off", ProvenanceLevel::Off),
        ("summary", ProvenanceLevel::Summary),
        ("full", ProvenanceLevel::Full),
    ] {
        let config = SystemConfig::ndroid().quiet(true).provenance(level);
        suite.bench(&format!("gallery/{tag}"), || {
            run_gallery(&config);
        });
    }
    // The Full level's flow-graph construction and path query, isolated
    // from the runs themselves.
    let sys = GALLERY[0]()
        .run_with(
            SystemConfig::ndroid()
                .quiet(true)
                .provenance(ProvenanceLevel::Full),
        )
        .expect("gallery app runs");
    let events = sys.prov_events();
    suite.bench("graph/build_and_query", || {
        let graph = ndroid_core::FlowGraph::build(&events);
        black_box(graph.total_leak_paths());
        black_box(graph.fingerprint());
    });
    // The digest path a finished analysis pays: the report (freeze,
    // fingerprint, leak-path count) and then the flow graph's count,
    // straight from the system's recorder.
    suite.bench("graph/from_handle", || {
        black_box(sys.report());
        black_box(sys.flow_graph().total_leak_paths());
    });

    // Store costs, isolated: a realistic 4096-event stream
    // (the three gallery streams concatenated and cycled, so string
    // interning sees real name reuse) sealed into 1024-event segments.
    let stream: Vec<ProvEvent> = {
        let mut all = Vec::new();
        for build in GALLERY {
            let sys = build()
                .run_with(
                    SystemConfig::ndroid()
                        .quiet(true)
                        .provenance(ProvenanceLevel::Full),
                )
                .expect("gallery app runs");
            all.extend(sys.prov_events());
        }
        all.iter().cycle().take(4096).cloned().collect()
    };
    // The sealing point is the push after the last full segment, so a
    // trailing event seals all 4096.
    let record = || {
        let h = ProvHandle::with_capacity(ProvenanceLevel::Full, 1024);
        for ev in stream.iter().chain(&stream[..1]) {
            h.emit(ev.clone());
        }
        h
    };
    suite.bench("store/seal", || {
        black_box(record().recorded());
    });
    let seal_median_ns = suite.results().last().expect("just benched").median_ns;

    let frozen = record().freeze().expect("Full run has a store");
    suite.bench("store/decode", || {
        black_box(frozen.events_vec());
    });
    // A label query is one scan: every segment decoded, every event
    // matched.
    suite.bench("store/query_label", || {
        black_box(ProvQuery::new().label(0x202).run(&frozen));
    });

    // The gate's derived scalars: wire bytes per sealed event (must
    // stay at or under 40% of the in-memory ProvEvent size) and seal
    // throughput implied by the measured median.
    let sealed: usize = frozen.segments().iter().map(|s| s.len()).sum();
    let bytes_per_event = frozen.encoded_size() as f64 / sealed as f64;
    let bound = 0.4 * std::mem::size_of::<ProvEvent>() as f64;
    assert!(
        bytes_per_event <= bound,
        "sealed encoding too fat: {bytes_per_event:.1} bytes/event (bound {bound:.1})"
    );
    suite.metric("bytes_per_event", bytes_per_event, "bytes");
    suite.metric(
        "events_per_sec",
        stream.len() as f64 * 1e9 / seal_median_ns,
        "events/s",
    );
    suite.finish();
}
