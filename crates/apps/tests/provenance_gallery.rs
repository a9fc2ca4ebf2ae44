//! Gallery leak-path pins for the provenance subsystem: each pinned
//! gallery leak must be reconstructible as a non-empty source→sink
//! path whose endpoints match the pinned [`LeakEvent`]s, identically
//! across tracer engines (the differential-oracle guarantee extends to
//! the event stream) and at both recording levels.

use ndroid_apps::qq_phonebook;
use ndroid_apps::testutil::{assert_paths_cover_pinned_leaks, run_prov as run, run_store, GALLERY};
use ndroid_core::{EngineKind, ProvEvent, ProvenanceLevel, SystemConfig};
use ndroid_provenance::{Name, SinkCtx};

#[test]
fn gallery_leak_paths_reconstruct_under_full() {
    for (name, build) in GALLERY {
        let sys = run(build, EngineKind::Optimized, ProvenanceLevel::Full);
        let graph = sys.flow_graph();
        assert_paths_cover_pinned_leaks(name, &sys, &graph);
        // Full level additionally carries native block summaries.
        assert!(
            graph
                .events()
                .iter()
                .any(|e| matches!(e, ProvEvent::NativeBlock { .. })),
            "{name}: Full level records native block summaries"
        );
    }
}

/// One sink log in run order: each sink call in the recorder's log has
/// exactly one `Sink` event, in the same order, and the report lists
/// the log's Java entries, then its native ones.
#[test]
fn sink_log_mirrors_sink_events_in_run_order() {
    for (name, build) in GALLERY {
        let sys = run(build, EngineKind::Optimized, ProvenanceLevel::Full);
        let log = sys.provenance().sinks();
        let from_log: Vec<_> = (log.iter())
            .map(|e| (Name::Static(e.sink), e.dest.clone(), e.taint.0, e.context))
            .collect();
        let from_events: Vec<_> = (sys.prov_events().into_iter())
            .filter_map(|ev| match ev {
                ProvEvent::Sink { sink, dest, label, ctx } => Some((sink, dest, label, ctx)),
                _ => None,
            })
            .collect();
        assert!(!from_log.is_empty(), "{name}: the app reaches a sink");
        assert_eq!(from_log, from_events, "{name}: sink log and Sink events differ");

        let in_ctx = |c: SinkCtx| log.iter().filter(move |e| e.context == c).cloned();
        let java_then_native: Vec<_> =
            in_ctx(SinkCtx::Java).chain(in_ctx(SinkCtx::Native)).collect();
        assert_eq!(sys.report().sink_events, java_then_native, "{name}: report order");
    }
}

#[test]
fn gallery_leak_paths_reconstruct_under_summary() {
    for (name, build) in GALLERY {
        let sys = run(build, EngineKind::Optimized, ProvenanceLevel::Summary);
        let graph = sys.flow_graph();
        assert_paths_cover_pinned_leaks(name, &sys, &graph);
        assert!(
            !graph
                .events()
                .iter()
                .any(|e| matches!(e, ProvEvent::NativeBlock { .. })),
            "{name}: Summary level omits per-block events"
        );
    }
}

#[test]
fn engines_record_identical_event_streams() {
    for level in [ProvenanceLevel::Summary, ProvenanceLevel::Full] {
        for (name, build) in GALLERY {
            let opt = run(build, EngineKind::Optimized, level);
            let stepper = build()
                .run_with(SystemConfig::ndroid().blocks(false).provenance(level))
                .expect("blocks-off run");
            let refr = run(build, EngineKind::Reference, level);
            for (engine, other) in [("stepper", &stepper), ("reference", &refr)] {
                assert_eq!(
                    opt.prov_events(),
                    other.prov_events(),
                    "{name} at {level}: {engine} changed the event stream"
                );
                assert_eq!(
                    opt.flow_graph().fingerprint(),
                    other.flow_graph().fingerprint(),
                    "{name} at {level}: {engine} changed the flow graph"
                );
            }
        }
    }
}

#[test]
fn report_summary_digests_the_graph() {
    for (name, build) in GALLERY {
        let sys = run(build, EngineKind::Optimized, ProvenanceLevel::Full);
        let graph = sys.flow_graph();
        let report = sys.report();
        let summary = report.provenance.expect("Full run carries a summary");
        let store = report.provenance_store.expect("Full run carries a store");
        assert_eq!(summary.level, ProvenanceLevel::Full, "{name}");
        assert_eq!(store.fingerprint(), graph.fingerprint(), "{name}");
        assert_eq!(summary.leak_paths, graph.total_leak_paths(), "{name}");
        assert_eq!(summary.recorded, graph.events().len() as u64, "{name}");
        assert!(summary.leak_paths > 0, "{name}: at least one leak path");
    }
}

#[test]
fn off_level_records_nothing_and_reports_none() {
    for (name, build) in GALLERY {
        let sys = run(build, EngineKind::Optimized, ProvenanceLevel::Off);
        assert!(sys.prov_events().is_empty(), "{name}");
        assert_eq!(sys.flow_graph().total_leak_paths(), 0, "{name}");
        let report = sys.report();
        assert!(report.provenance.is_none(), "{name}: Off reports no summary");
        assert!(report.provenance_store.is_none(), "{name}: Off carries no store");
        assert!(report.leaked(), "{name}: detection itself is unaffected");
    }
}

/// The segment size is invisible to every golden — same events, same
/// fingerprint, same leak paths.
#[test]
fn sealing_store_preserves_goldens() {
    for (name, build) in GALLERY {
        let sys = run_store(build, EngineKind::Optimized, ProvenanceLevel::Full, 4);
        let graph = sys.flow_graph();
        let report = sys.report();
        let summary = report.provenance.expect("Full run carries a summary");
        let store = report
            .provenance_store
            .as_ref()
            .expect("Full run carries its store");
        assert_eq!(store.fingerprint(), graph.fingerprint(), "{name}");
        assert_eq!(summary.leak_paths, graph.total_leak_paths(), "{name}");
        assert!(summary.segments >= 3, "{name}: capacity 4 forces sealing");

        // The frozen store in the report reproduces the stream exactly.
        assert_eq!(store.events_vec(), sys.prov_events(), "{name}");
    }
}

/// Every recording run carries its store: at the default segment
/// size the frozen store in the report holds exactly the recorded
/// stream, all of it still in the unsealed tail.
#[test]
fn every_recording_run_carries_its_store() {
    for level in [ProvenanceLevel::Summary, ProvenanceLevel::Full] {
        for (name, build) in GALLERY {
            let sys = run(build, EngineKind::Optimized, level);
            let report = sys.report();
            let store = report
                .provenance_store
                .as_ref()
                .expect("non-Off run carries a store");
            assert_eq!(store.events_vec(), sys.prov_events(), "{name} at {level}");
            assert_eq!(store.segments().len(), 0, "{name}: gallery runs fit one segment");
            assert_eq!(report.provenance.expect("summary").segments, 0, "{name}");
        }
    }
}

#[test]
fn qq_phonebook_path_walks_the_jni_round_trip() {
    // The paper's Fig. 6 flow, reconstructed: contacts + SMS enter as
    // Java sources, cross into native through GetStringUTFChars, ride
    // the libc string machinery, return through NewStringUTF, and post
    // from Java with the 0x202 union label.
    let sys = run(
        qq_phonebook::qq_phonebook,
        EngineKind::Optimized,
        ProvenanceLevel::Full,
    );
    let graph = sys.flow_graph();
    let sink = *graph.sinks().last().expect("sink recorded");
    let paths = graph.leak_paths(sink);
    assert_eq!(paths.len(), 2, "one path for contacts, one for sms");
    for path in &paths {
        let rendered = graph.render_path(path);
        assert!(rendered.contains("source "), "{rendered}");
        assert!(rendered.contains("jni-entry "), "{rendered}");
        assert!(
            rendered.contains("transfer GetStringUTFChars java->native"),
            "{rendered}"
        );
        assert!(rendered.contains("libc "), "{rendered}");
        assert!(
            rendered.contains("transfer NewStringUTF native->java"),
            "{rendered}"
        );
        assert!(rendered.contains("jni-exit "), "{rendered}");
        assert!(
            rendered.contains("sink HttpClient.post(sync.3g.qq.com) [java]"),
            "{rendered}"
        );
    }
}
