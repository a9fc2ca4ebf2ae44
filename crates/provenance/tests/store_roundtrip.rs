//! Store round-trip properties: for any generated event stream the
//! seal→decode cycle must reproduce the exact `ProvEvent`s and the
//! exact FNV flow-graph fingerprint of the stream itself (nothing
//! dropped), the varint encoding must stay under the compression bound
//! the bench gate enforces, and the query layer must agree with a
//! naive scan. Failures replay with `TESTKIT_SEED`.

use ndroid_provenance::{
    Direction, EventKind, FlowGraph, Handle, Level, ProvEvent, ProvQuery, SinkCtx, Store,
};
use ndroid_testkit::prelude::*;

const APIS: [&str; 4] = [
    "ContactsProvider.query",
    "SmsProvider.query",
    "TelephonyManager.getDeviceId",
    "LocationManager.getLastKnownLocation",
];
const METHODS: [&str; 3] = [
    "Lcom/app/Jni;.pack",
    "Lcom/app/Jni;.encode",
    "Lcom/qq/Jni;.makeLoginRequestPackageMd5",
];
const FUNCS: [&str; 4] = ["strcpy", "memcpy", "sprintf", "strdup"];
const SINKS: [&str; 3] = ["send", "write", "HttpClient.post"];
const DESTS: [&str; 3] = ["evil.com", "/data/leak.txt", "sync.3g.qq.com"];

/// Deterministically maps a generated `(selector, label, aux)` triple
/// to one of the seven event shapes, drawing names from small pools so
/// segment string-interning sees realistic reuse.
fn event(sel: u8, label: u32, aux: u32) -> ProvEvent {
    let a = aux as usize;
    match sel % 7 {
        0 => ProvEvent::Source {
            label,
            api: APIS[a % APIS.len()].into(),
        },
        1 => ProvEvent::JniEntry {
            method: METHODS[a % METHODS.len()].into(),
            label,
        },
        2 => ProvEvent::JniExit {
            method: METHODS[a % METHODS.len()].into(),
            label,
        },
        3 => ProvEvent::Transfer {
            api: if a.is_multiple_of(2) {
                "GetStringUTFChars".into()
            } else {
                "NewStringUTF".into()
            },
            label,
            direction: if a.is_multiple_of(2) {
                Direction::JavaToNative
            } else {
                Direction::NativeToJava
            },
        },
        4 => ProvEvent::Libc {
            func: FUNCS[a % FUNCS.len()].into(),
            label,
        },
        5 => ProvEvent::NativeBlock {
            start_pc: 0x8000_0000u32.wrapping_add(aux.wrapping_mul(4) & 0xf_fffc),
            insns: 1 + aux % 61,
            label,
        },
        _ => ProvEvent::Sink {
            sink: SINKS[a % SINKS.len()].into(),
            dest: DESTS[(a / 3) % DESTS.len()].into(),
            label,
            ctx: if a.is_multiple_of(2) { SinkCtx::Java } else { SinkCtx::Native },
        },
    }
}

fn stream(raw: &[(u8, u32, u32)]) -> Vec<ProvEvent> {
    raw.iter().map(|&(s, l, a)| event(s, l, a)).collect()
}

proptest! {
    /// The acceptance property: seal→decode reproduces the exact
    /// event stream, nothing is ever dropped, and the summary's
    /// fingerprint and leak-path count equal the whole-stream graph's
    /// — so every existing fingerprint gate is invariant under any
    /// segment size.
    #[test]
    fn seal_decode_reproduces_stream_and_fingerprint(
        hot_cap in 1usize..48,
        raw in collection::vec((any::<u8>(), any::<u32>(), any::<u32>()), 0..256),
    ) {
        let events = stream(&raw);
        let h = Handle::with_capacity(Level::Full, hot_cap);
        for ev in &events {
            h.emit(ev.clone());
        }
        prop_assert_eq!(h.recorded(), events.len() as u64);
        prop_assert_eq!(h.snapshot(), events.clone());
        let graph = FlowGraph::build(&events);
        prop_assert_eq!(h.flow_graph().fingerprint(), graph.fingerprint());
        // The one-pass digest equals the graph walk.
        let s = h.freeze().expect("on").summary(Level::Full);
        prop_assert_eq!(s.recorded, events.len() as u64);
        prop_assert_eq!(s.fingerprint, graph.fingerprint());
        prop_assert_eq!(s.leak_paths, graph.total_leak_paths());
        prop_assert_eq!(
            s.segments as usize,
            events.len().saturating_sub(1) / hot_cap
        );
    }

    /// Sealing is deterministic: the same stream through two
    /// stores produces byte-identical segments (`SealedSegment` is
    /// `Eq` over contents), the invariant the worker-count gates rest
    /// on. The frozen view inherits it.
    #[test]
    fn sealing_is_a_pure_function_of_the_stream(
        hot_cap in 1usize..16,
        raw in collection::vec((any::<u8>(), any::<u32>(), any::<u32>()), 0..96),
    ) {
        let events = stream(&raw);
        let mut a = Store::new(hot_cap);
        let mut b = Store::new(hot_cap);
        for ev in &events {
            a.push(ev.clone());
            b.push(ev.clone());
        }
        prop_assert_eq!(a.segments(), b.segments());
        prop_assert_eq!(a.freeze(), b.freeze());
        // Freezing is non-destructive and idempotent.
        prop_assert_eq!(a.freeze(), a.freeze());
        prop_assert_eq!(a.events_vec(), events);
    }

    /// The compression bound behind the BENCH_provenance gate: with
    /// realistically reused names and non-trivial segments, sealed
    /// events take at most 40% of the in-memory `ProvEvent` size.
    #[test]
    fn encoded_size_is_under_the_compression_bound(
        raw in collection::vec((any::<u8>(), 0u32..0x1000, any::<u32>()), 192..512),
    ) {
        let events = stream(&raw);
        let mut store = Store::new(64);
        for ev in &events {
            store.push(ev.clone());
        }
        let frozen = store.freeze();
        let encoded = frozen.encoded_size();
        let sealed_events: usize = frozen.segments().iter().map(|s| s.len()).sum();
        // Sealing happens on the push that finds the hot tier full.
        prop_assert_eq!(frozen.segments().len(), (events.len() - 1) / 64);
        prop_assert_eq!(sealed_events + frozen.tail().len(), events.len());
        let in_memory = sealed_events * std::mem::size_of::<ProvEvent>();
        prop_assert!(
            encoded * 10 <= in_memory * 4,
            "encoded {} bytes for {} events (in-memory {})",
            encoded, sealed_events, in_memory
        );
    }

    /// Query-layer agreement: a whole query (optional label, zero to
    /// two kinds, a source or sink name present in the stream or not,
    /// optional sequence range) over the frozen store returns exactly
    /// the `(seq, event)` pairs a `matches` scan of the recorded events
    /// selects, in order — regardless of how the stream was cut into
    /// segments.
    #[test]
    fn label_query_agrees_with_naive_scan(
        hot_cap in 1usize..24,
        raw in collection::vec((any::<u8>(), 0u32..0x40, any::<u32>()), 0..128),
        label in (any::<bool>(), 1u32..0x20),
        kinds in collection::vec(0usize..7, 0..3),
        name in (0u8..3, any::<bool>(), any::<usize>()),
        seq in (any::<bool>(), 0u64..140, 0u64..140),
    ) {
        let events = stream(&raw);
        let mut store = Store::new(hot_cap);
        for ev in &events {
            store.push(ev.clone());
        }
        let mut query = ProvQuery::new();
        if label.0 {
            query = query.label(label.1);
        }
        for k in kinds {
            query = query.kind(EventKind::ALL[k]);
        }
        // A source or sink name taken from the recorded stream, or one
        // no event carries.
        let (which, present, pick) = name;
        let pool: Vec<&str> = events
            .iter()
            .filter_map(|e| match (which, e) {
                (0, ProvEvent::Source { api, .. }) => Some(api.as_str()),
                (1, ProvEvent::Sink { sink, .. }) => Some(sink.as_str()),
                _ => None,
            })
            .collect();
        let named = match pool.len() {
            n if present && n > 0 => pool[pick % n],
            _ => "never.recorded",
        };
        match which {
            0 => query = query.source(named),
            1 => query = query.sink(named),
            _ => {}
        }
        if seq.0 {
            query = query.seq_range(seq.1, seq.2);
        }
        let result = query.run(&store.freeze());
        let naive: Vec<(u64, ProvEvent)> = events
            .iter()
            .enumerate()
            .filter(|&(i, e)| query.matches(i as u64, e))
            .map(|(i, e)| (i as u64, e.clone()))
            .collect();
        let got: Vec<(u64, ProvEvent)> =
            result.hits.into_iter().map(|h| (h.seq, h.event)).collect();
        prop_assert_eq!(got, naive);
    }

    /// A zero-capacity store behaves exactly as capacity 1: nothing
    /// panics, nothing is dropped, and every event but the newest sits
    /// in a one-event segment.
    #[test]
    fn zero_capacity_behaves_as_one(
        raw in collection::vec((any::<u8>(), any::<u32>(), any::<u32>()), 0..32),
    ) {
        let events = stream(&raw);
        let h = Handle::with_capacity(Level::Summary, 0);
        let mut one = Store::new(1);
        for ev in &events {
            h.emit(ev.clone());
            one.push(ev.clone());
        }
        prop_assert_eq!(h.recorded(), events.len() as u64);
        prop_assert_eq!(h.snapshot(), events.clone());
        let frozen = h.freeze().expect("on");
        prop_assert_eq!(&frozen, &one.freeze());
        prop_assert_eq!(frozen.segments().len(), events.len().saturating_sub(1));
        prop_assert!(frozen.segments().iter().all(|s| s.len() == 1));
    }

    /// Fork continuity: a fork carries the parent's exact events
    /// (segments shared by refcount, the hot tier cloned), then the two
    /// diverge independently. Forking never seals, so a fork fed the
    /// same continuation as an unforked store freezes equal to it.
    #[test]
    fn fork_shares_history_then_diverges(
        hot_cap in 1usize..8,
        raw in collection::vec((any::<u8>(), any::<u32>(), any::<u32>()), 1..64),
        more in collection::vec((any::<u8>(), any::<u32>(), any::<u32>()), 1..16),
    ) {
        let events = stream(&raw);
        let parent = Handle::with_capacity(Level::Full, hot_cap);
        for ev in &events {
            parent.emit(ev.clone());
        }
        let child = parent.fork();
        prop_assert_eq!(child.freeze(), parent.freeze());
        parent.emit(event(0, 0x1, 0));
        child.emit(event(6, 0x2, 1));
        prop_assert_eq!(parent.recorded(), events.len() as u64 + 1);
        prop_assert_eq!(child.recorded(), events.len() as u64 + 1);
        let pv = parent.snapshot();
        let cv = child.snapshot();
        prop_assert_eq!(&pv[..events.len()], &cv[..events.len()]);
        prop_assert_ne!(&pv[events.len()], &cv[events.len()]);

        let fresh = Handle::with_capacity(Level::Full, hot_cap);
        for ev in events.iter().chain(&[event(6, 0x2, 1)]).chain(&stream(&more)) {
            fresh.emit(ev.clone());
        }
        for ev in stream(&more) {
            child.emit(ev);
        }
        prop_assert_eq!(child.freeze(), fresh.freeze());
        let digest = |h: &Handle| h.freeze().expect("on").summary(Level::Full);
        prop_assert_eq!(digest(&child), digest(&fresh));
    }
}
