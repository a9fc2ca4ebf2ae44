//! The digest path's properties: the hand-rolled canonical serializer
//! is byte-identical to `core::fmt` formatting, the predecessor index
//! built on demand equals an eager build and yields the same leak
//! paths as a naive backward scan, the hot tier is shared
//! copy-on-write between the store, its frozen views, its forks and
//! the flow graph, and both exports stay well-formed for any
//! guest-supplied name. Failures replay with `TESTKIT_SEED`.

use ndroid_provenance::{Direction, FlowGraph, LeakPath, Level, Name, ProvEvent, SinkCtx, Store};
use ndroid_testkit::prelude::*;

/// The canonical text as `write!` formats it — the serializer's
/// reference. Changing either side alone fails
/// `serializer_matches_fmt_oracle`.
fn oracle(ev: &ProvEvent) -> String {
    match ev {
        ProvEvent::Source { label, api } => format!("source {api} {label:#x}"),
        ProvEvent::JniEntry { method, label } => format!("jni-entry {method} {label:#x}"),
        ProvEvent::JniExit { method, label } => format!("jni-exit {method} {label:#x}"),
        ProvEvent::Transfer {
            api,
            label,
            direction,
        } => {
            let dir = match direction {
                Direction::JavaToNative => "java->native",
                Direction::NativeToJava => "native->java",
            };
            format!("transfer {api} {dir} {label:#x}")
        }
        ProvEvent::Libc { func, label } => format!("libc {func} {label:#x}"),
        ProvEvent::NativeBlock {
            start_pc,
            insns,
            label,
        } => format!("native-block {start_pc:#x} x{insns} {label:#x}"),
        ProvEvent::Sink {
            sink,
            dest,
            label,
            ctx,
        } => {
            let ctx = match ctx {
                SinkCtx::Java => "java",
                SinkCtx::Native => "native",
            };
            format!("sink {sink}({dest}) [{ctx}] {label:#x}")
        }
    }
}

/// Characters a guest can put into a name: plain ASCII, the two JSON
/// metacharacters, control characters and multi-byte code points.
const ALPHABET: [char; 16] = [
    'a', 'Z', '0', '.', ' ', '/', '"', '\\', '\n', '\r', '\t', '\u{1}', '\u{1f}', '\u{7f}', 'é',
    '中',
];

fn name(raw: &[u8]) -> Name {
    raw.iter()
        .map(|&b| ALPHABET[b as usize % ALPHABET.len()])
        .collect::<String>()
        .into()
}

/// Labels and pcs drawn so both ends of the `u32` range occur often.
fn word(raw: u32) -> u32 {
    match raw % 4 {
        0 => 0,
        1 => u32::MAX,
        _ => raw,
    }
}

fn event(sel: u8, a: u32, b: u32, s1: &[u8], s2: &[u8]) -> ProvEvent {
    let label = word(a);
    match sel % 7 {
        0 => ProvEvent::Source {
            label,
            api: name(s1),
        },
        1 => ProvEvent::JniEntry {
            method: name(s1),
            label,
        },
        2 => ProvEvent::JniExit {
            method: name(s1),
            label,
        },
        3 => ProvEvent::Transfer {
            api: name(s1),
            label,
            direction: if b.is_multiple_of(2) {
                Direction::JavaToNative
            } else {
                Direction::NativeToJava
            },
        },
        4 => ProvEvent::Libc {
            func: name(s1),
            label,
        },
        5 => ProvEvent::NativeBlock {
            start_pc: word(b),
            insns: word(b.rotate_left(7)),
            label,
        },
        _ => ProvEvent::Sink {
            sink: name(s1),
            dest: name(s2),
            label,
            ctx: if b.is_multiple_of(2) {
                SinkCtx::Java
            } else {
                SinkCtx::Native
            },
        },
    }
}

/// A stream over few label bits and short names, so chains are long
/// and sinks see several carriers.
fn stream(raw: &[(u8, u8, u8)]) -> Vec<ProvEvent> {
    raw.iter()
        .map(|&(sel, bits, aux)| {
            let label = u32::from(bits & 0x0f) | (u32::from(bits >> 7) << 31);
            event(sel, label, u32::from(aux), &[aux], &[aux >> 4])
        })
        .collect()
}

/// The leak paths of `sink`, found by scanning backward from each node
/// for the previous event that carried the bit.
fn naive_leak_paths(events: &[ProvEvent], sink: usize) -> Vec<LeakPath> {
    if !events.get(sink).is_some_and(ProvEvent::is_sink) {
        return Vec::new();
    }
    (0..32)
        .map(|b| 1u32 << b)
        .filter(|bit| events[sink].label() & bit != 0)
        .map(|bit| {
            let mut nodes = vec![sink];
            while let Some(p) = (0..*nodes.last().expect("non-empty"))
                .rev()
                .find(|&j| events[j].label() & bit != 0)
            {
                nodes.push(p);
            }
            nodes.reverse();
            LeakPath { label: bit, nodes }
        })
        .collect()
}

/// The flow graph's edges built eagerly by their definition: event `i`
/// carrying bit `b` has an edge from the latest earlier event that
/// carried `b`, lowest bit first.
fn eager_edges(events: &[ProvEvent]) -> Vec<(usize, usize, u32)> {
    let mut edges = Vec::new();
    for (i, ev) in events.iter().enumerate() {
        for bit in (0..32).map(|b| 1u32 << b).filter(|bit| ev.label() & bit != 0) {
            if let Some(from) = (0..i).rev().find(|&j| events[j].label() & bit != 0) {
                edges.push((from, i, bit));
            }
        }
    }
    edges
}

fn record(cap: usize, events: &[ProvEvent]) -> Store {
    let mut h = Store::new(cap);
    for ev in events {
        h.push(ev.clone());
    }
    h
}

proptest! {
    /// The serializer writes exactly what `write!` formatted, for every
    /// kind, at both ends of the label range and for names holding
    /// quotes, backslashes, control characters and non-ASCII text. The
    /// fingerprint hashes this text, so every pinned digest rests on it.
    #[test]
    fn serializer_matches_fmt_oracle(
        sel in any::<u8>(),
        a in any::<u32>(),
        b in any::<u32>(),
        s1 in collection::vec(any::<u8>(), 0..12),
        s2 in collection::vec(any::<u8>(), 0..12),
    ) {
        let ev = event(sel, a, b, &s1, &s2);
        prop_assert_eq!(ev.to_string(), oracle(&ev));
        prop_assert_eq!(ev.canonical(), oracle(&ev));
    }

    /// The predecessor index, built on first use by whichever query
    /// comes first, holds the edges of an eager build and reconstructs
    /// the same paths as a backward scan, and the popcount count, which
    /// reads no index, equals the number of paths walked.
    #[test]
    fn leak_paths_match_naive_walker(
        raw in collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 0..96),
        edges_first in any::<bool>(),
    ) {
        let events = stream(&raw);
        let g = FlowGraph::build(&events);
        if edges_first {
            prop_assert_eq!(g.edges(), &eager_edges(&events)[..]);
        }
        let mut walked = 0;
        for s in 0..events.len() + 1 {
            let paths = g.leak_paths(s);
            prop_assert_eq!(&paths, &naive_leak_paths(&events, s));
            walked += paths.len();
        }
        prop_assert_eq!(g.total_leak_paths(), walked);
        let per_sink: usize = g.sinks().into_iter().map(|s| g.leak_paths(s).len()).sum();
        prop_assert_eq!(g.total_leak_paths(), per_sink);
        prop_assert_eq!(g.edges(), &eager_edges(&events)[..]);
    }

    /// The hot tier is shared, never aliased: a frozen view, a fork and
    /// a flow graph all keep what they saw while the recorder moves on,
    /// with or without a seal in between.
    #[test]
    fn hot_tier_is_copy_on_write(
        cap in 1usize..6,
        raw in collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 1..24),
        more in collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 1..12),
    ) {
        let events = stream(&raw);
        let more = stream(&more);
        let mut h = record(cap, &events);

        // Two freezes with no push between them share the tail.
        let frozen = h.freeze();
        let again = h.freeze();
        prop_assert_eq!(frozen.tail().as_ptr(), again.tail().as_ptr());
        let graph = h.flow_graph();
        if frozen.segments().is_empty() {
            prop_assert_eq!(graph.events().as_ptr(), frozen.tail().as_ptr());
        }

        // A fork's pushes leave the parent alone, and the parent's
        // leave the frozen view and the graph alone.
        let mut fork = h.clone();
        for ev in &more {
            fork.push(ev.clone());
        }
        prop_assert_eq!(h.events_vec(), events.clone());
        for ev in &more {
            h.push(ev.clone());
        }
        prop_assert_eq!(frozen.events_vec(), events.clone());
        prop_assert_eq!(frozen.recorded(), events.len() as u64);
        prop_assert_eq!(&frozen, &again);
        prop_assert_eq!(graph.events(), &events[..]);
        prop_assert_eq!(h.events_vec(), fork.events_vec());
        prop_assert_eq!(h.freeze(), record(cap, &[events, more].concat()).freeze());
    }
}

#[test]
fn serializer_covers_the_edges_of_the_range() {
    let cases = [
        event(0, 0, 0, &[], &[]),
        event(5, u32::MAX, u32::MAX, &[], &[]),
        event(5, 0, 0, &[], &[]),
        event(6, 1, 1, &[6, 7, 8, 9, 10, 11, 14, 15], &[12, 13, 4]),
    ];
    for ev in &cases {
        assert_eq!(ev.to_string(), oracle(ev));
    }
    assert_eq!(
        cases[1].to_string(),
        "native-block 0xffffffff x4294967295 0xffffffff"
    );
    assert_eq!(cases[2].to_string(), "native-block 0x0 x0 0x0");
}

/// One literal digest of a fixed stream: a change to the canonical
/// text, the FNV constants or the edge encoding moves it.
#[test]
fn fingerprint_of_a_fixed_stream_is_pinned() {
    let raw: Vec<(u8, u8, u8)> = (0u8..40)
        .map(|i| (i.wrapping_mul(3), i.wrapping_mul(37), i.wrapping_mul(11)))
        .collect();
    let events = stream(&raw);
    let fingerprint = FlowGraph::build(&events).fingerprint();
    assert_eq!(fingerprint, 0xd8f7_3fda_dcbd_12a1, "{fingerprint:#x}");
    for cap in [1, 3, 64] {
        let frozen = record(cap, &events).freeze();
        assert_eq!(frozen.fingerprint(), fingerprint, "cap {cap}");
        assert_eq!(
            frozen.summary(Level::Full).segments as usize,
            39 / cap,
            "cap {cap}"
        );
    }
}

#[test]
fn exports_escape_guest_controlled_names() {
    let dest = "/sdcard/a\nb\u{1}\"\\\t\r";
    let events = vec![
        ProvEvent::Source {
            label: 0x2,
            api: "Contacts".into(),
        },
        ProvEvent::Sink {
            sink: "open".into(),
            dest: dest.into(),
            label: 0x2,
            ctx: SinkCtx::Native,
        },
    ];
    let g = FlowGraph::build(&events);

    let json = g.to_json();
    assert!(
        json.chars().all(|c| c >= ' '),
        "raw control char in {json:?}"
    );
    assert!(
        json.contains(r#"sink open(/sdcard/a\nb\u0001\"\\\t\r) [native] 0x2"#),
        "{json}"
    );

    let dot = g.to_dot();
    assert!(dot.chars().all(|c| c >= ' ' || c == '\n'), "{dot:?}");
    // One line per node and per edge, between the header and the brace.
    assert_eq!(
        dot.lines().count(),
        2 + events.len() + g.edges().len() + 1,
        "{dot}"
    );

    // A graph decoded from sealed segments exports the same text.
    assert_eq!(record(1, &events).flow_graph().to_json(), json);
}
