#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # ndroid-provenance
//!
//! The taint **provenance** subsystem: a compact event vocabulary for
//! taint propagation ([`ProvEvent`]), a lossless event store (a
//! [`Store`] of sealed compressed segments), and a
//! [`FlowGraph`] builder that stitches the recorded events into
//! per-label chains supporting `leak_paths()` queries plus DOT/JSON
//! export.
//!
//! The paper's NDroid does not merely flag leaks — its output is a
//! propagation log from which an analyst reconstructs *how* tainted
//! data flowed from a source, across the JNI boundary, through native
//! code, to a sink (the §V case studies of the paper walk exactly such
//! paths). This crate is that log, kept whole and compact: native
//! propagation is aggregated per basic-block run (one
//! [`ProvEvent::NativeBlock`] per run, never one event per
//! instruction), full segments are sealed into ~4-byte-per-event
//! varint form instead of being evicted, and the run's recorder
//! (`ndroid_dvm::Recorder`) holds no store at [`Level::Off`], so `Off`
//! costs nothing on the hot path.
//!
//! The crate is deliberately dependency-free: labels are raw `u32`
//! TaintDroid bitmasks, so every layer of the pipeline (DVM, emulator,
//! JNI hooks, libc models, tracer) can emit events without cycles in
//! the workspace graph.

use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;
use std::sync::{Arc, OnceLock};

mod query;
mod store;
pub mod varint;

pub use query::{ProvQuery, QueryHit, QueryResult};
pub use store::{EventKind, ProvStore, SealedSegment, Store};

/// How much provenance is recorded.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Level {
    /// Record nothing. The hot path sees only an `Option` that is
    /// `None` — zero-cost, verified by `BENCH_provenance`.
    #[default]
    Off,
    /// Boundary events only: sources, JNI crossings, Java↔native
    /// transfers, libc model summaries, sinks.
    Summary,
    /// Everything in `Summary` plus per-basic-block-run native
    /// propagation summaries from the instruction tracer.
    Full,
}

impl std::fmt::Display for Level {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Level::Off => "off",
            Level::Summary => "summary",
            Level::Full => "full",
        };
        write!(f, "{s}")
    }
}

/// Which way a Java↔native transfer moved data.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// Java object data copied out into native memory
    /// (`GetStringUTFChars`, `Get<Type>ArrayRegion`, field reads…).
    JavaToNative,
    /// Native data materialized as a Java object (`NewStringUTF`,
    /// `Set<Type>ArrayRegion`, field writes…).
    NativeToJava,
}

impl Direction {
    fn tag(self) -> &'static str {
        match self {
            Direction::JavaToNative => "java->native",
            Direction::NativeToJava => "native->java",
        }
    }
}

/// The execution context a sink fired in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SinkCtx {
    /// A framework sink invoked from interpreted bytecode.
    Java,
    /// A libc/syscall sink invoked from native code.
    Native,
}

impl SinkCtx {
    fn tag(self) -> &'static str {
        match self {
            SinkCtx::Java => "java",
            SinkCtx::Native => "native",
        }
    }
}

/// A name an event carries: a `&'static str` from the program's own
/// tables (a JNI or libc model, a source API, a sink) or an `Arc<str>`
/// built once (a method's `Lcls;.name`, a sink's destination) and
/// shared by every event and report that names it. Cloning never
/// copies the text; equality and hashing are the text's.
#[derive(Clone)]
pub enum Name {
    /// A name fixed in the program text.
    Static(&'static str),
    /// A name built at run time, shared by refcount.
    Shared(Arc<str>),
}

impl Deref for Name {
    type Target = str;

    #[inline]
    fn deref(&self) -> &str {
        match self {
            Name::Static(s) => s,
            Name::Shared(s) => s,
        }
    }
}

impl PartialEq for Name {
    fn eq(&self, other: &Name) -> bool {
        **self == **other
    }
}

impl Eq for Name {}

impl PartialEq<str> for Name {
    fn eq(&self, other: &str) -> bool {
        &**self == other
    }
}

impl PartialEq<&str> for Name {
    fn eq(&self, other: &&str) -> bool {
        &**self == *other
    }
}

impl Hash for Name {
    fn hash<H: Hasher>(&self, state: &mut H) {
        (**self).hash(state);
    }
}

impl fmt::Debug for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

impl fmt::Display for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self)
    }
}

impl From<&'static str> for Name {
    fn from(s: &'static str) -> Name {
        Name::Static(s)
    }
}

impl From<Arc<str>> for Name {
    fn from(s: Arc<str>) -> Name {
        Name::Shared(s)
    }
}

impl From<String> for Name {
    fn from(s: String) -> Name {
        Name::Shared(s.into())
    }
}

/// One taint-propagation event. Labels are raw TaintDroid 32-bit
/// masks (`ndroid_dvm::Taint.0`).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum ProvEvent {
    /// Taint introduced at a framework source (`getDeviceId`,
    /// contacts/SMS queries, …).
    Source {
        /// The introduced label.
        label: u32,
        /// The source API name.
        api: Name,
    },
    /// A Java→native JNI crossing (`dvmCallJNIMethod`).
    JniEntry {
        /// `Class.method` of the native method entered.
        method: Name,
        /// Union of the argument taints crossing the boundary.
        label: u32,
    },
    /// The matching native→Java return crossing.
    JniExit {
        /// `Class.method` of the native method returning.
        method: Name,
        /// The return value's taint (shadow R0 ∪ object-map taint).
        label: u32,
    },
    /// A Java↔native data transfer through a JNI accessor
    /// (strings, arrays, fields, object construction).
    Transfer {
        /// The JNI API that moved the data.
        api: Name,
        /// The transferred taint.
        label: u32,
        /// Which way the data moved.
        direction: Direction,
    },
    /// A libc model propagated taint (`TrustCallPolicy` summary —
    /// one event per modeled call, not per byte).
    Libc {
        /// The modeled function.
        func: Name,
        /// The propagated taint.
        label: u32,
    },
    /// Native instruction-tracer propagation, aggregated over one
    /// basic-block run (between branch events): the union of taints
    /// the block's instructions wrote, never per-instruction.
    NativeBlock {
        /// PC of the first taint-writing instruction in the run.
        start_pc: u32,
        /// Number of taint-writing instructions in the run.
        insns: u32,
        /// Union of the written taints.
        label: u32,
    },
    /// A sink invocation.
    Sink {
        /// Sink name (`send`, `write`, `HttpClient.post`, …).
        sink: Name,
        /// Destination (host, file path, phone number…).
        dest: Name,
        /// Taint of the data reaching the sink.
        label: u32,
        /// The execution context.
        ctx: SinkCtx,
    },
}

impl ProvEvent {
    /// The taint label this event carries.
    pub fn label(&self) -> u32 {
        match self {
            ProvEvent::Source { label, .. }
            | ProvEvent::JniEntry { label, .. }
            | ProvEvent::JniExit { label, .. }
            | ProvEvent::Transfer { label, .. }
            | ProvEvent::Libc { label, .. }
            | ProvEvent::NativeBlock { label, .. }
            | ProvEvent::Sink { label, .. } => *label,
        }
    }

    /// Whether this is a [`ProvEvent::Sink`].
    pub fn is_sink(&self) -> bool {
        matches!(self, ProvEvent::Sink { .. })
    }

    /// Canonical one-line serialization — the basis of DOT/JSON node
    /// labels and the [`FlowGraph::fingerprint`]. Deterministic: no
    /// addresses, no timing, no host state. Same text as `Display`.
    pub fn canonical(&self) -> String {
        let mut out = String::new();
        self.encode(&mut out);
        out
    }

    /// The one serializer of the canonical text: `Display`, the exports
    /// and the fingerprint all take it piece by piece from here, so no
    /// caller goes through `core::fmt`. Labels and pcs are `0x`-prefixed
    /// lowercase hex, as `{:#x}` writes them.
    pub(crate) fn encode(&self, out: &mut impl Put) {
        out.put(EventKind::of(self).name());
        out.put(" ");
        match self {
            ProvEvent::Source { api: name, .. }
            | ProvEvent::JniEntry { method: name, .. }
            | ProvEvent::JniExit { method: name, .. }
            | ProvEvent::Libc { func: name, .. } => out.put(name),
            ProvEvent::Transfer { api, direction, .. } => {
                out.put(api);
                out.put(" ");
                out.put(direction.tag());
            }
            ProvEvent::NativeBlock {
                start_pc, insns, ..
            } => {
                put_hex(out, *start_pc);
                out.put(" x");
                put_dec(out, *insns);
            }
            ProvEvent::Sink {
                sink, dest, ctx, ..
            } => {
                out.put(sink);
                out.put("(");
                out.put(dest);
                out.put(") [");
                out.put(ctx.tag());
                out.put("]");
            }
        }
        out.put(" ");
        put_hex(out, self.label());
    }
}

impl fmt::Display for ProvEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = FmtPut { f, res: Ok(()) };
        self.encode(&mut out);
        out.res
    }
}

/// A sink for the canonical text [`ProvEvent::encode`] writes.
pub(crate) trait Put {
    fn put(&mut self, s: &str);
}

impl Put for String {
    fn put(&mut self, s: &str) {
        self.push_str(s);
    }
}

/// `Display` over [`Put`], keeping the formatter's first error.
struct FmtPut<'a, 'b> {
    f: &'a mut fmt::Formatter<'b>,
    res: fmt::Result,
}

impl Put for FmtPut<'_, '_> {
    fn put(&mut self, s: &str) {
        if self.res.is_ok() {
            self.res = self.f.write_str(s);
        }
    }
}

/// Writes pieces as the body of a JSON string, which is also a
/// one-line DOT label: `\` and `"` escaped, `\n`, `\r` and `\t` as
/// such, any other control character as `\u00XX`. Sink destinations
/// come from guest memory, so nothing in a name may end the string or
/// the line.
struct Escaped<'a>(&'a mut String);

impl Put for Escaped<'_> {
    fn put(&mut self, s: &str) {
        for c in s.chars() {
            match c {
                '\\' => self.0.push_str("\\\\"),
                '"' => self.0.push_str("\\\""),
                '\n' => self.0.push_str("\\n"),
                '\r' => self.0.push_str("\\r"),
                '\t' => self.0.push_str("\\t"),
                c if c < ' ' => {
                    self.0.push_str("\\u00");
                    self.0.push(char::from(HEX[c as usize >> 4]));
                    self.0.push(char::from(HEX[c as usize & 0xf]));
                }
                c => self.0.push(c),
            }
        }
    }
}

const HEX: &[u8; 16] = b"0123456789abcdef";

/// `v` as `{v:#x}` writes it.
fn put_hex(out: &mut impl Put, v: u32) {
    let digits = (32 - v.leading_zeros()).div_ceil(4).max(1) as usize;
    let mut buf = *b"0x00000000";
    for (i, d) in buf[2..2 + digits].iter_mut().rev().enumerate() {
        *d = HEX[(v >> (4 * i)) as usize & 0xf];
    }
    out.put(ascii(&buf[..2 + digits]));
}

/// `v` in decimal.
fn put_dec(out: &mut impl Put, mut v: u32) {
    let mut buf = [0u8; 10];
    let mut start = buf.len();
    loop {
        start -= 1;
        buf[start] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.put(ascii(&buf[start..]));
}

fn ascii(digits: &[u8]) -> &str {
    std::str::from_utf8(digits).expect("digits are ASCII")
}

/// Default segment size: a run's first 64 Ki events stay in the hot
/// tier, far above what the gallery cases emit; longer corpus and
/// monkey runs seal in segments of this many events.
pub const DEFAULT_CAPACITY: usize = 1 << 16;

/// One reconstructed leak path: the chain of events that carried a
/// single label bit from its introduction to a sink.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LeakPath {
    /// The single label bit this path tracks.
    pub label: u32,
    /// Indices into [`FlowGraph::events`], source-side first, the sink
    /// last.
    pub nodes: Vec<usize>,
}

/// The per-label flow DAG stitched from a recorded event stream.
///
/// For every label *bit*, events that carry the bit form a chain in
/// recording order (event N carrying the bit has an edge from the
/// previous event that carried it). The recording order is the
/// propagation order — the emitters sit at the points where taint
/// actually moves — so walking a chain backward from a sink
/// reconstructs source → JNI → native → sink.
///
/// The edge index is built on first use ([`FlowGraph::edges`], a leak
/// path, an export or the fingerprint), so a graph that is only asked
/// for [`FlowGraph::total_leak_paths`] reads its events and allocates
/// nothing. The index sits in a [`OnceLock`], so the graph stays
/// [`Send`] + [`Sync`].
#[derive(Debug, Clone, Default)]
pub struct FlowGraph {
    events: Arc<Vec<ProvEvent>>,
    index: OnceLock<EdgeIndex>,
}

/// The edges of a [`FlowGraph`], with their offsets per event.
#[derive(Debug, Clone)]
struct EdgeIndex {
    /// `(from, to, bit)` edges, in recording order.
    edges: Vec<(usize, usize, u32)>,
    /// The edges into event `i` are `edges[into[i]..into[i + 1]]`
    /// (compressed sparse row offsets): edges are appended in `to`
    /// order, so each event's incoming edges are contiguous.
    into: Vec<u32>,
}

impl EdgeIndex {
    fn build(events: &[ProvEvent]) -> EdgeIndex {
        let mut edges = Vec::new();
        let mut into = Vec::with_capacity(events.len() + 1);
        into.push(0);
        // `last[b]` is the latest event that carried label bit `b`; each
        // event extends the chain of every bit it carries, lowest first.
        let mut last = [None; 32];
        for (i, ev) in events.iter().enumerate() {
            let mut label = ev.label();
            while label != 0 {
                let b = label.trailing_zeros();
                label &= label - 1;
                if let Some(from) = last[b as usize].replace(i) {
                    edges.push((from, i, 1 << b));
                }
            }
            into.push(u32::try_from(edges.len()).expect("fewer than 2^32 flow edges"));
        }
        EdgeIndex { edges, into }
    }
}

impl FlowGraph {
    /// Builds the graph from an event stream (oldest first).
    pub fn build(events: &[ProvEvent]) -> FlowGraph {
        FlowGraph::from_events(events.to_vec())
    }

    /// Builds the graph over an owned event stream (oldest first),
    /// without copying it.
    pub fn from_events(events: Vec<ProvEvent>) -> FlowGraph {
        FlowGraph::over(Arc::new(events))
    }

    /// The graph over a shared event stream (oldest first); its edge
    /// index waits for first use.
    pub(crate) fn over(events: Arc<Vec<ProvEvent>>) -> FlowGraph {
        FlowGraph { events, index: OnceLock::new() }
    }

    /// The edge index, built on first use.
    fn index(&self) -> &EdgeIndex {
        self.index.get_or_init(|| EdgeIndex::build(&self.events))
    }

    /// The previous carrier of `bit` before event `i`, if any.
    fn pred(&self, i: usize, bit: u32) -> Option<usize> {
        let EdgeIndex { edges, into } = self.index();
        let incoming = &edges[into[i] as usize..into[i + 1] as usize];
        incoming.iter().find(|e| e.2 == bit).map(|e| e.0)
    }

    /// The events the graph was built from.
    pub fn events(&self) -> &[ProvEvent] {
        &self.events
    }

    /// The `(from, to, bit)` edges in recording order.
    pub fn edges(&self) -> &[(usize, usize, u32)] {
        &self.index().edges
    }

    /// Indices of every sink event.
    pub fn sinks(&self) -> Vec<usize> {
        self.events
            .iter()
            .enumerate()
            .filter(|(_, e)| e.is_sink())
            .map(|(i, _)| i)
            .collect()
    }

    /// The leak paths terminating at the sink event `sink` — one per
    /// label bit the sink saw, each walked back through that bit's
    /// chain to its earliest recorded carrier. Empty when the sink saw
    /// clean data (or `sink` is not a sink event).
    pub fn leak_paths(&self, sink: usize) -> Vec<LeakPath> {
        let Some(ev) = self.events.get(sink) else {
            return Vec::new();
        };
        if !ev.is_sink() {
            return Vec::new();
        }
        let mut paths = Vec::new();
        let mut label = ev.label();
        while label != 0 {
            let bit = label & label.wrapping_neg();
            label &= label - 1;
            let mut nodes = vec![sink];
            let mut cur = sink;
            while let Some(p) = self.pred(cur, bit) {
                nodes.push(p);
                cur = p;
            }
            nodes.reverse();
            paths.push(LeakPath { label: bit, nodes });
        }
        paths
    }

    /// Total leak-path count across every sink: one per set label bit
    /// of each sink, since every bit a sink saw has a chain.
    pub fn total_leak_paths(&self) -> usize {
        self.events.iter().map(sink_paths).sum()
    }

    /// Renders one leak path as a ` -> `-joined line, e.g.
    /// `0x2: source contacts.query 0x2 -> jni-entry ... -> sink send(host)`.
    pub fn render_path(&self, path: &LeakPath) -> String {
        let chain: Vec<String> = path
            .nodes
            .iter()
            .map(|&i| self.events[i].canonical())
            .collect();
        format!("{:#x}: {}", path.label, chain.join(" -> "))
    }

    /// DOT export with hex edge labels.
    pub fn to_dot(&self) -> String {
        self.to_dot_with(|bit| format!("{bit:#x}"))
    }

    /// DOT export; `namer` renders a label bit (e.g. via
    /// `Taint::source_names`).
    pub fn to_dot_with(&self, namer: impl Fn(u32) -> String) -> String {
        let mut out = String::from("digraph provenance {\n  rankdir=LR;\n");
        for (i, ev) in self.events.iter().enumerate() {
            let shape = match ev {
                ProvEvent::Source { .. } => "ellipse",
                ProvEvent::Sink { .. } => "doubleoctagon",
                ProvEvent::JniEntry { .. } | ProvEvent::JniExit { .. } => "hexagon",
                _ => "box",
            };
            out.push_str(&format!("  n{i} [shape={shape}, label=\""));
            ev.encode(&mut Escaped(&mut out));
            out.push_str("\"];\n");
        }
        for (from, to, bit) in self.edges() {
            out.push_str(&format!("  n{from} -> n{to} [label=\""));
            Escaped(&mut out).put(&namer(*bit));
            out.push_str("\"];\n");
        }
        out.push_str("}\n");
        out
    }

    /// JSON export: `{"events": [...], "edges": [[from, to, bit], ...]}`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"events\":[");
        for (i, ev) in self.events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('"');
            ev.encode(&mut Escaped(&mut out));
            out.push('"');
        }
        out.push_str("],\"edges\":[");
        for (i, (from, to, bit)) in self.edges().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("[{from},{to},{bit}]"));
        }
        out.push_str("]}");
        out
    }

    /// FNV-1a 64 fingerprint of the canonical event stream and edge
    /// list. Equal graphs (same events in the same order) fingerprint
    /// equal on any worker count and either tracer engine.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv::default();
        for ev in self.events.iter() {
            ev.encode(&mut h);
            h.eat(b"\n");
        }
        for (from, to, bit) in self.edges() {
            h.eat(&from.to_le_bytes());
            h.eat(&to.to_le_bytes());
            h.eat(&bit.to_le_bytes());
        }
        h.0
    }
}

/// FNV-1a 64, as a [`Put`] sink so events hash their canonical text
/// without allocating it.
#[derive(Debug, Clone, Copy)]
struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    fn eat(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

impl Put for Fnv {
    fn put(&mut self, s: &str) {
        self.eat(s.as_bytes());
    }
}

/// Leak paths ending at `ev`: the flow graph has exactly one per set
/// bit of a sink's label, and none end at any other event. The one
/// counting rule behind [`FlowGraph::total_leak_paths`] and the
/// store's running count.
pub(crate) fn sink_paths(ev: &ProvEvent) -> usize {
    if ev.is_sink() {
        ev.label().count_ones() as usize
    } else {
        0
    }
}

/// The digest of one run's provenance, carried on `RunReport`: counters
/// the store keeps as it records, so taking it reads no event. The
/// content digest is [`ProvStore::fingerprint`], computed on demand.
/// Everything here is deterministic for a given app + config, so the
/// report stays `Eq`-comparable across workers and engines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProvenanceSummary {
    /// The recording level the run used.
    pub level: Level,
    /// Total events recorded.
    pub recorded: u64,
    /// [`FlowGraph::total_leak_paths`].
    pub leak_paths: usize,
    /// Sealed segments the store held when digested.
    pub segments: u32,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn source(label: u32, api: &'static str) -> ProvEvent {
        ProvEvent::Source {
            label,
            api: api.into(),
        }
    }

    fn sink(label: u32, sink_name: &'static str, dest: &'static str) -> ProvEvent {
        ProvEvent::Sink {
            sink: sink_name.into(),
            dest: dest.into(),
            label,
            ctx: SinkCtx::Native,
        }
    }

    /// The qq_phonebook shape: two sources merge, cross JNI, pass
    /// through libc, and exit at one sink carrying both bits.
    fn qq_like_stream() -> Vec<ProvEvent> {
        vec![
            source(0x2, "ContactsProvider.query"),
            source(0x200, "SmsProvider.query"),
            ProvEvent::JniEntry {
                method: "Lcom/qq/Jni;.makeLoginRequestPackageMd5".into(),
                label: 0x202,
            },
            ProvEvent::Transfer {
                api: "GetStringUTFChars".into(),
                label: 0x202,
                direction: Direction::JavaToNative,
            },
            ProvEvent::Libc {
                func: "strcpy".into(),
                label: 0x202,
            },
            ProvEvent::Transfer {
                api: "NewStringUTF".into(),
                label: 0x202,
                direction: Direction::NativeToJava,
            },
            ProvEvent::JniExit {
                method: "Lcom/qq/Jni;.getPostUrl".into(),
                label: 0x202,
            },
            ProvEvent::Sink {
                sink: "HttpClient.post".into(),
                dest: "sync.3g.qq.com".into(),
                label: 0x202,
                ctx: SinkCtx::Java,
            },
        ]
    }

    #[test]
    fn leak_path_walks_source_to_sink_per_bit() {
        let g = FlowGraph::build(&qq_like_stream());
        let sinks = g.sinks();
        assert_eq!(sinks, vec![7]);
        let paths = g.leak_paths(7);
        assert_eq!(paths.len(), 2, "one path per label bit");
        let contacts = &paths[0];
        assert_eq!(contacts.label, 0x2);
        assert_eq!(contacts.nodes, vec![0, 2, 3, 4, 5, 6, 7]);
        let sms = &paths[1];
        assert_eq!(sms.label, 0x200);
        assert_eq!(sms.nodes, vec![1, 2, 3, 4, 5, 6, 7]);
        // Endpoints: a source first, the sink last.
        assert!(matches!(g.events()[contacts.nodes[0]], ProvEvent::Source { .. }));
        assert!(g.events()[*contacts.nodes.last().unwrap()].is_sink());
        assert_eq!(g.total_leak_paths(), 2);
    }

    #[test]
    fn clean_sink_has_no_paths() {
        let g = FlowGraph::build(&[source(0x2, "contacts"), sink(0, "send", "host")]);
        assert_eq!(g.leak_paths(1), Vec::new());
        assert_eq!(g.total_leak_paths(), 0);
        // Non-sink and out-of-range queries are empty, not panics.
        assert!(g.leak_paths(0).is_empty());
        assert!(g.leak_paths(99).is_empty());
    }

    #[test]
    fn dot_and_json_are_deterministic() {
        let g = FlowGraph::build(&qq_like_stream());
        let dot = g.to_dot();
        assert!(dot.starts_with("digraph provenance {"));
        assert!(dot.contains("doubleoctagon"));
        assert!(dot.contains("sync.3g.qq.com"));
        assert_eq!(dot, FlowGraph::build(&qq_like_stream()).to_dot());
        let json = g.to_json();
        assert!(json.starts_with("{\"events\":["));
        assert!(json.contains("[6,7,2]"), "jni-exit -> sink edge for bit 0x2");
    }

    #[test]
    fn fingerprint_tracks_content() {
        let a = FlowGraph::build(&qq_like_stream());
        let b = FlowGraph::build(&qq_like_stream());
        assert_eq!(a.fingerprint(), b.fingerprint());
        let mut other = qq_like_stream();
        other.pop();
        let c = FlowGraph::build(&other);
        assert_ne!(a.fingerprint(), c.fingerprint());
    }

    #[test]
    fn summary_digests_the_store() {
        let mut h = Store::new(DEFAULT_CAPACITY);
        qq_like_stream().into_iter().for_each(|ev| h.push(ev));
        let frozen = h.freeze();
        let s = frozen.summary(Level::Full);
        assert_eq!(s.level, Level::Full);
        assert_eq!(s.recorded, 8);
        assert_eq!(s.leak_paths, 2);
        assert_eq!(frozen.fingerprint(), h.flow_graph().fingerprint());
    }

    #[test]
    fn levels_display() {
        assert_eq!(Level::Off.to_string(), "off");
        assert_eq!(Level::Summary.to_string(), "summary");
        assert_eq!(Level::Full.to_string(), "full");
    }
}
