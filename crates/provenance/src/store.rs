//! The provenance store: a hot tier of recent events in front of
//! immutable, delta/varint-compressed **sealed segments**.
//!
//! The evidence trail *is* the product at fleet scale (μDep-style
//! taint-killing variants are distinguished only by the recorded
//! transform chain), so the store never evicts. When the hot tier
//! fills, its contents are compacted into a [`SealedSegment`]: a
//! per-segment interned string table plus a tag/varint byte stream
//! (monotonic pc deltas for native-block runs, single-byte labels for
//! the common few-bit masks), roughly 3–10 bytes per event against
//! the ~56-byte in-memory [`ProvEvent`].
//!
//! Both tiers are `Arc`-shared: snapshot forks, frozen views and the
//! flow graph take the segment list and the hot tier by refcount bump,
//! and a push copies the hot tier only while another holder shares it
//! (copy-on-write). The frozen [`ProvStore`] view is `Send + Sync` so
//! it can ride on `RunReport` across the batch farm's worker threads.

use std::collections::HashMap;
use std::sync::Arc;

use crate::varint;
use crate::{sink_paths, Direction, FlowGraph, Level, Name, ProvEvent, ProvenanceSummary, SinkCtx};

/// The seven event shapes: the tag of an encoded event and a query
/// filter ([`crate::ProvQuery::kind`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EventKind {
    /// [`ProvEvent::Source`]
    Source = 0,
    /// [`ProvEvent::JniEntry`]
    JniEntry = 1,
    /// [`ProvEvent::JniExit`]
    JniExit = 2,
    /// [`ProvEvent::Transfer`]
    Transfer = 3,
    /// [`ProvEvent::Libc`]
    Libc = 4,
    /// [`ProvEvent::NativeBlock`]
    NativeBlock = 5,
    /// [`ProvEvent::Sink`]
    Sink = 6,
}

impl EventKind {
    /// Every kind, in tag order.
    pub const ALL: [EventKind; 7] = [
        EventKind::Source,
        EventKind::JniEntry,
        EventKind::JniExit,
        EventKind::Transfer,
        EventKind::Libc,
        EventKind::NativeBlock,
        EventKind::Sink,
    ];

    /// The kind of an event.
    pub fn of(ev: &ProvEvent) -> EventKind {
        match ev {
            ProvEvent::Source { .. } => EventKind::Source,
            ProvEvent::JniEntry { .. } => EventKind::JniEntry,
            ProvEvent::JniExit { .. } => EventKind::JniExit,
            ProvEvent::Transfer { .. } => EventKind::Transfer,
            ProvEvent::Libc { .. } => EventKind::Libc,
            ProvEvent::NativeBlock { .. } => EventKind::NativeBlock,
            ProvEvent::Sink { .. } => EventKind::Sink,
        }
    }

    /// This kind's bit in a [`crate::ProvQuery`] kind filter.
    pub fn bit(self) -> u8 {
        1 << (self as u8)
    }

    fn from_tag(tag: u8) -> Option<EventKind> {
        EventKind::ALL.get(tag as usize).copied()
    }

    /// Lowercase tag, matching the [`ProvEvent::canonical`] prefix.
    pub fn name(self) -> &'static str {
        match self {
            EventKind::Source => "source",
            EventKind::JniEntry => "jni-entry",
            EventKind::JniExit => "jni-exit",
            EventKind::Transfer => "transfer",
            EventKind::Libc => "libc",
            EventKind::NativeBlock => "native-block",
            EventKind::Sink => "sink",
        }
    }
}

/// Direction/context flag bit in an encoded event's tag byte.
const TAG_FLAG: u8 = 0x08;

/// An immutable, compressed run of consecutive provenance events.
///
/// Layout: a header (first sequence number and event count), a
/// per-segment string table interned in first-use order, and the event
/// byte stream — per event a tag byte (3-bit kind + flag), a varint
/// label, then kind-specific varint string-table indices; a
/// `NativeBlock` stores its pc as a zigzag delta against the previous
/// block in the segment. Encoding is a pure function of the event
/// stream, so identical streams seal to byte-identical segments on any
/// worker (`Eq` below is what the batch determinism gates compare).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SealedSegment {
    first_seq: u64,
    count: u32,
    strings: Vec<Name>,
    bytes: Vec<u8>,
}

impl SealedSegment {
    /// Seals `events` (whose first element has sequence number
    /// `first_seq`) into a segment.
    pub fn encode<'a>(first_seq: u64, events: impl Iterator<Item = &'a ProvEvent>) -> SealedSegment {
        let mut seg = SealedSegment {
            first_seq,
            count: 0,
            strings: Vec::new(),
            bytes: Vec::new(),
        };
        let mut intern: HashMap<&'a Name, u64> = HashMap::new();
        let mut prev_pc = 0u32;
        for ev in events {
            let kind = EventKind::of(ev);
            let flag = match ev {
                ProvEvent::Transfer {
                    direction: Direction::NativeToJava,
                    ..
                } => TAG_FLAG,
                ProvEvent::Sink {
                    ctx: SinkCtx::Native,
                    ..
                } => TAG_FLAG,
                _ => 0,
            };
            seg.bytes.push(kind as u8 | flag);
            varint::write_u64(&mut seg.bytes, u64::from(ev.label()));
            let mut idx = |s: &'a Name, table: &mut Vec<Name>, bytes: &mut Vec<u8>| {
                let next = intern.len() as u64;
                let i = *intern.entry(s).or_insert_with(|| {
                    table.push(s.clone());
                    next
                });
                varint::write_u64(bytes, i);
            };
            match ev {
                ProvEvent::Source { api: name, .. }
                | ProvEvent::JniEntry { method: name, .. }
                | ProvEvent::JniExit { method: name, .. }
                | ProvEvent::Transfer { api: name, .. }
                | ProvEvent::Libc { func: name, .. } => {
                    idx(name, &mut seg.strings, &mut seg.bytes);
                }
                ProvEvent::NativeBlock { start_pc, insns, .. } => {
                    varint::write_i64(&mut seg.bytes, i64::from(*start_pc) - i64::from(prev_pc));
                    prev_pc = *start_pc;
                    varint::write_u64(&mut seg.bytes, u64::from(*insns));
                }
                ProvEvent::Sink { sink, dest, .. } => {
                    idx(sink, &mut seg.strings, &mut seg.bytes);
                    idx(dest, &mut seg.strings, &mut seg.bytes);
                }
            }
            seg.count += 1;
        }
        seg
    }

    /// Decodes the full event stream back out, appending to `out`.
    /// Round-trip is exact: `decode` of an `encode` reproduces the
    /// input events byte-for-byte (pinned by the property suite).
    /// Panics on a corrupt byte stream — segments only ever come from
    /// [`SealedSegment::encode`], so corruption is a program bug, not
    /// an input condition.
    pub fn decode_into(&self, out: &mut Vec<ProvEvent>) {
        const CORRUPT: &str = "corrupt sealed segment";
        out.reserve(self.count as usize);
        let mut pos = 0usize;
        let mut prev_pc = 0u32;
        let string = |i: u64| -> Name { self.strings[usize::try_from(i).expect(CORRUPT)].clone() };
        for _ in 0..self.count {
            let tag = *self.bytes.get(pos).expect(CORRUPT);
            pos += 1;
            let kind = EventKind::from_tag(tag & 0x07).expect(CORRUPT);
            let flag = tag & TAG_FLAG != 0;
            let label =
                u32::try_from(varint::read_u64(&self.bytes, &mut pos).expect(CORRUPT)).expect(CORRUPT);
            let read_str = |pos: &mut usize| -> Name {
                string(varint::read_u64(&self.bytes, pos).expect(CORRUPT))
            };
            let ev = match kind {
                EventKind::Source => ProvEvent::Source {
                    label,
                    api: read_str(&mut pos),
                },
                EventKind::JniEntry => ProvEvent::JniEntry {
                    method: read_str(&mut pos),
                    label,
                },
                EventKind::JniExit => ProvEvent::JniExit {
                    method: read_str(&mut pos),
                    label,
                },
                EventKind::Transfer => ProvEvent::Transfer {
                    api: read_str(&mut pos),
                    label,
                    direction: if flag {
                        Direction::NativeToJava
                    } else {
                        Direction::JavaToNative
                    },
                },
                EventKind::Libc => ProvEvent::Libc {
                    func: read_str(&mut pos),
                    label,
                },
                EventKind::NativeBlock => {
                    let delta = varint::read_i64(&self.bytes, &mut pos).expect(CORRUPT);
                    let start_pc =
                        u32::try_from(i64::from(prev_pc) + delta).expect(CORRUPT);
                    prev_pc = start_pc;
                    let insns = u32::try_from(varint::read_u64(&self.bytes, &mut pos).expect(CORRUPT))
                        .expect(CORRUPT);
                    ProvEvent::NativeBlock {
                        start_pc,
                        insns,
                        label,
                    }
                }
                EventKind::Sink => {
                    let sink = read_str(&mut pos);
                    let dest = read_str(&mut pos);
                    ProvEvent::Sink {
                        sink,
                        dest,
                        label,
                        ctx: if flag { SinkCtx::Native } else { SinkCtx::Java },
                    }
                }
            };
            out.push(ev);
        }
        assert_eq!(pos, self.bytes.len(), "{CORRUPT}: trailing bytes");
    }

    /// The decoded event stream as a fresh Vec.
    pub fn decode(&self) -> Vec<ProvEvent> {
        let mut out = Vec::new();
        self.decode_into(&mut out);
        out
    }

    /// Sequence number of the segment's first event.
    pub fn first_seq(&self) -> u64 {
        self.first_seq
    }

    /// Number of events in the segment.
    pub fn len(&self) -> usize {
        self.count as usize
    }

    /// Whether the segment holds no events.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Sequence number one past the segment's last event.
    pub fn end_seq(&self) -> u64 {
        self.first_seq + u64::from(self.count)
    }

    /// Encoded size in bytes: header + string table + event stream.
    /// This is the numerator of the `bytes_per_event` metric in
    /// `BENCH_provenance.json`.
    pub fn encoded_size(&self) -> usize {
        // Header: first_seq + count.
        let header = 8 + 4;
        let table: usize = self.strings.iter().map(|s| s.len() + 1).sum();
        header + table + self.bytes.len()
    }
}

/// The provenance store of a run: a hot tier of at most `cap`
/// events, and the sealed segments before it.
///
/// Sealing happens only in [`Store::push`], when the hot tier is full,
/// so segment `k` always holds events `[k·cap, (k+1)·cap)`: the
/// segment layout is a function of the event stream alone, whether the
/// store was forked along the way or not. Nothing is ever dropped, and
/// sequence numbers run on through both tiers.
#[derive(Debug, Clone)]
pub struct Store {
    hot: Arc<Vec<ProvEvent>>,
    segments: Vec<Arc<SealedSegment>>,
    /// Events held across all sealed segments (sum of their counts),
    /// which is also the hot tier's first sequence number.
    sealed_len: u64,
    /// Leak paths ending at the events pushed so far ([`sink_paths`]).
    leak_paths: usize,
    cap: usize,
}

impl Store {
    /// A store sealing segments of `cap` events. A zero `cap` behaves
    /// as 1 (every event is sealed on the next push), never a panic.
    pub fn new(cap: usize) -> Store {
        Store {
            // Do not pre-reserve `cap`: the default is sized for long
            // runs but most runs stay small.
            hot: Arc::default(),
            segments: Vec::new(),
            sealed_len: 0,
            leak_paths: 0,
            cap: cap.max(1),
        }
    }

    /// Appends an event, first sealing the hot tier when it is full.
    pub fn push(&mut self, ev: ProvEvent) {
        if self.hot.len() >= self.cap {
            let seg = SealedSegment::encode(self.sealed_len, self.hot.iter());
            self.sealed_len += u64::from(seg.count);
            self.segments.push(Arc::new(seg));
            // A frozen view or a fork may still share the full tier:
            // leave it to them rather than copying it to clear it.
            match Arc::get_mut(&mut self.hot) {
                Some(hot) => hot.clear(),
                None => self.hot = Arc::default(),
            }
        }
        self.leak_paths += sink_paths(&ev);
        Arc::make_mut(&mut self.hot).push(ev);
    }

    /// The sealed segments, oldest first.
    pub fn segments(&self) -> &[Arc<SealedSegment>] {
        &self.segments
    }

    /// Total events recorded (sealed + hot).
    pub fn recorded(&self) -> u64 {
        self.sealed_len + self.hot.len() as u64
    }

    /// The full event stream, oldest first: sealed segments decoded in
    /// order, then the hot tier.
    pub fn events_vec(&self) -> Vec<ProvEvent> {
        decode_all(&self.segments, &self.hot)
    }

    /// The flow graph over the full event stream. While nothing is
    /// sealed the graph shares the hot tier (as a frozen view does);
    /// otherwise it decodes the segments.
    pub fn flow_graph(&self) -> FlowGraph {
        FlowGraph::over(if self.segments.is_empty() {
            Arc::clone(&self.hot)
        } else {
            Arc::new(self.events_vec())
        })
    }

    /// A frozen, thread-safe ([`Send`] + [`Sync`]) view: sealed
    /// segments and the hot tier shared by refcount, so freezing copies
    /// no event; the next push copies the hot tier once. Repeated
    /// freezes of an unchanged store share one tail and are equal
    /// ([`ProvStore`] is `Eq`).
    pub fn freeze(&self) -> ProvStore {
        ProvStore {
            segments: self.segments.clone(),
            tail: Arc::clone(&self.hot),
            leak_paths: self.leak_paths,
        }
    }
}

fn decode_all(segments: &[Arc<SealedSegment>], tail: &[ProvEvent]) -> Vec<ProvEvent> {
    let sealed: usize = segments.iter().map(|s| s.len()).sum();
    let mut out = Vec::with_capacity(sealed + tail.len());
    for seg in segments {
        seg.decode_into(&mut out);
    }
    out.extend_from_slice(tail);
    out
}

/// A frozen provenance store: the `Send + Sync` view that rides on
/// `RunReport` across worker threads and feeds [`crate::ProvQuery`] /
/// `BatchReport` merging. Cloning bumps refcounts; equality compares
/// segment and tail *contents*, so reports stay byte-comparable across
/// worker counts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProvStore {
    segments: Vec<Arc<SealedSegment>>,
    tail: Arc<Vec<ProvEvent>>,
    /// The store's leak-path count at freeze time, a function of the
    /// events above.
    leak_paths: usize,
}

impl ProvStore {
    /// The sealed segments, oldest first.
    pub fn segments(&self) -> &[Arc<SealedSegment>] {
        &self.segments
    }

    /// The hot-tier events frozen at snapshot time, oldest first.
    pub fn tail(&self) -> &[ProvEvent] {
        &self.tail
    }

    /// Sequence number of the first tail event.
    pub fn tail_first_seq(&self) -> u64 {
        self.segments.last().map_or(0, |s| s.end_seq())
    }

    /// Total events recorded at freeze time (sealed + tail).
    pub fn recorded(&self) -> u64 {
        self.tail_first_seq() + self.tail.len() as u64
    }

    /// The full event stream, oldest first.
    pub fn events_vec(&self) -> Vec<ProvEvent> {
        decode_all(&self.segments, &self.tail)
    }

    /// Total encoded bytes across sealed segments (see
    /// [`SealedSegment::encoded_size`]).
    pub fn encoded_size(&self) -> usize {
        self.segments.iter().map(|s| s.encoded_size()).sum()
    }

    /// The run digest at recording `level`, from the counters the
    /// store kept as it recorded: no event is read.
    pub fn summary(&self, level: Level) -> ProvenanceSummary {
        ProvenanceSummary {
            level,
            recorded: self.recorded(),
            leak_paths: self.leak_paths,
            segments: self.segments.len() as u32,
        }
    }

    /// [`FlowGraph::fingerprint`] of the full event stream, computed
    /// only when asked: the report carries counters, not this digest.
    pub fn fingerprint(&self) -> u64 {
        FlowGraph::from_events(self.events_vec()).fingerprint()
    }
}
