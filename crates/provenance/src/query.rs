//! The fleet-scale query layer over frozen provenance stores.
//!
//! A [`ProvQuery`] filters one run's [`ProvStore`] — per label bits,
//! per [`EventKind`], per source-API / sink name, per sequence range —
//! by one scan over the decoded segments and the tail. The rendered
//! form of a [`QueryResult`] is deterministic — `exp prov_query` diffs
//! it against a golden transcript in CI.
//!
//! Cross-run merging (`BatchReport::query`) lives in `ndroid-core`,
//! which owns the batch types; it concatenates per-job results in
//! submission order so the merged rendering is byte-identical at any
//! worker count.

use crate::store::{EventKind, ProvStore};
use crate::ProvEvent;

/// A provenance query: every set filter must pass (conjunction).
///
/// Note the name filters imply a kind: `source(api)` matches only
/// [`ProvEvent::Source`] events and `sink(name)` only
/// [`ProvEvent::Sink`] events, so setting both yields no hits by
/// construction.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProvQuery {
    label: Option<u32>,
    kinds: Option<u8>,
    source_api: Option<String>,
    sink_name: Option<String>,
    seq: Option<(u64, u64)>,
}

impl ProvQuery {
    /// A query matching every event.
    pub fn new() -> ProvQuery {
        ProvQuery::default()
    }

    /// Keep events whose label intersects `bits`.
    pub fn label(mut self, bits: u32) -> ProvQuery {
        self.label = Some(bits);
        self
    }

    /// Keep events of `kind` (repeatable — kinds accumulate as a
    /// disjunction).
    pub fn kind(mut self, kind: EventKind) -> ProvQuery {
        *self.kinds.get_or_insert(0) |= kind.bit();
        self
    }

    /// Keep only [`ProvEvent::Source`] events introduced by `api`.
    pub fn source(mut self, api: &str) -> ProvQuery {
        self.source_api = Some(api.to_string());
        self
    }

    /// Keep only [`ProvEvent::Sink`] events through sink `name`.
    pub fn sink(mut self, name: &str) -> ProvQuery {
        self.sink_name = Some(name.to_string());
        self
    }

    /// Keep events with sequence number in `[start, end)`.
    pub fn seq_range(mut self, start: u64, end: u64) -> ProvQuery {
        self.seq = Some((start, end));
        self
    }

    /// Whether a single event (at sequence number `seq`) matches.
    pub fn matches(&self, seq: u64, ev: &ProvEvent) -> bool {
        if let Some((start, end)) = self.seq {
            if seq < start || seq >= end {
                return false;
            }
        }
        if let Some(bits) = self.label {
            if ev.label() & bits == 0 {
                return false;
            }
        }
        if let Some(kinds) = self.kinds {
            if EventKind::of(ev).bit() & kinds == 0 {
                return false;
            }
        }
        if let Some(api) = &self.source_api {
            match ev {
                ProvEvent::Source { api: a, .. } if a == api => {}
                _ => return false,
            }
        }
        if let Some(name) = &self.sink_name {
            match ev {
                ProvEvent::Sink { sink, .. } if sink == name => {}
                _ => return false,
            }
        }
        true
    }

    /// Runs the query over one frozen store: one [`ProvQuery::matches`]
    /// scan of the recorded stream (the decoded segments, then the
    /// tail), so hits come back in sequence order.
    pub fn run(&self, store: &ProvStore) -> QueryResult {
        let hits = (0..)
            .zip(store.events_vec())
            .filter(|(seq, ev)| self.matches(*seq, ev))
            .map(|(seq, event)| QueryHit { seq, event })
            .collect();
        QueryResult { hits }
    }
}

/// One matching event with its global sequence number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryHit {
    /// Sequence number in the run's recorded stream.
    pub seq: u64,
    /// The matching event.
    pub event: ProvEvent,
}

/// The hits of one query over one store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryResult {
    /// Matching events in sequence order.
    pub hits: Vec<QueryHit>,
}

impl QueryResult {
    /// Deterministic rendering: one `seq N: <canonical>` line per hit.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for hit in &self.hits {
            out.push_str(&format!("seq {}: {}\n", hit.seq, hit.event.canonical()));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::Store;
    use crate::{Direction, SinkCtx};

    fn sample_store(hot_cap: usize) -> Store {
        let mut s = Store::new(hot_cap);
        s.push(ProvEvent::Source {
            label: 0x2,
            api: "ContactsProvider.query".into(),
        });
        s.push(ProvEvent::Source {
            label: 0x200,
            api: "SmsProvider.query".into(),
        });
        s.push(ProvEvent::JniEntry {
            method: "Lcom/app/Jni;.pack".into(),
            label: 0x202,
        });
        s.push(ProvEvent::Transfer {
            api: "GetStringUTFChars".into(),
            label: 0x202,
            direction: Direction::JavaToNative,
        });
        s.push(ProvEvent::NativeBlock {
            start_pc: 0x8000,
            insns: 7,
            label: 0x202,
        });
        s.push(ProvEvent::Libc {
            func: "strcpy".into(),
            label: 0x202,
        });
        s.push(ProvEvent::JniExit {
            method: "Lcom/app/Jni;.pack".into(),
            label: 0x202,
        });
        s.push(ProvEvent::Sink {
            sink: "send".into(),
            dest: "evil.com".into(),
            label: 0x202,
            ctx: SinkCtx::Native,
        });
        s
    }

    #[test]
    fn label_filter_returns_only_intersecting_events_in_seq_order() {
        let store = sample_store(3).freeze();
        let r = ProvQuery::new().label(0x200).run(&store);
        assert!(r.hits.iter().all(|h| h.event.label() & 0x200 != 0));
        assert_eq!(r.hits.len(), 7, "everything but the contacts source");
        assert!(r.hits.windows(2).all(|w| w[0].seq < w[1].seq));
        assert_eq!(r.hits[0].seq, 1);
    }

    #[test]
    fn kind_and_seq_filters_compose() {
        let store = sample_store(3).freeze();
        let r = ProvQuery::new()
            .kind(EventKind::Source)
            .kind(EventKind::Sink)
            .run(&store);
        assert_eq!(r.hits.len(), 3);
        let r = ProvQuery::new().seq_range(2, 4).run(&store);
        assert_eq!(r.hits.len(), 2);
        assert_eq!(r.hits[0].seq, 2);
        assert_eq!(r.hits[1].seq, 3);
    }

    #[test]
    fn seq_range_selects_exactly_the_range_across_segments() {
        let store = sample_store(2).freeze();
        // 8 events, hot cap 2 -> segments [0,2) [2,4) [4,6), tail [6,8).
        assert_eq!(store.segments().len(), 3);
        let r = ProvQuery::new().seq_range(0, 2).run(&store);
        assert_eq!(r.hits.len(), 2);
    }

    #[test]
    fn name_queries_find_the_sink_and_nothing_unrecorded() {
        let store = sample_store(2).freeze();
        let r = ProvQuery::new().sink("send").run(&store);
        // The sink sits in the hot tail.
        assert_eq!(r.hits.len(), 1);
        assert_eq!(r.hits[0].seq, 7);
        // A name that was never recorded: zero hits.
        let r = ProvQuery::new().source("never.recorded").run(&store);
        assert!(r.hits.is_empty());
    }

    #[test]
    fn render_is_deterministic() {
        let store = sample_store(2).freeze();
        let q = ProvQuery::new().label(0x2).kind(EventKind::Sink);
        let a = q.run(&store).render();
        let b = q.run(&store).render();
        assert_eq!(a, b);
        assert_eq!(a, "seq 7: sink send(evil.com) [native] 0x202\n");
    }
}
