//! The run's one [`Recorder`]: the provenance store and the sink log.
//!
//! Every emitter of an analysed run writes here: the interpreter's
//! sources and Java sinks (through [`crate::NativeHandler::recorder`]),
//! the JNI bridge and JNI functions, the libc models, the kernel's
//! native sinks and the instruction tracer's block runs. The shadow
//! state owns the one recorder, so a fork clones it with the rest of
//! the system and re-wires nothing.

use crate::taint::Taint;
use ndroid_provenance::{FlowGraph, Level, Name, ProvEvent, ProvStore, SinkCtx, Store};
use std::sync::Arc;

/// A sink invocation observed during execution. It is a *leak* when
/// [`LeakEvent::taint`] is non-clear. The destination and payload are
/// shared by refcount: the sink log, the [`ProvEvent::Sink`] it records
/// and every report taken from it hold the one copy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LeakEvent {
    /// Sink identifier, e.g. `"Socket.send"` or `"sendto"`.
    pub sink: &'static str,
    /// Destination (server, file path, phone number…).
    pub dest: Name,
    /// The transmitted bytes, as the sink call passed them: the only
    /// host copy of the payload (printers decode them lossily).
    pub data: Arc<[u8]>,
    /// Taint carried by the data at the sink.
    pub taint: Taint,
    /// Which context the sink is in.
    pub context: SinkCtx,
}

impl LeakEvent {
    /// Whether this sink call actually carried sensitive data.
    pub fn is_leak(&self) -> bool {
        self.taint.is_tainted()
    }
}

/// One analysed run's record: the provenance events at a [`Level`] and
/// every sink call, Java and native, in the order they ran. The level
/// lives outside the store, so the `Off` check on the hot path is a
/// field read of `None`.
#[derive(Debug, Clone, Default)]
pub struct Recorder {
    level: Level,
    store: Option<Store>,
    sinks: Vec<LeakEvent>,
}

impl Recorder {
    /// A recorder at `level` sealing segments of `cap` events (a zero
    /// `cap` behaves as 1); `Off` carries no store at all.
    pub fn new(level: Level, cap: usize) -> Recorder {
        Recorder {
            level,
            store: (level != Level::Off).then(|| Store::new(cap)),
            sinks: Vec::new(),
        }
    }

    /// The provenance level.
    #[inline]
    pub fn level(&self) -> Level {
        self.level
    }

    /// Whether any provenance is recorded.
    #[inline]
    pub fn is_on(&self) -> bool {
        self.store.is_some()
    }

    /// Whether native basic-block summaries are recorded.
    #[inline]
    pub fn is_full(&self) -> bool {
        self.level == Level::Full
    }

    /// Records a provenance event (a no-op when `Off`).
    #[inline]
    pub fn emit(&mut self, ev: ProvEvent) {
        if let Some(store) = &mut self.store {
            store.push(ev);
        }
    }

    /// Records a sink call: its [`ProvEvent::Sink`] when provenance is
    /// on, then the call itself in the sink log.
    pub fn sink(&mut self, ev: LeakEvent) {
        if self.is_on() {
            self.emit(ProvEvent::Sink {
                sink: ev.sink.into(),
                dest: ev.dest.clone(),
                label: ev.taint.0,
                ctx: ev.context,
            });
        }
        self.sinks.push(ev);
    }

    /// Every sink call, Java and native, in run order.
    pub fn sinks(&self) -> &[LeakEvent] {
        &self.sinks
    }

    /// The sink calls that carried taint, in run order.
    pub fn leaks(&self) -> impl Iterator<Item = &LeakEvent> {
        self.sinks.iter().filter(|e| e.is_leak())
    }

    /// The recorded provenance events, oldest first.
    pub fn snapshot(&self) -> Vec<ProvEvent> {
        self.store.as_ref().map_or_else(Vec::new, Store::events_vec)
    }

    /// Total provenance events recorded.
    pub fn recorded(&self) -> u64 {
        self.store.as_ref().map_or(0, Store::recorded)
    }

    /// A frozen, thread-safe view of the provenance store (`None` when
    /// `Off`); see [`Store::freeze`].
    pub fn freeze(&self) -> Option<ProvStore> {
        self.store.as_ref().map(Store::freeze)
    }

    /// The flow graph over the recorded provenance events (empty when
    /// `Off`).
    pub fn flow_graph(&self) -> FlowGraph {
        self.store.as_ref().map_or_else(FlowGraph::default, Store::flow_graph)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sink(taint: Taint, context: SinkCtx) -> LeakEvent {
        LeakEvent { sink: "send", dest: "host".into(), data: b"x".as_slice().into(), taint, context }
    }

    #[test]
    fn off_records_sinks_but_no_provenance() {
        let mut r = Recorder::default();
        assert!(!r.is_on());
        r.emit(ProvEvent::Source { label: 1, api: "s".into() });
        r.sink(sink(Taint::IMEI, SinkCtx::Native));
        assert!(r.snapshot().is_empty());
        assert_eq!(r.recorded(), 0);
        assert!(r.freeze().is_none());
        assert_eq!(r.sinks().len(), 1);
        assert_eq!(r.leaks().count(), 1);
    }
}
