//! The outside-in layer trace: spans recorded from the benchmark's own
//! files, around the calls it makes into each layer, plus an
//! [`Analysis`] decorator that sees the JNI bridge and host-function
//! boundaries from inside a guest run.
//!
//! * Outer spans (load, boot, fork, run, report, leak paths) wrap the
//!   calls the benchmark makes.
//! * A `jni.native` span runs from `on_jni_entry` to `on_jni_return`
//!   (or around a direct `call_guest`).
//! * A host-call span opens when a block exit lands on, or a branch
//!   targets, a [`HostTable`] address while guest code is running, and
//!   closes at the branch leaving that address. Calls in the libdvm range
//!   are `jni.functions`, calls at `LIBC_BASE` and above `libc.models`.
//! * Blocks and stepper instructions are counted, not timed.
//!
//! A span's self time is its duration minus its children's. Java code run
//! inside a JNI `Call*Method` is therefore `jni.functions` self time.

use std::time::Instant;

use ndroid_arm::block::Block;
use ndroid_arm::exec::Effect;
use ndroid_arm::{Cpu, Memory};
use ndroid_core::{NDroidAnalysis, NDroidSystem};
use ndroid_dvm::{Dvm, DvmError, MethodId, Taint};
use ndroid_emu::layout::{LIBC_BASE, LIBDVM_BASE, RETURN_SENTINEL};
use ndroid_emu::runtime::{call_guest, Analysis, GuestRunner, HostTable, NativeCtx};
use ndroid_emu::shadow::ShadowState;
use ndroid_emu::trace::TraceLog;
use ndroid_emu::EmuError;

/// A layer of the pipeline, named after the module that implements it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// App construction (`ndroid_apps` builders: the APK-load stand-in).
    Load,
    /// `core::system` boot: `App::launch_with` → `NDroidSystem::from_config`.
    Boot,
    /// `core::system` snapshot capture and fork (both are `fork_clone`).
    Fork,
    /// The `dvm` interpreter and hook engine (self time of a Java run).
    Dvm,
    /// `emu::runtime` JNI bridge and native execution (tracer, shadow, blocks).
    JniNative,
    /// `jni` functions: host calls in the libdvm range.
    JniFunctions,
    /// `libc` Table VI models: host calls in the libc/libm range.
    LibcModels,
    /// `core::system::report`.
    Report,
    /// `provenance` flow graph and leak-path count.
    LeakPaths,
    /// Dropping a finished system (its pages, heap and host table).
    Teardown,
}

/// Every layer, in report order.
pub const LAYERS: [Layer; 10] = [
    Layer::Load,
    Layer::Boot,
    Layer::Fork,
    Layer::Dvm,
    Layer::JniNative,
    Layer::JniFunctions,
    Layer::LibcModels,
    Layer::Report,
    Layer::LeakPaths,
    Layer::Teardown,
];

impl Layer {
    /// The layer's metric prefix.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Load => "apps.load",
            Layer::Boot => "core.boot",
            Layer::Fork => "core.fork",
            Layer::Dvm => "dvm.self",
            Layer::JniNative => "jni.native_self",
            Layer::JniFunctions => "jni.functions_self",
            Layer::LibcModels => "libc.models_self",
            Layer::Report => "core.report",
            Layer::LeakPaths => "provenance.leak_paths",
            Layer::Teardown => "core.teardown",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// The layer a host-function call at `addr` belongs to.
pub fn host_layer(addr: u32) -> Layer {
    if addr >= LIBC_BASE {
        Layer::LibcModels
    } else {
        Layer::JniFunctions
    }
}

/// One finished span. Spans of one operation share `op`; `parent` is the
/// index of the enclosing span in [`Recorder::spans`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Operation (app, kernel pass, session, job) the span belongs to.
    pub op: u32,
    /// The layer.
    pub layer: Layer,
    /// Enclosing span, if any.
    pub parent: Option<u32>,
    /// Start, in nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder was created.
    pub end_ns: u64,
}

struct Open {
    layer: Layer,
    /// Host-function address for host-call spans, else 0.
    addr: u32,
    start_ns: u64,
    child_ns: u64,
    /// This span's slot in `spans`, when it is kept.
    slot: Option<u32>,
}

/// Raw spans kept for `--spans` output; aggregates are exact beyond it.
const SPAN_CAP: usize = 200_000;

/// Collects spans in memory and aggregates self time per layer.
pub struct Recorder {
    origin: Instant,
    stack: Vec<Open>,
    /// Self time per layer, in nanoseconds (indexed like [`LAYERS`]).
    pub self_ns: [u64; LAYERS.len()],
    /// Spans opened per layer.
    pub calls: [u64; LAYERS.len()],
    /// Superblock dispatches seen by the decorator.
    pub blocks: u64,
    /// Stepper instructions seen by the decorator.
    pub steps: u64,
    /// Kept spans, in opening order.
    pub spans: Vec<Span>,
    /// Operation id stamped on new spans.
    pub op: u32,
}

impl Recorder {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Recorder {
        Recorder {
            origin: Instant::now(),
            stack: Vec::new(),
            self_ns: [0; LAYERS.len()],
            calls: [0; LAYERS.len()],
            blocks: 0,
            steps: 0,
            spans: Vec::new(),
            op: 0,
        }
    }

    /// Nanoseconds since the recorder was created.
    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open spans.
    pub fn depth(&self) -> usize {
        self.stack.len()
    }

    /// Opens a span at time `t`.
    pub fn open_at(&mut self, layer: Layer, addr: u32, t: u64) {
        self.calls[layer.index()] += 1;
        let slot = (self.spans.len() < SPAN_CAP).then(|| {
            let parent = self.stack.last().and_then(|o| o.slot);
            self.spans.push(Span {
                op: self.op,
                layer,
                parent,
                start_ns: t,
                end_ns: t,
            });
            (self.spans.len() - 1) as u32
        });
        self.stack.push(Open {
            layer,
            addr,
            start_ns: t,
            child_ns: 0,
            slot,
        });
    }

    /// Closes the innermost span at time `t`, charging its self time to
    /// its layer and its whole duration to its parent's children.
    pub fn close_at(&mut self, t: u64) {
        let open = self.stack.pop().expect("close without an open span");
        let dur = t.saturating_sub(open.start_ns);
        self.self_ns[open.layer.index()] += dur.saturating_sub(open.child_ns);
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += dur;
        }
        if let Some(slot) = open.slot {
            self.spans[slot as usize].end_ns = t;
        }
    }

    /// Closes spans until `depth` remain, all at the same instant (spans
    /// left open by a guest error end where their caller does).
    pub fn close_to(&mut self, depth: usize) {
        let t = self.now();
        while self.stack.len() > depth {
            self.close_at(t);
        }
    }

    /// Runs `f` inside a span of `layer`.
    pub fn span<T>(&mut self, layer: Layer, f: impl FnOnce() -> T) -> T {
        self.open_at(layer, 0, self.now());
        let out = f();
        self.close_at(self.now());
        out
    }

    fn innermost(&self) -> Option<&Open> {
        self.stack.last()
    }

    /// Total self time over every layer.
    pub fn attributed_ns(&self) -> u64 {
        self.self_ns.iter().sum()
    }

    /// Self time of `layer`, in nanoseconds.
    pub fn self_of(&self, layer: Layer) -> u64 {
        self.self_ns[layer.index()]
    }

    /// Spans opened for `layer`.
    pub fn calls_of(&self, layer: Layer) -> u64 {
        self.calls[layer.index()]
    }
}

/// Forwards every [`Analysis`] method to `inner` and records JNI and
/// host-call spans around them. Forwarding every method explicitly means
/// a change to the trait fails to compile here instead of silently
/// mis-attributing time.
pub struct Traced<'a, A: Analysis + ?Sized> {
    /// The analysis doing the real work.
    pub inner: &'a mut A,
    /// Where spans go.
    pub rec: &'a mut Recorder,
    /// The system's host-function table.
    pub table: &'a HostTable,
}

impl<A: Analysis + ?Sized> Traced<'_, A> {
    /// Opens a host-call span when running guest code reaches a host
    /// function. Branches host functions report about their own internals
    /// (multilevel-hook bookkeeping) arrive while a host span is innermost
    /// and are ignored.
    fn enter(&mut self, addr: u32) {
        let in_guest = matches!(self.rec.innermost(), Some(o) if o.layer == Layer::JniNative);
        if in_guest && (LIBDVM_BASE..RETURN_SENTINEL).contains(&addr) && self.table.contains(addr) {
            let t = self.rec.now();
            self.rec.open_at(host_layer(addr), addr, t);
        }
    }
}

impl<A: Analysis + ?Sized> Analysis for Traced<'_, A> {
    fn tracks_native(&self) -> bool {
        self.inner.tracks_native()
    }

    fn on_insn(&mut self, shadow: &mut ShadowState, cpu: &Cpu, mem: &Memory, effect: &Effect) {
        self.rec.steps += 1;
        self.inner.on_insn(shadow, cpu, mem, effect);
    }

    fn on_branch(&mut self, shadow: &mut ShadowState, from: u32, to: u32) {
        let leaving_host = matches!(
            self.rec.innermost(),
            Some(o) if o.addr == from && matches!(o.layer, Layer::JniFunctions | Layer::LibcModels)
        );
        if leaving_host {
            let t = self.rec.now();
            self.rec.close_at(t);
        }
        self.inner.on_branch(shadow, from, to);
        self.enter(to);
    }

    fn on_block(
        &mut self,
        shadow: &mut ShadowState,
        cpu: &mut Cpu,
        mem: &mut Memory,
        block: &Block,
        budget: &mut u64,
    ) -> Result<(), EmuError> {
        self.rec.blocks += 1;
        self.inner.on_block(shadow, cpu, mem, block, budget)?;
        self.enter(cpu.pc());
        Ok(())
    }

    #[allow(clippy::too_many_arguments)]
    fn on_jni_entry(
        &mut self,
        dvm: &mut Dvm,
        shadow: &mut ShadowState,
        trace: &mut TraceLog,
        method: MethodId,
        entry: u32,
        args: &[u32],
        taints: &[Taint],
        stack_args_base: u32,
    ) {
        let t = self.rec.now();
        self.rec.open_at(Layer::JniNative, 0, t);
        self.inner.on_jni_entry(
            dvm,
            shadow,
            trace,
            method,
            entry,
            args,
            taints,
            stack_args_base,
        );
    }

    fn on_jni_return(
        &mut self,
        dvm: &mut Dvm,
        shadow: &ShadowState,
        trace: &mut TraceLog,
        method: MethodId,
        ret: u32,
    ) -> Taint {
        let taint = self.inner.on_jni_return(dvm, shadow, trace, method, ret);
        // Close the native span and anything a guest error left above it.
        let t = self.rec.now();
        while let Some(open) = self.rec.innermost() {
            let native = open.layer == Layer::JniNative;
            self.rec.close_at(t);
            if native {
                break;
            }
        }
        taint
    }
}

/// Runs guest entry points of an NDroid-mode system under [`Traced`].
///
/// The system's analysis is swapped out for the run (and back after) so
/// the decorator can borrow it next to the system's other fields. The
/// swap partner is a spare analysis built once, so no analysis is
/// constructed per run (building one costs tens of microseconds).
pub struct Tracer {
    /// The spans.
    pub rec: Recorder,
    spare: NDroidAnalysis,
}

impl Tracer {
    /// A tracer with an empty recorder.
    pub fn new() -> Tracer {
        Tracer {
            rec: Recorder::new(),
            spare: NDroidAnalysis::new(),
        }
    }

    fn swap(&mut self, sys: &mut NDroidSystem) {
        let analysis = sys
            .ndroid_analysis_mut()
            .expect("the trace decorates NDroid-mode systems only");
        std::mem::swap(analysis, &mut self.spare);
    }

    /// `NDroidSystem::run_java` through the decorator, inside a `dvm` span.
    pub fn run_java(
        &mut self,
        sys: &mut NDroidSystem,
        class: &str,
        method: &str,
        args: &[(u32, Taint)],
    ) -> Result<(u32, Taint), DvmError> {
        let depth = self.rec.depth();
        let t = self.rec.now();
        self.rec.open_at(Layer::Dvm, 0, t);
        let m = match sys.dvm.program.find_method_by_name(class, method) {
            Ok(m) => m,
            Err(e) => {
                self.rec.close_to(depth);
                return Err(e);
            }
        };
        self.swap(sys);
        let out = {
            let mut traced = Traced {
                inner: &mut self.spare,
                rec: &mut self.rec,
                table: &sys.table,
            };
            let mut runner = GuestRunner {
                cpu: &mut sys.cpu,
                mem: &mut sys.mem,
                shadow: &mut sys.shadow,
                kernel: &mut sys.kernel,
                trace: &mut sys.trace,
                analysis: &mut traced,
                budget: &mut sys.budget,
                icache: &mut sys.icache,
                blocks: &mut sys.blocks,
                table: &sys.table,
            };
            sys.dvm.invoke_with(m, args, &mut runner)
        };
        self.swap(sys);
        self.rec.close_to(depth);
        out
    }

    /// `NDroidSystem::run_native` through the decorator, inside a
    /// `jni.native` span.
    pub fn run_native(
        &mut self,
        sys: &mut NDroidSystem,
        entry: u32,
        args: &[u32],
    ) -> Result<(u32, Taint), EmuError> {
        let depth = self.rec.depth();
        let t = self.rec.now();
        self.rec.open_at(Layer::JniNative, 0, t);
        self.swap(sys);
        let out = {
            let mut traced = Traced {
                inner: &mut self.spare,
                rec: &mut self.rec,
                table: &sys.table,
            };
            let mut ctx = NativeCtx {
                cpu: &mut sys.cpu,
                mem: &mut sys.mem,
                dvm: &mut sys.dvm,
                shadow: &mut sys.shadow,
                kernel: &mut sys.kernel,
                trace: &mut sys.trace,
                analysis: &mut traced,
                budget: &mut sys.budget,
                icache: &mut sys.icache,
                blocks: &mut sys.blocks,
            };
            call_guest(&mut ctx, &sys.table, entry, args, |_, _| {})
        };
        self.swap(sys);
        self.rec.close_to(depth);
        out
    }
}

/// Renders the kept spans as JSON, one object per span.
pub fn spans_json(spans: &[Span]) -> String {
    let mut out = String::from("[\n");
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "  {{\"id\": {i}, \"parent\": {parent}, \"op\": {}, \"layer\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}{}\n",
            s.op,
            s.layer.name(),
            s.start_ns,
            s.end_ns,
            if i + 1 < spans.len() { "," } else { "" }
        ));
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_ranges_split_jni_functions_from_libc_models() {
        assert_eq!(host_layer(LIBDVM_BASE + 0x40), Layer::JniFunctions);
        assert_eq!(host_layer(LIBC_BASE), Layer::LibcModels);
        assert_eq!(
            host_layer(ndroid_emu::layout::LIBM_BASE + 8),
            Layer::LibcModels
        );
    }

    /// dvm [0, 100) runs a native method [10, 90) that calls the JNI
    /// function `CallVoidMethod` [20, 70); the Java method it calls runs
    /// another native method [30, 60), which calls `strlen` [40, 45).
    #[test]
    fn self_time_subtracts_nested_host_calls() {
        let mut r = Recorder::new();
        r.open_at(Layer::Dvm, 0, 0);
        r.open_at(Layer::JniNative, 0, 10);
        r.open_at(Layer::JniFunctions, LIBDVM_BASE + 4, 20);
        r.open_at(Layer::JniNative, 0, 30);
        r.open_at(Layer::LibcModels, LIBC_BASE, 40);
        r.close_at(45);
        r.close_at(60);
        r.close_at(70);
        r.close_at(90);
        r.close_at(100);
        assert_eq!(r.self_of(Layer::Dvm), 20);
        assert_eq!(r.self_of(Layer::JniNative), (80 - 50) + (30 - 5));
        assert_eq!(r.self_of(Layer::JniFunctions), 50 - 30);
        assert_eq!(r.self_of(Layer::LibcModels), 5);
        assert_eq!(r.attributed_ns(), 100, "self times partition the root span");
        assert_eq!(r.calls_of(Layer::JniNative), 2);
        assert_eq!(r.spans.len(), 5);
        assert_eq!(r.spans[4].parent, Some(3));
        assert_eq!(r.spans[0].parent, None);
        assert_eq!((r.spans[2].start_ns, r.spans[2].end_ns), (20, 70));
    }

    #[test]
    fn close_to_unwinds_spans_left_open() {
        let mut r = Recorder::new();
        r.open_at(Layer::Dvm, 0, 0);
        r.open_at(Layer::JniNative, 0, 1);
        r.open_at(Layer::LibcModels, LIBC_BASE, 2);
        r.close_to(0);
        assert_eq!(r.depth(), 0);
        assert_eq!(r.calls_of(Layer::LibcModels), 1);
    }

    #[test]
    fn spans_render_as_json_array() {
        let mut r = Recorder::new();
        r.open_at(Layer::Boot, 0, 5);
        r.close_at(9);
        let json = spans_json(&r.spans);
        assert!(json.contains("\"layer\": \"core.boot\""));
        assert!(json.contains("\"start_ns\": 5, \"end_ns\": 9"));
        assert!(json.starts_with('[') && json.ends_with(']'));
    }
}
