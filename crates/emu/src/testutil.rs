//! Test support: one host-call fixture for every suite that calls host
//! models or runs guest code below a full system — the runtime's own
//! unit tests, the decode-cache, superblock and error suites, and the
//! libc and JNI model suites.
//!
//! [`World`] owns everything a [`NativeCtx`] borrows, plus a caller-built
//! [`HostTable`] and any [`Analysis`]. It calls a host model directly
//! ([`World::call_host`]), calls guest code through [`call_guest`]
//! ([`World::call`]), and assembles, wraps and runs a guest snippet
//! ([`World::run`]).
//!
//! Not `#[cfg(test)]`-gated because integration tests link the crate
//! externally; production code has no reason to call these.

use crate::error::EmuError;
use crate::kernel::Kernel;
use crate::layout;
use crate::runtime::{call_guest, Analysis, HostTable, NativeCtx};
use crate::shadow::ShadowState;
use crate::trace::TraceLog;
use ndroid_arm::block::BlockCache;
use ndroid_arm::icache::DecodeCache;
use ndroid_arm::reg::RegList;
use ndroid_arm::{Assembler, Cpu, Memory, Reg};
use ndroid_dvm::{Dvm, Program, Taint};

/// An analysis that turns native taint tracking on and traces nothing,
/// so a test observes the host models' own taint transfers.
#[derive(Debug, Default, Clone, Copy)]
pub struct TrackOnly;

impl Analysis for TrackOnly {
    fn tracks_native(&self) -> bool {
        true
    }
}

/// The state a host call runs against. Every field is public, so a test
/// seeds and inspects memory, shadow taint, the kernel and the caches
/// directly.
pub struct World<A> {
    /// Guest CPU; SP starts at [`layout::NATIVE_STACK_TOP`].
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
    /// Remaining guest-instruction budget (1 000 000 to start).
    pub budget: u64,
    /// Decoded-instruction cache.
    pub icache: DecodeCache,
    /// Superblock cache (enabled to start).
    pub blocks: BlockCache,
    /// Host functions the guest can call.
    pub table: HostTable,
    /// The plugged-in analysis.
    pub analysis: A,
}

impl<A: Analysis> World<A> {
    /// A fresh world running `program`, with host functions `table` and
    /// `analysis` plugged in.
    pub fn new(program: Program, table: HostTable, analysis: A) -> World<A> {
        let mut cpu = Cpu::new();
        cpu.regs[13] = layout::NATIVE_STACK_TOP;
        World {
            cpu,
            mem: Memory::new(),
            dvm: Dvm::new(program),
            shadow: ShadowState::new(),
            kernel: Kernel::new(),
            trace: TraceLog::new(),
            budget: 1_000_000,
            icache: DecodeCache::new(),
            blocks: BlockCache::new(),
            table,
            analysis,
        }
    }

    /// Runs `f` on the context a host function sees, and the table.
    pub fn with_ctx<R>(&mut self, f: impl FnOnce(&mut NativeCtx<'_>, &HostTable) -> R) -> R {
        let mut ctx = NativeCtx {
            cpu: &mut self.cpu,
            mem: &mut self.mem,
            dvm: &mut self.dvm,
            shadow: &mut self.shadow,
            kernel: &mut self.kernel,
            trace: &mut self.trace,
            analysis: &mut self.analysis,
            budget: &mut self.budget,
            icache: &mut self.icache,
            blocks: &mut self.blocks,
        };
        f(&mut ctx, &self.table)
    }

    /// Calls host model `f` directly, with `args` in R0–R3 and the
    /// register shadow taints as they stand, and returns its R0.
    ///
    /// # Panics
    ///
    /// Panics on more than four arguments; a test that needs stack
    /// arguments writes them above SP itself.
    pub fn call_host(
        &mut self,
        f: impl FnOnce(&mut NativeCtx<'_>) -> Result<u32, EmuError>,
        args: &[u32],
    ) -> Result<u32, EmuError> {
        assert!(args.len() <= 4, "register args only");
        self.cpu.regs[..args.len()].copy_from_slice(args);
        self.with_ctx(|ctx, _| f(ctx))
    }

    /// Calls guest code at `entry` with AAPCS `args` through
    /// [`call_guest`]: R0 and its taint.
    ///
    /// # Errors
    ///
    /// Whatever the guest run raises.
    pub fn call(&mut self, entry: u32, args: &[u32]) -> Result<(u32, Taint), EmuError> {
        self.with_ctx(|ctx, table| call_guest(ctx, table, entry, args, |_, _| {}))
    }

    /// Assembles `build` at [`layout::NATIVE_CODE_BASE`] and writes it
    /// to guest memory: the entry address.
    ///
    /// # Panics
    ///
    /// Panics if the snippet does not assemble.
    pub fn load(&mut self, build: impl FnOnce(&mut Assembler)) -> u32 {
        let mut asm = Assembler::new(layout::NATIVE_CODE_BASE);
        build(&mut asm);
        let code = asm.assemble().expect("assemble");
        self.mem.write_bytes(code.base, &code.bytes);
        code.base
    }

    /// Runs the guest snippet `build` as a function: wrapped in
    /// `push {r4, r5, lr}` / `pop {r4, r5, pc}`, so it may clobber R4
    /// and R5 and call out, and called with `args`. Returns R0.
    ///
    /// # Errors
    ///
    /// Whatever the guest run raises.
    pub fn try_run(
        &mut self,
        args: &[u32],
        build: impl FnOnce(&mut Assembler),
    ) -> Result<u32, EmuError> {
        let entry = self.load(|asm| {
            asm.push(RegList::of(&[Reg::R4, Reg::R5, Reg::LR]));
            build(asm);
            asm.pop(RegList::of(&[Reg::R4, Reg::R5, Reg::PC]));
        });
        self.call(entry, args).map(|(r0, _)| r0)
    }

    /// [`World::try_run`] for a snippet that must succeed.
    ///
    /// # Panics
    ///
    /// Panics if the guest run fails.
    pub fn run(&mut self, args: &[u32], build: impl FnOnce(&mut Assembler)) -> u32 {
        self.try_run(args, build).expect("guest run")
    }
}
