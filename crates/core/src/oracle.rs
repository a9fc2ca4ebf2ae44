//! The differential taint oracle: a deliberately simple reference
//! taint engine cross-validated against the optimized pipeline.
//!
//! The optimized tracer ([`NDroidAnalysis`] applying the
//! [`ndroid_arm::block::lower_taint`] effect programs, the
//! decoded-instruction and superblock caches, the paged [`TaintMap`])
//! earns its speed with exactly the kind of machinery — caches,
//! invalidation protocols, fast paths — where soundness bugs hide.
//! This module holds the antidote: [`ref_propagate`] is a straight-line
//! interpretation of Table V with no caches and no state beyond the
//! taints themselves, backed by the sparse [`HashTaintMap`]; the
//! dual-run harness ([`check_oracle`]) executes the same program under
//! both engines from identical initial state and diffs the final
//! register / VFP / memory taint byte-for-byte. A disagreement indicts
//! the optimized pipeline, because the reference engine is small
//! enough to audit against the paper's Table V by eye.
//!
//! Three consumers: the property suite in `tests/oracle_prop.rs`
//! (random ARM/Thumb programs with writeback addressing, all four
//! LDM/STM modes, conditional execution and self-modifying code), the
//! regression pins in `tests/oracle_regression.rs`, and the gallery
//! equality tests in `crates/apps`, which run full apps with
//! [`ReferenceAnalysis`] substituted for the optimized analysis.

use crate::analysis::{protected_region, NDroidAnalysis, ProtectionViolation};
use ndroid_arm::block::{is_store, BlockCache};
use ndroid_arm::exec::{step, Effect};
use ndroid_arm::icache::DecodeCache;
use ndroid_arm::insn::{Instr, MemOffset, Op2, VfpOp, VfpPrec};
use ndroid_arm::mem::Memory;
use ndroid_arm::reg::Reg;
use ndroid_arm::Cpu;
use ndroid_dvm::{Dvm, MethodId, Program, Taint};
use ndroid_emu::kernel::Kernel;
use ndroid_emu::layout::RETURN_SENTINEL;
use ndroid_emu::runtime::{run_loop, Analysis, HostTable, NativeCtx};
use ndroid_emu::shadow::{HashTaintMap, RefShadowState, ShadowState, TaintMap};
use ndroid_emu::trace::TraceLog;
use ndroid_emu::EmuError;

/// Byte-granular taint memory, as seen by the reference interpreter.
///
/// Both the paged production map and the sparse reference map satisfy
/// this, so [`ref_propagate`] can drive either: the dual-run harness
/// gives it a [`HashTaintMap`], while [`ReferenceAnalysis`] writes the
/// shared [`ShadowState`] so host-modeled functions and sinks observe
/// the same state they would under the optimized engine.
pub trait TaintMem {
    /// Union of the taints of `len` bytes starting at `addr`.
    fn load_taint(&self, addr: u32, len: u32) -> Taint;
    /// Sets (not unions) the taint of `len` bytes starting at `addr`.
    fn store_taint(&mut self, addr: u32, len: u32, taint: Taint);
}

impl TaintMem for TaintMap {
    fn load_taint(&self, addr: u32, len: u32) -> Taint {
        self.range_taint(addr, len)
    }
    fn store_taint(&mut self, addr: u32, len: u32, taint: Taint) {
        self.set_range(addr, len, taint);
    }
}

impl TaintMem for HashTaintMap {
    fn load_taint(&self, addr: u32, len: u32) -> Taint {
        self.range_taint(addr, len)
    }
    fn store_taint(&mut self, addr: u32, len: u32, taint: Taint) {
        self.set_range(addr, len, taint);
    }
}

/// Taint of a VFP operand: one S register, or the two S slots of a D
/// register.
fn vfp_taint(vfp: &[Taint; 32], prec: VfpPrec, f: u8) -> Taint {
    match prec {
        VfpPrec::F32 => vfp[(f & 31) as usize],
        VfpPrec::F64 => {
            let lo = ((f & 15) * 2) as usize;
            vfp[lo] | vfp[lo + 1]
        }
    }
}

/// Writes a VFP operand's taint (both S slots for a D register).
fn set_vfp_taint(vfp: &mut [Taint; 32], prec: VfpPrec, f: u8, t: Taint) {
    match prec {
        VfpPrec::F32 => vfp[(f & 31) as usize] = t,
        VfpPrec::F64 => {
            let lo = ((f & 15) * 2) as usize;
            vfp[lo] = t;
            vfp[lo + 1] = t;
        }
    }
}

/// Reference Table V interpretation of one [`Effect`].
///
/// Independent of [`ndroid_arm::block::lower_taint`] by construction:
/// no lowering, no classification step, no caches — just the paper's
/// rows applied to the effect the executor reported. The
/// pointer rule ("if the tainted input is the address of an untainted
/// value, the taint will be propagated to it") appears twice: loads
/// union the address registers' taints into the destination, and
/// base-register writeback unions the offset register's taint into
/// the base.
///
/// Returns the union of the taints the instruction actually wrote —
/// the same contract as [`crate::tracer::apply_taint_op`], bit for
/// bit, so provenance block summaries are engine-identical and the
/// oracle's equality guarantee extends to them.
pub fn ref_propagate(
    regs: &mut [Taint; 16],
    vfp: &mut [Taint; 32],
    mem: &mut impl TaintMem,
    effect: &Effect,
) -> Taint {
    if !effect.executed {
        return Taint::CLEAR;
    }
    let mut written = Taint::CLEAR;
    match effect.instr {
        Instr::Dp { op, rd, rn, op2, .. } => {
            if op.is_compare() {
                return Taint::CLEAR; // flags carry no taint (§VII)
            }
            let mut t = Taint::CLEAR;
            if op.uses_rn() {
                t |= regs[rn.index()];
            }
            match op2 {
                Op2::Imm { .. } => {}
                Op2::RegShiftImm { rm, .. } => t |= regs[rm.index()],
                Op2::RegShiftReg { rm, rs, .. } => {
                    t |= regs[rm.index()] | regs[rs.index()];
                }
            }
            if rd != Reg::PC {
                regs[rd.index()] = t;
                written |= t;
            }
        }
        Instr::Mul { rd, rm, rs, acc, .. } => {
            let mut t = regs[rm.index()] | regs[rs.index()];
            if let Some(ra) = acc {
                t |= regs[ra.index()];
            }
            if rd != Reg::PC {
                regs[rd.index()] = t;
                written |= t;
            }
        }
        Instr::Mem {
            load,
            size,
            rd,
            rn,
            offset,
            pre,
            writeback,
            ..
        } => {
            let Some(addr) = effect.addr else {
                return Taint::CLEAR;
            };
            let width = size.bytes();
            // Writeback pointer rule: Rn ends as Rn ± offset, so a
            // register offset folds its taint into the base. Ordered
            // before the destination write, matching the executor
            // (writeback first, Rd last, Rd wins on rd == rn).
            if writeback || !pre {
                if let MemOffset::Reg { rm, .. } = offset {
                    if rn != Reg::PC {
                        regs[rn.index()] |= regs[rm.index()];
                        written |= regs[rn.index()];
                    }
                }
            }
            if load {
                let mut t = mem.load_taint(addr, width) | regs[rn.index()];
                if let MemOffset::Reg { rm, .. } = offset {
                    t |= regs[rm.index()];
                }
                if rd != Reg::PC {
                    regs[rd.index()] = t;
                    written |= t;
                }
            } else {
                mem.store_taint(addr, width, regs[rd.index()]);
                written |= regs[rd.index()];
            }
        }
        Instr::MemMulti {
            load, rn, regs: list, ..
        } => {
            // Writeback is Rn ± 4·n — constant, so t(Rn) unchanged.
            let Some(start) = effect.addr else {
                return Taint::CLEAR;
            };
            let base_taint = regs[rn.index()];
            for (i, r) in list.iter().enumerate() {
                let slot = start.wrapping_add(4 * i as u32);
                if load {
                    let t = mem.load_taint(slot, 4) | base_taint;
                    if r != Reg::PC {
                        regs[r.index()] = t;
                        written |= t;
                    }
                } else {
                    mem.store_taint(slot, 4, regs[r.index()]);
                    written |= regs[r.index()];
                }
            }
        }
        Instr::Branch { .. } | Instr::BranchExchange { .. } | Instr::Svc { .. } => {}
        Instr::Vfp {
            op,
            prec,
            fd,
            fn_,
            fm,
            ..
        } => {
            if op == VfpOp::Cmp {
                return Taint::CLEAR;
            }
            let mut t = vfp_taint(vfp, prec, fm);
            if op != VfpOp::Mov {
                t |= vfp_taint(vfp, prec, fn_);
            }
            set_vfp_taint(vfp, prec, fd, t);
            written |= t;
        }
        Instr::VfpMem {
            load, prec, fd, rn, ..
        } => {
            let Some(addr) = effect.addr else {
                return Taint::CLEAR;
            };
            let width = if prec == VfpPrec::F64 { 8 } else { 4 };
            if load {
                let t = mem.load_taint(addr, width) | regs[rn.index()];
                set_vfp_taint(vfp, prec, fd, t);
                written |= t;
            } else {
                let t = vfp_taint(vfp, prec, fd);
                mem.store_taint(addr, width, t);
                written |= t;
            }
        }
        Instr::VfpMrs { .. } => {}
    }
    written
}

/// The reference analysis: [`ref_propagate`] mounted behind the
/// [`Analysis`] trait so a full [`crate::NDroidSystem`] run — JNI
/// marshalling, source policies, multilevel hooks, sinks — can be
/// driven by the reference interpreter instead of the optimized
/// tracer. Everything except per-instruction taint work is delegated
/// to an inner [`NDroidAnalysis`] (those paths are not under test
/// here; sharing them isolates the diff to the tracer).
#[derive(Debug, Clone)]
pub struct ReferenceAnalysis {
    inner: NDroidAnalysis,
}

impl Default for ReferenceAnalysis {
    fn default() -> ReferenceAnalysis {
        ReferenceAnalysis::new()
    }
}

impl ReferenceAnalysis {
    /// A fresh reference analysis.
    pub fn new() -> ReferenceAnalysis {
        ReferenceAnalysis {
            inner: NDroidAnalysis::new(),
        }
    }

    /// Protection violations recorded so far.
    pub fn violations(&self) -> &[ProtectionViolation] {
        &self.inner.violations
    }

    /// The delegated optimized analysis (for stats inspection).
    pub fn inner(&self) -> &NDroidAnalysis {
        &self.inner
    }
}

impl Analysis for ReferenceAnalysis {
    fn tracks_native(&self) -> bool {
        true
    }

    fn on_insn(&mut self, shadow: &mut ShadowState, _cpu: &Cpu, _mem: &Memory, effect: &Effect) {
        // No classification, no cache, no skip: every effect goes
        // straight to the reference interpreter.
        self.inner.check_protection(effect, is_store(&effect.instr));
        let written;
        {
            let ShadowState {
                regs, vfp, mem, ops, ..
            } = shadow;
            *ops += 1;
            written = ref_propagate(regs, vfp, mem, effect);
        }
        // Same block accumulation as the optimized path: skipped
        // instructions there (branches, SVCs) never write taint, so
        // the event streams are engine-identical.
        self.inner.note_written(&shadow.prov, effect.pc, written);
    }

    fn on_branch(&mut self, shadow: &mut ShadowState, from: u32, to: u32) {
        self.inner.on_branch(shadow, from, to);
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
        self.inner
            .on_jni_entry(dvm, shadow, trace, method, entry, args, taints, stack_args_base);
    }

    fn on_jni_return(
        &mut self,
        dvm: &mut Dvm,
        shadow: &ShadowState,
        trace: &mut TraceLog,
        method: MethodId,
        ret: u32,
    ) -> Taint {
        self.inner.on_jni_return(dvm, shadow, trace, method, ret)
    }
}

/// A generated guest program plus its initial taint environment — the
/// unit of work the differential oracle checks.
#[derive(Debug, Clone)]
pub struct OracleProgram {
    /// `(address, bytes)` sections loaded into guest memory.
    pub sections: Vec<(u32, Vec<u8>)>,
    /// Entry pc; bit 0 set selects Thumb state (BX-style).
    pub entry: u32,
    /// Initial general registers. `r14` is overridden with
    /// [`RETURN_SENTINEL`], `r15` with the entry point.
    pub regs: [u32; 16],
    /// Initial register taints.
    pub reg_taints: [Taint; 16],
    /// Initial memory taint ranges `(addr, len, taint)`.
    pub mem_taints: Vec<(u32, u32, Taint)>,
    /// Hard step bound (both engines stop here and report it).
    pub max_steps: u64,
}

/// Why an engine run stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// The program branched to [`RETURN_SENTINEL`].
    Returned,
    /// The executor refused an instruction (decode/exec error).
    Fault,
    /// The step bound was hit.
    MaxSteps,
}

/// Final architectural + step state of one engine run, used as a
/// sanity cross-check that both engines executed the same program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineRun {
    /// Final CPU registers.
    pub regs: [u32; 16],
    /// Final Thumb state.
    pub thumb: bool,
    /// Instructions retired.
    pub steps: u64,
    /// Why the run stopped.
    pub stop: StopReason,
}

fn seed_cpu_mem(p: &OracleProgram) -> (Cpu, Memory) {
    let mut cpu = Cpu::default();
    let mut mem = Memory::new();
    for (addr, bytes) in &p.sections {
        mem.write_bytes(*addr, bytes);
    }
    cpu.regs = p.regs;
    cpu.regs[14] = RETURN_SENTINEL;
    cpu.thumb = p.entry & 1 != 0;
    cpu.set_pc(p.entry & !1);
    (cpu, mem)
}

/// Runs a program under the **optimized** pipeline: the emulator's own
/// dispatcher ([`run_loop`]) in a throwaway context with no host
/// functions, driving `analysis` through a fresh [`DecodeCache`] and a
/// fresh [`BlockCache`] that is enabled iff `blocks` — superblocks
/// replayed via [`Analysis::on_block`] with the per-instruction stepper
/// as the fallback, or the stepper alone. `p.max_steps` is the run
/// loop's budget, so the retired-step count must agree with the
/// reference engine bit for bit.
pub fn run_optimized(
    p: &OracleProgram,
    blocks: bool,
    analysis: &mut NDroidAnalysis,
    shadow: &mut ShadowState,
) -> EngineRun {
    let (mut cpu, mut mem) = seed_cpu_mem(p);
    shadow.regs = p.reg_taints;
    for (addr, len, t) in &p.mem_taints {
        shadow.mem.set_range(*addr, *len, *t);
    }
    let mut dvm = Dvm::new(Program::new());
    let mut kernel = Kernel::new();
    let mut trace = TraceLog::disabled();
    let mut icache = DecodeCache::new();
    let mut block_cache = BlockCache::new();
    block_cache.enabled = blocks;
    let mut budget = p.max_steps;
    let result = run_loop(
        &mut NativeCtx {
            cpu: &mut cpu,
            mem: &mut mem,
            dvm: &mut dvm,
            shadow,
            kernel: &mut kernel,
            trace: &mut trace,
            analysis,
            budget: &mut budget,
            icache: &mut icache,
            blocks: &mut block_cache,
        },
        &HostTable::new(),
    );
    let stop = match result {
        Ok(()) => StopReason::Returned,
        Err(EmuError::Timeout) => StopReason::MaxSteps,
        Err(_) => StopReason::Fault,
    };
    // The budget is charged before each attempted step, so a faulting
    // instruction paid for itself without retiring.
    let steps = match stop {
        StopReason::Fault => p.max_steps - budget - 1,
        _ => p.max_steps - budget,
    };
    EngineRun {
        regs: cpu.regs,
        thumb: cpu.thumb,
        steps,
        stop,
    }
}

/// Runs a program under the **reference** engine: plain `step` (no
/// decoded-instruction cache) plus [`ref_propagate`] into a
/// [`RefShadowState`] (sparse map, no handler cache).
pub fn run_reference(p: &OracleProgram, shadow: &mut RefShadowState) -> EngineRun {
    let (mut cpu, mut mem) = seed_cpu_mem(p);
    shadow.regs = p.reg_taints;
    for (addr, len, t) in &p.mem_taints {
        shadow.mem.set_range(*addr, *len, *t);
    }
    let mut steps = 0u64;
    let stop = loop {
        if cpu.pc() == RETURN_SENTINEL {
            break StopReason::Returned;
        }
        if steps == p.max_steps {
            break StopReason::MaxSteps;
        }
        match step(&mut cpu, &mut mem) {
            Ok(effect) => {
                ref_propagate(&mut shadow.regs, &mut shadow.vfp, &mut shadow.mem, &effect);
                steps += 1;
            }
            Err(_) => break StopReason::Fault,
        }
    };
    EngineRun {
        regs: cpu.regs,
        thumb: cpu.thumb,
        steps,
        stop,
    }
}

/// Byte-for-byte diff of the two engines' final taint state. Returns
/// one human-readable line per divergence; empty means equal.
pub fn diff_taint_state(optimized: &ShadowState, reference: &RefShadowState) -> Vec<String> {
    let mut diffs = Vec::new();
    for i in 0..16 {
        if optimized.regs[i] != reference.regs[i] {
            diffs.push(format!(
                "t(r{i}): optimized {:?} != reference {:?}",
                optimized.regs[i], reference.regs[i]
            ));
        }
    }
    for i in 0..32 {
        if optimized.vfp[i] != reference.vfp[i] {
            diffs.push(format!(
                "t(s{i}): optimized {:?} != reference {:?}",
                optimized.vfp[i], reference.vfp[i]
            ));
        }
    }
    let a = optimized.mem.tainted_entries();
    let b = reference.mem.tainted_entries();
    if a != b {
        let bmap: ndroid_arm::IntMap<u32, Taint> = b.iter().copied().collect();
        let amap: ndroid_arm::IntMap<u32, Taint> = a.iter().copied().collect();
        let mut reported = 0;
        for (addr, t) in &a {
            let rt = bmap.get(addr).copied().unwrap_or(Taint::CLEAR);
            if *t != rt && reported < 8 {
                diffs.push(format!(
                    "t(M[{addr:#010x}]): optimized {t:?} != reference {rt:?}"
                ));
                reported += 1;
            }
        }
        for (addr, t) in &b {
            if !amap.contains_key(addr) && reported < 8 {
                diffs.push(format!(
                    "t(M[{addr:#010x}]): optimized CLEAR != reference {t:?}"
                ));
                reported += 1;
            }
        }
        diffs.push(format!(
            "tainted memory bytes: optimized {} != reference {}",
            a.len(),
            b.len()
        ));
    }
    diffs
}

/// The oracle's verdict on one program: equality held, plus enough of
/// the run outcome for tests to assert the program actually did
/// something (terminated, retired steps).
#[derive(Debug, Clone)]
pub struct OracleVerdict {
    /// The (agreeing) run outcome.
    pub run: EngineRun,
    /// Protection violations both engines recorded.
    pub violations: usize,
}

/// Runs a program under all three engines — the optimized stepper, the
/// superblock pipeline, and the reference interpreter — and demands
/// byte-for-byte equality of the final taint state, the architectural
/// state, and the recorded protection violations.
///
/// # Errors
///
/// Returns every divergence as human-readable lines (the property
/// suite surfaces these through the testkit's seed-replay shrinker).
pub fn check_oracle(p: &OracleProgram) -> Result<OracleVerdict, String> {
    let mut analysis = NDroidAnalysis::new();
    let mut opt_shadow = ShadowState::new();
    let opt_run = run_optimized(p, false, &mut analysis, &mut opt_shadow);

    let mut blk_analysis = NDroidAnalysis::new();
    let mut blk_shadow = ShadowState::new();
    let blk_run = run_optimized(p, true, &mut blk_analysis, &mut blk_shadow);

    let mut ref_shadow = RefShadowState::new();
    let ref_run = run_reference(p, &mut ref_shadow);

    let mut diffs = Vec::new();
    if opt_run != ref_run {
        diffs.push(format!(
            "architectural divergence: optimized {opt_run:?} != reference {ref_run:?}"
        ));
    }
    if blk_run != ref_run {
        diffs.push(format!(
            "architectural divergence: blocks {blk_run:?} != reference {ref_run:?}"
        ));
    }
    diffs.extend(diff_taint_state(&opt_shadow, &ref_shadow));
    diffs.extend(
        diff_taint_state(&blk_shadow, &ref_shadow)
            .into_iter()
            .map(|d| format!("[blocks] {d}")),
    );
    if blk_analysis.violations != analysis.violations {
        diffs.push(format!(
            "protection violations: blocks {} != optimized {}",
            blk_analysis.violations.len(),
            analysis.violations.len()
        ));
    }

    // The reference protector is shared logic, but re-run it anyway:
    // a wrongly skipped step also swallows violation recording.
    let mut ref_violations = 0usize;
    {
        let (mut cpu, mut mem) = seed_cpu_mem(p);
        let mut steps = 0u64;
        while cpu.pc() != RETURN_SENTINEL && steps < p.max_steps {
            let Ok(effect) = step(&mut cpu, &mut mem) else {
                break;
            };
            steps += 1;
            if effect.executed
                && is_store(&effect.instr)
                && effect.addr.and_then(protected_region).is_some()
            {
                ref_violations += 1;
            }
        }
    }
    if analysis.violations.len() != ref_violations {
        diffs.push(format!(
            "protection violations: optimized {} != reference {}",
            analysis.violations.len(),
            ref_violations
        ));
    }

    if diffs.is_empty() {
        Ok(OracleVerdict {
            run: opt_run,
            violations: ref_violations,
        })
    } else {
        Err(diffs.join("\n"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ndroid_arm::encode::encode;
    use ndroid_arm::cond::Cond;
    use ndroid_arm::insn::{DpOp, MemSize};
    use ndroid_emu::layout::{NATIVE_CODE_BASE, NATIVE_HEAP_BASE};

    fn words_to_bytes(words: &[u32]) -> Vec<u8> {
        let mut out = Vec::with_capacity(words.len() * 4);
        for w in words {
            out.extend_from_slice(&w.to_le_bytes());
        }
        out
    }

    fn arm_program(instrs: &[Instr]) -> OracleProgram {
        let mut words: Vec<u32> = instrs
            .iter()
            .map(|i| encode(i).expect("encodable"))
            .collect();
        // bx lr
        words.push(0xE12F_FF1E);
        let mut regs = [0u32; 16];
        regs[11] = NATIVE_HEAP_BASE;
        OracleProgram {
            sections: vec![(NATIVE_CODE_BASE, words_to_bytes(&words))],
            entry: NATIVE_CODE_BASE,
            regs,
            reg_taints: [Taint::CLEAR; 16],
            mem_taints: Vec::new(),
            max_steps: 1024,
        }
    }

    #[test]
    fn trivial_program_agrees() {
        let mut p = arm_program(&[Instr::Dp {
            cond: Cond::Al,
            op: DpOp::Add,
            s: false,
            rd: Reg::R0,
            rn: Reg::R1,
            op2: Op2::RegShiftImm {
                rm: Reg::R2,
                kind: ndroid_arm::insn::ShiftKind::Lsl,
                amount: 0,
            },
        }]);
        p.reg_taints[2] = Taint::IMEI;
        let v = check_oracle(&p).expect("oracle equality");
        assert_eq!(v.run.stop, StopReason::Returned);
        assert_eq!(v.run.steps, 2);
    }

    #[test]
    fn store_load_roundtrip_agrees() {
        let mut p = arm_program(&[
            Instr::Mem {
                cond: Cond::Al,
                load: false,
                size: MemSize::Word,
                rd: Reg::R3,
                rn: Reg::R11,
                offset: MemOffset::Imm(8),
                pre: true,
                up: true,
                writeback: false,
            },
            Instr::Mem {
                cond: Cond::Al,
                load: true,
                size: MemSize::Word,
                rd: Reg::R4,
                rn: Reg::R11,
                offset: MemOffset::Imm(8),
                pre: true,
                up: true,
                writeback: false,
            },
        ]);
        p.reg_taints[3] = Taint::CONTACTS;
        let v = check_oracle(&p).expect("oracle equality");
        assert_eq!(v.run.stop, StopReason::Returned);
    }

    #[test]
    fn diff_reports_a_seeded_divergence() {
        let mut opt = ShadowState::new();
        let mut reference = RefShadowState::new();
        opt.regs[3] = Taint::SMS;
        reference.mem.set(0x2A00_0010, Taint::IMEI);
        let diffs = diff_taint_state(&opt, &reference);
        assert_eq!(diffs.len(), 3); // r3, the byte, and the count line
        assert!(diffs[0].contains("t(r3)"));
    }
}
