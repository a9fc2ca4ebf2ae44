//! Comparison baselines: TaintDroid-only and a DroidScope-like
//! whole-system tracer.

use crate::tracer::apply_taint_op;
use ndroid_arm::block::lower_taint;
use ndroid_arm::exec::Effect;
use ndroid_arm::{Cpu, Memory};
use ndroid_emu::runtime::Analysis;
use ndroid_emu::shadow::ShadowState;

/// TaintDroid alone: the modified DVM tracks Java-context taint (that
/// part lives in [`ndroid_dvm`] and is always active when
/// `taint_tracking` is on), but **nothing** is tracked in the native
/// context — `tracks_native` is `false`, so the libc models skip taint
/// work, sinks in the native context see clear data, and the JNI
/// return-value policy ("tainted iff any parameter is tainted") is the
/// only thing that crosses the boundary. This is precisely the
/// under-tainting of §IV.
#[derive(Debug, Default, Clone, Copy)]
pub struct TaintDroidAnalysis;

impl Analysis for TaintDroidAnalysis {}

/// A DroidScope-like configuration: instruction-level taint tracking
/// over *all* native instructions with no JNI semantic shortcuts. It
/// takes the default `on_block → on_step → on_insn` path, so each
/// instruction is lowered with [`lower_taint`] and applied on its own
/// (the NDroid tracer applies a block's pre-compiled lowering instead),
/// and it has no JNI entry hooks, source policies or multilevel chains.
/// The same Table VI libc models run (`tracks_native` is `true`). DroidScope
/// also traces the DVM interpreter's own machine instructions; this
/// reproduction interprets bytecode on the host, so that cost has no
/// counterpart here.
#[derive(Debug, Default, Clone)]
pub struct DroidScopeLikeAnalysis {
    /// Instructions analyzed.
    pub insns_traced: u64,
    /// Branch events processed (every one, no gating).
    pub branch_events: u64,
}

impl Analysis for DroidScopeLikeAnalysis {
    fn tracks_native(&self) -> bool {
        true
    }

    fn on_insn(&mut self, shadow: &mut ShadowState, _cpu: &Cpu, _mem: &Memory, effect: &Effect) {
        self.insns_traced += 1;
        // Same dataflow rules (DroidScope reported no new flows beyond
        // TaintDroid, but its tracker operates at this level).
        if effect.executed {
            apply_taint_op(shadow, &lower_taint(&effect.instr), effect.addr);
        }
    }

    fn on_branch(&mut self, _shadow: &mut ShadowState, _from: u32, _to: u32) {
        self.branch_events += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ndroid_arm::cond::Cond;
    use ndroid_arm::insn::{DpOp, Instr, Op2};
    use ndroid_arm::reg::Reg;
    use ndroid_dvm::Taint;

    #[test]
    fn taintdroid_does_not_track_native() {
        let a = TaintDroidAnalysis;
        assert!(!a.tracks_native());
    }

    #[test]
    fn droidscope_tracks_and_counts() {
        let mut a = DroidScopeLikeAnalysis::default();
        assert!(a.tracks_native());
        let mut sh = ShadowState::new();
        sh.regs[1] = Taint::IMEI;
        let cpu = Cpu::new();
        let mem = Memory::new();
        let eff = Effect {
            instr: Instr::Dp {
                cond: Cond::Al,
                op: DpOp::Mov,
                s: false,
                rd: Reg::R0,
                rn: Reg::R0,
                op2: Op2::reg(Reg::R1),
            },
            pc: 0x1000_0000,
            size: 4,
            executed: true,
            branch: None,
            addr: None,
            svc: None,
        };
        a.on_insn(&mut sh, &cpu, &mem, &eff);
        assert_eq!(a.insns_traced, 1);
        assert_eq!(sh.regs[0], Taint::IMEI, "same propagation rules");
        a.on_branch(&mut sh, 0, 4);
        assert_eq!(a.branch_events, 1);
    }
}
