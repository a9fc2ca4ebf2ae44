//! [`NDroidAnalysis`]: the full NDroid analysis plugged into the
//! emulator — DVM hook engine callbacks, the instruction tracer, and
//! the multilevel-hooking bookkeeping.

use crate::source_policy::{SourcePolicy, SourcePolicyMap};
use crate::tracer::apply_taint_op;
use ndroid_arm::block::BlockStep;
use ndroid_arm::exec::Effect;
use ndroid_arm::{Cpu, Memory};
use ndroid_dvm::{Dvm, MethodId, Recorder, Taint};
use ndroid_emu::layout::{in_libdvm, in_native_code};
use ndroid_emu::multilevel::MultilevelHook;
use ndroid_emu::runtime::Analysis;
use ndroid_emu::shadow::ShadowState;
use ndroid_emu::trace::TraceLog;
use ndroid_jni::{hook_table, Hook, HookTable};
use ndroid_provenance::ProvEvent;

/// Aggregate statistics of one analysis run.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct AnalysisStats {
    /// Guest instructions observed by the tracer.
    pub insns_traced: u64,
    /// Instructions with no Table V handler (branches, `SVC`), skipped.
    pub insns_skipped: u64,
    /// Branch events processed.
    pub branch_events: u64,
    /// Multilevel chains activated (T1 satisfied).
    pub chains_activated: u64,
    /// Deep-hook instrumentations performed (T2+ satisfied).
    pub deep_hooks: u64,
    /// Deep-hook instrumentations that unconditional hooking would have
    /// performed (the cost multilevel hooking avoids; ablation D1).
    pub unconditional_hooks: u64,
    /// JNI entries processed (dvmCallJNIMethod hooks).
    pub jni_entries: u64,
    /// SourcePolicies created (tainted-parameter entries only).
    pub source_policies: u64,
    /// Superblock dispatches served from the block cache.
    pub block_hits: u64,
    /// Block-cache lookups that missed (cold or stale page).
    pub block_misses: u64,
    /// Block-cache pages dropped because the code bytes changed.
    pub block_invalidations: u64,
    /// Effect programs compiled (blocks built).
    pub blocks_built: u64,
}

/// A guest-integrity violation: third-party native code wrote into a
/// region the VM owns (the §VII extension — "NDroid can be easily
/// extended to protect taints and prevent evasions through stack
/// manipulation or trusted function modification, because it monitors
/// the memory … and inspects every native instruction").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtectionViolation {
    /// Address of the offending store instruction.
    pub pc: u32,
    /// The address written.
    pub addr: u32,
    /// Which protected region was hit.
    pub region: &'static str,
}

/// Classifies an address against the VM-private regions the taint
/// protector guards.
pub(crate) fn protected_region(addr: u32) -> Option<&'static str> {
    use ndroid_dvm::heap::HEAP_BASE;
    use ndroid_dvm::stack::STACK_BASE;
    if (STACK_BASE..STACK_BASE + 0x0010_0000).contains(&addr) {
        Some("dvm-stack")
    } else if (HEAP_BASE..HEAP_BASE + 0x0200_0000).contains(&addr) {
        Some("dvm-heap")
    } else if in_libdvm(addr) {
        Some("libdvm-text")
    } else {
        None
    }
}

/// The NDroid analysis: instruction tracer + DVM hook engine +
/// multilevel hooking, over the shared shadow taint state.
#[derive(Clone)]
pub struct NDroidAnalysis {
    policies: SourcePolicyMap,
    /// Whether the §VII taint-protection extension is active: native
    /// stores into VM-private regions are recorded as violations.
    pub protect_taints: bool,
    /// Violations recorded by the taint protector.
    pub violations: Vec<ProtectionViolation>,
    /// The hook chains of Table III, shared by every analysis.
    hooks: &'static HookTable,
    active: Vec<MultilevelHook>,
    /// Run statistics.
    pub stats: AnalysisStats,
    block: BlockAcc,
}

/// Accumulator for one basic-block run of native taint writes — the
/// µDep-style summarization: provenance records one event per run
/// (flushed at branch events and JNI returns), never one event per
/// instruction. Only populated at `Level::Full`.
#[derive(Debug, Default, Clone)]
struct BlockAcc {
    start_pc: u32,
    insns: u32,
    label: u32,
}

impl Default for NDroidAnalysis {
    fn default() -> NDroidAnalysis {
        NDroidAnalysis::new()
    }
}

impl std::fmt::Debug for NDroidAnalysis {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NDroidAnalysis")
            .field("stats", &self.stats)
            .finish()
    }
}

impl NDroidAnalysis {
    /// A fresh analysis with multilevel chains for every JNI-exit,
    /// object-creation and exception function.
    pub fn new() -> NDroidAnalysis {
        NDroidAnalysis {
            policies: SourcePolicyMap::new(),
            protect_taints: true,
            violations: Vec::new(),
            hooks: hook_table(),
            active: Vec::new(),
            stats: AnalysisStats::default(),
            block: BlockAcc::default(),
        }
    }

    /// The source-policy map (for inspection in tests/benches).
    pub fn policies(&self) -> &SourcePolicyMap {
        &self.policies
    }

    /// The §VII taint protector: records a violation when an executed
    /// store writes into a VM-private region (stack manipulation /
    /// trusted-function modification attacks).
    #[inline]
    pub(crate) fn check_protection(&mut self, effect: &Effect, is_store: bool) {
        if !(self.protect_taints && is_store && effect.executed) {
            return;
        }
        if let Some(addr) = effect.addr {
            if let Some(region) = protected_region(addr) {
                self.violations.push(ProtectionViolation {
                    pc: effect.pc,
                    addr,
                    region,
                });
            }
        }
    }

    /// Traces one retired instruction — the body both execution modes
    /// share: stats, the §VII check, the step's pre-compiled Table V
    /// op, and the provenance block run.
    #[inline]
    fn trace_step(&mut self, shadow: &mut ShadowState, step: &BlockStep, effect: &Effect) {
        if !step.relevant {
            self.stats.insns_skipped += 1;
            return;
        }
        self.stats.insns_traced += 1;
        self.check_protection(effect, step.is_store);
        if effect.executed {
            let written = apply_taint_op(shadow, &step.taint, effect.addr);
            self.note_written(&shadow.prov, effect.pc, written);
        }
    }

    /// Folds one instruction's written-taint union into the current
    /// basic-block run. Clean writes and non-`Full` levels are
    /// rejected up front, so this is two predictable branches on the
    /// hot path.
    #[inline]
    pub(crate) fn note_written(&mut self, prov: &Recorder, pc: u32, written: Taint) {
        if !prov.is_full() || !written.is_tainted() {
            return;
        }
        if self.block.insns == 0 {
            self.block.start_pc = pc;
        }
        self.block.insns += 1;
        self.block.label |= written.0;
    }

    /// Emits the pending [`ProvEvent::NativeBlock`] (if any). Called
    /// at every branch event, ending the current basic-block run. A
    /// return from native code is a branch too, so nothing is pending
    /// at JNI return.
    #[inline]
    pub(crate) fn flush_block(&mut self, prov: &mut Recorder) {
        if self.block.insns == 0 {
            return;
        }
        prov.emit(ProvEvent::NativeBlock {
            start_pc: self.block.start_pc,
            insns: self.block.insns,
            label: self.block.label,
        });
        self.block = BlockAcc::default();
    }
}

impl Analysis for NDroidAnalysis {
    fn tracks_native(&self) -> bool {
        true
    }

    fn on_insn(&mut self, shadow: &mut ShadowState, _cpu: &Cpu, _mem: &Memory, effect: &Effect) {
        // The stepper runs each instruction as a one-step block, lowered
        // from the instruction the executor actually ran (never re-read
        // from guest memory, which a store may just have overwritten).
        self.trace_step(shadow, &BlockStep::new(effect.instr, effect.size), effect);
    }

    #[inline]
    fn on_step(
        &mut self,
        shadow: &mut ShadowState,
        _cpu: &Cpu,
        _mem: &Memory,
        step: &BlockStep,
        effect: &Effect,
    ) {
        self.trace_step(shadow, step, effect);
    }

    fn on_branch(&mut self, shadow: &mut ShadowState, from: u32, to: u32) {
        self.flush_block(&mut shadow.prov);
        self.stats.branch_events += 1;
        // Feed active chains; prune finished ones. Their unwind
        // conditions return into native code, so every branch counts.
        // A chain starts at T1, so every level it enters is a deep hook.
        let mut i = 0;
        while i < self.active.len() {
            if self.active[i].on_branch(from, to).is_some() {
                self.stats.deep_hooks += 1;
            }
            if self.active[i].depth() == 0 {
                self.active.swap_remove(i);
            } else {
                i += 1;
            }
        }
        match self.hooks.at(to) {
            // Unconditional-hooking counterfactual (ablation D1).
            Hook::Inner => self.stats.unconditional_hooks += 1,
            // Activate a new chain when third-party native code enters
            // an outer JNI function (condition T1).
            Hook::Starts(chain) if in_native_code(from) => {
                self.active.push(MultilevelHook::enter(chain, from));
                self.stats.chains_activated += 1;
            }
            _ => {}
        }
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
        self.stats.jni_entries += 1;
        let def = dvm.program.method(method);
        let class_name = &dvm.program.class(dvm.program.method_class(method)).name;
        let kinds = def.param_kinds();

        trace.push("jni-entry", format_args!("name: {}", def.name));
        trace.push("jni-entry", format_args!("class: {class_name}"));
        trace.push("jni-entry", format_args!("shorty: {}", def.shorty));
        trace.push("jni-entry", format_args!("insnAddr: {entry:x}"));
        for (i, (value, taint)) in args.iter().zip(taints.iter()).enumerate() {
            if taint.is_tainted() {
                let kind = kinds.kind(i).unwrap_or('I');
                trace.push(
                    "jni-entry",
                    format_args!("args[{i}]@{value:#x} {kind} taint: {taint}"),
                );
            }
        }

        // Fresh native frame: shadow registers start clear, then the
        // SourcePolicy handler initializes them. A policy is built only
        // for a call that receives tainted parameters.
        shadow.clear_regs();
        if !taints.iter().any(|t| t.is_tainted()) {
            return;
        }
        let access = def.access_flags();
        let policy = SourcePolicy::from_call(entry, &def.shorty, access, args, taints, kinds);
        self.stats.source_policies += 1;
        trace.push(
            "source-policy",
            format_args!("Find a source function @{entry:#x} SourceHandler"),
        );
        for (i, t) in policy.t_regs.iter().enumerate() {
            if t.is_tainted() {
                trace.push("source-policy", format_args!("t(r{i}) := {t}"));
            }
        }
        for (r, t) in &policy.object_args {
            trace.push("source-policy", format_args!("t({:x}) := {}", r.0, t.0));
        }
        policy.apply(shadow, stack_args_base);
        self.policies.insert(policy);
    }

    fn on_jni_return(
        &mut self,
        _dvm: &mut Dvm,
        shadow: &ShadowState,
        trace: &mut TraceLog,
        method: MethodId,
        ret: u32,
    ) -> Taint {
        let t = shadow.regs[0];
        if t.is_tainted() {
            trace.push(
                "jni-return",
                format_args!("method {} returned {ret:#x} with native taint {t}", method.0),
            );
        }
        // Shadow R0 is already unioned in by the bridge; nothing extra.
        Taint::CLEAR
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ndroid_jni::dvm_addr;

    #[test]
    fn branch_events_activate_and_gate() {
        let mut a = NDroidAnalysis::new();
        let mut sh = ShadowState::new();
        let chain = hook_table().at(dvm_addr("CallVoidMethodA"));
        let Hook::Starts(&[outer, bridge, interp]) = chain else {
            panic!("CallVoidMethodA starts a three-level chain")
        };
        // From native code: chain activates and deep hooks fire.
        a.on_branch(&mut sh, 0x1000_0040, outer);
        assert_eq!(a.stats.chains_activated, 1);
        a.on_branch(&mut sh, outer + 0x10, bridge);
        a.on_branch(&mut sh, bridge + 0x10, interp);
        assert_eq!(a.stats.deep_hooks, 2);
        // Unwind.
        a.on_branch(&mut sh, interp + 4, bridge + 0x14);
        a.on_branch(&mut sh, bridge + 4, outer + 0x14);
        a.on_branch(&mut sh, outer + 4, 0x1000_0044);
        assert!(a.active.is_empty());

        // From framework code: no activation, but the unconditional
        // counterfactual still counts the inner entry.
        let before = a.stats.unconditional_hooks;
        a.on_branch(&mut sh, 0x7000_0000, outer);
        a.on_branch(&mut sh, outer + 0x10, bridge);
        assert_eq!(a.stats.chains_activated, 1, "not re-activated");
        assert_eq!(a.stats.unconditional_hooks, before + 1);

        // Branches that leave native code for anywhere but libdvm's
        // trap region are filtered before any lookup: nothing counts.
        let before = a.stats.clone();
        a.on_branch(&mut sh, 0x1000_0040, 0x1000_0100);
        a.on_branch(&mut sh, 0x1000_0040, ndroid_libc::libc_addr("memcpy"));
        assert_eq!(a.stats.chains_activated, before.chains_activated);
        assert_eq!(a.stats.unconditional_hooks, before.unconditional_hooks);
        assert_eq!(a.stats.branch_events, before.branch_events + 2);
        assert!(a.active.is_empty());
        // An inner libdvm function still counts, and an outer one
        // still activates its chain.
        a.on_branch(&mut sh, 0x1000_0040, bridge);
        assert_eq!(a.stats.unconditional_hooks, before.unconditional_hooks + 1);
        a.on_branch(&mut sh, 0x1000_0040, outer);
        assert_eq!(a.stats.chains_activated, before.chains_activated + 1);
    }

    /// T1 holds from the native call until its return, whatever the
    /// outer function branches to in between: its own code before it
    /// calls the next level, and the returns of the levels it left.
    #[test]
    fn t1_holds_until_the_native_call_returns() {
        let mut a = NDroidAnalysis::new();
        let mut sh = ShadowState::new();
        let chain = hook_table().at(dvm_addr("CallVoidMethodA"));
        let Hook::Starts(&[outer, bridge, _]) = chain else {
            panic!("CallVoidMethodA starts a three-level chain")
        };
        a.on_branch(&mut sh, 0x1000_0040, outer);
        a.on_branch(&mut sh, outer + 0x08, outer + 0x0c);
        a.on_branch(&mut sh, outer + 0x10, bridge);
        a.on_branch(&mut sh, bridge + 4, outer + 0x14);
        a.on_branch(&mut sh, outer + 0x10, bridge);
        a.on_branch(&mut sh, bridge + 4, outer + 0x14);
        assert_eq!((a.stats.deep_hooks, a.active.len()), (2, 1));
        a.on_branch(&mut sh, outer + 4, 0x1000_0044);
        assert!(a.active.is_empty());
    }

    #[test]
    fn tracer_classifies_the_executed_instruction() {
        use ndroid_arm::cond::Cond;
        use ndroid_arm::encode::encode;
        use ndroid_arm::insn::{DpOp, Instr, Op2};
        use ndroid_arm::reg::Reg;
        let mut a = NDroidAnalysis::new();
        let mut sh = ShadowState::new();
        let cpu = Cpu::new();
        let mut mem = Memory::new();
        let branch = Instr::Branch {
            cond: Cond::Al,
            link: false,
            offset: 0,
        };
        let add = Instr::Dp {
            cond: Cond::Al,
            op: DpOp::Add,
            s: false,
            rd: Reg::R0,
            rn: Reg::R1,
            op2: Op2::reg(Reg::R2),
        };
        // Guest memory holds a branch where the executor ran an ADD (a
        // store overwrote it afterwards): the tracer must follow the
        // effect, not the bytes.
        mem.write_u32(0x1000_0000, encode(&branch).unwrap());
        let eff = |instr: Instr| Effect {
            instr,
            pc: 0x1000_0000,
            size: 4,
            executed: true,
            branch: None,
            addr: None,
            svc: None,
        };
        sh.regs[2] = Taint::SMS;
        a.on_insn(&mut sh, &cpu, &mem, &eff(add));
        assert_eq!(a.stats.insns_traced, 1);
        assert_eq!(sh.regs[0], Taint::SMS, "t(r0) = t(r1) | t(r2)");
        a.on_insn(&mut sh, &cpu, &mem, &eff(branch));
        a.on_insn(&mut sh, &cpu, &mem, &eff(branch));
        assert_eq!(a.stats.insns_skipped, 2, "branches never propagate");
        assert_eq!(a.stats.insns_traced, 1);
    }
}
