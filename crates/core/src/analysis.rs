//! [`NDroidAnalysis`]: the full NDroid analysis plugged into the
//! emulator — DVM hook engine callbacks, the instruction tracer, and
//! the multilevel-hooking bookkeeping.

use crate::config::SourcePolicyOverride;
use crate::source_policy::{SourcePolicy, SourcePolicyMap};
use crate::tracer::apply_taint_op;
use ndroid_arm::block::{Block, BlockStep};
use ndroid_arm::exec::{step_decoded, Effect};
use ndroid_arm::{Cpu, Memory};
use ndroid_dvm::{Dvm, MethodId, Taint};
use ndroid_emu::layout::in_native_code;
use ndroid_emu::multilevel::MultilevelHook;
use ndroid_emu::runtime::Analysis;
use ndroid_emu::shadow::ShadowState;
use ndroid_emu::trace::TraceLog;
use ndroid_jni::calls::{parse_call_name, ArgForm};
use ndroid_jni::{dvm_addr, jni_names};
use ndroid_provenance::{Handle, ProvEvent};
use std::collections::HashMap;
use std::rc::Rc;

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
    } else if (ndroid_emu::layout::LIBDVM_BASE..ndroid_emu::layout::LIBDVM_BASE + 0x0100_0000)
        .contains(&addr)
    {
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
    /// Whether multilevel gating is applied (ablation D1; when false,
    /// every inner-function entry counts as instrumented).
    pub gate_hooks: bool,
    /// Whether the §VII taint-protection extension is active: native
    /// stores into VM-private regions are recorded as violations.
    pub protect_taints: bool,
    /// Overrides the §V-B source-policy installation rule (set from
    /// [`crate::SystemConfig::source_policies`]).
    pub policy_override: SourcePolicyOverride,
    /// Violations recorded by the taint protector.
    pub violations: Vec<ProtectionViolation>,
    // Fixed at construction (pure functions of the Table-III name
    // tables), `Rc`-shared so cloning an analysis for a snapshot fork
    // costs a refcount bump instead of rebuilding ~250 chain vectors.
    chain_specs: Rc<HashMap<u32, Vec<u32>>>,
    inner_addrs: Rc<Vec<u32>>,
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
            .field("gate_hooks", &self.gate_hooks)
            .finish()
    }
}

impl NDroidAnalysis {
    /// A fresh analysis with multilevel chains for every JNI-exit,
    /// object-creation and exception function.
    pub fn new() -> NDroidAnalysis {
        let mut chain_specs = HashMap::new();
        for name in jni_names() {
            if let Some((_, form)) = parse_call_name(name) {
                let bridge = match form {
                    ArgForm::Varargs => dvm_addr("dvmCallMethod"),
                    ArgForm::VaList => dvm_addr("dvmCallMethodV"),
                    ArgForm::JvalueArray => dvm_addr("dvmCallMethodA"),
                };
                chain_specs.insert(
                    dvm_addr(name),
                    vec![dvm_addr(name), bridge, dvm_addr("dvmInterpret")],
                );
            }
        }
        // Object creation: NOF → MAF pairs of Table III.
        for (nof, maf) in [
            ("NewObject", "dvmAllocObject"),
            ("NewObjectV", "dvmAllocObject"),
            ("NewObjectA", "dvmAllocObject"),
            ("NewString", "dvmCreateStringFromUnicode"),
            ("NewStringUTF", "dvmCreateStringFromCstr"),
            ("NewObjectArray", "dvmAllocArrayByClass"),
            ("NewBooleanArray", "dvmAllocPrimitiveArray"),
            ("NewByteArray", "dvmAllocPrimitiveArray"),
            ("NewCharArray", "dvmAllocPrimitiveArray"),
            ("NewShortArray", "dvmAllocPrimitiveArray"),
            ("NewIntArray", "dvmAllocPrimitiveArray"),
            ("NewLongArray", "dvmAllocPrimitiveArray"),
            ("NewFloatArray", "dvmAllocPrimitiveArray"),
            ("NewDoubleArray", "dvmAllocPrimitiveArray"),
        ] {
            chain_specs.insert(dvm_addr(nof), vec![dvm_addr(nof), dvm_addr(maf)]);
        }
        // Exception: ThrowNew → initException → dvmCallMethod.
        chain_specs.insert(
            dvm_addr("ThrowNew"),
            vec![
                dvm_addr("ThrowNew"),
                dvm_addr("initException"),
                dvm_addr("dvmCallMethod"),
            ],
        );
        let inner_addrs: Vec<u32> = [
            "dvmCallMethod",
            "dvmCallMethodV",
            "dvmCallMethodA",
            "dvmInterpret",
            "dvmAllocObject",
            "dvmCreateStringFromUnicode",
            "dvmCreateStringFromCstr",
            "dvmAllocArrayByClass",
            "dvmAllocPrimitiveArray",
            "initException",
        ]
        .iter()
        .map(|n| dvm_addr(n))
        .collect();
        NDroidAnalysis {
            policies: SourcePolicyMap::new(),
            gate_hooks: true,
            protect_taints: true,
            policy_override: SourcePolicyOverride::AsPaper,
            violations: Vec::new(),
            chain_specs: Rc::new(chain_specs),
            inner_addrs: Rc::new(inner_addrs),
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
    pub(crate) fn note_written(&mut self, prov: &Handle, pc: u32, written: Taint) {
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
    /// at every branch event and at JNI return, ending the current
    /// basic-block run.
    #[inline]
    pub(crate) fn flush_block(&mut self, prov: &Handle) {
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

    fn on_block(
        &mut self,
        shadow: &mut ShadowState,
        cpu: &mut Cpu,
        mem: &mut Memory,
        block: &Block,
        budget: &mut u64,
    ) -> Result<(), ndroid_emu::EmuError> {
        for step in block.steps() {
            if *budget == 0 {
                return Err(ndroid_emu::EmuError::Timeout { budget: 0 });
            }
            *budget -= 1;
            let effect = step_decoded(cpu, mem, step.instr, step.size)?;
            self.trace_step(shadow, step, &effect);
            if let Some(b) = effect.branch {
                self.on_branch(shadow, b.from, b.to);
                return Ok(());
            }
            // An executed store into the block's own code page: the
            // remaining pre-compiled steps can no longer be trusted, so
            // abandon the block (the run loop rebuilds from fresh bytes).
            if step.store_bytes != 0
                && effect.executed
                && effect
                    .addr
                    .is_some_and(|a| block.store_hits_code(a, step.store_bytes))
            {
                return Ok(());
            }
        }
        Ok(())
    }

    fn on_branch(&mut self, shadow: &mut ShadowState, from: u32, to: u32) {
        self.flush_block(&shadow.prov);
        self.stats.branch_events += 1;
        // Unconditional-hooking counterfactual (ablation D1).
        if self.inner_addrs.contains(&to) {
            self.stats.unconditional_hooks += 1;
        }
        // Feed active chains; prune finished ones.
        let mut i = 0;
        while i < self.active.len() {
            if let Some(level) = self.active[i].on_branch(from, to) {
                if level > 0 {
                    self.stats.deep_hooks += 1;
                }
            }
            if self.active[i].depth() == 0 {
                self.active.swap_remove(i);
            } else {
                i += 1;
            }
        }
        // Activate a new chain when third-party native code enters an
        // outer JNI function (condition T1).
        if self.gate_hooks && in_native_code(from) {
            if let Some(spec) = self.chain_specs.get(&to) {
                let mut hook = MultilevelHook::new(spec.clone(), in_native_code);
                if hook.on_branch(from, to).is_some() {
                    self.stats.chains_activated += 1;
                    self.active.push(hook);
                }
            }
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
        let class_name = dvm.program.class(dvm.program.method_class(method)).name.clone();
        let shorty = def.shorty.clone();
        let access = def.access_flags();
        let mut kinds: Vec<char> = Vec::with_capacity(args.len());
        if !def.is_static {
            kinds.push('L');
        }
        kinds.extend(shorty.chars().skip(1));

        trace.push("jni-entry", format!("name: {}", def.name));
        trace.push("jni-entry", format!("class: {class_name}"));
        trace.push("jni-entry", format!("shorty: {shorty}"));
        trace.push("jni-entry", format!("insnAddr: {entry:x}"));
        for (i, (value, taint)) in args.iter().zip(taints.iter()).enumerate() {
            if taint.is_tainted() {
                let kind = kinds.get(i).copied().unwrap_or('I');
                trace.push(
                    "jni-entry",
                    format!("args[{i}]@{value:#x} {kind} taint: {taint}"),
                );
            }
        }

        // Fresh native frame: shadow registers start clear, then the
        // SourcePolicy handler initializes them.
        shadow.clear_regs();
        let policy = SourcePolicy::from_call(entry, &shorty, access, args, taints, &kinds);
        let tainted = policy.any_tainted();
        let install = match self.policy_override {
            SourcePolicyOverride::AsPaper => tainted,
            SourcePolicyOverride::Always => true,
            SourcePolicyOverride::Never => false,
        };
        if !install {
            return;
        }
        if tainted {
            self.stats.source_policies += 1;
            trace.push(
                "source-policy",
                format!("Find a source function @{entry:#x} SourceHandler"),
            );
            for (i, t) in policy.t_regs.iter().enumerate() {
                if t.is_tainted() {
                    trace.push("source-policy", format!("t(r{i}) := {t}"));
                }
            }
            for (r, t) in &policy.object_args {
                trace.push("source-policy", format!("t({:x}) := {}", r.0, t.0));
            }
            policy.apply(shadow, stack_args_base);
        }
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
        self.flush_block(&shadow.prov);
        let t = shadow.regs[0];
        if t.is_tainted() {
            trace.push(
                "jni-return",
                format!("method {} returned {ret:#x} with native taint {t}", method.0),
            );
        }
        // Shadow R0 is already unioned in by the bridge; nothing extra.
        Taint::CLEAR
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chains_cover_call_family_and_creation() {
        let a = NDroidAnalysis::new();
        assert!(a.chain_specs.contains_key(&dvm_addr("CallVoidMethodA")));
        assert!(a.chain_specs.contains_key(&dvm_addr("CallStaticIntMethodV")));
        assert!(a.chain_specs.contains_key(&dvm_addr("NewStringUTF")));
        assert!(a.chain_specs.contains_key(&dvm_addr("ThrowNew")));
        assert_eq!(
            a.chain_specs[&dvm_addr("CallVoidMethodA")],
            vec![
                dvm_addr("CallVoidMethodA"),
                dvm_addr("dvmCallMethodA"),
                dvm_addr("dvmInterpret")
            ]
        );
    }

    #[test]
    fn branch_events_activate_and_gate() {
        let mut a = NDroidAnalysis::new();
        let mut sh = ShadowState::new();
        let outer = dvm_addr("CallVoidMethodA");
        let bridge = dvm_addr("dvmCallMethodA");
        let interp = dvm_addr("dvmInterpret");
        // From native code: chain activates and deep hooks fire.
        a.on_branch(&mut sh, 0x1000_0040, outer);
        assert_eq!(a.stats.chains_activated, 1);
        a.on_branch(&mut sh, outer + 0x10, bridge);
        a.on_branch(&mut sh, bridge + 0x20, interp);
        assert_eq!(a.stats.deep_hooks, 2);
        // Unwind.
        a.on_branch(&mut sh, interp + 4, bridge + 0x24);
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
