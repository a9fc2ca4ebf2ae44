//! The guest run loop, host-function dispatch, and the two call
//! bridges that cross the Java/native boundary.
//!
//! * [`call_guest`] — run ARM/Thumb code until it returns, firing
//!   [`Analysis`] callbacks per instruction and per branch (the role of
//!   NDroid's TCG-inserted analysis calls, §V-G).
//! * [`run_native_method`] — the `dvmCallJNIMethod` analog (JNI
//!   *entry*): marshals Dalvik arguments into ARM registers/stack per
//!   the AAPCS ("the first four parameters are passed in R0 to R3, and
//!   the remaining parameters are pushed onto stack, and the return
//!   value is put in R0", §V-B), converting object references to
//!   indirect references.
//! * [`call_java_method`] — the `dvmCallMethod*`/`dvmInterpret` analog
//!   (JNI *exit*): decodes indirect references back to objects and
//!   invokes the interpreter with per-argument taints supplied by the
//!   analysis.
//!
//! Host functions (JNI env functions, modeled libc) are registered at
//! guest trap addresses in a [`HostTable`]; branching to one dispatches
//! the Rust implementation and simulates the return.

use crate::error::EmuError;
use crate::kernel::Kernel;
use crate::layout::RETURN_SENTINEL;
use crate::shadow::ShadowState;
use crate::trace::TraceLog;
use ndroid_arm::block::{build_block, Block, BlockCache, BlockStep};
use ndroid_arm::exec::{step_cached, step_decoded, Effect};
use ndroid_arm::icache::DecodeCache;
use ndroid_arm::{Cpu, Memory};
use ndroid_dvm::{Dvm, DvmError, MethodId, MethodKind, NativeHandler, Taint};
use std::collections::HashMap;

/// Observation and taint-policy interface — the seam where NDroid's
/// analysis modules plug into the emulator. A vanilla run uses
/// [`VanillaAnalysis`] (all no-ops), which is how the CF-Bench
/// baseline measures uninstrumented speed.
pub trait Analysis {
    /// Whether native-context taint tracking is active. Modeled libc
    /// functions consult this before doing taint work, and sinks
    /// compute taint only when it returns `true`.
    fn tracks_native(&self) -> bool {
        false
    }

    /// Called after each guest instruction executes (the instruction
    /// tracer's entry point; Table V propagation lives here).
    fn on_insn(
        &mut self,
        _shadow: &mut ShadowState,
        _cpu: &Cpu,
        _mem: &Memory,
        _effect: &Effect,
    ) {
    }

    /// Called on every control transfer `(I_from, I_to)`, including
    /// virtual branches into/out of host functions — the event stream
    /// the multilevel-hooking FSM consumes.
    fn on_branch(&mut self, _shadow: &mut ShadowState, _from: u32, _to: u32) {}

    /// Called after each step of a cached superblock retires, with the
    /// step's pre-compiled lowering. The default forwards to
    /// [`Analysis::on_insn`], so a block run observes exactly what the
    /// stepper would; an analysis that can use the pre-compiled
    /// [`BlockStep`] (the NDroid tracer) overrides this instead.
    fn on_step(
        &mut self,
        shadow: &mut ShadowState,
        cpu: &Cpu,
        mem: &Memory,
        _step: &BlockStep,
        effect: &Effect,
    ) {
        self.on_insn(shadow, cpu, mem, effect);
    }

    /// Executes one cached superblock: steps each pre-decoded
    /// instruction, charging the budget per *retired* instruction (so
    /// [`EmuError::Timeout`] fires at the identical instruction count
    /// as single-stepping) and firing
    /// [`Analysis::on_step`]/[`Analysis::on_branch`] exactly as the
    /// stepper fires `on_insn`/`on_branch`. The block exits early after
    /// the first instruction whose runtime [`Effect::branch`] fires (a
    /// taken conditional branch mid-block, the block terminator, or any
    /// surprise PC write), and after any executed store that touches
    /// the block's own code page — the remaining pre-decoded steps can
    /// no longer be trusted, so control returns to the run loop, whose
    /// next cache lookup sees the bumped write generation and rebuilds
    /// from the fresh bytes.
    ///
    /// # Errors
    ///
    /// Execution failures and [`EmuError::Timeout`] on budget
    /// exhaustion, exactly as the per-instruction stepper raises them.
    fn on_block(
        &mut self,
        shadow: &mut ShadowState,
        cpu: &mut Cpu,
        mem: &mut Memory,
        block: &Block,
        budget: &mut u64,
    ) -> Result<(), EmuError> {
        for step in block.steps() {
            if *budget == 0 {
                return Err(EmuError::Timeout { budget: 0 });
            }
            *budget -= 1;
            let effect = step_decoded(cpu, mem, step.instr, step.size)?;
            self.on_step(shadow, cpu, mem, step, &effect);
            let own_page_store = step.store_bytes != 0
                && effect.executed
                && effect
                    .addr
                    .is_some_and(|a| block.store_hits_code(a, step.store_bytes));
            if let Some(b) = effect.branch {
                self.on_branch(shadow, b.from, b.to);
                return Ok(());
            }
            if own_page_store {
                return Ok(());
            }
        }
        Ok(())
    }

    /// JNI entry (the `SourcePolicy` handler): initialize native-side
    /// taints for a Java→native invocation. `args` are the marshalled
    /// register values (objects already converted to indirect refs);
    /// `stack_args_base` is the guest address of argument 5 onward.
    #[allow(clippy::too_many_arguments)]
    fn on_jni_entry(
        &mut self,
        _dvm: &mut Dvm,
        _shadow: &mut ShadowState,
        _trace: &mut TraceLog,
        _method: MethodId,
        _entry: u32,
        _args: &[u32],
        _taints: &[Taint],
        _stack_args_base: u32,
    ) {
    }

    /// JNI return: compute the native-tracked taint of the value the
    /// native method returned (shadow R0 for primitives, the object
    /// taint map for references).
    fn on_jni_return(
        &mut self,
        _dvm: &mut Dvm,
        _shadow: &ShadowState,
        _trace: &mut TraceLog,
        _method: MethodId,
        _ret: u32,
    ) -> Taint {
        Taint::CLEAR
    }
}

/// The no-op analysis: a vanilla emulator run.
#[derive(Debug, Default, Clone, Copy)]
pub struct VanillaAnalysis;

impl Analysis for VanillaAnalysis {}

/// Everything a host function can touch. Fields are disjoint mutable
/// borrows so host functions can use several at once.
pub struct NativeCtx<'a> {
    /// Guest CPU.
    pub cpu: &'a mut Cpu,
    /// Guest memory.
    pub mem: &'a mut Memory,
    /// The Dalvik VM (heap, indirect references, interpreter).
    pub dvm: &'a mut Dvm,
    /// NDroid's shadow taint state.
    pub shadow: &'a mut ShadowState,
    /// The simulated kernel.
    pub kernel: &'a mut Kernel,
    /// The analysis trace log.
    pub trace: &'a mut TraceLog,
    /// The plugged-in analysis (NDroid, a baseline, or vanilla).
    pub analysis: &'a mut dyn Analysis,
    /// Remaining guest-instruction budget.
    pub budget: &'a mut u64,
    /// Decoded-instruction cache shared by every guest run in this
    /// session (invalidated page-wise via memory write generations).
    pub icache: &'a mut DecodeCache,
    /// Compiled-superblock cache shared the same way (invalidated by
    /// the same page write generations as the icache).
    pub blocks: &'a mut BlockCache,
}

impl NativeCtx<'_> {
    /// Reborrows every field into a child context (for nested guest
    /// runs inside host functions).
    pub fn reborrow(&mut self) -> NativeCtx<'_> {
        NativeCtx {
            cpu: self.cpu,
            mem: self.mem,
            dvm: self.dvm,
            shadow: self.shadow,
            kernel: self.kernel,
            trace: self.trace,
            analysis: self.analysis,
            budget: self.budget,
            icache: self.icache,
            blocks: self.blocks,
        }
    }
}

/// A host function: receives the full context and the table (so it can
/// run nested guest code), returns the value to place in R0. `Send +
/// Sync` so one table can be built once per process and shared by every
/// system on every thread.
pub type HostFn =
    Box<dyn Fn(&mut NativeCtx<'_>, &HostTable) -> Result<u32, EmuError> + Send + Sync>;

struct HostEntry {
    name: &'static str,
    f: HostFn,
}

/// Host functions registered at guest trap addresses.
#[derive(Default)]
pub struct HostTable {
    fns: HashMap<u32, HostEntry>,
}

impl std::fmt::Debug for HostTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HostTable").field("fns", &self.fns.len()).finish()
    }
}

impl HostTable {
    /// An empty table.
    pub fn new() -> HostTable {
        HostTable::default()
    }

    /// Registers `f` under `name` at guest address `addr`.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is already taken (function layout bug).
    pub fn register(
        &mut self,
        addr: u32,
        name: &'static str,
        f: impl Fn(&mut NativeCtx<'_>, &HostTable) -> Result<u32, EmuError> + Send + Sync + 'static,
    ) {
        let prev = self.fns.insert(
            addr,
            HostEntry {
                name,
                f: Box::new(f),
            },
        );
        assert!(prev.is_none(), "duplicate host fn at {addr:#x}");
    }

    /// The name registered at `addr`, if any.
    pub fn name_at(&self, addr: u32) -> Option<&str> {
        self.fns.get(&addr).map(|e| e.name)
    }

    /// Whether a host function is registered at `addr`. Block discovery
    /// uses this as its stop predicate: a trap address must reach the
    /// run loop as a block *entry*, never hide inside a block.
    pub fn contains(&self, addr: u32) -> bool {
        self.fns.contains_key(&addr)
    }

    /// Number of registered functions.
    pub fn len(&self) -> usize {
        self.fns.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.fns.is_empty()
    }
}

/// Calls guest code at `entry` with up to-AAPCS `args`, running until
/// it returns. Returns `(R0, taint of R0)`. Caller-visible register
/// state is saved and restored; memory side effects persist.
///
/// # Errors
///
/// Decode/execute failures, [`EmuError::Timeout`] when the instruction
/// budget runs out, and host-function failures.
pub fn call_guest(
    ctx: &mut NativeCtx<'_>,
    table: &HostTable,
    entry: u32,
    args: &[u32],
    pre: impl FnOnce(&mut NativeCtx<'_>, u32),
) -> Result<(u32, Taint), EmuError> {
    // Snapshot caller state.
    let saved_regs = ctx.cpu.regs;
    let saved_flags = (ctx.cpu.n, ctx.cpu.z, ctx.cpu.c, ctx.cpu.v);
    let saved_thumb = ctx.cpu.thumb;
    let saved_shadow = ctx.shadow.regs;

    // Marshal arguments per AAPCS.
    let nreg = args.len().min(4);
    ctx.cpu.regs[..nreg].copy_from_slice(&args[..nreg]);
    let mut sp = ctx.cpu.regs[13];
    let stack_args = args.len().saturating_sub(4);
    if stack_args > 0 {
        sp -= 4 * stack_args as u32;
        for (i, a) in args[4..].iter().enumerate() {
            ctx.mem.write_u32(sp + 4 * i as u32, *a);
        }
    }
    ctx.cpu.regs[13] = sp;
    ctx.cpu.regs[14] = RETURN_SENTINEL;
    ctx.cpu.set_pc(entry);
    if entry & 1 == 0 {
        ctx.cpu.thumb = false;
    }

    pre(ctx, sp);

    let result = run_loop(ctx, table);

    let r0 = ctx.cpu.regs[0];
    let r0_taint = ctx.shadow.regs[0];
    // Restore caller state.
    ctx.cpu.regs = saved_regs;
    (ctx.cpu.n, ctx.cpu.z, ctx.cpu.c, ctx.cpu.v) = saved_flags;
    ctx.cpu.thumb = saved_thumb;
    ctx.shadow.regs = saved_shadow;
    result?;
    Ok((r0, r0_taint))
}

/// Runs guest code from the current pc until it branches to
/// [`RETURN_SENTINEL`] — the one dispatcher every guest run goes
/// through. [`call_guest`] is argument marshalling, this loop, and the
/// caller-state restore; the differential oracle drives it directly.
///
/// # Errors
///
/// Decode/execute failures, [`EmuError::Timeout`] when the budget runs
/// out, and host-function failures.
pub fn run_loop(ctx: &mut NativeCtx<'_>, table: &HostTable) -> Result<(), EmuError> {
    loop {
        let pc = ctx.cpu.pc();
        if pc == RETURN_SENTINEL {
            return Ok(());
        }
        // Hot path: a cached superblock at this pc executes as a single
        // dispatch. Host trap addresses never have blocks (discovery
        // refuses them), so probing the block cache first is safe and
        // saves the table hash on every loop iteration.
        if ctx.blocks.enabled {
            if let Some(block) = ctx.blocks.lookup(ctx.mem, pc, ctx.cpu.thumb) {
                ctx.analysis
                    .on_block(ctx.shadow, ctx.cpu, ctx.mem, block, ctx.budget)?;
                continue;
            }
        }
        if let Some(entry) = table.fns.get(&pc) {
            let r0 = (entry.f)(&mut ctx.reborrow(), table).map_err(|e| match e {
                EmuError::Host { .. } => e,
                other => EmuError::Host {
                    name: entry.name.to_string(),
                    message: other.to_string(),
                },
            })?;
            ctx.cpu.regs[0] = r0;
            // Simulate `bx lr`.
            let lr = ctx.cpu.regs[14];
            ctx.analysis.on_branch(ctx.shadow, pc, lr & !1);
            ctx.cpu.thumb = lr & 1 != 0;
            ctx.cpu.regs[15] = lr & !1;
            continue;
        }
        if ctx.blocks.enabled {
            if let Some(block) = build_block(ctx.mem, pc, ctx.cpu.thumb, |a| table.contains(a)) {
                let block = ctx.blocks.insert(ctx.mem, block);
                ctx.analysis
                    .on_block(ctx.shadow, ctx.cpu, ctx.mem, block, ctx.budget)?;
                continue;
            }
        }
        // Stepper fallback: blocks disabled, or nothing decodeable at
        // this pc (the step below re-raises the identical decode error).
        if *ctx.budget == 0 {
            return Err(EmuError::Timeout { budget: 0 });
        }
        *ctx.budget -= 1;
        let effect = step_cached(ctx.cpu, ctx.mem, ctx.icache)?;
        ctx.analysis.on_insn(ctx.shadow, ctx.cpu, ctx.mem, &effect);
        if let Some(b) = effect.branch {
            ctx.analysis.on_branch(ctx.shadow, b.from, b.to);
        }
    }
}

/// The `dvmCallJNIMethod` analog: runs the JNI native `method` with
/// Dalvik argument registers `args`/`taints`, marshalling object
/// references to indirect references on the way in and back on the way
/// out. Returns the Dalvik-visible `(value, native-tracked taint)`.
///
/// # Errors
///
/// Guest execution failures; [`EmuError::Dvm`] for marshalling errors.
pub fn run_native_method(
    ctx: &mut NativeCtx<'_>,
    table: &HostTable,
    method: MethodId,
    args: &[u32],
    taints: &[Taint],
) -> Result<(u32, Taint), EmuError> {
    let def = ctx.dvm.program.get_method(method)?;
    let (entry, shorty, name, class_name) = match def.kind {
        MethodKind::Native { entry } => (
            entry,
            def.shorty.clone(),
            def.name.clone(),
            ctx.dvm
                .program
                .class(ctx.dvm.program.method_class(method))
                .name
                .clone(),
        ),
        _ => {
            return Err(EmuError::Dvm(DvmError::NotInterpretable(format!(
                "{} is not native",
                def.name
            ))))
        }
    };

    // Marshal: convert object-reference arguments to indirect local
    // references (Android ≥ 4.0 semantics, §II-A). Parameter kinds come
    // from the shorty (skip the return-type character); non-static
    // methods receive `this` as an implicit leading reference.
    let mut native_args = Vec::with_capacity(args.len());
    let param_kinds = param_kinds_of(ctx.dvm, method, &shorty);
    for (i, value) in args.iter().enumerate() {
        let is_ref = param_kinds.get(i).copied() == Some('L');
        if is_ref && *value != 0 {
            let id = Dvm::expect_obj(*value).map_err(EmuError::Dvm)?;
            let r = ctx
                .dvm
                .refs
                .add(ndroid_dvm::IndirectRefKind::Local, id);
            native_args.push(r.0);
        } else {
            native_args.push(*value);
        }
    }

    ctx.trace.push(
        "jni-call",
        format_args!("dvmCallJNIMethod: {class_name}.{name} shorty={shorty} entry={entry:#x}"),
    );

    if ctx.shadow.prov.is_on() {
        let arg_taint = taints
            .iter()
            .fold(Taint::CLEAR, |acc, t| acc | *t);
        ctx.shadow.prov.emit(ndroid_provenance::ProvEvent::JniEntry {
            method: format!("{class_name}.{name}"),
            label: arg_taint.0,
        });
    }

    let taints_vec = taints.to_vec();
    let method_copy = method;
    let native_args_for_pre = native_args.clone();
    let (ret, ret_shadow_taint) = {
        let pre = |c: &mut NativeCtx<'_>, stack_base: u32| {
            c.analysis.on_jni_entry(
                c.dvm,
                c.shadow,
                c.trace,
                method_copy,
                entry,
                &native_args_for_pre,
                &taints_vec,
                stack_base,
            );
        };
        call_guest(ctx, table, entry, &native_args, pre)?
    };

    let extra = ctx
        .analysis
        .on_jni_return(ctx.dvm, ctx.shadow, ctx.trace, method, ret);
    let mut native_taint = ret_shadow_taint | extra;

    // Unmarshal an object return value: indirect ref → Dalvik register
    // reference. The object-map taint rides along.
    let returns_ref = shorty.starts_with('L');
    let dalvik_ret = if returns_ref && ret != 0 {
        let iref = ndroid_dvm::IndirectRef(ret);
        if ctx.analysis.tracks_native() {
            native_taint |= ctx.shadow.object_taint(iref);
        }
        let id = ctx.dvm.refs.decode(iref).map_err(EmuError::Dvm)?;
        Dvm::ref_value(id)
    } else {
        ret
    };

    if ctx.shadow.prov.is_on() {
        ctx.shadow.prov.emit(ndroid_provenance::ProvEvent::JniExit {
            method: format!("{class_name}.{name}"),
            label: native_taint.0,
        });
    }

    Ok((dalvik_ret, native_taint))
}

/// The `dvmCallMethod*` → `dvmInterpret` analog: invokes a Java method
/// from native code. `args` are native-side values with the taints the
/// analysis derived from shadow state; object parameters must be
/// indirect references, which this bridge decodes
/// (`dvmDecodeIndirectRef`) before pushing the frame. Returns the
/// native-visible `(value, taint)` — an object result is re-wrapped as
/// an indirect reference.
///
/// # Errors
///
/// Interpreter failures, including uncaught Java exceptions.
pub fn call_java_method(
    ctx: &mut NativeCtx<'_>,
    table: &HostTable,
    method: MethodId,
    args: &[(u32, Taint)],
) -> Result<(u32, Taint), EmuError> {
    let def = ctx.dvm.program.get_method(method)?;
    let shorty = def.shorty.clone();
    let returns_ref = shorty.starts_with('L');
    let param_kinds = param_kinds_of(ctx.dvm, method, &shorty);

    let mut dalvik_args = Vec::with_capacity(args.len());
    for (i, (value, taint)) in args.iter().enumerate() {
        let is_ref = param_kinds.get(i).copied() == Some('L');
        if is_ref && *value != 0 {
            let id = ctx
                .dvm
                .refs
                .decode(ndroid_dvm::IndirectRef(*value))
                .map_err(EmuError::Dvm)?;
            dalvik_args.push((Dvm::ref_value(id), *taint));
        } else {
            dalvik_args.push((*value, *taint));
        }
    }

    let (ret, ret_taint) = {
        let mut runner = GuestRunner {
            cpu: ctx.cpu,
            mem: ctx.mem,
            shadow: ctx.shadow,
            kernel: ctx.kernel,
            trace: ctx.trace,
            analysis: ctx.analysis,
            budget: ctx.budget,
            icache: ctx.icache,
            blocks: ctx.blocks,
            table,
        };
        let dvm: &mut Dvm = ctx.dvm;
        dvm.invoke_with(method, &dalvik_args, &mut runner)
            .map_err(EmuError::Dvm)?
    };

    // Wrap an object result back into an indirect reference for the
    // native caller, carrying its taint in the object map.
    if returns_ref && ret != 0 {
        let id = Dvm::expect_obj(ret).map_err(EmuError::Dvm)?;
        let iref = ctx.dvm.refs.add(ndroid_dvm::IndirectRefKind::Local, id);
        if ctx.analysis.tracks_native() {
            ctx.shadow.taint_object(iref, ret_taint);
        }
        Ok((iref.0, ret_taint))
    } else {
        Ok((ret, ret_taint))
    }
}

/// Parameter kind characters for `method`: the shorty's parameters,
/// with an implicit leading `L` (`this`) for non-static methods.
fn param_kinds_of(dvm: &Dvm, method: MethodId, shorty: &str) -> Vec<char> {
    let mut kinds = Vec::with_capacity(shorty.len());
    if !dvm.program.method(method).is_static {
        kinds.push('L');
    }
    kinds.extend(shorty.chars().skip(1));
    kinds
}

/// Reads AAPCS argument `i` of the current call: 0–3 from R0–R3, the
/// rest from the stack.
pub fn aapcs_arg(cpu: &Cpu, mem: &Memory, i: usize) -> u32 {
    if i < 4 {
        cpu.regs[i]
    } else {
        mem.read_u32(cpu.regs[13] + 4 * (i as u32 - 4))
    }
}

/// The shadow taint of AAPCS argument `i`.
pub fn aapcs_arg_taint(cpu: &Cpu, shadow: &ShadowState, i: usize) -> Taint {
    if i < 4 {
        shadow.regs[i]
    } else {
        shadow.mem.range_taint(cpu.regs[13] + 4 * (i as u32 - 4), 4)
    }
}

/// A [`NativeHandler`] that executes native methods on the emulator —
/// the glue that lets the interpreter and the ARM world re-enter each
/// other arbitrarily deep (Java → native → Java → native …).
pub struct GuestRunner<'a> {
    /// Guest CPU.
    pub cpu: &'a mut Cpu,
    /// Guest memory.
    pub mem: &'a mut Memory,
    /// Shadow taint state.
    pub shadow: &'a mut ShadowState,
    /// Simulated kernel.
    pub kernel: &'a mut Kernel,
    /// Analysis trace.
    pub trace: &'a mut TraceLog,
    /// Plugged-in analysis.
    pub analysis: &'a mut dyn Analysis,
    /// Remaining instruction budget.
    pub budget: &'a mut u64,
    /// Decoded-instruction cache.
    pub icache: &'a mut DecodeCache,
    /// Compiled-superblock cache.
    pub blocks: &'a mut BlockCache,
    /// Host-function table.
    pub table: &'a HostTable,
}

impl NativeHandler for GuestRunner<'_> {
    fn call_native(
        &mut self,
        dvm: &mut Dvm,
        method: MethodId,
        args: &[u32],
        taints: &[Taint],
    ) -> Result<(u32, Taint), DvmError> {
        let mut ctx = NativeCtx {
            cpu: self.cpu,
            mem: self.mem,
            dvm,
            shadow: self.shadow,
            kernel: self.kernel,
            trace: self.trace,
            analysis: self.analysis,
            budget: self.budget,
            icache: self.icache,
            blocks: self.blocks,
        };
        run_native_method(&mut ctx, self.table, method, args, taints).map_err(|e| match e {
            EmuError::Dvm(d) => d,
            other => DvmError::NativeFailure(other.to_string()),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout;
    use ndroid_arm::{Assembler, Reg};
    use ndroid_dvm::framework::install_framework;
    use ndroid_dvm::{ClassDef, MethodDef, Program};

    struct World {
        cpu: Cpu,
        mem: Memory,
        dvm: Dvm,
        shadow: ShadowState,
        kernel: Kernel,
        trace: TraceLog,
        budget: u64,
        icache: DecodeCache,
        blocks: BlockCache,
    }

    impl World {
        fn new(program: Program) -> World {
            let mut cpu = Cpu::new();
            cpu.regs[13] = layout::NATIVE_STACK_TOP;
            World {
                cpu,
                mem: Memory::new(),
                dvm: Dvm::new(program),
                shadow: ShadowState::new(),
                kernel: Kernel::new(),
                trace: TraceLog::new(),
                budget: 10_000_000,
                icache: DecodeCache::new(),
                blocks: BlockCache::new(),
            }
        }

        fn ctx<'a>(&'a mut self, analysis: &'a mut dyn Analysis) -> NativeCtx<'a> {
            NativeCtx {
                cpu: &mut self.cpu,
                mem: &mut self.mem,
                dvm: &mut self.dvm,
                shadow: &mut self.shadow,
                kernel: &mut self.kernel,
                trace: &mut self.trace,
                analysis,
                budget: &mut self.budget,
                icache: &mut self.icache,
                blocks: &mut self.blocks,
            }
        }
    }

    fn load(asm: Assembler, mem: &mut Memory) -> u32 {
        let base = asm.base();
        let code = asm.assemble().unwrap();
        mem.write_bytes(base, &code.bytes);
        base
    }

    #[test]
    fn call_guest_runs_plain_function() {
        let mut asm = Assembler::new(layout::NATIVE_CODE_BASE);
        asm.add(Reg::R0, Reg::R0, Reg::R1);
        asm.bx(Reg::LR);
        let mut w = World::new(Program::new());
        let entry = load(asm, &mut w.mem);
        let mut a = VanillaAnalysis;
        let table = HostTable::new();
        let mut ctx = w.ctx(&mut a);
        let (r, t) = call_guest(&mut ctx, &table, entry, &[40, 2], |_, _| {}).unwrap();
        assert_eq!(r, 42);
        assert!(t.is_clear());
    }

    #[test]
    fn caller_registers_restored() {
        let mut asm = Assembler::new(layout::NATIVE_CODE_BASE);
        asm.mov_imm(Reg::R4, 0xEE).unwrap(); // clobber a callee-saved reg (rude guest)
        asm.bx(Reg::LR);
        let mut w = World::new(Program::new());
        let entry = load(asm, &mut w.mem);
        w.cpu.regs[4] = 0x1234;
        let sp_before = w.cpu.regs[13];
        let mut a = VanillaAnalysis;
        let table = HostTable::new();
        let mut ctx = w.ctx(&mut a);
        call_guest(&mut ctx, &table, entry, &[], |_, _| {}).unwrap();
        assert_eq!(w.cpu.regs[4], 0x1234, "register file restored");
        assert_eq!(w.cpu.regs[13], sp_before);
    }

    #[test]
    fn stack_args_beyond_four() {
        // f(a,b,c,d,e,f) = a + e + f  (e, f come from the stack)
        let mut asm = Assembler::new(layout::NATIVE_CODE_BASE);
        asm.ldr(Reg::R1, Reg::SP, 0); // e
        asm.ldr(Reg::R2, Reg::SP, 4); // f
        asm.add(Reg::R0, Reg::R0, Reg::R1);
        asm.add(Reg::R0, Reg::R0, Reg::R2);
        asm.bx(Reg::LR);
        let mut w = World::new(Program::new());
        let entry = load(asm, &mut w.mem);
        let mut a = VanillaAnalysis;
        let table = HostTable::new();
        let mut ctx = w.ctx(&mut a);
        let (r, _) = call_guest(&mut ctx, &table, entry, &[1, 0, 0, 0, 10, 100], |_, base| {
            assert!(base > 0);
        })
        .unwrap();
        assert_eq!(r, 111);
    }

    #[test]
    fn host_function_dispatch() {
        // Guest calls a host function that doubles R0.
        const DOUBLER: u32 = layout::LIBC_BASE + 0x40;
        let mut asm = Assembler::new(layout::NATIVE_CODE_BASE);
        asm.push(ndroid_arm::reg::RegList::of(&[Reg::LR]));
        asm.mov_imm(Reg::R0, 21).unwrap();
        asm.call_abs(DOUBLER);
        asm.pop(ndroid_arm::reg::RegList::of(&[Reg::PC]));
        let mut table = HostTable::new();
        table.register(DOUBLER, "doubler", |ctx, _| Ok(ctx.cpu.regs[0] * 2));
        let mut w = World::new(Program::new());
        let entry = load(asm, &mut w.mem);
        let mut a = VanillaAnalysis;
        let mut ctx = w.ctx(&mut a);
        let (r, _) = call_guest(&mut ctx, &table, entry, &[], |_, _| {}).unwrap();
        assert_eq!(r, 42);
        assert_eq!(table.name_at(DOUBLER), Some("doubler"));
    }

    #[test]
    fn budget_stops_infinite_loop() {
        let mut asm = Assembler::new(layout::NATIVE_CODE_BASE);
        let top = asm.here_label();
        asm.b(top);
        let mut w = World::new(Program::new());
        let entry = load(asm, &mut w.mem);
        w.budget = 100;
        let mut a = VanillaAnalysis;
        let table = HostTable::new();
        let mut ctx = w.ctx(&mut a);
        let err = call_guest(&mut ctx, &table, entry, &[], |_, _| {}).unwrap_err();
        assert!(matches!(err, EmuError::Timeout { .. }));
    }

    #[test]
    fn analysis_sees_instructions_and_branches() {
        #[derive(Default)]
        struct Counter {
            insns: u64,
            branches: u64,
        }
        impl Analysis for Counter {
            fn on_insn(&mut self, _s: &mut ShadowState, _c: &Cpu, _m: &Memory, _e: &Effect) {
                self.insns += 1;
            }
            fn on_branch(&mut self, _s: &mut ShadowState, _f: u32, _t: u32) {
                self.branches += 1;
            }
        }
        let mut asm = Assembler::new(layout::NATIVE_CODE_BASE);
        asm.mov_imm(Reg::R0, 1).unwrap();
        asm.mov_imm(Reg::R1, 2).unwrap();
        asm.add(Reg::R0, Reg::R0, Reg::R1);
        asm.bx(Reg::LR);
        let mut w = World::new(Program::new());
        let entry = load(asm, &mut w.mem);
        let mut a = Counter::default();
        let table = HostTable::new();
        let mut ctx = w.ctx(&mut a);
        call_guest(&mut ctx, &table, entry, &[], |_, _| {}).unwrap();
        assert_eq!(a.insns, 4);
        assert_eq!(a.branches, 1, "the bx lr");
    }

    #[test]
    fn run_native_method_via_interpreter() {
        // Java main() calls native add42(I)I implemented in ARM.
        use ndroid_dvm::bytecode::DexInsn;
        use ndroid_dvm::InvokeKind;
        let mut asm = Assembler::new(layout::NATIVE_CODE_BASE);
        asm.add_imm(Reg::R0, Reg::R0, 42).unwrap();
        asm.bx(Reg::LR);

        let mut p = Program::new();
        install_framework(&mut p);
        let c = p.add_class(ClassDef {
            name: "Lapp/N;".into(),
            ..ClassDef::default()
        });
        let native = p.add_method(
            c,
            MethodDef::new("add42", "II", MethodKind::Native { entry: layout::NATIVE_CODE_BASE }),
        );
        let main = p.add_method(
            c,
            MethodDef::new(
                "main",
                "I",
                MethodKind::Bytecode(vec![
                    DexInsn::Const { dst: 0, value: 8 },
                    DexInsn::Invoke {
                        kind: InvokeKind::Static,
                        method: native,
                        args: vec![0],
                    },
                    DexInsn::MoveResult { dst: 0 },
                    DexInsn::Return { src: 0 },
                ]),
            )
            .with_registers(1),
        );

        let mut w = World::new(p);
        let mut asm_mem = Memory::new();
        let code = asm.assemble().unwrap();
        asm_mem.write_bytes(layout::NATIVE_CODE_BASE, &code.bytes);
        w.mem = asm_mem;

        let table = HostTable::new();
        let mut a = VanillaAnalysis;
        let mut runner = GuestRunner {
            cpu: &mut w.cpu,
            mem: &mut w.mem,
            shadow: &mut w.shadow,
            kernel: &mut w.kernel,
            trace: &mut w.trace,
            analysis: &mut a,
            budget: &mut w.budget,
            icache: &mut w.icache,
            blocks: &mut w.blocks,
            table: &table,
        };
        let (v, _) = w.dvm.invoke_with(main, &[], &mut runner).unwrap();
        assert_eq!(v, 50);
        assert!(w.trace.contains("add42"), "jni-call logged");
    }

    #[test]
    fn object_args_become_indirect_refs() {
        // Native method receives a jstring: the raw register value must
        // be a valid indirect reference, not a Dalvik ref value.
        // The "native code" here is a host-fn-free stub that just
        // returns its argument so we can inspect what it received.
        let mut asm = Assembler::new(layout::NATIVE_CODE_BASE);
        asm.bx(Reg::LR); // return R0 = first arg
        let mut p = Program::new();
        let c = p.add_class(ClassDef {
            name: "Lapp/N;".into(),
            ..ClassDef::default()
        });
        let native = p.add_method(
            c,
            MethodDef::new("echo", "IL", MethodKind::Native { entry: layout::NATIVE_CODE_BASE }),
        );
        let mut w = World::new(p);
        let code = asm.assemble().unwrap();
        w.mem.write_bytes(layout::NATIVE_CODE_BASE, &code.bytes);
        let s = w.dvm.new_string("hello", Taint::CLEAR);
        let table = HostTable::new();
        let mut a = VanillaAnalysis;
        let mut ctx = w.ctx(&mut a);
        let (raw, _) =
            run_native_method(&mut ctx, &table, native, &[s], &[Taint::CLEAR]).unwrap();
        // The echo returned the indirect ref it was handed; it must
        // decode to our string object.
        let iref = ndroid_dvm::IndirectRef(raw);
        assert!(iref.kind().is_some(), "kind bits set: {raw:#x}");
        let id = w.dvm.refs.decode(iref).unwrap();
        assert_eq!(w.dvm.heap.string(id).unwrap().0, "hello");
    }
}
