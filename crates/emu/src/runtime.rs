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
use ndroid_arm::{Cpu, IntMap, Memory};
use ndroid_dvm::{
    ArgBuf, Dvm, DvmError, IndirectRefKind, MethodId, MethodKind, NativeHandler, ObjectId,
    Recorder, Taint,
};
use std::sync::Arc;

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
                return Err(EmuError::Timeout);
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
    fns: IntMap<u32, HostEntry>,
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
    let stack_args = args.get(4..).unwrap_or_default();
    let sp = ctx.cpu.regs[13].wrapping_sub(4 * stack_args.len() as u32);
    for (i, a) in stack_args.iter().enumerate() {
        ctx.mem.write_u32(slot_addr(sp, i), *a);
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
                other => EmuError::Host { name: entry.name.to_string(), source: Box::new(other) },
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
            return Err(EmuError::Timeout);
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
    let MethodKind::Native { entry } = def.kind else {
        return Err(EmuError::Dvm(DvmError::NotInterpretable(format!(
            "{} is not native",
            def.name
        ))));
    };
    let returns_ref = def.returns_reference();
    let class_name = &ctx.dvm.program.class(ctx.dvm.program.method_class(method)).name;
    ctx.trace.push(
        "jni-call",
        format_args!(
            "dvmCallJNIMethod: {class_name}.{} shorty={} entry={entry:#x}",
            def.name, def.shorty
        ),
    );

    // Marshal: convert object-reference arguments to indirect local
    // references (Android ≥ 4.0 semantics, §II-A). Parameter kinds come
    // from the shorty (skip the return-type character); non-static
    // methods receive `this` as an implicit leading reference.
    let mut native_args = ArgBuf::new();
    for (i, &value) in args.iter().enumerate() {
        let is_ref = ctx.dvm.program.method(method).param_kinds().is_ref(i);
        native_args.push(match Dvm::obj_id(value) {
            Some(id) if is_ref => new_local(ctx, id, Taint::CLEAR),
            _ => value,
        });
    }

    if ctx.shadow.prov.is_on() {
        let arg_taint = taints
            .iter()
            .fold(Taint::CLEAR, |acc, t| acc | *t);
        ctx.shadow.prov.emit(ndroid_provenance::ProvEvent::JniEntry {
            method: Arc::clone(ctx.dvm.program.qualified_name(method)).into(),
            label: arg_taint.0,
        });
    }

    let (ret, ret_shadow_taint) = call_guest(ctx, table, entry, &native_args, |c, stack_base| {
        c.analysis.on_jni_entry(
            c.dvm,
            c.shadow,
            c.trace,
            method,
            entry,
            &native_args,
            taints,
            stack_base,
        );
    })?;

    let extra = ctx
        .analysis
        .on_jni_return(ctx.dvm, ctx.shadow, ctx.trace, method, ret);
    let mut native_taint = ret_shadow_taint | extra;

    // Unmarshal an object return value: indirect ref → Dalvik register
    // reference. The object-map taint rides along.
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
            method: Arc::clone(ctx.dvm.program.qualified_name(method)).into(),
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
    let returns_ref = def.returns_reference();
    let kinds = def.param_kinds();

    let mut dalvik_args = ArgBuf::new();
    for (i, &(value, taint)) in args.iter().enumerate() {
        if kinds.is_ref(i) && value != 0 {
            let id = ctx
                .dvm
                .refs
                .decode(ndroid_dvm::IndirectRef(value))
                .map_err(EmuError::Dvm)?;
            dalvik_args.push((Dvm::ref_value(id), taint));
        } else {
            dalvik_args.push((value, taint));
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
        Ok((new_local(ctx, id, ret_taint), ret_taint))
    } else {
        Ok((ret, ret_taint))
    }
}

/// Hands object `id` to native code as a fresh local indirect
/// reference, recording `taint` in its shadow object-map entry when the
/// analysis tracks native taint. Every local reference is made here:
/// the JNI bridge's marshalled arguments and object returns, and each
/// JNI function that returns an object.
#[inline]
pub fn new_local(ctx: &mut NativeCtx<'_>, id: ObjectId, taint: Taint) -> u32 {
    let r = ctx.dvm.refs.add(IndirectRefKind::Local, id);
    if tracking(ctx) {
        ctx.shadow.taint_object(r, taint);
    }
    r.0
}

// --- The AAPCS surface every host function reads its call through ---
//
// Argument `i` of a call is R0–R3 for `i < 4` and the stack slot
// `i - 4` above SP otherwise ("the first four parameters are passed in
// R0 to R3, and the remaining parameters are pushed onto stack", §V-B);
// the return value is R0 (R0/R1 for 64-bit results). Slot addresses
// come from guest registers and guest memory, so they wrap like
// [`Memory`]: a hostile SP or `va_list` reads wrapped slots, it never
// overflows the host.

/// The guest address of 32-bit slot `slot` in an array at `base`: an
/// AAPCS stack slot above SP, a `va_list` or a `jvalue` array.
#[inline]
pub fn slot_addr(base: u32, slot: usize) -> u32 {
    base.wrapping_add((slot as u32).wrapping_mul(4))
}

/// The most one host-model call moves or creates, checked before any
/// host buffer is allocated: the bytes of an `fread`/`fwrite` or of a
/// `write`/`send`/`sendto` sink, and the UTF-16 units or elements of a
/// JNI `NewString` or `New<Type>Array`. 1 Mi.
pub const MAX_TRANSFER: u32 = 1 << 20;

/// AAPCS argument `i` of the current call.
#[inline]
pub fn arg(ctx: &NativeCtx<'_>, i: usize) -> u32 {
    match i.checked_sub(4) {
        None => ctx.cpu.regs[i],
        Some(slot) => ctx.mem.read_u32(slot_addr(ctx.cpu.regs[13], slot)),
    }
}

/// The shadow taint of AAPCS argument `i`: register taint for 0–3,
/// taint-map bytes for stack arguments. Read whether or not the
/// analysis tracks native taint; callers apply their own rule.
#[inline]
pub fn arg_taint(ctx: &NativeCtx<'_>, i: usize) -> Taint {
    match i.checked_sub(4) {
        None => ctx.shadow.regs[i],
        Some(slot) => ctx.shadow.mem.range_taint(slot_addr(ctx.cpu.regs[13], slot), 4),
    }
}

/// Whether the plugged-in analysis tracks native taint; host models do
/// taint work only when it does.
#[inline]
pub fn tracking(ctx: &NativeCtx<'_>) -> bool {
    ctx.analysis.tracks_native()
}

/// Sets the shadow taint of the return register R0 (cleared when not
/// tracking).
#[inline]
pub fn set_ret_taint(ctx: &mut NativeCtx<'_>, taint: Taint) {
    ctx.shadow.regs[0] = if tracking(ctx) { taint } else { Taint::CLEAR };
}

/// Sets the shadow taint of R0 and R1, for a 64-bit or softfp `double`
/// return (cleared when not tracking).
#[inline]
pub fn set_ret_taint64(ctx: &mut NativeCtx<'_>, taint: Taint) {
    set_ret_taint(ctx, taint);
    ctx.shadow.regs[1] = ctx.shadow.regs[0];
}

/// A cursor over a call's 32-bit variadic arguments, each read with
/// its taint (clear when the analysis does not track native taint).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArgCursor {
    /// `...`: the AAPCS arguments from this index on, in registers and
    /// then on the stack.
    Aapcs(usize),
    /// A `va_list` or a `jvalue *`: packed 32-bit slots from this guest
    /// address on (how these guests lay out both).
    Slots(u32),
}

impl ArgCursor {
    /// The next argument and its taint.
    #[inline]
    pub fn next(&mut self, ctx: &NativeCtx<'_>) -> (u32, Taint) {
        let track = tracking(ctx);
        match self {
            ArgCursor::Aapcs(i) => {
                let at = *i;
                *i += 1;
                let t = if track { arg_taint(ctx, at) } else { Taint::CLEAR };
                (arg(ctx, at), t)
            }
            ArgCursor::Slots(addr) => {
                let at = *addr;
                *addr = slot_addr(at, 1);
                let t = if track { ctx.shadow.mem.range_taint(at, 4) } else { Taint::CLEAR };
                (ctx.mem.read_u32(at), t)
            }
        }
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
            other => DvmError::NativeFailure {
                budget_exhausted: other.is_budget_exhausted(),
                message: other.to_string(),
            },
        })
    }

    fn recorder(&mut self) -> Option<&mut Recorder> {
        Some(&mut self.shadow.prov)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout;
    use crate::testutil::World;
    use ndroid_arm::reg::RegList;
    use ndroid_arm::Reg;
    use ndroid_dvm::framework::install_framework;
    use ndroid_dvm::{ClassDef, MethodDef, Program};

    /// A world running `program` with the host functions `table`,
    /// 10 000 000 instructions of budget and analysis `a`.
    fn world<A: Analysis>(program: Program, table: HostTable, a: A) -> World<A> {
        let mut w = World::new(program, table, a);
        w.budget = 10_000_000;
        w
    }

    fn vanilla() -> World<VanillaAnalysis> {
        world(Program::new(), HostTable::new(), VanillaAnalysis)
    }

    #[test]
    fn call_guest_runs_plain_function() {
        let mut w = vanilla();
        let entry = w.load(|asm| {
            asm.add(Reg::R0, Reg::R0, Reg::R1);
            asm.bx(Reg::LR);
        });
        let (r, t) = w.call(entry, &[40, 2]).unwrap();
        assert_eq!(r, 42);
        assert!(t.is_clear());
    }

    #[test]
    fn caller_registers_restored() {
        let mut w = vanilla();
        let entry = w.load(|asm| {
            asm.mov_imm(Reg::R4, 0xEE).unwrap(); // clobber a callee-saved reg (rude guest)
            asm.bx(Reg::LR);
        });
        w.cpu.regs[4] = 0x1234;
        let sp_before = w.cpu.regs[13];
        w.call(entry, &[]).unwrap();
        assert_eq!(w.cpu.regs[4], 0x1234, "register file restored");
        assert_eq!(w.cpu.regs[13], sp_before);
    }

    #[test]
    fn stack_args_beyond_four() {
        // f(a,b,c,d,e,f) = a + e + f  (e, f come from the stack)
        let mut w = vanilla();
        let entry = w.load(|asm| {
            asm.ldr(Reg::R1, Reg::SP, 0); // e
            asm.ldr(Reg::R2, Reg::SP, 4); // f
            asm.add(Reg::R0, Reg::R0, Reg::R1);
            asm.add(Reg::R0, Reg::R0, Reg::R2);
            asm.bx(Reg::LR);
        });
        let (r, _) = w
            .with_ctx(|ctx, table| {
                call_guest(ctx, table, entry, &[1, 0, 0, 0, 10, 100], |_, base| {
                    assert!(base > 0);
                })
            })
            .unwrap();
        assert_eq!(r, 111);
    }

    #[test]
    fn stack_slots_wrap_like_memory() {
        // SP = 4: the two stack arguments land at 0xFFFFFFFC and, wrapped
        // like `Memory`, at 0; a callee with that SP reads them back.
        let mut w = vanilla();
        let entry = w.load(|asm| asm.bx(Reg::LR));
        w.cpu.regs[13] = 4;
        w.call(entry, &[0, 0, 0, 0, 10, 100]).unwrap();
        assert_eq!((w.mem.read_u32(0xFFFF_FFFC), w.mem.read_u32(0)), (10, 100));
        w.cpu.regs[13] = 0xFFFF_FFFC;
        assert_eq!(w.with_ctx(|ctx, _| (arg(ctx, 4), arg(ctx, 5))), (10, 100));
    }

    #[test]
    fn host_function_dispatch() {
        // Guest calls a host function that doubles R0.
        const DOUBLER: u32 = layout::LIBC_BASE + 0x40;
        let mut table = HostTable::new();
        table.register(DOUBLER, "doubler", |ctx, _| Ok(ctx.cpu.regs[0] * 2));
        let mut w = world(Program::new(), table, VanillaAnalysis);
        let entry = w.load(|asm| {
            asm.push(RegList::of(&[Reg::LR]));
            asm.mov_imm(Reg::R0, 21).unwrap();
            asm.call_abs(DOUBLER);
            asm.pop(RegList::of(&[Reg::PC]));
        });
        let (r, _) = w.call(entry, &[]).unwrap();
        assert_eq!(r, 42);
        assert_eq!(w.table.name_at(DOUBLER), Some("doubler"));
    }

    #[test]
    fn budget_stops_infinite_loop() {
        let mut w = vanilla();
        let entry = w.load(|asm| {
            let top = asm.here_label();
            asm.b(top);
        });
        w.budget = 100;
        let err = w.call(entry, &[]).unwrap_err();
        assert_eq!(err, EmuError::Timeout);
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
        let mut w = world(Program::new(), HostTable::new(), Counter::default());
        let entry = w.load(|asm| {
            asm.mov_imm(Reg::R0, 1).unwrap();
            asm.mov_imm(Reg::R1, 2).unwrap();
            asm.add(Reg::R0, Reg::R0, Reg::R1);
            asm.bx(Reg::LR);
        });
        w.call(entry, &[]).unwrap();
        assert_eq!(w.analysis.insns, 4);
        assert_eq!(w.analysis.branches, 1, "the bx lr");
    }

    #[test]
    fn run_native_method_via_interpreter() {
        // Java main() calls native add42(I)I implemented in ARM.
        use ndroid_dvm::bytecode::DexInsn;
        use ndroid_dvm::InvokeKind;
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

        let mut w = world(p, HostTable::new(), VanillaAnalysis);
        w.load(|asm| {
            asm.add_imm(Reg::R0, Reg::R0, 42).unwrap();
            asm.bx(Reg::LR);
        });
        let mut runner = GuestRunner {
            cpu: &mut w.cpu,
            mem: &mut w.mem,
            shadow: &mut w.shadow,
            kernel: &mut w.kernel,
            trace: &mut w.trace,
            analysis: &mut w.analysis,
            budget: &mut w.budget,
            icache: &mut w.icache,
            blocks: &mut w.blocks,
            table: &w.table,
        };
        let (v, _) = w.dvm.invoke_with(main, &[], &mut runner).unwrap();
        assert_eq!(v, 50);
        assert!(w.trace.contains("add42"), "jni-call logged");
    }

    /// Both bridges with more arguments than an `ArgBuf` holds inline:
    /// `(I…IL)L` methods whose last argument, an object, is also their
    /// result. Natively it arrives on the stack as an indirect reference;
    /// in Java it arrives as the object, with its taint.
    #[test]
    fn wide_crossings_marshal_every_argument() {
        use ndroid_dvm::argbuf::INLINE_ARGS;
        use ndroid_dvm::DexInsn;
        const N: usize = INLINE_ARGS + 4;
        let mut p = Program::new();
        let c = p.add_class(ClassDef {
            name: "Lapp/Wide;".into(),
            ..ClassDef::default()
        });
        let shorty = format!("L{}L", "I".repeat(N - 1));
        let entry = layout::NATIVE_CODE_BASE;
        let native = p.add_method(
            c,
            MethodDef::new("lastNative", shorty.as_str(), MethodKind::Native { entry }),
        );
        let last = DexInsn::Return { src: N as u16 - 1 };
        let java = p.add_method(
            c,
            MethodDef::new("lastJava", shorty, MethodKind::Bytecode(vec![last])),
        );
        let mut w = world(p, HostTable::new(), VanillaAnalysis);
        w.load(|asm| {
            asm.ldr(Reg::R0, Reg::SP, 4 * (N as u16 - 1 - 4));
            asm.bx(Reg::LR);
        });
        let s = w.dvm.new_string("hello", Taint::CLEAR);
        let mut args: Vec<u32> = (1..N as u32).collect();
        args.push(s);
        let taints = vec![Taint::CLEAR; N];
        let (ret, _) = w
            .with_ctx(|ctx, table| run_native_method(ctx, table, native, &args, &taints))
            .unwrap();
        assert_eq!(ret, s, "the stack argument was the string's indirect reference");

        let id = Dvm::expect_obj(s).unwrap();
        let iref = w.with_ctx(|ctx, _| new_local(ctx, id, Taint::CLEAR));
        let mut jargs: Vec<(u32, Taint)> = (1..N as u32).map(|v| (v, Taint::CLEAR)).collect();
        jargs.push((iref, Taint::SMS));
        let (ret, taint) = w
            .with_ctx(|ctx, table| call_java_method(ctx, table, java, &jargs))
            .unwrap();
        let back = w.dvm.refs.decode(ndroid_dvm::IndirectRef(ret)).unwrap();
        assert_eq!((back, taint), (id, Taint::SMS));
    }

    #[test]
    fn object_args_become_indirect_refs() {
        // Native method receives a jstring: the raw register value must
        // be a valid indirect reference, not a Dalvik ref value.
        // The "native code" here is a host-fn-free stub that just
        // returns its argument so we can inspect what it received.
        let mut p = Program::new();
        let c = p.add_class(ClassDef {
            name: "Lapp/N;".into(),
            ..ClassDef::default()
        });
        let native = p.add_method(
            c,
            MethodDef::new("echo", "IL", MethodKind::Native { entry: layout::NATIVE_CODE_BASE }),
        );
        let mut w = world(p, HostTable::new(), VanillaAnalysis);
        w.load(|asm| asm.bx(Reg::LR)); // return R0 = first arg
        let s = w.dvm.new_string("hello", Taint::CLEAR);
        let (raw, _) = w
            .with_ctx(|ctx, table| run_native_method(ctx, table, native, &[s], &[Taint::CLEAR]))
            .unwrap();
        // The echo returned the indirect ref it was handed; it must
        // decode to our string object.
        let iref = ndroid_dvm::IndirectRef(raw);
        assert!(iref.kind().is_some(), "kind bits set: {raw:#x}");
        let id = w.dvm.refs.decode(iref).unwrap();
        assert_eq!(&**w.dvm.heap.string(id).unwrap().0, "hello");
    }
}
