//! The bytecode interpreter with TaintDroid's taint-propagation rules.
//!
//! "TaintDroid tracks the taints of primitive type variables and object
//! references according to the logic of each DVM instruction. When a
//! native method is called, TaintDroid adopts the taint propagation
//! policy that the return value will be tainted if any parameter is
//! tainted." (§II-B) — that conservative JNI policy is implemented
//! verbatim in [`Dvm::invoke_with`]; the [`NativeHandler`] (NDroid's
//! call bridge, or a no-op for the TaintDroid-only baseline) may union
//! in a more precise native-side taint on top.

use crate::bytecode::DexInsn;
use crate::class::{MethodId, MethodKind, Program};
use crate::error::DvmError;
use crate::framework::{DeviceProfile, Intrinsic};
use crate::heap::{Heap, ObjectId};
use crate::indirect::IndirectRefTable;
use crate::object::HeapObject;
use crate::stack::DvmStack;
use crate::taint::Taint;

/// Where a sink fired.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SinkContext {
    /// A Java-context sink (TaintDroid's territory).
    Java,
    /// A native-context sink (NDroid's territory; recorded by the
    /// system-lib hook engine).
    Native,
}

/// A sink invocation observed during execution. It is a *leak* when
/// [`LeakEvent::taint`] is non-clear.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LeakEvent {
    /// Sink identifier, e.g. `"Socket.send"` or `"sendto"`.
    pub sink: String,
    /// Destination (server, file path, phone number…).
    pub dest: String,
    /// The transmitted data.
    pub data: String,
    /// Taint carried by the data at the sink.
    pub taint: Taint,
    /// Which context the sink is in.
    pub context: SinkContext,
}

impl LeakEvent {
    /// Whether this sink call actually carried sensitive data.
    pub fn is_leak(&self) -> bool {
        self.taint.is_tainted()
    }
}

/// Callback used by the interpreter to run JNI native methods.
///
/// NDroid's call bridge implements this (hooking
/// `dvmCallJNIMethod`, creating a `SourcePolicy`, running the ARM code
/// and tracking taint); the TaintDroid-only baseline implements it by
/// executing native code with **no** taint tracking.
pub trait NativeHandler {
    /// Executes native `method` with the given argument registers and
    /// their taints; returns the return value and the *native-tracked*
    /// return taint (CLEAR when the handler does not track).
    ///
    /// # Errors
    ///
    /// Propagates guest execution failures.
    fn call_native(
        &mut self,
        dvm: &mut Dvm,
        method: MethodId,
        args: &[u32],
        taints: &[Taint],
    ) -> Result<(u32, Taint), DvmError>;
}

/// A [`NativeHandler`] that fails on any native call; useful for
/// pure-Java tests.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoNatives;

impl NativeHandler for NoNatives {
    fn call_native(
        &mut self,
        dvm: &mut Dvm,
        method: MethodId,
        _args: &[u32],
        _taints: &[Taint],
    ) -> Result<(u32, Taint), DvmError> {
        Err(DvmError::NotInterpretable(
            dvm.program.method(method).name.clone(),
        ))
    }
}

/// How a method invocation ended.
enum Outcome {
    Return(u32, Taint),
    Thrown(ObjectId),
}

/// The virtual machine: program, heap, indirect references, the
/// TaintDroid stack, and the thread's `InterpSaveState`
/// (`ret_val`/`ret_taint`).
#[derive(Debug, Clone)]
pub struct Dvm {
    /// The loaded program (classes, methods, statics, string pool).
    pub program: Program,
    /// The managed heap.
    pub heap: Heap,
    /// Indirect references handed to native code.
    pub refs: IndirectRefTable,
    /// The TaintDroid-modified interpreter stack.
    pub stack: DvmStack,
    /// `InterpSaveState.retval`.
    pub ret_val: u32,
    /// `InterpSaveState` return-value taint (TaintDroid stores the
    /// return taint here when a method returns, §II-B).
    pub ret_taint: Taint,
    /// Sink invocations (Java context) observed so far.
    pub events: Vec<LeakEvent>,
    /// The simulated device identity for framework sources.
    pub device: DeviceProfile,
    /// Remaining bytecode budget (guards against runaway guests).
    pub fuel: u64,
    /// Total bytecode instructions interpreted.
    pub bytecode_executed: u64,
    /// Whether TaintDroid's DVM-level tracking is active (`false`
    /// models a vanilla, unmodified DVM for overhead baselines).
    pub taint_tracking: bool,
    /// The exception in flight, if any (set by `throw` or JNI
    /// `ThrowNew`).
    pub pending_exception: Option<ObjectId>,
    /// Modeled per-bytecode analysis work (iterations of dummy shadow
    /// work per interpreted instruction). 0 for TaintDroid/NDroid —
    /// they track Java taint inside the modified DVM at near-native
    /// cost; non-zero for the DroidScope-like baseline, which analyzes
    /// every machine instruction of the interpreter itself.
    pub per_insn_tax: u32,
    /// Provenance recorder shared with the native shadow state and
    /// kernel (defaults to `Level::Off`: nothing recorded).
    pub prov: ndroid_provenance::Handle,
}

impl Dvm {
    /// A VM for `program` with default device profile and fuel.
    pub fn new(program: Program) -> Dvm {
        Dvm {
            program,
            heap: Heap::new(),
            refs: IndirectRefTable::new(),
            stack: DvmStack::new(),
            ret_val: 0,
            ret_taint: Taint::CLEAR,
            events: Vec::new(),
            device: DeviceProfile::default(),
            fuel: 50_000_000,
            bytecode_executed: 0,
            taint_tracking: true,
            pending_exception: None,
            per_insn_tax: 0,
            prov: ndroid_provenance::Handle::default(),
        }
    }

    /// Encodes an object id as a register reference value.
    pub fn ref_value(id: ObjectId) -> u32 {
        id.0 + 1
    }

    /// Decodes a register reference value (`None` for null).
    pub fn obj_id(value: u32) -> Option<ObjectId> {
        value.checked_sub(1).map(ObjectId)
    }

    /// Decodes a non-null register reference value.
    ///
    /// # Errors
    ///
    /// [`DvmError::NotAReference`] for null.
    pub fn expect_obj(value: u32) -> Result<ObjectId, DvmError> {
        Dvm::obj_id(value).ok_or(DvmError::NotAReference { value })
    }

    /// Allocates a string object, returning its register value.
    pub fn new_string(&mut self, s: impl Into<String>, taint: Taint) -> u32 {
        Dvm::ref_value(self.heap.alloc_string(s, taint))
    }

    /// The string contents and object taint behind a register value.
    ///
    /// # Errors
    ///
    /// [`DvmError::NotAReference`] / [`DvmError::WrongObjectKind`].
    pub fn string_at(&self, value: u32) -> Result<(&str, Taint), DvmError> {
        let id = Dvm::expect_obj(value)?;
        self.heap.string(id)
    }

    /// Runs a moving-GC cycle (all direct object addresses change).
    pub fn gc(&mut self) {
        self.heap.compact();
    }

    /// The Java-context leaks recorded so far (tainted sink hits).
    pub fn leaks(&self) -> impl Iterator<Item = &LeakEvent> {
        self.events.iter().filter(|e| e.is_leak())
    }

    /// Invokes `class.method` by name. See [`invoke_with`](Dvm::invoke_with).
    ///
    /// # Errors
    ///
    /// Lookup failures plus anything `invoke_with` raises.
    pub fn invoke_by_name(
        &mut self,
        class: &str,
        method: &str,
        args: &[(u32, Taint)],
        handler: &mut dyn NativeHandler,
    ) -> Result<(u32, Taint), DvmError> {
        let m = self.program.find_method_by_name(class, method)?;
        self.invoke_with(m, args, handler)
    }

    /// Invokes a method with `(value, taint)` arguments, dispatching
    /// JNI natives to `handler`.
    ///
    /// # Errors
    ///
    /// [`DvmError::UncaughtException`] if an exception escapes, plus
    /// interpreter failures.
    pub fn invoke_with(
        &mut self,
        method: MethodId,
        args: &[(u32, Taint)],
        handler: &mut dyn NativeHandler,
    ) -> Result<(u32, Taint), DvmError> {
        match self.invoke_checked(method, args, handler)? {
            Outcome::Return(v, t) => Ok((v, t)),
            Outcome::Thrown(obj) => {
                let msg = self.exception_message(obj);
                Err(DvmError::UncaughtException(msg))
            }
        }
    }

    fn exception_message(&self, obj: ObjectId) -> String {
        match self.heap.get(obj) {
            Ok(HeapObject::Exception {
                class_name,
                message,
            }) => {
                let text = Dvm::obj_id(*message)
                    .and_then(|m| self.heap.string(m).ok())
                    .map(|(s, _)| s.to_string())
                    .unwrap_or_default();
                format!("{class_name}: {text}")
            }
            _ => "unknown exception".to_string(),
        }
    }

    /// [`invoke_inner`](Dvm::invoke_inner) on an id a caller or a
    /// bytecode operand supplied: a forged id is an error, not a panic.
    ///
    /// Both functions stay out of line. The interpreter loop is inlined
    /// into `invoke_inner`, and with this check inlined there too the
    /// Java CF-Bench kernels ran measurably slower in release builds.
    #[inline(never)]
    fn invoke_checked(
        &mut self,
        method: MethodId,
        args: &[(u32, Taint)],
        handler: &mut dyn NativeHandler,
    ) -> Result<Outcome, DvmError> {
        self.program.get_method(method)?;
        self.invoke_inner(method, args, handler)
    }

    #[inline(never)]
    fn invoke_inner(
        &mut self,
        method: MethodId,
        args: &[(u32, Taint)],
        handler: &mut dyn NativeHandler,
    ) -> Result<Outcome, DvmError> {
        let def = self.program.method(method);
        match def.kind.clone() {
            MethodKind::Intrinsic(which) => {
                let (v, t) = self.run_intrinsic(which, args)?;
                if let Some(obj) = self.pending_exception.take() {
                    return Ok(Outcome::Thrown(obj));
                }
                Ok(Outcome::Return(v, t))
            }
            MethodKind::Native { .. } => {
                let values: Vec<u32> = args.iter().map(|(v, _)| *v).collect();
                let taints: Vec<Taint> = args.iter().map(|(_, t)| *t).collect();
                let (ret, native_taint) = handler.call_native(self, method, &values, &taints)?;
                // TaintDroid's JNI policy: return tainted iff any
                // parameter was tainted ("set by JNI Call Bridge").
                let policy_taint = if self.taint_tracking {
                    taints.iter().fold(Taint::CLEAR, |acc, t| acc.union(*t))
                } else {
                    Taint::CLEAR
                };
                if let Some(obj) = self.pending_exception.take() {
                    return Ok(Outcome::Thrown(obj));
                }
                Ok(Outcome::Return(ret, policy_taint | native_taint))
            }
            MethodKind::Bytecode(code) => self.run_bytecode(method, &code, args, handler),
        }
    }

    #[allow(clippy::too_many_lines)]
    fn run_bytecode(
        &mut self,
        method: MethodId,
        code: &[DexInsn],
        args: &[(u32, Taint)],
        handler: &mut dyn NativeHandler,
    ) -> Result<Outcome, DvmError> {
        let (registers_size, catch_all) = {
            let def = self.program.method(method);
            (def.registers_size, def.catch_all)
        };
        self.stack.push_frame(method, registers_size, args)?;
        let track = self.taint_tracking;
        let mut pc: usize = 0;
        // Ensure the frame is popped on every exit path.
        let result = (|| -> Result<Outcome, DvmError> {
            loop {
                if self.fuel == 0 {
                    return Err(DvmError::OutOfFuel);
                }
                self.fuel -= 1;
                self.bytecode_executed += 1;
                if self.per_insn_tax > 0 {
                    let mut acc = 0u64;
                    for i in 0..self.per_insn_tax {
                        acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i as u64);
                    }
                    std::hint::black_box(acc);
                }
                let insn = code
                    .get(pc)
                    .ok_or(DvmError::BadBranchTarget(pc as i32))?
                    .clone();
                pc += 1;
                match insn {
                    DexInsn::Const { dst, value } => {
                        self.stack.set(dst, value, Taint::CLEAR)?;
                    }
                    DexInsn::ConstString { dst, index } => {
                        let s = self
                            .program
                            .strings
                            .get(index as usize)
                            .cloned()
                            .unwrap_or_default();
                        let v = self.new_string(s, Taint::CLEAR);
                        self.stack.set(dst, v, Taint::CLEAR)?;
                    }
                    DexInsn::Move { dst, src } => {
                        let v = self.stack.reg(src)?;
                        let t = if track { self.stack.taint(src)? } else { Taint::CLEAR };
                        self.stack.set(dst, v, t)?;
                    }
                    DexInsn::MoveResult { dst } => {
                        let (v, t) = (self.ret_val, self.ret_taint);
                        self.stack.set(dst, v, if track { t } else { Taint::CLEAR })?;
                    }
                    DexInsn::BinOp { op, dst, a, b } => {
                        let va = self.stack.reg(a)?;
                        let vb = self.stack.reg(b)?;
                        let taint = if track {
                            self.stack.taint(a)?.union(self.stack.taint(b)?)
                        } else {
                            Taint::CLEAR
                        };
                        match op.apply(va, vb) {
                            Some(v) => self.stack.set(dst, v, taint)?,
                            None => {
                                let exc = self.throw_new(
                                    "Ljava/lang/ArithmeticException;",
                                    "divide by zero",
                                    Taint::CLEAR,
                                );
                                match self.dispatch_exception(exc, catch_all, &mut pc) {
                                    Some(outcome) => return Ok(outcome),
                                    None => continue,
                                }
                            }
                        }
                    }
                    DexInsn::BinOpLit { op, dst, a, lit } => {
                        let va = self.stack.reg(a)?;
                        let taint = if track { self.stack.taint(a)? } else { Taint::CLEAR };
                        match op.apply(va, lit) {
                            Some(v) => self.stack.set(dst, v, taint)?,
                            None => {
                                let exc = self.throw_new(
                                    "Ljava/lang/ArithmeticException;",
                                    "divide by zero",
                                    Taint::CLEAR,
                                );
                                match self.dispatch_exception(exc, catch_all, &mut pc) {
                                    Some(outcome) => return Ok(outcome),
                                    None => continue,
                                }
                            }
                        }
                    }
                    DexInsn::Neg { dst, src } => {
                        let v = self.stack.reg(src)?;
                        let t = if track { self.stack.taint(src)? } else { Taint::CLEAR };
                        self.stack.set(dst, (v as i32).wrapping_neg() as u32, t)?;
                    }
                    DexInsn::IfTest { op, a, b, target } => {
                        if op.test(self.stack.reg(a)?, self.stack.reg(b)?) {
                            pc = self.branch_target(code, target)?;
                        }
                    }
                    DexInsn::IfTestZ { op, a, target } => {
                        if op.test(self.stack.reg(a)?, 0) {
                            pc = self.branch_target(code, target)?;
                        }
                    }
                    DexInsn::Goto { target } => {
                        pc = self.branch_target(code, target)?;
                    }
                    DexInsn::NewInstance { dst, class } => {
                        let nfields = self.program.get_class(class)?.instance_fields.len();
                        let id = self.heap.alloc(HeapObject::Instance {
                            class,
                            fields: vec![0; nfields],
                            taints: vec![Taint::CLEAR; nfields],
                        });
                        self.stack.set(dst, Dvm::ref_value(id), Taint::CLEAR)?;
                    }
                    DexInsn::NewArray { dst, size, kind } => {
                        let n = self.stack.reg(size)? as usize;
                        let id = self.heap.alloc(HeapObject::Array {
                            kind,
                            data: vec![0; n],
                            taint: Taint::CLEAR,
                        });
                        self.stack.set(dst, Dvm::ref_value(id), Taint::CLEAR)?;
                    }
                    DexInsn::ArrayLength { dst, arr } => {
                        let id = Dvm::expect_obj(self.stack.reg(arr)?)?;
                        let len = match self.heap.get(id)? {
                            HeapObject::Array { data, .. } => data.len() as u32,
                            HeapObject::String { value, .. } => value.len() as u32,
                            _ => return Err(DvmError::WrongObjectKind { expected: "Array" }),
                        };
                        let t = if track { self.stack.taint(arr)? } else { Taint::CLEAR };
                        self.stack.set(dst, len, t)?;
                    }
                    DexInsn::ArrayGet { dst, arr, idx } => {
                        let id = Dvm::expect_obj(self.stack.reg(arr)?)?;
                        let i = self.stack.reg(idx)?;
                        let (value, arr_taint) = match self.heap.get(id)? {
                            HeapObject::Array { data, taint, .. } => {
                                let v = *data.get(i as usize).ok_or(
                                    DvmError::IndexOutOfBounds {
                                        index: i,
                                        len: data.len() as u32,
                                    },
                                )?;
                                (v, *taint)
                            }
                            _ => return Err(DvmError::WrongObjectKind { expected: "Array" }),
                        };
                        // TaintDroid: aget taints dst with the array's
                        // single label, unioned with the index taint.
                        let t = if track {
                            arr_taint.union(self.stack.taint(idx)?)
                        } else {
                            Taint::CLEAR
                        };
                        self.stack.set(dst, value, t)?;
                    }
                    DexInsn::ArrayPut { src, arr, idx } => {
                        let id = Dvm::expect_obj(self.stack.reg(arr)?)?;
                        let i = self.stack.reg(idx)?;
                        let v = self.stack.reg(src)?;
                        let st = if track { self.stack.taint(src)? } else { Taint::CLEAR };
                        match self.heap.get_mut(id)? {
                            HeapObject::Array { data, taint, .. } => {
                                let len = data.len() as u32;
                                let slot = data.get_mut(i as usize).ok_or(
                                    DvmError::IndexOutOfBounds { index: i, len },
                                )?;
                                *slot = v;
                                *taint |= st;
                            }
                            _ => return Err(DvmError::WrongObjectKind { expected: "Array" }),
                        }
                    }
                    DexInsn::IGet { dst, obj, field } => {
                        let id = Dvm::expect_obj(self.stack.reg(obj)?)?;
                        let (v, t) = match self.heap.get(id)? {
                            HeapObject::Instance { fields, taints, .. } => {
                                let v = *fields
                                    .get(field as usize)
                                    .ok_or(DvmError::BadFieldIndex(field as u32))?;
                                (v, taints[field as usize])
                            }
                            _ => return Err(DvmError::WrongObjectKind { expected: "Object" }),
                        };
                        self.stack
                            .set(dst, v, if track { t } else { Taint::CLEAR })?;
                    }
                    DexInsn::IPut { src, obj, field } => {
                        let id = Dvm::expect_obj(self.stack.reg(obj)?)?;
                        let v = self.stack.reg(src)?;
                        let t = if track { self.stack.taint(src)? } else { Taint::CLEAR };
                        match self.heap.get_mut(id)? {
                            HeapObject::Instance { fields, taints, .. } => {
                                let slot = fields
                                    .get_mut(field as usize)
                                    .ok_or(DvmError::BadFieldIndex(field as u32))?;
                                *slot = v;
                                taints[field as usize] = t;
                            }
                            _ => return Err(DvmError::WrongObjectKind { expected: "Object" }),
                        }
                    }
                    DexInsn::SGet { dst, class, field } => {
                        let (v, t) = *self
                            .program
                            .statics
                            .get(class.0 as usize)
                            .ok_or(DvmError::BadClassId(class.0))?
                            .get(field as usize)
                            .ok_or(DvmError::BadFieldIndex(field as u32))?;
                        self.stack
                            .set(dst, v, if track { t } else { Taint::CLEAR })?;
                    }
                    DexInsn::SPut { src, class, field } => {
                        let v = self.stack.reg(src)?;
                        let t = if track { self.stack.taint(src)? } else { Taint::CLEAR };
                        let slot = self
                            .program
                            .statics
                            .get_mut(class.0 as usize)
                            .ok_or(DvmError::BadClassId(class.0))?
                            .get_mut(field as usize)
                            .ok_or(DvmError::BadFieldIndex(field as u32))?;
                        *slot = (v, t);
                    }
                    DexInsn::Invoke {
                        kind: _,
                        method: callee,
                        args: arg_regs,
                    } => {
                        let mut call_args = Vec::with_capacity(arg_regs.len());
                        for r in &arg_regs {
                            call_args.push((self.stack.reg(*r)?, self.stack.taint(*r)?));
                        }
                        match self.invoke_checked(callee, &call_args, handler)? {
                            Outcome::Return(v, t) => {
                                self.ret_val = v;
                                self.ret_taint = if track { t } else { Taint::CLEAR };
                            }
                            Outcome::Thrown(exc) => {
                                match self.dispatch_exception(exc, catch_all, &mut pc) {
                                    Some(outcome) => return Ok(outcome),
                                    None => continue,
                                }
                            }
                        }
                    }
                    DexInsn::Return { src } => {
                        let v = self.stack.reg(src)?;
                        let t = if track { self.stack.taint(src)? } else { Taint::CLEAR };
                        return Ok(Outcome::Return(v, t));
                    }
                    DexInsn::ReturnVoid => {
                        return Ok(Outcome::Return(0, Taint::CLEAR));
                    }
                    DexInsn::Throw { src } => {
                        let exc = Dvm::expect_obj(self.stack.reg(src)?)?;
                        match self.dispatch_exception(exc, catch_all, &mut pc) {
                            Some(outcome) => return Ok(outcome),
                            None => continue,
                        }
                    }
                    DexInsn::MoveException { dst } => {
                        let exc = self
                            .pending_exception
                            .take()
                            .ok_or(DvmError::NotInterpretable("move-exception".into()))?;
                        // The reference's taint mirrors the carried
                        // message's object taint so sinks see it.
                        let t = if track {
                            match self.heap.get(exc)? {
                                HeapObject::Exception { message, .. } => Dvm::obj_id(*message)
                                    .and_then(|m| self.heap.get(m).ok())
                                    .map(HeapObject::overall_taint)
                                    .unwrap_or(Taint::CLEAR),
                                _ => Taint::CLEAR,
                            }
                        } else {
                            Taint::CLEAR
                        };
                        self.stack.set(dst, Dvm::ref_value(exc), t)?;
                    }
                }
            }
        })();
        self.stack.pop_frame();
        result
    }

    fn branch_target(&self, code: &[DexInsn], target: u32) -> Result<usize, DvmError> {
        if (target as usize) < code.len() {
            Ok(target as usize)
        } else {
            Err(DvmError::BadBranchTarget(target as i32))
        }
    }

    /// Creates an exception object (used by `throw` paths and by the
    /// JNI `ThrowNew` hook). The message string gets `taint`.
    pub fn throw_new(&mut self, class_name: &str, message: &str, taint: Taint) -> ObjectId {
        let msg = self.heap.alloc_string(message, taint);
        self.heap.alloc(HeapObject::Exception {
            class_name: class_name.to_string(),
            message: Dvm::ref_value(msg),
        })
    }

    /// Routes a thrown exception: either jumps to the frame's catch-all
    /// handler (returns `None`, with `pc` updated and the exception
    /// pending for `move-exception`) or unwinds (returns the outcome).
    fn dispatch_exception(
        &mut self,
        exc: ObjectId,
        catch_all: Option<u32>,
        pc: &mut usize,
    ) -> Option<Outcome> {
        match catch_all {
            Some(handler_pc) => {
                self.pending_exception = Some(exc);
                *pc = handler_pc as usize;
                None
            }
            None => Some(Outcome::Thrown(exc)),
        }
    }

    #[allow(clippy::too_many_lines)]
    fn run_intrinsic(
        &mut self,
        which: Intrinsic,
        args: &[(u32, Taint)],
    ) -> Result<(u32, Taint), DvmError> {
        let track = self.taint_tracking;
        let tainted_string = |dvm: &mut Dvm, s: String, t: Taint, api: &str| {
            let t = if track { t } else { Taint::CLEAR };
            if t.is_tainted() && dvm.prov.is_on() {
                dvm.prov.emit(ndroid_provenance::ProvEvent::Source {
                    label: t.0,
                    api: api.to_string(),
                });
            }
            let v = dvm.new_string(s, t);
            Ok((v, t))
        };
        match which {
            Intrinsic::GetDeviceId => {
                let s = self.device.device_id.clone();
                tainted_string(self, s, Taint::IMEI, "TelephonyManager.getDeviceId")
            }
            Intrinsic::GetSubscriberId => {
                let s = self.device.subscriber_id.clone();
                tainted_string(self, s, Taint::IMSI, "TelephonyManager.getSubscriberId")
            }
            Intrinsic::GetLine1Number => {
                let s = self.device.line1_number.clone();
                tainted_string(self, s, Taint::PHONE_NUMBER, "TelephonyManager.getLine1Number")
            }
            Intrinsic::GetSimSerialNumber => {
                let s = self.device.sim_serial.clone();
                tainted_string(self, s, Taint::ICCID, "TelephonyManager.getSimSerialNumber")
            }
            Intrinsic::GetNetworkOperator => {
                let s = self.device.network_operator.clone();
                tainted_string(self, s, Taint::IMSI, "TelephonyManager.getNetworkOperator")
            }
            Intrinsic::QueryContactId => {
                let s = self.device.contact.0.clone();
                tainted_string(self, s, Taint::CONTACTS, "ContactsProvider.query(id)")
            }
            Intrinsic::QueryContactName => {
                let s = self.device.contact.1.clone();
                tainted_string(self, s, Taint::CONTACTS, "ContactsProvider.query(name)")
            }
            Intrinsic::QueryContactEmail => {
                let s = self.device.contact.2.clone();
                tainted_string(self, s, Taint::CONTACTS, "ContactsProvider.query(email)")
            }
            Intrinsic::QueryLastSms => {
                let s = self.device.last_sms.clone();
                tainted_string(self, s, Taint::SMS, "SmsProvider.query")
            }
            Intrinsic::GetLastKnownLocation => {
                let s = self.device.location.clone();
                tainted_string(self, s, Taint::LOCATION_LAST, "LocationManager.getLastKnownLocation")
            }
            Intrinsic::GetAccountName => {
                let s = self.device.account.clone();
                tainted_string(self, s, Taint::ACCOUNT, "AccountManager.getAccounts")
            }
            Intrinsic::NetworkSend | Intrinsic::SmsSend => {
                let (dest_v, _) = args.first().copied().unwrap_or_default();
                let (data_v, data_reg_taint) = args.get(1).copied().unwrap_or_default();
                let dest = self
                    .string_at(dest_v)
                    .map(|(s, _)| s.to_string())
                    .unwrap_or_default();
                let (data, obj_taint) = self
                    .string_at(data_v)
                    .map(|(s, t)| (s.to_string(), t))
                    .unwrap_or_default();
                let taint = if track {
                    data_reg_taint | obj_taint
                } else {
                    Taint::CLEAR
                };
                let sink = if which == Intrinsic::NetworkSend {
                    "Socket.send"
                } else {
                    "SmsManager.sendTextMessage"
                };
                if self.prov.is_on() {
                    self.prov.emit(ndroid_provenance::ProvEvent::Sink {
                        sink: sink.to_string(),
                        dest: dest.clone(),
                        label: taint.0,
                        ctx: ndroid_provenance::SinkCtx::Java,
                    });
                }
                self.events.push(LeakEvent {
                    sink: sink.to_string(),
                    dest,
                    data,
                    taint,
                    context: SinkContext::Java,
                });
                Ok((0, Taint::CLEAR))
            }
            Intrinsic::HttpPost => {
                let (url_v, url_reg_taint) = args.first().copied().unwrap_or_default();
                let (url, obj_taint) = self
                    .string_at(url_v)
                    .map(|(s, t)| (s.to_string(), t))
                    .unwrap_or_default();
                let dest = url
                    .trim_start_matches("http://")
                    .trim_start_matches("https://")
                    .split('/')
                    .next()
                    .unwrap_or("")
                    .to_string();
                let taint = if track {
                    url_reg_taint | obj_taint
                } else {
                    Taint::CLEAR
                };
                if self.prov.is_on() {
                    self.prov.emit(ndroid_provenance::ProvEvent::Sink {
                        sink: "HttpClient.post".to_string(),
                        dest: dest.clone(),
                        label: taint.0,
                        ctx: ndroid_provenance::SinkCtx::Java,
                    });
                }
                self.events.push(LeakEvent {
                    sink: "HttpClient.post".to_string(),
                    dest,
                    data: url,
                    taint,
                    context: SinkContext::Java,
                });
                Ok((0, Taint::CLEAR))
            }
            Intrinsic::LogDebug => Ok((0, Taint::CLEAR)),
            Intrinsic::StringConcat => {
                let (a_v, a_t) = args.first().copied().unwrap_or_default();
                let (b_v, b_t) = args.get(1).copied().unwrap_or_default();
                let (a, at) = self
                    .string_at(a_v)
                    .map(|(s, t)| (s.to_string(), t))
                    .unwrap_or_default();
                let (b, bt) = self
                    .string_at(b_v)
                    .map(|(s, t)| (s.to_string(), t))
                    .unwrap_or_default();
                let taint = if track { a_t | b_t | at | bt } else { Taint::CLEAR };
                let v = self.new_string(format!("{a}{b}"), taint);
                Ok((v, taint))
            }
            Intrinsic::StringLength => {
                let (s_v, s_t) = args.first().copied().unwrap_or_default();
                let (s, ot) = self.string_at(s_v)?;
                let len = s.len() as u32;
                let taint = if track { s_t | ot } else { Taint::CLEAR };
                Ok((len, taint))
            }
            Intrinsic::StringValueOf => {
                let (v, t) = args.first().copied().unwrap_or_default();
                let taint = if track { t } else { Taint::CLEAR };
                let s = self.new_string(format!("{}", v as i32), taint);
                Ok((s, taint))
            }
            Intrinsic::ThrowableGetMessage => {
                let (exc_v, _) = args.first().copied().unwrap_or_default();
                let id = Dvm::expect_obj(exc_v)?;
                match self.heap.get(id)? {
                    HeapObject::Exception { message, .. } => {
                        let msg = *message;
                        let taint = if track {
                            Dvm::obj_id(msg)
                                .and_then(|m| self.heap.get(m).ok())
                                .map(HeapObject::overall_taint)
                                .unwrap_or(Taint::CLEAR)
                        } else {
                            Taint::CLEAR
                        };
                        Ok((msg, taint))
                    }
                    _ => Err(DvmError::WrongObjectKind {
                        expected: "Exception",
                    }),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bytecode::{BinOp, CmpOp, InvokeKind};
    use crate::class::{ClassDef, MethodDef};
    use crate::framework::install_framework;
    use crate::object::ArrayKind;

    fn vm_with(classes: impl FnOnce(&mut Program)) -> Dvm {
        let mut p = Program::new();
        install_framework(&mut p);
        classes(&mut p);
        Dvm::new(p)
    }

    fn main_class(p: &mut Program, code: Vec<DexInsn>, regs: u16, ins: u16) -> MethodId {
        let c = p.add_class(ClassDef {
            name: "Lapp/Main;".into(),
            ..ClassDef::default()
        });
        p.add_method(
            c,
            MethodDef::new("main", "I", MethodKind::Bytecode(code))
                .with_registers(regs.max(ins)),
        )
    }

    #[test]
    fn arithmetic_and_return() {
        let mut m = MethodId(0);
        let mut dvm = vm_with(|p| {
            m = main_class(
                p,
                vec![
                    DexInsn::Const { dst: 0, value: 6 },
                    DexInsn::Const { dst: 1, value: 7 },
                    DexInsn::BinOp {
                        op: BinOp::Mul,
                        dst: 2,
                        a: 0,
                        b: 1,
                    },
                    DexInsn::Return { src: 2 },
                ],
                3,
                0,
            );
        });
        let (v, t) = dvm.invoke_with(m, &[], &mut NoNatives).unwrap();
        assert_eq!(v, 42);
        assert!(t.is_clear());
        assert!(dvm.bytecode_executed >= 4);
    }

    #[test]
    fn loop_until_condition() {
        let mut m = MethodId(0);
        let mut dvm = vm_with(|p| {
            m = main_class(
                p,
                vec![
                    DexInsn::Const { dst: 0, value: 0 },  // sum
                    DexInsn::Const { dst: 1, value: 10 }, // counter
                    // 2: loop head
                    DexInsn::BinOp {
                        op: BinOp::Add,
                        dst: 0,
                        a: 0,
                        b: 1,
                    },
                    DexInsn::BinOpLit {
                        op: BinOp::Sub,
                        dst: 1,
                        a: 1,
                        lit: 1,
                    },
                    DexInsn::IfTestZ {
                        op: CmpOp::Ne,
                        a: 1,
                        target: 2,
                    },
                    DexInsn::Return { src: 0 },
                ],
                2,
                0,
            );
        });
        let (v, _) = dvm.invoke_with(m, &[], &mut NoNatives).unwrap();
        assert_eq!(v, 55);
    }

    #[test]
    fn taint_flows_from_source_to_sink() {
        // getDeviceId() → send(dest, imei): leak must be recorded.
        let mut m = MethodId(0);
        let mut dvm = vm_with(|p| {
            let imei = p.find_method_by_name("Landroid/telephony/TelephonyManager;", "getDeviceId").unwrap();
            let send = p.find_method_by_name("Ljava/net/Socket;", "send").unwrap();
            let dest = p.intern("evil.example.com");
            m = main_class(
                p,
                vec![
                    DexInsn::Invoke {
                        kind: InvokeKind::Static,
                        method: imei,
                        args: vec![],
                    },
                    DexInsn::MoveResult { dst: 0 },
                    DexInsn::ConstString { dst: 1, index: dest },
                    DexInsn::Invoke {
                        kind: InvokeKind::Static,
                        method: send,
                        args: vec![1, 0],
                    },
                    DexInsn::ReturnVoid,
                ],
                2,
                0,
            );
        });
        dvm.invoke_with(m, &[], &mut NoNatives).unwrap();
        let leaks: Vec<_> = dvm.leaks().collect();
        assert_eq!(leaks.len(), 1);
        assert_eq!(leaks[0].taint, Taint::IMEI);
        assert_eq!(leaks[0].dest, "evil.example.com");
        assert_eq!(leaks[0].sink, "Socket.send");
        assert_eq!(leaks[0].context, SinkContext::Java);
    }

    #[test]
    fn untainted_send_is_not_a_leak() {
        let mut m = MethodId(0);
        let mut dvm = vm_with(|p| {
            let send = p.find_method_by_name("Ljava/net/Socket;", "send").unwrap();
            let dest = p.intern("ok.example.com");
            let data = p.intern("hello");
            m = main_class(
                p,
                vec![
                    DexInsn::ConstString { dst: 0, index: data },
                    DexInsn::ConstString { dst: 1, index: dest },
                    DexInsn::Invoke {
                        kind: InvokeKind::Static,
                        method: send,
                        args: vec![1, 0],
                    },
                    DexInsn::ReturnVoid,
                ],
                2,
                0,
            );
        });
        dvm.invoke_with(m, &[], &mut NoNatives).unwrap();
        assert_eq!(dvm.events.len(), 1, "sink call recorded");
        assert_eq!(dvm.leaks().count(), 0, "but it is not a leak");
    }

    #[test]
    fn binop_unions_taint() {
        let mut m = MethodId(0);
        let mut dvm = vm_with(|p| {
            m = main_class(
                p,
                vec![
                    DexInsn::BinOp {
                        op: BinOp::Add,
                        dst: 0,
                        a: 1,
                        b: 2,
                    },
                    DexInsn::Return { src: 0 },
                ],
                3,
                2,
            );
        });
        let (v, t) = dvm
            .invoke_with(m, &[(40, Taint::IMEI), (2, Taint::SMS)], &mut NoNatives)
            .unwrap();
        assert_eq!(v, 42);
        assert_eq!(t, Taint::IMEI | Taint::SMS);
    }

    #[test]
    fn taint_tracking_can_be_disabled() {
        let mut m = MethodId(0);
        let mut dvm = vm_with(|p| {
            m = main_class(
                p,
                vec![
                    DexInsn::BinOp {
                        op: BinOp::Add,
                        dst: 0,
                        a: 1,
                        b: 2,
                    },
                    DexInsn::Return { src: 0 },
                ],
                3,
                2,
            );
        });
        dvm.taint_tracking = false;
        let (_, t) = dvm
            .invoke_with(m, &[(40, Taint::IMEI), (2, Taint::SMS)], &mut NoNatives)
            .unwrap();
        assert!(t.is_clear());
    }

    #[test]
    fn array_carries_single_label() {
        let mut m = MethodId(0);
        let mut dvm = vm_with(|p| {
            m = main_class(
                p,
                vec![
                    DexInsn::Const { dst: 0, value: 4 },
                    DexInsn::NewArray {
                        dst: 1,
                        size: 0,
                        kind: ArrayKind::Primitive,
                    },
                    DexInsn::Const { dst: 2, value: 0 }, // index
                    // v3 is the tainted in-arg (reg 3 of 4).
                    DexInsn::ArrayPut {
                        src: 3,
                        arr: 1,
                        idx: 2,
                    },
                    DexInsn::Const { dst: 2, value: 1 },
                    // Read back a DIFFERENT element: still tainted,
                    // because the array has ONE label (TaintDroid rule).
                    DexInsn::ArrayGet {
                        dst: 0,
                        arr: 1,
                        idx: 2,
                    },
                    DexInsn::Return { src: 0 },
                ],
                4,
                1,
            );
        });
        let (_, t) = dvm
            .invoke_with(m, &[(0x99, Taint::CONTACTS)], &mut NoNatives)
            .unwrap();
        assert_eq!(t, Taint::CONTACTS, "whole-array label over-approximates");
    }

    #[test]
    fn instance_fields_track_per_field() {
        let mut m = MethodId(0);
        let mut dvm = vm_with(|p| {
            let c = p.add_class(ClassDef {
                name: "Lapp/Holder;".into(),
                instance_fields: vec![
                    crate::class::FieldDef {
                        name: "a".into(),
                        is_reference: false,
                    },
                    crate::class::FieldDef {
                        name: "b".into(),
                        is_reference: false,
                    },
                ],
                ..ClassDef::default()
            });
            let main = p.add_class(ClassDef {
                name: "Lapp/Main;".into(),
                ..ClassDef::default()
            });
            m = p.add_method(
                main,
                MethodDef::new(
                    "main",
                    "II",
                    MethodKind::Bytecode(vec![
                        DexInsn::NewInstance { dst: 0, class: c },
                        DexInsn::IPut {
                            src: 2, // tainted arg
                            obj: 0,
                            field: 0,
                        },
                        DexInsn::IGet {
                            dst: 1,
                            obj: 0,
                            field: 1, // the OTHER field: clear
                        },
                        DexInsn::IGet {
                            dst: 1,
                            obj: 0,
                            field: 0, // the tainted field
                        },
                        DexInsn::Return { src: 1 },
                    ]),
                )
                .with_registers(3),
            );
        });
        let (_, t) = dvm
            .invoke_with(m, &[(7, Taint::SMS)], &mut NoNatives)
            .unwrap();
        assert_eq!(t, Taint::SMS, "per-field labels are precise");
    }

    #[test]
    fn statics_roundtrip_taint() {
        let mut m = MethodId(0);
        let mut dvm = vm_with(|p| {
            let c = p.add_class(ClassDef {
                name: "Lapp/G;".into(),
                static_fields: vec![crate::class::FieldDef {
                    name: "cache".into(),
                    is_reference: false,
                }],
                ..ClassDef::default()
            });
            let main = p.add_class(ClassDef {
                name: "Lapp/Main;".into(),
                ..ClassDef::default()
            });
            m = p.add_method(
                main,
                MethodDef::new(
                    "main",
                    "II",
                    MethodKind::Bytecode(vec![
                        DexInsn::SPut {
                            src: 1,
                            class: c,
                            field: 0,
                        },
                        DexInsn::SGet {
                            dst: 0,
                            class: c,
                            field: 0,
                        },
                        DexInsn::Return { src: 0 },
                    ]),
                )
                .with_registers(2),
            );
        });
        let (v, t) = dvm
            .invoke_with(m, &[(0x1234, Taint::IMSI)], &mut NoNatives)
            .unwrap();
        assert_eq!(v, 0x1234);
        assert_eq!(t, Taint::IMSI);
    }

    #[test]
    fn taintdroid_jni_policy_taints_return_iff_params_tainted() {
        struct FakeNative;
        impl NativeHandler for FakeNative {
            fn call_native(
                &mut self,
                _dvm: &mut Dvm,
                _method: MethodId,
                args: &[u32],
                _taints: &[Taint],
            ) -> Result<(u32, Taint), DvmError> {
                Ok((args.iter().sum(), Taint::CLEAR))
            }
        }
        let mut m = MethodId(0);
        let mut dvm = vm_with(|p| {
            let c = p.add_class(ClassDef {
                name: "Lapp/N;".into(),
                ..ClassDef::default()
            });
            m = p.add_method(c, MethodDef::new("work", "III", MethodKind::Native { entry: 0x1000 }));
        });
        // Tainted parameter → tainted return (TaintDroid's rule).
        let (v, t) = dvm
            .invoke_with(m, &[(1, Taint::IMEI), (2, Taint::CLEAR)], &mut FakeNative)
            .unwrap();
        assert_eq!(v, 3);
        assert_eq!(t, Taint::IMEI);
        // No tainted parameter → clear return even though the native
        // could have touched tainted data (the under-tainting!).
        let (_, t) = dvm
            .invoke_with(m, &[(1, Taint::CLEAR), (2, Taint::CLEAR)], &mut FakeNative)
            .unwrap();
        assert!(t.is_clear());
    }

    #[test]
    fn exception_throw_and_catch() {
        let mut m = MethodId(0);
        let mut dvm = vm_with(|p| {
            let get_msg = p
                .find_method_by_name("Ljava/lang/Throwable;", "getMessage")
                .unwrap();
            let thrower_class = p.add_class(ClassDef {
                name: "Lapp/T;".into(),
                ..ClassDef::default()
            });
            // Method that divides by zero → ArithmeticException.
            let boom = p.add_method(
                thrower_class,
                MethodDef::new(
                    "boom",
                    "I",
                    MethodKind::Bytecode(vec![
                        DexInsn::Const { dst: 0, value: 1 },
                        DexInsn::Const { dst: 1, value: 0 },
                        DexInsn::BinOp {
                            op: BinOp::Div,
                            dst: 0,
                            a: 0,
                            b: 1,
                        },
                        DexInsn::Return { src: 0 },
                    ]),
                )
                .with_registers(2),
            );
            let main = p.add_class(ClassDef {
                name: "Lapp/Main;".into(),
                ..ClassDef::default()
            });
            m = p.add_method(
                main,
                MethodDef::new(
                    "main",
                    "I",
                    MethodKind::Bytecode(vec![
                        DexInsn::Invoke {
                            kind: InvokeKind::Static,
                            method: boom,
                            args: vec![],
                        },
                        DexInsn::Const { dst: 0, value: 0 },
                        DexInsn::Return { src: 0 },
                        // 3: catch handler
                        DexInsn::MoveException { dst: 1 },
                        DexInsn::Invoke {
                            kind: InvokeKind::Static,
                            method: get_msg,
                            args: vec![1],
                        },
                        DexInsn::Const { dst: 0, value: 99 },
                        DexInsn::Return { src: 0 },
                    ]),
                )
                .with_registers(2)
                .with_catch_all(3),
            );
        });
        let (v, _) = dvm.invoke_with(m, &[], &mut NoNatives).unwrap();
        assert_eq!(v, 99, "catch handler ran");
    }

    #[test]
    fn uncaught_exception_is_an_error() {
        let mut m = MethodId(0);
        let mut dvm = vm_with(|p| {
            m = main_class(
                p,
                vec![
                    DexInsn::Const { dst: 0, value: 5 },
                    DexInsn::Const { dst: 1, value: 0 },
                    DexInsn::BinOp {
                        op: BinOp::Div,
                        dst: 0,
                        a: 0,
                        b: 1,
                    },
                    DexInsn::Return { src: 0 },
                ],
                2,
                0,
            );
        });
        let err = dvm.invoke_with(m, &[], &mut NoNatives).unwrap_err();
        assert!(matches!(err, DvmError::UncaughtException(_)));
        assert_eq!(dvm.stack.depth(), 0, "frames unwound");
    }

    #[test]
    fn fuel_bounds_runaway_loops() {
        let mut m = MethodId(0);
        let mut dvm = vm_with(|p| {
            m = main_class(p, vec![DexInsn::Goto { target: 0 }], 1, 0);
        });
        dvm.fuel = 1000;
        assert_eq!(
            dvm.invoke_with(m, &[], &mut NoNatives).unwrap_err(),
            DvmError::OutOfFuel
        );
    }

    #[test]
    fn string_concat_unions_taints() {
        let mut dvm = vm_with(|_| {});
        let a = dvm.new_string("imei=", Taint::CLEAR);
        let b = dvm.new_string("12345", Taint::IMEI);
        let (v, t) = dvm
            .run_intrinsic(
                Intrinsic::StringConcat,
                &[(a, Taint::CLEAR), (b, Taint::IMEI)],
            )
            .unwrap();
        assert_eq!(t, Taint::IMEI);
        let (s, ot) = dvm.string_at(v).unwrap();
        assert_eq!(s, "imei=12345");
        assert_eq!(ot, Taint::IMEI);
    }

    #[test]
    fn gc_moves_objects_mid_execution() {
        let mut dvm = vm_with(|_| {});
        let v = dvm.new_string("survives", Taint::SMS);
        let id = Dvm::expect_obj(v).unwrap();
        let before = dvm.heap.direct_addr(id).unwrap();
        dvm.gc();
        assert_ne!(dvm.heap.direct_addr(id).unwrap(), before);
        let (s, t) = dvm.string_at(v).unwrap();
        assert_eq!(s, "survives");
        assert_eq!(t, Taint::SMS);
    }
}
