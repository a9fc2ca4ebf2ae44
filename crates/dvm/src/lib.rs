#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # ndroid-dvm
//!
//! A register-based mini-Dalvik virtual machine with TaintDroid's
//! modifications, the managed-runtime substrate of the NDroid
//! reproduction.
//!
//! The VM reproduces the structures NDroid's DVM hook engine depends on:
//!
//! * [`stack`] — the modified interpreter stack of TaintDroid's Fig. 1:
//!   taint labels interleaved with registers, a `StackSaveArea` per
//!   frame, and the return-value taint in the thread's
//!   `InterpSaveState`.
//! * [`taint`] — TaintDroid's 32-bit taint label format (one bit per
//!   sensitive-information type, combined by union).
//! * [`heap`] / [`object`] — `StringObject`/`ArrayObject` carrying a
//!   single taint label, instances with per-field labels interleaved in
//!   the instance data area, and a **moving** garbage collector so
//!   direct object pointers are unstable.
//! * [`indirect`] — the indirect-reference table Android ≥ 4.0 hands to
//!   native code instead of raw pointers.
//! * [`interp`] — the bytecode interpreter with TaintDroid's
//!   per-instruction propagation rules, including the JNI policy that
//!   under-taints ("the return value is tainted iff any parameter is
//!   tainted") which NDroid exists to fix.
//! * [`framework`] — the Android-framework sources (IMEI, contacts,
//!   SMS, …) and Java-context sinks (network send) TaintDroid monitors.
//! * [`recorder`] — the run's one record: provenance events and every
//!   sink call, Java and native, in run order.

pub mod argbuf;
pub mod bytecode;
pub mod class;
pub mod error;
pub mod framework;
pub mod heap;
pub mod indirect;
pub mod interp;
pub mod object;
pub mod recorder;
pub mod stack;
pub mod taint;

pub use argbuf::ArgBuf;
pub use bytecode::{BinOp, CmpOp, DexInsn, InvokeKind};
pub use class::{
    ClassDef, ClassId, FieldDef, FieldId, MethodDef, MethodId, MethodKind, ParamKinds, Program,
};
pub use error::DvmError;
pub use heap::{Heap, ObjectId};
pub use indirect::{IndirectRef, IndirectRefKind, IndirectRefTable};
pub use interp::{Dvm, NativeHandler};
pub use ndroid_provenance::SinkCtx;
pub use object::{ArrayKind, HeapObject};
pub use recorder::{LeakEvent, Recorder};
pub use taint::Taint;
