#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # ndroid-cfbench
//!
//! A CF-Bench-analog benchmark suite for the overhead evaluation of
//! Fig. 10: "following \[DroidScope\], we use the CF-Bench by Chainfire
//! to evaluate NDroid's overhead … we ran CF-Bench 30 times on both
//! NDroid and a vanilla QEMU with the Android platform" (§VI-E).
//!
//! Kernels come in the same flavors CF-Bench reports: Native/Java
//! MIPS, MSFLOPS, MDFLOPS, native MALLOCS, memory read/write in both
//! worlds, and native disk read/write. Native kernels are genuine ARM
//! (and VFP) machine code; Java kernels are Dalvik bytecode loops.
//!
//! The harness measures wall-clock time per kernel, repetition and
//! [`Mode`](ndroid_core::Mode) and reports each repetition's slowdown
//! relative to its vanilla run as a median and interquartile range —
//! the shape to compare with Fig. 10: Java rows near 1×, native rows
//! above them (every native instruction traced). The DroidScope-like
//! configuration differs from NDroid only on the native side (each
//! instruction lowered on its own, no JNI hooks); DroidScope's tracing
//! of the interpreter's machine instructions has no counterpart here,
//! where bytecode is interpreted on the host.

pub mod harness;
pub mod kernels;

pub use harness::{run_suite, Fig10Report, KernelRow};
pub use kernels::{all_kernels, Kernel, KernelKind};
