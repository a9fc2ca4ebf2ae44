#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # NDroid-rs
//!
//! A from-scratch Rust reproduction of **"On Tracking Information Flows
//! through JNI in Android Applications"** (Qian, Luo, Shao, Chan —
//! DSN 2014): NDroid, a dynamic taint analysis system that tracks
//! information flows crossing the boundary between an Android app's
//! Java code and its native code.
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`arm`] — an ARM32/Thumb CPU simulator with a builder assembler
//!   (the QEMU stand-in).
//! * [`dvm`] — a mini-Dalvik VM with TaintDroid's modified stack,
//!   taint storage and propagation rules.
//! * [`emu`] — the run loop with analysis hooks, shadow taint state,
//!   simulated kernel, OS-level view reconstructor and the
//!   multilevel-hooking FSM.
//! * [`libc`] — modeled Bionic libc/libm functions (Table VI) and the
//!   hooked system-call layer with leak sinks (Table VII).
//! * [`jni`] — the JNI environment: 150+ functions across the paper's
//!   five hook groups (entry, exit, object creation, field access,
//!   exception).
//! * [`core`] — NDroid itself: the Table V instruction tracer,
//!   `SourcePolicy`, the analysis orchestrator and the
//!   TaintDroid-only / DroidScope-like baselines.
//! * [`apps`] — the evaluation workloads: the Table I case matrix, the
//!   QQPhoneBook/ePhone/PoC replicas of Figs. 6–9, benign apps, and
//!   the §VI survey set.
//! * [`corpus`] — the §III market study (Fig. 2).
//! * [`cfbench`] — the CF-Bench-analog overhead suite (Fig. 10).
//!
//! ## Quickstart
//!
//! ```
//! use ndroid::apps::cases::case2;
//! use ndroid::core::{Mode, SystemConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // An app whose Java code reads a contact and whose native code
//! // exfiltrates it over a socket (Case 2 of the paper) …
//! let report = case2().run_with(SystemConfig::new(Mode::NDroid))?.report();
//! assert_eq!(report.leaks().len(), 1, "NDroid catches the native-side send");
//!
//! // … which TaintDroid alone cannot see.
//! let report = case2().run_with(SystemConfig::new(Mode::TaintDroid))?.report();
//! assert!(report.leaks().is_empty(), "TaintDroid's sinks are Java-only");
//! # Ok(())
//! # }
//! ```

pub use ndroid_apps as apps;
pub use ndroid_arm as arm;
pub use ndroid_cfbench as cfbench;
pub use ndroid_core as core;
pub use ndroid_corpus as corpus;
pub use ndroid_dvm as dvm;
pub use ndroid_emu as emu;
pub use ndroid_jni as jni;
pub use ndroid_libc as libc;
