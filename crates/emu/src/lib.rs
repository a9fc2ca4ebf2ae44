#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # ndroid-emu
//!
//! The emulator substrate that stands in for QEMU in the NDroid
//! reproduction: a guest run loop with hookable analysis callbacks, the
//! taint shadow state, a simulated Linux kernel (files, sockets, fd
//! table), an OS-level view reconstructor, and the multilevel-hooking
//! state machine of the paper's Fig. 5.
//!
//! Architecture mapping to the paper:
//!
//! | Paper (§V)                       | Here                         |
//! |----------------------------------|------------------------------|
//! | QEMU code translation + TCG hooks| [`runtime::call_guest`] + [`runtime::Analysis`] callbacks |
//! | Taint engine state (shadow regs, byte-granular taint map) | [`shadow::ShadowState`] |
//! | OS-level view reconstructor      | [`os_view`]                  |
//! | Multilevel hooking (T1..T6)      | [`multilevel::MultilevelHook`] |
//! | Guest kernel (files/sockets/mmap)| [`kernel::Kernel`]           |
//!
//! JNI functions and modeled libc functions are *host functions*: Rust
//! closures registered at guest trap addresses in a [`runtime::HostTable`].
//! When guest code branches to a registered address, the run loop
//! dispatches to the closure — the moral equivalent of NDroid inserting
//! TCG analysis calls at function entry/exit (§V-G).

pub mod error;
pub mod kernel;
pub mod layout;
pub mod multilevel;
pub mod os_view;
pub mod runtime;
pub mod shadow;
pub mod testutil;
pub mod trace;

pub use error::EmuError;
pub use kernel::Kernel;
pub use multilevel::MultilevelHook;
pub use runtime::{
    call_guest, call_java_method, run_native_method, Analysis, GuestRunner, HostTable, NativeCtx,
    VanillaAnalysis,
};
pub use shadow::{HashTaintMap, ShadowState, TaintMap};
pub use trace::{TraceEvent, TraceLog};
