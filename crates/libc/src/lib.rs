#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # ndroid-libc
//!
//! Modeled Bionic libc/libm functions and the hooked system-call layer
//! of the NDroid reproduction.
//!
//! "Since the system standard functions will be frequently called by
//! native libraries, instrumenting every instruction in these standard
//! functions will take a long time and incur heavy overhead. Instead,
//! we model the taint propagation operations for popular functions"
//! (§V-D, Table VI). Each function here is a *host function* (see
//! [`ndroid_emu::runtime::HostTable`]) registered at a deterministic
//! guest trap address: guest code `BLX`es to the address and the Rust
//! model runs, performing both the real data operation on guest memory
//! and — when the active analysis tracks native taint — the taint
//! transfer of the paper's `TrustCallPolicy` handlers (Listing 3 shows
//! the `memcpy` model this reproduces).
//!
//! The [`registry`] binds each function to its trap address, body and
//! provenance rule in one row per function: the libc and libm regions
//! are tables of rows in address order, as the JNI environment is.
//!
//! Table VII's system-call layer is also here; the starred calls
//! (`fwrite*`, `write*`, `fputc*`, `fputs*`, `send*`, `sendto*`, plus
//! `fprintf` which Fig. 8 treats as a sink) go through the kernel
//! into the run's sink log, the shadow state's recorder.

pub mod format;
pub mod helpers;
pub mod math;
pub mod registry;
pub mod stdio;
pub mod string_fns;
pub mod syscalls;

pub use registry::{install_all, libc_addr, libm_addr, LIBC_MODELED, LIBC_NAMES, LIBM_NAMES};
