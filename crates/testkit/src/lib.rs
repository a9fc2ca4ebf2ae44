#![warn(missing_docs)]

//! # ndroid-testkit
//!
//! A hermetic, zero-dependency replacement for the three crates.io
//! test dependencies the workspace used to pull (`rand`, `proptest`,
//! `criterion`), so `cargo build --offline && cargo test --offline`
//! work with no registry access at all:
//!
//! * [`rng`] — deterministic [`Pcg32`]/SplitMix64 PRNG with the
//!   `rand::Rng`-shaped surface the corpus generator needs
//!   (`gen_range`, `gen_bool`, `shuffle`, `choose`).
//! * [`strategy`] / [`collection`] / [`macros`](crate::proptest!) — a
//!   minimal property-test harness compatible with the `proptest`
//!   subset used by the seven property suites: integer ranges,
//!   `any::<T>()`, `Just`, tuples, `prop_map` / `prop_flat_map`,
//!   `prop_oneof!`, `collection::vec`, and greedy integer/vector
//!   shrinking.
//! * [`runner`] — the case loop. Every failure report includes a
//!   `TESTKIT_SEED=0x…` line; re-running the named test with that
//!   variable set replays the exact failing input.
//! * [`bench`](mod@bench) — a micro-bench timer (warmup + median-of-N +
//!   throughput) replacing criterion, writing `BENCH_<suite>.json`.
//!
//! ## Porting note
//!
//! Test files swap one import line and keep everything else:
//!
//! ```ignore
//! use ndroid_testkit::prelude::*;   // proptest!, prop_assert!, any, Just,
//!                                   // collection::vec, ProptestConfig…
//! ```
//!
//! (An `use ndroid_testkit as proptest;` alias does **not** work — the
//! crate alias collides with the glob-imported `proptest!` macro and
//! rustc's import resolution gets stuck.)

pub mod bench;
pub mod collection;
pub mod macros;
pub mod rng;
pub mod runner;
pub mod strategy;

pub use rng::Pcg32;
pub use runner::Config;

/// Name-compatible alias so `#![proptest_config(...)]` blocks read the
/// same as under proptest.
pub type ProptestConfig = runner::Config;

/// Everything a property-test file needs, mirroring
/// `proptest::prelude::*`.
pub mod prelude {
    pub use crate::collection;
    pub use crate::rng::Pcg32;
    pub use crate::strategy::{any, Arbitrary, BoxedStrategy, Just, Strategy, Union, ValueTree};
    pub use crate::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};
}
