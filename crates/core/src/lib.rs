#![warn(missing_docs)]

//! # ndroid-core
//!
//! NDroid itself: the dynamic taint analysis system for tracking
//! information flows through JNI (Qian, Luo, Shao, Chan — DSN 2014).
//!
//! The four modules NDroid adds to the emulator (§V, Fig. 4) map to:
//!
//! | Paper module            | Here                                   |
//! |-------------------------|----------------------------------------|
//! | DVM hook engine         | [`analysis::NDroidAnalysis`] JNI entry/exit callbacks + the host-table hooks the [`ndroid_jni`] crate fires |
//! | Instruction tracer      | [`tracer`] (Table V propagation)       |
//! | System lib hook engine  | [`ndroid_libc`]'s modeled functions, gated by [`ndroid_emu::runtime::Analysis::tracks_native`] |
//! | Taint engine            | [`ndroid_emu::shadow::ShadowState`] directed by the tracer |
//!
//! [`system::NDroidSystem`] assembles a complete analyzed Android
//! world and can run the same app under four configurations:
//! vanilla, TaintDroid-only, NDroid, and a DroidScope-like
//! whole-system tracer — the comparison axis of the paper's
//! evaluation (§VI).

pub mod analysis;
pub mod baseline;
pub mod batch;
pub mod config;
pub mod oracle;
pub mod report;
pub mod score;
pub mod source_policy;
pub mod system;
pub mod tracer;

pub use analysis::{NDroidAnalysis, ProtectionViolation};
pub use baseline::{DroidScopeLikeAnalysis, TaintDroidAnalysis};
pub use batch::{
    jobs_from, run_batch, run_inline, AnalysisJob, BatchConfig, BatchQueryHit, BatchQueryResult,
    BatchReport, JobOutcome, JobResult, JobSource,
};
pub use config::{EngineKind, SystemConfig};
pub use oracle::{
    check_oracle, diff_taint_state, ref_propagate, EngineRun, OracleProgram, OracleVerdict,
    ReferenceAnalysis, StopReason,
};
pub use report::{CaseOutcome, DetectionReport, RunReport};
pub use score::{score_batch, FamilyScore, ScoreCard, ScoreReport};
pub use ndroid_provenance::{
    EventKind, FlowGraph, Handle as ProvHandle, LeakPath, Level as ProvenanceLevel, ProvEvent,
    ProvQuery, ProvStore, ProvenanceSummary, QueryHit, QueryResult, SealedSegment,
};
pub use source_policy::SourcePolicy;
pub use system::{Mode, NDroidSystem, Snapshot};
