//! [`SystemConfig`]: the one configuration surface for booting an
//! analyzed system.
//!
//! Historically every knob had its own entry point — `NDroidSystem::new`
//! picked the mode, `quiet()` silenced the trace, ablation code poked
//! `ndroid_analysis_mut()`, and the differential oracle swapped engines
//! through `use_reference_engine()`. The batch farm ([`crate::batch`])
//! runs thousands of systems from a work list, so construction has to
//! be a value, not a call sequence: a `SystemConfig` fully describes a
//! run and [`crate::NDroidSystem::from_config`] realizes it.

use crate::system::Mode;
use ndroid_provenance::Level;

/// Which taint-propagation engine drives the native tracer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum EngineKind {
    /// The optimized NDroid tracer: pre-compiled Table V effect
    /// programs behind the superblock and decoded-instruction caches
    /// (the production path).
    #[default]
    Optimized,
    /// The differential oracle's reference engine: straight-line
    /// `ref_propagate` over every effect, no caches (see
    /// [`crate::oracle`]). Selecting it disables the decoded-
    /// instruction cache so the run uses no fast path at all.
    Reference,
}

impl std::fmt::Display for EngineKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            EngineKind::Optimized => "optimized",
            EngineKind::Reference => "reference",
        };
        write!(f, "{s}")
    }
}

/// Overrides the §V-B rule for installing [`crate::SourcePolicy`]
/// records at JNI entries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SourcePolicyOverride {
    /// The paper's rule: a policy is installed only for native methods
    /// "receiving tainted parameters".
    #[default]
    AsPaper,
    /// Install a policy for every JNI entry (taint initialization is
    /// still only performed for tainted parameters; this inflates the
    /// policy map the way an unconditional implementation would).
    Always,
    /// Never install policies: parameter taints are dropped at the
    /// Java→native boundary. An under-taint ablation — with it, NDroid
    /// degrades to TaintDroid's blindness for cases 1′–4.
    Never,
}

/// A complete description of one analyzed-system boot: mode, engine,
/// verbosity, caches, budget and policy overrides. Build one with the
/// fluent methods and hand it to [`crate::NDroidSystem::from_config`]:
///
/// ```ignore
/// let sys = NDroidSystem::from_config(
///     program,
///     SystemConfig::new(Mode::NDroid).quiet(true).icache(false),
/// );
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SystemConfig {
    /// Which analysis configuration runs the app.
    pub mode: Mode,
    /// Which native-tracer engine propagates taint (NDroid mode only).
    pub engine: EngineKind,
    /// Verbosity: `true` disables trace recording (benchmarks/farms).
    pub quiet: bool,
    /// Whether the decoded-instruction cache is enabled. Forced off
    /// when `engine` is [`EngineKind::Reference`].
    pub icache: bool,
    /// Whether superblock dispatch is enabled: straight-line runs are
    /// compiled once into cached effect programs and replayed as a
    /// single dispatch per block. Forced off when `engine` is
    /// [`EngineKind::Reference`].
    pub blocks: bool,
    /// Guest instruction budget for the whole session.
    pub budget: u64,
    /// Whether multilevel hook gating is applied (ablation D1).
    pub gate_hooks: bool,
    /// Whether the §VII taint-protection extension records violations.
    pub protect_taints: bool,
    /// Source-policy installation rule at JNI entries.
    pub source_policies: SourcePolicyOverride,
    /// How much taint provenance is recorded ([`Level::Off`] keeps the
    /// hot path free of any recording work).
    pub provenance: Level,
    /// Whether provenance uses the tiered store: overflow of the hot
    /// ring seals events into compressed immutable segments instead of
    /// dropping them (lossless), and the run's `RunReport` carries a
    /// frozen, queryable `ProvStore`. Off by default — the flat
    /// bounded ring of PR 5.
    pub provenance_store: bool,
    /// Capacity of the provenance hot ring (flat: the whole bounded
    /// ring; tiered: the segment size — how many events accumulate
    /// before a seal).
    pub provenance_capacity: usize,
}

impl SystemConfig {
    /// The default configuration for `mode`: optimized engine, trace
    /// recording on, both caches on, the stock budget, and the paper's
    /// source-policy rule.
    pub fn new(mode: Mode) -> SystemConfig {
        SystemConfig {
            mode,
            engine: EngineKind::Optimized,
            quiet: false,
            icache: true,
            blocks: true,
            budget: 200_000_000,
            gate_hooks: true,
            protect_taints: true,
            source_policies: SourcePolicyOverride::AsPaper,
            provenance: Level::Off,
            provenance_store: false,
            provenance_capacity: ndroid_provenance::DEFAULT_CAPACITY,
        }
    }

    /// Shorthand for `SystemConfig::new(Mode::NDroid)`.
    pub fn ndroid() -> SystemConfig {
        SystemConfig::new(Mode::NDroid)
    }

    /// Selects the analysis mode.
    #[must_use]
    pub fn mode(mut self, mode: Mode) -> SystemConfig {
        self.mode = mode;
        self
    }

    /// Selects the tracer engine.
    #[must_use]
    pub fn engine(mut self, engine: EngineKind) -> SystemConfig {
        self.engine = engine;
        self
    }

    /// Shorthand for `engine(EngineKind::Reference)`.
    #[must_use]
    pub fn reference(self) -> SystemConfig {
        self.engine(EngineKind::Reference)
    }

    /// Disables (`true`) or enables (`false`) trace recording.
    #[must_use]
    pub fn quiet(mut self, quiet: bool) -> SystemConfig {
        self.quiet = quiet;
        self
    }

    /// Turns the decoded-instruction cache on or off.
    #[must_use]
    pub fn icache(mut self, enabled: bool) -> SystemConfig {
        self.icache = enabled;
        self
    }

    /// Turns superblock dispatch (cached effect programs) on or off.
    #[must_use]
    pub fn blocks(mut self, enabled: bool) -> SystemConfig {
        self.blocks = enabled;
        self
    }

    /// Sets the guest instruction budget.
    #[must_use]
    pub fn budget(mut self, budget: u64) -> SystemConfig {
        self.budget = budget;
        self
    }

    /// Turns multilevel hook gating on or off (ablation D1).
    #[must_use]
    pub fn gate_hooks(mut self, enabled: bool) -> SystemConfig {
        self.gate_hooks = enabled;
        self
    }

    /// Turns the §VII taint protector on or off.
    #[must_use]
    pub fn protect_taints(mut self, enabled: bool) -> SystemConfig {
        self.protect_taints = enabled;
        self
    }

    /// Sets the source-policy installation rule.
    #[must_use]
    pub fn source_policies(mut self, rule: SourcePolicyOverride) -> SystemConfig {
        self.source_policies = rule;
        self
    }

    /// Sets the provenance recording level.
    #[must_use]
    pub fn provenance(mut self, level: Level) -> SystemConfig {
        self.provenance = level;
        self
    }

    /// Turns the tiered (lossless, queryable) provenance store on or
    /// off.
    #[must_use]
    pub fn provenance_store(mut self, enabled: bool) -> SystemConfig {
        self.provenance_store = enabled;
        self
    }

    /// Sets the provenance hot-ring capacity (the sealed-segment size
    /// when the tiered store is on).
    #[must_use]
    pub fn provenance_capacity(mut self, cap: usize) -> SystemConfig {
        self.provenance_capacity = cap;
        self
    }
}

impl Default for SystemConfig {
    /// Defaults to full NDroid, everything on.
    fn default() -> SystemConfig {
        SystemConfig::ndroid()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_mirror_the_legacy_constructor() {
        let c = SystemConfig::new(Mode::TaintDroid);
        assert_eq!(c.mode, Mode::TaintDroid);
        assert_eq!(c.engine, EngineKind::Optimized);
        assert!(!c.quiet);
        assert!(c.icache);
        assert!(c.blocks);
        assert_eq!(c.budget, 200_000_000);
        assert!(c.gate_hooks);
        assert!(c.protect_taints);
        assert_eq!(c.source_policies, SourcePolicyOverride::AsPaper);
        assert_eq!(c.provenance, Level::Off);
        assert!(!c.provenance_store);
        assert_eq!(c.provenance_capacity, ndroid_provenance::DEFAULT_CAPACITY);
    }

    #[test]
    fn builder_chains() {
        let c = SystemConfig::ndroid()
            .reference()
            .quiet(true)
            .icache(false)
            .blocks(false)
            .budget(1_000)
            .gate_hooks(false)
            .protect_taints(false)
            .source_policies(SourcePolicyOverride::Never)
            .provenance(Level::Full)
            .provenance_store(true)
            .provenance_capacity(64);
        assert_eq!(c.mode, Mode::NDroid);
        assert_eq!(c.engine, EngineKind::Reference);
        assert!(c.quiet && !c.icache && !c.blocks);
        assert_eq!(c.budget, 1_000);
        assert!(!c.gate_hooks && !c.protect_taints);
        assert_eq!(c.source_policies, SourcePolicyOverride::Never);
        assert_eq!(c.provenance, Level::Full);
        assert!(c.provenance_store);
        assert_eq!(c.provenance_capacity, 64);
    }

    #[test]
    fn engine_kind_displays() {
        assert_eq!(EngineKind::Optimized.to_string(), "optimized");
        assert_eq!(EngineKind::Reference.to_string(), "reference");
    }
}
