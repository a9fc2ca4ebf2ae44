//! [`SystemConfig`]: the one configuration surface for booting an
//! analyzed system.
//!
//! The batch farm ([`crate::batch`]) runs thousands of systems from a
//! work list, so construction has to be a value, not a call sequence:
//! a `SystemConfig` fully describes a run and
//! [`crate::NDroidSystem::from_config`] realizes it. It holds only what
//! some caller varies — mode, engine, verbosity, superblock dispatch,
//! budget and provenance. The §VII taint protector's switch is a field
//! of [`crate::NDroidAnalysis`], set on the analysis itself by the test
//! that turns it off.

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

/// A complete description of one analyzed-system boot: mode, engine,
/// verbosity, superblock dispatch, budget and provenance recording. Build
/// one with the fluent methods and hand it to
/// [`crate::NDroidSystem::from_config`]:
///
/// ```ignore
/// let sys = NDroidSystem::from_config(
///     program,
///     SystemConfig::new(Mode::NDroid).quiet(true).blocks(false),
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
    /// Whether superblock dispatch is enabled: straight-line runs are
    /// compiled once into cached effect programs and replayed as a
    /// single dispatch per block. Forced off when `engine` is
    /// [`EngineKind::Reference`].
    pub blocks: bool,
    /// Guest instruction budget for the whole session.
    pub budget: u64,
    /// How much taint provenance is recorded ([`Level::Off`] keeps the
    /// hot path free of any recording work).
    pub provenance: Level,
    /// The provenance segment size: how many events the hot tier
    /// holds before they are sealed into a compressed immutable
    /// segment (0 behaves as 1). Recording is lossless at any size.
    pub provenance_capacity: usize,
}

impl SystemConfig {
    /// The default configuration for `mode`: optimized engine, trace
    /// recording on, superblock dispatch on, the stock budget, and no
    /// provenance recording.
    pub fn new(mode: Mode) -> SystemConfig {
        SystemConfig {
            mode,
            engine: EngineKind::Optimized,
            quiet: false,
            blocks: true,
            budget: 200_000_000,
            provenance: Level::Off,
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

    /// Sets the provenance recording level.
    #[must_use]
    pub fn provenance(mut self, level: Level) -> SystemConfig {
        self.provenance = level;
        self
    }

    /// Sets the provenance segment size.
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
        assert!(c.blocks);
        assert_eq!(c.budget, 200_000_000);
        assert_eq!(c.provenance, Level::Off);
        assert_eq!(c.provenance_capacity, ndroid_provenance::DEFAULT_CAPACITY);
    }

    #[test]
    fn builder_chains() {
        let c = SystemConfig::ndroid()
            .reference()
            .quiet(true)
            .blocks(false)
            .budget(1_000)
            .provenance(Level::Full)
            .provenance_capacity(64);
        assert_eq!(c.mode, Mode::NDroid);
        assert_eq!(c.engine, EngineKind::Reference);
        assert!(c.quiet && !c.blocks);
        assert_eq!(c.budget, 1_000);
        assert_eq!(c.provenance, Level::Full);
        assert_eq!(c.provenance_capacity, 64);
    }

    #[test]
    fn engine_kind_displays() {
        assert_eq!(EngineKind::Optimized.to_string(), "optimized");
        assert_eq!(EngineKind::Reference.to_string(), "reference");
    }
}
