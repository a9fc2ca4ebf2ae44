//! Run results ([`RunReport`]), per-job outcome types shared by the
//! batch farm and the resident service ([`JobOutcome`], [`JobResult`]),
//! and detection reporting for the case-matrix experiments (Table I /
//! Fig. 3 of the paper).

use crate::analysis::{AnalysisStats, ProtectionViolation};
use crate::config::EngineKind;
use crate::system::Mode;
use ndroid_dvm::{LeakEvent, SinkContext, Taint};
use ndroid_provenance::{ProvStore, ProvenanceSummary};

/// What happened to one job, whether it ran through the offline farm
/// ([`crate::batch::run_batch`]) or a resident
/// [`crate::service::AnalysisService`]. `run_batch` is itself a
/// short-lived service, so both run one worker loop and one outcome
/// classifier and a given job produces the identical variant either
/// way — the bedrock of the drain-vs-batch byte-identity contract.
#[derive(Debug, Clone, PartialEq, Eq)]
#[expect(
    clippy::large_enum_variant,
    reason = "one outcome moves once per job; callers match the report by value"
)]
pub enum JobOutcome {
    /// The job ran to completion.
    Completed(RunReport),
    /// The job returned an error (other than budget exhaustion, which
    /// classifies as [`JobOutcome::Deadline`]).
    Failed(String),
    /// The job panicked; the payload's message, if it was a string.
    /// The worker survived and kept draining the queue.
    Crashed(String),
    /// The job exceeded its budget or deadline: either the guest
    /// instruction budget ([`crate::SystemConfig::budget`]) ran out
    /// mid-run — deterministic, so batch and service modes agree — or
    /// the service's wall-clock deadline expired before the job was
    /// dequeued (resident service only, since `run_batch` clears
    /// deadlines; see [`crate::batch::JobBuilder::deadline`]).
    Deadline(String),
}

impl JobOutcome {
    /// The report, if the job completed.
    pub fn report(&self) -> Option<&RunReport> {
        match self {
            JobOutcome::Completed(r) => Some(r),
            _ => None,
        }
    }
}

/// One merged row of a [`crate::BatchReport`]: the job's label and
/// outcome, in submission order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobResult {
    /// The job's label as submitted.
    pub label: String,
    /// What happened.
    pub outcome: JobOutcome,
}

/// Everything externally observable about one finished analysis run,
/// snapshotted by [`crate::NDroidSystem::report`]. This is the one
/// result type: case outcomes, drive reports, batch merges and the
/// experiment binaries all consume it instead of poking at the live
/// system. It deliberately excludes the trace log and any wall-clock
/// data, so two runs of the same app under the same [`crate::SystemConfig`]
/// compare equal regardless of verbosity or host timing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunReport {
    /// The analysis mode the system ran under.
    pub mode: Mode,
    /// Which tracer engine ran (NDroid mode only; `Optimized` otherwise).
    pub engine: EngineKind,
    /// Every sink invocation, tainted or not, across both contexts.
    pub sink_events: Vec<LeakEvent>,
    /// The kernel's raw network log: `(destination, payload, taint)`.
    pub network_log: Vec<(String, Vec<u8>, Taint)>,
    /// §VII taint-protection violations (NDroid engines only).
    pub violations: Vec<ProtectionViolation>,
    /// Analysis statistics (NDroid engines only).
    pub stats: Option<AnalysisStats>,
    /// Native instructions traced.
    pub native_insns: u64,
    /// Dalvik bytecodes interpreted.
    pub bytecodes: u64,
    /// Digest of the recorded taint provenance (`None` when the run's
    /// [`ndroid_provenance::Level`] was `Off`).
    pub provenance: Option<ProvenanceSummary>,
    /// The frozen provenance store — the full (lossless) event trail
    /// behind [`ndroid_provenance::ProvQuery`] and
    /// `BatchReport::query`, and the store `provenance` was digested
    /// from. `Some` exactly when `provenance` is. Sealed segments are
    /// refcount-shared: carrying this across worker threads is a
    /// pointer copy per segment plus the unsealed tail, not a
    /// re-encode.
    pub provenance_store: Option<ProvStore>,
}

impl RunReport {
    /// The detected leaks (tainted sink hits).
    pub fn leaks(&self) -> Vec<&LeakEvent> {
        self.sink_events.iter().filter(|e| e.is_leak()).collect()
    }

    /// Whether any leak was detected.
    pub fn leaked(&self) -> bool {
        self.sink_events.iter().any(|e| e.is_leak())
    }
}

/// The outcome of running one information-flow case under one
/// (mode, engine) configuration.
#[derive(Debug, Clone)]
pub struct CaseOutcome {
    /// Case identifier (e.g. `"case1'"`).
    pub case: String,
    /// The analysis mode.
    pub mode: Mode,
    /// The tracer engine that produced the row — reference-engine A/B
    /// rows are distinct from optimized rows, not overwrites.
    pub engine: EngineKind,
    /// Leaks detected (tainted sink hits).
    pub leaks: Vec<LeakEvent>,
    /// Sink invocations that carried the sensitive data but were seen
    /// as clean (undetected exfiltration — the false negatives the
    /// paper attributes to TaintDroid in cases 1', 2, 3, 4).
    pub missed_exfiltrations: usize,
    /// Source→sink leak paths reconstructed from the run's provenance
    /// (0 when provenance recording was off — the schema-stable
    /// default, so `exp case_matrix` output is unchanged).
    pub leak_paths: usize,
}

impl CaseOutcome {
    /// Whether the flow was detected.
    pub fn detected(&self) -> bool {
        !self.leaks.is_empty()
    }

    /// Render as the table cell the paper's narrative implies.
    pub fn cell(&self) -> &'static str {
        if self.detected() {
            "detected"
        } else if self.missed_exfiltrations > 0 {
            "MISSED"
        } else {
            "-"
        }
    }
}

/// Collects an outcome from a finished run's [`RunReport`].
///
/// `ground_truth_markers` are substrings of the actually-exfiltrated
/// sensitive values; a sink event whose data contains one of them but
/// whose taint is clear counts as a missed exfiltration.
pub fn collect_outcome(
    case: &str,
    report: &RunReport,
    ground_truth_markers: &[&str],
) -> CaseOutcome {
    let leaks: Vec<LeakEvent> = report.leaks().into_iter().cloned().collect();
    let missed = report
        .sink_events
        .iter()
        .filter(|e| {
            e.taint.is_clear() && ground_truth_markers.iter().any(|m| e.data.contains(m))
        })
        .count();
    CaseOutcome {
        case: case.to_string(),
        mode: report.mode,
        engine: report.engine,
        leaks,
        missed_exfiltrations: missed,
        leak_paths: report.provenance.map_or(0, |p| p.leak_paths),
    }
}

/// A whole detection matrix: cases × modes.
#[derive(Debug, Default)]
pub struct DetectionReport {
    outcomes: Vec<CaseOutcome>,
}

impl DetectionReport {
    /// An empty report.
    pub fn new() -> DetectionReport {
        DetectionReport::default()
    }

    /// Adds one outcome.
    pub fn push(&mut self, outcome: CaseOutcome) {
        self.outcomes.push(outcome);
    }

    /// All recorded outcomes.
    pub fn outcomes(&self) -> &[CaseOutcome] {
        &self.outcomes
    }

    /// The outcome for (case, mode, engine), if recorded. The engine is
    /// part of the key: an A/B matrix holding both optimized and
    /// reference rows for the same case keeps them distinct.
    pub fn outcome(&self, case: &str, mode: Mode, engine: EngineKind) -> Option<&CaseOutcome> {
        self.outcomes
            .iter()
            .find(|o| o.case == case && o.mode == mode && o.engine == engine)
    }

    /// Renders the Table-I-style matrix (rows = cases, columns = modes)
    /// for the optimized engine's rows.
    pub fn render(&self, modes: &[Mode]) -> String {
        self.render_engine(modes, EngineKind::Optimized)
    }

    /// Renders the matrix for one engine's rows.
    pub fn render_engine(&self, modes: &[Mode], engine: EngineKind) -> String {
        let mut cases: Vec<&str> = Vec::new();
        for o in &self.outcomes {
            if !cases.contains(&o.case.as_str()) {
                cases.push(&o.case);
            }
        }
        let mut out = String::new();
        out.push_str(&format!("{:<28}", "case"));
        for m in modes {
            out.push_str(&format!("{:<16}", m.to_string()));
        }
        out.push('\n');
        for case in cases {
            out.push_str(&format!("{case:<28}"));
            for m in modes {
                let cell = self
                    .outcome(case, *m, engine)
                    .map(CaseOutcome::cell)
                    .unwrap_or("?");
                out.push_str(&format!("{cell:<16}"));
            }
            out.push('\n');
        }
        out
    }
}

/// Summarizes a leak for log output, e.g.
/// `contacts,sms -> send(info.3g.qq.com) [native]`.
pub fn describe_leak(leak: &LeakEvent) -> String {
    let ctx = match leak.context {
        SinkContext::Java => "java",
        SinkContext::Native => "native",
    };
    format!(
        "{} -> {}({}) [{}]",
        leak.taint.source_names().join(","),
        leak.sink,
        leak.dest,
        ctx
    )
}

/// Helper for tests: whether any leak carries all bits of `taint`.
pub fn leaked_with(leaks: &[LeakEvent], taint: Taint) -> bool {
    leaks.iter().any(|l| l.taint.contains(taint))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leak(taint: Taint) -> LeakEvent {
        LeakEvent {
            sink: "send".into(),
            dest: "evil.com".into(),
            data: "x".into(),
            taint,
            context: SinkContext::Native,
        }
    }

    #[test]
    fn outcome_cells() {
        let detected = CaseOutcome {
            case: "case2".into(),
            mode: Mode::NDroid,
            engine: EngineKind::Optimized,
            leaks: vec![leak(Taint::CONTACTS)],
            missed_exfiltrations: 0,
            leak_paths: 0,
        };
        assert!(detected.detected());
        assert_eq!(detected.cell(), "detected");
        let missed = CaseOutcome {
            case: "case2".into(),
            mode: Mode::TaintDroid,
            engine: EngineKind::Optimized,
            leaks: vec![],
            missed_exfiltrations: 1,
            leak_paths: 0,
        };
        assert_eq!(missed.cell(), "MISSED");
        let benign = CaseOutcome {
            case: "benign".into(),
            mode: Mode::NDroid,
            engine: EngineKind::Optimized,
            leaks: vec![],
            missed_exfiltrations: 0,
            leak_paths: 0,
        };
        assert_eq!(benign.cell(), "-");
    }

    #[test]
    fn report_matrix_renders() {
        let mut r = DetectionReport::new();
        r.push(CaseOutcome {
            case: "case1".into(),
            mode: Mode::TaintDroid,
            engine: EngineKind::Optimized,
            leaks: vec![leak(Taint::IMEI)],
            missed_exfiltrations: 0,
            leak_paths: 0,
        });
        r.push(CaseOutcome {
            case: "case1".into(),
            mode: Mode::NDroid,
            engine: EngineKind::Optimized,
            leaks: vec![leak(Taint::IMEI)],
            missed_exfiltrations: 0,
            leak_paths: 0,
        });
        let s = r.render(&[Mode::TaintDroid, Mode::NDroid]);
        assert!(s.contains("case1"));
        assert!(s.contains("detected"));
        assert!(r.outcome("case1", Mode::NDroid, EngineKind::Optimized).is_some());
        assert!(r.outcome("case9", Mode::NDroid, EngineKind::Optimized).is_none());
    }

    #[test]
    fn engine_is_part_of_the_matrix_key() {
        // The pre-redesign bug: an A/B run pushed a reference-engine row
        // for (case1, NDroid) and `outcome` returned whichever came
        // first, so reference rows shadowed optimized rows (or vice
        // versa). Keyed on the triple, both coexist.
        let mut r = DetectionReport::new();
        r.push(CaseOutcome {
            case: "case1".into(),
            mode: Mode::NDroid,
            engine: EngineKind::Optimized,
            leaks: vec![leak(Taint::IMEI)],
            missed_exfiltrations: 0,
            leak_paths: 0,
        });
        r.push(CaseOutcome {
            case: "case1".into(),
            mode: Mode::NDroid,
            engine: EngineKind::Reference,
            leaks: vec![],
            missed_exfiltrations: 1,
            leak_paths: 0,
        });
        let opt = r.outcome("case1", Mode::NDroid, EngineKind::Optimized).unwrap();
        let refr = r.outcome("case1", Mode::NDroid, EngineKind::Reference).unwrap();
        assert!(opt.detected());
        assert!(!refr.detected());
        assert_eq!(r.render(&[Mode::NDroid]).matches("detected").count(), 1);
        assert!(r
            .render_engine(&[Mode::NDroid], EngineKind::Reference)
            .contains("MISSED"));
    }

    #[test]
    fn describe_and_match() {
        let l = leak(Taint::CONTACTS | Taint::SMS);
        let d = describe_leak(&l);
        assert!(d.contains("contacts"));
        assert!(d.contains("sms"));
        assert!(d.contains("native"));
        assert!(leaked_with(std::slice::from_ref(&l), Taint::CONTACTS));
        assert!(!leaked_with(&[l], Taint::IMEI));
    }
}
