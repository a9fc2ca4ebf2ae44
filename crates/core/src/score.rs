//! Ground-truth scoring for analysis runs: confusion-matrix counts,
//! precision, recall and F1 per corpus family, aggregated over a
//! [`BatchReport`].
//!
//! μDep (and JuCify's benchmark evaluation) measure a taint analysis
//! by running it over inputs with *labeled* expected outcomes; this
//! module is that instrument for the reproduction. A batch of jobs —
//! each labeled `family/case` — is scored against a ground-truth
//! oracle (`label → expected leak?`): a job whose report flags a leak
//! where the truth says "leak" is a true positive, one that flags a
//! clean case is a false positive, and so on. Per-family cards make
//! regressions attributable ("the detour family lost recall"), and the
//! aggregate card is what CI pins to perfection.

use crate::batch::{BatchReport, JobOutcome};

/// One confusion matrix: the four counts plus derived rates.
///
/// The empty-denominator convention is the standard one for scored
/// corpora: a family with no positive ground truth has recall 1.0 (it
/// missed nothing), and an analysis that flags nothing has precision
/// 1.0 (it mislabeled nothing).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ScoreCard {
    /// Expected leak, flagged — the analysis caught a real flow.
    pub true_positives: usize,
    /// Expected clean, flagged — a false alarm.
    pub false_positives: usize,
    /// Expected clean, not flagged.
    pub true_negatives: usize,
    /// Expected leak, not flagged — a missed flow.
    pub false_negatives: usize,
}

impl ScoreCard {
    /// Classifies one outcome into the matrix.
    pub fn record(&mut self, expected_leak: bool, flagged: bool) {
        match (expected_leak, flagged) {
            (true, true) => self.true_positives += 1,
            (false, true) => self.false_positives += 1,
            (false, false) => self.true_negatives += 1,
            (true, false) => self.false_negatives += 1,
        }
    }

    /// Adds another card's counts into this one.
    pub fn absorb(&mut self, other: &ScoreCard) {
        self.true_positives += other.true_positives;
        self.false_positives += other.false_positives;
        self.true_negatives += other.true_negatives;
        self.false_negatives += other.false_negatives;
    }

    /// Cases scored.
    pub fn total(&self) -> usize {
        self.true_positives + self.false_positives + self.true_negatives + self.false_negatives
    }

    /// TP / (TP + FP); 1.0 when nothing was flagged.
    pub fn precision(&self) -> f64 {
        let denom = self.true_positives + self.false_positives;
        if denom == 0 {
            1.0
        } else {
            self.true_positives as f64 / denom as f64
        }
    }

    /// TP / (TP + FN); 1.0 when nothing was expected to leak.
    pub fn recall(&self) -> f64 {
        let denom = self.true_positives + self.false_negatives;
        if denom == 0 {
            1.0
        } else {
            self.true_positives as f64 / denom as f64
        }
    }

    /// Harmonic mean of precision and recall; 0.0 when both are 0.
    pub fn f1(&self) -> f64 {
        let (p, r) = (self.precision(), self.recall());
        if p + r == 0.0 {
            0.0
        } else {
            2.0 * p * r / (p + r)
        }
    }

    /// No false positives and no false negatives.
    pub fn perfect(&self) -> bool {
        self.false_positives == 0 && self.false_negatives == 0
    }
}

/// One family's card, keyed by the label prefix before the first `/`.
#[derive(Debug, Clone, PartialEq)]
pub struct FamilyScore {
    /// Family name (e.g. `"detour"`, `"mutation"`, `"benign"`).
    pub family: String,
    /// The family's confusion matrix.
    pub card: ScoreCard,
}

/// The scored view of a batch: per-family cards (in first-appearance
/// order, so rendering is deterministic), the aggregate card, and any
/// jobs that could not be scored.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ScoreReport {
    /// Per-family confusion matrices.
    pub families: Vec<FamilyScore>,
    /// All scored cases combined.
    pub aggregate: ScoreCard,
    /// Labels that failed/crashed, or that the truth oracle does not
    /// know. A non-empty list means the corpus was not fully scored —
    /// CI treats that as a failure, not silent truncation.
    pub unscored: Vec<String>,
}

impl ScoreReport {
    /// Looks up one family's card.
    pub fn family(&self, name: &str) -> Option<&ScoreCard> {
        self.families.iter().find(|f| f.family == name).map(|f| &f.card)
    }

    /// Every case scored, no false positives, no false negatives.
    pub fn perfect(&self) -> bool {
        self.unscored.is_empty() && self.aggregate.perfect()
    }

    /// Renders the scoring matrix as a fixed-width table (one row per
    /// family plus the aggregate), followed by unscored labels. Purely
    /// a function of the counts, so the string is golden-pinnable.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<12} {:>4} {:>4} {:>4} {:>4} {:>4} {:>10} {:>7} {:>7}\n",
            "family", "n", "TP", "FP", "TN", "FN", "precision", "recall", "F1"
        ));
        let mut row = |name: &str, c: &ScoreCard| {
            out.push_str(&format!(
                "{:<12} {:>4} {:>4} {:>4} {:>4} {:>4} {:>10.3} {:>7.3} {:>7.3}\n",
                name,
                c.total(),
                c.true_positives,
                c.false_positives,
                c.true_negatives,
                c.false_negatives,
                c.precision(),
                c.recall(),
                c.f1(),
            ));
        };
        for f in &self.families {
            row(&f.family, &f.card);
        }
        row("aggregate", &self.aggregate);
        for label in &self.unscored {
            out.push_str(&format!("unscored: {label}\n"));
        }
        out
    }
}

/// The family component of a job label: everything before the first
/// `/`, or the whole label if it has none.
pub fn family_of(label: &str) -> &str {
    label.split('/').next().unwrap_or(label)
}

/// Scores a batch against a ground-truth oracle. `truth(label)` returns
/// the expected verdict for a job, or `None` if the label is unknown
/// (such jobs land in [`ScoreReport::unscored`], as do failed and
/// crashed jobs). A completed job counts as "flagged" when its
/// [`crate::RunReport::leaked`] is true.
pub fn score_batch(
    batch: &BatchReport,
    truth: impl Fn(&str) -> Option<bool>,
) -> ScoreReport {
    let mut report = ScoreReport::default();
    for result in &batch.results {
        let (Some(expected), JobOutcome::Completed(run)) =
            (truth(&result.label), &result.outcome)
        else {
            report.unscored.push(result.label.clone());
            continue;
        };
        let flagged = run.leaked();
        let family = family_of(&result.label);
        let card = match report.families.iter_mut().find(|f| f.family == family) {
            Some(f) => &mut f.card,
            None => {
                report.families.push(FamilyScore {
                    family: family.to_string(),
                    card: ScoreCard::default(),
                });
                &mut report.families.last_mut().unwrap().card
            }
        };
        card.record(expected, flagged);
        report.aggregate.record(expected, flagged);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::JobResult;
    use crate::config::EngineKind;
    use crate::report::RunReport;
    use crate::system::Mode;
    use ndroid_dvm::{LeakEvent, SinkCtx};
    use ndroid_dvm::Taint;

    fn run(leaks: bool) -> RunReport {
        let sink_events = if leaks {
            vec![LeakEvent {
                sink: "send",
                dest: "x".into(),
                data: b"d".as_slice().into(),
                taint: Taint::IMEI,
                context: SinkCtx::Native,
            }]
        } else {
            Vec::new()
        };
        RunReport {
            mode: Mode::NDroid,
            engine: EngineKind::Optimized,
            sink_events,
            network_log: Vec::new(),
            violations: Vec::new(),
            stats: None,
            native_insns: 0,
            bytecodes: 0,
            provenance: None,
            provenance_store: None,
        }
    }

    fn batch(rows: &[(&str, Option<bool>)]) -> BatchReport {
        // `None` marks a failed job.
        BatchReport {
            results: rows
                .iter()
                .map(|(label, leaked)| JobResult {
                    label: label.to_string(),
                    outcome: match leaked {
                        Some(l) => JobOutcome::Completed(run(*l)),
                        None => JobOutcome::Failed("boom".into()),
                    },
                })
                .collect(),
        }
    }

    #[test]
    fn empty_denominators_score_as_perfect() {
        let c = ScoreCard::default();
        assert_eq!(c.precision(), 1.0);
        assert_eq!(c.recall(), 1.0);
        assert!(c.perfect());
        assert_eq!(c.f1(), 1.0);
    }

    #[test]
    fn confusion_matrix_classifies_all_four_ways() {
        let b = batch(&[
            ("fam/tp", Some(true)),
            ("fam/fp", Some(true)),
            ("fam/tn", Some(false)),
            ("fam/fn", Some(false)),
        ]);
        let truth = |label: &str| match label {
            "fam/tp" => Some(true),
            "fam/fp" => Some(false),
            "fam/tn" => Some(false),
            "fam/fn" => Some(true),
            _ => None,
        };
        let score = score_batch(&b, truth);
        let card = score.family("fam").unwrap();
        assert_eq!(
            (
                card.true_positives,
                card.false_positives,
                card.true_negatives,
                card.false_negatives
            ),
            (1, 1, 1, 1)
        );
        assert_eq!(card.precision(), 0.5);
        assert_eq!(card.recall(), 0.5);
        assert_eq!(card.f1(), 0.5);
        assert!(!score.perfect());
    }

    #[test]
    fn families_split_on_label_prefix_and_keep_order() {
        let b = batch(&[
            ("beta/a", Some(true)),
            ("alpha/a", Some(false)),
            ("beta/b", Some(true)),
        ]);
        let score = score_batch(&b, |_| Some(true));
        let names: Vec<&str> = score.families.iter().map(|f| f.family.as_str()).collect();
        assert_eq!(names, ["beta", "alpha"], "first-appearance order");
        assert_eq!(score.family("beta").unwrap().total(), 2);
        assert_eq!(score.aggregate.total(), 3);
        // alpha/a was expected to leak but stayed clean.
        assert_eq!(score.aggregate.false_negatives, 1);
    }

    #[test]
    fn failed_and_unknown_jobs_are_unscored_not_dropped() {
        let b = batch(&[("fam/ok", Some(true)), ("fam/err", None), ("???", Some(true))]);
        let truth = |label: &str| (label != "???").then_some(true);
        let score = score_batch(&b, truth);
        assert_eq!(score.aggregate.total(), 1);
        assert_eq!(score.unscored, ["fam/err", "???"]);
        assert!(!score.perfect(), "unscored jobs forbid perfection");
    }

    #[test]
    fn render_is_deterministic_and_carries_all_counts() {
        let b = batch(&[("fam/a", Some(true)), ("fam/b", Some(false))]);
        let score = score_batch(&b, |_| Some(true));
        let text = score.render();
        assert!(text.contains("fam"));
        assert!(text.contains("aggregate"));
        assert_eq!(text, score.render());
    }
}
