//! False-positive control through the scoring harness: the benign apps
//! and every taint-killing mutation variant run through the farm and
//! the scorer, and precision must be exactly 1.0 — zero flagged leaks
//! anywhere in the negative corpus. The complementary check runs the
//! full adversarial corpus and pins aggregate recall = 1.0 on the
//! taint-preserving cases alongside precision = 1.0.

use ndroid_apps::adversarial::{corpus, expected_leak, CaseApp};
use ndroid_apps::farm::Adversarial;
use ndroid_core::batch::{run_batch, BatchConfig, JobSource};
use ndroid_core::score::score_batch;
use ndroid_core::{AnalysisJob, SystemConfig};

/// Runs only the corpus' negative cases (benign apps + taint-killing
/// mutation variants) and asserts nothing is flagged.
#[test]
fn negative_corpus_scores_precision_one() {
    let config = SystemConfig::ndroid().quiet(true);
    let jobs: Vec<AnalysisJob> = corpus()
        .into_iter()
        .filter(|case| !case.expected_leak)
        .map(|case| {
            let config = config.clone();
            AnalysisJob::new(case.label, move || {
                case.build().run_with(config).map(|sys| sys.report())
            })
        })
        .collect();
    assert!(jobs.len() >= 8, "benign + killing variants populate the negative corpus");

    let batch = run_batch(jobs, BatchConfig::new(4));
    let score = score_batch(&batch, expected_leak);
    assert!(score.unscored.is_empty(), "{}", score.render());
    assert_eq!(
        score.aggregate.false_positives, 0,
        "zero flagged leaks:\n{}",
        score.render()
    );
    assert_eq!(score.aggregate.precision(), 1.0);
    assert_eq!(
        score.aggregate.true_negatives,
        score.aggregate.total(),
        "every negative case stays clean"
    );
    // Per-family precision too: benign apps and killing mutations each
    // hold on their own.
    for family in ["benign", "mutation", "detour", "interwork", "rewrite"] {
        if let Some(card) = score.family(family) {
            assert_eq!(card.precision(), 1.0, "{family}: {}", score.render());
        }
    }
}

/// The whole corpus through the farm: recall 1.0 on the preserving
/// cases AND precision 1.0 on the killing/benign cases, per family and
/// in aggregate — the CI acceptance bar.
#[test]
fn full_corpus_scores_perfectly() {
    let batch = run_batch(
        Adversarial.jobs(&SystemConfig::ndroid().quiet(true)),
        BatchConfig::new(4),
    );
    let score = score_batch(&batch, expected_leak);
    assert!(score.perfect(), "{}", score.render());
    assert_eq!(score.aggregate.recall(), 1.0, "{}", score.render());
    assert_eq!(score.aggregate.precision(), 1.0, "{}", score.render());
    assert_eq!(score.aggregate.f1(), 1.0);
    for f in &score.families {
        assert!(f.card.perfect(), "{}: {}", f.family, score.render());
    }
    // The corpus genuinely exercises both error directions: positives
    // exist (so recall is meaningful) and negatives exist (precision).
    assert!(score.aggregate.true_positives >= 6);
    assert!(score.aggregate.true_negatives >= 8);
}

/// Mutation variants are the μDep instrument: spec-derived ground
/// truth stays in lockstep with the corpus-level labels.
#[test]
fn mutation_truth_comes_from_the_spec() {
    for case in corpus() {
        if let CaseApp::Spec(spec) = &case.app {
            assert_eq!(case.expected_leak, spec.expected_leak(), "{}", case.label);
        }
    }
}
