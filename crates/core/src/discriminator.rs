//! The discriminator abstraction and the evaluation harness shared by the
//! proposed design and every baseline.

use mlr_num::Complex;
use mlr_sim::TraceDataset;

/// A multi-level readout discriminator: maps raw composite ADC traces to
/// per-qubit level decisions, one shot at a time or as a batch.
///
/// Implemented by [`crate::OursDiscriminator`] and by every baseline in
/// `mlr_core::baselines`, so the evaluation and reproduction harnesses can treat
/// them uniformly. The harness-facing entry point is
/// [`Discriminator::predict_batch`]: [`evaluate`] and the bench/CLI layers
/// feed whole shot sets through it, and implementations with a cheaper
/// amortised path (shared demodulation, standardise-once, one-time head
/// quantisation) override it. The `Sync` supertrait is what lets the
/// default implementation fan shots out across threads.
pub trait Discriminator: Sync {
    /// Classifies one raw multiplexed trace, returning the level index
    /// (`0`, `1`, `2`) decided for each qubit.
    fn predict_shot(&self, raw: &[Complex]) -> Vec<usize>;

    /// Classifies a batch of raw traces, returning one per-qubit decision
    /// vector per shot, in input order.
    ///
    /// The default implementation fans [`Discriminator::predict_shot`] out
    /// over the machine's cores ([`crate::par_map`]); overrides must
    /// decide every shot exactly as the per-shot path does (the
    /// workspace's property tests enforce this equivalence).
    fn predict_batch(&self, shots: &[&[Complex]]) -> Vec<Vec<usize>> {
        crate::par_map(shots, |raw| self.predict_shot(raw))
    }

    /// Human-readable design name as used in the paper's tables
    /// (e.g. `"FNN"`, `"HERQULES"`, `"OURS"`).
    fn name(&self) -> &str;

    /// Number of qubits the discriminator decides for.
    fn n_qubits(&self) -> usize;

    /// Total neural-network weight count (0 for training-free designs such
    /// as LDA/QDA); the model-size figure the paper compares.
    fn weight_count(&self) -> usize;
}

/// Per-qubit readout fidelities of a discriminator on a set of shots.
#[derive(Debug, Clone, PartialEq)]
pub struct EvalReport {
    /// Design name (copied from the discriminator).
    pub design: String,
    /// Per-qubit **balanced** assignment fidelity: the per-level recall
    /// averaged over the levels present in the evaluation set. This is the
    /// standard readout-fidelity definition (each prepared level weighted
    /// equally) and what the paper's tables report — under the paper's
    /// natural-leakage methodology the raw class counts are wildly
    /// imbalanced, so a micro average would hide leakage misdetection.
    pub per_qubit_fidelity: Vec<f64>,
    /// Per-qubit plain (micro) accuracy over the evaluated shots.
    pub per_qubit_micro: Vec<f64>,
    /// Per-qubit, per-level recall: `recall[q][l]` is the fraction of
    /// level-`l` shots of qubit `q` decided correctly (`NaN`-free: levels
    /// absent from the evaluation set report 0 and are excluded from the
    /// balanced average).
    pub per_level_recall: Vec<Vec<f64>>,
    /// Fraction of shots where every qubit was decided correctly.
    pub joint_accuracy: f64,
    /// Number of shots evaluated.
    pub n_shots: usize,
}

impl EvalReport {
    /// The paper's cumulative accuracy: geometric mean of the per-qubit
    /// fidelities (`F5Q` in Tables II and IV).
    pub fn geometric_mean_fidelity(&self) -> f64 {
        mlr_nn::geometric_mean(&self.per_qubit_fidelity)
    }

    /// Mean readout error (1 − mean fidelity), optionally excluding qubits
    /// listed in `exclude` — the paper excludes qubit 2 (index 1) from the
    /// Table VI error column due to its setup limitations.
    pub fn mean_error_excluding(&self, exclude: &[usize]) -> f64 {
        let kept: Vec<f64> = self
            .per_qubit_fidelity
            .iter()
            .enumerate()
            .filter(|(q, _)| !exclude.contains(q))
            .map(|(_, &f)| f)
            .collect();
        if kept.is_empty() {
            return 0.0;
        }
        1.0 - kept.iter().sum::<f64>() / kept.len() as f64
    }
}

/// Borrows the raw traces of the selected dataset shots — the glue
/// between index-based splits and the slice-based batch API.
///
/// # Panics
///
/// Panics if any index is out of range.
pub fn gather_shots<'d>(dataset: &'d TraceDataset, indices: &[usize]) -> Vec<&'d [Complex]> {
    indices.iter().map(|&i| dataset.raw(i)).collect()
}

/// Evaluates a discriminator on the dataset shots selected by `indices`
/// (typically a test split), scoring each qubit's decision against the
/// dataset's label ([`mlr_sim::LabelSource`]) and reporting **balanced**
/// per-qubit fidelities, as the paper's tables do.
///
/// All decisions come from one [`Discriminator::predict_batch`] call, so
/// natively batched designs evaluate at their amortised cost.
///
/// # Panics
///
/// Panics if `indices` is empty or out of range for the dataset.
pub fn evaluate(
    disc: &(impl Discriminator + ?Sized),
    dataset: &TraceDataset,
    indices: &[usize],
) -> EvalReport {
    assert!(!indices.is_empty(), "no shots to evaluate");
    let n_qubits = disc.n_qubits();
    let levels = dataset.levels();
    let shots = gather_shots(dataset, indices);
    let decisions = disc.predict_batch(&shots);
    // hits[q][l], counts[q][l]
    let mut hits = vec![vec![0usize; levels]; n_qubits];
    let mut counts = vec![vec![0usize; levels]; n_qubits];
    let mut joint_hits = 0usize;
    for (&i, decided) in indices.iter().zip(&decisions) {
        assert_eq!(decided.len(), n_qubits, "discriminator output width");
        let mut all = true;
        for q in 0..n_qubits {
            let truth = dataset.label(i, q);
            counts[q][truth] += 1;
            if decided[q] == truth {
                hits[q][truth] += 1;
            } else {
                all = false;
            }
        }
        if all {
            joint_hits += 1;
        }
    }
    let n = indices.len() as f64;
    let per_level_recall: Vec<Vec<f64>> = (0..n_qubits)
        .map(|q| {
            (0..levels)
                .map(|l| {
                    if counts[q][l] == 0 {
                        0.0
                    } else {
                        hits[q][l] as f64 / counts[q][l] as f64
                    }
                })
                .collect()
        })
        .collect();
    let per_qubit_fidelity: Vec<f64> = (0..n_qubits)
        .map(|q| {
            let present: Vec<f64> = (0..levels)
                .filter(|&l| counts[q][l] > 0)
                .map(|l| per_level_recall[q][l])
                .collect();
            present.iter().sum::<f64>() / present.len().max(1) as f64
        })
        .collect();
    let per_qubit_micro: Vec<f64> = (0..n_qubits)
        .map(|q| hits[q].iter().sum::<usize>() as f64 / n)
        .collect();
    EvalReport {
        design: disc.name().to_owned(),
        per_qubit_fidelity,
        per_qubit_micro,
        per_level_recall,
        joint_accuracy: joint_hits as f64 / n,
        n_shots: indices.len(),
    }
}

/// Per-qubit confusion matrices of a discriminator over the dataset shots
/// selected by `indices` (`matrix[q].count(truth, decided)`).
///
/// The balanced fidelities of [`evaluate`] are derivable from these, but
/// the full matrices additionally expose *which* confusions dominate —
/// e.g. HERQULES misreading `|2⟩` as `|1⟩` (the Fig. 1(c) mechanism).
/// Decisions come from one [`Discriminator::predict_batch`] call.
///
/// # Panics
///
/// Panics if `indices` is empty or out of range.
pub fn evaluate_confusion(
    disc: &(impl Discriminator + ?Sized),
    dataset: &TraceDataset,
    indices: &[usize],
) -> Vec<mlr_nn::ConfusionMatrix> {
    assert!(!indices.is_empty(), "no shots to evaluate");
    let n_qubits = disc.n_qubits();
    let levels = dataset.levels();
    let shots = gather_shots(dataset, indices);
    let decisions = disc.predict_batch(&shots);
    let mut matrices = vec![mlr_nn::ConfusionMatrix::new(levels); n_qubits];
    for (&i, decided) in indices.iter().zip(&decisions) {
        for (q, matrix) in matrices.iter_mut().enumerate() {
            matrix.record(dataset.label(i, q), decided[q]);
        }
    }
    matrices
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlr_sim::ChipConfig;

    /// A fake discriminator that always answers a fixed level.
    struct Constant(usize, usize);

    impl Discriminator for Constant {
        fn predict_shot(&self, _raw: &[Complex]) -> Vec<usize> {
            vec![self.0; self.1]
        }
        fn name(&self) -> &str {
            "CONST"
        }
        fn n_qubits(&self) -> usize {
            self.1
        }
        fn weight_count(&self) -> usize {
            0
        }
    }

    fn tiny_dataset() -> TraceDataset {
        let mut c = ChipConfig::five_qubit_paper();
        c.n_samples = 30;
        TraceDataset::generate(&c, 2, 2, 3)
    }

    #[test]
    fn constant_predictor_scores_class_prior() {
        let ds = tiny_dataset();
        let all: Vec<usize> = (0..ds.len()).collect();
        let report = evaluate(&Constant(0, 5), &ds, &all);
        // Half the prepared two-level states have each qubit in |0>.
        for q in 0..5 {
            assert!((report.per_qubit_fidelity[q] - 0.5).abs() < 1e-12, "q{q}");
        }
        // Exactly the two |00000> shots are jointly correct.
        assert!((report.joint_accuracy - 2.0 / 64.0).abs() < 1e-12);
        assert_eq!(report.design, "CONST");
        assert_eq!(report.n_shots, 64);
    }

    #[test]
    fn error_exclusion_matches_manual() {
        let report = EvalReport {
            design: "X".into(),
            per_qubit_fidelity: vec![0.9, 0.5, 0.95],
            per_qubit_micro: vec![0.9, 0.5, 0.95],
            per_level_recall: vec![],
            joint_accuracy: 0.0,
            n_shots: 1,
        };
        // Excluding the weak middle qubit.
        let err = report.mean_error_excluding(&[1]);
        assert!((err - (1.0 - 0.925)).abs() < 1e-12);
        let err_all = report.mean_error_excluding(&[]);
        assert!((err_all - (1.0 - (0.9 + 0.5 + 0.95) / 3.0)).abs() < 1e-12);
    }

    #[test]
    fn geometric_mean_consistency() {
        let report = EvalReport {
            design: "X".into(),
            per_qubit_fidelity: vec![0.81, 1.0],
            per_qubit_micro: vec![0.81, 1.0],
            per_level_recall: vec![],
            joint_accuracy: 0.0,
            n_shots: 1,
        };
        assert!((report.geometric_mean_fidelity() - 0.9).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "no shots to evaluate")]
    fn empty_indices_rejected() {
        let ds = tiny_dataset();
        let _ = evaluate(&Constant(0, 5), &ds, &[]);
    }

    #[test]
    #[allow(clippy::needless_range_loop)] // qubit index addresses matrices and the report
    fn confusion_matrices_match_evaluate() {
        let ds = tiny_dataset();
        let all: Vec<usize> = (0..ds.len()).collect();
        let disc = Constant(1, 5);
        let matrices = evaluate_confusion(&disc, &ds, &all);
        let report = evaluate(&disc, &ds, &all);
        assert_eq!(matrices.len(), 5);
        for q in 0..5 {
            // Everything is predicted |1>, so column 1 holds all mass and
            // the per-level recall of |1> is 1, of the others 0.
            let m = &matrices[q];
            assert_eq!(m.total(), ds.len() as u64);
            assert_eq!(m.count(1, 1) as f64 / 32.0, report.per_level_recall[q][1]);
            assert_eq!(m.count(0, 0), 0);
        }
    }
}
