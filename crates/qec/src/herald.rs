//! Erasure-herald models: how the end-of-run leakage flags handed to
//! [`Decoder::decode_with_erasures`](crate::Decoder::decode_with_erasures)
//! are *measured*, not just assumed.
//!
//! PR 3 heralded erasures from the simulator's ground-truth leak state,
//! which sidesteps the paper's central argument: the *quality* of the
//! multi-level readout determines how much QEC benefit leakage detection
//! buys (Table VI). A [`HeraldModel`] closes that gap — it maps the true
//! per-qubit leak state to the flag set a real readout chain would report,
//! so false positives erase healthy qubits and false negatives miss leaked
//! ones, and both propagate into the decoder:
//!
//! * [`GroundTruthHerald`] — the PR 3 behaviour, kept as the zero-noise
//!   reference (and proven bit-for-bit identical to a zero-error
//!   confusion channel by the property tests in
//!   `crates/qec/tests/herald_noise.rs`);
//! * [`ConfusionMatrixHerald`] — a calibrated two-outcome channel
//!   parameterized by false-positive / false-negative assignment error,
//!   the knob the Table VI-style sweep scans;
//! * discriminator-backed — `DiscriminatorHerald` in `mlr-core` implements
//!   this trait by replaying verdicts the actual multi-level discriminator
//!   produced on simulated calibration traces (the `mlr-qec` crate stays
//!   dependency-free, so the readout-stack-backed model lives one layer
//!   up).
//!
//! [`herald_sweep`] is the driver behind `mlr qec sweep` and
//! `mlr repro herald_sweep`: it scans herald assignment error across decoders
//! and distances and reports the resulting logical failure rate.
//!
//! # Examples
//!
//! ```
//! use mlr_qec::{ConfusionMatrixHerald, GroundTruthHerald, HeraldModel};
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! let truth = vec![false, true, false, true];
//! let mut rng = StdRng::seed_from_u64(7);
//!
//! // Ground truth reports exactly the leaked set…
//! assert_eq!(GroundTruthHerald.herald(&truth, &mut rng), truth);
//! // …and so does a zero-error confusion channel.
//! let perfect = ConfusionMatrixHerald::symmetric(0.0);
//! assert_eq!(perfect.herald(&truth, &mut rng), truth);
//! // A certain-misassignment channel inverts every decision.
//! let inverted = ConfusionMatrixHerald::symmetric(1.0);
//! let flags = inverted.herald(&truth, &mut rng);
//! assert!(flags.iter().zip(&truth).all(|(f, t)| f != t));
//! ```

use rand::rngs::StdRng;
use rand::Rng;

use crate::{
    DecoderKind, EraserConfig, EraserExperiment, EraserResult, LeakageParams, SpeculationMode,
};

/// A model of the end-of-run erasure-herald measurement: given the true
/// leak state of every data qubit, produce the flag set the readout chain
/// *reports* to [`Decoder::decode_with_erasures`](crate::Decoder::decode_with_erasures).
///
/// Implementations must be deterministic given the rng state so sweeps and
/// tests stay seed-reproducible.
pub trait HeraldModel {
    /// Maps the true per-qubit leak state to reported erasure flags.
    ///
    /// `leaked[q]` is the ground-truth leak state of data qubit `q`; the
    /// returned vector has the same length, `true` where the model reports
    /// a leak. Noise is drawn from `rng`.
    fn herald(&self, leaked: &[bool], rng: &mut StdRng) -> Vec<bool>;

    /// Human-readable model name for tables and logs.
    fn name(&self) -> String;
}

/// The perfect herald: reports exactly the true leak state (PR 3's
/// behaviour, kept as the zero-noise endpoint of every sweep).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GroundTruthHerald;

impl HeraldModel for GroundTruthHerald {
    fn herald(&self, leaked: &[bool], _rng: &mut StdRng) -> Vec<bool> {
        leaked.to_vec()
    }

    fn name(&self) -> String {
        "ground-truth".to_owned()
    }
}

/// A calibrated binary confusion channel over the leak/not-leak decision.
///
/// Each qubit's report is flipped independently: a healthy qubit is
/// flagged with probability `p_false_positive` (erasing a qubit that
/// carried no leak), a leaked qubit is missed with probability
/// `p_false_negative`. [`ConfusionMatrixHerald::symmetric`] sets both to
/// one assignment-error value — the x-axis of the Table VI-style sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConfusionMatrixHerald {
    /// P(report leaked | not leaked).
    pub p_false_positive: f64,
    /// P(report healthy | leaked).
    pub p_false_negative: f64,
}

impl ConfusionMatrixHerald {
    /// Builds the channel from both error arms.
    ///
    /// # Panics
    ///
    /// Panics if either probability is outside `[0, 1]`.
    pub fn new(p_false_positive: f64, p_false_negative: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&p_false_positive),
            "p_false_positive out of range"
        );
        assert!(
            (0.0..=1.0).contains(&p_false_negative),
            "p_false_negative out of range"
        );
        Self {
            p_false_positive,
            p_false_negative,
        }
    }

    /// A symmetric channel: both error arms equal `assignment_error`.
    ///
    /// # Panics
    ///
    /// Panics if `assignment_error` is outside `[0, 1]`.
    pub fn symmetric(assignment_error: f64) -> Self {
        Self::new(assignment_error, assignment_error)
    }
}

impl HeraldModel for ConfusionMatrixHerald {
    fn herald(&self, leaked: &[bool], rng: &mut StdRng) -> Vec<bool> {
        leaked
            .iter()
            .map(|&truth| {
                let p_flip = if truth {
                    self.p_false_negative
                } else {
                    self.p_false_positive
                };
                // A zero-probability arm draws nothing, keeping the rng
                // stream bit-identical to the ground-truth path — the
                // property the zero-noise equivalence tests pin.
                if p_flip > 0.0 && rng.gen::<f64>() < p_flip {
                    !truth
                } else {
                    truth
                }
            })
            .collect()
    }

    fn name(&self) -> String {
        if self.p_false_positive == self.p_false_negative {
            format!("confusion({:.3})", self.p_false_positive)
        } else {
            format!(
                "confusion(fp {:.3}, fn {:.3})",
                self.p_false_positive, self.p_false_negative
            )
        }
    }
}

/// Configuration of [`herald_sweep`]: the grid of distances, decoders, and
/// herald assignment errors to scan, plus the per-point ERASER+M settings.
#[derive(Debug, Clone, PartialEq)]
pub struct HeraldSweepConfig {
    /// Surface-code distances to scan (the acceptance curve uses {3, 5}).
    pub distances: Vec<usize>,
    /// Decoders to scan (greedy ignores the heralds; union-find consumes
    /// them, so the gap between the two curves is the value of erasure
    /// information at that readout quality).
    pub decoders: Vec<DecoderKind>,
    /// Symmetric herald assignment errors to scan; `0.0` reproduces the
    /// ground-truth-herald results bit-for-bit.
    pub herald_errors: Vec<f64>,
    /// QEC cycles per trial.
    pub cycles: usize,
    /// Trials per grid point.
    pub trials: usize,
    /// Physical leakage/error rates shared by every point.
    pub params: LeakageParams,
    /// Three-level ancilla readout error of the ERASER+M speculation loop
    /// (the per-cycle signal; the herald error is the end-of-run signal).
    pub readout_error: f64,
    /// Master seed; every grid point at the same (distance, seed) replays
    /// the same leakage trajectories, so curves differ only through the
    /// herald channel (common-random-numbers coupling).
    pub seed: u64,
}

impl Default for HeraldSweepConfig {
    fn default() -> Self {
        Self {
            distances: vec![3, 5],
            decoders: vec![DecoderKind::Greedy, DecoderKind::UnionFind],
            herald_errors: vec![0.0, 0.02, 0.05, 0.10, 0.20],
            cycles: 10,
            trials: 200,
            params: LeakageParams::default(),
            readout_error: 0.05,
            seed: 71,
        }
    }
}

/// One grid point of a [`herald_sweep`].
#[derive(Debug, Clone, PartialEq)]
pub struct HeraldSweepPoint {
    /// Code distance of this point.
    pub distance: usize,
    /// Decoder fed the heralded erasures.
    pub decoder: DecoderKind,
    /// Symmetric herald assignment error applied at end-of-run.
    pub herald_error: f64,
    /// Full ERASER+M outcome, including `logical_failure_rate` and the
    /// realised herald false-positive / false-negative rates.
    pub result: EraserResult,
}

/// Scans herald assignment error across decoders and distances, running
/// one ERASER+M experiment per grid point and reporting the logical
/// failure rate — the engine behind `mlr qec sweep` and
/// `mlr repro herald_sweep`.
///
/// Points sharing a distance share leakage trajectories (same seed), so
/// along the herald-error axis the curves are coupled: the only thing that
/// changes is how faithfully the end-of-run leak state is reported.
///
/// # Examples
///
/// ```
/// use mlr_qec::{herald_sweep, HeraldSweepConfig};
///
/// let config = HeraldSweepConfig {
///     distances: vec![3],
///     herald_errors: vec![0.0, 0.3],
///     cycles: 2,
///     trials: 10,
///     ..HeraldSweepConfig::default()
/// };
/// let points = herald_sweep(&config);
/// // distances × decoders × errors grid points, in scan order.
/// assert_eq!(points.len(), 1 * 2 * 2);
/// assert!(points
///     .iter()
///     .all(|p| (0.0..=1.0).contains(&p.result.logical_failure_rate)));
/// ```
pub fn herald_sweep(config: &HeraldSweepConfig) -> Vec<HeraldSweepPoint> {
    let mut points = Vec::with_capacity(
        config.distances.len() * config.decoders.len() * config.herald_errors.len(),
    );
    for &distance in &config.distances {
        for &decoder in &config.decoders {
            let experiment = EraserExperiment::new(EraserConfig {
                distance,
                cycles: config.cycles,
                trials: config.trials,
                params: config.params,
                seed: config.seed,
                decoder,
            });
            for &herald_error in &config.herald_errors {
                let herald = ConfusionMatrixHerald::symmetric(herald_error);
                let result = experiment.run_with_herald(
                    SpeculationMode::EraserM {
                        readout_error: config.readout_error,
                    },
                    &herald,
                );
                points.push(HeraldSweepPoint {
                    distance,
                    decoder,
                    herald_error,
                    result,
                });
            }
        }
    }
    points
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn ground_truth_reports_exactly_the_leaked_set() {
        let truth = vec![true, false, true, true, false];
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(GroundTruthHerald.herald(&truth, &mut rng), truth);
    }

    #[test]
    fn zero_error_confusion_is_transparent_and_draws_nothing() {
        let truth = vec![true, false, false, true];
        let herald = ConfusionMatrixHerald::symmetric(0.0);
        let mut a = StdRng::seed_from_u64(9);
        let mut b = StdRng::seed_from_u64(9);
        assert_eq!(herald.herald(&truth, &mut a), truth);
        // The rng stream must be untouched (bit-for-bit PR 3 equivalence).
        assert_eq!(a.gen::<u64>(), b.gen::<u64>());
    }

    #[test]
    fn certain_error_inverts_every_decision() {
        let truth = vec![true, false, true];
        let herald = ConfusionMatrixHerald::new(1.0, 1.0);
        let mut rng = StdRng::seed_from_u64(3);
        let flags = herald.herald(&truth, &mut rng);
        assert!(flags.iter().zip(&truth).all(|(f, t)| *f != *t));
    }

    #[test]
    fn asymmetric_arms_apply_to_the_right_class() {
        // Only false positives: leaked qubits are always reported.
        let fp_only = ConfusionMatrixHerald::new(1.0, 0.0);
        let mut rng = StdRng::seed_from_u64(5);
        let flags = fp_only.herald(&[true, false], &mut rng);
        assert_eq!(flags, vec![true, true]);
        // Only false negatives: healthy qubits are never flagged.
        let fn_only = ConfusionMatrixHerald::new(0.0, 1.0);
        let flags = fn_only.herald(&[true, false], &mut rng);
        assert_eq!(flags, vec![false, false]);
    }

    #[test]
    #[should_panic(expected = "p_false_positive out of range")]
    fn confusion_rejects_bad_probability() {
        let _ = ConfusionMatrixHerald::new(1.5, 0.0);
    }

    #[test]
    fn sweep_covers_the_full_grid_in_scan_order() {
        let config = HeraldSweepConfig {
            distances: vec![3],
            decoders: vec![DecoderKind::UnionFind],
            herald_errors: vec![0.0, 0.5],
            cycles: 2,
            trials: 5,
            ..HeraldSweepConfig::default()
        };
        let points = herald_sweep(&config);
        assert_eq!(points.len(), 2);
        assert_eq!(points[0].herald_error, 0.0);
        assert_eq!(points[1].herald_error, 0.5);
        assert!(points.iter().all(|p| p.distance == 3));
    }

    #[test]
    fn sweep_zero_error_point_matches_ground_truth_run() {
        let config = HeraldSweepConfig {
            distances: vec![3],
            decoders: vec![DecoderKind::UnionFind],
            herald_errors: vec![0.0],
            cycles: 3,
            trials: 20,
            ..HeraldSweepConfig::default()
        };
        let points = herald_sweep(&config);
        let reference = EraserExperiment::new(EraserConfig {
            distance: 3,
            cycles: 3,
            trials: 20,
            params: config.params,
            seed: config.seed,
            decoder: DecoderKind::UnionFind,
        })
        .run(SpeculationMode::EraserM {
            readout_error: config.readout_error,
        });
        assert_eq!(points[0].result, reference);
    }
}
