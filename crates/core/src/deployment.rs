//! The fixed-point deployment of a trained discriminator.
//!
//! [`OursDiscriminator::predict_features_quantized`] estimates the accuracy
//! cost of quantisation but rebuilds a quantised head on every call — fine
//! for a spot check, wasteful in a sweep. [`DeployedDiscriminator`]
//! quantises once, holds the per-qubit heads as [`IntMlp`] integer
//! datapaths (bit-identical to the float quantisation model, see
//! `mlr-nn::intmlp`), and serves predictions at full speed. This is the
//! software twin of the bitstream an hls4ml flow would generate from the
//! same weights.

use mlr_nn::{FixedPointFormat, IntMlp, Standardizer};
use mlr_num::Complex;
use serde::{Deserialize, Serialize};

use crate::{Discriminator, FeatureExtractor, OursConfig, OursDiscriminator};

/// Configuration of the quantised-deployment family (`OURS-INT` in the
/// registry): how to train the float model and which fixed-point word
/// format to freeze its heads into.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeployedConfig {
    /// Training configuration of the underlying float model.
    pub base: OursConfig,
    /// Head word format after quantisation.
    pub format: FixedPointFormat,
}

impl Default for DeployedConfig {
    fn default() -> Self {
        Self {
            base: OursConfig::default(),
            format: FixedPointFormat::HLS4ML_DEFAULT,
        }
    }
}

/// A trained pipeline frozen into fixed-point heads.
///
/// The analog front end (demodulation + matched-filter dot products) stays
/// in host precision — on the FPGA those run in wide DSP48 arithmetic whose
/// rounding is negligible next to the heads' narrow weights, which is where
/// the paper's precision analysis applies.
///
/// # Examples
///
/// ```no_run
/// use mlr_core::{DeployedDiscriminator, Discriminator, OursConfig, OursDiscriminator};
/// use mlr_nn::FixedPointFormat;
/// use mlr_sim::{ChipConfig, TraceDataset};
///
/// let chip = ChipConfig::five_qubit_paper();
/// let dataset = TraceDataset::generate(&chip, 3, 50, 7);
/// let split = dataset.paper_split(7);
/// let ours = OursDiscriminator::fit(&dataset, &split, &OursConfig::default());
/// let deployed = DeployedDiscriminator::new(&ours, FixedPointFormat::HLS4ML_DEFAULT);
/// let decision = deployed.predict_shot(dataset.raw(0));
/// println!("integer decision: {decision:?}");
/// ```
#[derive(Debug, Clone)]
pub struct DeployedDiscriminator {
    extractor: FeatureExtractor,
    standardizer: Standardizer,
    heads: Vec<IntMlp>,
    format: FixedPointFormat,
    levels: usize,
    /// Compiled single-pass plan. Integer heads quantise their own input,
    /// so here the standardizer folds *backward* into the kernel bank.
    plan: crate::CompiledPlan,
}

impl DeployedDiscriminator {
    /// Quantises every head of a trained discriminator to `format`.
    ///
    /// # Panics
    ///
    /// Panics if `format` is wider than 24 bits (see
    /// [`IntMlp::from_mlp`]).
    pub fn new(source: &OursDiscriminator, format: FixedPointFormat) -> Self {
        let heads: Vec<IntMlp> = source
            .heads
            .iter()
            .map(|h| IntMlp::from_mlp(h, format))
            .collect();
        Self::from_parts(
            source.extractor.clone(),
            source.standardizer.clone(),
            heads,
            format,
            source.levels,
        )
    }

    /// Assembles the model; its plan is compiled from [`Self::graph`]'s graph.
    fn from_parts(
        extractor: FeatureExtractor,
        standardizer: Standardizer,
        heads: Vec<IntMlp>,
        format: FixedPointFormat,
        levels: usize,
    ) -> Self {
        let plan = crate::plan::compile(crate::plan::int_graph(&extractor, &standardizer, &heads));
        Self {
            extractor,
            standardizer,
            heads,
            format,
            levels,
            plan,
        }
    }

    /// The unfused op graph the plan is compiled from: the reference
    /// [`crate::plan::eval`] interprets.
    pub(crate) fn graph(&self) -> crate::plan::OpGraph {
        crate::plan::int_graph(&self.extractor, &self.standardizer, &self.heads)
    }

    /// Borrows the compiled single-pass inference plan serving
    /// [`Discriminator::predict_shot`] / [`Discriminator::predict_batch`].
    pub fn plan(&self) -> &crate::CompiledPlan {
        &self.plan
    }

    /// The deployed word format.
    pub fn format(&self) -> FixedPointFormat {
        self.format
    }

    /// Borrows qubit `q`'s integer head.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    pub fn head(&self, q: usize) -> &IntMlp {
        &self.heads[q]
    }

    /// Level-alphabet size.
    pub fn levels(&self) -> usize {
        self.levels
    }

    /// Classifies a pre-extracted (raw, unstandardised) merged feature
    /// vector through the integer heads.
    ///
    /// # Panics
    ///
    /// Panics if `features.len()` differs from the extractor's dimension.
    pub fn predict_features(&self, features: &[f64]) -> Vec<usize> {
        let x = self.standardizer.transform_f32(features);
        self.heads.iter().map(|h| h.predict(&x)).collect()
    }
}

impl Discriminator for DeployedDiscriminator {
    /// Single-shot inference through the compiled plan: kernel scoring and
    /// standardisation fused into one pass (the affine is folded backward
    /// into the kernel memory), then the integer heads. Bit-identical to
    /// one shot of [`Discriminator::predict_batch`].
    fn predict_shot(&self, raw: &[Complex]) -> Vec<usize> {
        self.plan.predict_shot(raw)
    }

    /// Native batch path through the compiled plan: demodulation-free
    /// tiled kernel scoring with standardisation pre-folded, then integer
    /// head classification per shot.
    fn predict_batch(&self, shots: &[&[Complex]]) -> Vec<Vec<usize>> {
        self.plan.predict_batch(shots)
    }

    fn name(&self) -> &str {
        "OURS-INT"
    }

    fn n_qubits(&self) -> usize {
        self.heads.len()
    }

    fn weight_count(&self) -> usize {
        // Same weights as the source model, now stored as integers.
        self.heads
            .iter()
            .map(|h| h.sizes().windows(2).map(|w| w[0] * w[1]).sum::<usize>())
            .sum()
    }
}

/// The serialisable body of a [`DeployedDiscriminator`] inside the
/// registry's `SavedModel` v2 envelope: the fitted banks plus the heads
/// already frozen to integers, so a reload serves bit-identically without
/// requantising.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct SavedDeployed {
    banks: Vec<crate::QubitMfBank>,
    standardizer: Standardizer,
    heads: Vec<IntMlp>,
    format: FixedPointFormat,
    levels: usize,
}

impl DeployedDiscriminator {
    pub(crate) fn to_saved(&self) -> SavedDeployed {
        SavedDeployed {
            banks: (0..self.extractor.n_qubits())
                .map(|q| self.extractor.bank(q).clone())
                .collect(),
            standardizer: self.standardizer.clone(),
            heads: self.heads.clone(),
            format: self.format,
            levels: self.levels,
        }
    }

    pub(crate) fn from_saved(
        saved: SavedDeployed,
        chip: mlr_sim::ChipConfig,
        joint_neighbors: usize,
    ) -> Result<Self, crate::ModelIoError> {
        let n = chip.n_qubits();
        if saved.banks.len() != n || saved.heads.len() != n {
            return Err(crate::ModelIoError::Invalid(format!(
                "{} banks / {} heads for {} qubits",
                saved.banks.len(),
                saved.heads.len(),
                n
            )));
        }
        let feature_dim: usize = saved.banks.iter().map(crate::QubitMfBank::n_filters).sum();
        if saved.standardizer.dim() != feature_dim {
            return Err(crate::ModelIoError::Invalid(format!(
                "standardizer dim {} != feature dim {feature_dim}",
                saved.standardizer.dim()
            )));
        }
        for (q, head) in saved.heads.iter().enumerate() {
            let sizes = head.sizes();
            if sizes.first() != Some(&feature_dim) || sizes.last() != Some(&saved.levels) {
                return Err(crate::ModelIoError::Invalid(format!(
                    "integer head {q} shape {sizes:?} != [{feature_dim}, .., {}]",
                    saved.levels
                )));
            }
        }
        let extractor = FeatureExtractor::from_parts_joint(chip, saved.banks, joint_neighbors);
        Ok(Self::from_parts(
            extractor,
            saved.standardizer,
            saved.heads,
            saved.format,
            saved.levels,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{evaluate, OursConfig};
    use mlr_nn::TrainConfig;
    use mlr_sim::{ChipConfig, TraceDataset};

    fn fitted() -> (TraceDataset, mlr_sim::DatasetSplit, OursDiscriminator) {
        let mut c = ChipConfig::uniform(2);
        c.n_samples = 200;
        let ds = TraceDataset::generate(&c, 3, 30, 19);
        let split = ds.split(0.6, 0.1, 19);
        let config = OursConfig {
            train: TrainConfig {
                epochs: 20,
                ..OursConfig::default().train
            },
            ..OursConfig::default()
        };
        let ours = OursDiscriminator::fit(&ds, &split, &config);
        (ds, split, ours)
    }

    #[test]
    fn matches_per_call_quantisation_exactly() {
        let (ds, split, ours) = fitted();
        let fmt = FixedPointFormat::HLS4ML_DEFAULT;
        let deployed = DeployedDiscriminator::new(&ours, fmt);
        for &i in split.test.iter().take(60) {
            let feats = ours.extractor().extract(ds.raw(i));
            assert_eq!(
                deployed.predict_features(&feats),
                ours.predict_features_quantized(&feats, fmt),
                "shot {i}"
            );
        }
    }

    #[test]
    fn sixteen_bit_deployment_keeps_accuracy() {
        let (ds, split, ours) = fitted();
        let deployed = DeployedDiscriminator::new(&ours, FixedPointFormat::HLS4ML_DEFAULT);
        let f_float = evaluate(&ours, &ds, &split.test).geometric_mean_fidelity();
        let f_int = evaluate(&deployed, &ds, &split.test).geometric_mean_fidelity();
        assert!(
            (f_float - f_int).abs() < 0.02,
            "float {f_float:.4} vs int {f_int:.4}"
        );
    }

    #[test]
    fn coarse_words_degrade_more() {
        let (ds, split, ours) = fitted();
        let f16 = evaluate(
            &DeployedDiscriminator::new(&ours, FixedPointFormat::new(16, 6)),
            &ds,
            &split.test,
        )
        .geometric_mean_fidelity();
        let f6 = evaluate(
            &DeployedDiscriminator::new(&ours, FixedPointFormat::new(6, 3)),
            &ds,
            &split.test,
        )
        .geometric_mean_fidelity();
        assert!(f16 >= f6 - 1e-9, "16-bit {f16:.4} vs 6-bit {f6:.4}");
    }

    #[test]
    fn metadata_mirrors_source() {
        let (_, _, ours) = fitted();
        let deployed = DeployedDiscriminator::new(&ours, FixedPointFormat::HLS4ML_DEFAULT);
        assert_eq!(deployed.n_qubits(), 2);
        assert_eq!(deployed.levels(), 3);
        assert_eq!(deployed.weight_count(), ours.weight_count());
        assert_eq!(deployed.name(), "OURS-INT");
        assert_eq!(deployed.head(0).sizes(), ours.head(0).sizes());
    }
}
