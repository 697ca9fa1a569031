//! The HERQULES baseline (Fig. 2 bottom): matched-filter features into a
//! joint classifier whose output layer scales as `levelsⁿ`.

use crate::{Discriminator, FeatureExtractor};
use mlr_dsp::MatchedFilterKind;
use mlr_nn::{Mlp, Standardizer, TrainConfig, TrainData};
use mlr_num::Complex;
use mlr_sim::{basis_state_count, DatasetSplit, TraceDataset};
use serde::{Deserialize, Serialize};

/// Configuration of [`HerqulesBaseline::fit`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HerqulesConfig {
    /// Hidden layer widths; the paper's Fig. 2 uses `[60, 120]`.
    pub hidden: Vec<usize>,
    /// Matched-filter kernel normalisation.
    pub mf_kind: MatchedFilterKind,
    /// Training hyper-parameters.
    pub train: TrainConfig,
}

impl Default for HerqulesConfig {
    fn default() -> Self {
        Self {
            hidden: vec![60, 120],
            mf_kind: MatchedFilterKind::default(),
            train: TrainConfig {
                epochs: 60,
                batch_size: 64,
                learning_rate: 2e-3,
                early_stop_patience: Some(10),
                ..TrainConfig::default()
            },
        }
    }
}

/// The ISCA '23 scaling baseline: per-qubit **qubit and relaxation**
/// matched filters (no excitation filters — that is one of the two things
/// the paper fixes), merged into one network that classifies **all qubits
/// jointly** with a `levelsⁿ`-way softmax.
///
/// At two levels this design beats the FNN at a fraction of the cost; at
/// three levels the exponential output layer and the missing excitation
/// information collapse its fidelity (paper Table II) — this implementation
/// reproduces both behaviours.
#[derive(Debug, Clone)]
pub struct HerqulesBaseline {
    extractor: FeatureExtractor,
    standardizer: Standardizer,
    mlp: Mlp,
    n_qubits: usize,
    levels: usize,
    /// Compiled single-pass plan (standardizer folded into the joint
    /// network's first layer) — derived data, recompiled on load.
    plan: crate::CompiledPlan,
}

impl HerqulesBaseline {
    /// Fits matched filters and the joint classifier on the training split.
    ///
    /// # Panics
    ///
    /// Panics if a qubit is missing a level in the training split or the
    /// split indexes out of range.
    pub fn fit(dataset: &TraceDataset, split: &DatasetSplit, config: &HerqulesConfig) -> Self {
        let extractor = FeatureExtractor::fit(
            dataset,
            &split.train,
            /* include_emf = */ false,
            config.mf_kind,
        )
        .expect("every qubit needs every level in the training split");

        let n_qubits = dataset.config().n_qubits();
        let levels = dataset.levels();
        let n_classes = basis_state_count(n_qubits, levels);

        let raw_train = extractor.extract_batch(dataset, &split.train);
        let standardizer = Standardizer::fit(&raw_train).expect("nonempty training batch");
        let train_x = standardizer.transform_batch(&raw_train);
        let train_y: Vec<usize> = split
            .train
            .iter()
            .map(|&i| dataset.joint_label(i))
            .collect();
        let data = TrainData::from_f64(&train_x, train_y, n_classes).expect("validated batch");

        let val_data = if split.val.is_empty() {
            None
        } else {
            let val_x = standardizer.transform_batch(&extractor.extract_batch(dataset, &split.val));
            let val_y: Vec<usize> = split.val.iter().map(|&i| dataset.joint_label(i)).collect();
            Some(TrainData::from_f64(&val_x, val_y, n_classes).expect("validated batch"))
        };

        let mut sizes = vec![extractor.feature_dim()];
        sizes.extend_from_slice(&config.hidden);
        sizes.push(n_classes);
        let mut mlp = Mlp::new(&sizes, config.train.seed);
        // Trained exactly as published: plain (unweighted) cross-entropy on
        // the joint one-hot labels; the class imbalance of natural leakage
        // is part of what the evaluation measures.
        mlp.train(&data, val_data.as_ref(), &config.train);

        Self::from_parts(extractor, standardizer, mlp, n_qubits, levels)
    }

    /// Assembles the model; its plan is compiled from [`Self::graph`]'s graph.
    fn from_parts(
        extractor: FeatureExtractor,
        standardizer: Standardizer,
        mlp: Mlp,
        n_qubits: usize,
        levels: usize,
    ) -> Self {
        let plan = crate::plan::compile(crate::plan::joint_graph(
            &extractor,
            &standardizer,
            &mlp,
            n_qubits,
            levels,
        ));
        Self {
            extractor,
            standardizer,
            mlp,
            n_qubits,
            levels,
            plan,
        }
    }

    /// The unfused op graph the plan is compiled from: the reference
    /// [`crate::plan::eval`] interprets.
    pub(crate) fn graph(&self) -> crate::plan::OpGraph {
        crate::plan::joint_graph(
            &self.extractor,
            &self.standardizer,
            &self.mlp,
            self.n_qubits,
            self.levels,
        )
    }

    /// Borrows the fitted matched-filter feature extractor.
    pub fn extractor(&self) -> &FeatureExtractor {
        &self.extractor
    }

    /// Borrows the compiled single-pass inference plan serving
    /// [`Discriminator::predict_shot`] / [`Discriminator::predict_batch`].
    pub fn plan(&self) -> &crate::CompiledPlan {
        &self.plan
    }

    /// Borrows the trained joint classifier.
    pub fn mlp(&self) -> &Mlp {
        &self.mlp
    }
}

impl Discriminator for HerqulesBaseline {
    /// Single-shot inference through the compiled plan. HERQULES outputs
    /// the joint basis state (Fig. 2 of the paper): argmax over the `kⁿ`
    /// classes, then split into digits. Under the natural-leakage
    /// imbalance this is exactly what collapses at three levels: rare
    /// leaked joint classes never win the argmax.
    fn predict_shot(&self, raw: &[Complex]) -> Vec<usize> {
        self.plan.predict_shot(raw)
    }

    /// Native batch path through the compiled plan: fused tiled kernel
    /// scoring shared with the proposed design, standardisation folded
    /// into the joint network's first layer at compile time.
    fn predict_batch(&self, shots: &[&[Complex]]) -> Vec<Vec<usize>> {
        self.plan.predict_batch(shots)
    }

    fn name(&self) -> &str {
        "HERQULES"
    }

    fn n_qubits(&self) -> usize {
        self.n_qubits
    }

    fn weight_count(&self) -> usize {
        self.mlp.weight_count()
    }
}

/// The serialisable body of a trained [`HerqulesBaseline`] inside the
/// registry's `SavedModel` v2 envelope; the chip travels in the envelope
/// and rebuilds the demodulation tables on load.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct SavedHerqules {
    banks: Vec<crate::QubitMfBank>,
    standardizer: Standardizer,
    mlp: Mlp,
    levels: usize,
}

impl HerqulesBaseline {
    pub(crate) fn to_saved(&self) -> SavedHerqules {
        SavedHerqules {
            banks: (0..self.n_qubits)
                .map(|q| self.extractor.bank(q).clone())
                .collect(),
            standardizer: self.standardizer.clone(),
            mlp: self.mlp.clone(),
            levels: self.levels,
        }
    }

    pub(crate) fn from_saved(
        saved: SavedHerqules,
        chip: mlr_sim::ChipConfig,
    ) -> Result<Self, crate::ModelIoError> {
        let n_qubits = chip.n_qubits();
        if saved.banks.len() != n_qubits {
            return Err(crate::ModelIoError::Invalid(format!(
                "{} HERQULES banks for {} qubits",
                saved.banks.len(),
                n_qubits
            )));
        }
        let feature_dim: usize = saved.banks.iter().map(crate::QubitMfBank::n_filters).sum();
        if saved.standardizer.dim() != feature_dim || saved.mlp.input_len() != feature_dim {
            return Err(crate::ModelIoError::Invalid(format!(
                "HERQULES feature dim mismatch: banks {feature_dim}, standardizer {}, mlp {}",
                saved.standardizer.dim(),
                saved.mlp.input_len()
            )));
        }
        let n_classes = basis_state_count(n_qubits, saved.levels);
        if saved.mlp.output_len() != n_classes {
            return Err(crate::ModelIoError::Invalid(format!(
                "HERQULES output {} != {} joint classes",
                saved.mlp.output_len(),
                n_classes
            )));
        }
        let extractor = FeatureExtractor::from_parts(chip, saved.banks);
        Ok(Self::from_parts(
            extractor,
            saved.standardizer,
            saved.mlp,
            n_qubits,
            saved.levels,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluate;
    use mlr_sim::ChipConfig;

    #[test]
    fn paper_scale_topology() {
        // 5 qubits x 6 filters = 30 inputs, 243 outputs: ~38k weights.
        let mlp = Mlp::new(&[30, 60, 120, 243], 0);
        assert_eq!(mlp.weight_count(), 38_160);
    }

    #[test]
    fn two_level_readout_works_well() {
        // HERQULES' home turf: two-level readout on a small chip. Small
        // batches keep the Adam step count useful on a tiny train split.
        let mut c = ChipConfig::uniform(2);
        c.n_samples = 200;
        let ds = TraceDataset::generate(&c, 2, 50, 31);
        let split = ds.split(0.5, 0.1, 31);
        let config = HerqulesConfig {
            train: TrainConfig {
                batch_size: 16,
                ..HerqulesConfig::default().train
            },
            ..HerqulesConfig::default()
        };
        let herq = HerqulesBaseline::fit(&ds, &split, &config);
        let report = evaluate(&herq, &ds, &split.test);
        for (q, f) in report.per_qubit_fidelity.iter().enumerate() {
            assert!(*f > 0.9, "qubit {q} fidelity {f}");
        }
        // 2 qubits x 2 filters = 4 inputs; 2^2 outputs.
        assert_eq!(herq.extractor().feature_dim(), 4);
        assert_eq!(herq.mlp().output_len(), 4);
    }

    #[test]
    fn feature_dim_excludes_emf() {
        let mut c = ChipConfig::uniform(2);
        c.n_samples = 80;
        let ds = TraceDataset::generate(&c, 3, 15, 7);
        let split = ds.split(0.6, 0.0, 7);
        let herq = HerqulesBaseline::fit(&ds, &split, &HerqulesConfig::default());
        // 2 qubits x (3 QMF + 3 RMF) = 12 features, 9 joint classes.
        assert_eq!(herq.extractor().feature_dim(), 12);
        assert_eq!(herq.mlp().output_len(), 9);
        assert_eq!(herq.name(), "HERQULES");
    }
}
