//! The proposed discriminator: matched-filter bank + per-qubit modular
//! lightweight neural networks (Fig. 4).

use mlr_dsp::MatchedFilterKind;
use mlr_nn::{Mlp, Standardizer, TrainConfig, TrainData};
use mlr_num::Complex;
use mlr_sim::{DatasetSplit, TraceDataset};
use serde::{DeError, Deserialize, JsonValue, Serialize};

use crate::{Discriminator, FeatureExtractor};

/// Configuration of [`OursDiscriminator::fit`].
#[derive(Debug, Clone, PartialEq)]
pub struct OursConfig {
    /// Matched-filter kernel normalisation.
    pub mf_kind: MatchedFilterKind,
    /// Neural-network training hyper-parameters (shared by every per-qubit
    /// head; the head seed is offset per qubit).
    pub train: TrainConfig,
    /// Include excitation matched filters (the paper's full design). The
    /// ablation benches switch this off to quantify the EMF contribution.
    pub include_emf: bool,
    /// Cap on the inverse-frequency class weights used by the per-qubit
    /// heads. Natural leakage can be a <1 % class, so a generous cap is
    /// needed for the `|2⟩` boundary to be learned at all.
    pub class_weight_cap: f32,
    /// Spectral-neighbourhood radius of the joint crosstalk-aware matched
    /// filters: each qubit's kernels fold in the reference phasors of its
    /// `joint_neighbors` nearest tones on each side, weighted by the chip's
    /// crosstalk matrix, cancelling spectral bleed to first order. `0`
    /// (the default) is the classic per-qubit bank, bit-identical to the
    /// pre-joint pipeline.
    pub joint_neighbors: usize,
}

impl Default for OursConfig {
    fn default() -> Self {
        Self {
            mf_kind: MatchedFilterKind::default(),
            train: TrainConfig {
                epochs: 60,
                batch_size: 64,
                learning_rate: 2e-3,
                early_stop_patience: Some(10),
                ..TrainConfig::default()
            },
            include_emf: true,
            class_weight_cap: 100.0,
            joint_neighbors: 0,
        }
    }
}

impl Serialize for OursConfig {
    /// `joint_neighbors` is omitted when 0 (its default), so the canonical
    /// JSON of every pre-joint config — and therefore every spec
    /// fingerprint and saved v2 envelope — is unchanged by the field's
    /// existence.
    fn to_json_value(&self) -> JsonValue {
        let mut entries = vec![
            ("mf_kind".to_owned(), self.mf_kind.to_json_value()),
            ("train".to_owned(), self.train.to_json_value()),
            ("include_emf".to_owned(), self.include_emf.to_json_value()),
            (
                "class_weight_cap".to_owned(),
                self.class_weight_cap.to_json_value(),
            ),
        ];
        if self.joint_neighbors != 0 {
            entries.push((
                "joint_neighbors".to_owned(),
                self.joint_neighbors.to_json_value(),
            ));
        }
        JsonValue::Object(entries)
    }
}

impl Deserialize for OursConfig {
    /// A missing `joint_neighbors` key reads as 0, so configs written
    /// before the joint-kernel extension load unchanged.
    fn from_json_value(value: &JsonValue) -> Result<Self, DeError> {
        let field = |name: &str| {
            value
                .get(name)
                .ok_or_else(|| DeError::new(format!("OursConfig missing field `{name}`")))
        };
        Ok(Self {
            mf_kind: MatchedFilterKind::from_json_value(field("mf_kind")?)?,
            train: TrainConfig::from_json_value(field("train")?)?,
            include_emf: bool::from_json_value(field("include_emf")?)?,
            class_weight_cap: f32::from_json_value(field("class_weight_cap")?)?,
            joint_neighbors: match value.get("joint_neighbors") {
                Some(v) => usize::from_json_value(v)?,
                None => 0,
            },
        })
    }
}

/// The paper's discriminator: one [`FeatureExtractor`] (matched-filter
/// banks over all qubits) feeding one lightweight 3-way MLP per qubit.
///
/// Heads follow the paper's topology `[P, ⌊P/2⌋, ⌊P/4⌋, k]` with
/// `P = 9 × n_qubits` (45 → 22 → 11 → 3 on the five-qubit chip), for
/// ≈1.3 k weights per qubit — the ~100× reduction vs. the FNN baseline.
///
/// # Examples
///
/// See the crate-level example.
#[derive(Debug, Clone)]
pub struct OursDiscriminator {
    pub(crate) extractor: FeatureExtractor,
    pub(crate) standardizer: Standardizer,
    pub(crate) heads: Vec<Mlp>,
    pub(crate) levels: usize,
    /// Fused single-pass inference plan — derived data, compiled by every
    /// constructor from the fitted parts, never serialised.
    pub(crate) plan: crate::CompiledPlan,
}

impl OursDiscriminator {
    /// Fits matched-filter banks on the training split, then trains one
    /// per-qubit head on the merged scores (validation split drives early
    /// stopping).
    ///
    /// # Panics
    ///
    /// Panics if the training split is missing a level for some qubit
    /// (banks would be underdetermined), or splits index out of range.
    pub fn fit(dataset: &TraceDataset, split: &DatasetSplit, config: &OursConfig) -> Self {
        let extractor = FeatureExtractor::fit_joint(
            dataset,
            &split.train,
            config.include_emf,
            config.mf_kind,
            config.joint_neighbors,
        )
        .expect("every qubit needs every level in the training split");

        let raw_train_x = extractor.extract_batch(dataset, &split.train);
        let standardizer = Standardizer::fit(&raw_train_x).expect("nonempty training batch");
        let train_x = standardizer.transform_batch(&raw_train_x);
        let val_x = if split.val.is_empty() {
            None
        } else {
            Some(standardizer.transform_batch(&extractor.extract_batch(dataset, &split.val)))
        };

        let levels = dataset.levels();
        let p = extractor.feature_dim();
        let sizes = [p, (p / 2).max(levels), (p / 4).max(levels), levels];

        let heads: Vec<Mlp> = (0..dataset.config().n_qubits())
            .map(|q| {
                let labels: Vec<usize> = split.train.iter().map(|&i| dataset.label(i, q)).collect();
                let data =
                    TrainData::from_f64(&train_x, labels, levels).expect("validated feature batch");
                let val_data = val_x.as_ref().map(|vx| {
                    let vlabels: Vec<usize> =
                        split.val.iter().map(|&i| dataset.label(i, q)).collect();
                    TrainData::from_f64(vx, vlabels, levels).expect("validated val batch")
                });
                let mut head = Mlp::new(&sizes, config.train.seed.wrapping_add(q as u64));
                let mut train_cfg = config.train.clone();
                train_cfg.seed = config.train.seed.wrapping_add(1000 + q as u64);
                // Natural-leakage datasets are heavily imbalanced (leaked
                // traces are rare); weight classes inversely to frequency so
                // the |2> decision boundary is still learned.
                if train_cfg.class_weights.is_none() {
                    train_cfg.class_weights = Some(mlr_nn::inverse_frequency_weights(
                        data.labels(),
                        levels,
                        config.class_weight_cap,
                    ));
                }
                head.train(&data, val_data.as_ref(), &train_cfg);
                head
            })
            .collect();

        Self::from_parts(extractor, standardizer, heads, levels)
    }

    /// Assembles the model; its plan is compiled from [`Self::graph`]'s graph.
    pub(crate) fn from_parts(
        extractor: FeatureExtractor,
        standardizer: Standardizer,
        heads: Vec<Mlp>,
        levels: usize,
    ) -> Self {
        let plan = crate::plan::compile(crate::plan::per_qubit_graph(
            &extractor,
            extractor.window_samples(),
            &standardizer,
            &heads,
        ));
        Self {
            extractor,
            standardizer,
            heads,
            levels,
            plan,
        }
    }

    /// The unfused op graph the plan is compiled from: the reference
    /// [`crate::plan::eval`] interprets.
    pub(crate) fn graph(&self) -> crate::plan::OpGraph {
        crate::plan::per_qubit_graph(
            &self.extractor,
            self.extractor.window_samples(),
            &self.standardizer,
            &self.heads,
        )
    }

    /// Borrows the fitted feature extractor (matched-filter banks).
    pub fn extractor(&self) -> &FeatureExtractor {
        &self.extractor
    }

    /// Borrows the compiled single-pass inference plan every
    /// [`Discriminator::predict_shot`] / [`Discriminator::predict_batch`]
    /// call runs through.
    pub fn plan(&self) -> &crate::CompiledPlan {
        &self.plan
    }

    /// Borrows qubit `q`'s classification head.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    pub fn head(&self, q: usize) -> &Mlp {
        &self.heads[q]
    }

    /// Level-alphabet size (3 for the paper's design).
    pub fn levels(&self) -> usize {
        self.levels
    }

    /// Classifies a pre-extracted (raw, unstandardised) merged feature
    /// vector.
    ///
    /// # Panics
    ///
    /// Panics if `features.len()` differs from the extractor's dimension.
    pub fn predict_features(&self, features: &[f64]) -> Vec<usize> {
        let x = self.standardizer.transform_f32(features);
        self.heads.iter().map(|h| h.predict(&x)).collect()
    }

    /// Classifies a batch of pre-extracted feature vectors: standardise
    /// once ([`Standardizer::transform_batch_f32`]), then run each head
    /// over the whole batch so its weights stay cache-resident. Decisions
    /// are identical to mapping [`OursDiscriminator::predict_features`].
    ///
    /// # Panics
    ///
    /// Panics if any row's length differs from the extractor's dimension.
    pub fn predict_features_batch(&self, features: &[Vec<f64>]) -> Vec<Vec<usize>> {
        let xs = self.standardizer.transform_batch_f32(features);
        let per_head: Vec<Vec<usize>> = self.heads.iter().map(|h| h.predict_batch(&xs)).collect();
        crate::batch::transpose_decisions(&per_head, xs.len())
    }

    /// The probability qubit `q`'s head assigns to the leaked state
    /// (softmax mass on the highest level) for a pre-extracted raw feature
    /// vector.
    ///
    /// This is the scalar a leakage-flagging stage thresholds; its ROC
    /// against ground truth ([`mlr_nn::roc_curve`] / [`mlr_nn::auc`]) is
    /// how a control system picks the flag threshold that trades missed
    /// leakage against spurious LRC resets.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range or `features.len()` differs from the
    /// extractor's dimension.
    pub fn leak_probability(&self, features: &[f64], q: usize) -> f64 {
        let x = self.standardizer.transform_f32(features);
        let probs = self.heads[q].predict_proba(&x);
        *probs.last().expect("nonempty level alphabet") as f64
    }

    /// Classifies with every head quantised to `format` — estimates the
    /// accuracy cost of the fixed-point deployment assumed by the FPGA
    /// resource model.
    ///
    /// # Panics
    ///
    /// Panics if `features.len()` differs from the extractor's dimension.
    pub fn predict_features_quantized(
        &self,
        features: &[f64],
        format: mlr_nn::FixedPointFormat,
    ) -> Vec<usize> {
        let x = self.standardizer.transform_f32(features);
        self.heads
            .iter()
            .map(|h| mlr_nn::QuantizedMlp::from_mlp(h, format).predict(&x))
            .collect()
    }

    /// Batched quantised classification: quantises every head **once**,
    /// then classifies all rows — unlike the per-shot
    /// [`OursDiscriminator::predict_features_quantized`], which rebuilds
    /// the quantised heads on every call. Decisions are identical, because
    /// quantisation is deterministic in the weights and format.
    ///
    /// # Panics
    ///
    /// Panics if any row's length differs from the extractor's dimension.
    pub fn predict_features_quantized_batch(
        &self,
        features: &[Vec<f64>],
        format: mlr_nn::FixedPointFormat,
    ) -> Vec<Vec<usize>> {
        let quantized: Vec<mlr_nn::QuantizedMlp> = self
            .heads
            .iter()
            .map(|h| mlr_nn::QuantizedMlp::from_mlp(h, format))
            .collect();
        let xs = self.standardizer.transform_batch_f32(features);
        let per_head: Vec<Vec<usize>> = quantized
            .iter()
            .map(|h| xs.iter().map(|x| h.predict(x)).collect())
            .collect();
        crate::batch::transpose_decisions(&per_head, xs.len())
    }
}

impl Discriminator for OursDiscriminator {
    /// Single-shot inference through the compiled single-pass plan: the
    /// standardizer is folded into the first head layers at compile time,
    /// so the whole shot is kernel dots plus the (tiny) head chains —
    /// identical arithmetic to one shot of the batch path, hence
    /// bit-identical decisions. The unfused graph ([`crate::plan::eval`])
    /// is the reference it is checked against.
    fn predict_shot(&self, raw: &[Complex]) -> Vec<usize> {
        self.plan.predict_shot(raw)
    }

    /// Native batch inference through the compiled plan: demodulation-free
    /// tiled kernel scoring (rows read once per 16-shot tile) with the
    /// standardise step folded away, lowered to `f32` explicit-SIMD dots.
    /// Decisions match the unfused reference away from exact
    /// decision-boundary ties (scores agree to ≈1e-6 relative — `f32`
    /// rounding — far below any real margin).
    fn predict_batch(&self, shots: &[&[Complex]]) -> Vec<Vec<usize>> {
        self.plan.predict_batch(shots)
    }

    fn name(&self) -> &str {
        "OURS"
    }

    fn n_qubits(&self) -> usize {
        self.heads.len()
    }

    fn weight_count(&self) -> usize {
        self.heads.iter().map(Mlp::weight_count).sum()
    }
}

/// The serialisable body of a trained [`OursDiscriminator`] inside the
/// registry's `SavedModel` v2 envelope — the v1 schema minus the chip,
/// which travels in the envelope (see [`crate::SavedModel`] for the
/// legacy v1 file layout).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct SavedOurs {
    banks: Vec<crate::QubitMfBank>,
    standardizer: Standardizer,
    heads: Vec<Mlp>,
    levels: usize,
}

impl OursDiscriminator {
    pub(crate) fn to_saved(&self) -> SavedOurs {
        SavedOurs {
            banks: (0..self.extractor.n_qubits())
                .map(|q| self.extractor.bank(q).clone())
                .collect(),
            standardizer: self.standardizer.clone(),
            heads: self.heads.clone(),
            levels: self.levels,
        }
    }

    pub(crate) fn from_saved(
        saved: SavedOurs,
        chip: mlr_sim::ChipConfig,
        joint_neighbors: usize,
    ) -> Result<Self, crate::ModelIoError> {
        // Same invariants as the legacy v1 loader, shared via SavedModel;
        // the joint radius travels in the envelope's spec, not the payload.
        let legacy = crate::SavedModel {
            format_version: crate::SavedModel::CURRENT_VERSION,
            chip,
            levels: saved.levels,
            banks: saved.banks,
            standardizer: saved.standardizer,
            heads: saved.heads,
        };
        Self::from_legacy_joint(legacy, joint_neighbors)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluate;
    use mlr_sim::ChipConfig;

    /// Small but realistic fit: 3 levels, shortened traces, reduced shots.
    fn fit_small() -> (TraceDataset, DatasetSplit, OursDiscriminator) {
        let mut c = ChipConfig::five_qubit_paper();
        // Shortened but still past ring-up (tau = 100 ns -> 250 samples =
        // 500 ns of integration); the weak qubit needs the integration time.
        c.n_samples = 250;
        let ds = TraceDataset::generate(&c, 3, 12, 5);
        let split = ds.split(0.5, 0.1, 5);
        let config = OursConfig {
            train: TrainConfig {
                epochs: 25,
                ..OursConfig::default().train
            },
            ..OursConfig::default()
        };
        let ours = OursDiscriminator::fit(&ds, &split, &config);
        (ds, split, ours)
    }

    #[test]
    fn model_size_matches_paper_scaling() {
        let (_, _, ours) = fit_small();
        // 5 heads x [45, 22, 11, 3] = 5 x 1265 weights.
        assert_eq!(ours.weight_count(), 5 * 1_265);
        assert_eq!(ours.head(0).sizes(), &[45, 22, 11, 3]);
    }

    #[test]
    fn learns_to_discriminate_three_levels() {
        let (ds, split, ours) = fit_small();
        let report = evaluate(&ours, &ds, &split.test);
        // Even the reduced config should be far above the 1/3 chance level.
        // Qubit 1 mirrors the paper's hard-to-separate qubit 2, so its bar
        // is lower.
        for (q, f) in report.per_qubit_fidelity.iter().enumerate() {
            let floor = if q == 1 { 0.45 } else { 0.65 };
            assert!(*f > floor, "qubit {q} fidelity {f}");
        }
        assert_eq!(report.design, "OURS");
    }

    #[test]
    fn leak_probability_separates_leaked_shots() {
        let (ds, split, ours) = fit_small();
        // AUC of the |2> score on qubit 0 against ground truth: far above
        // chance on the test split.
        let mut scores = Vec::new();
        let mut labels = Vec::new();
        for &i in &split.test {
            let f = ours.extractor().extract(ds.raw(i));
            scores.push(ours.leak_probability(&f, 0));
            labels.push(ds.label(i, 0) == 2);
        }
        let auc = mlr_nn::auc(&scores, &labels);
        assert!(auc > 0.9, "leak-score AUC {auc}");
        // Probabilities are probabilities.
        assert!(scores.iter().all(|&p| (0.0..=1.0).contains(&p)));
    }

    #[test]
    fn predict_features_matches_predict_shot() {
        let (ds, _, ours) = fit_small();
        let raw = ds.raw(7);
        // predict_shot now routes through the compiled plan; the layered
        // reference paths must agree on the decision — the arithmetic
        // differs only by f32 rounding and reassociation, far below any
        // real decision margin.
        let via_reference = ours.predict_features(&ours.extractor().extract(raw));
        assert_eq!(via_reference, ours.predict_shot(raw));
        let via_fused = ours.predict_features(&ours.extractor().extract_fused(raw));
        assert_eq!(via_fused, ours.predict_shot(raw));
    }

    #[test]
    fn plan_folds_standardizer_into_heads() {
        let (ds, split, ours) = fit_small();
        let report = ours.plan().fuse_report();
        assert!(report.affine_into_dense, "affine should fold into heads");
        assert!(!report.affine_into_bank);
        // MLP heads are never collapsed into the bank (profitability guard:
        // 5 × 22 first-layer rows > 45 kernels).
        assert!(!report.heads_into_bank);
        assert_eq!(ours.plan().n_kernel_rows(), 45);
        // Plan decisions equal the unfused reference across a real batch.
        let shots: Vec<&[mlr_num::Complex]> = split.test[..30].iter().map(|&i| ds.raw(i)).collect();
        assert_eq!(
            ours.predict_batch(&shots),
            crate::plan::eval_batch(&ours.graph(), &shots)
        );
    }

    #[test]
    fn graph_matches_the_fit_time_pipeline() {
        // The reference graph computes what the heads were trained on.
        let (ds, split, ours) = fit_small();
        let graph = ours.graph();
        for &i in &split.test {
            let raw = ds.raw(i);
            let x = ours
                .standardizer
                .transform_f32(&ours.extractor.extract_fused(raw));
            let got = crate::plan::eval(&graph, raw);
            let levels: Vec<usize> = ours.heads.iter().map(|h| h.predict(&x)).collect();
            assert_eq!(got.levels, levels, "shot {i}");
            for (q, (logits, head)) in got.logits.iter().zip(&ours.heads).enumerate() {
                crate::plan::assert_logits_close(
                    logits,
                    &head.forward(&x),
                    &format!("shot {i}, qubit {q}"),
                );
            }
        }
    }

    #[test]
    fn batch_equals_per_shot_exactly() {
        let (ds, split, ours) = fit_small();
        let shots: Vec<&[mlr_num::Complex]> = split.test[..40].iter().map(|&i| ds.raw(i)).collect();
        let batch = ours.predict_batch(&shots);
        for (raw, decided) in shots.iter().zip(&batch) {
            assert_eq!(decided, &ours.predict_shot(raw));
        }
    }

    #[test]
    fn quantized_batch_matches_per_shot_quantisation() {
        let (ds, split, ours) = fit_small();
        let fmt = mlr_nn::FixedPointFormat::HLS4ML_DEFAULT;
        let features: Vec<Vec<f64>> = split.test[..20]
            .iter()
            .map(|&i| ours.extractor().extract_fused(ds.raw(i)))
            .collect();
        let batch = ours.predict_features_quantized_batch(&features, fmt);
        for (f, decided) in features.iter().zip(&batch) {
            assert_eq!(decided, &ours.predict_features_quantized(f, fmt));
        }
    }
}
