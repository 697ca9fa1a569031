//! Autoencoder-assisted readout, after Luchi et al. (Phys. Rev. Applied
//! 20, 014045) — the "autoencoders" line of related work in Sec. I.
//!
//! Each qubit's demodulated, decimated trace is compressed by a dense
//! autoencoder trained unsupervised on reconstruction MSE; a small
//! classifier head then decides the level from the bottleneck code. The
//! point of the baseline: representation learning recovers some
//! trace-shape information an integrated-IQ discriminator throws away, but
//! at a parameter cost between the IQ methods and the raw-trace FNN, and
//! still per-qubit (no crosstalk correction) — exactly the gap the paper's
//! matched-filter features close at a fraction of the size.

use crate::plan::{
    self, AffineOp, Branch, CompiledPlan, DenseOp, MfBankOp, Op, OpGraph, OutputStage,
};
use crate::Discriminator;
use mlr_dsp::{boxcar_decimate, iq_features, Demodulator};
use mlr_nn::{Mlp, RegressionData, Standardizer, TrainConfig, TrainData};
use mlr_num::Complex;
use mlr_sim::{DatasetSplit, TraceDataset};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

/// Hyper-parameters of [`AutoencoderBaseline::fit`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AutoencoderConfig {
    /// ADC samples averaged into one decimated sample before encoding.
    /// 25 samples (50 ns at 500 MS/s) keeps 20 complex points (40 real
    /// features) of a 500-sample trace; wide windows matter because each
    /// feature's SNR grows with the samples integrated into it.
    pub decimation: usize,
    /// Width of the bottleneck code the classifier heads read.
    pub bottleneck: usize,
    /// Hidden width of encoder and decoder (one hidden layer each side).
    pub hidden: usize,
    /// Reconstruction (MSE) training hyper-parameters.
    pub ae_train: TrainConfig,
    /// Classifier-head training hyper-parameters.
    pub head_train: TrainConfig,
    /// Cap on inverse-frequency class weights for the heads (leaked traces
    /// are rare under natural-leakage datasets).
    pub class_weight_cap: f32,
}

impl Default for AutoencoderConfig {
    fn default() -> Self {
        Self {
            decimation: 25,
            bottleneck: 12,
            hidden: 32,
            // Small validation splits make early *stopping* erratic for the
            // reconstruction stage; fixed epochs with best-epoch restore is
            // stabler. The same holds for the heads.
            ae_train: TrainConfig {
                epochs: 120,
                batch_size: 64,
                learning_rate: 1e-3,
                early_stop_patience: None,
                ..TrainConfig::default()
            },
            head_train: TrainConfig {
                epochs: 80,
                batch_size: 64,
                learning_rate: 2e-3,
                early_stop_patience: None,
                ..TrainConfig::default()
            },
            class_weight_cap: 100.0,
        }
    }
}

/// One qubit's autoencoder + classifier-head stack.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct QubitAe {
    standardizer: Standardizer,
    autoencoder: Mlp,
    head: Mlp,
}

impl QubitAe {
    /// Index of the bottleneck within [`Mlp::layer_outputs`] for the
    /// `[D, hidden, bottleneck, hidden, D]` topology: input is entry 0, so
    /// the bottleneck activation is entry 2.
    const BOTTLENECK_LAYER: usize = 2;

    fn encode(&self, features: &[f64]) -> Vec<f32> {
        let x = self.standardizer.transform_f32(features);
        self.autoencoder.layer_outputs(&x)[Self::BOTTLENECK_LAYER].clone()
    }

    fn predict(&self, features: &[f64]) -> usize {
        self.head.predict(&self.encode(features))
    }
}

/// Per-qubit autoencoder baseline implementing [`Discriminator`].
///
/// # Examples
///
/// ```no_run
/// use mlr_core::{AutoencoderBaseline, AutoencoderConfig};
/// use mlr_core::evaluate;
/// use mlr_sim::{ChipConfig, TraceDataset};
///
/// let config = ChipConfig::five_qubit_paper();
/// let dataset = TraceDataset::generate(&config, 3, 40, 7);
/// let split = dataset.split(0.5, 0.1, 7);
/// let ae = AutoencoderBaseline::fit(&dataset, &split, &AutoencoderConfig::default());
/// let report = evaluate(&ae, &dataset, &split.test);
/// println!("AE F5Q = {:.4}", report.geometric_mean_fidelity());
/// ```
#[derive(Debug, Clone)]
pub struct AutoencoderBaseline {
    demod: Demodulator,
    models: Vec<QubitAe>,
    decimation: usize,
    /// Fused single-pass plan — derived data, rebuilt by every
    /// constructor, never serialised. Demodulate + boxcar-decimate is
    /// linear in the raw trace, so each decimated IQ feature becomes one
    /// kernel row; the per-qubit encoder + head chains ride as dense
    /// branches over `take` slices of the concatenated feature bank.
    plan: CompiledPlan,
}

/// Builds the autoencoder op graph.
///
/// Each qubit's feature vector is `iq_features(boxcar_decimate(demod, dec))`
/// — `m = ⌈n/dec⌉` complex points laid out I-block-then-Q-block (width
/// `D = 2m`). Both maps are linear, so feature `I_j` (the mean of chunk
/// `j`'s demodulated real parts) is a dot against the interleaved raw
/// trace:
///
/// ```text
/// I_j: row[2t] =  ref.re[t]/L_j,  row[2t+1] = −ref.im[t]/L_j   (t ∈ chunk j)
/// Q_j: row[2t] =  ref.im[t]/L_j,  row[2t+1] =  ref.re[t]/L_j
/// ```
///
/// with `L_j` the chunk's actual length (the trailing chunk may be
/// partial, matching `boxcar_decimate`). The bank concatenates every
/// qubit's `D` rows; the trunk affine concatenates the per-qubit
/// standardizers, which the forward fold then absorbs into each branch's
/// first encoder layer through its `take` slice.
fn ae_graph(demod: &Demodulator, models: &[QubitAe], decimation: usize) -> OpGraph {
    let n = demod.n_samples();
    let m = n.div_ceil(decimation);
    let width = 2 * m;
    let mut rows = Vec::with_capacity(models.len() * width);
    let mut scale = Vec::with_capacity(models.len() * width);
    let mut shift = Vec::with_capacity(models.len() * width);
    let mut branches = Vec::with_capacity(models.len());
    for (q, model) in models.iter().enumerate() {
        let refs = demod.reference(q);
        // I-feature rows then Q-feature rows — iq_features' block layout.
        for im_part in [false, true] {
            for j in 0..m {
                let chunk = j * decimation..((j + 1) * decimation).min(n);
                let len = chunk.len() as f64;
                let mut row = vec![0.0f64; 2 * n];
                for t in chunk {
                    let r = refs[t];
                    if im_part {
                        row[2 * t] = r.im / len;
                        row[2 * t + 1] = r.re / len;
                    } else {
                        row[2 * t] = r.re / len;
                        row[2 * t + 1] = -r.im / len;
                    }
                }
                rows.push(row);
            }
        }
        let std = &model.standardizer;
        scale.extend(std.stds().iter().map(|&s| 1.0 / s));
        shift.extend(std.means().iter().zip(std.stds()).map(|(&mu, &s)| -mu / s));
        // Encoder half of the autoencoder (layers 0..=1, ending at the
        // bottleneck activation), then the classifier head.
        let mut layers = vec![
            DenseOp::from_mlp_layer(&model.autoencoder, 0),
            DenseOp::from_mlp_layer(&model.autoencoder, 1),
        ];
        layers.extend(DenseOp::chain_from_mlp(&model.head));
        branches.push(Branch {
            take: Some(q * width..(q + 1) * width),
            layers,
        });
    }
    let bias = vec![0.0; rows.len()];
    OpGraph {
        trunk: vec![
            Op::FlattenIq { n_samples: n },
            Op::MfBank(MfBankOp {
                rows,
                bias,
                relu: false,
            }),
            Op::Affine(AffineOp { scale, shift }),
        ],
        output: OutputStage::PerQubit { branches },
    }
}

impl AutoencoderBaseline {
    /// Fits one autoencoder + head per qubit from the training split; the
    /// validation split (if nonempty) drives early stopping of both stages.
    ///
    /// # Panics
    ///
    /// Panics if the training split is empty or indexes out of range, or if
    /// decimation leaves no samples.
    pub fn fit(dataset: &TraceDataset, split: &DatasetSplit, config: &AutoencoderConfig) -> Self {
        assert!(!split.train.is_empty(), "empty training split");
        assert!(config.decimation > 0, "decimation must be positive");
        let chip = dataset.config();
        assert!(
            chip.n_samples >= config.decimation,
            "decimation leaves no samples"
        );
        let demod = Demodulator::new(chip);
        let levels = dataset.levels();

        let features_of = |q: usize, indices: &[usize]| -> Vec<Vec<f64>> {
            indices
                .par_iter()
                .map(|&i| {
                    iq_features(&boxcar_decimate(
                        &demod.demodulate(dataset.raw(i), q),
                        config.decimation,
                    ))
                })
                .collect()
        };

        let models = (0..chip.n_qubits())
            .map(|q| {
                let train_raw = features_of(q, &split.train);
                let standardizer = Standardizer::fit(&train_raw).expect("nonempty training batch");
                let to_f32 = |rows: &[Vec<f64>]| -> Vec<Vec<f32>> {
                    rows.iter().map(|r| standardizer.transform_f32(r)).collect()
                };
                let train_x = to_f32(&train_raw);
                let val_x = if split.val.is_empty() {
                    None
                } else {
                    Some(to_f32(&features_of(q, &split.val)))
                };

                // Stage 1: unsupervised reconstruction.
                let d = train_x[0].len();
                let sizes = [d, config.hidden, config.bottleneck, config.hidden, d];
                let mut autoencoder = Mlp::new(&sizes, config.ae_train.seed.wrapping_add(q as u64));
                let ae_data = RegressionData::identity(train_x.clone()).expect("validated batch");
                let ae_val = val_x
                    .as_ref()
                    .map(|vx| RegressionData::identity(vx.clone()).expect("validated batch"));
                autoencoder.train_regression(&ae_data, ae_val.as_ref(), &config.ae_train);

                // Stage 2: supervised head on the bottleneck code.
                let stack = QubitAe {
                    standardizer,
                    autoencoder,
                    head: Mlp::new(&[config.bottleneck, 16, levels], 0),
                };
                let encode_rows = |rows: &[Vec<f32>]| -> Vec<Vec<f32>> {
                    rows.iter()
                        .map(|r| {
                            stack.autoencoder.layer_outputs(r)[QubitAe::BOTTLENECK_LAYER].clone()
                        })
                        .collect()
                };
                let codes = encode_rows(&train_x);
                let labels: Vec<usize> = split.train.iter().map(|&i| dataset.label(i, q)).collect();
                let data = TrainData::new(codes, labels, levels).expect("validated codes");
                let val_data = val_x.as_ref().map(|vx| {
                    let vcodes = encode_rows(vx);
                    let vlabels: Vec<usize> =
                        split.val.iter().map(|&i| dataset.label(i, q)).collect();
                    TrainData::new(vcodes, vlabels, levels).expect("validated codes")
                });
                let mut head = Mlp::new(
                    &[config.bottleneck, 16, levels],
                    config.head_train.seed.wrapping_add(100 + q as u64),
                );
                let mut head_cfg = config.head_train.clone();
                head_cfg.seed = config.head_train.seed.wrapping_add(500 + q as u64);
                if head_cfg.class_weights.is_none() {
                    head_cfg.class_weights = Some(mlr_nn::inverse_frequency_weights(
                        data.labels(),
                        levels,
                        config.class_weight_cap,
                    ));
                }
                head.train(&data, val_data.as_ref(), &head_cfg);

                QubitAe { head, ..stack }
            })
            .collect::<Vec<QubitAe>>();

        Self::from_parts(demod, models, config.decimation)
    }

    /// Assembles the model; its plan is compiled from [`Self::graph`]'s graph.
    fn from_parts(demod: Demodulator, models: Vec<QubitAe>, decimation: usize) -> Self {
        let plan = plan::compile(ae_graph(&demod, &models, decimation));
        Self {
            demod,
            models,
            decimation,
            plan,
        }
    }

    /// The unfused op graph the plan is compiled from: the reference
    /// [`plan::eval`] interprets.
    pub(crate) fn graph(&self) -> OpGraph {
        ae_graph(&self.demod, &self.models, self.decimation)
    }

    /// Borrows the compiled single-pass inference plan.
    pub fn plan(&self) -> &CompiledPlan {
        &self.plan
    }

    /// The fit-time pipeline per stage — demodulate, decimate, standardise,
    /// encode, classify — that the model's unfused op graph is
    /// pinned against.
    pub fn predict_shot_layered(&self, raw: &[Complex]) -> Vec<usize> {
        self.models
            .iter()
            .enumerate()
            .map(|(q, model)| {
                let f = iq_features(&boxcar_decimate(
                    &self.demod.demodulate(raw, q),
                    self.decimation,
                ));
                model.predict(&f)
            })
            .collect()
    }

    /// Decimation window in ADC samples.
    pub fn decimation(&self) -> usize {
        self.decimation
    }

    /// Mean reconstruction MSE of qubit `q`'s autoencoder over the dataset
    /// shots selected by `indices` — a diagnostic for how much trace
    /// structure the bottleneck retains.
    ///
    /// # Panics
    ///
    /// Panics if `q` or any index is out of range.
    pub fn reconstruction_mse(&self, dataset: &TraceDataset, q: usize, indices: &[usize]) -> f64 {
        let model = &self.models[q];
        let rows: Vec<Vec<f32>> = indices
            .iter()
            .map(|&i| {
                let f = iq_features(&boxcar_decimate(
                    &self.demod.demodulate(dataset.raw(i), q),
                    self.decimation,
                ));
                model.standardizer.transform_f32(&f)
            })
            .collect();
        let data = RegressionData::identity(rows).expect("nonempty indices");
        model.autoencoder.mse(&data)
    }
}

impl Discriminator for AutoencoderBaseline {
    /// Served by the fused plan: one pass over the raw trace scoring every
    /// qubit's decimated-feature rows, standardizer folded into the
    /// encoders, argmax fused into each head's final layer.
    fn predict_shot(&self, raw: &[Complex]) -> Vec<usize> {
        self.plan.predict_shot(raw)
    }

    /// Fused batch path: 16-shot tiles over the compiled plan.
    fn predict_batch(&self, shots: &[&[Complex]]) -> Vec<Vec<usize>> {
        self.plan.predict_batch(shots)
    }

    fn name(&self) -> &str {
        "AE"
    }

    fn n_qubits(&self) -> usize {
        self.models.len()
    }

    fn weight_count(&self) -> usize {
        self.models
            .iter()
            .map(|m| m.autoencoder.weight_count() + m.head.weight_count())
            .sum()
    }
}

/// The serialisable body of a fitted [`AutoencoderBaseline`] inside the
/// registry's `SavedModel` v2 envelope; the demodulator is rebuilt from
/// the envelope's chip on load.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct SavedAutoencoder {
    models: Vec<QubitAe>,
    decimation: usize,
}

impl AutoencoderBaseline {
    pub(crate) fn to_saved(&self) -> SavedAutoencoder {
        SavedAutoencoder {
            models: self.models.clone(),
            decimation: self.decimation,
        }
    }

    pub(crate) fn from_saved(
        saved: SavedAutoencoder,
        chip: mlr_sim::ChipConfig,
    ) -> Result<Self, crate::ModelIoError> {
        if saved.models.len() != chip.n_qubits() {
            return Err(crate::ModelIoError::Invalid(format!(
                "{} autoencoder stacks for {} qubits",
                saved.models.len(),
                chip.n_qubits()
            )));
        }
        if saved.decimation == 0 || saved.decimation > chip.n_samples {
            return Err(crate::ModelIoError::Invalid(format!(
                "autoencoder decimation {} outside the {}-sample trace",
                saved.decimation, chip.n_samples
            )));
        }
        Ok(Self::from_parts(
            Demodulator::new(&chip),
            saved.models,
            saved.decimation,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluate;
    use mlr_sim::ChipConfig;

    fn dataset() -> (TraceDataset, DatasetSplit) {
        let mut c = ChipConfig::uniform(2);
        c.n_samples = 200;
        let ds = TraceDataset::generate(&c, 3, 30, 29);
        let split = ds.split(0.5, 0.1, 29);
        (ds, split)
    }

    fn quick_config() -> AutoencoderConfig {
        AutoencoderConfig::default()
    }

    #[test]
    fn discriminates_three_levels() {
        let (ds, split) = dataset();
        let ae = AutoencoderBaseline::fit(&ds, &split, &quick_config());
        let report = evaluate(&ae, &ds, &split.test);
        for (q, f) in report.per_qubit_fidelity.iter().enumerate() {
            assert!(*f > 0.7, "qubit {q} fidelity {f}");
        }
        assert_eq!(report.design, "AE");
    }

    #[test]
    fn bottleneck_reconstructs_better_than_nothing() {
        let (ds, split) = dataset();
        let ae = AutoencoderBaseline::fit(&ds, &split, &quick_config());
        // Standardised features have unit variance; predicting the mean
        // (all zeros) would give MSE ~1. The bottleneck must beat that.
        let mse = ae.reconstruction_mse(&ds, 0, &split.test);
        assert!(mse < 0.9, "reconstruction mse {mse}");
    }

    #[test]
    fn weight_count_sits_between_iq_methods_and_fnn() {
        let (ds, split) = dataset();
        let ae = AutoencoderBaseline::fit(&ds, &split, &quick_config());
        let w = ae.weight_count();
        assert!(w > 0);
        // Far below the 686k-weight FNN even summed over qubits.
        assert!(w < 100_000, "autoencoder stack weights {w}");
    }

    #[test]
    fn decimation_accessor() {
        let (ds, split) = dataset();
        let ae = AutoencoderBaseline::fit(&ds, &split, &quick_config());
        assert_eq!(ae.decimation(), 25);
    }

    #[test]
    fn graph_matches_the_fit_time_pipeline() {
        // The graph's decimation rows and `take` slices must give what each
        // stack computes on its demodulated, decimated features.
        let (ds, split) = dataset();
        let ae = AutoencoderBaseline::fit(&ds, &split, &quick_config());
        let graph = ae.graph();
        let shots: Vec<&[Complex]> = split.test.iter().map(|&i| ds.raw(i)).collect();
        for (&i, raw) in split.test.iter().zip(&shots) {
            let got = plan::eval(&graph, raw);
            assert_eq!(got.levels, ae.predict_shot_layered(raw), "shot {i}");
            for (q, (logits, model)) in got.logits.iter().zip(&ae.models).enumerate() {
                let f = iq_features(&boxcar_decimate(
                    &ae.demod.demodulate(raw, q),
                    ae.decimation,
                ));
                plan::assert_logits_close(
                    logits,
                    &model.head.forward(&model.encode(&f)),
                    &format!("shot {i}, qubit {q}"),
                );
            }
        }
        let layered: Vec<Vec<usize>> = shots
            .iter()
            .map(|raw| ae.predict_shot_layered(raw))
            .collect();
        assert_eq!(ae.predict_batch(&shots), layered);
        // One kernel row per (qubit, decimated IQ feature): 2 qubits ×
        // 2 × ⌈200/25⌉ = 32 rows, and the standardizer folded forward into
        // the encoder first layers.
        assert_eq!(ae.plan().n_kernel_rows(), 32);
        assert!(ae.plan().fuse_report().affine_into_dense);
    }

    #[test]
    #[should_panic(expected = "empty training split")]
    fn rejects_empty_split() {
        let (ds, _) = dataset();
        let empty = DatasetSplit::default();
        let _ = AutoencoderBaseline::fit(&ds, &empty, &AutoencoderConfig::default());
    }
}
