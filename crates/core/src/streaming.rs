//! Streaming readout with confidence-gated early termination.
//!
//! The paper shortens readout by a fixed 200 ns (Fig. 5(b)) because a fixed
//! window is what a simple deployment supports. The matched-filter
//! front-end, though, is a *running sum*: scores exist at every sample, so
//! a deployment can check intermediate decisions and stop integrating as
//! soon as it is confident — decayed and well-separated shots decide early,
//! only ambiguous ones pay for the full window. This module implements that
//! extension:
//!
//! * one set of full-length kernels feeds per-sample accumulators (exactly
//!   the FPGA datapath: the kernel memory is read at the sample index);
//! * at each configured checkpoint a per-checkpoint set of lightweight
//!   heads — trained on the *partial* scores of the same kernels — emits
//!   per-qubit softmax confidences;
//! * the shot terminates at the first checkpoint where every qubit's
//!   confidence clears a threshold (always at the last checkpoint).
//!
//! The result trades mean readout duration against accuracy with a single
//! knob, and the mean duration feeds the QEC cycle-time model of
//! `mlr-qec::timing` the same way the paper's fixed 200 ns saving does.

use mlr_dsp::StreamingDemodulator;
use mlr_nn::{Mlp, Standardizer, TrainData};
use mlr_num::Complex;
use mlr_sim::{DatasetSplit, TraceDataset};
use serde::{Deserialize, Serialize};

use crate::plan::{self, CompiledPlan, OpGraph};
use crate::{Discriminator, FeatureExtractor, OursConfig};

/// Configuration of [`StreamingReadout::fit`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StreamingConfig {
    /// Sample counts at which decisions may be taken, ascending. The last
    /// checkpoint is the full readout window and always decides. **An
    /// empty list means "quarters of the dataset's readout window"**,
    /// resolved at fit time — what [`StreamingConfig::default`] (and the
    /// registry's `OURS-STREAM` name) uses, so one spec fits chips with
    /// any window length.
    pub checkpoints: Vec<usize>,
    /// Per-qubit softmax confidence every qubit must clear to decide at a
    /// non-final checkpoint. Values `> 1` disable early termination.
    pub confidence: f64,
    /// Base discriminator configuration (matched-filter kind, EMF use,
    /// head training hyper-parameters) shared by every checkpoint.
    pub base: OursConfig,
}

impl StreamingConfig {
    /// Checkpoints at every quarter of an `n_samples` window with the
    /// paper-flavoured default confidence of 0.95.
    pub fn quarters(n_samples: usize) -> Self {
        Self {
            checkpoints: vec![n_samples / 4, n_samples / 2, 3 * n_samples / 4, n_samples],
            confidence: 0.95,
            base: OursConfig::default(),
        }
    }
}

impl Default for StreamingConfig {
    /// Window-relative quarter checkpoints (resolved against the dataset
    /// at fit time) with the paper-flavoured confidence of 0.95.
    fn default() -> Self {
        Self {
            checkpoints: Vec::new(),
            confidence: 0.95,
            base: OursConfig::default(),
        }
    }
}

/// One checkpoint's decision stage: a standardiser and per-qubit heads
/// trained on partial matched-filter scores at that sample count.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct Checkpoint {
    n_samples: usize,
    standardizer: Standardizer,
    heads: Vec<Mlp>,
}

impl Checkpoint {
    /// Per-qubit `(level, confidence)` decisions on a raw partial feature
    /// vector.
    fn decide(&self, features: &[f64]) -> Vec<(usize, f64)> {
        let x = self.standardizer.transform_f32(features);
        self.heads
            .iter()
            .map(|h| {
                let p = h.predict_proba(&x);
                let (level, conf) =
                    p.iter()
                        .enumerate()
                        .fold((0usize, f64::MIN), |acc, (i, &v)| {
                            if (v as f64) > acc.1 {
                                (i, v as f64)
                            } else {
                                acc
                            }
                        });
                (level, conf)
            })
            .collect()
    }
}

/// Outcome of one streamed shot.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamingDecision {
    /// Decided level per qubit.
    pub levels: Vec<usize>,
    /// Per-qubit softmax confidence at the deciding checkpoint.
    pub confidences: Vec<f64>,
    /// ADC samples consumed before the decision.
    pub samples_used: usize,
    /// Index into [`StreamingConfig::checkpoints`] that decided.
    pub checkpoint_index: usize,
}

/// The adaptive-duration readout pipeline.
///
/// # Examples
///
/// ```no_run
/// use mlr_core::{StreamingConfig, StreamingReadout};
/// use mlr_sim::{ChipConfig, TraceDataset};
///
/// let chip = ChipConfig::five_qubit_paper();
/// let dataset = TraceDataset::generate(&chip, 3, 50, 7);
/// let split = dataset.paper_split(7);
/// let readout = StreamingReadout::fit(&dataset, &split, &StreamingConfig::quarters(500));
/// let decision = readout.process_shot(dataset.raw(0));
/// println!("decided {:?} after {} samples", decision.levels, decision.samples_used);
/// ```
#[derive(Debug, Clone)]
pub struct StreamingReadout {
    extractor: FeatureExtractor,
    checkpoints: Vec<Checkpoint>,
    confidence: f64,
    n_qubits: usize,
    /// One fused prefix-windowed plan per checkpoint — the full-length
    /// kernel rows truncated to the checkpoint's sample prefix with its
    /// own standardizer re-folded over them. Derived data, rebuilt by
    /// every constructor, never serialised.
    plans: Vec<CompiledPlan>,
}

impl StreamingReadout {
    /// Fits the full-length matched-filter banks once, then one
    /// standardiser + head set per checkpoint on the partial scores of
    /// those banks.
    ///
    /// # Panics
    ///
    /// Panics if `config.checkpoints` is not strictly ascending or
    /// exceeds the readout window (an empty list is valid: it resolves to
    /// quarter-window checkpoints); if the training split is missing a
    /// level; or if splits index out of range.
    pub fn fit(dataset: &TraceDataset, split: &DatasetSplit, config: &StreamingConfig) -> Self {
        let chip = dataset.config();
        // An empty checkpoint list is window-relative: quarters of this
        // dataset's readout window.
        let resolved;
        let checkpoints: &[usize] = if config.checkpoints.is_empty() {
            resolved = StreamingConfig::quarters(chip.n_samples).checkpoints;
            &resolved
        } else {
            &config.checkpoints
        };
        assert!(
            checkpoints.windows(2).all(|w| w[0] < w[1]),
            "checkpoints must be strictly ascending"
        );
        assert!(
            *checkpoints.last().expect("nonempty") <= chip.n_samples,
            "checkpoint beyond the readout window"
        );

        let extractor = FeatureExtractor::fit_joint(
            dataset,
            &split.train,
            config.base.include_emf,
            config.base.mf_kind,
            config.base.joint_neighbors,
        )
        .expect("every qubit needs every level in the training split");

        let levels = dataset.levels();
        let n_qubits = chip.n_qubits();
        let p = extractor.feature_dim();
        let sizes = [p, (p / 2).max(levels), (p / 4).max(levels), levels];

        let checkpoints = checkpoints
            .iter()
            .enumerate()
            .map(|(ci, &n_samples)| {
                let raw_train = extractor.extract_prefix_batch(dataset, &split.train, n_samples);
                let standardizer = Standardizer::fit(&raw_train).expect("nonempty training batch");
                let train_x = standardizer.transform_batch(&raw_train);
                let val_x = if split.val.is_empty() {
                    None
                } else {
                    Some(standardizer.transform_batch(
                        &extractor.extract_prefix_batch(dataset, &split.val, n_samples),
                    ))
                };

                let heads: Vec<Mlp> = (0..n_qubits)
                    .map(|q| {
                        let labels: Vec<usize> =
                            split.train.iter().map(|&i| dataset.label(i, q)).collect();
                        let data = TrainData::from_f64(&train_x, labels, levels)
                            .expect("validated feature batch");
                        let val_data = val_x.as_ref().map(|vx| {
                            let vlabels: Vec<usize> =
                                split.val.iter().map(|&i| dataset.label(i, q)).collect();
                            TrainData::from_f64(vx, vlabels, levels).expect("validated val batch")
                        });
                        let seed_base = config.base.train.seed;
                        let mut head =
                            Mlp::new(&sizes, seed_base.wrapping_add((ci * 100 + q) as u64));
                        let mut train_cfg = config.base.train.clone();
                        train_cfg.seed = seed_base.wrapping_add((10_000 + ci * 100 + q) as u64);
                        if train_cfg.class_weights.is_none() {
                            train_cfg.class_weights = Some(mlr_nn::inverse_frequency_weights(
                                data.labels(),
                                levels,
                                config.base.class_weight_cap,
                            ));
                        }
                        head.train(&data, val_data.as_ref(), &train_cfg);
                        head
                    })
                    .collect();

                Checkpoint {
                    n_samples,
                    standardizer,
                    heads,
                }
            })
            .collect::<Vec<Checkpoint>>();

        Self {
            extractor,
            checkpoints,
            confidence: config.confidence,
            n_qubits,
            plans: Vec::new(),
        }
        .with_plans()
    }

    /// Compiles every checkpoint's plan from [`Self::graphs`] — the one
    /// place the fit and load paths build them.
    fn with_plans(mut self) -> Self {
        self.plans = self.graphs().into_iter().map(plan::compile).collect();
        self
    }

    /// Configured checkpoint sample counts, ascending.
    pub fn checkpoint_samples(&self) -> Vec<usize> {
        self.checkpoints.iter().map(|c| c.n_samples).collect()
    }

    /// The confidence threshold gating early termination.
    pub fn confidence(&self) -> f64 {
        self.confidence
    }

    /// Begins a sample-at-a-time session for one shot.
    pub fn begin_shot(&self) -> ShotStream<'_> {
        ShotStream::new(self)
    }

    /// Processes a captured trace through the fused per-checkpoint plans,
    /// returning the (possibly early) decision: each checkpoint's verdict
    /// is one single-pass prefix-windowed plan evaluation, and later
    /// checkpoints are never touched once a confident decision lands.
    ///
    /// Decisions match [`StreamingReadout::process_shot_layered`] (the
    /// sample-at-a-time reference) up to `f32`-vs-`f64` rounding of the
    /// softmax confidences; labels agree away from exact ties.
    ///
    /// # Panics
    ///
    /// Panics if the trace is shorter than the last checkpoint.
    pub fn process_shot(&self, raw: &[Complex]) -> StreamingDecision {
        let last = self.checkpoints.last().expect("nonempty").n_samples;
        assert!(raw.len() >= last, "trace shorter than the readout window");
        for (ci, (cp, cp_plan)) in self.checkpoints.iter().zip(&self.plans).enumerate() {
            let final_cp = ci + 1 == self.checkpoints.len();
            let per_qubit = cp_plan.predict_shot_proba(&raw[..cp.n_samples]);
            let confident = per_qubit.iter().all(|&(_, c)| c >= self.confidence);
            if confident || final_cp {
                return StreamingDecision {
                    levels: per_qubit.iter().map(|&(l, _)| l).collect(),
                    confidences: per_qubit.iter().map(|&(_, c)| c).collect(),
                    samples_used: cp.n_samples,
                    checkpoint_index: ci,
                };
            }
        }
        unreachable!("the final checkpoint always decides");
    }

    /// Streams a captured trace sample-at-a-time through the accumulator
    /// datapath ([`StreamingReadout::begin_shot`]) — the reference the
    /// fused [`StreamingReadout::process_shot`] (early exit included) is
    /// checked against, and the exact arithmetic an FPGA's running-sum
    /// deployment performs.
    ///
    /// # Panics
    ///
    /// Panics if the trace is shorter than the last checkpoint.
    pub fn process_shot_layered(&self, raw: &[Complex]) -> StreamingDecision {
        let last = self.checkpoints.last().expect("nonempty").n_samples;
        assert!(raw.len() >= last, "trace shorter than the readout window");
        let mut stream = self.begin_shot();
        for &z in &raw[..last] {
            if let Some(decision) = stream.push(z) {
                return decision;
            }
        }
        unreachable!("the final checkpoint always decides");
    }

    /// Streams a batch of captured traces, fanning shots out over the
    /// machine's cores; decisions match mapping
    /// [`StreamingReadout::process_shot`] exactly, in input order.
    ///
    /// # Panics
    ///
    /// Panics if any trace is shorter than the last checkpoint.
    pub fn process_batch(&self, shots: &[&[Complex]]) -> Vec<StreamingDecision> {
        crate::par_map(shots, |raw| self.process_shot(raw))
    }

    /// Borrows the compiled prefix-windowed plans, one per checkpoint in
    /// checkpoint order.
    pub fn checkpoint_plans(&self) -> &[CompiledPlan] {
        &self.plans
    }

    /// The unfused graphs the checkpoint plans are compiled from, in
    /// checkpoint order: each checkpoint's prefix-truncated bank, its own
    /// standardizer and heads — the reference [`plan::eval`] interprets.
    pub(crate) fn graphs(&self) -> Vec<OpGraph> {
        self.checkpoints
            .iter()
            .map(|cp| {
                plan::per_qubit_graph(&self.extractor, cp.n_samples, &cp.standardizer, &cp.heads)
            })
            .collect()
    }

    /// Decision at checkpoint `ci` for a partial feature vector, plus
    /// whether it clears the confidence gate.
    fn checkpoint_decision(&self, ci: usize, features: &[f64]) -> (StreamingDecision, bool) {
        let cp = &self.checkpoints[ci];
        let per_qubit = cp.decide(features);
        let confident = per_qubit.iter().all(|&(_, c)| c >= self.confidence);
        let decision = StreamingDecision {
            levels: per_qubit.iter().map(|&(l, _)| l).collect(),
            confidences: per_qubit.iter().map(|&(_, c)| c).collect(),
            samples_used: cp.n_samples,
            checkpoint_index: ci,
        };
        (decision, confident)
    }
}

impl Discriminator for StreamingReadout {
    fn predict_shot(&self, raw: &[Complex]) -> Vec<usize> {
        self.process_shot(raw).levels
    }

    /// Native batch path: one [`StreamingReadout::process_batch`] call.
    fn predict_batch(&self, shots: &[&[Complex]]) -> Vec<Vec<usize>> {
        self.process_batch(shots)
            .into_iter()
            .map(|decision| decision.levels)
            .collect()
    }

    fn name(&self) -> &str {
        "OURS-STREAM"
    }

    fn n_qubits(&self) -> usize {
        self.n_qubits
    }

    fn weight_count(&self) -> usize {
        self.checkpoints
            .iter()
            .flat_map(|c| c.heads.iter().map(Mlp::weight_count))
            .sum()
    }
}

/// In-flight state of one streamed shot: NCO demodulators plus one running
/// matched-filter accumulator per (qubit, filter).
///
/// Created by [`StreamingReadout::begin_shot`]; feed ADC samples with
/// [`ShotStream::push`] until it returns a decision.
#[derive(Debug)]
pub struct ShotStream<'a> {
    parent: &'a StreamingReadout,
    demod: StreamingDemodulator,
    /// Kernel I/Q weights per qubit per filter.
    kernels: Vec<Vec<(Vec<f64>, Vec<f64>)>>,
    /// Running scores, flattened in qubit-major order (the merged feature
    /// vector under construction).
    acc: Vec<f64>,
    t: usize,
    next_checkpoint: usize,
    decided: bool,
}

impl<'a> ShotStream<'a> {
    fn new(parent: &'a StreamingReadout) -> Self {
        let chip_demod = StreamingDemodulator::new(parent.extractor.chip_config());
        let kernels: Vec<Vec<(Vec<f64>, Vec<f64>)>> = (0..parent.n_qubits)
            .map(|q| parent.extractor.bank(q).kernels_iq())
            .collect();
        let feature_dim = parent.extractor.feature_dim();
        Self {
            parent,
            demod: chip_demod,
            kernels,
            acc: vec![0.0; feature_dim],
            t: 0,
            next_checkpoint: 0,
            decided: false,
        }
    }

    /// Samples consumed so far.
    pub fn samples_seen(&self) -> usize {
        self.t
    }

    /// Current partial merged feature vector (running scores).
    pub fn partial_features(&self) -> &[f64] {
        &self.acc
    }

    /// Feeds one ADC sample. Returns the decision at the first confident
    /// checkpoint (or the final one); afterwards the stream is exhausted
    /// and further pushes panic.
    ///
    /// # Panics
    ///
    /// Panics if called after a decision was returned or past the readout
    /// window.
    pub fn push(&mut self, sample: Complex) -> Option<StreamingDecision> {
        assert!(!self.decided, "shot already decided");
        let last = self
            .parent
            .checkpoints
            .last()
            .expect("nonempty checkpoints")
            .n_samples;
        assert!(self.t < last, "push past the readout window");

        let baseband = self.demod.push(sample);
        let mut offset = 0usize;
        for (q, bb) in baseband.iter().enumerate() {
            for (ki, kq) in &self.kernels[q] {
                // Kernels are fitted at full window length; guard in case a
                // checkpoint shorter than the kernel is the last one.
                if self.t < ki.len() {
                    self.acc[offset] += ki[self.t] * bb.re + kq[self.t] * bb.im;
                }
                offset += 1;
            }
        }
        self.t += 1;

        while self.next_checkpoint < self.parent.checkpoints.len()
            && self.parent.checkpoints[self.next_checkpoint].n_samples == self.t
        {
            let ci = self.next_checkpoint;
            self.next_checkpoint += 1;
            let final_cp = ci + 1 == self.parent.checkpoints.len();
            let (decision, confident) = self.parent.checkpoint_decision(ci, &self.acc);
            if confident || final_cp {
                self.decided = true;
                return Some(decision);
            }
        }
        None
    }
}

/// Aggregate accuracy/latency statistics of a streaming readout over a set
/// of shots, produced by [`evaluate_streaming`].
#[derive(Debug, Clone, PartialEq)]
pub struct StreamingReport {
    /// Per-qubit balanced assignment fidelity (per-level recall averaged
    /// over levels present), as in [`crate::EvalReport`].
    pub per_qubit_fidelity: Vec<f64>,
    /// Mean ADC samples consumed per shot.
    pub mean_samples: f64,
    /// Shots decided at each checkpoint index.
    pub checkpoint_counts: Vec<usize>,
    /// Number of shots evaluated.
    pub n_shots: usize,
}

impl StreamingReport {
    /// Mean readout duration in nanoseconds given the ADC sample period.
    pub fn mean_duration_ns(&self, dt_ns: f64) -> f64 {
        self.mean_samples * dt_ns
    }
}

/// Evaluates a [`StreamingReadout`] on the dataset shots selected by
/// `indices`, reporting balanced fidelities and latency statistics. All
/// decisions come from one [`StreamingReadout::process_batch`] call.
///
/// # Panics
///
/// Panics if `indices` is empty or out of range.
pub fn evaluate_streaming(
    readout: &StreamingReadout,
    dataset: &TraceDataset,
    indices: &[usize],
) -> StreamingReport {
    assert!(!indices.is_empty(), "no shots to evaluate");
    let n_qubits = readout.n_qubits;
    let levels = dataset.levels();
    let shots = crate::gather_shots(dataset, indices);
    let decisions = readout.process_batch(&shots);
    let mut hits = vec![vec![0usize; levels]; n_qubits];
    let mut counts = vec![vec![0usize; levels]; n_qubits];
    let mut total_samples = 0usize;
    let mut checkpoint_counts = vec![0usize; readout.checkpoints.len()];
    for (&i, decision) in indices.iter().zip(&decisions) {
        total_samples += decision.samples_used;
        checkpoint_counts[decision.checkpoint_index] += 1;
        for q in 0..n_qubits {
            let truth = dataset.label(i, q);
            counts[q][truth] += 1;
            if decision.levels[q] == truth {
                hits[q][truth] += 1;
            }
        }
    }
    let per_qubit_fidelity = (0..n_qubits)
        .map(|q| {
            let present: Vec<f64> = (0..levels)
                .filter(|&l| counts[q][l] > 0)
                .map(|l| hits[q][l] as f64 / counts[q][l] as f64)
                .collect();
            present.iter().sum::<f64>() / present.len().max(1) as f64
        })
        .collect();
    StreamingReport {
        per_qubit_fidelity,
        mean_samples: total_samples as f64 / indices.len() as f64,
        checkpoint_counts,
        n_shots: indices.len(),
    }
}

/// The serialisable body of a fitted [`StreamingReadout`] inside the
/// registry's `SavedModel` v2 envelope; the full-length banks and every
/// checkpoint's decision stage are stored, the demodulation tables are
/// rebuilt from the envelope's chip.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct SavedStreaming {
    banks: Vec<crate::QubitMfBank>,
    checkpoints: Vec<Checkpoint>,
    confidence: f64,
}

impl StreamingReadout {
    pub(crate) fn to_saved(&self) -> SavedStreaming {
        SavedStreaming {
            banks: (0..self.n_qubits)
                .map(|q| self.extractor.bank(q).clone())
                .collect(),
            checkpoints: self.checkpoints.clone(),
            confidence: self.confidence,
        }
    }

    pub(crate) fn from_saved(
        saved: SavedStreaming,
        chip: mlr_sim::ChipConfig,
        joint_neighbors: usize,
    ) -> Result<Self, crate::ModelIoError> {
        let n_qubits = chip.n_qubits();
        if saved.banks.len() != n_qubits {
            return Err(crate::ModelIoError::Invalid(format!(
                "{} streaming banks for {} qubits",
                saved.banks.len(),
                n_qubits
            )));
        }
        if saved.checkpoints.is_empty()
            || !saved
                .checkpoints
                .windows(2)
                .all(|w| w[0].n_samples < w[1].n_samples)
        {
            return Err(crate::ModelIoError::Invalid(
                "streaming checkpoints must be nonempty and strictly ascending".to_owned(),
            ));
        }
        if saved.checkpoints.last().expect("nonempty").n_samples > chip.n_samples {
            return Err(crate::ModelIoError::Invalid(format!(
                "checkpoint beyond the {}-sample readout window",
                chip.n_samples
            )));
        }
        let feature_dim: usize = saved.banks.iter().map(crate::QubitMfBank::n_filters).sum();
        for (ci, cp) in saved.checkpoints.iter().enumerate() {
            if cp.heads.len() != n_qubits {
                return Err(crate::ModelIoError::Invalid(format!(
                    "checkpoint {ci} has {} heads for {n_qubits} qubits",
                    cp.heads.len()
                )));
            }
            if cp.standardizer.dim() != feature_dim {
                return Err(crate::ModelIoError::Invalid(format!(
                    "checkpoint {ci} standardizer dim {} != feature dim {feature_dim}",
                    cp.standardizer.dim()
                )));
            }
            for (q, head) in cp.heads.iter().enumerate() {
                if head.input_len() != feature_dim {
                    return Err(crate::ModelIoError::Invalid(format!(
                        "checkpoint {ci} head {q} input {} != feature dim {feature_dim}",
                        head.input_len()
                    )));
                }
            }
        }
        let extractor = FeatureExtractor::from_parts_joint(chip, saved.banks, joint_neighbors);
        Ok(Self {
            extractor,
            checkpoints: saved.checkpoints,
            confidence: saved.confidence,
            n_qubits,
            plans: Vec::new(),
        }
        .with_plans())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlr_sim::ChipConfig;

    fn fit_streaming(confidence: f64) -> (TraceDataset, DatasetSplit, StreamingReadout) {
        let mut c = ChipConfig::uniform(2);
        c.n_samples = 240;
        let ds = TraceDataset::generate(&c, 3, 80, 41);
        let split = ds.split(0.6, 0.1, 41);
        let config = StreamingConfig {
            checkpoints: vec![120, 180, 240],
            confidence,
            base: OursConfig::default(),
        };
        let readout = StreamingReadout::fit(&ds, &split, &config);
        (ds, split, readout)
    }

    #[test]
    fn empty_checkpoints_resolve_to_window_quarters() {
        let mut c = ChipConfig::uniform(2);
        c.n_samples = 80;
        let ds = TraceDataset::generate(&c, 2, 6, 1);
        let split = ds.split(0.5, 0.0, 1);
        let config = StreamingConfig {
            base: OursConfig {
                train: mlr_nn::TrainConfig {
                    epochs: 2,
                    ..OursConfig::default().train
                },
                ..OursConfig::default()
            },
            ..StreamingConfig::default()
        };
        let readout = StreamingReadout::fit(&ds, &split, &config);
        // The registry's OURS-STREAM default adapts to any chip window.
        assert_eq!(readout.checkpoint_samples(), vec![20, 40, 60, 80]);
    }

    #[test]
    fn quarters_constructor_is_well_formed() {
        let q = StreamingConfig::quarters(500);
        assert_eq!(q.checkpoints, vec![125, 250, 375, 500]);
        assert!(q.confidence > 0.5 && q.confidence < 1.0);
    }

    #[test]
    fn streaming_accumulator_matches_batch_prefix_extraction() {
        let (ds, _, readout) = fit_streaming(2.0);
        let raw = ds.raw(3);
        let mut stream = readout.begin_shot();
        for &z in &raw[..150] {
            let _ = stream.push(z);
        }
        let batch = readout.extractor.extract_prefix(raw, 150);
        for (a, b) in stream.partial_features().iter().zip(&batch) {
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
    }

    #[test]
    fn impossible_confidence_always_runs_to_full_window() {
        let (ds, split, readout) = fit_streaming(2.0);
        let report = evaluate_streaming(&readout, &ds, &split.test);
        assert_eq!(report.checkpoint_counts[0], 0);
        assert_eq!(report.checkpoint_counts[1], 0);
        assert_eq!(report.checkpoint_counts[2], report.n_shots);
        assert!((report.mean_samples - 240.0).abs() < 1e-12);
        // Full-window accuracy is the plain pipeline's accuracy.
        for (q, f) in report.per_qubit_fidelity.iter().enumerate() {
            assert!(*f > 0.6, "qubit {q} fidelity {f}");
        }
    }

    #[test]
    fn early_termination_saves_samples_without_collapsing_accuracy() {
        let (ds, split, eager) = fit_streaming(0.9);
        let (_, _, never) = fit_streaming(2.0);
        let r_eager = evaluate_streaming(&eager, &ds, &split.test);
        let r_never = evaluate_streaming(&never, &ds, &split.test);
        assert!(
            r_eager.mean_samples < r_never.mean_samples - 1.0,
            "eager {} vs never {}",
            r_eager.mean_samples,
            r_never.mean_samples
        );
        let mean = |r: &StreamingReport| {
            r.per_qubit_fidelity.iter().sum::<f64>() / r.per_qubit_fidelity.len() as f64
        };
        assert!(
            mean(&r_eager) > mean(&r_never) - 0.08,
            "eager {:.4} vs never {:.4}",
            mean(&r_eager),
            mean(&r_never)
        );
    }

    #[test]
    fn higher_confidence_decides_later() {
        let (ds, split, loose) = fit_streaming(0.7);
        let (_, _, strict) = fit_streaming(0.99);
        let r_loose = evaluate_streaming(&loose, &ds, &split.test);
        let r_strict = evaluate_streaming(&strict, &ds, &split.test);
        assert!(
            r_loose.mean_samples <= r_strict.mean_samples + 1e-9,
            "loose {} strict {}",
            r_loose.mean_samples,
            r_strict.mean_samples
        );
    }

    #[test]
    fn layered_process_shot_equals_manual_streaming() {
        let (ds, _, readout) = fit_streaming(0.9);
        let raw = ds.raw(5);
        let via_process = readout.process_shot_layered(raw);
        let mut stream = readout.begin_shot();
        let mut via_push = None;
        for &z in raw.iter() {
            if let Some(d) = stream.push(z) {
                via_push = Some(d);
                break;
            }
        }
        assert_eq!(Some(via_process), via_push);
    }

    #[test]
    fn checkpoint_graphs_match_the_checkpoint_heads() {
        // Each checkpoint's prefix-truncated graph must give what that
        // checkpoint's heads compute on its prefix scores.
        let (ds, split, readout) = fit_streaming(2.0);
        let graphs = readout.graphs();
        assert_eq!(readout.plans.len(), readout.checkpoints.len());
        assert_eq!(graphs.len(), readout.checkpoints.len());
        let stages = readout.checkpoints.iter().zip(&readout.plans).zip(&graphs);
        for (ci, ((cp, cp_plan), graph)) in stages.enumerate() {
            let n = cp.n_samples;
            assert_eq!(cp_plan.n_samples(), n);
            for &i in split.test.iter().take(30) {
                let raw = &ds.raw(i)[..n];
                let features = readout.extractor.extract_prefix(ds.raw(i), n);
                let (layered, _) = readout.checkpoint_decision(ci, &features);
                assert_eq!(
                    cp_plan.predict_shot(raw),
                    layered.levels,
                    "shot {i} checkpoint {ci}"
                );
                let got = plan::eval(graph, raw);
                assert_eq!(got.levels, layered.levels, "shot {i} checkpoint {ci}");
                let x = cp.standardizer.transform_f32(&features);
                for (q, (logits, head)) in got.logits.iter().zip(&cp.heads).enumerate() {
                    plan::assert_logits_close(
                        logits,
                        &head.forward(&x),
                        &format!("shot {i}, checkpoint {ci}, qubit {q}"),
                    );
                }
            }
        }
    }

    #[test]
    fn fused_streaming_decisions_match_layered() {
        let (ds, split, readout) = fit_streaming(0.9);
        for &i in split.test.iter().take(30) {
            let fused = readout.process_shot(ds.raw(i));
            let layered = readout.process_shot_layered(ds.raw(i));
            assert_eq!(fused.levels, layered.levels, "shot {i}");
            assert_eq!(fused.checkpoint_index, layered.checkpoint_index, "shot {i}");
            for (a, b) in fused.confidences.iter().zip(&layered.confidences) {
                assert!((a - b).abs() < 1e-4, "shot {i}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn decision_metadata_is_consistent() {
        let (ds, split, readout) = fit_streaming(0.9);
        let cps = readout.checkpoint_samples();
        for &i in split.test.iter().take(20) {
            let d = readout.process_shot(ds.raw(i));
            assert_eq!(d.samples_used, cps[d.checkpoint_index]);
            assert_eq!(d.levels.len(), 2);
            assert!(d.confidences.iter().all(|&c| (0.0..=1.0).contains(&c)));
        }
    }

    #[test]
    fn report_duration_conversion() {
        let report = StreamingReport {
            per_qubit_fidelity: vec![1.0],
            mean_samples: 300.0,
            checkpoint_counts: vec![0, 1],
            n_shots: 1,
        };
        assert!((report.mean_duration_ns(2.0) - 600.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn rejects_unsorted_checkpoints() {
        let mut c = ChipConfig::uniform(2);
        c.n_samples = 100;
        let ds = TraceDataset::generate(&c, 2, 4, 1);
        let split = ds.split(0.5, 0.0, 1);
        let config = StreamingConfig {
            checkpoints: vec![80, 40],
            confidence: 0.9,
            base: OursConfig::default(),
        };
        let _ = StreamingReadout::fit(&ds, &split, &config);
    }

    #[test]
    #[should_panic(expected = "shot already decided")]
    fn exhausted_stream_rejects_pushes() {
        let (ds, _, readout) = fit_streaming(0.0); // decides at first checkpoint
        let raw = ds.raw(0);
        let mut stream = readout.begin_shot();
        for &z in raw.iter() {
            let done = stream.push(z).is_some();
            if done {
                let _ = stream.push(z); // must panic
            }
        }
    }
}
