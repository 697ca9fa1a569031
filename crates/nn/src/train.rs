//! Minibatch Adam training with cross-entropy loss.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::backward::{self, row_stride, Tier};
use crate::mlp::{argmax_f32, softmax_into, Mlp};
use crate::SHOT_LANES;
use serde::{Deserialize, Serialize};

/// A labelled classification dataset in network precision.
///
/// # Examples
///
/// ```
/// use mlr_nn::TrainData;
///
/// let data = TrainData::new(vec![vec![0.0], vec![1.0]], vec![0, 1], 2).unwrap();
/// assert_eq!(data.len(), 2);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TrainData {
    inputs: Vec<Vec<f32>>,
    labels: Vec<usize>,
    n_classes: usize,
}

/// Why a [`TrainData`] could not be constructed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DataError {
    /// No samples were provided.
    Empty,
    /// `inputs` and `labels` lengths differ.
    LengthMismatch,
    /// Input rows have inconsistent dimensionality.
    Ragged,
    /// A label is `>= n_classes`.
    LabelOutOfRange,
}

impl std::fmt::Display for DataError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DataError::Empty => write!(f, "dataset is empty"),
            DataError::LengthMismatch => write!(f, "inputs and labels differ in length"),
            DataError::Ragged => write!(f, "input rows differ in dimensionality"),
            DataError::LabelOutOfRange => write!(f, "label exceeds n_classes"),
        }
    }
}

impl std::error::Error for DataError {}

impl TrainData {
    /// Validates and wraps a dataset.
    ///
    /// # Errors
    ///
    /// Returns a [`DataError`] describing the first violated invariant.
    pub fn new(
        inputs: Vec<Vec<f32>>,
        labels: Vec<usize>,
        n_classes: usize,
    ) -> Result<Self, DataError> {
        if inputs.is_empty() {
            return Err(DataError::Empty);
        }
        if inputs.len() != labels.len() {
            return Err(DataError::LengthMismatch);
        }
        let dim = inputs[0].len();
        if inputs.iter().any(|x| x.len() != dim) {
            return Err(DataError::Ragged);
        }
        if labels.iter().any(|&y| y >= n_classes) {
            return Err(DataError::LabelOutOfRange);
        }
        Ok(Self {
            inputs,
            labels,
            n_classes,
        })
    }

    /// Converts `f64` feature vectors (the DSP-side precision) into network
    /// precision and validates.
    ///
    /// # Errors
    ///
    /// As for [`TrainData::new`].
    pub fn from_f64(
        inputs: &[Vec<f64>],
        labels: Vec<usize>,
        n_classes: usize,
    ) -> Result<Self, DataError> {
        let converted = inputs
            .iter()
            .map(|x| x.iter().map(|&v| v as f32).collect())
            .collect();
        Self::new(converted, labels, n_classes)
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.inputs.len()
    }

    /// `true` when there are no samples (unreachable after construction).
    pub fn is_empty(&self) -> bool {
        self.inputs.is_empty()
    }

    /// Feature dimensionality.
    pub fn input_dim(&self) -> usize {
        self.inputs[0].len()
    }

    /// Number of classes in the label alphabet.
    pub fn n_classes(&self) -> usize {
        self.n_classes
    }

    /// Borrows sample `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn sample(&self, i: usize) -> (&[f32], usize) {
        (&self.inputs[i], self.labels[i])
    }

    /// Borrows all inputs.
    pub fn inputs(&self) -> &[Vec<f32>] {
        &self.inputs
    }

    /// Borrows all labels.
    pub fn labels(&self) -> &[usize] {
        &self.labels
    }
}

/// Hyper-parameters for [`Mlp::train`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrainConfig {
    /// Number of passes over the training set.
    pub epochs: usize,
    /// Minibatch size.
    pub batch_size: usize,
    /// Adam step size.
    pub learning_rate: f32,
    /// L2 weight decay coefficient (0 disables).
    pub weight_decay: f32,
    /// Adam first-moment decay.
    pub beta1: f32,
    /// Adam second-moment decay.
    pub beta2: f32,
    /// Shuffling/initialisation seed.
    pub seed: u64,
    /// Stop after this many epochs without validation improvement
    /// (requires a validation set); `None` disables early stopping.
    pub early_stop_patience: Option<usize>,
    /// Optional per-class loss weights (length = number of classes) for
    /// imbalanced data, e.g. rare naturally-leaked states. `None` weights
    /// every class equally.
    pub class_weights: Option<Vec<f32>>,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self {
            epochs: 30,
            batch_size: 64,
            learning_rate: 1e-3,
            weight_decay: 0.0,
            beta1: 0.9,
            beta2: 0.999,
            seed: 0,
            early_stop_patience: Some(6),
            class_weights: None,
        }
    }
}

/// Inverse-frequency class weights, normalised to mean 1 over observed
/// classes and capped at `cap` (unobserved classes get weight 1).
///
/// # Panics
///
/// Panics if `labels` is empty, a label exceeds `n_classes`, or `cap <= 0`.
///
/// # Examples
///
/// ```
/// use mlr_nn::inverse_frequency_weights;
///
/// let w = inverse_frequency_weights(&[0, 0, 0, 1], 2, 10.0);
/// assert!(w[1] > w[0]);
/// ```
pub fn inverse_frequency_weights(labels: &[usize], n_classes: usize, cap: f32) -> Vec<f32> {
    assert!(!labels.is_empty(), "no labels");
    assert!(cap > 0.0, "cap must be positive");
    let mut counts = vec![0usize; n_classes];
    for &y in labels {
        assert!(y < n_classes, "label out of range");
        counts[y] += 1;
    }
    let observed = counts.iter().filter(|&&c| c > 0).count().max(1);
    let mean_count = labels.len() as f32 / observed as f32;
    counts
        .iter()
        .map(|&c| {
            if c == 0 {
                1.0
            } else {
                (mean_count / c as f32).min(cap)
            }
        })
        .collect()
}

/// Per-epoch telemetry returned by [`Mlp::train`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TrainReport {
    /// Mean cross-entropy per epoch.
    pub train_losses: Vec<f64>,
    /// Validation accuracy per epoch (empty without a validation set).
    pub val_accuracies: Vec<f64>,
    /// Epoch whose weights were kept (best validation accuracy, or the last
    /// epoch without a validation set).
    pub best_epoch: usize,
}

/// Best-so-far snapshot kept by early stopping: validation score plus a
/// copy of the weights and biases that achieved it.
pub(crate) type Checkpoint = (f64, Vec<Vec<f32>>, Vec<Vec<f32>>);

/// Samples per [`Mlp::forward_lanes`] call when scoring a dataset outside
/// training.
const EVAL_CHUNK: usize = 64;

/// The buffers one [`Mlp::train`] call reuses for every mini-batch, so a
/// training step makes no allocation of its own.
struct TrainScratch {
    /// `lanes[l]` holds layer `l`'s activations (index 0 is the input) for
    /// the whole mini-batch, in blocks of [`SHOT_LANES`] samples laid out
    /// as [`crate::dot_lanes`] reads and writes them: unit `k` of sample
    /// `b · SHOT_LANES + j` sits at `[(b · width + k) · SHOT_LANES + j]`.
    lanes: Vec<Vec<f32>>,
    /// The backward pass's deltas for the whole mini-batch at the layer
    /// it is walking (`delta`) and the one below (`prev`), laid out as
    /// `lanes`.
    delta: Vec<f32>,
    prev: Vec<f32>,
    /// The walked layer's inputs, one row per sample for the
    /// weight-gradient kernel: the inputs, a 1 for the bias, zeros up to
    /// [`row_stride`].
    rows: Vec<f32>,
    /// One sample's output logits and their softmax.
    logits: Vec<f32>,
    probs: Vec<f32>,
}

impl TrainScratch {
    /// Scratch for mini-batches of up to `batch_size` samples.
    fn new(mlp: &Mlp, batch_size: usize) -> Self {
        let blocks = batch_size.div_ceil(SHOT_LANES);
        Self {
            lanes: mlp
                .sizes()
                .iter()
                .map(|&width| vec![0.0; blocks * width * SHOT_LANES])
                .collect(),
            delta: Vec::new(),
            prev: Vec::new(),
            rows: Vec::new(),
            logits: Vec::new(),
            probs: Vec::new(),
        }
    }
}

/// A mini-batch's summed gradients. Layer `l`'s weight rows are padded to
/// [`row_stride`]`(n_in + 1)` columns, the layout the weight-gradient
/// kernel accumulates into: column `n_in` sums the bias gradient (the
/// kernel's input there is a constant 1, which [`Mlp::backward_lanes`]
/// copies to `b`), and the columns past it are never read.
struct Grads {
    w: Vec<Vec<f32>>,
    b: Vec<Vec<f32>>,
}

impl Grads {
    fn new(mlp: &Mlp) -> Self {
        let sizes = mlp.sizes();
        Self {
            w: sizes
                .windows(2)
                .map(|io| vec![0.0; io[1] * row_stride(io[0] + 1)])
                .collect(),
            b: mlp.biases.iter().map(|b| vec![0.0; b.len()]).collect(),
        }
    }
}

/// Adam state paralleling the network parameters. Shared with the MSE
/// trainer in [`crate::regression`].
pub(crate) struct Adam {
    pub(crate) m_w: Vec<Vec<f32>>,
    pub(crate) v_w: Vec<Vec<f32>>,
    pub(crate) m_b: Vec<Vec<f32>>,
    pub(crate) v_b: Vec<Vec<f32>>,
    pub(crate) t: i32,
}

impl Adam {
    pub(crate) fn new(mlp: &Mlp) -> Self {
        Self {
            m_w: mlp.weights.iter().map(|w| vec![0.0; w.len()]).collect(),
            v_w: mlp.weights.iter().map(|w| vec![0.0; w.len()]).collect(),
            m_b: mlp.biases.iter().map(|b| vec![0.0; b.len()]).collect(),
            v_b: mlp.biases.iter().map(|b| vec![0.0; b.len()]).collect(),
            t: 0,
        }
    }

    #[allow(clippy::too_many_arguments)]
    pub(crate) fn step_inplace(
        param: &mut [f32],
        grad: &[f32],
        m: &mut [f32],
        v: &mut [f32],
        lr: f32,
        beta1: f32,
        beta2: f32,
        bc1: f32,
        bc2: f32,
        weight_decay: f32,
    ) {
        const EPS: f32 = 1e-8;
        for (((p, &grad), m), v) in param.iter_mut().zip(grad).zip(m).zip(v) {
            let g = grad + weight_decay * *p;
            *m = beta1 * *m + (1.0 - beta1) * g;
            *v = beta2 * *v + (1.0 - beta2) * g * g;
            let m_hat = *m / bc1;
            let v_hat = *v / bc2;
            *p -= lr * m_hat / (v_hat.sqrt() + EPS);
        }
    }
}

impl Mlp {
    /// Trains the network with minibatch Adam on softmax cross-entropy.
    ///
    /// With a validation set, the weights with the best validation accuracy
    /// are restored at the end and `early_stop_patience` can cut training
    /// short; without one, the final weights are kept.
    ///
    /// Each mini-batch runs forward eight samples at a time through
    /// [`crate::dot_lanes`] and backward batch-major: per-sample output
    /// deltas, then for every layer a register-blocked weight-gradient
    /// outer product and a ReLU-masked `Wᵀδ` over eight samples at a time,
    /// on AVX2 where the host has it and a scalar mirror elsewhere. Each
    /// epoch's validation score runs through the same eight-sample forward
    /// pass. Every sum keeps the order of a per-sample pass (samples in
    /// batch order, no FMA), so the trained weights are bit-identical to
    /// per-sample training, on every host and thread count.
    ///
    /// # Panics
    ///
    /// Panics if the data dimensions do not match the network topology or
    /// `batch_size == 0`.
    pub fn train(
        &mut self,
        data: &TrainData,
        val: Option<&TrainData>,
        config: &TrainConfig,
    ) -> TrainReport {
        self.train_on(Tier::host(), data, val, config)
    }

    /// [`Mlp::train`] with the backward kernels on `tier`.
    fn train_on(
        &mut self,
        tier: Tier,
        data: &TrainData,
        val: Option<&TrainData>,
        config: &TrainConfig,
    ) -> TrainReport {
        assert_eq!(data.input_dim(), self.input_len(), "input width mismatch");
        assert!(
            data.n_classes() <= self.output_len(),
            "more classes than output units"
        );
        assert!(config.batch_size > 0, "batch_size must be positive");

        let mut adam = Adam::new(self);
        let mut scratch = TrainScratch::new(self, config.batch_size);
        let mut grads = Grads::new(self);

        let mut order: Vec<usize> = (0..data.len()).collect();
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut report = TrainReport::default();
        let mut best: Option<Checkpoint> = None;
        let mut stale = 0usize;

        for epoch in 0..config.epochs {
            order.shuffle(&mut rng);
            let mut epoch_loss = 0.0f64;
            for batch in order.chunks(config.batch_size) {
                grads.w.iter_mut().for_each(|g| g.fill(0.0));
                self.forward_lanes(data, batch, &mut scratch);
                self.backward_lanes(
                    tier,
                    data,
                    batch,
                    config.class_weights.as_deref(),
                    &mut epoch_loss,
                    &mut grads,
                    &mut scratch,
                );
                let scale = 1.0 / batch.len() as f32;
                adam.t += 1;
                let bc1 = 1.0 - config.beta1.powi(adam.t);
                let bc2 = 1.0 - config.beta2.powi(adam.t);
                for l in 0..self.weights.len() {
                    grads.w[l].iter_mut().for_each(|g| *g *= scale);
                    grads.b[l].iter_mut().for_each(|g| *g *= scale);
                    let n_in = self.sizes()[l];
                    for (((w, g), m), v) in self.weights[l]
                        .chunks_exact_mut(n_in)
                        .zip(grads.w[l].chunks_exact(row_stride(n_in + 1)))
                        .zip(adam.m_w[l].chunks_exact_mut(n_in))
                        .zip(adam.v_w[l].chunks_exact_mut(n_in))
                    {
                        Adam::step_inplace(
                            w,
                            &g[..n_in],
                            m,
                            v,
                            config.learning_rate,
                            config.beta1,
                            config.beta2,
                            bc1,
                            bc2,
                            config.weight_decay,
                        );
                    }
                    Adam::step_inplace(
                        &mut self.biases[l],
                        &grads.b[l],
                        &mut adam.m_b[l],
                        &mut adam.v_b[l],
                        config.learning_rate,
                        config.beta1,
                        config.beta2,
                        bc1,
                        bc2,
                        0.0,
                    );
                }
            }
            report.train_losses.push(epoch_loss / data.len() as f64);

            if let Some(val) = val {
                // With class weights the caller cares about balanced
                // accuracy (rare classes matter); select the best epoch on
                // the same criterion.
                let acc = self.score(val, config.class_weights.is_some(), &mut scratch);
                report.val_accuracies.push(acc);
                if best.as_ref().is_none_or(|(b, _, _)| acc > *b) {
                    best = Some((acc, self.weights.clone(), self.biases.clone()));
                    report.best_epoch = epoch;
                    stale = 0;
                } else {
                    stale += 1;
                    if config.early_stop_patience.is_some_and(|p| stale >= p) {
                        break;
                    }
                }
            } else {
                report.best_epoch = epoch;
            }
        }

        if let Some((_, w, b)) = best {
            self.weights = w;
            self.biases = b;
        }
        report
    }

    /// Accuracy of the network on a labelled dataset.
    ///
    /// # Panics
    ///
    /// Panics if the data dimensionality differs from the input width.
    pub fn evaluate(&self, data: &TrainData) -> f64 {
        let mut scratch = TrainScratch::new(self, EVAL_CHUNK);
        self.score(data, false, &mut scratch)
    }

    /// Balanced accuracy: per-class recall averaged over the classes present
    /// in `data` — the right selection metric under heavy class imbalance.
    ///
    /// # Panics
    ///
    /// Panics if the data dimensionality differs from the input width.
    pub fn evaluate_balanced(&self, data: &TrainData) -> f64 {
        let mut scratch = TrainScratch::new(self, EVAL_CHUNK);
        self.score(data, true, &mut scratch)
    }

    /// [`Mlp::evaluate`] (or, with `balanced`, [`Mlp::evaluate_balanced`])
    /// through `scratch`: each chunk of samples runs through
    /// [`Mlp::forward_lanes`], whose logits are bit-identical to
    /// [`Mlp::forward`]'s, and each sample's decision is the argmax with
    /// ties to the lowest class, as [`Mlp::predict`] decides.
    fn score(&self, data: &TrainData, balanced: bool, scratch: &mut TrainScratch) -> f64 {
        assert_eq!(data.input_dim(), self.input_len(), "input length mismatch");
        let chunk = scratch.lanes[0].len() / (self.input_len() * SHOT_LANES) * SHOT_LANES;
        let n_out = self.output_len();
        let k = data.n_classes();
        let mut hits = vec![0usize; k];
        let mut counts = vec![0usize; k];
        let ids: Vec<usize> = (0..data.len()).collect();
        for part in ids.chunks(chunk) {
            self.forward_lanes(data, part, scratch);
            let TrainScratch { lanes, logits, .. } = &mut *scratch;
            let out = &lanes[self.n_layers()];
            for (s, &i) in part.iter().enumerate() {
                let base = (s / SHOT_LANES) * n_out * SHOT_LANES + s % SHOT_LANES;
                logits.clear();
                logits.extend((0..n_out).map(|o| out[base + o * SHOT_LANES]));
                let y = data.labels[i];
                counts[y] += 1;
                if argmax_f32(logits) == y {
                    hits[y] += 1;
                }
            }
        }
        if !balanced {
            return hits.iter().sum::<usize>() as f64 / data.len() as f64;
        }
        let present: Vec<f64> = (0..k)
            .filter(|&c| counts[c] > 0)
            .map(|c| hits[c] as f64 / counts[c] as f64)
            .collect();
        present.iter().sum::<f64>() / present.len().max(1) as f64
    }

    /// Forward pass of a whole mini-batch into `scratch.lanes`, eight
    /// samples per [`crate::dot_lanes`] call. Every activation is
    /// bit-identical to a per-sample [`Mlp::forward`]: each (row, sample)
    /// dot equals [`crate::dot_f32`], and the bias and ReLU follow in the
    /// same order.
    fn forward_lanes(&self, data: &TrainData, batch: &[usize], scratch: &mut TrainScratch) {
        let blocks = batch.len().div_ceil(SHOT_LANES);
        let n_in = self.input_len();
        // Lanes past the end of a ragged last block keep whatever an
        // earlier batch left there: lanes never mix, so those values only
        // reach lanes nobody reads.
        let input = &mut scratch.lanes[0];
        for (s, &i) in batch.iter().enumerate() {
            let block = &mut input[(s / SHOT_LANES) * n_in * SHOT_LANES..][..n_in * SHOT_LANES];
            for (k, &v) in data.inputs[i].iter().enumerate() {
                block[k * SHOT_LANES + s % SHOT_LANES] = v;
            }
        }
        let n_layers = self.weights.len();
        for l in 0..n_layers {
            let relu = l + 1 < n_layers;
            let (n_in, n_out) = (self.sizes()[l], self.sizes()[l + 1]);
            let (below, above) = scratch.lanes.split_at_mut(l + 1);
            let x = &below[l][..blocks * n_in * SHOT_LANES];
            let out = &mut above[0][..blocks * n_out * SHOT_LANES];
            for (xb, ob) in x
                .chunks_exact(n_in * SHOT_LANES)
                .zip(out.chunks_exact_mut(n_out * SHOT_LANES))
            {
                crate::dot_lanes(&self.weights[l], n_in, xb, ob);
                for (row, &bias) in ob.chunks_exact_mut(SHOT_LANES).zip(&self.biases[l]) {
                    for v in row {
                        let acc = bias + *v;
                        *v = if relu { acc.max(0.0) } else { acc };
                    }
                }
            }
        }
    }

    /// The backward pass over the mini-batch [`Mlp::forward_lanes`] last
    /// scored: adds every sample's (class-weighted) cross-entropy loss to
    /// `loss` in batch order and its gradients to `grads`.
    ///
    /// Output deltas come one sample at a time; every layer below runs
    /// batch-major — the weight gradient as a register-blocked outer
    /// product of the deltas and the layer's inputs, the deltas one layer
    /// down as a ReLU-masked `Wᵀδ` over eight samples at a time
    /// ([`crate::backward`]). Each sum keeps a per-sample pass's order, so
    /// the gradients are bit-identical to one.
    #[allow(clippy::too_many_arguments)]
    fn backward_lanes(
        &self,
        tier: Tier,
        data: &TrainData,
        batch: &[usize],
        class_weights: Option<&[f32]>,
        loss: &mut f64,
        grads: &mut Grads,
        scratch: &mut TrainScratch,
    ) {
        let blocks = batch.len().div_ceil(SHOT_LANES);
        let n_layers = self.weights.len();
        let TrainScratch {
            lanes,
            delta,
            prev,
            rows,
            logits,
            probs,
        } = scratch;

        // Output deltas: softmax - onehot, scaled by the class weight.
        let n_out = self.output_len();
        delta.clear();
        delta.resize(blocks * n_out * SHOT_LANES, 0.0);
        for (s, &i) in batch.iter().enumerate() {
            let y = data.labels[i];
            let w = class_weights.map_or(1.0, |cw| cw.get(y).copied().unwrap_or(1.0));
            let base = (s / SHOT_LANES) * n_out * SHOT_LANES + s % SHOT_LANES;
            logits.clear();
            logits.extend((0..n_out).map(|o| lanes[n_layers][base + o * SHOT_LANES]));
            softmax_into(logits, probs);
            *loss += -(probs[y].max(1e-12) as f64).ln() * w as f64;
            probs[y] -= 1.0;
            if w != 1.0 {
                probs.iter_mut().for_each(|d| *d *= w);
            }
            for (o, &d) in probs.iter().enumerate() {
                delta[base + o * SHOT_LANES] = d;
            }
        }

        for l in (0..n_layers).rev() {
            let n_in = self.sizes()[l];
            let stride = row_stride(n_in + 1);
            let len = batch.len() * stride;
            if rows.len() < len {
                rows.resize(len, 0.0);
            }
            for ((s, row), &i) in rows[..len].chunks_exact_mut(stride).enumerate().zip(batch) {
                let (x, pad) = row.split_at_mut(n_in);
                if l == 0 {
                    x.copy_from_slice(&data.inputs[i]);
                } else {
                    let block =
                        &lanes[l][(s / SHOT_LANES) * n_in * SHOT_LANES..][..n_in * SHOT_LANES];
                    let column = block[s % SHOT_LANES..].iter().step_by(SHOT_LANES);
                    for (v, &a) in x.iter_mut().zip(column) {
                        *v = a;
                    }
                }
                // d · 1 = d, and a zero d leaves the sum as it is whether
                // added or skipped: this column sums the bias gradient.
                pad[0] = 1.0;
                pad[1..].fill(0.0);
            }
            backward::accumulate_outer(
                tier,
                &mut grads.w[l],
                stride,
                delta,
                &rows[..len],
                batch.len(),
            );
            for (o, b) in grads.b[l].iter_mut().enumerate() {
                *b = grads.w[l][o * stride + n_in];
            }
            if l == 0 {
                break;
            }
            prev.clear();
            prev.resize(blocks * n_in * SHOT_LANES, 0.0);
            backward::back_delta(tier, &self.weights[l], n_in, delta, &lanes[l], prev);
            std::mem::swap(delta, prev);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blob_data(n_per: usize, seed: u64) -> TrainData {
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut inputs = Vec::new();
        let mut labels = Vec::new();
        let centers = [[0.0f32, 0.0], [3.0, 0.0], [0.0, 3.0]];
        for (c, center) in centers.iter().enumerate() {
            for _ in 0..n_per {
                inputs.push(vec![
                    center[0] + rng.gen::<f32>() - 0.5,
                    center[1] + rng.gen::<f32>() - 0.5,
                ]);
                labels.push(c);
            }
        }
        TrainData::new(inputs, labels, 3).unwrap()
    }

    #[test]
    fn data_validation() {
        assert_eq!(
            TrainData::new(vec![], vec![], 2).unwrap_err(),
            DataError::Empty
        );
        assert_eq!(
            TrainData::new(vec![vec![0.0]], vec![0, 1], 2).unwrap_err(),
            DataError::LengthMismatch
        );
        assert_eq!(
            TrainData::new(vec![vec![0.0], vec![0.0, 1.0]], vec![0, 1], 2).unwrap_err(),
            DataError::Ragged
        );
        assert_eq!(
            TrainData::new(vec![vec![0.0]], vec![5], 2).unwrap_err(),
            DataError::LabelOutOfRange
        );
    }

    #[test]
    fn learns_linearly_separable_blobs() {
        let train = blob_data(60, 1);
        let test = blob_data(30, 2);
        let mut mlp = Mlp::new(&[2, 8, 3], 0);
        let config = TrainConfig {
            epochs: 60,
            learning_rate: 0.01,
            batch_size: 16,
            ..TrainConfig::default()
        };
        mlp.train(&train, None, &config);
        assert!(mlp.evaluate(&test) > 0.97);
    }

    #[test]
    fn loss_decreases() {
        let train = blob_data(40, 3);
        let mut mlp = Mlp::new(&[2, 6, 3], 1);
        let report = mlp.train(
            &train,
            None,
            &TrainConfig {
                epochs: 20,
                learning_rate: 0.01,
                batch_size: 8,
                ..TrainConfig::default()
            },
        );
        let first = report.train_losses.first().copied().unwrap();
        let last = report.train_losses.last().copied().unwrap();
        assert!(last < first * 0.5, "loss {first} -> {last}");
    }

    #[test]
    fn early_stopping_restores_best_weights() {
        let train = blob_data(40, 4);
        let val = blob_data(20, 5);
        let mut mlp = Mlp::new(&[2, 6, 3], 2);
        let report = mlp.train(
            &train,
            Some(&val),
            &TrainConfig {
                epochs: 100,
                learning_rate: 0.02,
                batch_size: 8,
                early_stop_patience: Some(3),
                ..TrainConfig::default()
            },
        );
        assert!(!report.val_accuracies.is_empty());
        let best_acc = report.val_accuracies[report.best_epoch];
        // Restored weights must reproduce the best recorded accuracy.
        assert!((mlp.evaluate(&val) - best_acc).abs() < 1e-9);
    }

    #[test]
    fn training_is_deterministic() {
        let train = blob_data(30, 6);
        let config = TrainConfig {
            epochs: 5,
            ..TrainConfig::default()
        };
        let mut a = Mlp::new(&[2, 4, 3], 9);
        let ra = a.train(&train, None, &config);
        let mut b = Mlp::new(&[2, 4, 3], 9);
        let rb = b.train(&train, None, &config);
        assert_eq!(a, b);
        assert_eq!(ra, rb);
    }

    /// A test-local per-sample reference trainer: one allocating forward
    /// pass per sample through [`crate::dot_f32`], then softmax, backprop
    /// and an indexed Adam step, in `Mlp::train`'s shuffle and batch
    /// order.
    mod oracle {
        use super::*;

        fn forward_cached(mlp: &Mlp, x: &[f32]) -> Vec<Vec<f32>> {
            let n_layers = mlp.weights.len();
            let mut acts = vec![x.to_vec()];
            for l in 0..n_layers {
                let relu = l + 1 < n_layers;
                let n_in = acts[l].len();
                let out = mlp.weights[l]
                    .chunks_exact(n_in)
                    .zip(&mlp.biases[l])
                    .map(|(row, &bias)| {
                        let acc = bias + crate::dot_f32(row, &acts[l]);
                        if relu {
                            acc.max(0.0)
                        } else {
                            acc
                        }
                    })
                    .collect();
                acts.push(out);
            }
            acts
        }

        fn softmax(logits: &[f32]) -> Vec<f32> {
            let max = logits.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
            let exps: Vec<f32> = logits.iter().map(|&z| (z - max).exp()).collect();
            let sum: f32 = exps.iter().sum();
            exps.iter().map(|&e| e / sum).collect()
        }

        fn predict(mlp: &Mlp, x: &[f32]) -> usize {
            let acts = forward_cached(mlp, x);
            crate::mlp::argmax_f32(acts.last().unwrap())
        }

        fn accuracy(mlp: &Mlp, data: &TrainData, balanced: bool) -> f64 {
            let k = data.n_classes();
            let mut hits = vec![0usize; k];
            let mut counts = vec![0usize; k];
            for i in 0..data.len() {
                let (x, y) = data.sample(i);
                counts[y] += 1;
                if predict(mlp, x) == y {
                    hits[y] += 1;
                }
            }
            if !balanced {
                return hits.iter().sum::<usize>() as f64 / data.len() as f64;
            }
            let present: Vec<f64> = (0..k)
                .filter(|&c| counts[c] > 0)
                .map(|c| hits[c] as f64 / counts[c] as f64)
                .collect();
            present.iter().sum::<f64>() / present.len().max(1) as f64
        }

        fn backprop(
            mlp: &Mlp,
            x: &[f32],
            y: usize,
            sample_weight: f32,
            grad_w: &mut [Vec<f32>],
            grad_b: &mut [Vec<f32>],
        ) -> f64 {
            let acts = forward_cached(mlp, x);
            let n_layers = mlp.weights.len();
            let probs = softmax(&acts[n_layers]);
            let loss = -(probs[y].max(1e-12) as f64).ln() * sample_weight as f64;
            let mut delta: Vec<f32> = probs;
            delta[y] -= 1.0;
            if sample_weight != 1.0 {
                delta.iter_mut().for_each(|d| *d *= sample_weight);
            }
            for l in (0..n_layers).rev() {
                let a_in = &acts[l];
                let n_in = a_in.len();
                for (o, &d) in delta.iter().enumerate() {
                    grad_b[l][o] += d;
                    if d != 0.0 {
                        let g_row = &mut grad_w[l][o * n_in..(o + 1) * n_in];
                        for (g, &a) in g_row.iter_mut().zip(a_in) {
                            *g += d * a;
                        }
                    }
                }
                if l == 0 {
                    break;
                }
                let mut prev = vec![0.0f32; n_in];
                for (o, &d) in delta.iter().enumerate() {
                    if d != 0.0 {
                        let row = &mlp.weights[l][o * n_in..(o + 1) * n_in];
                        for (p, &w) in prev.iter_mut().zip(row) {
                            *p += d * w;
                        }
                    }
                }
                for (p, &a) in prev.iter_mut().zip(a_in) {
                    if a <= 0.0 {
                        *p = 0.0;
                    }
                }
                delta = prev;
            }
            loss
        }

        #[allow(clippy::too_many_arguments)]
        fn adam_step(
            param: &mut [f32],
            grad: &[f32],
            m: &mut [f32],
            v: &mut [f32],
            lr: f32,
            beta1: f32,
            beta2: f32,
            bc1: f32,
            bc2: f32,
            weight_decay: f32,
        ) {
            for i in 0..param.len() {
                let g = grad[i] + weight_decay * param[i];
                m[i] = beta1 * m[i] + (1.0 - beta1) * g;
                v[i] = beta2 * v[i] + (1.0 - beta2) * g * g;
                let m_hat = m[i] / bc1;
                let v_hat = v[i] / bc2;
                param[i] -= lr * m_hat / (v_hat.sqrt() + 1e-8);
            }
        }

        pub(super) fn train(
            mlp: &mut Mlp,
            data: &TrainData,
            val: Option<&TrainData>,
            config: &TrainConfig,
        ) -> TrainReport {
            let zeros = |v: &[Vec<f32>]| -> Vec<Vec<f32>> {
                v.iter().map(|w| vec![0.0; w.len()]).collect()
            };
            let (mut m_w, mut v_w) = (zeros(&mlp.weights), zeros(&mlp.weights));
            let (mut m_b, mut v_b) = (zeros(&mlp.biases), zeros(&mlp.biases));
            let (mut grad_w, mut grad_b) = (zeros(&mlp.weights), zeros(&mlp.biases));
            let mut t = 0i32;
            let mut order: Vec<usize> = (0..data.len()).collect();
            let mut rng = StdRng::seed_from_u64(config.seed);
            let mut report = TrainReport::default();
            let mut best: Option<Checkpoint> = None;
            let mut stale = 0usize;
            for epoch in 0..config.epochs {
                order.shuffle(&mut rng);
                let mut epoch_loss = 0.0f64;
                for batch in order.chunks(config.batch_size) {
                    grad_w.iter_mut().for_each(|g| g.fill(0.0));
                    grad_b.iter_mut().for_each(|g| g.fill(0.0));
                    for &i in batch {
                        let (x, y) = data.sample(i);
                        let w = config
                            .class_weights
                            .as_ref()
                            .map_or(1.0, |cw| cw.get(y).copied().unwrap_or(1.0));
                        epoch_loss += backprop(mlp, x, y, w, &mut grad_w, &mut grad_b);
                    }
                    let scale = 1.0 / batch.len() as f32;
                    t += 1;
                    let bc1 = 1.0 - config.beta1.powi(t);
                    let bc2 = 1.0 - config.beta2.powi(t);
                    for l in 0..mlp.weights.len() {
                        grad_w[l].iter_mut().for_each(|g| *g *= scale);
                        grad_b[l].iter_mut().for_each(|g| *g *= scale);
                        let (lr, b1, b2) = (config.learning_rate, config.beta1, config.beta2);
                        adam_step(
                            &mut mlp.weights[l],
                            &grad_w[l],
                            &mut m_w[l],
                            &mut v_w[l],
                            lr,
                            b1,
                            b2,
                            bc1,
                            bc2,
                            config.weight_decay,
                        );
                        adam_step(
                            &mut mlp.biases[l],
                            &grad_b[l],
                            &mut m_b[l],
                            &mut v_b[l],
                            lr,
                            b1,
                            b2,
                            bc1,
                            bc2,
                            0.0,
                        );
                    }
                }
                report.train_losses.push(epoch_loss / data.len() as f64);
                if let Some(val) = val {
                    let acc = accuracy(mlp, val, config.class_weights.is_some());
                    report.val_accuracies.push(acc);
                    if best.as_ref().is_none_or(|(b, _, _)| acc > *b) {
                        best = Some((acc, mlp.weights.clone(), mlp.biases.clone()));
                        report.best_epoch = epoch;
                        stale = 0;
                    } else {
                        stale += 1;
                        if config.early_stop_patience.is_some_and(|p| stale >= p) {
                            break;
                        }
                    }
                } else {
                    report.best_epoch = epoch;
                }
            }
            if let Some((_, w, b)) = best {
                mlp.weights = w;
                mlp.biases = b;
            }
            report
        }
    }

    /// `n` samples of 45 noisy features around three class centres, with
    /// the third class rare.
    fn head_data(n: usize, seed: u64) -> TrainData {
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut inputs = Vec::with_capacity(n);
        let mut labels = Vec::with_capacity(n);
        for i in 0..n {
            let y = if i % 13 == 0 { 2 } else { i % 2 };
            inputs.push(
                (0..45)
                    .map(|k| {
                        let centre = if k % 3 == y { 0.8 } else { -0.4 };
                        centre + 2.0 * rng.gen::<f32>() - 1.0
                    })
                    .collect(),
            );
            labels.push(y);
        }
        TrainData::new(inputs, labels, 3).unwrap()
    }

    /// `n` samples of 200 noisy features around nine class centres — the
    /// shape of a small raw-trace FNN.
    fn fnn_data(n: usize, seed: u64) -> TrainData {
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(seed);
        let inputs = (0..n)
            .map(|i| {
                (0..200)
                    .map(|k| {
                        let centre = if k % 9 == i % 9 { 0.7 } else { -0.2 };
                        centre + 2.0 * rng.gen::<f32>() - 1.0
                    })
                    .collect()
            })
            .collect();
        TrainData::new(inputs, (0..n).map(|i| i % 9).collect(), 9).unwrap()
    }

    #[test]
    fn training_is_bit_identical_to_the_per_sample_oracle() {
        // 300 samples: batch 64 leaves a ragged 44-sample last batch (a
        // ragged lane block too), batch 20 gives 8 + 8 + 4 lane blocks.
        let train = head_data(300, 21);
        let val = head_data(60, 22);
        let weights = inverse_frequency_weights(train.labels(), 3, 25.0);
        let base = TrainConfig {
            epochs: 8,
            learning_rate: 5e-3,
            seed: 4,
            ..TrainConfig::default()
        };
        // One NaN feature: every first-layer unit of that sample reads NaN,
        // its ReLU gives 0, so the sample's first-layer deltas are all
        // zero and only the `d != 0` skip keeps `0 · NaN` out of the
        // weight gradient.
        let mut poisoned = head_data(120, 23);
        poisoned.inputs[37][5] = f32::NAN;
        let fnn_train = fnn_data(150, 24);
        let fnn_val = fnn_data(40, 25);
        let cases = [
            (
                "weighted, validated, early stopping",
                &[45, 22, 11, 3][..],
                &train,
                &val,
                TrainConfig {
                    epochs: 40,
                    learning_rate: 3e-2,
                    early_stop_patience: Some(2),
                    class_weights: Some(weights.clone()),
                    ..base.clone()
                },
                true,
            ),
            (
                "weighted, validated, no early stopping",
                &[45, 22, 11, 3],
                &train,
                &val,
                TrainConfig {
                    early_stop_patience: None,
                    class_weights: Some(weights),
                    batch_size: 20,
                    ..base.clone()
                },
                true,
            ),
            (
                "unweighted, validated",
                &[45, 22, 11, 3],
                &train,
                &val,
                TrainConfig {
                    weight_decay: 1e-3,
                    ..base.clone()
                },
                true,
            ),
            (
                "unweighted, no validation",
                &[45, 22, 11, 3],
                &train,
                &val,
                base.clone(),
                false,
            ),
            (
                "non-finite input",
                &[45, 22, 11, 3],
                &poisoned,
                &val,
                TrainConfig {
                    batch_size: 16,
                    ..base.clone()
                },
                true,
            ),
            (
                "FNN shape, batch 13",
                &[200, 100, 50, 9],
                &fnn_train,
                &fnn_val,
                TrainConfig {
                    epochs: 3,
                    batch_size: 13,
                    ..base
                },
                true,
            ),
        ];
        let mut stopped_early = false;
        for tier in backward::Tier::on_host() {
            for (name, sizes, train, val, config, validated) in &cases {
                let val = validated.then_some(*val);
                let mut want = Mlp::new(sizes, 17);
                let want_report = oracle::train(&mut want, train, val, config);
                let mut got = Mlp::new(sizes, 17);
                let got_report = got.train_on(tier, train, val, config);
                assert_eq!(got_report, want_report, "{tier:?} {name}: report");
                let bits = |m: &Mlp| -> Vec<u32> {
                    m.weights
                        .iter()
                        .chain(&m.biases)
                        .flatten()
                        .map(|v| v.to_bits())
                        .collect()
                };
                assert!(
                    got.weights.iter().flatten().all(|w| w.is_finite()),
                    "{tier:?} {name}: weights left finite range"
                );
                assert_eq!(bits(&got), bits(&want), "{tier:?} {name}: parameters");
                assert_eq!(&got, &want, "{tier:?} {name}");
                stopped_early |= got_report.train_losses.len() < config.epochs;
            }
        }
        assert!(stopped_early, "no case exercised early stopping");
    }

    #[test]
    #[allow(clippy::needless_range_loop)] // index drives in-place weight nudges
    fn gradient_matches_finite_difference() {
        // Numerical check of backprop on a tiny network.
        let mut mlp = Mlp::new(&[2, 3, 2], 11);
        let x = [0.7f32, -0.4];
        let y = 1usize;
        let data = TrainData::new(vec![x.to_vec()], vec![y], 2).unwrap();
        let mut scratch = TrainScratch::new(&mlp, 1);
        let mut grads = Grads::new(&mlp);
        let mut loss = 0.0;
        mlp.forward_lanes(&data, &[0], &mut scratch);
        mlp.backward_lanes(
            Tier::host(),
            &data,
            &[0],
            None,
            &mut loss,
            &mut grads,
            &mut scratch,
        );
        let grad_w: Vec<Vec<f32>> = grads
            .w
            .iter()
            .zip(mlp.sizes())
            .map(|(g, &n_in)| {
                g.chunks_exact(row_stride(n_in + 1))
                    .flat_map(|row| &row[..n_in])
                    .copied()
                    .collect()
            })
            .collect();

        let loss_of = |mlp: &Mlp| {
            let p = mlp.predict_proba(&x);
            -(p[y] as f64).ln()
        };
        let eps = 1e-3f32;
        for l in 0..mlp.weights.len() {
            for i in (0..mlp.weights[l].len()).step_by(3) {
                let orig = mlp.weights[l][i];
                mlp.weights[l][i] = orig + eps;
                let lp = loss_of(&mlp);
                mlp.weights[l][i] = orig - eps;
                let lm = loss_of(&mlp);
                mlp.weights[l][i] = orig;
                let numeric = (lp - lm) / (2.0 * eps as f64);
                let analytic = grad_w[l][i] as f64;
                assert!(
                    (numeric - analytic).abs() < 2e-2,
                    "layer {l} weight {i}: numeric {numeric} vs analytic {analytic}"
                );
            }
        }
    }
}
