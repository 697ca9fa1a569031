//! The multi-layer perceptron: topology, initialisation, inference.

use rand::rngs::StdRng;
use rand::SeedableRng;
use rand_distr::{Distribution, Normal};
use serde::{Deserialize, Serialize};

/// A dense feed-forward network with ReLU hidden layers and linear output
/// (softmax is applied by the loss / [`Mlp::predict_proba`]).
///
/// Weights for layer `l` are stored row-major as `[out][in]`, biases as
/// `[out]`. See the crate docs for the three paper topologies.
///
/// # Examples
///
/// ```
/// use mlr_nn::Mlp;
///
/// let mlp = Mlp::new(&[45, 22, 11, 3], 0);
/// assert_eq!(mlp.param_count(), 45 * 22 + 22 * 11 + 11 * 3 + 22 + 11 + 3);
/// assert_eq!(mlp.forward(&vec![0.0; 45]).len(), 3);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Mlp {
    sizes: Vec<usize>,
    /// `weights[l][o * sizes[l] + i]` connects input `i` to output `o`.
    pub(crate) weights: Vec<Vec<f32>>,
    pub(crate) biases: Vec<Vec<f32>>,
}

impl Mlp {
    /// Creates a network with He-initialised weights and zero biases.
    ///
    /// `sizes` lists the layer widths from input to output, e.g.
    /// `[1000, 500, 250, 243]` for the paper's FNN baseline.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two sizes are given or any size is zero.
    pub fn new(sizes: &[usize], seed: u64) -> Self {
        assert!(sizes.len() >= 2, "need at least input and output layers");
        assert!(sizes.iter().all(|&s| s > 0), "layer sizes must be positive");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut weights = Vec::with_capacity(sizes.len() - 1);
        let mut biases = Vec::with_capacity(sizes.len() - 1);
        for l in 0..sizes.len() - 1 {
            let (fan_in, fan_out) = (sizes[l], sizes[l + 1]);
            // He initialisation for ReLU units.
            let std = (2.0 / fan_in as f64).sqrt();
            let dist = Normal::new(0.0, std).expect("positive std");
            weights.push(
                (0..fan_in * fan_out)
                    .map(|_| dist.sample(&mut rng) as f32)
                    .collect(),
            );
            biases.push(vec![0.0f32; fan_out]);
        }
        Self {
            sizes: sizes.to_vec(),
            weights,
            biases,
        }
    }

    /// Layer widths from input to output.
    pub fn sizes(&self) -> &[usize] {
        &self.sizes
    }

    /// Input dimensionality.
    pub fn input_len(&self) -> usize {
        self.sizes[0]
    }

    /// Number of output classes.
    pub fn output_len(&self) -> usize {
        *self.sizes.last().expect("nonempty sizes")
    }

    /// Number of dense layers (`sizes.len() − 1`).
    pub fn n_layers(&self) -> usize {
        self.weights.len()
    }

    /// Layer `l`'s row-major weight matrix (`[out × in]`, flattened as
    /// `w[o * sizes[l] + i]`) — read access for the inference-plan
    /// compiler, which folds affine pre-processing into these weights.
    ///
    /// # Panics
    ///
    /// Panics if `l` is out of range.
    pub fn layer_weights(&self, l: usize) -> &[f32] {
        &self.weights[l]
    }

    /// Layer `l`'s bias vector (`[out]`).
    ///
    /// # Panics
    ///
    /// Panics if `l` is out of range.
    pub fn layer_biases(&self, l: usize) -> &[f32] {
        &self.biases[l]
    }

    /// Total number of trainable parameters (weights + biases).
    pub fn param_count(&self) -> usize {
        self.weights.iter().map(Vec::len).sum::<usize>()
            + self.biases.iter().map(Vec::len).sum::<usize>()
    }

    /// Number of weight parameters only — the figure the paper quotes when
    /// comparing model sizes (686 k for the FNN).
    pub fn weight_count(&self) -> usize {
        self.weights.iter().map(Vec::len).sum()
    }

    /// Dense layer primitive: `out = W x + b`, ReLU if `relu`. Scored by
    /// the workspace's shared explicit-SIMD dot ([`crate::dot_f32`]) — the
    /// same kernel the compiled inference plans and their reference
    /// interpreter run on, so all of them share one arithmetic (training
    /// scores its mini-batches through the bit-identical
    /// [`crate::dot_lanes`]).
    #[inline]
    fn layer_forward(w: &[f32], b: &[f32], x: &[f32], relu: bool, out: &mut Vec<f32>) {
        out.clear();
        let n_in = x.len();
        for (row, &bias) in w.chunks_exact(n_in).zip(b) {
            let acc = bias + crate::dot_f32(row, x);
            out.push(if relu { acc.max(0.0) } else { acc });
        }
    }

    /// Runs the network, returning output logits.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from the input width.
    pub fn forward(&self, x: &[f32]) -> Vec<f32> {
        let mut scratch = ForwardScratch::default();
        self.forward_scratch(x, &mut scratch);
        scratch.take_output()
    }

    /// Runs the network into a caller-held ping-pong scratch, returning the
    /// output logits as a borrow. Identical arithmetic to [`Mlp::forward`],
    /// but a hot loop (batch inference, per-epoch evaluation during
    /// training) reuses the same two buffers for every row instead of
    /// allocating fresh `Vec`s per layer per call.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from the input width.
    pub fn forward_scratch<'s>(&self, x: &[f32], scratch: &'s mut ForwardScratch) -> &'s [f32] {
        assert_eq!(x.len(), self.input_len(), "input length mismatch");
        let n_layers = self.weights.len();
        scratch.cur.clear();
        scratch.cur.extend_from_slice(x);
        for l in 0..n_layers {
            let relu = l + 1 < n_layers;
            Self::layer_forward(
                &self.weights[l],
                &self.biases[l],
                &scratch.cur,
                relu,
                &mut scratch.next,
            );
            std::mem::swap(&mut scratch.cur, &mut scratch.next);
        }
        &scratch.cur
    }

    /// Forward pass that also returns every layer's post-activation values
    /// (index 0 is the input itself) — used by backpropagation.
    pub(crate) fn forward_cached(&self, x: &[f32]) -> Vec<Vec<f32>> {
        let n_layers = self.weights.len();
        let mut acts = Vec::with_capacity(n_layers + 1);
        acts.push(x.to_vec());
        for l in 0..n_layers {
            let relu = l + 1 < n_layers;
            let mut out = Vec::new();
            Self::layer_forward(&self.weights[l], &self.biases[l], &acts[l], relu, &mut out);
            acts.push(out);
        }
        acts
    }

    /// Every layer's post-activation values for one input; index 0 is the
    /// input itself, the last entry equals [`Mlp::forward`].
    ///
    /// This exposes hidden representations — the autoencoder baseline reads
    /// its bottleneck code from here.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from the input width.
    pub fn layer_outputs(&self, x: &[f32]) -> Vec<Vec<f32>> {
        assert_eq!(x.len(), self.input_len(), "input length mismatch");
        self.forward_cached(x)
    }

    /// Softmax class probabilities.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from the input width.
    pub fn predict_proba(&self, x: &[f32]) -> Vec<f32> {
        softmax(&self.forward(x))
    }

    /// Hard class prediction (argmax of the logits; ties resolve to the
    /// lowest class index).
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from the input width.
    pub fn predict(&self, x: &[f32]) -> usize {
        let logits = self.forward(x);
        argmax_f32(&logits)
    }

    /// [`Mlp::predict`] through a caller-held scratch — same decision,
    /// no per-row allocation.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from the input width.
    pub fn predict_scratch(&self, x: &[f32], scratch: &mut ForwardScratch) -> usize {
        argmax_f32(self.forward_scratch(x, scratch))
    }

    /// Hard class predictions for a batch of rows, decided exactly as
    /// [`Mlp::predict`] decides each row. Iterating rows under one call
    /// keeps the layer weights cache-resident across the whole batch and
    /// reuses one ping-pong scratch for every row — the network-stage half
    /// of the batched inference paths.
    ///
    /// # Panics
    ///
    /// Panics if any row length differs from the input width.
    pub fn predict_batch(&self, rows: &[Vec<f32>]) -> Vec<usize> {
        let mut scratch = ForwardScratch::default();
        rows.iter()
            .map(|r| self.predict_scratch(r, &mut scratch))
            .collect()
    }

    /// Marginal decoding for joint classifiers over a base-`levels` product
    /// alphabet: sums the softmax mass of every joint class sharing each
    /// digit value and returns the per-digit argmax.
    ///
    /// For a readout model whose `levelsⁿ` outputs enumerate joint basis
    /// states in flat-index order (qubit 0 = most significant digit), this
    /// is the optimal per-qubit decision rule and pools statistical
    /// strength across rare joint classes.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from the input width or the output layer
    /// is not exactly `levels^n_digits`.
    pub fn predict_marginal(&self, x: &[f32], n_digits: usize, levels: usize) -> Vec<usize> {
        let n_out = self.output_len();
        assert_eq!(
            n_out,
            levels.pow(n_digits as u32),
            "output layer is not levels^n_digits"
        );
        let probs = self.predict_proba(x);
        let mut marginals = vec![vec![0.0f32; levels]; n_digits];
        for (class, &p) in probs.iter().enumerate() {
            let mut rem = class;
            for digit in (0..n_digits).rev() {
                marginals[digit][rem % levels] += p;
                rem /= levels;
            }
        }
        marginals.iter().map(|m| argmax_f32(m)).collect()
    }
}

/// Reusable ping-pong buffers for [`Mlp::forward_scratch`]: the forward
/// pass alternates between `cur` and `next` layer by layer, so a network of
/// any depth needs exactly two buffers and a hot loop allocates neither.
#[derive(Debug, Clone, Default)]
pub struct ForwardScratch {
    cur: Vec<f32>,
    next: Vec<f32>,
}

impl ForwardScratch {
    /// Moves the most recent forward pass's output logits out of the
    /// scratch (leaving it reusable).
    fn take_output(&mut self) -> Vec<f32> {
        std::mem::take(&mut self.cur)
    }
}

/// Numerically stable softmax.
pub(crate) fn softmax(logits: &[f32]) -> Vec<f32> {
    let mut probs = Vec::with_capacity(logits.len());
    softmax_into(logits, &mut probs);
    probs
}

/// [`softmax`] into a caller-held buffer (cleared first): the same
/// exponentials, sum and divisions, without the allocations.
pub(crate) fn softmax_into(logits: &[f32], probs: &mut Vec<f32>) {
    let max = logits.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
    probs.clear();
    probs.extend(logits.iter().map(|&z| (z - max).exp()));
    let sum: f32 = probs.iter().sum();
    probs.iter_mut().for_each(|e| *e /= sum);
}

/// Argmax over f32 values; ties resolve to the lowest index.
pub(crate) fn argmax_f32(xs: &[f32]) -> usize {
    xs.iter()
        .enumerate()
        .fold((0usize, f32::NEG_INFINITY), |(bi, bx), (i, &x)| {
            if x > bx {
                (i, x)
            } else {
                (bi, bx)
            }
        })
        .0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_topologies_have_expected_weight_counts() {
        // FNN baseline: 685,750 weights ("almost 686k" in the paper).
        let fnn = Mlp::new(&[1000, 500, 250, 243], 0);
        assert_eq!(fnn.weight_count(), 1000 * 500 + 500 * 250 + 250 * 243);
        assert_eq!(fnn.weight_count(), 685_750);
        // HERQULES three-level: ~38k.
        let herq = Mlp::new(&[30, 60, 120, 243], 0);
        assert_eq!(herq.weight_count(), 38_160);
        // Ours, per qubit: 1,265 weights.
        let ours = Mlp::new(&[45, 22, 11, 3], 0);
        assert_eq!(ours.weight_count(), 1_265);
        // Ratios quoted in the paper: ~100x vs FNN, ~10x vs HERQULES for a
        // five-qubit chip.
        let ours_total = ours.weight_count() * 5;
        assert!(fnn.weight_count() / ours_total > 90);
        assert!(herq.weight_count() / ours_total >= 6);
    }

    #[test]
    fn forward_shape_and_determinism() {
        let mlp = Mlp::new(&[4, 8, 3], 7);
        let x = [0.5, -1.0, 2.0, 0.0];
        assert_eq!(mlp.forward(&x).len(), 3);
        assert_eq!(mlp.forward(&x), mlp.forward(&x));
        let other = Mlp::new(&[4, 8, 3], 8);
        assert_ne!(mlp.forward(&x), other.forward(&x));
    }

    #[test]
    fn zero_input_gives_bias_only_output() {
        let mut mlp = Mlp::new(&[2, 2], 0);
        mlp.biases[0] = vec![1.5, -0.5];
        let out = mlp.forward(&[0.0, 0.0]);
        assert_eq!(out, vec![1.5, -0.5]);
    }

    #[test]
    fn softmax_sums_to_one() {
        let p = softmax(&[1.0, 2.0, 3.0]);
        assert!((p.iter().sum::<f32>() - 1.0).abs() < 1e-6);
        assert!(p[2] > p[1] && p[1] > p[0]);
        // Stable under large logits.
        let p = softmax(&[1000.0, 1001.0]);
        assert!(p.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn relu_hidden_linear_output() {
        // One hidden unit with a negative pre-activation must be clamped.
        let mut mlp = Mlp::new(&[1, 1, 1], 0);
        mlp.weights[0] = vec![1.0];
        mlp.biases[0] = vec![0.0];
        mlp.weights[1] = vec![1.0];
        mlp.biases[1] = vec![0.0];
        assert_eq!(mlp.forward(&[-3.0]), vec![0.0]); // ReLU clamps hidden
        assert_eq!(mlp.forward(&[2.0]), vec![2.0]);
    }

    #[test]
    fn cached_forward_matches_forward() {
        let mlp = Mlp::new(&[3, 5, 4], 3);
        let x = [0.1, 0.2, -0.3];
        let acts = mlp.forward_cached(&x);
        assert_eq!(acts.len(), 3);
        assert_eq!(acts[2], mlp.forward(&x));
    }

    #[test]
    fn argmax_tie_breaks_low() {
        assert_eq!(argmax_f32(&[1.0, 1.0, 0.5]), 0);
        assert_eq!(argmax_f32(&[0.0, 2.0, 2.0]), 1);
    }

    #[test]
    #[should_panic(expected = "input length mismatch")]
    fn forward_checks_input_len() {
        let mlp = Mlp::new(&[3, 2], 0);
        let _ = mlp.forward(&[1.0]);
    }
}
