//! Minibatch Adam training with mean-squared-error loss.
//!
//! Classification heads train on cross-entropy ([`crate::TrainData`] /
//! [`Mlp::train`]); the autoencoder baseline in `mlr-core` instead
//! regresses its own input, which needs a vector-target dataset and an MSE
//! backward pass. Everything else (topology, Adam, early stopping) is
//! shared with the classifier path.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::mlp::Mlp;
use crate::train::{Adam, DataError, TrainConfig};

/// A vector-regression dataset: each input row maps to a target row of
/// fixed (possibly different) dimensionality.
///
/// # Examples
///
/// ```
/// use mlr_nn::RegressionData;
///
/// // Identity targets, as an autoencoder would use.
/// let rows = vec![vec![0.0, 1.0], vec![1.0, 0.0]];
/// let data = RegressionData::new(rows.clone(), rows).unwrap();
/// assert_eq!(data.len(), 2);
/// assert_eq!(data.target_dim(), 2);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct RegressionData {
    inputs: Vec<Vec<f32>>,
    targets: Vec<Vec<f32>>,
}

impl RegressionData {
    /// Validates and wraps a regression dataset.
    ///
    /// # Errors
    ///
    /// Returns [`DataError::Empty`] when no samples are given,
    /// [`DataError::LengthMismatch`] when `inputs` and `targets` differ in
    /// length, and [`DataError::Ragged`] when rows of either side differ in
    /// dimensionality.
    pub fn new(inputs: Vec<Vec<f32>>, targets: Vec<Vec<f32>>) -> Result<Self, DataError> {
        if inputs.is_empty() {
            return Err(DataError::Empty);
        }
        if inputs.len() != targets.len() {
            return Err(DataError::LengthMismatch);
        }
        let in_dim = inputs[0].len();
        let out_dim = targets[0].len();
        if inputs.iter().any(|x| x.len() != in_dim) || targets.iter().any(|t| t.len() != out_dim) {
            return Err(DataError::Ragged);
        }
        Ok(Self { inputs, targets })
    }

    /// Autoencoder construction: every row is its own target.
    ///
    /// # Errors
    ///
    /// As for [`RegressionData::new`].
    pub fn identity(inputs: Vec<Vec<f32>>) -> Result<Self, DataError> {
        let targets = inputs.clone();
        Self::new(inputs, targets)
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.inputs.len()
    }

    /// `true` when there are no samples (unreachable after construction).
    pub fn is_empty(&self) -> bool {
        self.inputs.is_empty()
    }

    /// Input dimensionality.
    pub fn input_dim(&self) -> usize {
        self.inputs[0].len()
    }

    /// Target dimensionality.
    pub fn target_dim(&self) -> usize {
        self.targets[0].len()
    }

    /// Borrows sample `i` as `(input, target)`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn sample(&self, i: usize) -> (&[f32], &[f32]) {
        (&self.inputs[i], &self.targets[i])
    }

    /// Borrows all inputs.
    pub fn inputs(&self) -> &[Vec<f32>] {
        &self.inputs
    }
}

/// Per-epoch telemetry returned by [`Mlp::train_regression`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RegressionReport {
    /// Mean squared error per training epoch.
    pub train_losses: Vec<f64>,
    /// Validation MSE per epoch (empty without a validation set).
    pub val_losses: Vec<f64>,
    /// Epoch whose weights were kept (lowest validation MSE, or the last
    /// epoch without a validation set).
    pub best_epoch: usize,
}

impl Mlp {
    /// Trains the network with minibatch Adam on mean-squared error.
    ///
    /// The output layer stays linear (as in classification the softmax is
    /// external, here there is none), so the network can regress arbitrary
    /// real targets. With a validation set, the weights with the lowest
    /// validation MSE are restored at the end and
    /// [`TrainConfig::early_stop_patience`] can cut training short.
    /// [`TrainConfig::class_weights`] is ignored — there are no classes.
    ///
    /// # Panics
    ///
    /// Panics if the data dimensions do not match the network topology or
    /// `batch_size == 0`.
    pub fn train_regression(
        &mut self,
        data: &RegressionData,
        val: Option<&RegressionData>,
        config: &TrainConfig,
    ) -> RegressionReport {
        assert_eq!(data.input_dim(), self.input_len(), "input width mismatch");
        assert_eq!(
            data.target_dim(),
            self.output_len(),
            "target width mismatch"
        );
        assert!(config.batch_size > 0, "batch_size must be positive");

        let mut adam = Adam::new(self);
        let mut grad_w: Vec<Vec<f32>> = self.weights.iter().map(|w| vec![0.0; w.len()]).collect();
        let mut grad_b: Vec<Vec<f32>> = self.biases.iter().map(|b| vec![0.0; b.len()]).collect();

        let mut order: Vec<usize> = (0..data.len()).collect();
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut report = RegressionReport::default();
        let mut best: Option<crate::train::Checkpoint> = None;
        let mut stale = 0usize;

        for epoch in 0..config.epochs {
            order.shuffle(&mut rng);
            let mut epoch_loss = 0.0f64;
            for batch in order.chunks(config.batch_size) {
                grad_w.iter_mut().for_each(|g| g.fill(0.0));
                grad_b.iter_mut().for_each(|g| g.fill(0.0));
                for &i in batch {
                    let (x, t) = data.sample(i);
                    epoch_loss += self.backprop_mse(x, t, &mut grad_w, &mut grad_b);
                }
                let scale = 1.0 / batch.len() as f32;
                adam.t += 1;
                let bc1 = 1.0 - config.beta1.powi(adam.t);
                let bc2 = 1.0 - config.beta2.powi(adam.t);
                for l in 0..self.weights.len() {
                    grad_w[l].iter_mut().for_each(|g| *g *= scale);
                    grad_b[l].iter_mut().for_each(|g| *g *= scale);
                    Adam::step_inplace(
                        &mut self.weights[l],
                        &grad_w[l],
                        &mut adam.m_w[l],
                        &mut adam.v_w[l],
                        config.learning_rate,
                        config.beta1,
                        config.beta2,
                        bc1,
                        bc2,
                        config.weight_decay,
                    );
                    Adam::step_inplace(
                        &mut self.biases[l],
                        &grad_b[l],
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
                let loss = self.mse(val);
                report.val_losses.push(loss);
                if best.as_ref().is_none_or(|(b, _, _)| loss < *b) {
                    best = Some((loss, self.weights.clone(), self.biases.clone()));
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

    /// Mean squared error of the network over a regression dataset
    /// (averaged over samples and output units).
    ///
    /// # Panics
    ///
    /// Panics if the data dimensions do not match the network topology.
    pub fn mse(&self, data: &RegressionData) -> f64 {
        let mut total = 0.0f64;
        for i in 0..data.len() {
            let (x, t) = data.sample(i);
            let y = self.forward(x);
            total += y
                .iter()
                .zip(t)
                .map(|(a, b)| ((a - b) as f64).powi(2))
                .sum::<f64>();
        }
        total / (data.len() * data.target_dim()) as f64
    }

    /// One-sample MSE backprop accumulating gradients; returns the sample's
    /// mean squared error over output units.
    ///
    /// Loss is `L = (1/k) Σ (ŷ − t)²` so the output delta is
    /// `2 (ŷ − t) / k`, keeping gradient magnitudes comparable across
    /// output widths.
    fn backprop_mse(
        &self,
        x: &[f32],
        target: &[f32],
        grad_w: &mut [Vec<f32>],
        grad_b: &mut [Vec<f32>],
    ) -> f64 {
        let acts = self.forward_cached(x);
        let n_layers = self.weights.len();
        let output = &acts[n_layers];
        let k = output.len() as f32;

        let mut loss = 0.0f64;
        let mut delta: Vec<f32> = output
            .iter()
            .zip(target)
            .map(|(&y, &t)| {
                let e = y - t;
                loss += (e as f64).powi(2);
                2.0 * e / k
            })
            .collect();
        loss /= k as f64;

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
                    let row = &self.weights[l][o * n_in..(o + 1) * n_in];
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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_validates() {
        assert_eq!(
            RegressionData::new(vec![], vec![]).unwrap_err(),
            DataError::Empty
        );
        assert_eq!(
            RegressionData::new(vec![vec![1.0]], vec![]).unwrap_err(),
            DataError::LengthMismatch
        );
        assert_eq!(
            RegressionData::new(vec![vec![1.0], vec![1.0, 2.0]], vec![vec![0.0], vec![0.0]])
                .unwrap_err(),
            DataError::Ragged
        );
        let ok = RegressionData::identity(vec![vec![1.0, 2.0]]).unwrap();
        assert_eq!(ok.input_dim(), 2);
        assert_eq!(ok.target_dim(), 2);
    }

    #[test]
    fn learns_a_linear_map() {
        // y = [x0 + x1, x0 - x1] is exactly representable; MSE must go
        // essentially to zero.
        let mut inputs = Vec::new();
        let mut targets = Vec::new();
        for i in 0..50 {
            let x0 = (i as f32) / 25.0 - 1.0;
            let x1 = ((i * 7) % 50) as f32 / 25.0 - 1.0;
            inputs.push(vec![x0, x1]);
            targets.push(vec![x0 + x1, x0 - x1]);
        }
        let data = RegressionData::new(inputs, targets).unwrap();
        let mut mlp = Mlp::new(&[2, 8, 2], 3);
        let config = TrainConfig {
            epochs: 300,
            learning_rate: 0.01,
            batch_size: 10,
            early_stop_patience: None,
            ..TrainConfig::default()
        };
        let report = mlp.train_regression(&data, None, &config);
        assert!(report.train_losses.len() == 300);
        assert!(
            mlp.mse(&data) < 1e-3,
            "final mse {} should be tiny",
            mlp.mse(&data)
        );
        // Loss decreased over training.
        assert!(report.train_losses[299] < report.train_losses[0] / 10.0);
    }

    #[test]
    fn autoencoder_compresses_correlated_data() {
        // Inputs live on a 1-D manifold inside R^4; a width-1 bottleneck
        // reconstructs them much better than predicting the mean.
        let mut rows = Vec::new();
        for i in 0..80 {
            let t = (i as f32) / 40.0 - 1.0;
            rows.push(vec![t, 2.0 * t, -t, 0.5 * t]);
        }
        let data = RegressionData::identity(rows).unwrap();
        let mut ae = Mlp::new(&[4, 1, 4], 7);
        let config = TrainConfig {
            epochs: 400,
            learning_rate: 0.02,
            batch_size: 16,
            early_stop_patience: None,
            ..TrainConfig::default()
        };
        ae.train_regression(&data, None, &config);
        // Mean-prediction MSE: variance of each channel. For t uniform in
        // [-1,1): var(t) = 1/3 scaled per channel; mean over channels.
        let mse = ae.mse(&data);
        assert!(mse < 0.05, "bottleneck mse {mse}");
    }

    #[test]
    fn validation_early_stopping_restores_best() {
        let rows: Vec<Vec<f32>> = (0..20).map(|i| vec![(i as f32) / 10.0 - 1.0]).collect();
        let data = RegressionData::identity(rows.clone()).unwrap();
        let val = RegressionData::identity(rows).unwrap();
        let mut mlp = Mlp::new(&[1, 4, 1], 1);
        let config = TrainConfig {
            epochs: 50,
            learning_rate: 0.01,
            batch_size: 4,
            early_stop_patience: Some(5),
            ..TrainConfig::default()
        };
        let report = mlp.train_regression(&data, Some(&val), &config);
        assert!(!report.val_losses.is_empty());
        let best_val = report
            .val_losses
            .iter()
            .cloned()
            .fold(f64::INFINITY, f64::min);
        // The restored weights achieve the best recorded validation loss.
        assert!((mlp.mse(&val) - best_val).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "target width mismatch")]
    fn target_width_is_checked() {
        let data = RegressionData::new(vec![vec![0.0]], vec![vec![0.0, 1.0]]).unwrap();
        let mut mlp = Mlp::new(&[1, 1], 0);
        let _ = mlp.train_regression(&data, None, &TrainConfig::default());
    }

    #[test]
    #[allow(clippy::needless_range_loop)] // index drives in-place weight nudges
    fn mse_gradient_matches_finite_difference() {
        let mut mlp = Mlp::new(&[2, 3, 2], 5);
        let x = [0.3f32, -0.8];
        let t = [0.5f32, 0.25];
        let mut grad_w: Vec<Vec<f32>> = mlp.weights.iter().map(|w| vec![0.0; w.len()]).collect();
        let mut grad_b: Vec<Vec<f32>> = mlp.biases.iter().map(|b| vec![0.0; b.len()]).collect();
        mlp.backprop_mse(&x, &t, &mut grad_w, &mut grad_b);

        let loss_of = |mlp: &Mlp| {
            let y = mlp.forward(&x);
            y.iter()
                .zip(&t)
                .map(|(a, b)| ((a - b) as f64).powi(2))
                .sum::<f64>()
                / t.len() as f64
        };
        let eps = 1e-3f32;
        for l in 0..mlp.weights.len() {
            for i in 0..mlp.weights[l].len() {
                let orig = mlp.weights[l][i];
                mlp.weights[l][i] = orig + eps;
                let lp = loss_of(&mlp);
                mlp.weights[l][i] = orig - eps;
                let lm = loss_of(&mlp);
                mlp.weights[l][i] = orig;
                let numeric = (lp - lm) / (2.0 * eps as f64);
                let analytic = grad_w[l][i] as f64;
                assert!(
                    (numeric - analytic).abs() < 1e-3 * (1.0 + analytic.abs()),
                    "layer {l} weight {i}: numeric {numeric} vs analytic {analytic}"
                );
            }
        }
    }
}
