//! The op graph: a declarative description of one discriminator's per-shot
//! inference pipeline, built from the fitted model's pieces and consumed by
//! the folding passes ([`crate::plan::fuse`]) and the lowering step
//! ([`crate::plan::CompiledPlan`]).
//!
//! A graph is a straight **trunk** (ops every head shares) feeding one
//! **output stage** (the family-specific decision structure):
//!
//! ```text
//! FlattenIq → MfBank → Affine → ┬ Branch 0: Dense…Dense → argmax
//!                               ├ Branch 1: …
//!                               └ …
//! ```
//!
//! All weights are carried in `f64` so the folding algebra happens at the
//! precision the model was fitted in; the executor casts once at lowering.

use mlr_nn::{IntMlp, Mlp};

/// Elementwise affine `y_i = x_i · scale_i + shift_i` — the graph form of
/// the standardizer, with `scale = 1/σ` and `shift = −μ/σ`.
#[derive(Debug, Clone)]
pub struct AffineOp {
    /// Per-feature multiplier.
    pub scale: Vec<f64>,
    /// Per-feature offset, applied after scaling.
    pub shift: Vec<f64>,
}

/// Dense layer `y = W·x + b`, optionally followed by ReLU.
#[derive(Debug, Clone)]
pub struct DenseOp {
    /// Input width.
    pub n_in: usize,
    /// Output width.
    pub n_out: usize,
    /// Row-major weights, `w[o * n_in + i]`.
    pub w: Vec<f64>,
    /// Biases, one per output.
    pub b: Vec<f64>,
    /// Apply ReLU after the affine map (hidden layers).
    pub relu: bool,
}

impl DenseOp {
    /// Lifts layer `l` of a trained [`Mlp`] into the graph (hidden layers
    /// get `relu = true`, the output layer stays linear — exactly the
    /// network's own forward rule).
    ///
    /// # Panics
    ///
    /// Panics if `l` is out of range.
    pub fn from_mlp_layer(mlp: &Mlp, l: usize) -> Self {
        Self {
            n_in: mlp.sizes()[l],
            n_out: mlp.sizes()[l + 1],
            w: mlp.layer_weights(l).iter().map(|&x| f64::from(x)).collect(),
            b: mlp.layer_biases(l).iter().map(|&x| f64::from(x)).collect(),
            relu: l + 1 < mlp.n_layers(),
        }
    }

    /// Lifts every layer of an [`Mlp`] into a dense chain.
    pub fn chain_from_mlp(mlp: &Mlp) -> Vec<Self> {
        (0..mlp.n_layers())
            .map(|l| Self::from_mlp_layer(mlp, l))
            .collect()
    }
}

/// Matched-filter bank: one dot product per row against the flattened
/// `[re, im, …]` trace, in the same pre-rotated raw-trace domain as
/// [`crate::FeatureExtractor`]'s fused kernels, plus an optional per-row
/// bias (zero until a folding pass pushes one in).
#[derive(Debug, Clone)]
pub struct MfBankOp {
    /// Raw-domain kernel rows, each `2 × n_samples` interleaved weights.
    pub rows: Vec<Vec<f64>>,
    /// Per-row bias added to each dot product.
    pub bias: Vec<f64>,
    /// Apply ReLU after each row's dot + bias. Matched-filter banks are
    /// linear (`false`); a dense *hidden* layer folded down into the bank —
    /// the FNN's first layer scored directly against the raw trace —
    /// carries its activation with it (`true`). A ReLU bank is a fusion
    /// barrier: nothing linear can fold across it.
    pub relu: bool,
}

/// One trunk op, shared by every output branch.
#[derive(Debug, Clone)]
pub enum Op {
    /// Interleave the complex trace as `[re, im, re, im, …]`.
    FlattenIq {
        /// Expected trace length (the readout window).
        n_samples: usize,
    },
    /// Matched-filter bank scoring.
    MfBank(MfBankOp),
    /// Elementwise affine (standardisation).
    Affine(AffineOp),
}

/// One per-qubit head: a slice of the trunk features through a dense
/// chain, decided by argmax. An empty chain means the features *are* the
/// logits (a fully collapsed linear head).
#[derive(Debug, Clone)]
pub struct Branch {
    /// Feature range this branch reads; `None` reads the whole vector.
    pub take: Option<std::ops::Range<usize>>,
    /// Dense layers from features to logits.
    pub layers: Vec<DenseOp>,
}

/// The family-specific decision structure at the end of the trunk.
#[derive(Debug, Clone)]
pub enum OutputStage {
    /// Independent per-qubit heads, each argmaxed separately (OURS).
    PerQubit {
        /// One branch per qubit, in qubit order.
        branches: Vec<Branch>,
    },
    /// One joint head over all qubits: argmax over `levelsⁿ` classes,
    /// decoded into per-qubit digits (HERQULES).
    Joint {
        /// Dense layers from features to the joint logits.
        layers: Vec<DenseOp>,
        /// Qubit count the joint class index decodes into.
        n_qubits: usize,
        /// Level-alphabet size per qubit.
        levels: usize,
    },
    /// One joint head whose `levelsⁿ` softmax is decoded by per-qubit
    /// *marginals* rather than a joint argmax: the mass of every joint
    /// class sharing each digit value is summed and each digit argmaxed
    /// separately — `Mlp::predict_marginal`'s rule, used by the FNN
    /// baseline. Needs the full softmax, so argmax cannot fuse into the
    /// last layer here.
    JointMarginal {
        /// Dense layers from features to the joint logits.
        layers: Vec<DenseOp>,
        /// Digit count (qubits) the marginals decode into.
        n_qubits: usize,
        /// Level-alphabet size per digit.
        levels: usize,
    },
    /// Per-qubit integer (fixed-point) heads. These quantise their own
    /// input, so no float folding can cross this boundary — the trunk must
    /// deliver standardised features (OURS-INT).
    PerQubitInt {
        /// One quantised head per qubit, in qubit order.
        heads: Vec<IntMlp>,
    },
}

/// A whole inference pipeline: trunk ops feeding the output stage.
#[derive(Debug, Clone)]
pub struct OpGraph {
    /// Shared ops, applied in order to each shot.
    pub trunk: Vec<Op>,
    /// The decision structure consuming the trunk's features.
    pub output: OutputStage,
}
