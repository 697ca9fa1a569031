//! Single-pass fused inference plans.
//!
//! A discriminator's per-shot pipeline — flatten IQ, matched-filter bank,
//! standardise, head, argmax — is layered code: each stage materialises
//! its output before the next starts. This module is a small compiler that
//! removes those seams. The pipeline is first described as an op graph
//! ([`OpGraph`]), algebraic folding passes then absorb the standardizer
//! into neighbouring weights ([`fuse`]), and the result lowers to `f32`
//! tile kernels executed tile-major ([`CompiledPlan`]):
//!
//! ```text
//!   build             fuse                        lower
//! FlattenIq         FlattenIq                  CompiledPlan
//! MfBank      ──►   MfBank  (∘ 1/σ, −μ/σ)  ──►   rows: contiguous f32
//! Affine            heads  (W∘s, b + W·t)        tiles of 16 shots
//! heads
//! ```
//!
//! | stage | kernel | blocking | per-pair order |
//! |---|---|---|---|
//! | bank | [`dot_tile`] | AVX-512: 3 rows × 4 shots, one pass; AVX2: 2 rows × 3 shots, two half passes per 32-float chunk | `dot_f32` |
//! | heads | [`dot_lanes`] | one layer over 8 shot lanes, 4 output rows at a time | `dot_f32` |
//! | decide | scalar | per shot | argmax, joint or marginal decoding, integer heads |
//!
//! Both kernels keep each (row, shot) pair's reduction exactly as the
//! single-pair [`dot_f32`] performs it (32 accumulators, `(acc0+acc1)+(acc2+acc3)`, the fixed horizontal tree,
//! the serial remainder), so tiling moves no score by a single bit.
//!
//! Plans are **derived data**: every constructor (fit, load, quantise)
//! compiles one, nothing is serialised, and the saved-model envelope is
//! untouched. Each plan family builds its **unfused** graph in one place
//! (its crate-private `graph()`, listed by `TrainedModel::graphs`), and
//! its plan is compiled from that graph.
//!
//! [`eval`] / [`eval_batch`] are the one reference path: they interpret a
//! graph as written, each (row, shot) pair scored by the single-pair
//! [`dot_f32`]. On a family's unfused graph they are what the fused plan
//! is checked against; on [`CompiledPlan::lowered_graph`] they reproduce
//! the executor bit for bit.
//!
//! Eight of the ten registry families compile a plan: OURS, OURS-NO-EMF,
//! OURS-INT, and HERQULES through the shared extractor trunk; the FNN
//! through `fnn_graph` (its first hidden layer *is* the bank, scored
//! against the raw trace); OURS-STREAM through one prefix-windowed plan
//! per checkpoint (`per_qubit_graph` over the checkpoint's prefix); LDA and the autoencoder
//! through family-local builders in their own modules. The two that
//! cannot: QDA's decision is a per-class quadratic form (Mahalanobis
//! distance under per-class covariances) — not a fixed linear bank — and
//! the HMM decodes each trace *sequentially* through time-dependent
//! emissions, so neither reduces to dot-products against static kernels.
//! QDA still has a single-pass path, just not an f32 plan: it serves
//! through an f64 scorer that demodulates every tone in one walk over the
//! trace and scores each class from constants built at fit/load time,
//! bit-identical to its per-qubit Gaussian reference (see
//! `DiscriminantAnalysis`).
//!
//! Joint crosstalk-aware kernels (`joint_neighbors > 0` on the OURS
//! families) need no compiler support: widening a kernel row with a
//! neighbour tone's reference phasor only changes the row's *values*, and
//! the lowering pass already computes each row's nonzero span from the
//! data, so joint rows flow through the same banded-row executor.

mod eval;
mod exec;
mod fuse;
mod graph;

#[cfg(test)]
pub(crate) use eval::assert_logits_close;
pub use eval::{eval, eval_batch, Evaluation};
pub use exec::CompiledPlan;
pub use fuse::{
    collapse_linear_heads, fold_affine_into_bank, fold_affine_into_dense, fuse, FuseReport,
};
pub use graph::{AffineOp, Branch, DenseOp, MfBankOp, Op, OpGraph, OutputStage};
// The SIMD dot and tile kernels live in `mlr_nn`
// (so the network's own forward passes share them) and are re-exported
// here, where the plan executor's callers and the property tests have
// always found them.
pub use mlr_nn::{
    avx512_active, dot_f32, dot_f32_scalar, dot_lanes, dot_lanes_scalar, dot_tile, dot_tile_scalar,
    fma_active, narrow_f32, simd_active, tile_tier, SimdTier, SHOT_LANES,
};
#[cfg(target_arch = "x86_64")]
pub use mlr_nn::{dot_f32_avx2, dot_lanes_avx2, dot_tile_avx2, dot_tile_avx512};

use crate::features::FeatureExtractor;
use mlr_nn::{IntMlp, Mlp, Standardizer};

/// Compiles a graph: runs the folding passes, then lowers to the `f32`
/// tiled executor.
///
/// # Panics
///
/// Panics if the fused trunk is not `[FlattenIq, MfBank]` or
/// `[FlattenIq, MfBank, Affine]` — the shapes the family builders in this
/// module produce.
pub fn compile(mut graph: OpGraph) -> CompiledPlan {
    let report = fuse(&mut graph);
    CompiledPlan::lower(&graph, report)
}

/// The shared trunk every extractor-based family starts from: flatten the
/// first `n_samples` of the window, score the extractor's fused kernel rows
/// truncated to that prefix (a streamed partial score *is* the full dot
/// product over the first `2 × n_samples` interleaved weights), standardise.
///
/// # Panics
///
/// Panics (downstream) if any row is shorter than the prefix.
fn trunk(extractor: &FeatureExtractor, n_samples: usize, standardizer: &Standardizer) -> Vec<Op> {
    let rows: Vec<Vec<f64>> = extractor
        .fused_rows()
        .into_iter()
        .map(|mut row| {
            row.truncate(2 * n_samples);
            row
        })
        .collect();
    let bias = vec![0.0; rows.len()];
    let scale: Vec<f64> = standardizer.stds().iter().map(|&s| 1.0 / s).collect();
    let shift: Vec<f64> = standardizer
        .means()
        .iter()
        .zip(standardizer.stds())
        .map(|(&m, &s)| -m / s)
        .collect();
    vec![
        Op::FlattenIq { n_samples },
        Op::MfBank(MfBankOp {
            rows,
            bias,
            relu: false,
        }),
        Op::Affine(AffineOp { scale, shift }),
    ]
}

/// Builds the OURS-family graph over the first `n_samples` of the window:
/// the shared trunk, then one float MLP branch per qubit over the full
/// feature vector. OURS passes the whole window; each streaming
/// checkpoint passes its prefix with its own standardizer and heads.
pub(crate) fn per_qubit_graph(
    extractor: &FeatureExtractor,
    n_samples: usize,
    standardizer: &Standardizer,
    heads: &[Mlp],
) -> OpGraph {
    OpGraph {
        trunk: trunk(extractor, n_samples, standardizer),
        output: OutputStage::PerQubit {
            branches: heads
                .iter()
                .map(|mlp| Branch {
                    take: None,
                    layers: DenseOp::chain_from_mlp(mlp),
                })
                .collect(),
        },
    }
}

/// Builds the HERQULES graph: shared trunk, one joint MLP over all qubits
/// whose argmax decodes into per-qubit levels.
pub(crate) fn joint_graph(
    extractor: &FeatureExtractor,
    standardizer: &Standardizer,
    mlp: &Mlp,
    n_qubits: usize,
    levels: usize,
) -> OpGraph {
    OpGraph {
        trunk: trunk(extractor, extractor.window_samples(), standardizer),
        output: OutputStage::Joint {
            layers: DenseOp::chain_from_mlp(mlp),
            n_qubits,
            levels,
        },
    }
}

/// Builds the deployed (OURS-INT) graph: shared trunk, quantised per-qubit
/// heads. The heads quantise their own input, so the standardizer folds
/// *backward* into the kernel bank rather than forward into weights.
pub(crate) fn int_graph(
    extractor: &FeatureExtractor,
    standardizer: &Standardizer,
    heads: &[IntMlp],
) -> OpGraph {
    OpGraph {
        trunk: trunk(extractor, extractor.window_samples(), standardizer),
        output: OutputStage::PerQubitInt {
            heads: heads.to_vec(),
        },
    }
}

/// Builds the FNN graph. The FNN has no matched-filter bank — its input is
/// the raw trace's `iq_features` layout (`[I₀…I_{n−1}, Q₀…Q_{n−1}]`) run
/// through a standardizer and an MLP. The builder makes its first hidden
/// layer the bank: each hidden unit's weight row is permuted from the
/// block layout onto the plan's interleaved `[re, im, …]` columns with the
/// standardizer pre-folded in (`w/σ` weights, `b − Σ w·μ/σ` bias), and the
/// layer's ReLU rides on the bank (`relu: true`). The remaining layers
/// form a [`OutputStage::JointMarginal`] chain — `Mlp::predict_marginal`'s
/// decision rule, fused.
///
/// # Panics
///
/// Panics if the standardizer/MLP widths don't match `2 × n_samples`.
pub(crate) fn fnn_graph(
    standardizer: &Standardizer,
    mlp: &Mlp,
    n_samples: usize,
    n_qubits: usize,
    levels: usize,
) -> OpGraph {
    let width = 2 * n_samples;
    assert_eq!(mlp.sizes()[0], width, "FNN input width != 2 × window");
    assert_eq!(standardizer.means().len(), width, "standardizer width");
    assert!(mlp.n_layers() >= 2, "FNN needs hidden layers");
    let scale: Vec<f64> = standardizer.stds().iter().map(|&s| 1.0 / s).collect();
    let shift: Vec<f64> = standardizer
        .means()
        .iter()
        .zip(standardizer.stds())
        .map(|(&m, &s)| -m / s)
        .collect();

    let h0 = mlp.sizes()[1];
    let w0 = mlp.layer_weights(0);
    let b0 = mlp.layer_biases(0);
    let mut rows = Vec::with_capacity(h0);
    let mut bias = Vec::with_capacity(h0);
    for o in 0..h0 {
        let wrow = &w0[o * width..(o + 1) * width];
        let mut row = vec![0.0f64; width];
        let mut b = f64::from(b0[o]);
        for (j, &w) in wrow.iter().enumerate() {
            let w = f64::from(w);
            // iq_features column j (I-block then Q-block) ↔ interleaved
            // flat column: I_t at 2t, Q_t at 2t + 1.
            let col = if j < n_samples {
                2 * j
            } else {
                2 * (j - n_samples) + 1
            };
            row[col] = w * scale[j];
            b += w * shift[j];
        }
        rows.push(row);
        bias.push(b);
    }

    OpGraph {
        trunk: vec![
            Op::FlattenIq { n_samples },
            Op::MfBank(MfBankOp {
                rows,
                bias,
                relu: true,
            }),
        ],
        output: OutputStage::JointMarginal {
            layers: (1..mlp.n_layers())
                .map(|l| DenseOp::from_mlp_layer(mlp, l))
                .collect(),
            n_qubits,
            levels,
        },
    }
}
