//! Feed-forward neural networks sized for readout discrimination, with
//! cross-entropy/Adam training, classification metrics, and fixed-point
//! quantisation for hardware-resource estimation.
//!
//! All three learned discriminators in the paper are plain multi-layer
//! perceptrons with ReLU hidden activations and a softmax output:
//!
//! * the raw-trace FNN baseline `[1000, 500, 250, 243]` (≈686 k weights);
//! * HERQULES' joint classifier `[30, 60, 120, 243]`;
//! * the proposed per-qubit heads `[45, 22, 11, 3]` (≈1.3 k weights each).
//!
//! Weights and activations are `f32`: it is faster on the host and it is
//! the shape of the arithmetic the FPGA deployment quantises from.
//!
//! # Examples
//!
//! ```
//! use mlr_nn::{Mlp, TrainConfig, TrainData};
//!
//! // Learn XOR — a sanity check that the trainer handles non-linearity.
//! let x = vec![vec![0.0, 0.0], vec![0.0, 1.0], vec![1.0, 0.0], vec![1.0, 1.0]];
//! let y = vec![0, 1, 1, 0];
//! let data = TrainData::new(x, y, 2).unwrap();
//! let mut mlp = Mlp::new(&[2, 8, 2], 42);
//! let config = TrainConfig { epochs: 400, learning_rate: 0.02, batch_size: 4, ..TrainConfig::default() };
//! mlp.train(&data, None, &config);
//! assert_eq!(mlp.predict(&[1.0, 0.0]), 1);
//! assert_eq!(mlp.predict(&[1.0, 1.0]), 0);
//! ```

#![deny(missing_docs)]

mod backward;
mod intmlp;
mod metrics;
mod mlp;
mod quantize;
mod regression;
mod simd;
mod standardize;
mod train;

pub use intmlp::IntMlp;
pub use metrics::{accuracy, auc, geometric_mean, roc_curve, ConfusionMatrix, RocPoint};
pub use mlp::{ForwardScratch, Mlp};
pub use quantize::{FixedPointFormat, QuantizedMlp};
pub use regression::{RegressionData, RegressionReport};
pub use simd::{
    avx512_active, cmul_sum_f64, cmul_sum_f64_scalar, dot4_f64, dot4_f64_tile,
    dot4_f64_tile_scalar, dot_f32, dot_f32_scalar, dot_lanes, dot_lanes_scalar, dot_tile,
    dot_tile_scalar, fma_active, narrow_f32, simd_active, tile_tier, CmulSumFn, Dot4TileFn,
    SimdTier, CMUL_LANES, SHOT_LANES,
};
#[cfg(target_arch = "x86_64")]
pub use simd::{
    cmul_sum_f64_avx2, dot4_f64_tile_avx2, dot_f32_avx2, dot_lanes_avx2, dot_tile_avx2,
    dot_tile_avx512,
};
pub use standardize::Standardizer;
pub use train::{inverse_frequency_weights, DataError, TrainConfig, TrainData, TrainReport};
