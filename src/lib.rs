//! Facade crate for the `multilevel-readout` workspace: re-exports every
//! subsystem of the DAC 2025 reproduction under one roof.
//!
//! See `README.md` at the workspace root for the architecture map (crate
//! graph, tier-1 commands, batch-API quickstart) and the experiment index
//! of `mlr repro`, which regenerates the paper's tables and figures.
//!
//! # Examples
//!
//! ```no_run
//! use multilevel_readout::core::{evaluate, OursConfig, OursDiscriminator};
//! use multilevel_readout::sim::{ChipConfig, TraceDataset};
//!
//! let config = ChipConfig::five_qubit_paper();
//! let dataset = TraceDataset::generate_natural(&config, 600, 7);
//! let split = dataset.paper_split(7);
//! let ours = OursDiscriminator::fit(&dataset, &split, &OursConfig::default());
//! let report = evaluate(&ours, &dataset, &split.test);
//! println!("F5Q = {:.4}", report.geometric_mean_fidelity());
//! ```

#![deny(missing_docs)]

/// The paper's contribution: matched-filter banks + modular per-qubit
/// heads, calibration-free leakage harvesting, evaluation harness.
pub use mlr_core as core;

/// Dispersive-readout physics simulation (the dataset substrate).
pub use mlr_sim as sim;

/// Readout DSP: demodulation, filters, matched-filter kernels, MTV.
pub use mlr_dsp as dsp;

/// k-means and spectral clustering.
pub use mlr_cluster as cluster;

/// Feed-forward networks, training, quantisation.
pub use mlr_nn as nn;

/// Dense linear algebra (LU, Cholesky, Jacobi eigen).
pub use mlr_linalg as linalg;

/// Complex numbers and running statistics.
pub use mlr_num as num;

/// FPGA resource estimation and 45 nm power modelling.
pub use mlr_fpga as fpga;

/// Surface-code leakage simulation, ERASER speculation, erasure-herald
/// models, union-find/greedy decoders, cycle timing.
pub use mlr_qec as qec;
