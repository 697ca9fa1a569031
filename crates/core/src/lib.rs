//! The paper's contribution: a scalable, hardware-efficient multi-level
//! readout discriminator built from matched-filter banks and modular
//! lightweight neural networks (DAC 2025).
//!
//! The design (Sec. V of the paper, Fig. 4):
//!
//! 1. **Demodulate** each qubit's channel from the multiplexed ADC trace
//!    (cheap — two FMA units in hardware).
//! 2. **Matched-filter bank** per qubit ([`QubitMfBank`]): three Qubit MFs
//!    (one per level pair), three Relaxation MFs and three Excitation MFs
//!    (Table III), each reducing the 1000-sample trace to one score.
//! 3. **Merge** the `9 × n` scores from all qubits ([`FeatureExtractor`]).
//! 4. **Per-qubit lightweight MLP** (`[9n, ⌊9n/2⌋, ⌊9n/4⌋, 3]`) refines the
//!    scores into a 3-way state decision, correcting crosstalk with the
//!    other qubits' scores ([`OursDiscriminator`]).
//!
//! Because every qubit gets its own 3-output head instead of one `3ⁿ`-way
//! joint classifier, model size grows polynomially in the qubit count — the
//! key scaling claim of the paper.
//!
//! Leaked-state training data is harvested **without explicit `|2⟩`
//! calibration** by spectral clustering of Mean Trace Values
//! ([`NaturalLeakageDetector`], Sec. V-A).
//!
//! # Examples
//!
//! ```no_run
//! use mlr_core::{Discriminator, OursConfig, OursDiscriminator};
//! use mlr_sim::{ChipConfig, TraceDataset};
//!
//! let config = ChipConfig::five_qubit_paper();
//! let dataset = TraceDataset::generate(&config, 3, 50, 7);
//! let split = dataset.paper_split(7);
//! let ours = OursDiscriminator::fit(&dataset, &split, &OursConfig::default());
//! let report = mlr_core::evaluate(&ours, &dataset, &split.test);
//! println!("F5Q = {:.4}", report.geometric_mean_fidelity());
//! ```

#![deny(missing_docs)]

mod baselines;
mod batch;
mod deployment;
mod discriminator;
pub mod engine;
mod features;
mod leakage;
mod mf_bank;
mod model_io;
mod pipeline;
pub mod plan;
mod qec_bridge;
pub mod registry;
pub mod spec;
mod streaming;

pub use baselines::{
    AutoencoderBaseline, AutoencoderConfig, DiscriminantAnalysis, DiscriminantKind, FnnBaseline,
    FnnConfig, HerqulesBaseline, HerqulesConfig, HmmBaseline, HmmConfig,
};
pub use batch::{batch_threads, par_map, par_map_indexed};
pub use deployment::{DeployedConfig, DeployedDiscriminator};
pub use discriminator::{evaluate, evaluate_confusion, gather_shots, Discriminator, EvalReport};
pub use engine::{
    BatchTicket, Clock, EngineConfig, EngineStats, EvictPolicy, EvictionCandidate, FleetConfig,
    FleetEngine, FleetError, ManualClock, ModelServeStats, PartialShed, Qos, ReadoutEngine,
    Rejected, Session, Ticket, TicketFailed, WallClock,
};
pub use features::FeatureExtractor;
pub use leakage::{LeakageHarvest, NaturalLeakageDetector};
pub use mf_bank::{FilterRole, QubitMfBank};
pub use model_io::{ModelIoError, SavedModel};
pub use pipeline::{OursConfig, OursDiscriminator};
pub use plan::CompiledPlan;
pub use qec_bridge::DiscriminatorHerald;
pub use registry::TrainedModel;
pub use spec::DiscriminatorSpec;
pub use streaming::{
    evaluate_streaming, ShotStream, StreamingConfig, StreamingDecision, StreamingReadout,
    StreamingReport,
};
