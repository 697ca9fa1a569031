//! Dispersive-readout physics simulator for frequency-multiplexed
//! multi-level superconducting qubit readout.
//!
//! This crate is the data substrate for the DAC 2025 reproduction: the paper
//! evaluates on readout traces captured from a five-transmon chip
//! (Lienhard et al., 500 MSamples/s ADC, 1 µs traces). We do not have that
//! proprietary dataset, so this crate synthesises traces from the same
//! physical mechanisms the discriminators must cope with:
//!
//! * **dispersive response** — each qubit level pulls its readout resonator
//!   to a distinct steady-state IQ point; the resonator rings up/settles with
//!   time constant `2/κ`;
//! * **relaxation during readout** — `|2⟩ → |1⟩ → |0⟩` decay cascades
//!   sampled from the qubit lifetimes, producing the mid-trace trajectory
//!   kinks that relaxation matched filters detect;
//! * **measurement-induced excitation** — rare `|0⟩→|1⟩`, `|0⟩→|2⟩`,
//!   `|1⟩→|2⟩` jumps (qubits 3 and 4 of the preset are more prone, as in the
//!   paper);
//! * **readout crosstalk** — neighbouring resonator responses bleed into
//!   each channel through a crosstalk matrix, which only a discriminator that
//!   sees *all* qubits can correct;
//! * **frequency multiplexing** — per-qubit basebands are modulated onto
//!   intermediate frequencies and summed onto one feedline, then digitised
//!   with additive receiver noise and optional ADC quantisation.
//!
//! The raw composite trace (what the ADC sees) feeds the raw-trace FNN
//! baseline; demodulation in `mlr-dsp` recovers per-qubit basebands for the
//! matched-filter designs.
//!
//! Shots live in a structure-of-arrays [`TraceStore`] — one flat trace
//! arena (stride = `n_samples`) plus packed side arrays for labels and
//! transition events. The simulator writes shots directly into pre-sliced
//! arena chunks ([`ReadoutSimulator::simulate_shot_into`]), read paths
//! borrow [`ShotView`]s, and datasets persist in a versioned little-endian
//! binary format ([`TraceDataset::save_bin`] / [`TraceDataset::load_bin`])
//! so repro binaries can load a cached dataset instead of re-simulating
//! ([`DatasetSpec`]).
//!
//! # Examples
//!
//! ```
//! use mlr_sim::{ChipConfig, ReadoutSimulator, BasisState, Level};
//! use rand::SeedableRng;
//!
//! let config = ChipConfig::five_qubit_paper();
//! let sim = ReadoutSimulator::new(config);
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let prepared = BasisState::uniform(5, Level::Excited);
//! let shot = sim.simulate_shot(&prepared, &mut rng);
//! assert_eq!(shot.raw.len(), 500);
//! ```

#![deny(missing_docs)]

mod dataset;
mod level;
mod lockstep;
pub mod multiplex;
mod params;
mod persist;
mod shot;
mod simulator;
mod store;
mod trajectory;

pub use dataset::{sample_basis_states, DatasetSplit, LabelSource, TraceDataset};
pub use level::{basis_state_count, BasisState, BasisStates, Level};
pub use multiplex::{FeedlineSpec, MultiplexedChip};
pub use params::{ChipConfig, ConfigError, QubitParams};
pub use persist::{
    config_hash, DatasetIoError, DatasetSpec, DATASET_FORMAT_VERSION, DATASET_MAGIC,
};
pub use shot::{Shot, TransitionEvent};
pub use simulator::{ReadoutSimulator, SimScratch, SIMULATOR_REVISION};
pub use store::{ShotRecord, ShotView, TraceStore};
pub use trajectory::{sample_level_timeline, LevelSegment};
