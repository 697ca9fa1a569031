//! Baseline multi-level readout discriminators the paper compares against,
//! living beside the proposed design so the registry
//! ([`crate::registry`]) can name, fit and persist every family from one
//! crate:
//!
//! * [`FnnBaseline`] — the raw-trace deep feed-forward network of Lienhard
//!   et al. (Phys. Rev. Applied 17, 014024): all 1000 undemodulated ADC
//!   samples in, one joint softmax over every `kⁿ` basis state out
//!   (≈686 k weights at five qubits / three levels);
//! * [`HerqulesBaseline`] — the ISCA '23 HERQULES design: demodulation +
//!   qubit/relaxation matched filters (no excitation filters), a small
//!   joint network over all qubits with a `kⁿ`-way output — compact, but
//!   its output layer still scales exponentially, which is what breaks it
//!   at three levels;
//! * [`DiscriminantAnalysis`] — classic per-qubit LDA/QDA on
//!   boxcar-integrated IQ points (Table V / Table VI rows);
//! * [`HmmBaseline`] — per-qubit Gaussian hidden Markov model over windowed
//!   IQ observations (the HMM leakage detectors of Varbanov et al., cited
//!   as related work in Sec. I);
//! * [`AutoencoderBaseline`] — dense autoencoder compression of the
//!   demodulated trace with per-qubit classifier heads on the bottleneck
//!   code (Luchi et al., Phys. Rev. Applied 20, 014045, Sec. I).
//!
//! All baselines implement [`crate::Discriminator`], so the reproduction
//! harness evaluates them interchangeably with the proposed design.

mod autoencoder;
mod discriminant;
mod fnn;
mod herqules;
mod hmm;

pub use autoencoder::{AutoencoderBaseline, AutoencoderConfig};
pub use discriminant::{DiscriminantAnalysis, DiscriminantKind};
pub use fnn::{FnnBaseline, FnnConfig};
pub use herqules::{HerqulesBaseline, HerqulesConfig};
pub use hmm::{HmmBaseline, HmmConfig};
