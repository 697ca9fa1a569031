//! Numeric primitives shared across the `multilevel-readout` workspace.
//!
//! This crate deliberately has no external dependencies: it provides the
//! small set of numeric building blocks the rest of the workspace needs —
//! a [`Complex`] number type for IQ (in-phase/quadrature) samples, running
//! statistics ([`RunningStats`], [`Welford`]), and a few slice helpers.
//!
//! # Examples
//!
//! ```
//! use mlr_num::Complex;
//!
//! let tone = Complex::from_polar(1.0, std::f64::consts::FRAC_PI_4);
//! assert!((tone.abs() - 1.0).abs() < 1e-12);
//! ```

#![deny(missing_docs)]

mod complex;
mod stats;

pub use complex::Complex;
pub use stats::{
    argmax, argmax_iter, argmin, linspace, mean, median, percentile, variance, RunningStats,
    Welford,
};
