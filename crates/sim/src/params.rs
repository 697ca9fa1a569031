//! Chip and qubit parameterisation.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Physical parameters of one transmon and its readout resonator.
///
/// Times are in the units stated per field; rates are per microsecond. The
/// per-level IQ geometry (`amplitude`, `phase_deg`) sets how separable the
/// three dispersive responses are — the paper's qubit 2 is modelled with a
/// compressed phase spread, which is what limits its fidelity in every
/// discriminator.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QubitParams {
    /// `|1⟩ → |0⟩` relaxation time in microseconds (paper range: 7–40 µs).
    pub t1_ge_us: f64,
    /// `|2⟩ → |1⟩` relaxation time in microseconds (shorter than `t1_ge_us`
    /// for a transmon).
    pub t1_ef_us: f64,
    /// Probability that a `|2⟩` decay goes directly to `|0⟩` instead of
    /// `|1⟩`.
    pub direct_leak_decay_prob: f64,
    /// Measurement-induced `|0⟩ → |1⟩` excitation rate, events per µs.
    pub exc_ge_per_us: f64,
    /// Measurement-induced `|0⟩ → |2⟩` excitation rate, events per µs.
    pub exc_gf_per_us: f64,
    /// Measurement-induced `|1⟩ → |2⟩` excitation rate, events per µs.
    pub exc_ef_per_us: f64,
    /// Probability that a qubit nominally prepared in a computational state
    /// actually starts the readout leaked (`|2⟩`) — the "natural leakage"
    /// harvested by the calibration-free clustering of Sec. V-A.
    pub prep_leak_prob: f64,
    /// Steady-state resonator response magnitude (arbitrary ADC units).
    pub amplitude: f64,
    /// Steady-state response phase for levels `|0⟩`, `|1⟩`, `|2⟩`, degrees.
    pub phase_deg: [f64; 3],
    /// Resonator ring-up/settle time constant `2/κ`, nanoseconds.
    pub ring_up_tau_ns: f64,
    /// Intermediate (readout tone) frequency on the shared feedline, MHz.
    pub if_freq_mhz: f64,
}

impl QubitParams {
    /// A well-behaved default transmon: 25 µs T1, widely separated response
    /// phases, 100 ns ring-up.
    pub fn nominal() -> Self {
        Self {
            t1_ge_us: 25.0,
            t1_ef_us: 14.0,
            direct_leak_decay_prob: 0.12,
            exc_ge_per_us: 0.004,
            exc_gf_per_us: 0.001,
            exc_ef_per_us: 0.005,
            prep_leak_prob: 0.002,
            amplitude: 1.0,
            phase_deg: [0.0, 110.0, 225.0],
            ring_up_tau_ns: 100.0,
            if_freq_mhz: 25.0,
        }
    }
}

impl Default for QubitParams {
    fn default() -> Self {
        Self::nominal()
    }
}

/// Reasons a [`ChipConfig`] fails validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// The chip has no qubits.
    NoQubits,
    /// The crosstalk matrix is not `n x n` for `n` qubits.
    CrosstalkShape,
    /// A lifetime, rate, amplitude or time constant is non-positive where it
    /// must be positive (message names the field).
    NonPositive(&'static str),
    /// A probability field lies outside `[0, 1]` (message names the field).
    ProbabilityRange(&'static str),
    /// Trace length or sample rate is zero.
    EmptyTrace,
    /// Two qubits on the shared feedline have identical or sub-resolution
    /// intermediate frequencies: their tones land in the same spectral
    /// bin of the readout window (`sample_rate / n_samples`), so
    /// demodulation cannot separate the channels and the dataset would be
    /// silently degenerate. Holds the colliding qubit indices.
    ToneCollision(usize, usize),
    /// The ADC resolution is outside `1..=63` bits: zero bits has no
    /// quantisation levels, and `2^bits` levels must fit a `u64`. Holds
    /// the rejected width.
    AdcBits(u32),
    /// A numeric field is NaN or infinite (message names the field). The
    /// one exception is a lifetime: `t1_* = +inf` means "no decay".
    NonFinite(&'static str),
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::NoQubits => write!(f, "chip has no qubits"),
            ConfigError::CrosstalkShape => write!(f, "crosstalk matrix is not n x n"),
            ConfigError::NonPositive(field) => write!(f, "{field} must be positive"),
            ConfigError::ProbabilityRange(field) => {
                write!(f, "{field} must lie in [0, 1]")
            }
            ConfigError::EmptyTrace => write!(f, "trace length and sample rate must be nonzero"),
            ConfigError::ToneCollision(a, b) => write!(
                f,
                "qubits {a} and {b} have sub-resolution tone separation on the shared feedline"
            ),
            ConfigError::AdcBits(bits) => {
                write!(f, "adc_bits must lie in 1..=63, got {bits}")
            }
            ConfigError::NonFinite(field) => write!(f, "{field} must be finite"),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Full configuration of a frequency-multiplexed readout chip: per-qubit
/// physics, the channel crosstalk matrix, and the digitiser front end.
///
/// # Examples
///
/// ```
/// use mlr_sim::ChipConfig;
///
/// let config = ChipConfig::five_qubit_paper();
/// assert_eq!(config.n_qubits(), 5);
/// assert!((config.duration_us() - 1.0).abs() < 1e-12);
/// config.validate().expect("preset is valid");
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChipConfig {
    /// Per-qubit physical parameters.
    pub qubits: Vec<QubitParams>,
    /// Row `q` holds the fraction of each channel's baseband that bleeds
    /// into channel `q` (diagonal entries are ignored; self-coupling is 1).
    pub crosstalk: Vec<Vec<f64>>,
    /// Standard deviation of the additive receiver noise per I/Q sample.
    pub rx_noise: f64,
    /// ADC sampling rate in MSamples/s (the paper uses 500).
    pub sample_rate_mhz: f64,
    /// Samples per readout trace (the paper uses 500, i.e. 1 µs).
    pub n_samples: usize,
    /// ADC resolution in bits, `1..=63`; `None` disables quantisation.
    pub adc_bits: Option<u32>,
    /// ADC full-scale range, in the same units as the signal amplitude.
    pub adc_full_scale: f64,
}

impl ChipConfig {
    /// The five-qubit chip mirroring the paper's dataset (Sec. VI):
    ///
    /// * 500 MS/s, 1 µs traces;
    /// * qubit 2 (index 1) has a compressed dispersive phase spread, limiting
    ///   its distinguishability "due to the experimental setup";
    /// * qubits 3 and 4 (indices 2 and 3) are more prone to `|2⟩`
    ///   excitations and natural leakage;
    /// * qubit 4 also has the shortest T1 (7 µs, the bottom of the paper's
    ///   7–40 µs range).
    #[allow(clippy::vec_init_then_push)] // per-qubit commentary between pushes
    pub fn five_qubit_paper() -> Self {
        let mut qubits = Vec::with_capacity(5);

        // Qubit 1: long-lived, clean.
        qubits.push(QubitParams {
            t1_ge_us: 40.0,
            t1_ef_us: 22.0,
            prep_leak_prob: 0.004,
            exc_ge_per_us: 0.003,
            exc_gf_per_us: 0.0008,
            exc_ef_per_us: 0.004,
            phase_deg: [0.0, 115.0, 230.0],
            if_freq_mhz: -125.0,
            ..QubitParams::nominal()
        });
        // Qubit 2: poor state separation (compressed phases, weak response).
        qubits.push(QubitParams {
            t1_ge_us: 18.0,
            t1_ef_us: 10.0,
            prep_leak_prob: 0.012,
            exc_ge_per_us: 0.006,
            exc_gf_per_us: 0.0015,
            exc_ef_per_us: 0.007,
            amplitude: 0.56,
            phase_deg: [0.0, 55.0, 118.0],
            if_freq_mhz: -75.0,
            ..QubitParams::nominal()
        });
        // Qubit 3: leakage-prone (elevated |2> excitation).
        qubits.push(QubitParams {
            t1_ge_us: 22.0,
            t1_ef_us: 12.0,
            prep_leak_prob: 0.022,
            exc_ge_per_us: 0.012,
            exc_gf_per_us: 0.012,
            exc_ef_per_us: 0.035,
            phase_deg: [0.0, 105.0, 215.0],
            if_freq_mhz: -25.0,
            ..QubitParams::nominal()
        });
        // Qubit 4: shortest T1 and the strongest natural leakage.
        qubits.push(QubitParams {
            t1_ge_us: 7.0,
            t1_ef_us: 4.0,
            prep_leak_prob: 0.032,
            exc_ge_per_us: 0.014,
            exc_gf_per_us: 0.015,
            exc_ef_per_us: 0.040,
            phase_deg: [0.0, 108.0, 220.0],
            if_freq_mhz: 25.0,
            ..QubitParams::nominal()
        });
        // Qubit 5: clean, mid-range T1.
        qubits.push(QubitParams {
            t1_ge_us: 32.0,
            t1_ef_us: 18.0,
            prep_leak_prob: 0.009,
            exc_ge_per_us: 0.003,
            exc_gf_per_us: 0.001,
            exc_ef_per_us: 0.004,
            phase_deg: [0.0, 112.0, 228.0],
            if_freq_mhz: 75.0,
            ..QubitParams::nominal()
        });

        // Nearest-neighbour dominated crosstalk, slightly asymmetric, as on a
        // chip with a shared feedline. Strong enough that a per-qubit-only
        // discriminator (LDA/QDA) pays a visible penalty that the all-qubit
        // neural designs recover — the Table V gap.
        let n = qubits.len();
        let mut crosstalk = vec![vec![0.0; n]; n];
        for (q, row) in crosstalk.iter_mut().enumerate() {
            for (p, entry) in row.iter_mut().enumerate() {
                let dist = q.abs_diff(p);
                *entry = match dist {
                    0 => 0.0,
                    1 => 0.13 + 0.02 * ((q * 7 + p * 3) % 5) as f64 / 5.0,
                    2 => 0.035,
                    _ => 0.01,
                };
            }
        }

        Self {
            qubits,
            crosstalk,
            rx_noise: 3.4,
            sample_rate_mhz: 500.0,
            n_samples: 500,
            adc_bits: Some(12),
            adc_full_scale: 24.0,
        }
    }

    /// A homogeneous `n`-qubit chip of [`QubitParams::nominal`] transmons
    /// with weak nearest-neighbour crosstalk — useful for scaling studies.
    pub fn uniform(n: usize) -> Self {
        let qubits: Vec<QubitParams> = (0..n)
            .map(|q| QubitParams {
                // Spread tones 50 MHz apart centred on DC.
                if_freq_mhz: (q as f64 - (n as f64 - 1.0) / 2.0) * 50.0,
                ..QubitParams::nominal()
            })
            .collect();
        let mut crosstalk = vec![vec![0.0; n]; n];
        for (q, row) in crosstalk.iter_mut().enumerate() {
            for (p, entry) in row.iter_mut().enumerate() {
                if q.abs_diff(p) == 1 {
                    *entry = 0.05;
                }
            }
        }
        Self {
            qubits,
            crosstalk,
            rx_noise: 3.4,
            sample_rate_mhz: 500.0,
            n_samples: 500,
            adc_bits: Some(12),
            adc_full_scale: 24.0,
        }
    }

    /// Number of qubits on the chip.
    pub fn n_qubits(&self) -> usize {
        self.qubits.len()
    }

    /// Sample period in microseconds.
    pub fn dt_us(&self) -> f64 {
        1.0 / self.sample_rate_mhz
    }

    /// Total readout duration in microseconds.
    pub fn duration_us(&self) -> f64 {
        self.n_samples as f64 * self.dt_us()
    }

    /// Returns a copy with a shorter trace (`n_samples` clamped to the
    /// current length) — used by the readout-duration sweep of Fig. 5(b).
    pub fn truncated(&self, n_samples: usize) -> Self {
        let mut c = self.clone();
        c.n_samples = n_samples.min(self.n_samples);
        c
    }

    /// Spectral resolution of the readout window in MHz: tones closer
    /// than one DFT bin (`sample_rate / n_samples`) cannot be separated
    /// by demodulation over the window and count as colliding at
    /// acquisition time ([`ChipConfig::validate_for_acquisition`]).
    pub fn tone_resolution_mhz(&self) -> f64 {
        self.sample_rate_mhz / self.n_samples as f64
    }

    /// Checks structural and numeric validity.
    ///
    /// # Errors
    ///
    /// Returns the first violated [`ConfigError`].
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.qubits.is_empty() {
            return Err(ConfigError::NoQubits);
        }
        let n = self.qubits.len();
        if self.crosstalk.len() != n || self.crosstalk.iter().any(|row| row.len() != n) {
            return Err(ConfigError::CrosstalkShape);
        }
        self.check_finite()?;
        if self.n_samples == 0 || self.sample_rate_mhz <= 0.0 {
            return Err(ConfigError::EmptyTrace);
        }
        // Exactly coincident tones are degenerate at any window length:
        // the channels demodulate to the same baseband and every
        // discriminator silently fails on both.
        for a in 0..n {
            for b in (a + 1)..n {
                if self.qubits[a].if_freq_mhz == self.qubits[b].if_freq_mhz {
                    return Err(ConfigError::ToneCollision(a, b));
                }
            }
        }
        if self.rx_noise < 0.0 {
            return Err(ConfigError::NonPositive("rx_noise"));
        }
        if self.adc_full_scale <= 0.0 {
            return Err(ConfigError::NonPositive("adc_full_scale"));
        }
        if let Some(bits) = self.adc_bits {
            if !(1..64).contains(&bits) {
                return Err(ConfigError::AdcBits(bits));
            }
        }
        for q in &self.qubits {
            if q.t1_ge_us <= 0.0 || q.t1_ef_us <= 0.0 {
                return Err(ConfigError::NonPositive("t1"));
            }
            if q.ring_up_tau_ns <= 0.0 {
                return Err(ConfigError::NonPositive("ring_up_tau_ns"));
            }
            if q.amplitude <= 0.0 {
                return Err(ConfigError::NonPositive("amplitude"));
            }
            if q.exc_ge_per_us < 0.0 || q.exc_gf_per_us < 0.0 || q.exc_ef_per_us < 0.0 {
                return Err(ConfigError::NonPositive("excitation rate"));
            }
            if !(0.0..=1.0).contains(&q.prep_leak_prob) {
                return Err(ConfigError::ProbabilityRange("prep_leak_prob"));
            }
            if !(0.0..=1.0).contains(&q.direct_leak_decay_prob) {
                return Err(ConfigError::ProbabilityRange("direct_leak_decay_prob"));
            }
        }
        Ok(())
    }

    /// Rejects NaN and ±inf in every `f64` field, naming the first one.
    /// A lifetime may be `+inf` (no decay: its rate is 0); the
    /// range checks in [`ChipConfig::validate`] still see every value.
    fn check_finite(&self) -> Result<(), ConfigError> {
        let finite = |x: f64, field: &'static str| {
            if x.is_finite() {
                Ok(())
            } else {
                Err(ConfigError::NonFinite(field))
            }
        };
        let lifetime = |x: f64, field| {
            if x == f64::INFINITY {
                Ok(())
            } else {
                finite(x, field)
            }
        };
        for q in &self.qubits {
            lifetime(q.t1_ge_us, "t1_ge_us")?;
            lifetime(q.t1_ef_us, "t1_ef_us")?;
            finite(q.direct_leak_decay_prob, "direct_leak_decay_prob")?;
            finite(q.exc_ge_per_us, "exc_ge_per_us")?;
            finite(q.exc_gf_per_us, "exc_gf_per_us")?;
            finite(q.exc_ef_per_us, "exc_ef_per_us")?;
            finite(q.prep_leak_prob, "prep_leak_prob")?;
            finite(q.amplitude, "amplitude")?;
            for &phase in &q.phase_deg {
                finite(phase, "phase_deg")?;
            }
            finite(q.ring_up_tau_ns, "ring_up_tau_ns")?;
            finite(q.if_freq_mhz, "if_freq_mhz")?;
        }
        for &beta in self.crosstalk.iter().flatten() {
            finite(beta, "crosstalk")?;
        }
        finite(self.rx_noise, "rx_noise")?;
        finite(self.sample_rate_mhz, "sample_rate_mhz")?;
        finite(self.adc_full_scale, "adc_full_scale")
    }

    /// [`ChipConfig::validate`] plus the acquisition-time tone-resolution
    /// criterion: every qubit pair on the shared feedline needs at least
    /// one spectral bin ([`ChipConfig::tone_resolution_mhz`]) of
    /// separation over the configured window, or demodulation cannot
    /// separate the channels and generated data would be degenerate.
    ///
    /// Only data *generation* enforces this — prefix-truncated views of a
    /// valid acquisition (streaming checkpoints, [`ChipConfig::truncated`])
    /// legitimately widen the bin past close tone spacings, and reloading
    /// such a dataset must not reject it.
    ///
    /// # Errors
    ///
    /// Returns the first violated [`ConfigError`].
    pub fn validate_for_acquisition(&self) -> Result<(), ConfigError> {
        self.validate()?;
        let n = self.qubits.len();
        let resolution = self.tone_resolution_mhz();
        for a in 0..n {
            for b in (a + 1)..n {
                let sep = (self.qubits[a].if_freq_mhz - self.qubits[b].if_freq_mhz).abs();
                if sep < resolution {
                    return Err(ConfigError::ToneCollision(a, b));
                }
            }
        }
        Ok(())
    }
}

impl Default for ChipConfig {
    fn default() -> Self {
        Self::five_qubit_paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_preset_is_valid_and_matches_methodology() {
        let c = ChipConfig::five_qubit_paper();
        c.validate().unwrap();
        assert_eq!(c.n_qubits(), 5);
        assert_eq!(c.n_samples, 500);
        assert!((c.sample_rate_mhz - 500.0).abs() < 1e-12);
        // T1 range 7-40 us as in the paper.
        let t1s: Vec<f64> = c.qubits.iter().map(|q| q.t1_ge_us).collect();
        assert!((t1s.iter().cloned().fold(f64::INFINITY, f64::min) - 7.0).abs() < 1e-9);
        assert!((t1s.iter().cloned().fold(0.0, f64::max) - 40.0).abs() < 1e-9);
    }

    #[test]
    fn qubit2_is_least_separable() {
        let c = ChipConfig::five_qubit_paper();
        let spread =
            |q: &QubitParams| q.amplitude * (q.phase_deg[1] - q.phase_deg[0]).to_radians().sin();
        let s1 = spread(&c.qubits[1]);
        for (i, q) in c.qubits.iter().enumerate() {
            if i != 1 {
                assert!(
                    spread(q) > s1,
                    "qubit {i} should separate better than qubit 2"
                );
            }
        }
    }

    #[test]
    fn qubits_3_4_are_leakage_prone() {
        let c = ChipConfig::five_qubit_paper();
        for clean in [0usize, 1, 4] {
            for leaky in [2usize, 3] {
                assert!(c.qubits[leaky].exc_gf_per_us > c.qubits[clean].exc_gf_per_us);
                assert!(c.qubits[leaky].prep_leak_prob > c.qubits[clean].prep_leak_prob);
            }
        }
    }

    #[test]
    fn validation_catches_bad_configs() {
        let mut c = ChipConfig::five_qubit_paper();
        c.qubits[0].t1_ge_us = 0.0;
        assert_eq!(c.validate(), Err(ConfigError::NonPositive("t1")));

        let mut c = ChipConfig::five_qubit_paper();
        c.crosstalk.pop();
        assert_eq!(c.validate(), Err(ConfigError::CrosstalkShape));

        let mut c = ChipConfig::five_qubit_paper();
        c.qubits[2].prep_leak_prob = 1.5;
        assert_eq!(
            c.validate(),
            Err(ConfigError::ProbabilityRange("prep_leak_prob"))
        );

        let mut c = ChipConfig::five_qubit_paper();
        c.qubits.clear();
        assert_eq!(c.validate(), Err(ConfigError::NoQubits));
    }

    #[test]
    fn tone_collisions_are_typed_errors() {
        // Identical intermediate frequencies collide outright, even under
        // the structural check that reloads use.
        let mut c = ChipConfig::five_qubit_paper();
        c.qubits[3].if_freq_mhz = c.qubits[1].if_freq_mhz;
        assert_eq!(c.validate(), Err(ConfigError::ToneCollision(1, 3)));

        // Sub-resolution separation collides at acquisition time only:
        // 500 samples at 500 MS/s resolve 1 MHz, so tones 0.4 MHz apart
        // share a DFT bin and must not be *generated* — but the config
        // stays structurally valid, so truncated views still reload.
        let mut c = ChipConfig::five_qubit_paper();
        c.qubits[2].if_freq_mhz = c.qubits[1].if_freq_mhz + 0.4;
        assert_eq!(
            c.validate_for_acquisition(),
            Err(ConfigError::ToneCollision(1, 2))
        );
        assert_eq!(c.validate(), Ok(()));
        assert!((c.tone_resolution_mhz() - 1.0).abs() < 1e-12);

        // Exactly one bin of separation is the limiting valid spacing.
        let mut c = ChipConfig::five_qubit_paper();
        c.qubits[2].if_freq_mhz = c.qubits[1].if_freq_mhz + 1.0;
        assert_eq!(c.validate_for_acquisition(), Ok(()));

        // Prefix truncation widens the bin past the paper chip's 50 MHz
        // spacing; the structural check must keep accepting the view.
        let c = ChipConfig::five_qubit_paper().truncated(5);
        assert!(c.tone_resolution_mhz() > 50.0);
        assert_eq!(c.validate(), Ok(()));

        let msg = ConfigError::ToneCollision(1, 3).to_string();
        assert!(msg.contains('1') && msg.contains('3'));
    }

    #[test]
    fn truncation_shortens_trace() {
        let c = ChipConfig::five_qubit_paper().truncated(400);
        assert_eq!(c.n_samples, 400);
        assert!((c.duration_us() - 0.8).abs() < 1e-12);
        // Clamped, never extended.
        assert_eq!(c.truncated(9999).n_samples, 400);
    }

    #[test]
    fn uniform_chip_spaces_tones() {
        let c = ChipConfig::uniform(4);
        c.validate().unwrap();
        let f: Vec<f64> = c.qubits.iter().map(|q| q.if_freq_mhz).collect();
        assert_eq!(f, vec![-75.0, -25.0, 25.0, 75.0]);
    }

    #[test]
    fn zero_adc_bits_are_rejected() {
        let mut c = ChipConfig::five_qubit_paper();
        c.adc_bits = Some(0);
        assert_eq!(c.validate(), Err(ConfigError::AdcBits(0)));
        assert!(c.validate_for_acquisition().is_err());
    }

    #[test]
    fn sixty_four_adc_bits_are_rejected() {
        let mut c = ChipConfig::five_qubit_paper();
        c.adc_bits = Some(64);
        assert_eq!(c.validate(), Err(ConfigError::AdcBits(64)));
    }

    #[test]
    fn wrapping_adc_bits_are_rejected() {
        // 70 bits would wrap the level-count shift to 6 bits.
        let mut c = ChipConfig::five_qubit_paper();
        c.adc_bits = Some(70);
        assert_eq!(c.validate(), Err(ConfigError::AdcBits(70)));
        assert!(ConfigError::AdcBits(70).to_string().contains("70"));
    }

    #[test]
    fn adc_bit_range_edges_are_accepted() {
        for bits in [Some(1), Some(63), None] {
            let mut c = ChipConfig::five_qubit_paper();
            c.adc_bits = bits;
            assert_eq!(c.validate(), Ok(()), "{bits:?}");
        }
    }

    /// One test per `f64` field: NaN, `+inf` and `-inf` are each a typed
    /// [`ConfigError::NonFinite`] naming the field, from `validate` and
    /// from `validate_for_acquisition`.
    macro_rules! non_finite_is_rejected {
        ($($name:ident: $field:literal => |$c:ident, $x:ident| $set:expr;)*) => {$(
            #[test]
            fn $name() {
                for $x in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
                    let mut $c = ChipConfig::five_qubit_paper();
                    $set;
                    assert_eq!($c.validate(), Err(ConfigError::NonFinite($field)), "{}", $x);
                    assert_eq!(
                        $c.validate_for_acquisition(),
                        Err(ConfigError::NonFinite($field)),
                        "{}",
                        $x
                    );
                }
            }
        )*};
    }

    non_finite_is_rejected! {
        non_finite_rx_noise_is_rejected: "rx_noise" => |c, x| c.rx_noise = x;
        non_finite_sample_rate_is_rejected: "sample_rate_mhz" => |c, x| c.sample_rate_mhz = x;
        non_finite_adc_full_scale_is_rejected: "adc_full_scale" => |c, x| c.adc_full_scale = x;
        non_finite_crosstalk_is_rejected: "crosstalk" => |c, x| c.crosstalk[1][2] = x;
        non_finite_direct_leak_decay_prob_is_rejected: "direct_leak_decay_prob"
            => |c, x| c.qubits[2].direct_leak_decay_prob = x;
        non_finite_exc_ge_is_rejected: "exc_ge_per_us" => |c, x| c.qubits[0].exc_ge_per_us = x;
        non_finite_exc_gf_is_rejected: "exc_gf_per_us" => |c, x| c.qubits[3].exc_gf_per_us = x;
        non_finite_exc_ef_is_rejected: "exc_ef_per_us" => |c, x| c.qubits[4].exc_ef_per_us = x;
        non_finite_prep_leak_prob_is_rejected: "prep_leak_prob"
            => |c, x| c.qubits[1].prep_leak_prob = x;
        non_finite_amplitude_is_rejected: "amplitude" => |c, x| c.qubits[1].amplitude = x;
        non_finite_phase_is_rejected: "phase_deg" => |c, x| c.qubits[2].phase_deg[1] = x;
        non_finite_ring_up_tau_is_rejected: "ring_up_tau_ns" => |c, x| c.qubits[0].ring_up_tau_ns = x;
        non_finite_if_freq_is_rejected: "if_freq_mhz" => |c, x| c.qubits[3].if_freq_mhz = x;
    }

    #[test]
    fn nan_or_negative_infinite_t1_is_rejected() {
        for x in [f64::NAN, f64::NEG_INFINITY] {
            let mut c = ChipConfig::five_qubit_paper();
            c.qubits[3].t1_ge_us = x;
            assert_eq!(c.validate(), Err(ConfigError::NonFinite("t1_ge_us")), "{x}");
            let mut c = ChipConfig::five_qubit_paper();
            c.qubits[3].t1_ef_us = x;
            assert_eq!(c.validate(), Err(ConfigError::NonFinite("t1_ef_us")), "{x}");
        }
        assert!(ConfigError::NonFinite("t1_ge_us")
            .to_string()
            .contains("t1_ge_us must be finite"));
    }

    #[test]
    fn infinite_t1_means_no_decay() {
        use crate::{BasisState, Level, ReadoutSimulator};
        use rand::SeedableRng;
        let mut c = ChipConfig::five_qubit_paper();
        c.n_samples = 100;
        for q in &mut c.qubits {
            q.t1_ge_us = f64::INFINITY;
            q.t1_ef_us = f64::INFINITY;
        }
        assert_eq!(c.validate_for_acquisition(), Ok(()));
        let sim = ReadoutSimulator::new(c);
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        for state in [Level::Excited, Level::Leaked] {
            for _ in 0..50 {
                let shot = sim.simulate_shot(&BasisState::uniform(5, state), &mut rng);
                assert!(shot
                    .raw
                    .iter()
                    .all(|z| z.re.is_finite() && z.im.is_finite()));
                // Only measurement-induced excitations remain: no level
                // ever goes down.
                assert!(shot.events.iter().all(|e| !e.is_relaxation()));
            }
        }
    }

    #[test]
    fn config_error_display() {
        let msg = ConfigError::NonPositive("t1").to_string();
        assert!(msg.contains("t1"));
    }
}
