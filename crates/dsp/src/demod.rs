//! Digital down-conversion of the multiplexed feedline trace.

use mlr_num::Complex;
use mlr_sim::ChipConfig;

/// Per-qubit digital down-converter for a frequency-multiplexed chip.
///
/// Holds one precomputed reference phasor table `e^{-i 2π f_q t}` per qubit;
/// demodulation is a sample-wise complex multiply (the "two FMA units" the
/// paper notes demodulation costs in hardware).
///
/// # Examples
///
/// ```
/// use mlr_dsp::Demodulator;
/// use mlr_sim::ChipConfig;
///
/// let config = ChipConfig::five_qubit_paper();
/// let demod = Demodulator::new(&config);
/// assert_eq!(demod.n_qubits(), 5);
/// ```
#[derive(Debug, Clone)]
pub struct Demodulator {
    /// `references[q][n] = e^{-i 2π f_q t_n}`.
    references: Vec<Vec<Complex>>,
}

impl Demodulator {
    /// Builds reference tables for every qubit of `config`.
    pub fn new(config: &ChipConfig) -> Self {
        let dt_us = config.dt_us();
        let references = config
            .qubits
            .iter()
            .map(|q| {
                (0..config.n_samples)
                    .map(|n| {
                        let t_us = n as f64 * dt_us;
                        Complex::cis(-std::f64::consts::TAU * q.if_freq_mhz * t_us)
                    })
                    .collect()
            })
            .collect();
        Self { references }
    }

    /// Number of qubits the demodulator was built for.
    pub fn n_qubits(&self) -> usize {
        self.references.len()
    }

    /// Trace length the references were generated for.
    pub fn n_samples(&self) -> usize {
        self.references.first().map_or(0, Vec::len)
    }

    /// Borrows qubit `q`'s reference phasor table `e^{-i 2π f_q t_n}` —
    /// what a fused demodulate-and-score path folds into its kernels.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    pub fn reference(&self, q: usize) -> &[Complex] {
        &self.references[q]
    }

    /// Demodulates the composite trace to qubit `q`'s baseband.
    ///
    /// Traces shorter than the reference table are allowed (truncated
    /// readout); the output matches the input length.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range or the trace is longer than the
    /// reference table.
    pub fn demodulate(&self, raw: &[Complex], q: usize) -> Vec<Complex> {
        let refs = &self.references[q];
        self.check_len(raw.len());
        raw.iter().zip(refs).map(|(&s, &r)| s * r).collect()
    }

    /// Checks that a trace of `len` samples fits the reference tables —
    /// the one length rule every demodulating path shares.
    ///
    /// # Panics
    ///
    /// Panics with "trace longer than demodulation reference" if `len`
    /// exceeds [`Demodulator::n_samples`].
    pub fn check_len(&self, len: usize) {
        assert!(
            len <= self.n_samples(),
            "trace longer than demodulation reference"
        );
    }

    /// Every qubit's reference phasors laid out sample-major and
    /// interleaved: row `t` is `lanes` complex lanes, lane `q < n_qubits`
    /// holding `(re, im)` of qubit `q`'s phasor at sample `t` and the
    /// remaining lanes the zero phasor. A single pass over the trace can
    /// then demodulate every tone from one row per sample.
    ///
    /// # Panics
    ///
    /// Panics if `lanes` is smaller than [`Demodulator::n_qubits`].
    pub fn sample_major_table(&self, lanes: usize) -> Vec<f64> {
        assert!(
            lanes >= self.n_qubits(),
            "{lanes} lanes for {} qubits",
            self.n_qubits()
        );
        let mut table = vec![0.0; self.n_samples() * 2 * lanes];
        for (q, refs) in self.references.iter().enumerate() {
            for (t, r) in refs.iter().enumerate() {
                table[(t * lanes + q) * 2] = r.re;
                table[(t * lanes + q) * 2 + 1] = r.im;
            }
        }
        table
    }

    /// Demodulates all channels at once.
    ///
    /// # Panics
    ///
    /// As for [`Demodulator::demodulate`].
    pub fn demodulate_all(&self, raw: &[Complex]) -> Vec<Vec<Complex>> {
        (0..self.n_qubits())
            .map(|q| self.demodulate(raw, q))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlr_num::Complex;

    fn tiny_config() -> ChipConfig {
        let mut c = ChipConfig::uniform(2);
        c.n_samples = 100;
        c
    }

    #[test]
    fn demodulating_own_tone_gives_dc() {
        let c = tiny_config();
        let demod = Demodulator::new(&c);
        let f = c.qubits[0].if_freq_mhz;
        let dt = c.dt_us();
        // Pure unit tone at qubit 0's frequency.
        let raw: Vec<Complex> = (0..c.n_samples)
            .map(|n| Complex::cis(std::f64::consts::TAU * f * n as f64 * dt))
            .collect();
        let bb = demod.demodulate(&raw, 0);
        for z in bb {
            assert!((z - Complex::ONE).abs() < 1e-9);
        }
    }

    #[test]
    fn foreign_tone_averages_out() {
        let c = tiny_config();
        let demod = Demodulator::new(&c);
        let f1 = c.qubits[1].if_freq_mhz;
        let dt = c.dt_us();
        let raw: Vec<Complex> = (0..c.n_samples)
            .map(|n| Complex::cis(std::f64::consts::TAU * f1 * n as f64 * dt))
            .collect();
        // Demodulate with qubit 0's reference: result rotates at f1-f0 and
        // integrates to ~0 over an integer number of beat periods.
        let bb = demod.demodulate(&raw, 0);
        let mean = bb.iter().copied().sum::<Complex>() / bb.len() as f64;
        assert!(mean.abs() < 0.05, "residual {}", mean.abs());
    }

    #[test]
    fn truncated_trace_is_accepted() {
        let c = tiny_config();
        let demod = Demodulator::new(&c);
        let raw = vec![Complex::ONE; 40];
        assert_eq!(demod.demodulate(&raw, 1).len(), 40);
    }

    #[test]
    fn sample_major_table_interleaves_every_tone_per_sample() {
        let c = tiny_config();
        let demod = Demodulator::new(&c);
        let table = demod.sample_major_table(4);
        assert_eq!(table.len(), c.n_samples * 8);
        for t in [0, 1, 57, c.n_samples - 1] {
            let row = &table[t * 8..][..8];
            for q in 0..2 {
                let r = demod.reference(q)[t];
                assert_eq!(row[2 * q].to_bits(), r.re.to_bits());
                assert_eq!(row[2 * q + 1].to_bits(), r.im.to_bits());
            }
            assert_eq!(&row[4..], &[0.0; 4]);
        }
    }

    #[test]
    #[should_panic(expected = "trace longer")]
    fn over_long_trace_is_rejected() {
        let c = tiny_config();
        let demod = Demodulator::new(&c);
        let raw = vec![Complex::ONE; 101];
        let _ = demod.demodulate(&raw, 0);
    }
}
