//! The end-to-end shot simulator: level dynamics → resonator response →
//! crosstalk → multiplexed feedline → digitiser.

use mlr_num::Complex;
use rand::Rng;
use rand_distr::{Distribution, Normal};

use crate::trajectory::{baseband_response_into, sample_level_timeline_into, LevelSegment};
use crate::{BasisState, ChipConfig, Level, Shot, ShotRecord, TransitionEvent};

/// Revision of the simulated physics and RNG stream. **Bump this whenever
/// [`ReadoutSimulator::simulate_shot`]'s output changes for a fixed seed**
/// (new physics, different draw order, RNG swap): it is folded into
/// [`crate::DatasetSpec`] fingerprints, so stale binary dataset caches
/// miss instead of silently serving pre-change traces to repro binaries.
pub const SIMULATOR_REVISION: u32 = 2;

/// Reusable per-worker scratch memory for [`ReadoutSimulator::simulate_shot_into`]:
/// the per-qubit baseband responses of one shot (flattened qubit-major),
/// one qubit's level timeline, and one channel's crosstalk-mixed baseband.
///
/// Dataset generation holds one scratch per worker thread, so filling an
/// arena performs **zero per-shot heap allocation** for trace memory.
#[derive(Debug, Default, Clone)]
pub struct SimScratch {
    basebands: Vec<Complex>,
    segments: Vec<LevelSegment>,
    mixed: Vec<Complex>,
}

/// Simulates digitised readout shots for a configured chip.
///
/// The simulator is deterministic given the caller-provided RNG, so datasets
/// are reproducible and dataset generation can be parallelised by seeding a
/// per-shot RNG.
///
/// # Examples
///
/// ```
/// use mlr_sim::{BasisState, ChipConfig, Level, ReadoutSimulator};
/// use rand::SeedableRng;
///
/// let sim = ReadoutSimulator::new(ChipConfig::five_qubit_paper());
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let shot = sim.simulate_shot(&BasisState::uniform(5, Level::Ground), &mut rng);
/// assert_eq!(shot.prepared.n_qubits(), 5);
/// ```
#[derive(Debug, Clone)]
pub struct ReadoutSimulator {
    config: ChipConfig,
    /// Precomputed per-qubit tone phasors `e^{+i 2π f_q t_n}` — sin/cos is
    /// the dominant cost of naive shot generation, so it is paid once per
    /// simulator instead of once per shot.
    tone_tables: Vec<Vec<Complex>>,
    /// The ADC's least significant bit, `2 · full_scale / 2^bits`, or
    /// `None` when quantisation is off.
    adc_lsb: Option<f64>,
}

impl ReadoutSimulator {
    /// Creates a simulator for `config`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails
    /// [`ChipConfig::validate_for_acquisition`] — generation is where
    /// sub-resolution tone spacing would silently produce degenerate
    /// channels; construct and validate the config separately to handle
    /// errors gracefully.
    pub fn new(config: ChipConfig) -> Self {
        config
            .validate_for_acquisition()
            .expect("invalid chip configuration");
        let dt_us = config.dt_us();
        let tone_tables = config
            .qubits
            .iter()
            .map(|q| {
                (0..config.n_samples)
                    .map(|n| Complex::cis(std::f64::consts::TAU * q.if_freq_mhz * n as f64 * dt_us))
                    .collect()
            })
            .collect();
        let adc_lsb = config
            .adc_bits
            .map(|bits| 2.0 * config.adc_full_scale / (1u64 << bits) as f64);
        Self {
            config,
            tone_tables,
            adc_lsb,
        }
    }

    /// Borrows the chip configuration.
    pub fn config(&self) -> &ChipConfig {
        &self.config
    }

    /// Simulates one readout shot with the register nominally prepared in
    /// `prepared`.
    ///
    /// Preparation leakage is applied first (a computational state may
    /// actually start leaked with the per-qubit `prep_leak_prob`), then each
    /// qubit follows a stochastic level timeline whose resonator response is
    /// mixed through the crosstalk matrix, modulated to its tone frequency,
    /// summed on the feedline, and digitised with additive receiver noise.
    ///
    /// # Panics
    ///
    /// Panics if `prepared` has a different number of qubits than the chip.
    pub fn simulate_shot(&self, prepared: &BasisState, rng: &mut impl Rng) -> Shot {
        let mut raw = vec![Complex::ZERO; self.config.n_samples];
        let mut scratch = SimScratch::default();
        let record = self.simulate_shot_into(prepared, rng, &mut scratch, &mut raw);
        Shot {
            raw,
            prepared: record.prepared,
            initial: record.initial,
            final_state: record.final_state,
            events: record.events,
        }
    }

    /// Simulates one shot **into** a caller-provided trace buffer — the
    /// arena-filling path of [`crate::TraceDataset::generate`]. The raw
    /// trace is written to `out` (one pre-sliced arena chunk) and the
    /// ground-truth metadata is returned as a [`ShotRecord`]; `scratch` is
    /// reused across calls so no per-shot trace memory is allocated.
    ///
    /// Bit-identical to [`ReadoutSimulator::simulate_shot`]: same RNG draw
    /// order, same floating-point operation order.
    ///
    /// # Panics
    ///
    /// Panics if `prepared` has a different number of qubits than the chip
    /// or `out` is not exactly `n_samples` long.
    pub fn simulate_shot_into(
        &self,
        prepared: &BasisState,
        rng: &mut impl Rng,
        scratch: &mut SimScratch,
        out: &mut [Complex],
    ) -> ShotRecord {
        let n_qubits = self.config.n_qubits();
        assert_eq!(
            prepared.n_qubits(),
            n_qubits,
            "prepared state does not match chip size"
        );
        let n_samples = self.config.n_samples;
        assert_eq!(out.len(), n_samples, "output chunk != readout window");
        let dt_us = self.config.dt_us();
        let duration = self.config.duration_us();

        // 1. Preparation: natural leakage may replace a computational state.
        let mut initial = prepared.clone();
        for (q, params) in self.config.qubits.iter().enumerate() {
            if !prepared.level(q).is_leaked() && rng.gen::<f64>() < params.prep_leak_prob {
                initial.set_level(q, Level::Leaked);
            }
        }

        // 2. Level dynamics and per-qubit baseband responses, written into
        //    the qubit-major scratch buffer.
        let SimScratch {
            basebands,
            segments,
            mixed,
        } = scratch;
        basebands.clear();
        basebands.resize(n_qubits * n_samples, Complex::ZERO);
        let mut events = Vec::new();
        let mut final_state = initial.clone();
        for ((q, params), bb) in self
            .config
            .qubits
            .iter()
            .enumerate()
            .zip(basebands.chunks_exact_mut(n_samples))
        {
            sample_level_timeline_into(params, initial.level(q), duration, rng, segments);
            for w in segments.windows(2) {
                events.push(TransitionEvent {
                    qubit: q,
                    time_us: w[1].start_us,
                    from: w[0].level,
                    to: w[1].level,
                });
            }
            final_state.set_level(q, segments.last().expect("nonempty timeline").level);
            baseband_response_into(params, segments, dt_us, bb);
        }

        // 3 + 4. Crosstalk mixing and frequency multiplexing, one
        // whole-window pass per channel: the channel picks up its
        // neighbours' basebands and lands on the feedline at its tone
        // frequency. Every sample sees the same operations in the same
        // order as a per-sample loop over channels, so the sums are
        // bit-identical to it.
        out.fill(Complex::ZERO);
        for (q, (row, tone)) in self
            .config
            .crosstalk
            .iter()
            .zip(&self.tone_tables)
            .enumerate()
        {
            mixed.clear();
            mixed.extend_from_slice(&basebands[q * n_samples..][..n_samples]);
            for (p, &beta) in row.iter().enumerate() {
                if p != q && beta != 0.0 {
                    let neighbour = &basebands[p * n_samples..][..n_samples];
                    for (m, &b) in mixed.iter_mut().zip(neighbour) {
                        *m += b.scale(beta);
                    }
                }
            }
            for ((o, &m), &t) in out.iter_mut().zip(mixed.iter()).zip(tone) {
                *o += m * t;
            }
        }

        // 5. Receiver noise, drawn sample by sample (I then Q), and the
        // ADC transfer function finish the trace.
        let noise = Normal::new(0.0, self.config.rx_noise).expect("validated sigma");
        for slot in out.iter_mut() {
            *slot += Complex::new(noise.sample(rng), noise.sample(rng));
            *slot = self.quantize(*slot);
        }

        events.sort_by(|a, b| a.time_us.partial_cmp(&b.time_us).expect("finite times"));
        ShotRecord {
            prepared: prepared.clone(),
            initial,
            final_state,
            events,
        }
    }

    /// Applies the ADC transfer function (clipping + uniform quantisation) to
    /// one complex sample.
    fn quantize(&self, s: Complex) -> Complex {
        match self.adc_lsb {
            None => s,
            Some(lsb) => {
                let fs = self.config.adc_full_scale;
                let q = |x: f64| (x.clamp(-fs, fs) / lsb).round() * lsb;
                Complex::new(q(s.re), q(s.im))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sim() -> ReadoutSimulator {
        ReadoutSimulator::new(ChipConfig::five_qubit_paper())
    }

    #[test]
    fn shot_has_expected_shape() {
        let s = sim();
        let mut rng = StdRng::seed_from_u64(1);
        let shot = s.simulate_shot(&BasisState::uniform(5, Level::Ground), &mut rng);
        assert_eq!(shot.len(), 500);
        assert_eq!(shot.prepared.n_qubits(), 5);
        assert_eq!(shot.final_state.n_qubits(), 5);
    }

    #[test]
    fn deterministic_given_seed() {
        let s = sim();
        let prepared = BasisState::from_flat_index(121, 5, 3);
        let a = s.simulate_shot(&prepared, &mut StdRng::seed_from_u64(99));
        let b = s.simulate_shot(&prepared, &mut StdRng::seed_from_u64(99));
        assert_eq!(a, b);
        let c = s.simulate_shot(&prepared, &mut StdRng::seed_from_u64(100));
        assert_ne!(a.raw, c.raw);
    }

    #[test]
    fn events_match_state_change() {
        let s = sim();
        let mut rng = StdRng::seed_from_u64(5);
        for i in 0..200 {
            let prepared = BasisState::from_flat_index(i % 243, 5, 3);
            let shot = s.simulate_shot(&prepared, &mut rng);
            // No events => final state equals initial state.
            if shot.events.is_empty() {
                assert_eq!(shot.initial, shot.final_state);
            }
            // Events are time ordered.
            for w in shot.events.windows(2) {
                assert!(w[0].time_us <= w[1].time_us);
            }
        }
    }

    #[test]
    fn excited_population_decays_in_aggregate() {
        let s = sim();
        let mut rng = StdRng::seed_from_u64(17);
        let prepared = BasisState::uniform(5, Level::Excited);
        let shots = 2_000;
        let mut decayed = 0usize;
        let mut total = 0usize;
        for _ in 0..shots {
            let shot = s.simulate_shot(&prepared, &mut rng);
            for q in 0..5 {
                total += 1;
                if shot.final_state.level(q) == Level::Ground {
                    decayed += 1;
                }
            }
        }
        let frac = decayed as f64 / total as f64;
        // Chip-average T1 ~ 24 us over a 1 us window -> a few percent decay.
        assert!(frac > 0.01 && frac < 0.15, "decay fraction {frac}");
    }

    #[test]
    fn natural_leakage_appears_without_preparing_it() {
        let s = sim();
        let mut rng = StdRng::seed_from_u64(23);
        let prepared = BasisState::uniform(5, Level::Ground);
        let mut leaked_initial = 0usize;
        let shots = 4_000;
        for _ in 0..shots {
            let shot = s.simulate_shot(&prepared, &mut rng);
            if shot.initial.has_leakage() {
                leaked_initial += 1;
            }
        }
        // Sum of the preset's prep_leak_probs is ~7.9% per 5-qubit shot.
        let frac = leaked_initial as f64 / shots as f64;
        assert!(frac > 0.04 && frac < 0.13, "leak fraction {frac}");
    }

    #[test]
    fn quantization_respects_full_scale() {
        let mut config = ChipConfig::five_qubit_paper();
        config.adc_bits = Some(6);
        config.adc_full_scale = 4.0;
        let s = ReadoutSimulator::new(config);
        let mut rng = StdRng::seed_from_u64(2);
        let shot = s.simulate_shot(&BasisState::uniform(5, Level::Leaked), &mut rng);
        for z in &shot.raw {
            assert!(z.re.abs() <= 4.0 + 1e-9 && z.im.abs() <= 4.0 + 1e-9);
        }
    }

    /// A test-local per-sample reference simulator: it evaluates the
    /// steady state for every sample, mixes sample by sample and samples
    /// timelines into fresh `Vec`s, in the simulator's RNG draw order.
    /// `shot` returns the trace and the ground-truth record.
    mod oracle {
        use super::*;
        use crate::{LevelSegment, QubitParams};
        use rand_distr::Exp;

        fn timeline(
            params: &QubitParams,
            initial: Level,
            duration_us: f64,
            rng: &mut impl Rng,
        ) -> Vec<LevelSegment> {
            let mut segments = Vec::with_capacity(2);
            let mut t = 0.0;
            let mut level = initial;
            while t < duration_us {
                let mut processes: Vec<(f64, Level)> = Vec::with_capacity(3);
                match level {
                    Level::Ground => {
                        processes.push((params.exc_ge_per_us, Level::Excited));
                        processes.push((params.exc_gf_per_us, Level::Leaked));
                    }
                    Level::Excited => {
                        processes.push((1.0 / params.t1_ge_us, Level::Ground));
                        processes.push((params.exc_ef_per_us, Level::Leaked));
                    }
                    Level::Leaked => {
                        let decay_rate = 1.0 / params.t1_ef_us;
                        let direct = params.direct_leak_decay_prob;
                        processes.push((decay_rate * (1.0 - direct), Level::Excited));
                        processes.push((decay_rate * direct, Level::Ground));
                    }
                }
                let mut first: Option<(f64, Level)> = None;
                for (rate, target) in processes {
                    if rate <= 0.0 {
                        continue;
                    }
                    let wait = Exp::new(rate).expect("positive rate").sample(rng);
                    if first.is_none_or(|(best, _)| wait < best) {
                        first = Some((wait, target));
                    }
                }
                match first {
                    Some((wait, target)) if t + wait < duration_us => {
                        segments.push(LevelSegment {
                            start_us: t,
                            end_us: t + wait,
                            level,
                        });
                        t += wait;
                        level = target;
                    }
                    _ => {
                        segments.push(LevelSegment {
                            start_us: t,
                            end_us: duration_us,
                            level,
                        });
                        break;
                    }
                }
            }
            segments
        }

        fn baseband(
            params: &QubitParams,
            segments: &[LevelSegment],
            dt_us: f64,
            n_samples: usize,
        ) -> Vec<Complex> {
            let tau_us = params.ring_up_tau_ns * 1e-3;
            let alpha = (-dt_us / tau_us).exp();
            let mut s = Complex::ZERO;
            let mut seg_idx = 0;
            let mut out = Vec::with_capacity(n_samples);
            for n in 0..n_samples {
                let t = n as f64 * dt_us;
                while seg_idx + 1 < segments.len() && t >= segments[seg_idx].end_us {
                    seg_idx += 1;
                }
                let level = segments[seg_idx].level;
                let target = Complex::from_polar(
                    params.amplitude,
                    params.phase_deg[level.index()].to_radians(),
                );
                s = target + (s - target).scale(alpha);
                out.push(s);
            }
            out
        }

        pub(super) fn shot(
            config: &ChipConfig,
            prepared: &BasisState,
            rng: &mut impl Rng,
        ) -> (Vec<Complex>, ShotRecord) {
            let n_qubits = config.n_qubits();
            let n_samples = config.n_samples;
            let dt_us = config.dt_us();
            let duration = config.duration_us();
            let tones: Vec<Vec<Complex>> = config
                .qubits
                .iter()
                .map(|q| {
                    (0..n_samples)
                        .map(|n| {
                            Complex::cis(std::f64::consts::TAU * q.if_freq_mhz * n as f64 * dt_us)
                        })
                        .collect()
                })
                .collect();
            let mut initial = prepared.clone();
            for (q, params) in config.qubits.iter().enumerate() {
                if !prepared.level(q).is_leaked() && rng.gen::<f64>() < params.prep_leak_prob {
                    initial.set_level(q, Level::Leaked);
                }
            }
            let mut events = Vec::new();
            let mut final_state = initial.clone();
            let mut basebands = Vec::with_capacity(n_qubits);
            for (q, params) in config.qubits.iter().enumerate() {
                let segments = timeline(params, initial.level(q), duration, rng);
                for w in segments.windows(2) {
                    events.push(TransitionEvent {
                        qubit: q,
                        time_us: w[1].start_us,
                        from: w[0].level,
                        to: w[1].level,
                    });
                }
                final_state.set_level(q, segments.last().unwrap().level);
                basebands.push(baseband(params, &segments, dt_us, n_samples));
            }
            let noise = Normal::new(0.0, config.rx_noise).unwrap();
            let mut raw = Vec::with_capacity(n_samples);
            for n in 0..n_samples {
                let mut acc = Complex::ZERO;
                for q in 0..n_qubits {
                    let mut s = basebands[q][n];
                    for (p, &beta) in config.crosstalk[q].iter().enumerate() {
                        if p != q && beta != 0.0 {
                            s += basebands[p][n].scale(beta);
                        }
                    }
                    acc += s * tones[q][n];
                }
                acc += Complex::new(noise.sample(rng), noise.sample(rng));
                raw.push(match config.adc_bits {
                    None => acc,
                    Some(bits) => {
                        let fs = config.adc_full_scale;
                        let lsb = 2.0 * fs / (1u64 << bits) as f64;
                        let q = |x: f64| (x.clamp(-fs, fs) / lsb).round() * lsb;
                        Complex::new(q(acc.re), q(acc.im))
                    }
                });
            }
            events.sort_by(|a, b| a.time_us.partial_cmp(&b.time_us).unwrap());
            let record = ShotRecord {
                prepared: prepared.clone(),
                initial,
                final_state,
                events,
            };
            (raw, record)
        }
    }

    #[test]
    fn simulation_is_bit_identical_to_the_per_sample_oracle() {
        // Chips: the paper preset (asymmetric crosstalk, 12-bit ADC), an
        // unquantised odd-length window, and a short-lived, leak-prone chip
        // with dense crosstalk so mid-trace jumps are common.
        let paper = ChipConfig::five_qubit_paper();
        let mut odd = ChipConfig::five_qubit_paper();
        odd.n_samples = 137;
        odd.adc_bits = None;
        let mut jumpy = ChipConfig::uniform(4);
        jumpy.n_samples = 251;
        jumpy.adc_bits = Some(8);
        jumpy.adc_full_scale = 6.0;
        for (q, row) in jumpy.crosstalk.iter_mut().enumerate() {
            for (p, beta) in row.iter_mut().enumerate() {
                if p != q {
                    *beta = 0.02 + 0.01 * ((q + 2 * p) % 3) as f64;
                }
            }
        }
        for q in &mut jumpy.qubits {
            q.t1_ge_us = 0.6;
            q.t1_ef_us = 0.4;
            q.exc_ge_per_us = 0.8;
            q.exc_gf_per_us = 0.3;
            q.exc_ef_per_us = 0.5;
            q.prep_leak_prob = 0.2;
        }
        let mut events_seen = 0usize;
        let mut leaks_seen = 0usize;
        for (c, config) in [paper, odd, jumpy].into_iter().enumerate() {
            let sim = ReadoutSimulator::new(config.clone());
            let n = config.n_qubits();
            let mut scratch = SimScratch::default();
            let mut out = vec![Complex::ZERO; config.n_samples];
            let mut seeds = StdRng::seed_from_u64(0x5eed + c as u64);
            for k in 0..40 {
                let seed: u64 = seeds.gen();
                let prepared = BasisState::from_flat_index(k % 3usize.pow(n as u32), n, 3);
                let (want_raw, want) =
                    oracle::shot(&config, &prepared, &mut StdRng::seed_from_u64(seed));
                let got = sim.simulate_shot_into(
                    &prepared,
                    &mut StdRng::seed_from_u64(seed),
                    &mut scratch,
                    &mut out,
                );
                let bits = |xs: &[Complex]| -> Vec<(u64, u64)> {
                    xs.iter()
                        .map(|z| (z.re.to_bits(), z.im.to_bits()))
                        .collect()
                };
                assert_eq!(bits(&out), bits(&want_raw), "chip {c} shot {k} trace");
                assert_eq!(got, want, "chip {c} shot {k} record");
                events_seen += got.events.len();
                leaks_seen += usize::from(got.initial != got.prepared);
            }
        }
        assert!(events_seen > 20, "only {events_seen} mid-trace transitions");
        assert!(leaks_seen > 5, "only {leaks_seen} leaked preparations");
    }

    #[test]
    #[should_panic(expected = "prepared state does not match chip size")]
    fn rejects_wrong_register_width() {
        let s = sim();
        let mut rng = StdRng::seed_from_u64(0);
        let _ = s.simulate_shot(&BasisState::uniform(3, Level::Ground), &mut rng);
    }
}
