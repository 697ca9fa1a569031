//! Stochastic level timelines and the resonator's response to them.

use mlr_num::Complex;
use rand::Rng;
use rand_distr::{Distribution, Exp};

use crate::{Level, QubitParams};

/// One piece of a piecewise-constant level timeline: the qubit occupies
/// `level` from `start_us` (inclusive) to `end_us` (exclusive).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LevelSegment {
    /// Segment start time within the readout window, microseconds.
    pub start_us: f64,
    /// Segment end time, microseconds.
    pub end_us: f64,
    /// Level occupied during the segment.
    pub level: Level,
}

/// Samples the stochastic level trajectory of one qubit over a readout
/// window of `duration_us`, starting from `initial`.
///
/// Relaxation (`1/T1` rates, with `|2⟩` branching to `|1⟩` or directly to
/// `|0⟩`) competes with measurement-induced excitation; the earliest
/// exponential clock fires and the walk continues from the new level.
///
/// The result is never empty and its segments tile `[0, duration_us]`
/// exactly.
///
/// # Examples
///
/// ```
/// use mlr_sim::{sample_level_timeline, Level, QubitParams};
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let segs = sample_level_timeline(&QubitParams::nominal(), Level::Ground, 1.0, &mut rng);
/// assert_eq!(segs[0].start_us, 0.0);
/// assert_eq!(segs.last().unwrap().end_us, 1.0);
/// ```
pub fn sample_level_timeline(
    params: &QubitParams,
    initial: Level,
    duration_us: f64,
    rng: &mut impl Rng,
) -> Vec<LevelSegment> {
    let mut segments = Vec::with_capacity(2);
    sample_level_timeline_into(params, initial, duration_us, rng, &mut segments);
    segments
}

/// [`sample_level_timeline`] into a caller-held buffer (cleared first) —
/// the allocation-free form the arena-filling simulator uses. Same draws,
/// same segments.
pub(crate) fn sample_level_timeline_into(
    params: &QubitParams,
    initial: Level,
    duration_us: f64,
    rng: &mut impl Rng,
    segments: &mut Vec<LevelSegment>,
) {
    segments.clear();
    let mut t = 0.0;
    let mut level = initial;

    while t < duration_us {
        // Candidate processes from the current level: (rate per us, target).
        let processes = match level {
            Level::Ground => [
                (params.exc_ge_per_us, Level::Excited),
                (params.exc_gf_per_us, Level::Leaked),
            ],
            Level::Excited => [
                (1.0 / params.t1_ge_us, Level::Ground),
                (params.exc_ef_per_us, Level::Leaked),
            ],
            Level::Leaked => {
                let decay_rate = 1.0 / params.t1_ef_us;
                let direct = params.direct_leak_decay_prob;
                [
                    (decay_rate * (1.0 - direct), Level::Excited),
                    (decay_rate * direct, Level::Ground),
                ]
            }
        };

        // Earliest firing clock wins.
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
}

/// Steady-state dispersive response of the resonator when the qubit sits in
/// `level`.
pub(crate) fn steady_state(params: &QubitParams, level: Level) -> Complex {
    Complex::from_polar(
        params.amplitude,
        params.phase_deg[level.index()].to_radians(),
    )
}

/// The factor `e^{-dt/τ}` by which the resonator's distance to its
/// steady state shrinks over one sample period.
pub(crate) fn ring_up_factor(params: &QubitParams, dt_us: f64) -> f64 {
    let tau_us = params.ring_up_tau_ns * 1e-3;
    (-dt_us / tau_us).exp()
}

/// One stretch of a qubit's readout window over which its resonator
/// relaxes toward a single steady state: the samples from the previous
/// run's `end` up to `end` (exclusive). A run may be empty.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Run {
    /// One past the run's last sample.
    pub(crate) end: usize,
    /// The steady state the resonator relaxes toward.
    pub(crate) target: Complex,
}

/// Appends the runs of a level timeline over an `n_samples` window to
/// `runs`, one per segment: sample `n` belongs to the first segment whose
/// end lies after `n · dt_us`, and the last segment takes every remaining
/// sample. The runs tile `0..n_samples` in order.
pub(crate) fn push_runs(
    params: &QubitParams,
    segments: &[LevelSegment],
    dt_us: f64,
    n_samples: usize,
    runs: &mut Vec<Run>,
) {
    let mut n = 0;
    for (i, seg) in segments.iter().enumerate() {
        let end = if i + 1 == segments.len() {
            n_samples
        } else {
            first_sample_not_before(seg.end_us, dt_us, n, n_samples)
        };
        runs.push(Run {
            end,
            target: steady_state(params, seg.level),
        });
        n = end;
    }
}

/// The first sample `m` in `from..n_samples` with `m · dt_us` not below
/// `t_us`, or `n_samples` if there is none. `m · dt_us` never decreases
/// as `m` grows, so the samples before `t_us` form a prefix: start at the
/// rounded estimate and walk to its exact edge.
fn first_sample_not_before(t_us: f64, dt_us: f64, from: usize, n_samples: usize) -> usize {
    let before = |m: usize| (m as f64 * dt_us) < t_us;
    let guess = (t_us / dt_us).ceil();
    let mut m = if guess > from as f64 {
        (guess as usize).min(n_samples)
    } else {
        from
    };
    while m > from && !before(m - 1) {
        m -= 1;
    }
    while m < n_samples && before(m) {
        m += 1;
    }
    m
}

/// Integrates one qubit's resonator response to a level timeline — the
/// one-qubit form of the simulator's lockstep loop, which advances every
/// qubit's recurrence over the same [`push_runs`] runs.
///
/// The resonator starts empty (`s(0) = 0`, ring-up) and relaxes toward the
/// steady-state point of the currently occupied level with time constant
/// `ring_up_tau_ns`; a mid-trace jump re-targets the relaxation, producing
/// the characteristic kinked trajectories that relaxation/excitation matched
/// filters key on. Writes one complex (I, Q) sample per slot of `out`.
#[cfg(test)]
pub(crate) fn baseband_response_into(
    params: &QubitParams,
    segments: &[LevelSegment],
    dt_us: f64,
    out: &mut [Complex],
) {
    let alpha = ring_up_factor(params, dt_us);
    let mut runs = Vec::new();
    push_runs(params, segments, dt_us, out.len(), &mut runs);
    let mut s = Complex::ZERO;
    let mut n = 0;
    for run in runs {
        for slot in &mut out[n..run.end] {
            // First-order relaxation toward the target over one sample period.
            s = run.target + (s - run.target).scale(alpha);
            *slot = s;
        }
        n = run.end;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn nominal() -> QubitParams {
        QubitParams::nominal()
    }

    fn baseband_response(
        params: &QubitParams,
        segments: &[LevelSegment],
        n_samples: usize,
        dt_us: f64,
    ) -> Vec<Complex> {
        let mut out = vec![Complex::ZERO; n_samples];
        baseband_response_into(params, segments, dt_us, &mut out);
        out
    }

    #[test]
    fn segment_boundaries_match_the_per_sample_lookup() {
        // Boundaries on exact sample times, a zero-length segment and a
        // window shorter than the timeline: the per-segment loop must
        // assign every sample to the same level as a per-sample lookup.
        let params = nominal();
        let dt_us = 1.0 / 500.0;
        let at = |n: usize| n as f64 * dt_us;
        let segs = [
            LevelSegment {
                start_us: 0.0,
                end_us: at(40),
                level: Level::Excited,
            },
            LevelSegment {
                start_us: at(40),
                end_us: at(40),
                level: Level::Leaked,
            },
            LevelSegment {
                start_us: at(40),
                end_us: at(97),
                level: Level::Ground,
            },
            LevelSegment {
                start_us: at(97),
                end_us: at(500),
                level: Level::Leaked,
            },
        ];
        for n_samples in [30, 40, 41, 97, 300] {
            let got = baseband_response(&params, &segs, n_samples, dt_us);
            let alpha = (-dt_us / (params.ring_up_tau_ns * 1e-3)).exp();
            let mut s = Complex::ZERO;
            let mut seg_idx = 0;
            for (n, z) in got.iter().enumerate() {
                while seg_idx + 1 < segs.len() && at(n) >= segs[seg_idx].end_us {
                    seg_idx += 1;
                }
                let target = steady_state(&params, segs[seg_idx].level);
                s = target + (s - target).scale(alpha);
                assert_eq!(
                    (z.re.to_bits(), z.im.to_bits()),
                    (s.re.to_bits(), s.im.to_bits()),
                    "sample {n} of {n_samples}"
                );
            }
        }
    }

    #[test]
    fn timeline_tiles_window() {
        let mut rng = StdRng::seed_from_u64(42);
        for init in Level::ALL {
            for _ in 0..50 {
                let segs = sample_level_timeline(&nominal(), init, 1.0, &mut rng);
                assert!(!segs.is_empty());
                assert_eq!(segs[0].start_us, 0.0);
                assert_eq!(segs.last().unwrap().end_us, 1.0);
                for w in segs.windows(2) {
                    assert!((w[0].end_us - w[1].start_us).abs() < 1e-12);
                    assert_ne!(w[0].level, w[1].level, "segments only split at jumps");
                }
            }
        }
    }

    #[test]
    fn excited_state_decays_at_roughly_t1_rate() {
        let mut params = nominal();
        params.t1_ge_us = 5.0;
        params.exc_ef_per_us = 0.0;
        let mut rng = StdRng::seed_from_u64(7);
        let trials = 20_000;
        let mut decayed = 0;
        for _ in 0..trials {
            let segs = sample_level_timeline(&params, Level::Excited, 1.0, &mut rng);
            if segs.last().unwrap().level == Level::Ground {
                decayed += 1;
            }
        }
        let p = decayed as f64 / trials as f64;
        let expected = 1.0 - (-1.0f64 / 5.0).exp(); // ~0.181
        assert!(
            (p - expected).abs() < 0.01,
            "decay fraction {p} vs expected {expected}"
        );
    }

    #[test]
    fn ground_state_mostly_stays_put() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut stayed = 0;
        let trials = 5_000;
        for _ in 0..trials {
            let segs = sample_level_timeline(&nominal(), Level::Ground, 1.0, &mut rng);
            if segs.len() == 1 {
                stayed += 1;
            }
        }
        // exc rates are ~0.005/us, so >98% of shots should be jump-free.
        assert!(stayed as f64 / trials as f64 > 0.98);
    }

    #[test]
    fn leaked_state_decays_through_cascade() {
        let mut params = nominal();
        params.t1_ef_us = 0.05; // decay almost surely within the window
        params.t1_ge_us = 0.05;
        let mut rng = StdRng::seed_from_u64(11);
        let segs = sample_level_timeline(&params, Level::Leaked, 1.0, &mut rng);
        assert!(segs.len() >= 2);
        assert_eq!(segs.last().unwrap().level, Level::Ground);
    }

    #[test]
    fn zero_rates_freeze_the_ground_state() {
        let mut params = nominal();
        params.exc_ge_per_us = 0.0;
        params.exc_gf_per_us = 0.0;
        let mut rng = StdRng::seed_from_u64(5);
        let segs = sample_level_timeline(&params, Level::Ground, 1.0, &mut rng);
        assert_eq!(segs.len(), 1);
        assert_eq!(segs[0].level, Level::Ground);
    }

    #[test]
    fn response_rings_up_to_steady_state() {
        let params = nominal();
        let segs = [LevelSegment {
            start_us: 0.0,
            end_us: 1.0,
            level: Level::Excited,
        }];
        let resp = baseband_response(&params, &segs, 500, 1.0 / 500.0);
        let target = steady_state(&params, Level::Excited);
        // Early sample far from steady state, late sample converged.
        assert!((resp[0] - target).abs() > 0.5 * target.abs());
        assert!((resp[499] - target).abs() < 1e-3 * target.abs());
    }

    #[test]
    fn response_tracks_mid_trace_jump() {
        let params = nominal();
        let segs = [
            LevelSegment {
                start_us: 0.0,
                end_us: 0.5,
                level: Level::Excited,
            },
            LevelSegment {
                start_us: 0.5,
                end_us: 1.0,
                level: Level::Ground,
            },
        ];
        let resp = baseband_response(&params, &segs, 500, 1.0 / 500.0);
        let e = steady_state(&params, Level::Excited);
        let g = steady_state(&params, Level::Ground);
        // Just before the jump: near |1>; at the end: near |0>.
        assert!((resp[249] - e).abs() < 0.1 * e.abs());
        assert!((resp[499] - g).abs() < 0.1 * g.abs());
    }
}
