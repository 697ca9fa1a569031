//! The simulator's per-shot kernels: the lockstep loop that turns every
//! qubit's level timeline into the noiseless multiplexed feedline trace,
//! and the ADC quantiser.
//!
//! # Bit reproducibility
//!
//! Each kernel has an AVX2 body and a scalar mirror, picked at runtime
//! (cached feature detection). For every sample both perform the same IEEE
//! operations in the same order as a per-sample loop over channels —
//! separate multiply and add, no FMA — so their traces agree bit for bit
//! with each other and with the per-sample oracle the simulator's tests
//! keep.
//!
//! # The lockstep loop
//!
//! Sample by sample, every qubit's ring-up recurrence advances one step,
//! then each channel adds its neighbours' fresh samples through its
//! crosstalk row and lands on the feedline at its tone. The recurrences of
//! different qubits are independent, so advancing them together keeps
//! several dependency chains in flight instead of running one qubit's
//! whole window before the next. The AVX2 body takes [`BLOCK`] samples at
//! a time: each qubit's four samples are computed as complex pairs in
//! `xmm` registers, transposed into a real and an imaginary plane of one
//! `ymm` each, and every crosstalk and tone operation then covers the four
//! samples at once. The scalar mirror and the AVX2 body's tail run one
//! sample at a time.

use mlr_num::Complex;

use crate::trajectory::{ring_up_factor, Run};
use crate::ChipConfig;

/// Which body a kernel runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Tier {
    /// The scalar mirror.
    Scalar,
    /// 256-bit AVX2.
    Avx2,
}

impl Tier {
    /// AVX2 where the host has it, else the scalar mirror.
    pub(crate) fn host() -> Self {
        #[cfg(target_arch = "x86_64")]
        {
            use std::sync::OnceLock;
            static AVX2: OnceLock<bool> = OnceLock::new();
            if *AVX2.get_or_init(|| is_x86_feature_detected!("avx2")) {
                return Tier::Avx2;
            }
        }
        Tier::Scalar
    }

    /// Whether this tier's body runs on this host.
    fn checked(self) -> Self {
        assert!(
            self == Tier::Scalar || Tier::host() == Tier::Avx2,
            "AVX2 unavailable on this host"
        );
        self
    }
}

/// Samples per block of the AVX2 lockstep body: one `ymm` of `f64`.
const BLOCK: usize = 4;

/// The lane sample `j` of a block occupies in the AVX2 body's planes —
/// the order `unpacklo`/`unpackhi` of two complex pairs leave them in. The
/// map is its own inverse.
const LANE: [usize; BLOCK] = [0, 2, 1, 3];

/// One qubit's resonator as the lockstep loop advances it through the
/// qubit's runs.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Ring {
    /// The latest sample (zero before the first: the resonator starts
    /// empty).
    s: Complex,
    /// The current run's steady state.
    target: Complex,
    /// One past the current run's last sample.
    end: usize,
    /// Index of the next run in the shot's run list.
    next: usize,
    /// `e^{-dt/τ}`.
    alpha: f64,
}

impl Ring {
    /// Moves to the run holding sample `n`, skipping empty runs.
    #[inline]
    fn seek(&mut self, n: usize, runs: &[Run]) {
        while n >= self.end {
            let run = runs[self.next];
            self.next += 1;
            self.end = run.end;
            self.target = run.target;
        }
    }

    /// Advances to sample `n` (the one after the last) and returns it.
    #[inline]
    fn step(&mut self, n: usize, runs: &[Run]) -> Complex {
        self.seek(n, runs);
        // First-order relaxation toward the target over one sample period.
        self.s = self.target + (self.s - self.target).scale(self.alpha);
        self.s
    }
}

/// A chip's fixed tables for the lockstep loop.
#[derive(Debug, Clone)]
pub(crate) struct Lockstep {
    n_samples: usize,
    /// Per qubit, `e^{-dt/τ}`.
    alphas: Vec<f64>,
    /// Crosstalk row `q`'s nonzero off-diagonal entries `(p, β)` in
    /// ascending `p`, at `mix[mix_starts[q]..mix_starts[q + 1]]`.
    mix: Vec<(usize, f64)>,
    mix_starts: Vec<usize>,
    /// Tone phasors `e^{+i 2π f_q t_n}` in blocks of [`BLOCK`] samples:
    /// qubit `q`'s sample `n = BLOCK · b + j` has its real part at
    /// `[(q · blocks + b) · 2 · BLOCK + LANE[j]]` and its imaginary part
    /// `BLOCK` further on; slots past the window hold zero. sin/cos is the
    /// dominant cost of naive shot generation, so it is paid once per
    /// simulator instead of once per shot.
    tones: Vec<f64>,
}

impl Lockstep {
    /// The tables for `config`.
    pub(crate) fn new(config: &ChipConfig) -> Self {
        let dt_us = config.dt_us();
        let n_samples = config.n_samples;
        let blocks = n_samples.div_ceil(BLOCK);
        let mut tones = vec![0.0; config.n_qubits() * blocks * 2 * BLOCK];
        for (q, params) in config.qubits.iter().enumerate() {
            for n in 0..n_samples {
                let t = Complex::cis(std::f64::consts::TAU * params.if_freq_mhz * n as f64 * dt_us);
                let at = (q * blocks + n / BLOCK) * 2 * BLOCK + LANE[n % BLOCK];
                tones[at] = t.re;
                tones[at + BLOCK] = t.im;
            }
        }
        let mut mix = Vec::new();
        let mut mix_starts = vec![0];
        for (q, row) in config.crosstalk.iter().enumerate() {
            mix.extend(
                row.iter()
                    .enumerate()
                    .filter(|&(p, &beta)| p != q && beta != 0.0)
                    .map(|(p, &beta)| (p, beta)),
            );
            mix_starts.push(mix.len());
        }
        Self {
            n_samples,
            alphas: config
                .qubits
                .iter()
                .map(|q| ring_up_factor(q, dt_us))
                .collect(),
            mix,
            mix_starts,
            tones,
        }
    }

    /// Qubit `q`'s resonator, empty, about to enter the run at index
    /// `first_run` of the shot's run list.
    pub(crate) fn ring(&self, q: usize, first_run: usize) -> Ring {
        Ring {
            s: Complex::ZERO,
            target: Complex::ZERO,
            end: 0,
            next: first_run,
            alpha: self.alphas[q],
        }
    }

    fn neighbours(&self, q: usize) -> &[(usize, f64)] {
        &self.mix[self.mix_starts[q]..self.mix_starts[q + 1]]
    }

    fn tone(&self, q: usize, n: usize) -> Complex {
        let at = (q * self.n_samples.div_ceil(BLOCK) + n / BLOCK) * 2 * BLOCK + LANE[n % BLOCK];
        Complex::new(self.tones[at], self.tones[at + BLOCK])
    }

    /// Writes the noiseless feedline trace of one shot to `out`: `rings`
    /// holds one fresh [`Lockstep::ring`] per qubit over `runs`, and
    /// `planes` is scratch.
    ///
    /// # Panics
    ///
    /// Panics if `out` is not the window's length, or if `tier` is AVX2 on
    /// a host without it.
    pub(crate) fn run(
        &self,
        tier: Tier,
        runs: &[Run],
        rings: &mut [Ring],
        planes: &mut Vec<f64>,
        out: &mut [Complex],
    ) {
        assert_eq!(out.len(), self.n_samples, "output chunk != readout window");
        assert_eq!(rings.len() + 1, self.mix_starts.len(), "one ring per qubit");
        let mut done = 0;
        #[cfg(target_arch = "x86_64")]
        if tier.checked() == Tier::Avx2 {
            planes.clear();
            planes.resize(rings.len() * 2 * BLOCK, 0.0);
            // SAFETY: AVX2 was checked above; `out` spans the window, the
            // tone table covers every qubit's blocks and `planes` holds
            // two planes per qubit.
            done = unsafe { self.avx2(runs, rings, planes, out) };
        }
        #[cfg(not(target_arch = "x86_64"))]
        let _ = (tier.checked(), &planes);
        self.scalar_from(done, runs, rings, out);
    }

    /// The scalar mirror, one sample at a time from sample `from` on.
    fn scalar_from(&self, from: usize, runs: &[Run], rings: &mut [Ring], out: &mut [Complex]) {
        for (n, slot) in out.iter_mut().enumerate().skip(from) {
            for ring in rings.iter_mut() {
                ring.step(n, runs);
            }
            let mut acc = Complex::ZERO;
            for (q, ring) in rings.iter().enumerate() {
                let mut m = ring.s;
                for &(p, beta) in self.neighbours(q) {
                    m += rings[p].s.scale(beta);
                }
                acc += m * self.tone(q, n);
            }
            *slot = acc;
        }
    }

    /// The AVX2 body over every whole block; returns the samples done.
    ///
    /// # Safety
    ///
    /// AVX2 must be available, `out` must span the window and `planes`
    /// must hold `2 · BLOCK` values per ring.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn avx2(
        &self,
        runs: &[Run],
        rings: &mut [Ring],
        planes: &mut [f64],
        out: &mut [Complex],
    ) -> usize {
        use std::arch::x86_64::{
            _mm256_add_pd, _mm256_castpd128_pd256, _mm256_insertf128_pd, _mm256_loadu_pd,
            _mm256_mul_pd, _mm256_set1_pd, _mm256_setzero_pd, _mm256_storeu_pd, _mm256_sub_pd,
            _mm256_unpackhi_pd, _mm256_unpacklo_pd, _mm_add_pd, _mm_loadu_pd, _mm_mul_pd,
            _mm_set1_pd, _mm_storeu_pd, _mm_sub_pd,
        };
        let full = self.n_samples - self.n_samples % BLOCK;
        let blocks = self.n_samples.div_ceil(BLOCK);
        let pp = planes.as_mut_ptr();
        let op = out.as_mut_ptr().cast::<f64>();
        for b in 0..full / BLOCK {
            let n0 = b * BLOCK;
            // Each qubit's four samples as two complex pairs, transposed
            // into a real plane and an imaginary plane.
            for (q, ring) in rings.iter_mut().enumerate() {
                ring.seek(n0, runs);
                let (lo, hi) = if n0 + BLOCK <= ring.end {
                    let t = _mm_loadu_pd(std::ptr::addr_of!(ring.target).cast());
                    let a = _mm_set1_pd(ring.alpha);
                    let s0 = _mm_loadu_pd(std::ptr::addr_of!(ring.s).cast());
                    let s1 = _mm_add_pd(t, _mm_mul_pd(_mm_sub_pd(s0, t), a));
                    let s2 = _mm_add_pd(t, _mm_mul_pd(_mm_sub_pd(s1, t), a));
                    let s3 = _mm_add_pd(t, _mm_mul_pd(_mm_sub_pd(s2, t), a));
                    let s4 = _mm_add_pd(t, _mm_mul_pd(_mm_sub_pd(s3, t), a));
                    _mm_storeu_pd(std::ptr::addr_of_mut!(ring.s).cast(), s4);
                    (
                        _mm256_insertf128_pd(_mm256_castpd128_pd256(s1), s2, 1),
                        _mm256_insertf128_pd(_mm256_castpd128_pd256(s3), s4, 1),
                    )
                } else {
                    // A run ends inside the block.
                    let z: [Complex; BLOCK] = std::array::from_fn(|j| ring.step(n0 + j, runs));
                    let zp = z.as_ptr().cast::<f64>();
                    (_mm256_loadu_pd(zp), _mm256_loadu_pd(zp.add(4)))
                };
                _mm256_storeu_pd(pp.add(q * 2 * BLOCK), _mm256_unpacklo_pd(lo, hi));
                _mm256_storeu_pd(pp.add(q * 2 * BLOCK + BLOCK), _mm256_unpackhi_pd(lo, hi));
            }
            let mut acc_re = _mm256_setzero_pd();
            let mut acc_im = _mm256_setzero_pd();
            for q in 0..rings.len() {
                let mut m_re = _mm256_loadu_pd(pp.add(q * 2 * BLOCK));
                let mut m_im = _mm256_loadu_pd(pp.add(q * 2 * BLOCK + BLOCK));
                for &(p, beta) in self.neighbours(q) {
                    let beta = _mm256_set1_pd(beta);
                    let n_re = _mm256_loadu_pd(pp.add(p * 2 * BLOCK));
                    let n_im = _mm256_loadu_pd(pp.add(p * 2 * BLOCK + BLOCK));
                    m_re = _mm256_add_pd(m_re, _mm256_mul_pd(n_re, beta));
                    m_im = _mm256_add_pd(m_im, _mm256_mul_pd(n_im, beta));
                }
                let tp = self.tones.as_ptr().add((q * blocks + b) * 2 * BLOCK);
                let (t_re, t_im) = (_mm256_loadu_pd(tp), _mm256_loadu_pd(tp.add(BLOCK)));
                let x_re = _mm256_sub_pd(_mm256_mul_pd(m_re, t_re), _mm256_mul_pd(m_im, t_im));
                let x_im = _mm256_add_pd(_mm256_mul_pd(m_re, t_im), _mm256_mul_pd(m_im, t_re));
                acc_re = _mm256_add_pd(acc_re, x_re);
                acc_im = _mm256_add_pd(acc_im, x_im);
            }
            // Back to complex pairs: samples 0, 1 and then 2, 3.
            _mm256_storeu_pd(op.add(2 * n0), _mm256_unpacklo_pd(acc_re, acc_im));
            _mm256_storeu_pd(op.add(2 * n0 + BLOCK), _mm256_unpackhi_pd(acc_re, acc_im));
        }
        full
    }
}

/// Applies the ADC transfer function — clip to `±full_scale`, then round
/// to the nearest multiple of `lsb`, halves away from zero — to every
/// sample of `out`.
///
/// # Panics
///
/// Panics if `tier` is AVX2 on a host without it.
pub(crate) fn quantize(tier: Tier, out: &mut [Complex], full_scale: f64, lsb: f64) {
    let mut done = 0;
    #[cfg(target_arch = "x86_64")]
    if tier.checked() == Tier::Avx2 {
        done = out.len() - out.len() % 2;
        // SAFETY: AVX2 was checked above, and `done` covers whole pairs
        // of samples inside `out`.
        unsafe { quantize_avx2(&mut out[..done], full_scale, lsb) };
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = tier.checked();
    let q = |x: f64| (x.clamp(-full_scale, full_scale) / lsb).round() * lsb;
    for z in &mut out[done..] {
        *z = Complex::new(q(z.re), q(z.im));
    }
}

/// [`quantize`]'s AVX2 body, two samples per `ymm`. `f64::round` is a
/// library call on baseline x86-64; here it is `trunc` plus a unit step
/// away from zero where the exact fraction `x − trunc(x)` reaches one
/// half, which gives the same result for every input.
///
/// # Safety
///
/// AVX2 must be available and `out` must hold an even number of samples.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn quantize_avx2(out: &mut [Complex], full_scale: f64, lsb: f64) {
    use std::arch::x86_64::{
        _mm256_add_pd, _mm256_and_pd, _mm256_andnot_pd, _mm256_blendv_pd, _mm256_cmp_pd,
        _mm256_div_pd, _mm256_loadu_pd, _mm256_max_pd, _mm256_min_pd, _mm256_mul_pd, _mm256_or_pd,
        _mm256_round_pd, _mm256_set1_pd, _mm256_storeu_pd, _mm256_sub_pd, _CMP_GE_OQ,
        _MM_FROUND_NO_EXC, _MM_FROUND_TO_ZERO,
    };
    let lo = _mm256_set1_pd(-full_scale);
    let hi = _mm256_set1_pd(full_scale);
    let step = _mm256_set1_pd(lsb);
    let half = _mm256_set1_pd(0.5);
    let one = _mm256_set1_pd(1.0);
    let sign = _mm256_set1_pd(-0.0);
    let p = out.as_mut_ptr().cast::<f64>();
    for i in (0..2 * out.len()).step_by(4) {
        // `clamp`: below the range gives `lo`, above gives `hi`; a NaN
        // is the second operand of each and passes through.
        let x = _mm256_min_pd(hi, _mm256_max_pd(lo, _mm256_loadu_pd(p.add(i))));
        let v = _mm256_div_pd(x, step);
        let t = _mm256_round_pd::<{ _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC }>(v);
        let frac = _mm256_andnot_pd(sign, _mm256_sub_pd(v, t));
        let away = _mm256_or_pd(_mm256_and_pd(v, sign), one);
        let up = _mm256_cmp_pd::<_CMP_GE_OQ>(frac, half);
        // A blend, not `t + (up & away)`, so that `-0.0` stays `-0.0`.
        let r = _mm256_blendv_pd(t, _mm256_add_pd(t, away), up);
        _mm256_storeu_pd(p.add(i), _mm256_mul_pd(r, step));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantizer_bodies_agree_bit_for_bit() {
        let (fs, lsb) = (24.0, 2.0 * 24.0 / 4096.0);
        let mut xs: Vec<f64> = vec![
            0.0,
            -0.0,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            fs,
            -fs,
            fs + 1e-9,
            -fs - 1e-9,
            1e300,
            -1e300,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
        ];
        // Every half step and its neighbours, on both sides of zero.
        for k in -40..=40 {
            let h = (k as f64 + 0.5) * lsb;
            for x in [h, h.next_up(), h.next_down(), k as f64 * lsb] {
                xs.extend([x, -x]);
            }
        }
        xs.extend((0..2000).map(|i| ((i * 7919) % 4001) as f64 * 0.0123 - 24.6));
        if xs.len() % 2 == 1 {
            xs.push(0.25);
        }
        let samples: Vec<Complex> = xs.chunks(2).map(|c| Complex::new(c[0], c[1])).collect();
        let want: Vec<(u64, u64)> = samples
            .iter()
            .map(|z| {
                let q = |x: f64| (x.clamp(-fs, fs) / lsb).round() * lsb;
                (q(z.re).to_bits(), q(z.im).to_bits())
            })
            .collect();
        let tiers = [Tier::Scalar, Tier::host()];
        for tier in tiers {
            // An odd length leaves a scalar tail on the AVX2 path.
            for len in [samples.len(), samples.len() - 1] {
                let mut got = samples[..len].to_vec();
                quantize(tier, &mut got, fs, lsb);
                let got: Vec<(u64, u64)> = got
                    .iter()
                    .map(|z| (z.re.to_bits(), z.im.to_bits()))
                    .collect();
                assert_eq!(got, want[..len], "{tier:?}, {len} samples");
            }
        }
    }
}
