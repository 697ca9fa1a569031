//! Minimal in-tree stand-in for the `rand_distr` API surface this
//! workspace uses: [`Normal`] and [`Exp`] over `f64`, plus the
//! [`Distribution`] trait.
//!
//! The build image has no registry access, so the real crate cannot be
//! fetched. The Gaussian is a ziggurat like upstream's, but with
//! Marsaglia & Tsang's 128 layers rather than upstream's 256, over this
//! workspace's xoshiro generator: identical distribution, different (still
//! deterministic) stream.

#![deny(missing_docs)]

use rand::{Rng, RngCore};

mod ziggurat;

/// A distribution samplable with any [`rand::RngCore`].
pub trait Distribution<T> {
    /// Draws one value.
    fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> T;
}

/// Why a distribution constructor rejected its parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParamError(&'static str);

impl std::fmt::Display for ParamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.0)
    }
}

impl std::error::Error for ParamError {}

/// Gaussian distribution with given mean and standard deviation.
///
/// # Examples
///
/// ```
/// use rand::{rngs::StdRng, SeedableRng};
/// use rand_distr::{Distribution, Normal};
///
/// let normal = Normal::new(0.0, 1.0).unwrap();
/// let mut rng = StdRng::seed_from_u64(1);
/// let x = normal.sample(&mut rng);
/// assert!(x.is_finite());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Normal {
    mean: f64,
    std_dev: f64,
}

impl Normal {
    /// Builds the distribution; `std_dev` must be finite and non-negative.
    pub fn new(mean: f64, std_dev: f64) -> Result<Self, ParamError> {
        if !std_dev.is_finite() || std_dev < 0.0 {
            return Err(ParamError("std_dev must be finite and non-negative"));
        }
        Ok(Self { mean, std_dev })
    }
}

impl Distribution<f64> for Normal {
    fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> f64 {
        self.mean + self.std_dev * standard_normal(rng)
    }
}

/// One standard Gaussian draw by the ziggurat method (Marsaglia & Tsang
/// 2000) over the layers of [`ziggurat`].
///
/// Each attempt takes one `next_u64`: the low 7 bits pick a layer and the
/// top 52 bits a uniform position `u ∈ [-1, 1)` across it. Drawing both
/// from separate bits keeps the layer and the position independent
/// (Doornik, "An Improved Ziggurat Method to Generate Normal Random
/// Samples", 2005), as upstream `rand_distr` does. About 99 % of draws
/// land inside their layer's rectangle under the curve and return after
/// one multiply and one compare; only the wedges and the tail beyond
/// [`ziggurat::R`] call `exp` or `ln`.
#[inline]
fn standard_normal<G: RngCore + ?Sized>(rng: &mut G) -> f64 {
    use ziggurat::{F, LAYERS, X};
    loop {
        let bits = rng.next_u64();
        let i = bits as usize & (LAYERS - 1);
        let u = (bits >> 12) as f64 * (1.0 / (1u64 << 51) as f64) - 1.0;
        let x = u * X[i];
        if x.abs() < X[i + 1] {
            return x;
        }
        if i == 0 {
            return normal_tail(rng, u < 0.0);
        }
        // Wedge: accept if a uniform height in the layer falls under f(x).
        if F[i + 1] + (F[i] - F[i + 1]) * rng.gen::<f64>() < (-0.5 * x * x).exp() {
            return x;
        }
    }
}

/// A draw from the Gaussian tail beyond [`ziggurat::R`] (Marsaglia 1964),
/// negated if `negative`.
#[cold]
fn normal_tail<G: RngCore + ?Sized>(rng: &mut G, negative: bool) -> f64 {
    loop {
        // Both uniforms lie in (0, 1], so `ln` never sees zero.
        let x = -(1.0 - rng.gen::<f64>()).ln() / ziggurat::R;
        let y = -(1.0 - rng.gen::<f64>()).ln();
        if 2.0 * y >= x * x {
            let z = ziggurat::R + x;
            return if negative { -z } else { z };
        }
    }
}

/// Exponential distribution with a given rate parameter λ.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exp {
    lambda: f64,
}

impl Exp {
    /// Builds the distribution; `lambda` must be finite and positive.
    pub fn new(lambda: f64) -> Result<Self, ParamError> {
        if !lambda.is_finite() || lambda <= 0.0 {
            return Err(ParamError("lambda must be finite and positive"));
        }
        Ok(Self { lambda })
    }
}

impl Distribution<f64> for Exp {
    fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> f64 {
        let u = 1.0 - rng.gen::<f64>(); // (0, 1]
        -u.ln() / self.lambda
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn normal_moments_match_parameters() {
        let normal = Normal::new(2.0, 3.0).unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        let n = 50_000;
        let xs: Vec<f64> = (0..n).map(|_| normal.sample(&mut rng)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 2.0).abs() < 0.05, "mean {mean}");
        assert!((var - 9.0).abs() < 0.2, "var {var}");
    }

    /// `n` standard Gaussian draws from a seeded generator.
    fn standard_draws(seed: u64, n: usize) -> Vec<f64> {
        let normal = Normal::new(0.0, 1.0).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| normal.sample(&mut rng)).collect()
    }

    /// Standard normal density.
    fn phi(x: f64) -> f64 {
        (-0.5 * x * x).exp() / (2.0 * std::f64::consts::PI).sqrt()
    }

    /// `∫ phi` over `[a, b]` by composite Simpson with 256 panels: within
    /// ~1e-12 over the unit widths the tail sums use, far below any
    /// count's sampling error.
    fn normal_mass(a: f64, b: f64) -> f64 {
        let n = 256;
        let h = (b - a) / n as f64;
        let inner: f64 = (1..n)
            .map(|k| (if k % 2 == 1 { 4.0 } else { 2.0 }) * phi(a + k as f64 * h))
            .sum();
        h / 3.0 * (phi(a) + inner + phi(b))
    }

    /// Upper tail `P(Z > x)`; nothing beyond `x + 12` is representable at
    /// these sample sizes.
    fn upper_tail(x: f64) -> f64 {
        (0..12)
            .map(|k| normal_mass(x + k as f64, x + k as f64 + 1.0))
            .sum()
    }

    const N: usize = 2_000_000;

    #[test]
    fn ziggurat_tables_follow_the_recurrence() {
        use ziggurat::{F, LAYERS, R, V, X};
        let f = |x: f64| (-0.5 * x * x).exp();
        let close = |a: f64, b: f64, rel: f64| (a - b).abs() <= rel * b.abs().max(1e-300);
        // The edges, recomputed.
        let mut x = vec![V / f(R), R];
        for i in 1..LAYERS - 1 {
            x.push((-2.0 * (V / x[i] + f(x[i])).ln()).sqrt());
        }
        x.push(0.0);
        assert_eq!(x.len(), X.len());
        for (i, (&want, &got)) in x.iter().zip(&X).enumerate() {
            assert!(close(got, want, 1e-11), "X[{i}] = {got}, recurrence {want}");
        }
        for (i, (&xi, &fi)) in X.iter().zip(&F).enumerate() {
            assert!(
                close(fi, f(xi), 1e-14),
                "F[{i}] = {fi}, f(X[{i}]) = {}",
                f(xi)
            );
        }
        // R and V close the ziggurat: the top layer ends at x = 0 ...
        let top = V / X[LAYERS - 1] + F[LAYERS - 1];
        assert!((top - 1.0).abs() < 1e-9, "top layer reaches f = {top}");
        // ... every layer has area V (the top one to the closure's
        // rounding) ...
        for i in 1..LAYERS {
            let area = X[i] * (F[i + 1] - F[i]);
            assert!(close(area, V, 1e-8), "layer {i} area {area}");
        }
        // ... and so does the base strip: its rectangle plus the tail.
        let tail = upper_tail(R) * (2.0 * std::f64::consts::PI).sqrt();
        assert!(
            close(R * F[1] + tail, V, 1e-9),
            "base strip {} vs {V}",
            R * F[1] + tail
        );
        assert!(close(X[0] * F[1], V, 1e-15), "virtual base rectangle");
    }

    #[test]
    fn gaussian_moments() {
        let xs = standard_draws(21, N);
        let n = N as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let central = |p: i32| xs.iter().map(|x| (x - mean).powi(p)).sum::<f64>() / n;
        let var = central(2);
        let skew = central(3) / var.powf(1.5);
        let excess_kurtosis = central(4) / (var * var) - 3.0;
        // Five standard errors of each estimator at this n.
        assert!(mean.abs() < 5.0 / n.sqrt(), "mean {mean}");
        assert!((var - 1.0).abs() < 5.0 * (2.0 / n).sqrt(), "variance {var}");
        assert!(skew.abs() < 5.0 * (6.0 / n).sqrt(), "skew {skew}");
        assert!(
            excess_kurtosis.abs() < 5.0 * (24.0 / n).sqrt(),
            "excess kurtosis {excess_kurtosis}"
        );
    }

    #[test]
    fn gaussian_histogram_matches_phi() {
        // Bins 1/16 wide over ±6, the two beyond-6 tails folded into the
        // end bins, then neighbours merged from the left until each bin
        // expects at least 20 draws (the remainder joins the last bin).
        let xs = standard_draws(22, N);
        let width = 1.0 / 16.0;
        let edges = 192;
        let mut counts = vec![0u64; edges];
        for &x in &xs {
            let k = ((x + 6.0) / width).floor().clamp(0.0, (edges - 1) as f64);
            counts[k as usize] += 1;
        }
        let mut probs: Vec<f64> = (0..edges)
            .map(|k| normal_mass(-6.0 + k as f64 * width, -6.0 + (k + 1) as f64 * width))
            .collect();
        probs[0] += upper_tail(6.0);
        probs[edges - 1] += upper_tail(6.0);
        let mut bins: Vec<(f64, u64)> = Vec::new();
        let (mut p, mut c) = (0.0, 0u64);
        for (&pk, &ck) in probs.iter().zip(&counts) {
            p += pk;
            c += ck;
            if p * N as f64 >= 20.0 {
                bins.push((p, c));
                (p, c) = (0.0, 0);
            }
        }
        let last = bins.last_mut().unwrap();
        last.0 += p;
        last.1 += c;
        let chi2: f64 = bins
            .iter()
            .map(|&(p, c)| {
                let e = p * N as f64;
                (c as f64 - e).powi(2) / e
            })
            .sum();
        let df = (bins.len() - 1) as f64;
        assert!(bins.len() > 120, "{} bins", bins.len());
        // Six standard deviations of the chi-squared distribution.
        assert!(
            chi2 < df + 6.0 * (2.0 * df).sqrt(),
            "chi2 {chi2} over {df} dof"
        );
    }

    #[test]
    fn gaussian_tails_match_phi() {
        let xs = standard_draws(23, N);
        for (edge, name) in [(ziggurat::R, "ziggurat edge R"), (4.0, "4 sigma")] {
            let expected = N as f64 * upper_tail(edge);
            let sd = expected.sqrt();
            let above = xs.iter().filter(|&&x| x > edge).count() as f64;
            let below = xs.iter().filter(|&&x| x < -edge).count() as f64;
            for (side, count) in [("above", above), ("below", below)] {
                assert!(
                    (count - expected).abs() < 5.0 * sd,
                    "{name} {side}: {count} draws, {expected:.1} expected"
                );
            }
        }
        // The tail sampler reaches well past the base strip.
        assert!(xs.iter().any(|x| x.abs() > 4.5));
    }

    #[test]
    fn tail_sampler_matches_the_truncated_gaussian() {
        // Too few full draws land past R to see the tail's shape, so draw
        // from the tail sampler directly: its excess over R must follow
        // P(Z > R + t | Z > R), binned 1/20 wide to t = 1.5 plus overflow.
        let r = ziggurat::R;
        let n = 200_000;
        let mut rng = StdRng::seed_from_u64(25);
        let bins = 30;
        let width = 0.05;
        let mut counts = vec![0u64; bins + 1];
        for k in 0..n {
            let x = normal_tail(&mut rng, k % 2 == 1);
            assert_eq!(x < 0.0, k % 2 == 1);
            let t = x.abs() - r;
            assert!(t >= 0.0);
            counts[((t / width) as usize).min(bins)] += 1;
        }
        let q_r = upper_tail(r);
        let mut chi2 = 0.0;
        for (b, &c) in counts.iter().enumerate() {
            let lo = upper_tail(r + b as f64 * width);
            let hi = if b == bins {
                0.0
            } else {
                upper_tail(r + (b + 1) as f64 * width)
            };
            let e = n as f64 * (lo - hi) / q_r;
            chi2 += (c as f64 - e).powi(2) / e;
        }
        let df = bins as f64;
        assert!(
            chi2 < df + 6.0 * (2.0 * df).sqrt(),
            "chi2 {chi2} over {df} dof"
        );
    }

    #[test]
    fn gaussian_draws_are_uncorrelated() {
        let xs = standard_draws(24, N);
        let n = (N - 1) as f64;
        let lag1 = xs.windows(2).map(|w| w[0] * w[1]).sum::<f64>() / n;
        let var = xs.iter().map(|x| x * x).sum::<f64>() / N as f64;
        let r = lag1 / var;
        assert!(r.abs() < 5.0 / n.sqrt(), "lag-1 correlation {r}");
    }

    #[test]
    fn gaussian_stream_is_determined_by_the_seed() {
        assert_eq!(standard_draws(5, 1000), standard_draws(5, 1000));
        assert_ne!(standard_draws(5, 1000), standard_draws(6, 1000));
    }

    #[test]
    fn exp_mean_is_inverse_rate() {
        let exp = Exp::new(4.0).unwrap();
        let mut rng = StdRng::seed_from_u64(12);
        let n = 50_000;
        let mean: f64 = (0..n).map(|_| exp.sample(&mut rng)).sum::<f64>() / n as f64;
        assert!((mean - 0.25).abs() < 0.01, "mean {mean}");
        assert!(Exp::new(0.0).is_err());
        assert!(Normal::new(0.0, -1.0).is_err());
    }
}
