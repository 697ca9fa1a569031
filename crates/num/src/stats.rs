//! Running statistics and slice helpers.

/// Numerically stable one-pass mean/variance accumulator (Welford's
/// algorithm).
///
/// Used wherever the workspace estimates the per-time-bin mean and variance
/// of readout traces, e.g. when building matched-filter kernels.
///
/// # Examples
///
/// ```
/// use mlr_num::Welford;
///
/// let mut w = Welford::new();
/// for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
///     w.push(x);
/// }
/// assert!((w.mean() - 5.0).abs() < 1e-12);
/// assert!((w.variance() - 4.571428571428571).abs() < 1e-9); // sample variance
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Welford {
    count: u64,
    mean: f64,
    m2: f64,
}

impl Welford {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one observation.
    #[inline]
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
    }

    /// Number of observations pushed so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sample mean; `0.0` when empty.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Unbiased sample variance (`n - 1` denominator); `0.0` with fewer than
    /// two observations.
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Population variance (`n` denominator); `0.0` when empty.
    pub fn population_variance(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Merges another accumulator into this one (parallel Welford/Chan
    /// update), as if all of `other`'s observations had been pushed here.
    pub fn merge(&mut self, other: &Welford) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
    }
}

/// Per-dimension running statistics over fixed-length vectors.
///
/// [`Welford`]'s update applied to every element of the vector, stored as
/// arrays (one shared count, one `mean` and one `m2` per element) so that
/// `push` runs as one vectorisable pass. Each element sees exactly the
/// arithmetic of its own [`Welford`], bit for bit. `push` requires the same
/// length every time.
///
/// # Examples
///
/// ```
/// use mlr_num::RunningStats;
///
/// let mut stats = RunningStats::new(2);
/// stats.push(&[1.0, 10.0]);
/// stats.push(&[3.0, 30.0]);
/// assert_eq!(stats.means(), vec![2.0, 20.0]);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunningStats {
    count: u64,
    mean: Vec<f64>,
    m2: Vec<f64>,
}

impl RunningStats {
    /// Creates statistics over `len`-dimensional vectors.
    pub fn new(len: usize) -> Self {
        Self {
            count: 0,
            mean: vec![0.0; len],
            m2: vec![0.0; len],
        }
    }

    /// Adds one observation vector.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from the length given at construction.
    pub fn push(&mut self, x: &[f64]) {
        assert_eq!(x.len(), self.mean.len(), "dimension mismatch");
        self.count += 1;
        let n = self.count as f64;
        for ((mean, m2), &v) in self.mean.iter_mut().zip(&mut self.m2).zip(x) {
            let delta = v - *mean;
            *mean += delta / n;
            *m2 += delta * (v - *mean);
        }
    }

    /// Number of observation vectors pushed.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Dimensionality of the tracked vectors.
    pub fn len(&self) -> usize {
        self.mean.len()
    }

    /// Returns `true` if tracking zero-dimensional vectors.
    pub fn is_empty(&self) -> bool {
        self.mean.is_empty()
    }

    /// Per-dimension sample means.
    pub fn means(&self) -> Vec<f64> {
        self.mean.clone()
    }

    /// Per-dimension unbiased sample variances (`n - 1` denominator);
    /// zeros with fewer than two observations.
    pub fn variances(&self) -> Vec<f64> {
        if self.count < 2 {
            return vec![0.0; self.mean.len()];
        }
        let denom = (self.count - 1) as f64;
        self.m2.iter().map(|m2| m2 / denom).collect()
    }

    /// Merges another accumulator of the same dimensionality, as if all of
    /// `other`'s observations had been pushed here ([`Welford::merge`] per
    /// element).
    ///
    /// # Panics
    ///
    /// Panics on dimensionality mismatch.
    pub fn merge(&mut self, other: &RunningStats) {
        assert_eq!(self.mean.len(), other.mean.len(), "dimension mismatch");
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            self.clone_from(other);
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let total = n1 + n2;
        for (((mean, m2), &other_mean), &other_m2) in self
            .mean
            .iter_mut()
            .zip(&mut self.m2)
            .zip(&other.mean)
            .zip(&other.m2)
        {
            let delta = other_mean - *mean;
            *mean += delta * n2 / total;
            *m2 += other_m2 + delta * delta * n1 * n2 / total;
        }
        self.count += other.count;
    }
}

/// Arithmetic mean of a slice; `0.0` for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Unbiased sample variance of a slice; `0.0` with fewer than two elements.
pub fn variance(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (xs.len() - 1) as f64
}

/// Median of a slice; `0.0` for an empty slice. Does not mutate the input.
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 50.0)
}

/// Linear-interpolated percentile (`p` in `[0, 100]`); `0.0` for an empty
/// slice.
///
/// # Panics
///
/// Panics if `p` is outside `[0, 100]` or any element is NaN.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    assert!((0.0..=100.0).contains(&p), "percentile out of range");
    if xs.is_empty() {
        return 0.0;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in percentile input"));
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = rank - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// Index of the maximum element; `None` for an empty slice. Ties resolve to
/// the first occurrence.
pub fn argmax(xs: &[f64]) -> Option<usize> {
    argmax_iter(xs.iter().copied())
}

/// [`argmax`] over any sequence, for callers that score on the fly
/// instead of collecting a slice: the same fold, so the same tie rule.
pub fn argmax_iter(xs: impl IntoIterator<Item = f64>) -> Option<usize> {
    xs.into_iter()
        .enumerate()
        .fold(None, |best, (i, x)| match best {
            Some((_, bx)) if bx >= x => best,
            _ => Some((i, x)),
        })
        .map(|(i, _)| i)
}

/// Index of the minimum element; `None` for an empty slice. Ties resolve to
/// the first occurrence.
pub fn argmin(xs: &[f64]) -> Option<usize> {
    xs.iter()
        .enumerate()
        .fold(None, |best, (i, &x)| match best {
            Some((_, bx)) if bx <= x => best,
            _ => Some((i, x)),
        })
        .map(|(i, _)| i)
}

/// `n` evenly spaced points from `start` to `end` inclusive.
///
/// Returns an empty vector for `n == 0` and `[start]` for `n == 1`.
pub fn linspace(start: f64, end: f64, n: usize) -> Vec<f64> {
    match n {
        0 => Vec::new(),
        1 => vec![start],
        _ => {
            let step = (end - start) / (n - 1) as f64;
            (0..n).map(|i| start + step * i as f64).collect()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn welford_matches_two_pass() {
        let data = [1.5, -2.0, 3.25, 0.0, 8.5, -1.25];
        let mut w = Welford::new();
        for &x in &data {
            w.push(x);
        }
        assert!((w.mean() - mean(&data)).abs() < 1e-12);
        assert!((w.variance() - variance(&data)).abs() < 1e-12);
    }

    #[test]
    fn welford_merge_equals_sequential() {
        let a = [1.0, 2.0, 3.0];
        let b = [10.0, 20.0];
        let mut wa = Welford::new();
        a.iter().for_each(|&x| wa.push(x));
        let mut wb = Welford::new();
        b.iter().for_each(|&x| wb.push(x));
        wa.merge(&wb);

        let mut all = Welford::new();
        a.iter().chain(b.iter()).for_each(|&x| all.push(x));
        assert!((wa.mean() - all.mean()).abs() < 1e-12);
        assert!((wa.variance() - all.variance()).abs() < 1e-12);
        assert_eq!(wa.count(), 5);
    }

    #[test]
    fn welford_merge_with_empty() {
        let mut w = Welford::new();
        w.push(4.0);
        let empty = Welford::new();
        let mut w2 = w;
        w2.merge(&empty);
        assert_eq!(w, w2);
        let mut e2 = Welford::new();
        e2.merge(&w);
        assert_eq!(e2, w);
    }

    #[test]
    fn running_stats_per_dimension() {
        let mut s = RunningStats::new(3);
        s.push(&[0.0, 1.0, -1.0]);
        s.push(&[2.0, 1.0, 1.0]);
        s.push(&[4.0, 1.0, 0.0]);
        assert_eq!(s.count(), 3);
        assert_eq!(s.means(), vec![2.0, 1.0, 0.0]);
        let vars = s.variances();
        assert!((vars[0] - 4.0).abs() < 1e-12);
        assert_eq!(vars[1], 0.0);
        assert!((vars[2] - 1.0).abs() < 1e-12);
    }

    /// Awkward values for the oracle: mixed signs and scales, repeats, a
    /// large offset that makes cancellation visible.
    fn ragged_rows(rows: usize, dims: usize, salt: u64) -> Vec<Vec<f64>> {
        let mut state = salt.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        (0..rows)
            .map(|_| {
                (0..dims)
                    .map(|d| {
                        state ^= state << 13;
                        state ^= state >> 7;
                        state ^= state << 17;
                        let u = (state >> 11) as f64 / (1u64 << 53) as f64;
                        (u - 0.5) * 10f64.powi(d as i32 % 5 - 2) + 1e3 * (d % 3) as f64
                    })
                    .collect()
            })
            .collect()
    }

    /// Reference: one `Welford` per dimension, fed element by element.
    fn per_dimension(rows: &[Vec<f64>], dims: usize) -> Vec<Welford> {
        let mut ws = vec![Welford::new(); dims];
        for row in rows {
            for (w, &x) in ws.iter_mut().zip(row) {
                w.push(x);
            }
        }
        ws
    }

    fn assert_same_bits(stats: &RunningStats, ws: &[Welford]) {
        let bits = |xs: Vec<f64>| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(stats.count(), ws[0].count());
        assert_eq!(
            bits(stats.means()),
            bits(ws.iter().map(Welford::mean).collect())
        );
        assert_eq!(
            bits(stats.variances()),
            bits(ws.iter().map(Welford::variance).collect())
        );
    }

    #[test]
    fn running_stats_matches_per_dimension_welford_bit_for_bit() {
        // 13 dimensions: not a multiple of any SIMD width.
        let dims = 13;
        for rows in [1usize, 2, 3, 57] {
            let data = ragged_rows(rows, dims, rows as u64);
            let mut stats = RunningStats::new(dims);
            for row in &data {
                stats.push(row);
            }
            assert_same_bits(&stats, &per_dimension(&data, dims));
        }
    }

    #[test]
    fn running_stats_merge_matches_per_dimension_welford_bit_for_bit() {
        let dims = 13;
        for (na, nb) in [(0usize, 5usize), (5, 0), (1, 1), (40, 17), (3, 90)] {
            let a = ragged_rows(na, dims, 100 + na as u64);
            let b = ragged_rows(nb, dims, 200 + nb as u64);
            let mut sa = RunningStats::new(dims);
            a.iter().for_each(|row| sa.push(row));
            let mut sb = RunningStats::new(dims);
            b.iter().for_each(|row| sb.push(row));
            sa.merge(&sb);

            let mut wa = per_dimension(&a, dims);
            for (w, o) in wa.iter_mut().zip(&per_dimension(&b, dims)) {
                w.merge(o);
            }
            assert_same_bits(&sa, &wa);
        }
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn running_stats_rejects_wrong_len() {
        let mut s = RunningStats::new(2);
        s.push(&[1.0]);
    }

    #[test]
    fn percentile_and_median() {
        let xs = [3.0, 1.0, 2.0, 4.0];
        assert!((median(&xs) - 2.5).abs() < 1e-12);
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 100.0), 4.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn argmax_argmin_ties_first() {
        assert_eq!(argmax(&[1.0, 3.0, 3.0, 2.0]), Some(1));
        assert_eq!(argmin(&[1.0, 0.5, 0.5]), Some(1));
        assert_eq!(argmax(&[]), None);
        assert_eq!(argmin(&[]), None);
    }

    #[test]
    fn linspace_endpoints() {
        let xs = linspace(0.0, 1.0, 5);
        assert_eq!(xs, vec![0.0, 0.25, 0.5, 0.75, 1.0]);
        assert_eq!(linspace(1.0, 2.0, 1), vec![1.0]);
        assert!(linspace(0.0, 1.0, 0).is_empty());
    }
}
