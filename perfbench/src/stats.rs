//! Order statistics for timing samples.

/// Fewest samples that must lie above a reported percentile. A tail
/// percentile read from fewer is one outlier's value, not a percentile.
pub const MIN_BEYOND: usize = 10;

/// A percentile as reported: the quantile actually read and its value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quantile {
    /// The quantile read, in `(0, 1)`; lower than the one asked for when
    /// the sample is too small to support it.
    pub q: f64,
    /// The sample value at that quantile (nearest rank).
    pub value: f64,
}

/// The nearest-rank `q`-quantile of `samples`, lowered to the highest
/// quantile that still has [`MIN_BEYOND`] samples above it. `None` when
/// no quantile has (fewer than `MIN_BEYOND + 1` samples).
pub fn quantile(samples: &[f64], q: f64) -> Option<Quantile> {
    let n = samples.len();
    if n <= MIN_BEYOND {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let wanted = ((q * n as f64).ceil() as usize).clamp(1, n) - 1;
    let rank = wanted.min(n - 1 - MIN_BEYOND);
    Some(Quantile {
        q: if rank == wanted {
            q
        } else {
            (rank + 1) as f64 / n as f64
        },
        value: sorted[rank],
    })
}

/// The `q`-quantile (as [`quantile`]) of each run of `block` consecutive
/// samples; a remainder shorter than a block joins the last one.
pub fn block_quantiles(samples: &[f64], block: usize, q: f64) -> Vec<Quantile> {
    let blocks = (samples.len() / block.max(1)).max(1);
    (0..blocks)
        .filter_map(|b| {
            let end = if b + 1 == blocks {
                samples.len()
            } else {
                (b + 1) * block
            };
            quantile(&samples[b * block..end], q)
        })
        .collect()
}

/// The median of `samples` (the mean of the middle two for even counts);
/// `None` when empty. Used for repeated whole-phase measurements, which
/// are too few for the tail rule of [`quantile`].
pub fn median(samples: &[f64]) -> Option<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// The rate, per second, of each consecutive span of a timed phase that
/// lasts at least `span_ns`: the shots of the arrivals it holds over its
/// length. The first span starts at `start_ns` and each later one at the
/// arrival that closed the one before; a tail shorter than `span_ns` is
/// dropped. `arrivals` are (time in ns, shots), in time order.
pub fn span_rates(start_ns: u64, arrivals: &[(u64, u64)], span_ns: u64) -> Vec<f64> {
    let mut rates = Vec::new();
    let (mut from, mut shots) = (start_ns, 0);
    for &(at, n) in arrivals {
        shots += n;
        if at - from >= span_ns {
            rates.push(shots as f64 * 1e9 / (at - from) as f64);
            (from, shots) = (at, 0);
        }
    }
    rates
}

/// The mean of `samples`; `None` when empty.
pub fn mean(samples: &[f64]) -> Option<f64> {
    (!samples.is_empty()).then(|| samples.iter().sum::<f64>() / samples.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Shuffled so the function must sort.
        (0..n).map(|i| ((i * 7919) % n) as f64).collect()
    }

    #[test]
    fn p99_is_reported_when_ten_samples_lie_beyond_it() {
        let q = quantile(&ramp(1000), 0.99).unwrap();
        assert_eq!(q.q, 0.99);
        assert_eq!(q.value, 989.0);
        assert_eq!((990..1000).count(), MIN_BEYOND);
    }

    #[test]
    fn p99_falls_back_to_the_highest_supported_percentile() {
        let q = quantile(&ramp(500), 0.99).unwrap();
        assert_eq!(q.q, 0.98);
        assert_eq!(q.value, 489.0);
        // Exactly MIN_BEYOND samples above the reported value.
        assert_eq!(
            ramp(500).iter().filter(|&&v| v > q.value).count(),
            MIN_BEYOND
        );
    }

    #[test]
    fn median_needs_ten_samples_beyond_too() {
        assert!(quantile(&ramp(10), 0.5).is_none());
        let q = quantile(&ramp(15), 0.5).unwrap();
        assert_eq!(q.value, 4.0);
        assert!(q.q < 0.5);
        assert_eq!(quantile(&ramp(101), 0.5).unwrap().value, 50.0);
    }

    #[test]
    fn blocks_are_consecutive_and_the_remainder_joins_the_last() {
        let samples: Vec<f64> = (0..2500).map(f64::from).collect();
        let tails = block_quantiles(&samples, 1000, 0.99);
        assert_eq!(tails.len(), 2);
        assert_eq!(tails[0].value, 989.0);
        // The last block holds 1500 samples: 1000..2500.
        assert_eq!(tails[1].value, 1000.0 + 1484.0);
        assert_eq!(block_quantiles(&samples[..20], 1000, 0.5).len(), 1);
    }

    #[test]
    fn span_rates_close_each_span_at_the_arrival_that_ends_it() {
        // 10 shots every 10 ns from t = 100; spans of at least 25 ns.
        let arrivals: Vec<(u64, u64)> = (1..=10).map(|i| (100 + 10 * i, 10)).collect();
        let rates = span_rates(100, &arrivals, 25);
        // Spans (100, 130], (130, 160], (160, 190]; 200 is a short tail.
        assert_eq!(rates, vec![1e9, 1e9, 1e9]);
        // A stall inside a span lowers only that span's rate.
        let mut stalled = arrivals.clone();
        for a in &mut stalled[3..] {
            a.0 += 60;
        }
        let rates = span_rates(100, &stalled, 25);
        assert_eq!(rates[0], 1e9);
        assert_eq!(rates[1], 10.0 * 1e9 / 70.0);
        assert!(span_rates(0, &[], 25).is_empty());
    }

    #[test]
    fn median_and_mean_of_small_sets() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), Some(3.0));
    }
}
