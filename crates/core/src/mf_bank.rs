//! Per-qubit matched-filter banks: QMF, RMF and EMF (Table III).

use mlr_dsp::{MatchedFilter, MatchedFilterKind};
use mlr_num::{Complex, RunningStats};
use serde::{Deserialize, Serialize};

/// What a filter in the bank is matched to (Table III of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FilterRole {
    /// Qubit Matched Filter: separates steady level `a` from steady level
    /// `b` (`a < b`).
    Qubit(usize, usize),
    /// Relaxation Matched Filter: separates clean level-`a` traces from
    /// traces that decayed `a → b` mid-readout (`b < a`).
    Relaxation(usize, usize),
    /// Excitation Matched Filter: separates clean level-`a` traces from
    /// traces that were excited `a → b` mid-readout (`b > a`).
    Excitation(usize, usize),
}

impl FilterRole {
    /// The canonical filter set for a `levels`-level qudit:
    /// all `C(levels, 2)` QMF pairs, every downward transition as an RMF,
    /// and (if `include_emf`) every upward transition as an EMF.
    ///
    /// For 3 levels with EMFs this is the paper's 9 filters per qubit.
    pub fn canonical_set(levels: usize, include_emf: bool) -> Vec<FilterRole> {
        let mut roles = Vec::new();
        for a in 0..levels {
            for b in (a + 1)..levels {
                roles.push(FilterRole::Qubit(a, b));
            }
        }
        for a in 1..levels {
            for b in 0..a {
                roles.push(FilterRole::Relaxation(a, b));
            }
        }
        if include_emf {
            for a in 0..levels {
                for b in (a + 1)..levels {
                    roles.push(FilterRole::Excitation(a, b));
                }
            }
        }
        roles
    }
}

/// The matched-filter bank of one qubit: one score per [`FilterRole`],
/// computed by a dot product against the demodulated trace's IQ features.
///
/// Error filters (RMF/EMF) are fit between *clean* traces of a level and
/// the error traces tagged by Mean-Trace-Value proximity to another level's
/// centroid (Sec. V-B, "Deciphering Error Traces"); when too few error
/// traces exist the corresponding QMF kernel is substituted so the bank
/// always has a deterministic shape.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QubitMfBank {
    filters: Vec<(FilterRole, MatchedFilter)>,
    levels: usize,
}

impl QubitMfBank {
    /// Minimum number of tagged error traces required to fit a dedicated
    /// RMF/EMF kernel before falling back to the QMF pair kernel.
    pub const MIN_ERROR_TRACES: usize = 6;

    /// Fits a bank from per-trace IQ feature vectors and this qubit's level
    /// labels.
    ///
    /// `features[i]` must be the [`mlr_dsp::iq_features`] layout of the
    /// qubit's demodulated trace `i`; `labels[i]` its level (`< levels`).
    /// Each class of traces (every level, every level's clean traces, and
    /// every error set a filter uses) is summarised once, in index order,
    /// and every filter is fit from those summaries with
    /// [`MatchedFilter::from_stats`]: the same kernels as fitting each
    /// filter from its two trace sets, bit for bit.
    ///
    /// Returns `None` if any level has no traces at all (the bank would be
    /// underdetermined).
    ///
    /// # Panics
    ///
    /// Panics on length mismatch or labels `>= levels`.
    pub fn fit<F: AsRef<[f64]>>(
        features: &[F],
        labels: &[usize],
        levels: usize,
        include_emf: bool,
        kind: MatchedFilterKind,
    ) -> Option<Self> {
        assert_eq!(features.len(), labels.len(), "length mismatch");
        assert!(labels.iter().all(|&l| l < levels), "label out of range");
        let by_level: Vec<Vec<usize>> = (0..levels)
            .map(|l| {
                (0..labels.len())
                    .filter(|&i| labels[i] == l)
                    .collect::<Vec<_>>()
            })
            .collect();
        if by_level.iter().any(Vec::is_empty) {
            return None;
        }

        // Level centroids in the MTV (mean-I, mean-Q) plane, used to tag
        // error traces.
        let mtv = |f: &[f64]| -> [f64; 2] {
            let half = f.len() / 2;
            let i_mean = f[..half].iter().sum::<f64>() / half as f64;
            let q_mean = f[half..].iter().sum::<f64>() / half as f64;
            [i_mean, q_mean]
        };
        let mtvs: Vec<[f64; 2]> = features.iter().map(|f| mtv(f.as_ref())).collect();
        let centroids: Vec<[f64; 2]> = by_level
            .iter()
            .map(|idxs| {
                let n = idxs.len() as f64;
                let mut c = [0.0; 2];
                for &i in idxs {
                    c[0] += mtvs[i][0];
                    c[1] += mtvs[i][1];
                }
                [c[0] / n, c[1] / n]
            })
            .collect();
        let nearest = |p: [f64; 2]| -> usize {
            let mut best = (0usize, f64::INFINITY);
            for (l, c) in centroids.iter().enumerate() {
                let d = (p[0] - c[0]).powi(2) + (p[1] - c[1]).powi(2);
                if d < best.1 {
                    best = (l, d);
                }
            }
            best.0
        };

        // Partition each level's traces into clean / tagged-error-toward-b.
        let mut clean: Vec<Vec<usize>> = vec![Vec::new(); levels];
        let mut errors: Vec<Vec<Vec<usize>>> = vec![vec![Vec::new(); levels]; levels];
        for (l, idxs) in by_level.iter().enumerate() {
            for &i in idxs {
                let tag = nearest(mtvs[i]);
                if tag == l {
                    clean[l].push(i);
                } else {
                    errors[l][tag].push(i);
                }
            }
            // A level whose every trace drifted away still needs a clean
            // reference; fall back to all of its traces.
            if clean[l].is_empty() {
                clean[l] = idxs.clone();
            }
        }

        let stats_of = |idxs: &[usize]| -> Option<RunningStats> {
            let mut stats = RunningStats::new(features[*idxs.first()?].as_ref().len());
            for &i in idxs {
                stats.push(features[i].as_ref());
            }
            Some(stats)
        };
        let level_stats: Vec<RunningStats> = by_level
            .iter()
            .map(|idxs| stats_of(idxs))
            .collect::<Option<_>>()?;
        // A level whose clean set is all of its traces (none tagged as
        // errors, or every one) reuses its level summary below.
        let mut clean_stats: Vec<Option<RunningStats>> = vec![None; levels];

        let mut filters = Vec::new();
        for role in FilterRole::canonical_set(levels, include_emf) {
            let mf = match role {
                FilterRole::Qubit(a, b) => {
                    MatchedFilter::from_stats(&level_stats[a], &level_stats[b], kind)?
                }
                FilterRole::Relaxation(a, b) | FilterRole::Excitation(a, b) => {
                    let err = &errors[a][b];
                    if err.len() >= Self::MIN_ERROR_TRACES {
                        if clean_stats[a].is_none() && clean[a].len() != by_level[a].len() {
                            clean_stats[a] = stats_of(&clean[a]);
                        }
                        let clean_a = clean_stats[a].as_ref().unwrap_or(&level_stats[a]);
                        MatchedFilter::from_stats(clean_a, &stats_of(err)?, kind)?
                    } else {
                        // Fallback: the pairwise QMF kernel carries the same
                        // directional information.
                        let (lo, hi) = (a.min(b), a.max(b));
                        MatchedFilter::from_stats(&level_stats[lo], &level_stats[hi], kind)?
                    }
                }
            };
            filters.push((role, mf));
        }
        Some(Self { filters, levels })
    }

    /// Number of filters (and therefore scores) in the bank.
    pub fn n_filters(&self) -> usize {
        self.filters.len()
    }

    /// Level-alphabet size the bank was fit for.
    pub fn levels(&self) -> usize {
        self.levels
    }

    /// Roles, in score order.
    pub fn roles(&self) -> Vec<FilterRole> {
        self.filters.iter().map(|(r, _)| *r).collect()
    }

    /// Borrows the matched filter for `role`, if present.
    pub fn filter(&self, role: FilterRole) -> Option<&MatchedFilter> {
        self.filters
            .iter()
            .find(|(r, _)| *r == role)
            .map(|(_, f)| f)
    }

    /// Scores one demodulated trace (IQ feature layout): one dot product per
    /// filter.
    ///
    /// # Panics
    ///
    /// Panics if the feature length differs from the fitted kernels.
    pub fn apply(&self, features: &[f64]) -> Vec<f64> {
        self.filters
            .iter()
            .map(|(_, f)| f.apply(features))
            .collect()
    }

    /// Convenience: demodulated complex trace in, scores out.
    ///
    /// # Panics
    ///
    /// As for [`QubitMfBank::apply`].
    pub fn apply_trace(&self, trace: &[Complex]) -> Vec<f64> {
        self.apply(&mlr_dsp::iq_features(trace))
    }

    /// Partial scores of a baseband prefix against the full-length kernels:
    /// one [`MatchedFilter::apply_iq_prefix`] per filter. This is the
    /// quantity a streaming accumulator holds after `prefix.len()` samples;
    /// at full length it equals [`QubitMfBank::apply_trace`].
    ///
    /// # Panics
    ///
    /// Panics if the prefix is longer than the fitted trace length.
    pub fn apply_prefix(&self, prefix: &[Complex]) -> Vec<f64> {
        self.filters
            .iter()
            .map(|(_, f)| f.apply_iq_prefix(prefix))
            .collect()
    }

    /// Kernel weights of every filter in score order, split as
    /// `(i_weights, q_weights)` per filter — the coefficient memory a
    /// streaming scorer loads.
    pub fn kernels_iq(&self) -> Vec<(Vec<f64>, Vec<f64>)> {
        self.filters
            .iter()
            .map(|(_, f)| {
                let k = f.kernel();
                let l = k.len() / 2;
                (k[..l].to_vec(), k[l..].to_vec())
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_set_counts_match_paper() {
        // Three-level with EMFs: 3 QMF + 3 RMF + 3 EMF = 9 (Table III).
        assert_eq!(FilterRole::canonical_set(3, true).len(), 9);
        // HERQULES three-level: QMF + RMF only = 6 per qubit.
        assert_eq!(FilterRole::canonical_set(3, false).len(), 6);
        // Two-level: 1 QMF + 1 RMF (+1 EMF).
        assert_eq!(FilterRole::canonical_set(2, false).len(), 2);
        assert_eq!(FilterRole::canonical_set(2, true).len(), 3);
    }

    /// Synthetic "traces": level l sits at I = l, Q = -l, with a few traces
    /// of level 1 drifting toward level 0 (relaxation-like).
    fn synthetic() -> (Vec<Vec<f64>>, Vec<usize>) {
        let mut features = Vec::new();
        let mut labels = Vec::new();
        let trace = |i_val: f64, q_val: f64| -> Vec<f64> {
            let mut f = vec![i_val; 8];
            f.extend(vec![q_val; 8]);
            f
        };
        for l in 0..3usize {
            for k in 0..20 {
                let jitter = (k as f64 * 0.37).fract() * 0.1;
                features.push(trace(l as f64 + jitter, -(l as f64) - jitter));
                labels.push(l);
            }
        }
        // Eight level-1 traces that look like level 0 (decayed early).
        for k in 0..8 {
            let jitter = (k as f64 * 0.59).fract() * 0.1;
            features.push(trace(0.1 + jitter, -0.1 - jitter));
            labels.push(1);
        }
        (features, labels)
    }

    /// The per-filter fit this module used before each class was summarised
    /// once: every filter pushes its two trace sets through
    /// [`MatchedFilter::fit`]. Also tallies the error sets that got a
    /// dedicated kernel and the non-empty ones that fell back, so tests can
    /// show both paths ran.
    fn per_filter_fit(
        features: &[Vec<f64>],
        labels: &[usize],
        levels: usize,
        include_emf: bool,
        kind: MatchedFilterKind,
        tally: &mut [usize; 2],
    ) -> Option<QubitMfBank> {
        let by_level: Vec<Vec<usize>> = (0..levels)
            .map(|l| (0..labels.len()).filter(|&i| labels[i] == l).collect())
            .collect();
        if by_level.iter().any(Vec::is_empty) {
            return None;
        }
        let mtv = |f: &[f64]| -> [f64; 2] {
            let half = f.len() / 2;
            let i_mean = f[..half].iter().sum::<f64>() / half as f64;
            let q_mean = f[half..].iter().sum::<f64>() / half as f64;
            [i_mean, q_mean]
        };
        let mtvs: Vec<[f64; 2]> = features.iter().map(|f| mtv(f)).collect();
        let centroids: Vec<[f64; 2]> = by_level
            .iter()
            .map(|idxs| {
                let n = idxs.len() as f64;
                let mut c = [0.0; 2];
                for &i in idxs {
                    c[0] += mtvs[i][0];
                    c[1] += mtvs[i][1];
                }
                [c[0] / n, c[1] / n]
            })
            .collect();
        let nearest = |p: [f64; 2]| -> usize {
            let mut best = (0usize, f64::INFINITY);
            for (l, c) in centroids.iter().enumerate() {
                let d = (p[0] - c[0]).powi(2) + (p[1] - c[1]).powi(2);
                if d < best.1 {
                    best = (l, d);
                }
            }
            best.0
        };
        let mut clean: Vec<Vec<usize>> = vec![Vec::new(); levels];
        let mut errors: Vec<Vec<Vec<usize>>> = vec![vec![Vec::new(); levels]; levels];
        for (l, idxs) in by_level.iter().enumerate() {
            for &i in idxs {
                let tag = nearest(mtvs[i]);
                if tag == l {
                    clean[l].push(i);
                } else {
                    errors[l][tag].push(i);
                }
            }
            if clean[l].is_empty() {
                clean[l] = idxs.clone();
            }
        }
        let fit_mf = |class0: &[usize], class1: &[usize]| -> Option<MatchedFilter> {
            MatchedFilter::fit(
                class0.iter().map(|&i| features[i].as_slice()),
                class1.iter().map(|&i| features[i].as_slice()),
                kind,
            )
        };
        let mut filters = Vec::new();
        for role in FilterRole::canonical_set(levels, include_emf) {
            let mf = match role {
                FilterRole::Qubit(a, b) => fit_mf(&by_level[a], &by_level[b])?,
                FilterRole::Relaxation(a, b) | FilterRole::Excitation(a, b) => {
                    let err = &errors[a][b];
                    if err.len() >= QubitMfBank::MIN_ERROR_TRACES {
                        tally[0] += 1;
                        fit_mf(&clean[a], err)?
                    } else {
                        tally[1] += usize::from(!err.is_empty());
                        let (lo, hi) = (a.min(b), a.max(b));
                        fit_mf(&by_level[lo], &by_level[hi])?
                    }
                }
            };
            filters.push((role, mf));
        }
        Some(QubitMfBank { filters, levels })
    }

    /// Fits both ways and demands the same roles, kernels and thresholds,
    /// bit for bit.
    fn assert_fit_matches_per_filter_fit(
        features: &[Vec<f64>],
        labels: &[usize],
        levels: usize,
        tally: &mut [usize; 2],
    ) {
        for include_emf in [true, false] {
            for kind in [
                MatchedFilterKind::VarianceSum,
                MatchedFilterKind::PaperVarianceDiff,
            ] {
                let want = per_filter_fit(features, labels, levels, include_emf, kind, tally)
                    .expect("every level present");
                let got = QubitMfBank::fit(features, labels, levels, include_emf, kind)
                    .expect("every level present");
                assert_eq!(got.roles(), want.roles());
                for ((role, g), (_, w)) in got.filters.iter().zip(&want.filters) {
                    let bits = |f: &MatchedFilter| {
                        let mut b: Vec<u64> = f.kernel().iter().map(|k| k.to_bits()).collect();
                        b.push(f.threshold().to_bits());
                        b
                    };
                    assert_eq!(bits(g), bits(w), "{role:?} emf={include_emf} {kind:?}");
                }
            }
        }
    }

    #[test]
    fn fit_is_bit_identical_to_the_per_filter_fit_on_generated_traces() {
        use mlr_sim::{ChipConfig, TraceDataset};
        let mut chip = ChipConfig::five_qubit_paper();
        chip.n_samples = 120;
        let ds = TraceDataset::generate(&chip, 3, 2, 17);
        let demod = mlr_dsp::Demodulator::new(&chip);
        let mut tally = [0usize; 2];
        for q in 0..chip.n_qubits() {
            let features: Vec<Vec<f64>> = (0..ds.len())
                .map(|i| mlr_dsp::iq_features(&demod.demodulate(ds.raw(i), q)))
                .collect();
            let labels: Vec<usize> = (0..ds.len()).map(|i| ds.label(i, q)).collect();
            assert_fit_matches_per_filter_fit(&features, &labels, 3, &mut tally);
        }
        // Both error-filter paths ran: dedicated kernels from >= 6 tagged
        // traces, and the QMF fallback for a non-empty smaller set.
        assert!(tally[0] > 0 && tally[1] > 0, "tally {tally:?}");
    }

    #[test]
    fn fit_is_bit_identical_to_the_per_filter_fit_on_synthetic_edges() {
        let mut tally = [0usize; 2];
        // Eight decayed level-1 traces: a dedicated RMF(1, 0).
        let (features, labels) = synthetic();
        assert_fit_matches_per_filter_fit(&features, &labels, 3, &mut tally);
        // Three of them: below MIN_ERROR_TRACES, so the QMF fallback.
        let keep = 63;
        assert_fit_matches_per_filter_fit(&features[..keep], &labels[..keep], 3, &mut tally);
        assert!(tally[0] > 0 && tally[1] > 0, "tally {tally:?}");
        // Level 1 split between levels 0 and 2: every level-1 trace is
        // tagged as an error, so its clean set falls back to all of its
        // traces while both of its error sets get dedicated kernels.
        let trace = |i_val: f64| -> Vec<f64> {
            let mut f = vec![i_val; 8];
            f.extend(vec![-i_val; 8]);
            f
        };
        let mut features = Vec::new();
        let mut labels = Vec::new();
        for k in 0..12 {
            let jitter = (k as f64 * 0.37).fract() * 0.05;
            for (level, i_val) in [(0, 0.0), (2, 2.0), (1, 0.1), (1, 1.9)] {
                features.push(trace(i_val + jitter));
                labels.push(level);
            }
        }
        let mut split = [0usize; 2];
        assert_fit_matches_per_filter_fit(&features, &labels, 3, &mut split);
        assert!(split[0] > 0, "split {split:?}");
    }

    #[test]
    fn bank_has_nine_filters_and_orders_scores() {
        let (features, labels) = synthetic();
        let bank = QubitMfBank::fit(&features, &labels, 3, true, MatchedFilterKind::VarianceSum)
            .expect("all levels present");
        assert_eq!(bank.n_filters(), 9);
        // QMF(0,1) must score level-1-like traces above level-0-like ones.
        let qmf01 = bank.filter(FilterRole::Qubit(0, 1)).unwrap();
        let f0 = &features[0];
        let f1 = &features[20];
        assert!(qmf01.apply(f1) > qmf01.apply(f0));
    }

    #[test]
    fn relaxation_filter_flags_decayed_traces() {
        let (features, labels) = synthetic();
        let bank =
            QubitMfBank::fit(&features, &labels, 3, true, MatchedFilterKind::VarianceSum).unwrap();
        let rmf10 = bank.filter(FilterRole::Relaxation(1, 0)).unwrap();
        // A decayed level-1 trace (last eight) scores above a clean one.
        let clean = &features[20];
        let decayed = &features[60];
        assert!(rmf10.apply(decayed) > rmf10.apply(clean));
    }

    #[test]
    fn missing_level_returns_none() {
        let (mut features, mut labels) = synthetic();
        // Drop all level-2 traces.
        let keep: Vec<usize> = (0..labels.len()).filter(|&i| labels[i] != 2).collect();
        features = keep.iter().map(|&i| features[i].clone()).collect();
        labels = keep.iter().map(|&i| labels[i]).collect();
        assert!(
            QubitMfBank::fit(&features, &labels, 3, true, MatchedFilterKind::VarianceSum).is_none()
        );
    }

    #[test]
    fn two_level_bank_without_emf() {
        let (features, labels) = synthetic();
        let keep: Vec<usize> = (0..labels.len()).filter(|&i| labels[i] < 2).collect();
        let f2: Vec<Vec<f64>> = keep.iter().map(|&i| features[i].clone()).collect();
        let l2: Vec<usize> = keep.iter().map(|&i| labels[i]).collect();
        let bank = QubitMfBank::fit(&f2, &l2, 2, false, MatchedFilterKind::VarianceSum).unwrap();
        assert_eq!(bank.n_filters(), 2);
        assert_eq!(
            bank.roles(),
            vec![FilterRole::Qubit(0, 1), FilterRole::Relaxation(1, 0)]
        );
    }

    #[test]
    fn kernels_iq_split_is_consistent_with_apply() {
        let (features, labels) = synthetic();
        let bank =
            QubitMfBank::fit(&features, &labels, 3, true, MatchedFilterKind::VarianceSum).unwrap();
        let kernels = bank.kernels_iq();
        assert_eq!(kernels.len(), 9);
        let trace: Vec<Complex> = (0..8)
            .map(|t| Complex::new(0.3 * t as f64, -0.1 * t as f64))
            .collect();
        let scores = bank.apply_trace(&trace);
        for ((ki, kq), score) in kernels.iter().zip(&scores) {
            assert_eq!(ki.len(), 8);
            assert_eq!(kq.len(), 8);
            let manual: f64 = trace
                .iter()
                .enumerate()
                .map(|(t, z)| ki[t] * z.re + kq[t] * z.im)
                .sum();
            assert!(
                (manual - score).abs() < 1e-9 * (1.0 + score.abs()),
                "{manual} vs {score}"
            );
        }
    }

    #[test]
    fn full_prefix_equals_apply_trace() {
        let (features, labels) = synthetic();
        let bank =
            QubitMfBank::fit(&features, &labels, 3, true, MatchedFilterKind::VarianceSum).unwrap();
        let trace: Vec<Complex> = (0..8)
            .map(|t| Complex::new((t as f64 * 0.7).sin(), (t as f64 * 0.3).cos()))
            .collect();
        let via_prefix = bank.apply_prefix(&trace);
        let via_apply = bank.apply_trace(&trace);
        for (a, b) in via_prefix.iter().zip(&via_apply) {
            assert!((a - b).abs() < 1e-12);
        }
        // A shorter prefix gives a genuinely partial score.
        let partial = bank.apply_prefix(&trace[..3]);
        assert_eq!(partial.len(), 9);
    }

    #[test]
    fn bank_serde_roundtrip() {
        let (features, labels) = synthetic();
        let bank =
            QubitMfBank::fit(&features, &labels, 3, true, MatchedFilterKind::VarianceSum).unwrap();
        let json = serde_json::to_string(&bank).unwrap();
        let back: QubitMfBank = serde_json::from_str(&json).unwrap();
        assert_eq!(back, bank);
    }

    #[test]
    fn apply_trace_equals_apply_features() {
        let (features, labels) = synthetic();
        let bank =
            QubitMfBank::fit(&features, &labels, 3, true, MatchedFilterKind::VarianceSum).unwrap();
        let trace: Vec<Complex> = (0..8).map(|_| Complex::new(1.0, -1.0)).collect();
        let via_trace = bank.apply_trace(&trace);
        let via_features = bank.apply(&mlr_dsp::iq_features(&trace));
        assert_eq!(via_trace, via_features);
    }
}
