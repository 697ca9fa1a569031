//! Calibration-free leakage harvesting (Sec. V-A): find naturally occurring
//! leaked traces in two-level data by spectral clustering of Mean Trace
//! Values.

use mlr_cluster::{KMeans, SpectralClustering};
use mlr_dsp::{mean_trace_value, Demodulator};
use mlr_sim::TraceDataset;

/// The outcome of clustering one qubit's MTV cloud into `{|0⟩, |1⟩, L}`.
#[derive(Debug, Clone, PartialEq)]
pub struct LeakageHarvest {
    /// Discovered level per analysed shot (parallel to the `indices` passed
    /// in): `0`, `1`, or `2` for the leakage cluster.
    pub assigned_levels: Vec<usize>,
    /// Positions (within the analysed indices) assigned to the leakage
    /// cluster.
    pub leaked_positions: Vec<usize>,
    /// MTV of each analysed trace, `[I, Q]` — the scatter of Fig. 3(a)/(b).
    pub mtv_points: Vec<[f64; 2]>,
    /// Number of traces in the clusters labelled `0`, `1`, `2`.
    pub cluster_sizes: [usize; 3],
}

impl LeakageHarvest {
    /// Fraction of analysed traces assigned to the leakage cluster.
    pub fn leakage_fraction(&self) -> f64 {
        self.leaked_positions.len() as f64 / self.assigned_levels.len() as f64
    }
}

/// Detects naturally occurring leakage in a **two-level** dataset without
/// any explicit `|2⟩` calibration, following Sec. V-A:
///
/// 1. compute each trace's Mean Trace Value (a point in the IQ plane);
/// 2. spectral-cluster the points into three groups;
/// 3. the two clusters dominated by prepared-`|0⟩` / prepared-`|1⟩` traces
///    inherit those labels; the remaining (smallest) cluster is leakage.
///
/// # Examples
///
/// ```no_run
/// use mlr_core::NaturalLeakageDetector;
/// use mlr_sim::{ChipConfig, TraceDataset};
///
/// let config = ChipConfig::five_qubit_paper();
/// let ds = TraceDataset::generate(&config, 2, 200, 3);
/// let all: Vec<usize> = (0..ds.len()).collect();
/// let harvest = NaturalLeakageDetector::new().detect(&ds, 3, &all);
/// println!("qubit 4 natural leakage: {:.3}%", harvest.leakage_fraction() * 100.0);
/// ```
#[derive(Debug, Clone)]
pub struct NaturalLeakageDetector {
    clusterer: SpectralClustering,
}

impl NaturalLeakageDetector {
    /// Leak-cluster separation threshold: if the candidate leakage
    /// centroid sits closer than `MERGE_THRESHOLD x d(|0⟩, |1⟩ centroids)`
    /// to a computational centroid, the qubit is deemed leak-free and the
    /// candidate cluster is merged back — this is what k=3 clustering
    /// produces when no leakage lobe exists and a computational lobe gets
    /// split instead.
    const MERGE_THRESHOLD: f64 = 0.5;

    /// Creates a detector with the default spectral-clustering settings.
    pub fn new() -> Self {
        Self {
            clusterer: SpectralClustering::new(3).with_seed(17),
        }
    }

    /// Clusters qubit `q`'s MTV points for the dataset shots selected by
    /// `indices` and labels the clusters.
    ///
    /// # Panics
    ///
    /// Panics if `indices` has fewer than three shots, or the dataset is not
    /// a readout dataset of the detector's chip.
    pub fn detect(&self, dataset: &TraceDataset, q: usize, indices: &[usize]) -> LeakageHarvest {
        assert!(indices.len() >= 3, "need at least three shots to cluster");
        let demod = Demodulator::new(dataset.config());
        let mtv_points: Vec<[f64; 2]> = indices
            .iter()
            .map(|&i| {
                let bb = demod.demodulate(dataset.raw(i), q);
                let z = mean_trace_value(&bb);
                [z.re, z.im]
            })
            .collect();
        let points: Vec<Vec<f64>> = mtv_points.iter().map(|p| p.to_vec()).collect();

        // Outlier-enriched subsample for the spectral eigensolve: leaked
        // traces can be well under 1% of the data, so a uniform subsample
        // would drop the leakage lobe entirely. Rank every point by its
        // distance to the nearest of two computational centroids (quick
        // 2-means) and guarantee the farthest points a seat.
        const MAX_EIGEN_POINTS: usize = 240;
        let sub_idx: Vec<usize> = if points.len() <= MAX_EIGEN_POINTS {
            (0..points.len()).collect()
        } else {
            let km = KMeans::new(2).with_seed(17).fit(&points);
            let dist = |p: &[f64]| -> f64 {
                km.centroids
                    .iter()
                    .map(|c| (p[0] - c[0]).powi(2) + (p[1] - c[1]).powi(2))
                    .fold(f64::INFINITY, f64::min)
            };
            let dists: Vec<f64> = points.iter().map(|p| dist(p)).collect();
            let median = mlr_num::median(&dists);
            let mut order: Vec<usize> = (0..points.len()).collect();
            order.sort_by(|&a, &b| dists[b].partial_cmp(&dists[a]).expect("finite"));
            let n_outliers = order
                .iter()
                .take(MAX_EIGEN_POINTS / 2)
                .filter(|&&i| dists[i] > 6.25 * median) // (2.5 x sqrt-median)^2
                .count();
            let mut chosen: Vec<usize> = order[..n_outliers].to_vec();
            // Deterministic stride fill with bulk points.
            let rest: Vec<usize> = order[n_outliers..].to_vec();
            let need = MAX_EIGEN_POINTS - n_outliers;
            let stride = (rest.len() / need.max(1)).max(1);
            chosen.extend(rest.iter().step_by(stride).take(need).copied());
            chosen.sort_unstable();
            chosen
        };
        let sub_points: Vec<Vec<f64>> = sub_idx.iter().map(|&i| points[i].clone()).collect();
        let sub_result = self.clusterer.fit(&sub_points);

        // Extend cluster assignments to every point by nearest centroid.
        let nearest_cluster = |p: &[f64]| -> usize {
            sub_result
                .centroids
                .iter()
                .enumerate()
                .min_by(|(_, a), (_, b)| {
                    let da = (p[0] - a[0]).powi(2) + (p[1] - a[1]).powi(2);
                    let db = (p[0] - b[0]).powi(2) + (p[1] - b[1]).powi(2);
                    da.partial_cmp(&db).expect("finite")
                })
                .map(|(c, _)| c)
                .expect("three clusters")
        };
        let mut assignments = vec![0usize; points.len()];
        for (pos, &i) in sub_idx.iter().enumerate() {
            assignments[i] = sub_result.assignments[pos];
        }
        let in_sub: std::collections::HashSet<usize> = sub_idx.iter().copied().collect();
        for (i, p) in points.iter().enumerate() {
            if !in_sub.contains(&i) {
                assignments[i] = nearest_cluster(p);
            }
        }
        let result = mlr_cluster::SpectralResult {
            assignments,
            centroids: sub_result.centroids,
            eigenvalues: sub_result.eigenvalues,
        };

        // Majority prepared label per cluster; the cluster least aligned
        // with a computational preparation (and smallest) becomes leakage.
        let mut votes = [[0usize; 2]; 3]; // votes[cluster][prepared_level]
        for (pos, &i) in indices.iter().enumerate() {
            let prepared = dataset.label(i, q).min(1);
            votes[result.assignments[pos]][prepared] += 1;
        }
        let sizes: Vec<usize> = votes.iter().map(|v| v[0] + v[1]).collect();

        // Pick the |0> cluster as the one with the highest share of
        // prepared-0 traces, the |1> cluster analogously among the rest, and
        // whatever remains is the leakage cluster. Shares (not raw counts)
        // keep the tiny leakage cluster from "winning" a majority.
        let share = |c: usize, l: usize| -> f64 {
            if sizes[c] == 0 {
                return 0.0;
            }
            votes[c][l] as f64 / sizes[c] as f64
        };
        // Candidate assignment: maximise share0(c0) + share1(c1) over the
        // six permutations of three clusters into (zero, one, leak).
        let mut best: (f64, [usize; 3]) = (f64::NEG_INFINITY, [0, 1, 2]);
        let perms = [
            [0, 1, 2],
            [0, 2, 1],
            [1, 0, 2],
            [1, 2, 0],
            [2, 0, 1],
            [2, 1, 0],
        ];
        for perm in perms {
            let [c0, c1, cl] = perm;
            // Prefer assignments whose leakage cluster is small: weight by
            // the negative leaked-cluster size fraction.
            let total: usize = sizes.iter().sum();
            let score = share(c0, 0) + share(c1, 1) - 0.5 * sizes[cl] as f64 / total.max(1) as f64;
            if score > best.0 {
                best = (score, perm);
            }
        }
        let [c0, c1, cl] = best.1;
        let mut cluster_to_level = [0usize; 3];
        cluster_to_level[c0] = 0;
        cluster_to_level[c1] = 1;
        cluster_to_level[cl] = 2;

        // Leak-free guard: a genuine |2> lobe sits far from both
        // computational lobes; a split computational lobe does not. Merge a
        // non-separated candidate back into its nearest computational
        // cluster.
        let dist = |a: &[f64], b: &[f64]| -> f64 {
            ((a[0] - b[0]).powi(2) + (a[1] - b[1]).powi(2)).sqrt()
        };
        let d01 = dist(&result.centroids[c0], &result.centroids[c1]);
        let d_leak = dist(&result.centroids[cl], &result.centroids[c0])
            .min(dist(&result.centroids[cl], &result.centroids[c1]));
        if d_leak < Self::MERGE_THRESHOLD * d01 {
            let nearest_comp = if dist(&result.centroids[cl], &result.centroids[c0])
                <= dist(&result.centroids[cl], &result.centroids[c1])
            {
                0
            } else {
                1
            };
            cluster_to_level[cl] = nearest_comp;
        }

        let assigned_levels: Vec<usize> = result
            .assignments
            .iter()
            .map(|&c| cluster_to_level[c])
            .collect();
        let leaked_positions: Vec<usize> = assigned_levels
            .iter()
            .enumerate()
            .filter(|(_, &l)| l == 2)
            .map(|(p, _)| p)
            .collect();
        let mut cluster_sizes = [0usize; 3];
        for &l in &assigned_levels {
            cluster_sizes[l] += 1;
        }
        LeakageHarvest {
            assigned_levels,
            leaked_positions,
            mtv_points,
            cluster_sizes,
        }
    }
}

impl Default for NaturalLeakageDetector {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlr_sim::ChipConfig;

    /// Two-level dataset on a chip with deliberately boosted natural leakage
    /// so a small test set still contains leaked traces.
    fn leaky_dataset() -> TraceDataset {
        let mut c = ChipConfig::five_qubit_paper();
        // Long enough past the 100 ns ring-up for the MTV lobes to separate.
        c.n_samples = 250;
        c.qubits[3].prep_leak_prob = 0.08;
        TraceDataset::generate(&c, 2, 40, 21)
    }

    #[test]
    fn finds_natural_leakage_without_calibration() {
        let ds = leaky_dataset();
        let all: Vec<usize> = (0..ds.len()).collect();
        let harvest = NaturalLeakageDetector::new().detect(&ds, 3, &all);

        // Ground truth: which analysed shots actually started leaked.
        let truly_leaked: Vec<bool> = all
            .iter()
            .map(|&i| ds.initial_level(i, 3).is_leaked())
            .collect();
        let n_true = truly_leaked.iter().filter(|&&b| b).count();
        assert!(n_true >= 10, "test set should contain real leakage");

        // Recall: most truly leaked shots land in the leakage cluster.
        let found = harvest
            .leaked_positions
            .iter()
            .filter(|&&p| truly_leaked[p])
            .count();
        let recall = found as f64 / n_true as f64;
        assert!(recall > 0.6, "leakage recall {recall}");

        // The leakage cluster is far smaller than the computational ones.
        assert!(harvest.cluster_sizes[2] < harvest.cluster_sizes[0]);
        assert!(harvest.cluster_sizes[2] < harvest.cluster_sizes[1]);
    }

    #[test]
    fn computational_clusters_follow_preparation() {
        let ds = leaky_dataset();
        let all: Vec<usize> = (0..ds.len()).collect();
        let harvest = NaturalLeakageDetector::new().detect(&ds, 0, &all);
        // For the clean qubit 0, discovered labels should mostly agree with
        // prepared labels.
        let agree = all
            .iter()
            .enumerate()
            .filter(|(p, &i)| harvest.assigned_levels[*p] == ds.label(i, 0))
            .count();
        assert!(
            agree as f64 / all.len() as f64 > 0.9,
            "agree {} / {} ; cluster sizes {:?}",
            agree,
            all.len(),
            harvest.cluster_sizes
        );
    }

    #[test]
    fn mtv_points_parallel_indices() {
        let ds = leaky_dataset();
        let some: Vec<usize> = (0..50).collect();
        let harvest = NaturalLeakageDetector::new().detect(&ds, 1, &some);
        assert_eq!(harvest.mtv_points.len(), 50);
        assert_eq!(harvest.assigned_levels.len(), 50);
    }
}
