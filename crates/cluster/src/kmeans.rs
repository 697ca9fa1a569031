//! Lloyd's algorithm with k-means++ seeding.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::dist_sq;

/// k-means clustering configuration (builder style).
///
/// # Examples
///
/// ```
/// use mlr_cluster::KMeans;
///
/// let pts: Vec<Vec<f64>> = (0..20)
///     .map(|i| vec![if i < 10 { 0.0 } else { 9.0 } + (i % 10) as f64 * 0.01])
///     .collect();
/// let res = KMeans::new(2).with_seed(7).with_max_iter(50).fit(&pts);
/// assert_eq!(res.centroids.len(), 2);
/// assert!(res.inertia < 1.0);
/// ```
#[derive(Debug, Clone)]
pub struct KMeans {
    k: usize,
    max_iter: usize,
    seed: u64,
}

impl KMeans {
    /// Independent initialisations per fit; the run with the lowest
    /// inertia is kept.
    const N_INIT: usize = 4;

    /// Creates a clusterer for `k` clusters with default settings
    /// (20 restarts are unnecessary at this scale; 4 inits, 100 iterations).
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "k must be positive");
        Self {
            k,
            max_iter: 100,
            seed: 0,
        }
    }

    /// Sets the RNG seed (default 0).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the Lloyd-iteration cap (default 100).
    pub fn with_max_iter(mut self, max_iter: usize) -> Self {
        self.max_iter = max_iter;
        self
    }

    /// Clusters `points`, returning the best run by inertia.
    ///
    /// # Panics
    ///
    /// Panics if `points` is empty, contains ragged rows, or has fewer
    /// points than clusters.
    pub fn fit(&self, points: &[Vec<f64>]) -> KMeansResult {
        assert!(!points.is_empty(), "no points to cluster");
        assert!(points.len() >= self.k, "fewer points than clusters");
        let dim = points[0].len();
        assert!(points.iter().all(|p| p.len() == dim), "ragged points");

        let mut best: Option<KMeansResult> = None;
        for init in 0..Self::N_INIT {
            let mut rng = StdRng::seed_from_u64(self.seed.wrapping_add(init as u64));
            let run = self.run_once(points, dim, &mut rng);
            if best.as_ref().is_none_or(|b| run.inertia < b.inertia) {
                best = Some(run);
            }
        }
        best.expect("N_INIT >= 1")
    }

    fn run_once(&self, points: &[Vec<f64>], dim: usize, rng: &mut StdRng) -> KMeansResult {
        let mut centroids = self.kmeanspp_init(points, rng);
        let mut assignments = vec![0usize; points.len()];
        let mut inertia = f64::INFINITY;

        for _ in 0..self.max_iter {
            // Assignment step.
            let mut new_inertia = 0.0;
            for (i, p) in points.iter().enumerate() {
                let (mut best_c, mut best_d) = (0, f64::INFINITY);
                for (c, centroid) in centroids.iter().enumerate() {
                    let d = dist_sq(p, centroid);
                    if d < best_d {
                        best_d = d;
                        best_c = c;
                    }
                }
                assignments[i] = best_c;
                new_inertia += best_d;
            }
            // Update step.
            let mut sums = vec![vec![0.0; dim]; self.k];
            let mut counts = vec![0usize; self.k];
            for (p, &a) in points.iter().zip(&assignments) {
                counts[a] += 1;
                for (s, &v) in sums[a].iter_mut().zip(p) {
                    *s += v;
                }
            }
            for c in 0..self.k {
                if counts[c] == 0 {
                    // Re-seed an empty cluster at the point farthest from its
                    // centroid to avoid dead clusters.
                    let far = points
                        .iter()
                        .enumerate()
                        .max_by(|(_, a), (_, b)| {
                            let da = dist_sq(a, &centroids[assignments[0]]);
                            let db = dist_sq(b, &centroids[assignments[0]]);
                            da.partial_cmp(&db).expect("finite distances")
                        })
                        .map(|(i, _)| i)
                        .expect("nonempty points");
                    centroids[c] = points[far].clone();
                    continue;
                }
                for (j, s) in sums[c].iter().enumerate() {
                    centroids[c][j] = s / counts[c] as f64;
                }
            }
            // Converged? (The final sweep below recomputes the inertia.)
            if (inertia - new_inertia).abs() <= 1e-10 * inertia.max(1.0) {
                break;
            }
            inertia = new_inertia;
        }

        // Final assignment sweep so the returned assignments are exactly
        // nearest-centroid with respect to the returned centroids.
        let mut final_inertia = 0.0;
        for (i, p) in points.iter().enumerate() {
            let (mut best_c, mut best_d) = (0, f64::INFINITY);
            for (c, centroid) in centroids.iter().enumerate() {
                let d = dist_sq(p, centroid);
                if d < best_d {
                    best_d = d;
                    best_c = c;
                }
            }
            assignments[i] = best_c;
            final_inertia += best_d;
        }

        KMeansResult {
            centroids,
            assignments,
            inertia: final_inertia,
        }
    }

    /// k-means++ seeding: first centroid uniform, subsequent ones sampled
    /// proportionally to squared distance from the nearest chosen centroid.
    fn kmeanspp_init(&self, points: &[Vec<f64>], rng: &mut StdRng) -> Vec<Vec<f64>> {
        let mut centroids: Vec<Vec<f64>> = Vec::with_capacity(self.k);
        centroids.push(points[rng.gen_range(0..points.len())].clone());
        let mut d2: Vec<f64> = points.iter().map(|p| dist_sq(p, &centroids[0])).collect();
        while centroids.len() < self.k {
            let total: f64 = d2.iter().sum();
            let idx = if total <= 0.0 {
                rng.gen_range(0..points.len())
            } else {
                let mut target = rng.gen::<f64>() * total;
                let mut chosen = points.len() - 1;
                for (i, &d) in d2.iter().enumerate() {
                    target -= d;
                    if target <= 0.0 {
                        chosen = i;
                        break;
                    }
                }
                chosen
            };
            centroids.push(points[idx].clone());
            let new_c = centroids.last().expect("just pushed");
            for (d, p) in d2.iter_mut().zip(points) {
                *d = d.min(dist_sq(p, new_c));
            }
        }
        centroids
    }
}

/// Output of [`KMeans::fit`].
#[derive(Debug, Clone, PartialEq)]
pub struct KMeansResult {
    /// Final cluster centroids, `k` rows.
    pub centroids: Vec<Vec<f64>>,
    /// Cluster index per input point.
    pub assignments: Vec<usize>,
    /// Sum of squared distances from each point to its centroid.
    pub inertia: f64,
}

impl KMeansResult {
    /// Number of points assigned to each cluster.
    pub fn cluster_sizes(&self) -> Vec<usize> {
        let mut sizes = vec![0usize; self.centroids.len()];
        for &a in &self.assignments {
            sizes[a] += 1;
        }
        sizes
    }

    /// Index of the smallest cluster (ties resolve to the lowest index) —
    /// the candidate leakage cluster in the paper's MTV analysis.
    pub fn smallest_cluster(&self) -> usize {
        let sizes = self.cluster_sizes();
        sizes
            .iter()
            .enumerate()
            .min_by_key(|&(_, &s)| s)
            .map(|(i, _)| i)
            .expect("at least one cluster")
    }

    /// Assigns an out-of-sample point to the nearest centroid.
    ///
    /// # Panics
    ///
    /// Panics if the point dimension differs from the centroids'.
    pub fn assign(&self, point: &[f64]) -> usize {
        self.centroids
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| {
                dist_sq(point, a)
                    .partial_cmp(&dist_sq(point, b))
                    .expect("finite distances")
            })
            .map(|(i, _)| i)
            .expect("at least one centroid")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn three_blobs() -> (Vec<Vec<f64>>, Vec<usize>) {
        let centers = [[0.0, 0.0], [10.0, 0.0], [5.0, 8.0]];
        let mut pts = Vec::new();
        let mut labels = Vec::new();
        for (c, center) in centers.iter().enumerate() {
            let n = if c == 2 { 8 } else { 40 }; // cluster 2 is small
            for i in 0..n {
                let jitter = (i as f64 * 0.618).fract() - 0.5;
                pts.push(vec![center[0] + jitter, center[1] - jitter * 0.7]);
                labels.push(c);
            }
        }
        (pts, labels)
    }

    #[test]
    fn recovers_well_separated_blobs() {
        let (pts, labels) = three_blobs();
        let res = KMeans::new(3).with_seed(5).fit(&pts);
        // Clusters must be internally consistent with ground truth up to
        // relabelling: same-label pairs share clusters.
        for i in 0..pts.len() {
            for j in 0..pts.len() {
                if labels[i] == labels[j] {
                    assert_eq!(res.assignments[i], res.assignments[j]);
                }
            }
        }
    }

    #[test]
    fn smallest_cluster_identified() {
        let (pts, labels) = three_blobs();
        let res = KMeans::new(3).with_seed(5).fit(&pts);
        let small = res.smallest_cluster();
        let small_members: Vec<usize> = res
            .assignments
            .iter()
            .enumerate()
            .filter(|(_, &a)| a == small)
            .map(|(i, _)| i)
            .collect();
        assert_eq!(small_members.len(), 8);
        assert!(small_members.iter().all(|&i| labels[i] == 2));
    }

    #[test]
    fn deterministic_given_seed() {
        let (pts, _) = three_blobs();
        let a = KMeans::new(3).with_seed(9).fit(&pts);
        let b = KMeans::new(3).with_seed(9).fit(&pts);
        assert_eq!(a, b);
    }

    #[test]
    fn out_of_sample_assignment() {
        let (pts, _) = three_blobs();
        let res = KMeans::new(3).with_seed(5).fit(&pts);
        let near_origin = res.assign(&[0.2, -0.1]);
        assert_eq!(near_origin, res.assignments[0]);
    }

    #[test]
    fn inertia_zero_for_k_equals_n() {
        let pts = vec![vec![0.0], vec![1.0], vec![2.0]];
        let res = KMeans::new(3).with_seed(1).fit(&pts);
        assert!(res.inertia < 1e-18);
    }

    #[test]
    #[should_panic(expected = "fewer points than clusters")]
    fn rejects_k_above_n() {
        let _ = KMeans::new(4).fit(&[vec![0.0], vec![1.0]]);
    }

    #[test]
    fn single_cluster_centroid_is_mean() {
        let pts = vec![vec![0.0, 0.0], vec![2.0, 4.0]];
        let res = KMeans::new(1).with_seed(3).fit(&pts);
        assert!((res.centroids[0][0] - 1.0).abs() < 1e-12);
        assert!((res.centroids[0][1] - 2.0).abs() < 1e-12);
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Lloyd's invariant: on convergence every point is assigned to its
        /// nearest centroid.
        #[test]
        fn assignments_are_nearest_centroid(
            xs in proptest::collection::vec(-10.0f64..10.0, 12..40),
            k in 1usize..4,
        ) {
            let points: Vec<Vec<f64>> = xs.chunks(2).map(|c| c.to_vec()).collect();
            let points: Vec<Vec<f64>> =
                points.into_iter().filter(|p| p.len() == 2).collect();
            prop_assume!(points.len() >= k);
            let res = KMeans::new(k).with_seed(7).fit(&points);
            for (p, &a) in points.iter().zip(&res.assignments) {
                let nearest = res.assign(p);
                let d_assigned = crate::dist_sq(p, &res.centroids[a]);
                let d_nearest = crate::dist_sq(p, &res.centroids[nearest]);
                prop_assert!(d_assigned <= d_nearest + 1e-9);
            }
        }

        /// Inertia never increases when k grows (best-of-restarts).
        #[test]
        fn inertia_decreases_with_k(
            xs in proptest::collection::vec(-5.0f64..5.0, 20..40),
        ) {
            let points: Vec<Vec<f64>> = xs.iter().map(|&x| vec![x]).collect();
            let i1 = KMeans::new(1).with_seed(3).fit(&points).inertia;
            let i3 = KMeans::new(3).with_seed(3).fit(&points).inertia;
            prop_assert!(i3 <= i1 + 1e-9);
        }
    }
}
