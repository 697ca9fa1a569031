//! Spectral clustering on a k-nearest-neighbour affinity graph.

use mlr_linalg::Matrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::{dist_sq, KMeans};

/// Spectral clustering: build a symmetric kNN affinity graph with Gaussian
/// edge weights, form the normalised Laplacian
/// `L = I − D^{-1/2} W D^{-1/2}`, embed each point with the `k` smallest
/// eigenvectors, and run k-means on the embedding.
///
/// For large inputs the graph is built on a deterministic subsample
/// (`max_points`) and the remaining points are assigned to the nearest
/// cluster in the *original* space — MTV clouds are low-dimensional blobs,
/// so nearest-centroid extension is faithful and keeps the eigensolve
/// tractable.
///
/// # Examples
///
/// ```
/// use mlr_cluster::SpectralClustering;
///
/// let mut pts = Vec::new();
/// for i in 0..30 {
///     let t = i as f64 * 0.2;
///     pts.push(vec![t.cos() * 0.1, t.sin() * 0.1]);        // blob at origin
///     pts.push(vec![4.0 + t.cos() * 0.1, t.sin() * 0.1]);  // blob at (4, 0)
/// }
/// let res = SpectralClustering::new(2).with_seed(3).fit(&pts);
/// assert_eq!(res.assignments.len(), pts.len());
/// assert_ne!(res.assignments[0], res.assignments[1]);
/// ```
#[derive(Debug, Clone)]
pub struct SpectralClustering {
    k: usize,
    max_points: usize,
    seed: u64,
}

impl SpectralClustering {
    /// Graph neighbours per node in the kNN affinity graph.
    const N_NEIGHBORS: usize = 10;

    /// Creates a spectral clusterer for `k` clusters (10 neighbours,
    /// 240-point eigensolve cap by default).
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "k must be positive");
        Self {
            k,
            max_points: 240,
            seed: 0,
        }
    }

    /// Caps the number of points used for the eigensolve (default 240);
    /// the rest are assigned by nearest centroid.
    ///
    /// # Panics
    ///
    /// Panics if `max_points < k`.
    pub fn with_max_points(mut self, max_points: usize) -> Self {
        assert!(max_points >= self.k, "max_points must cover k clusters");
        self.max_points = max_points;
        self
    }

    /// Sets the RNG seed used for subsampling and k-means (default 0).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Clusters `points`.
    ///
    /// # Panics
    ///
    /// Panics if there are fewer points than clusters or rows are ragged.
    pub fn fit(&self, points: &[Vec<f64>]) -> SpectralResult {
        assert!(points.len() >= self.k, "fewer points than clusters");
        let dim = points.first().map_or(0, Vec::len);
        assert!(points.iter().all(|p| p.len() == dim), "ragged points");

        // Deterministic subsample for the eigensolve.
        let mut rng = StdRng::seed_from_u64(self.seed);
        let sample_idx: Vec<usize> = if points.len() <= self.max_points {
            (0..points.len()).collect()
        } else {
            // Floyd-style distinct sampling, then sorted for determinism.
            let mut chosen = std::collections::BTreeSet::new();
            while chosen.len() < self.max_points {
                chosen.insert(rng.gen_range(0..points.len()));
            }
            chosen.into_iter().collect()
        };
        let sample: Vec<&Vec<f64>> = sample_idx.iter().map(|&i| &points[i]).collect();
        let n = sample.len();
        let knn = Self::N_NEIGHBORS.min(n - 1).max(1);

        // Pairwise squared distances.
        let mut d2 = vec![vec![0.0; n]; n];
        for i in 0..n {
            for j in (i + 1)..n {
                let d = dist_sq(sample[i], sample[j]);
                d2[i][j] = d;
                d2[j][i] = d;
            }
        }

        // Local scale per node: distance to its knn-th neighbour
        // (Zelnik-Manor/Perona self-tuning affinity).
        let mut sigma = vec![0.0; n];
        let mut neighbor_sets: Vec<Vec<usize>> = Vec::with_capacity(n);
        for i in 0..n {
            let mut order: Vec<usize> = (0..n).filter(|&j| j != i).collect();
            order.sort_by(|&a, &b| d2[i][a].partial_cmp(&d2[i][b]).expect("finite"));
            order.truncate(knn);
            sigma[i] = d2[i][*order.last().expect("knn >= 1")].sqrt().max(1e-12);
            neighbor_sets.push(order);
        }

        // Symmetric kNN affinity with self-tuned Gaussian weights.
        let mut w = Matrix::zeros(n, n);
        for i in 0..n {
            for &j in &neighbor_sets[i] {
                let weight = (-d2[i][j] / (sigma[i] * sigma[j])).exp();
                w[(i, j)] = w[(i, j)].max(weight);
                w[(j, i)] = w[(i, j)];
            }
        }

        // Normalised Laplacian L = I - D^{-1/2} W D^{-1/2}.
        let deg: Vec<f64> = (0..n)
            .map(|i| (0..n).map(|j| w[(i, j)]).sum::<f64>().max(1e-12))
            .collect();
        let lap = Matrix::from_fn(n, n, |i, j| {
            let norm = w[(i, j)] / (deg[i] * deg[j]).sqrt();
            if i == j {
                1.0 - norm
            } else {
                -norm
            }
        });

        // Smallest-k eigenvector embedding, row-normalised (Ng-Jordan-Weiss).
        let eig = lap.symmetric_eigen();
        let emb = eig.smallest_embedding(self.k);
        let mut rows: Vec<Vec<f64>> = (0..n).map(|i| emb.row(i).to_vec()).collect();
        for row in &mut rows {
            let norm = row.iter().map(|v| v * v).sum::<f64>().sqrt();
            if norm > 1e-12 {
                row.iter_mut().for_each(|v| *v /= norm);
            }
        }

        let km = KMeans::new(self.k).with_seed(self.seed).fit(&rows);

        // Centroids in the ORIGINAL space (mean of members), for extension.
        let mut centroids = vec![vec![0.0; dim]; self.k];
        let mut counts = vec![0usize; self.k];
        for (s, &a) in km.assignments.iter().enumerate() {
            counts[a] += 1;
            for (c, &v) in centroids[a].iter_mut().zip(sample[s]) {
                *c += v;
            }
        }
        for (centroid, &count) in centroids.iter_mut().zip(&counts) {
            if count > 0 {
                centroid.iter_mut().for_each(|c| *c /= count as f64);
            }
        }

        // Assign every point: sampled points keep their spectral label,
        // the rest go to the nearest original-space centroid.
        let mut assignments = vec![usize::MAX; points.len()];
        for (s, &orig) in sample_idx.iter().enumerate() {
            assignments[orig] = km.assignments[s];
        }
        for (i, p) in points.iter().enumerate() {
            if assignments[i] == usize::MAX {
                assignments[i] = centroids
                    .iter()
                    .enumerate()
                    .min_by(|(_, a), (_, b)| {
                        dist_sq(p, a).partial_cmp(&dist_sq(p, b)).expect("finite")
                    })
                    .map(|(c, _)| c)
                    .expect("k >= 1");
            }
        }

        SpectralResult {
            assignments,
            centroids,
            eigenvalues: eig.values[..self.k].to_vec(),
        }
    }
}

/// Output of [`SpectralClustering::fit`].
#[derive(Debug, Clone, PartialEq)]
pub struct SpectralResult {
    /// Cluster index per input point.
    pub assignments: Vec<usize>,
    /// Cluster centroids in the original feature space.
    pub centroids: Vec<Vec<f64>>,
    /// The `k` smallest Laplacian eigenvalues (near-zero values indicate
    /// well-separated components).
    pub eigenvalues: Vec<f64>,
}

impl SpectralResult {
    /// Number of points per cluster.
    pub fn cluster_sizes(&self) -> Vec<usize> {
        let mut sizes = vec![0usize; self.centroids.len()];
        for &a in &self.assignments {
            sizes[a] += 1;
        }
        sizes
    }

    /// Index of the smallest cluster — the leakage-candidate cluster in the
    /// paper's MTV analysis (ties resolve to the lowest index).
    pub fn smallest_cluster(&self) -> usize {
        self.cluster_sizes()
            .iter()
            .enumerate()
            .min_by_key(|&(_, &s)| s)
            .map(|(i, _)| i)
            .expect("at least one cluster")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring(cx: f64, cy: f64, r: f64, n: usize) -> Vec<Vec<f64>> {
        (0..n)
            .map(|i| {
                let t = i as f64 / n as f64 * std::f64::consts::TAU;
                vec![cx + r * t.cos(), cy + r * t.sin()]
            })
            .collect()
    }

    #[test]
    fn separates_three_unbalanced_blobs() {
        // Mimics the MTV geometry: two large computational lobes plus a
        // small leakage lobe.
        let mut pts = ring(0.0, 0.0, 0.4, 60);
        pts.extend(ring(6.0, 0.0, 0.4, 60));
        pts.extend(ring(3.0, 5.0, 0.3, 9));
        let res = SpectralClustering::new(3).with_seed(2).fit(&pts);
        let sizes = res.cluster_sizes();
        let mut sorted = sizes.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![9, 60, 60]);
        // The small cluster contains exactly the last nine points.
        let small = res.smallest_cluster();
        for (i, &a) in res.assignments.iter().enumerate() {
            assert_eq!(a == small, i >= 120, "point {i}");
        }
    }

    #[test]
    fn subsampling_path_still_clusters() {
        let mut pts = ring(0.0, 0.0, 0.5, 300);
        pts.extend(ring(8.0, 0.0, 0.5, 300));
        let res = SpectralClustering::new(2)
            .with_seed(4)
            .with_max_points(80)
            .fit(&pts);
        // All points in each ring share a label.
        let a0 = res.assignments[0];
        assert!(res.assignments[..300].iter().all(|&a| a == a0));
        let a1 = res.assignments[300];
        assert!(res.assignments[300..].iter().all(|&a| a == a1));
        assert_ne!(a0, a1);
    }

    #[test]
    fn deterministic_given_seed() {
        let mut pts = ring(0.0, 0.0, 0.5, 50);
        pts.extend(ring(5.0, 0.0, 0.5, 50));
        let a = SpectralClustering::new(2).with_seed(11).fit(&pts);
        let b = SpectralClustering::new(2).with_seed(11).fit(&pts);
        assert_eq!(a, b);
    }

    #[test]
    fn disconnected_components_give_near_zero_eigenvalues() {
        let mut pts = ring(0.0, 0.0, 0.2, 30);
        pts.extend(ring(50.0, 0.0, 0.2, 30));
        let res = SpectralClustering::new(2).with_seed(0).fit(&pts);
        assert!(res.eigenvalues[0] < 1e-6);
        assert!(res.eigenvalues[1] < 1e-6);
    }

    #[test]
    #[should_panic(expected = "fewer points than clusters")]
    fn rejects_too_few_points() {
        let _ = SpectralClustering::new(3).fit(&[vec![0.0], vec![1.0]]);
    }
}
