//! k-nearest-neighbor outlier detection (§IV-B.2, [28]).
//!
//! Scores a sample by its distance to the k-th nearest benign training
//! sample. Exact brute force over a (deterministic) training subsample —
//! at snapshot dimensionality there is no point in an index structure.

use crate::detector::{rows_f64, AnomalyDetector};
use crate::linalg::dist_sq;
use vehigan_tensor::Tensor;

/// KNN-based outlier detector.
///
/// # Examples
///
/// ```
/// use vehigan_baselines::{AnomalyDetector, KnnDetector};
/// use vehigan_tensor::Tensor;
///
/// let train = Tensor::from_vec(vec![0.0, 0.1, 0.2, 0.3, 0.4, 0.5], &[6, 1]);
/// let mut knn = KnnDetector::default();
/// knn.fit(&train);
/// let scores = knn.score_batch(&Tensor::from_vec(vec![0.25, 9.0], &[2, 1]));
/// assert!(scores[1] > scores[0]);
/// ```
#[derive(Debug)]
pub struct KnnDetector {
    k: usize,
    max_train: usize,
    train: Vec<Vec<f64>>,
}

impl KnnDetector {
    /// Creates a detector using the `k`-th neighbor distance, keeping at
    /// most `max_train` training samples (evenly strided subsample).
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` or `max_train <= k`.
    pub(crate) fn new(k: usize, max_train: usize) -> Self {
        assert!(k > 0, "k must be positive");
        assert!(max_train > k, "max_train must exceed k");
        KnnDetector {
            k,
            max_train,
            train: Vec::new(),
        }
    }
}

impl Default for KnnDetector {
    /// `k = 5`, up to 2,000 retained training samples.
    fn default() -> Self {
        KnnDetector::new(5, 2000)
    }
}

impl AnomalyDetector for KnnDetector {
    fn fit(&mut self, x: &Tensor) {
        let rows = rows_f64(x);
        assert!(
            rows.len() > self.k,
            "need more than k={} training samples, got {}",
            self.k,
            rows.len()
        );
        if rows.len() <= self.max_train {
            self.train = rows;
        } else {
            // Deterministic even-stride subsample preserves coverage.
            let stride = rows.len() as f64 / self.max_train as f64;
            self.train = (0..self.max_train)
                .map(|i| rows[(i as f64 * stride) as usize].clone())
                .collect();
        }
    }

    fn score_batch(&mut self, x: &Tensor) -> Vec<f32> {
        assert!(
            !self.train.is_empty(),
            "KnnDetector::score_batch before fit"
        );
        rows_f64(x)
            .into_iter()
            .map(|query| {
                let mut dists: Vec<f64> = self.train.iter().map(|t| dist_sq(&query, t)).collect();
                let kth = self.k - 1;
                dists.select_nth_unstable_by(kth, |a, b| {
                    a.partial_cmp(b).expect("finite distances")
                });
                dists[kth].sqrt() as f32
            })
            .collect()
    }

    fn name(&self) -> &'static str {
        "KNN"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cluster(n: usize) -> Tensor {
        // Tight cluster around the origin.
        let data: Vec<f32> = (0..n * 2)
            .map(|i| ((i * 37) % 100) as f32 / 1000.0)
            .collect();
        Tensor::from_vec(data, &[n, 2])
    }

    #[test]
    fn outlier_scores_higher_than_inlier() {
        let mut knn = KnnDetector::new(3, 1000);
        knn.fit(&cluster(50));
        let q = Tensor::from_vec(vec![0.05, 0.05, 5.0, 5.0], &[2, 2]);
        let s = knn.score_batch(&q);
        assert!(s[1] > s[0] * 10.0);
    }

    #[test]
    fn kth_distance_is_exact() {
        // Train at 0, 1, 2, 3 on a line. Query at 0: distances 0,1,2,3;
        // k=2 → 1.0.
        let train = Tensor::from_vec(vec![0.0, 1.0, 2.0, 3.0], &[4, 1]);
        let mut knn = KnnDetector::new(2, 100);
        knn.fit(&train);
        let s = knn.score_batch(&Tensor::from_vec(vec![0.0], &[1, 1]));
        assert!((s[0] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn subsampling_caps_training_set() {
        let mut knn = KnnDetector::new(2, 10);
        knn.fit(&cluster(100));
        assert_eq!(knn.train.len(), 10);
        // Still functional.
        let s = knn.score_batch(&Tensor::from_vec(vec![9.0, 9.0], &[1, 2]));
        assert!(s[0] > 1.0);
    }

    #[test]
    fn deterministic() {
        let mut a = KnnDetector::new(3, 20);
        let mut b = KnnDetector::new(3, 20);
        a.fit(&cluster(100));
        b.fit(&cluster(100));
        let q = cluster(5);
        assert_eq!(a.score_batch(&q), b.score_batch(&q));
    }

    #[test]
    #[should_panic(expected = "before fit")]
    fn score_before_fit_panics() {
        let mut knn = KnnDetector::default();
        let _ = knn.score_batch(&Tensor::zeros(&[1, 2]));
    }
}
