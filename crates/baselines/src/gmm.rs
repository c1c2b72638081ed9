//! Gaussian mixture model outlier detection (§IV-B.3, [29]).
//!
//! Diagonal-covariance GMM fitted by EM; the anomaly score is the negative
//! log-likelihood under the fitted mixture.

use crate::detector::{rows_f64, AnomalyDetector};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vehigan_tensor::Tensor;

/// GMM-based outlier detector with diagonal covariances.
///
/// # Examples
///
/// ```
/// use vehigan_baselines::{AnomalyDetector, GmmDetector};
/// use vehigan_tensor::Tensor;
///
/// let train = Tensor::from_vec((0..100).map(|i| (i % 10) as f32 * 0.01).collect(), &[100, 1]);
/// let mut gmm = GmmDetector::default();
/// gmm.fit(&train);
/// let s = gmm.score_batch(&Tensor::from_vec(vec![0.05, 10.0], &[2, 1]));
/// assert!(s[1] > s[0]);
/// ```
#[derive(Debug)]
pub struct GmmDetector {
    n_components: usize,
    n_iters: usize,
    seed: u64,
    weights: Vec<f64>,
    means: Vec<Vec<f64>>,
    variances: Vec<Vec<f64>>,
}

const VAR_FLOOR: f64 = 1e-6;

impl GmmDetector {
    /// Creates a detector with `n_components` Gaussians, `n_iters` EM
    /// iterations and a deterministic `seed` for initialization.
    ///
    /// # Panics
    ///
    /// Panics if `n_components == 0` or `n_iters == 0`.
    pub(crate) fn new(n_components: usize, n_iters: usize, seed: u64) -> Self {
        assert!(n_components > 0, "need at least one component");
        assert!(n_iters > 0, "need at least one EM iteration");
        GmmDetector {
            n_components,
            n_iters,
            seed,
            weights: Vec::new(),
            means: Vec::new(),
            variances: Vec::new(),
        }
    }

    /// Log density of `row` under component `k` (diagonal Gaussian).
    fn log_component(&self, k: usize, row: &[f64]) -> f64 {
        let mut log_p = 0.0;
        for ((&x, &mu), &var) in row.iter().zip(&self.means[k]).zip(&self.variances[k]) {
            let d = x - mu;
            log_p += -0.5 * ((2.0 * std::f64::consts::PI * var).ln() + d * d / var);
        }
        log_p
    }

    /// Log-likelihood of `row` under the mixture (log-sum-exp).
    fn log_likelihood(&self, row: &[f64]) -> f64 {
        let logs: Vec<f64> = (0..self.n_components)
            .map(|k| self.weights[k].max(1e-300).ln() + self.log_component(k, row))
            .collect();
        log_sum_exp(&logs)
    }
}

impl Default for GmmDetector {
    /// Four components, 40 EM iterations, seed 0.
    fn default() -> Self {
        GmmDetector::new(4, 40, 0)
    }
}

fn log_sum_exp(logs: &[f64]) -> f64 {
    let m = logs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    if m.is_infinite() {
        return m;
    }
    m + logs.iter().map(|&l| (l - m).exp()).sum::<f64>().ln()
}

impl AnomalyDetector for GmmDetector {
    fn fit(&mut self, x: &Tensor) {
        let rows = rows_f64(x);
        let n = rows.len();
        let d = rows[0].len();
        assert!(n >= self.n_components, "fewer samples than components");
        let mut rng = StdRng::seed_from_u64(self.seed);

        // Init: means at random data points, shared global variance.
        let mut global_var = vec![0.0; d];
        let mut mean_all = vec![0.0; d];
        for row in &rows {
            for (m, &v) in mean_all.iter_mut().zip(row) {
                *m += v;
            }
        }
        for m in &mut mean_all {
            *m /= n as f64;
        }
        for row in &rows {
            for ((gv, &v), &m) in global_var.iter_mut().zip(row).zip(&mean_all) {
                *gv += (v - m) * (v - m);
            }
        }
        for gv in &mut global_var {
            *gv = (*gv / n as f64).max(VAR_FLOOR);
        }
        self.weights = vec![1.0 / self.n_components as f64; self.n_components];
        self.means = (0..self.n_components)
            .map(|_| rows[rng.gen_range(0..n)].clone())
            .collect();
        self.variances = vec![global_var.clone(); self.n_components];

        let mut resp = vec![vec![0.0f64; self.n_components]; n];
        for _ in 0..self.n_iters {
            // E step.
            for (i, row) in rows.iter().enumerate() {
                let logs: Vec<f64> = (0..self.n_components)
                    .map(|k| self.weights[k].max(1e-300).ln() + self.log_component(k, row))
                    .collect();
                let lse = log_sum_exp(&logs);
                for k in 0..self.n_components {
                    resp[i][k] = (logs[k] - lse).exp();
                }
            }
            // M step.
            for k in 0..self.n_components {
                let nk: f64 = resp.iter().map(|r| r[k]).sum();
                if nk < 1e-9 {
                    // Dead component: re-seed at a random data point.
                    self.means[k] = rows[rng.gen_range(0..n)].clone();
                    self.variances[k] = global_var.clone();
                    self.weights[k] = 1e-6;
                    continue;
                }
                self.weights[k] = nk / n as f64;
                for j in 0..d {
                    let mu: f64 = rows
                        .iter()
                        .zip(&resp)
                        .map(|(row, r)| r[k] * row[j])
                        .sum::<f64>()
                        / nk;
                    self.means[k][j] = mu;
                }
                for j in 0..d {
                    let var: f64 = rows
                        .iter()
                        .zip(&resp)
                        .map(|(row, r)| {
                            let dlt = row[j] - self.means[k][j];
                            r[k] * dlt * dlt
                        })
                        .sum::<f64>()
                        / nk;
                    self.variances[k][j] = var.max(VAR_FLOOR);
                }
            }
            let wsum: f64 = self.weights.iter().sum();
            for w in &mut self.weights {
                *w /= wsum;
            }
        }
    }

    fn score_batch(&mut self, x: &Tensor) -> Vec<f32> {
        assert!(
            !self.means.is_empty(),
            "GmmDetector::score_batch before fit"
        );
        rows_f64(x)
            .into_iter()
            .map(|row| (-self.log_likelihood(&row)) as f32)
            .collect()
    }

    fn name(&self) -> &'static str {
        "GMM"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two well-separated clusters.
    fn bimodal(n: usize) -> Tensor {
        let mut data = Vec::with_capacity(n * 2);
        for i in 0..n {
            let center = if i % 2 == 0 { -2.0 } else { 2.0 };
            let jitter = ((i * 31) % 100) as f32 / 500.0 - 0.1;
            data.push(center + jitter);
            data.push(center * 0.5 + jitter);
        }
        Tensor::from_vec(data, &[n, 2])
    }

    #[test]
    fn bimodal_data_scored_correctly() {
        let mut gmm = GmmDetector::new(2, 50, 1);
        gmm.fit(&bimodal(200));
        // Both cluster centers should be likely; the midpoint unlikely.
        let q = Tensor::from_vec(vec![-2.0, -1.0, 2.0, 1.0, 0.0, 0.0], &[3, 2]);
        let s = gmm.score_batch(&q);
        assert!(s[2] > s[0] && s[2] > s[1], "{s:?}");
    }

    #[test]
    fn weights_sum_to_one() {
        let mut gmm = GmmDetector::new(3, 30, 2);
        gmm.fit(&bimodal(150));
        let sum: f64 = gmm.weights.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn far_outlier_has_extreme_score() {
        let mut gmm = GmmDetector::default();
        gmm.fit(&bimodal(200));
        let s = gmm.score_batch(&Tensor::from_vec(vec![-2.0, -1.0, 100.0, 100.0], &[2, 2]));
        assert!(s[1] > s[0] + 100.0);
    }

    #[test]
    fn deterministic_per_seed() {
        let mut a = GmmDetector::new(2, 20, 5);
        let mut b = GmmDetector::new(2, 20, 5);
        a.fit(&bimodal(100));
        b.fit(&bimodal(100));
        let q = bimodal(10);
        assert_eq!(a.score_batch(&q), b.score_batch(&q));
    }

    #[test]
    fn log_sum_exp_stable() {
        assert!((log_sum_exp(&[-1000.0, -1000.0]) - (-1000.0 + 2f64.ln())).abs() < 1e-9);
        assert_eq!(log_sum_exp(&[f64::NEG_INFINITY]), f64::NEG_INFINITY);
    }

    #[test]
    #[should_panic(expected = "before fit")]
    fn score_before_fit_panics() {
        let mut gmm = GmmDetector::default();
        let _ = gmm.score_batch(&Tensor::zeros(&[1, 2]));
    }
}
