//! Dense symmetric linear algebra: covariance and Jacobi eigendecomposition.
//!
//! Supports the PCA baseline (and anything else needing spectra) without
//! pulling in a LAPACK binding. Snapshot dimensionality is small
//! (`w·f = 120`), where cyclic Jacobi is accurate and plenty fast.

/// A dense symmetric matrix stored row-major.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct SymMatrix {
    n: usize,
    data: Vec<f64>,
}

impl SymMatrix {
    /// Creates an `n×n` zero matrix.
    pub(crate) fn zeros(n: usize) -> Self {
        SymMatrix {
            n,
            data: vec![0.0; n * n],
        }
    }

    /// Symmetric element assignment (sets both `(i,j)` and `(j,i)`).
    pub(crate) fn set_sym(&mut self, i: usize, j: usize, v: f64) {
        self.data[i * self.n + j] = v;
        self.data[j * self.n + i] = v;
    }

    /// Sample covariance of rows (each row one observation), with the mean
    /// returned alongside.
    ///
    /// # Panics
    ///
    /// Panics if fewer than 2 rows are given.
    pub(crate) fn covariance(rows: &[Vec<f64>]) -> (SymMatrix, Vec<f64>) {
        assert!(rows.len() >= 2, "covariance needs at least 2 observations");
        let n = rows[0].len();
        let m = rows.len() as f64;
        let mut mean = vec![0.0; n];
        for row in rows {
            assert_eq!(row.len(), n, "ragged rows");
            for (mu, &v) in mean.iter_mut().zip(row) {
                *mu += v;
            }
        }
        for mu in &mut mean {
            *mu /= m;
        }
        let mut cov = SymMatrix::zeros(n);
        for row in rows {
            for i in 0..n {
                let di = row[i] - mean[i];
                for j in i..n {
                    let dj = row[j] - mean[j];
                    cov.data[i * n + j] += di * dj;
                }
            }
        }
        for i in 0..n {
            for j in i..n {
                let v = cov.data[i * n + j] / (m - 1.0);
                cov.set_sym(i, j, v);
            }
        }
        (cov, mean)
    }

    /// Eigendecomposition by cyclic Jacobi rotations.
    ///
    /// Returns `(eigenvalues, eigenvectors)` sorted by descending
    /// eigenvalue; `eigenvectors[k]` is the unit eigenvector for
    /// `eigenvalues[k]`.
    pub(crate) fn eigen(&self) -> (Vec<f64>, Vec<Vec<f64>>) {
        let n = self.n;
        let mut a = self.data.clone();
        // v starts as identity; columns accumulate the eigenvectors.
        let mut v = vec![0.0; n * n];
        for i in 0..n {
            v[i * n + i] = 1.0;
        }
        let max_sweeps = 64;
        for _ in 0..max_sweeps {
            // Off-diagonal Frobenius norm as convergence measure.
            let mut off = 0.0;
            for i in 0..n {
                for j in (i + 1)..n {
                    off += a[i * n + j] * a[i * n + j];
                }
            }
            if off.sqrt() < 1e-12 {
                break;
            }
            for p in 0..n {
                for q in (p + 1)..n {
                    let apq = a[p * n + q];
                    if apq.abs() < 1e-15 {
                        continue;
                    }
                    let app = a[p * n + p];
                    let aqq = a[q * n + q];
                    let theta = (aqq - app) / (2.0 * apq);
                    let t = theta.signum() / (theta.abs() + (theta * theta + 1.0).sqrt());
                    let c = 1.0 / (t * t + 1.0).sqrt();
                    let s = t * c;
                    // Rotate rows/cols p and q of `a`.
                    for k in 0..n {
                        let akp = a[k * n + p];
                        let akq = a[k * n + q];
                        a[k * n + p] = c * akp - s * akq;
                        a[k * n + q] = s * akp + c * akq;
                    }
                    for k in 0..n {
                        let apk = a[p * n + k];
                        let aqk = a[q * n + k];
                        a[p * n + k] = c * apk - s * aqk;
                        a[q * n + k] = s * apk + c * aqk;
                    }
                    // Accumulate the rotation into `v`.
                    for k in 0..n {
                        let vkp = v[k * n + p];
                        let vkq = v[k * n + q];
                        v[k * n + p] = c * vkp - s * vkq;
                        v[k * n + q] = s * vkp + c * vkq;
                    }
                }
            }
        }
        let mut pairs: Vec<(f64, Vec<f64>)> = (0..n)
            .map(|j| {
                let val = a[j * n + j];
                let vec: Vec<f64> = (0..n).map(|i| v[i * n + j]).collect();
                (val, vec)
            })
            .collect();
        pairs.sort_by(|x, y| y.0.partial_cmp(&x.0).expect("finite eigenvalues"));
        let (vals, vecs) = pairs.into_iter().unzip();
        (vals, vecs)
    }
}

/// Dot product of two equal-length slices.
pub(crate) fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(&x, &y)| x * y).sum()
}

/// Squared Euclidean distance between two equal-length slices.
pub(crate) fn dist_sq(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(&x, &y)| (x - y) * (x - y)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    impl SymMatrix {
        fn get(&self, i: usize, j: usize) -> f64 {
            self.data[i * self.n + j]
        }
    }

    #[test]
    fn eigen_of_diagonal() {
        let mut m = SymMatrix::zeros(3);
        m.set_sym(0, 0, 3.0);
        m.set_sym(1, 1, 1.0);
        m.set_sym(2, 2, 2.0);
        let (vals, vecs) = m.eigen();
        assert!((vals[0] - 3.0).abs() < 1e-9);
        assert!((vals[1] - 2.0).abs() < 1e-9);
        assert!((vals[2] - 1.0).abs() < 1e-9);
        assert!((vecs[0][0].abs() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn eigen_of_2x2_known() {
        // [[2, 1], [1, 2]] has eigenvalues 3 and 1.
        let mut m = SymMatrix::zeros(2);
        m.set_sym(0, 0, 2.0);
        m.set_sym(1, 1, 2.0);
        m.set_sym(0, 1, 1.0);
        let (vals, vecs) = m.eigen();
        assert!((vals[0] - 3.0).abs() < 1e-9);
        assert!((vals[1] - 1.0).abs() < 1e-9);
        // Eigenvector for 3 is (1,1)/√2 up to sign.
        let v = &vecs[0];
        assert!((v[0].abs() - std::f64::consts::FRAC_1_SQRT_2).abs() < 1e-9);
        assert!((v[0] - v[1]).abs() < 1e-9);
    }

    #[test]
    fn eigenvectors_are_orthonormal() {
        // Random-ish symmetric matrix.
        let n = 8;
        let mut m = SymMatrix::zeros(n);
        for i in 0..n {
            for j in i..n {
                m.set_sym(i, j, ((i * 31 + j * 17) % 13) as f64 / 13.0);
            }
        }
        let (_, vecs) = m.eigen();
        for i in 0..n {
            for j in 0..n {
                let d = dot(&vecs[i], &vecs[j]);
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!((d - expect).abs() < 1e-8, "({i},{j}) dot={d}");
            }
        }
    }

    #[test]
    fn eigen_reconstructs_matrix_action() {
        // A·v = λ·v for every eigenpair.
        let n = 6;
        let mut m = SymMatrix::zeros(n);
        for i in 0..n {
            for j in i..n {
                m.set_sym(i, j, ((i + 2 * j) % 7) as f64 - 3.0);
            }
        }
        let (vals, vecs) = m.eigen();
        for (lambda, v) in vals.iter().zip(&vecs) {
            for i in 0..n {
                let av: f64 = (0..n).map(|j| m.get(i, j) * v[j]).sum();
                assert!((av - lambda * v[i]).abs() < 1e-8);
            }
        }
    }

    #[test]
    fn covariance_of_known_data() {
        let rows = vec![vec![1.0, 2.0], vec![3.0, 6.0], vec![5.0, 10.0]];
        let (cov, mean) = SymMatrix::covariance(&rows);
        assert_eq!(mean, vec![3.0, 6.0]);
        assert!((cov.get(0, 0) - 4.0).abs() < 1e-12);
        assert!((cov.get(1, 1) - 16.0).abs() < 1e-12);
        assert!((cov.get(0, 1) - 8.0).abs() < 1e-12); // perfectly correlated
    }

    #[test]
    fn distance_helpers() {
        assert_eq!(dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
        assert_eq!(dist_sq(&[0.0, 0.0], &[3.0, 4.0]), 25.0);
    }
}
