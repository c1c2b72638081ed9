//! Finite-difference gradient checking.
//!
//! Used by the test suites of every layer to prove the hand-written
//! backward passes exact (up to `O(eps²)` truncation error). Central
//! differences are used for accuracy.

use crate::Tensor;

/// Numerically estimates `∂f/∂x` by central differences.
///
/// `f` must be a pure function of its input. The returned tensor has the
/// same shape as `x`.
///
/// # Examples
///
/// ```
/// use vehigan_tensor::{Tensor, gradcheck::finite_diff_grad};
///
/// let x = Tensor::from_vec(vec![2.0, 3.0], &[2]);
/// // f(x) = x0² + 2·x1  →  ∇f = [2·x0, 2]
/// let g = finite_diff_grad(|t| t.as_slice()[0].powi(2) + 2.0 * t.as_slice()[1], &x, 1e-3);
/// assert!((g.as_slice()[0] - 4.0).abs() < 1e-2);
/// assert!((g.as_slice()[1] - 2.0).abs() < 1e-2);
/// ```
pub fn finite_diff_grad(f: impl Fn(&Tensor) -> f32, x: &Tensor, eps: f32) -> Tensor {
    let mut grad = Tensor::zeros(x.shape());
    let mut probe = x.clone();
    for i in 0..x.len() {
        let orig = probe.as_slice()[i];
        probe.as_mut_slice()[i] = orig + eps;
        let f_plus = f(&probe);
        probe.as_mut_slice()[i] = orig - eps;
        let f_minus = f(&probe);
        probe.as_mut_slice()[i] = orig;
        grad.as_mut_slice()[i] = (f_plus - f_minus) / (2.0 * eps);
    }
    grad
}

/// Maximum relative error between an analytic and a numeric gradient.
///
/// Relative error is `|a − n| / max(1, |a|, |n|)` element-wise, so small
/// gradients are compared absolutely and large ones relatively.
pub fn max_relative_error(analytic: &Tensor, numeric: &Tensor) -> f32 {
    assert_eq!(
        analytic.shape(),
        numeric.shape(),
        "gradcheck shape mismatch"
    );
    analytic
        .as_slice()
        .iter()
        .zip(numeric.as_slice())
        .map(|(&a, &n)| (a - n).abs() / a.abs().max(n.abs()).max(1.0))
        .fold(0.0, f32::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quadratic_gradient_is_exact() {
        let x = Tensor::from_slice(&[1.0, -2.0, 0.5]);
        let g = finite_diff_grad(
            |t| t.as_slice().iter().map(|v| v * v).sum::<f32>(),
            &x,
            1e-3,
        );
        let expected = &x * 2.0;
        assert!(max_relative_error(&expected, &g) < 1e-3);
    }

    #[test]
    fn relative_error_handles_zero_grads() {
        let a = Tensor::zeros(&[3]);
        let b = Tensor::zeros(&[3]);
        assert_eq!(max_relative_error(&a, &b), 0.0);
    }
}
