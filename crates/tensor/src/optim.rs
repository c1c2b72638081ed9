//! First-order optimizers: RMSProp and Adam.
//!
//! The original WGAN prescription (and the clipping variant used here) pairs
//! the critic with RMSProp, since momentum-based updates interact badly with
//! weight clipping; the paper's Keras implementation uses a learning rate of
//! 1e-3 and batch size 128.

use crate::layer::Param;
use crate::serialize::{read_tensor, write_tensor, ModelFormatError};
use crate::Tensor;

/// A first-order gradient-descent optimizer.
///
/// An optimizer instance owns per-parameter state and must be reused across
/// steps for the same model. `step` consumes the accumulated gradients and
/// updates values in place; callers are responsible for `zero_grad`.
pub trait Optimizer: Send {
    /// Applies one update step to the given parameters.
    ///
    /// Parameters must be passed in a stable order across calls (as returned
    /// by `Sequential::params_mut`).
    fn step(&mut self, params: &mut [&mut Param]);

    /// The configured learning rate.
    fn learning_rate(&self) -> f32;
}

/// RMSProp: adaptive per-parameter learning rates without momentum.
#[derive(Debug, Clone)]
pub struct RmsProp {
    lr: f32,
    rho: f32,
    eps: f32,
    cache: Vec<Tensor>,
}

impl RmsProp {
    /// Creates RMSProp with decay `rho = 0.9` and `eps = 1e-8`.
    ///
    /// # Panics
    ///
    /// Panics if `lr` is not finite and positive.
    pub fn new(lr: f32) -> Self {
        Self::with_params(lr, 0.9, 1e-8)
    }

    /// Creates RMSProp with explicit decay and epsilon.
    ///
    /// # Panics
    ///
    /// Panics if `lr` is not positive or `rho` outside `(0, 1)`.
    pub(crate) fn with_params(lr: f32, rho: f32, eps: f32) -> Self {
        assert!(lr.is_finite() && lr > 0.0, "learning rate must be positive");
        assert!(rho > 0.0 && rho < 1.0, "rho must be in (0, 1)");
        RmsProp {
            lr,
            rho,
            eps,
            cache: Vec::new(),
        }
    }

    fn ensure_cache(&mut self, params: &[&mut Param]) {
        if self.cache.len() != params.len() {
            self.cache = params
                .iter()
                .map(|p| Tensor::zeros(p.value.shape()))
                .collect();
        }
    }

    /// Serializes the per-parameter squared-gradient cache.
    ///
    /// Layout: `u32` tensor count, then each cache tensor in the model wire
    /// encoding (`write_tensor`). An optimizer that has never stepped
    /// serializes to an empty cache, and restoring an empty cache yields a
    /// fresh optimizer — so `state_bytes`/[`restore_state`] round-trip the
    /// *exact* update trajectory in both the stepped and unstepped case.
    ///
    /// [`restore_state`]: RmsProp::restore_state
    pub fn state_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&(self.cache.len() as u32).to_le_bytes());
        for t in &self.cache {
            write_tensor(&mut out, t).expect("vec write cannot fail");
        }
        out
    }

    /// Restores the cache written by [`state_bytes`](RmsProp::state_bytes).
    ///
    /// Rejects trailing bytes and malformed tensors; hyper-parameters
    /// (`lr`/`rho`/`eps`) are construction-time and not part of the state.
    pub fn restore_state(&mut self, bytes: &[u8]) -> Result<(), ModelFormatError> {
        let mut r = bytes;
        let mut len4 = [0u8; 4];
        std::io::Read::read_exact(&mut r, &mut len4)?;
        let count = u32::from_le_bytes(len4) as usize;
        if count > 1 << 16 {
            return Err(ModelFormatError::Corrupt("optimizer cache too large"));
        }
        let mut cache = Vec::with_capacity(count);
        for _ in 0..count {
            cache.push(read_tensor(&mut r)?);
        }
        if !r.is_empty() {
            return Err(ModelFormatError::Corrupt("trailing optimizer bytes"));
        }
        self.cache = cache;
        Ok(())
    }

    /// Shapes of the cached per-parameter tensors, in parameter order.
    ///
    /// Empty until the first `step`; used by checkpoint restore to validate
    /// a deserialized cache against the model it will drive.
    pub fn cache_shapes(&self) -> Vec<Vec<usize>> {
        self.cache.iter().map(|t| t.shape().to_vec()).collect()
    }
}

impl Optimizer for RmsProp {
    fn step(&mut self, params: &mut [&mut Param]) {
        self.ensure_cache(params);
        for (p, cache) in params.iter_mut().zip(&mut self.cache) {
            let g = p.grad.as_slice();
            let c = cache.as_mut_slice();
            let v = p.value.as_mut_slice();
            for i in 0..g.len() {
                c[i] = self.rho * c[i] + (1.0 - self.rho) * g[i] * g[i];
                v[i] -= self.lr * g[i] / (c[i].sqrt() + self.eps);
            }
        }
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }
}

/// Adam: adaptive moments (used by the autoencoder baseline).
#[derive(Debug, Clone)]
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    t: u32,
    m: Vec<Tensor>,
    v: Vec<Tensor>,
}

impl Adam {
    /// Creates Adam with the canonical `(β₁, β₂, ε) = (0.9, 0.999, 1e-8)`.
    ///
    /// # Panics
    ///
    /// Panics if `lr` is not finite and positive.
    pub fn new(lr: f32) -> Self {
        assert!(lr.is_finite() && lr > 0.0, "learning rate must be positive");
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }

    fn ensure_state(&mut self, params: &[&mut Param]) {
        if self.m.len() != params.len() {
            self.m = params
                .iter()
                .map(|p| Tensor::zeros(p.value.shape()))
                .collect();
            self.v = params
                .iter()
                .map(|p| Tensor::zeros(p.value.shape()))
                .collect();
        }
    }
}

impl Optimizer for Adam {
    fn step(&mut self, params: &mut [&mut Param]) {
        self.ensure_state(params);
        self.t += 1;
        let b1t = 1.0 - self.beta1.powi(self.t as i32);
        let b2t = 1.0 - self.beta2.powi(self.t as i32);
        for ((p, m), v) in params.iter_mut().zip(&mut self.m).zip(&mut self.v) {
            let g = p.grad.as_slice();
            let ms = m.as_mut_slice();
            let vs = v.as_mut_slice();
            let w = p.value.as_mut_slice();
            for i in 0..g.len() {
                ms[i] = self.beta1 * ms[i] + (1.0 - self.beta1) * g[i];
                vs[i] = self.beta2 * vs[i] + (1.0 - self.beta2) * g[i] * g[i];
                let m_hat = ms[i] / b1t;
                let v_hat = vs[i] / b2t;
                w[i] -= self.lr * m_hat / (v_hat.sqrt() + self.eps);
            }
        }
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimizes f(w) = Σ (w − target)² with each optimizer and checks
    /// convergence.
    fn converges(mut opt: impl Optimizer, steps: usize, lr_tolerance: f32) {
        let target = [3.0f32, -2.0, 0.5];
        let mut p = Param::new(Tensor::zeros(&[3]));
        for _ in 0..steps {
            p.zero_grad();
            for (i, &t) in target.iter().enumerate() {
                let w = p.value.as_slice()[i];
                p.grad.as_mut_slice()[i] = 2.0 * (w - t);
            }
            opt.step(&mut [&mut p]);
        }
        for (i, &t) in target.iter().enumerate() {
            assert!(
                (p.value.as_slice()[i] - t).abs() < lr_tolerance,
                "dim {i}: {} vs {}",
                p.value.as_slice()[i],
                t
            );
        }
    }

    #[test]
    fn rmsprop_converges_on_quadratic() {
        converges(RmsProp::new(0.05), 2000, 1e-2);
    }

    #[test]
    fn adam_converges_on_quadratic() {
        converges(Adam::new(0.05), 2000, 1e-2);
    }

    #[test]
    #[should_panic(expected = "learning rate must be positive")]
    fn negative_lr_rejected() {
        let _ = Adam::new(-1.0);
    }

    #[test]
    fn rmsprop_state_tracks_param_count() {
        let mut opt = RmsProp::new(0.01);
        let mut a = Param::new(Tensor::zeros(&[2]));
        let mut b = Param::new(Tensor::zeros(&[3]));
        a.grad = Tensor::ones(&[2]);
        b.grad = Tensor::ones(&[3]);
        opt.step(&mut [&mut a, &mut b]);
        assert_eq!(opt.cache.len(), 2);
        assert_eq!(opt.cache[1].len(), 3);
    }

    #[test]
    fn adam_bias_correction_first_step() {
        // After one step with g = 1, Adam should move by ≈ lr regardless of
        // the tiny raw moments, thanks to bias correction.
        let mut opt = Adam::new(0.1);
        let mut p = Param::new(Tensor::zeros(&[1]));
        p.grad = Tensor::ones(&[1]);
        opt.step(&mut [&mut p]);
        assert!((p.value.as_slice()[0] + 0.1).abs() < 1e-3);
    }

    #[test]
    fn rmsprop_state_round_trips_bitwise() {
        let mut opt = RmsProp::new(0.01);
        let mut a = Param::new(Tensor::zeros(&[2, 3]));
        let mut b = Param::new(Tensor::zeros(&[4]));
        a.grad = Tensor::from_vec(vec![0.1, -0.2, 0.3, -0.4, 0.5, -0.6], &[2, 3]);
        b.grad = Tensor::from_vec(vec![1.0, -2.0, 3.0, -4.0], &[4]);
        opt.step(&mut [&mut a, &mut b]);
        opt.step(&mut [&mut a, &mut b]);

        let bytes = opt.state_bytes();
        let mut restored = RmsProp::new(0.01);
        restored.restore_state(&bytes).unwrap();
        assert_eq!(restored.cache.len(), opt.cache.len());
        for (x, y) in opt.cache.iter().zip(&restored.cache) {
            assert_eq!(x.shape(), y.shape());
            assert_eq!(x.as_slice(), y.as_slice());
        }
        assert_eq!(restored.state_bytes(), bytes);
        assert_eq!(restored.cache_shapes(), vec![vec![2usize, 3], vec![4usize]]);

        // One more identical step from both must produce identical weights.
        let mut a2 = Param::new(a.value.clone());
        a2.grad = Tensor::ones(&[2, 3]);
        a.grad = Tensor::ones(&[2, 3]);
        let mut b2 = Param::new(b.value.clone());
        b2.grad = Tensor::ones(&[4]);
        b.grad = Tensor::ones(&[4]);
        opt.step(&mut [&mut a, &mut b]);
        restored.step(&mut [&mut a2, &mut b2]);
        assert_eq!(a.value.as_slice(), a2.value.as_slice());
        assert_eq!(b.value.as_slice(), b2.value.as_slice());
    }

    #[test]
    fn rmsprop_fresh_state_round_trips_to_fresh() {
        let opt = RmsProp::new(0.01);
        let bytes = opt.state_bytes();
        let mut restored = RmsProp::new(0.01);
        restored.restore_state(&bytes).unwrap();
        assert!(restored.cache.is_empty());
        assert!(restored.cache_shapes().is_empty());
    }

    #[test]
    fn rmsprop_restore_rejects_trailing_bytes() {
        let mut opt = RmsProp::new(0.01);
        let mut bytes = opt.state_bytes();
        bytes.push(0);
        assert!(matches!(
            opt.restore_state(&bytes),
            Err(ModelFormatError::Corrupt("trailing optimizer bytes"))
        ));
    }

    #[test]
    fn learning_rate_exposed() {
        assert_eq!(RmsProp::new(0.25).learning_rate(), 0.25);
        assert_eq!(Adam::new(0.125).learning_rate(), 0.125);
    }
}
