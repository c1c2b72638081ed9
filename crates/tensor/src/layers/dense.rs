//! Fully-connected (dense) layer.

use crate::gemm::{gemm_f32_fused, FusedF32, Patches};
use crate::layer::{FusedView, Layer, Param};
use crate::serialize::LayerSnapshot;
use crate::{Init, Tensor};
use rand::rngs::StdRng;

/// A fully-connected layer: `y = x · W + b`.
///
/// Input shape `[batch, in_dim]`, output `[batch, out_dim]`.
///
/// # Examples
///
/// ```
/// use vehigan_tensor::{layers::Dense, layer::Layer, Tensor, Init, init::seeded_rng};
///
/// let mut rng = seeded_rng(0);
/// let mut dense = Dense::new(3, 2, Init::XavierUniform, &mut rng);
/// let x = Tensor::zeros(&[4, 3]);
/// let y = dense.forward(&x);
/// assert_eq!(y.shape(), &[4, 2]);
/// ```
#[derive(Debug)]
pub struct Dense {
    in_dim: usize,
    out_dim: usize,
    w: Param,
    b: Param,
    cached_input: Option<Tensor>,
    cached_out: Option<Vec<f32>>,
}

impl Dense {
    /// Creates a dense layer with the given initializer for `W` (biases are
    /// zero-initialized).
    pub fn new(in_dim: usize, out_dim: usize, init: Init, rng: &mut StdRng) -> Self {
        let w = init.sample(&[in_dim, out_dim], in_dim, out_dim, rng);
        Dense {
            in_dim,
            out_dim,
            w: Param::new(w),
            b: Param::new(Tensor::zeros(&[out_dim])),
            cached_input: None,
            cached_out: None,
        }
    }

    /// Reconstructs a dense layer from a snapshot.
    ///
    /// # Errors
    ///
    /// Returns an error if required fields are missing.
    pub fn from_snapshot(snap: &LayerSnapshot) -> Result<Self, crate::serialize::ModelFormatError> {
        let in_dim = snap.usize_attr("in_dim")?;
        let out_dim = snap.usize_attr("out_dim")?;
        let w = snap.tensor("w")?.clone();
        let b = snap.tensor("b")?.clone();
        Ok(Dense {
            in_dim,
            out_dim,
            w: Param::new(w),
            b: Param::new(b),
            cached_input: None,
            cached_out: None,
        })
    }
}

impl Layer for Dense {
    fn forward(&mut self, input: &Tensor) -> Tensor {
        assert_eq!(
            input.ndim(),
            2,
            "Dense expects [batch, in], got {:?}",
            input.shape()
        );
        assert_eq!(
            input.shape()[1],
            self.in_dim,
            "Dense in_dim {} vs input {:?}",
            self.in_dim,
            input.shape()
        );
        // The output buffer comes from the reclaim cache (see
        // `Layer::reclaim`) once shapes settle; the fused sweep writes
        // `x · W + b` over whatever it held.
        let rows = input.shape()[0];
        let mut out = self.cached_out.take().unwrap_or_default();
        out.resize(rows * self.out_dim, 0.0);
        let layer = FusedF32 {
            spans: 1,
            span_len: self.in_dim,
            w: self.w.value.as_slice(),
            bias: self.b.value.as_slice(),
            alpha: None,
        };
        let (a, to) = (Patches::matrix(self.in_dim), Patches::matrix(self.out_dim));
        gemm_f32_fused(rows, input.as_slice(), a, layer, &mut out, to);
        // clone_from reuses the cached allocation once shapes settle.
        match &mut self.cached_input {
            Some(c) => c.clone_from(input),
            slot => *slot = Some(input.clone()),
        }
        Tensor::from_vec(out, &[rows, self.out_dim])
    }

    // dW = xᵀ · dY ; db = Σ_batch dY ; dX = dY · Wᵀ
    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        self.backward_params(grad_out);
        self.backward_input(grad_out)
    }

    fn backward_params(&mut self, grad_out: &Tensor) {
        let input = self
            .cached_input
            .as_ref()
            .expect("Dense::backward called before forward");
        // gemm_tn accumulates straight into w.grad — no xᵀ copy, no
        // intermediate grad_w tensor. Bitwise identical to the historical
        // `input.transpose().matmul(grad_out)` reduction.
        crate::gemm::gemm_tn(
            self.in_dim,
            self.out_dim,
            grad_out.shape()[0],
            input.as_slice(),
            grad_out.as_slice(),
            self.w.grad.as_mut_slice(),
        );
        let gb = self.b.grad.as_mut_slice();
        for row in grad_out.as_slice().chunks_exact(self.out_dim) {
            for (acc, &v) in gb.iter_mut().zip(row) {
                *acc += v;
            }
        }
    }

    fn backward_input(&mut self, grad_out: &Tensor) -> Tensor {
        // dX = dY · Wᵀ with W read in its stored layout.
        grad_out.matmul_nt(&self.w.value)
    }

    fn reclaim(&mut self, output: Tensor) {
        self.cached_out = Some(output.into_vec());
    }

    fn fused_view(&self) -> Option<FusedView<'_>> {
        Some(FusedView::Dense {
            w: self.w.value.as_slice(),
            b: self.b.value.as_slice(),
        })
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.w, &mut self.b]
    }

    fn params(&self) -> Vec<&Param> {
        vec![&self.w, &self.b]
    }

    fn name(&self) -> &'static str {
        "Dense"
    }

    fn output_shape(&self, input_shape: &[usize]) -> Vec<usize> {
        assert_eq!(
            input_shape,
            &[self.in_dim],
            "Dense expects input shape [{}]",
            self.in_dim
        );
        vec![self.out_dim]
    }

    fn save(&self) -> LayerSnapshot {
        LayerSnapshot::new("Dense")
            .with_usize("in_dim", self.in_dim)
            .with_usize("out_dim", self.out_dim)
            .with_tensor("w", self.w.value.clone())
            .with_tensor("b", self.b.value.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::{finite_diff_grad, max_relative_error};
    use crate::init::{randn, seeded_rng};

    #[test]
    fn forward_shape_and_bias() {
        let mut rng = seeded_rng(0);
        let mut d = Dense::new(3, 2, Init::Zeros, &mut rng);
        d.b.value = Tensor::from_slice(&[1.0, -1.0]);
        let x = Tensor::zeros(&[2, 3]);
        let y = d.forward(&x);
        assert_eq!(y.shape(), &[2, 2]);
        assert_eq!(y.as_slice(), &[1.0, -1.0, 1.0, -1.0]);
    }

    #[test]
    fn input_gradient_matches_finite_differences() {
        let mut rng = seeded_rng(1);
        let mut d = Dense::new(4, 3, Init::XavierUniform, &mut rng);
        let x = randn(&[2, 4], &mut rng);
        let _y = d.forward(&x);
        // Loss = sum of outputs → grad_out = ones.
        let analytic = d.backward(&Tensor::ones(&[2, 3]));
        let w = d.w.value.clone();
        let b = d.b.value.clone();
        let numeric = finite_diff_grad(
            |xx| {
                let mut out = xx.matmul(&w);
                for i in 0..2 {
                    for j in 0..3 {
                        let v = out.get(&[i, j]) + b.as_slice()[j];
                        out.set(&[i, j], v);
                    }
                }
                out.sum()
            },
            &x,
            1e-2,
        );
        assert!(max_relative_error(&analytic, &numeric) < 1e-2);
    }

    #[test]
    fn weight_gradient_matches_finite_differences() {
        let mut rng = seeded_rng(2);
        let mut d = Dense::new(3, 2, Init::XavierUniform, &mut rng);
        let x = randn(&[5, 3], &mut rng);
        let _ = d.forward(&x);
        let _ = d.backward(&Tensor::ones(&[5, 2]));
        let analytic = d.w.grad.clone();
        let x2 = x.clone();
        let b = d.b.value.clone();
        let w0 = d.w.value.clone();
        let numeric = finite_diff_grad(
            |w| {
                let mut out = x2.matmul(w);
                let batch = out.shape()[0];
                for i in 0..batch {
                    for j in 0..2 {
                        let v = out.get(&[i, j]) + b.as_slice()[j];
                        out.set(&[i, j], v);
                    }
                }
                out.sum()
            },
            &w0,
            1e-2,
        );
        assert!(max_relative_error(&analytic, &numeric) < 1e-2);
    }

    #[test]
    fn gradients_accumulate_across_backwards() {
        let mut rng = seeded_rng(3);
        let mut d = Dense::new(2, 2, Init::XavierUniform, &mut rng);
        let x = randn(&[1, 2], &mut rng);
        let _ = d.forward(&x);
        let _ = d.backward(&Tensor::ones(&[1, 2]));
        let g1 = d.w.grad.clone();
        let _ = d.forward(&x);
        let _ = d.backward(&Tensor::ones(&[1, 2]));
        let g2 = d.w.grad.clone();
        assert!(max_relative_error(&(&g1 * 2.0), &g2) < 1e-5);
    }

    #[test]
    fn snapshot_roundtrip() {
        let mut rng = seeded_rng(4);
        let d = Dense::new(3, 2, Init::HeUniform, &mut rng);
        let snap = d.save();
        let d2 = Dense::from_snapshot(&snap).unwrap();
        assert_eq!(d.w.value, d2.w.value);
        assert_eq!(d.b.value, d2.b.value);
    }

    #[test]
    #[should_panic(expected = "backward called before forward")]
    fn backward_before_forward_panics() {
        let mut rng = seeded_rng(5);
        let mut d = Dense::new(2, 2, Init::Zeros, &mut rng);
        let _ = d.backward(&Tensor::ones(&[1, 2]));
    }
}
