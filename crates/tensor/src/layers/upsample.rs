//! Nearest-neighbor 2-D upsampling (the generator's spatial expansion).

use crate::layer::{Layer, Param};
use crate::serialize::LayerSnapshot;
use crate::Tensor;

/// Nearest-neighbor upsampling of NHWC tensors by integer factors.
///
/// The WGAN generator projects noise to a small spatial seed (e.g. 5×6) and
/// upsamples to the snapshot size (10×12), mirroring Keras
/// `UpSampling2D`.
///
/// # Examples
///
/// ```
/// use vehigan_tensor::{layers::UpSample2D, layer::Layer, Tensor};
///
/// let mut up = UpSample2D::new(2, 2);
/// let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 2, 2, 1]);
/// let y = up.forward(&x);
/// assert_eq!(y.shape(), &[1, 4, 4, 1]);
/// assert_eq!(y.get(&[0, 1, 1, 0]), 1.0); // replicated corner
/// ```
#[derive(Debug)]
pub struct UpSample2D {
    fy: usize,
    fx: usize,
    cached_input_shape: Option<Vec<usize>>,
}

impl UpSample2D {
    /// Creates an upsampler with vertical factor `fy` and horizontal `fx`.
    ///
    /// # Panics
    ///
    /// Panics if either factor is zero.
    pub fn new(fy: usize, fx: usize) -> Self {
        assert!(fy > 0 && fx > 0, "upsample factors must be nonzero");
        UpSample2D {
            fy,
            fx,
            cached_input_shape: None,
        }
    }

    /// Reconstructs from a snapshot.
    ///
    /// # Errors
    ///
    /// Returns an error if factor attributes are missing.
    pub(crate) fn from_snapshot(
        snap: &LayerSnapshot,
    ) -> Result<Self, crate::serialize::ModelFormatError> {
        Ok(UpSample2D::new(
            snap.usize_attr("fy")?,
            snap.usize_attr("fx")?,
        ))
    }
}

impl Layer for UpSample2D {
    fn forward(&mut self, input: &Tensor) -> Tensor {
        assert_eq!(
            input.ndim(),
            4,
            "UpSample2D expects NHWC, got {:?}",
            input.shape()
        );
        let (n, h, w, c) = (
            input.shape()[0],
            input.shape()[1],
            input.shape()[2],
            input.shape()[3],
        );
        let (ho, wo) = (h * self.fy, w * self.fx);
        let mut out = vec![0.0f32; n * ho * wo * c];
        let src = input.as_slice();
        for ni in 0..n {
            for oy in 0..ho {
                let iy = oy / self.fy;
                for ox in 0..wo {
                    let ix = ox / self.fx;
                    let s = ((ni * h + iy) * w + ix) * c;
                    let d = ((ni * ho + oy) * wo + ox) * c;
                    out[d..d + c].copy_from_slice(&src[s..s + c]);
                }
            }
        }
        self.cached_input_shape = Some(input.shape().to_vec());
        Tensor::from_vec(out, &[n, ho, wo, c])
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let shape = self
            .cached_input_shape
            .as_ref()
            .expect("UpSample2D::backward called before forward")
            .clone();
        let (n, h, w, c) = (shape[0], shape[1], shape[2], shape[3]);
        let (ho, wo) = (h * self.fy, w * self.fx);
        assert_eq!(grad_out.shape(), &[n, ho, wo, c], "grad shape mismatch");
        let mut grad = vec![0.0f32; n * h * w * c];
        let g = grad_out.as_slice();
        for ni in 0..n {
            for oy in 0..ho {
                let iy = oy / self.fy;
                for ox in 0..wo {
                    let ix = ox / self.fx;
                    let d = ((ni * h + iy) * w + ix) * c;
                    let s = ((ni * ho + oy) * wo + ox) * c;
                    for ci in 0..c {
                        grad[d + ci] += g[s + ci];
                    }
                }
            }
        }
        Tensor::from_vec(grad, &shape)
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        Vec::new()
    }

    fn params(&self) -> Vec<&Param> {
        Vec::new()
    }

    fn name(&self) -> &'static str {
        "UpSample2D"
    }

    fn output_shape(&self, input_shape: &[usize]) -> Vec<usize> {
        assert_eq!(
            input_shape.len(),
            3,
            "upsample input shape must be [h, w, c]"
        );
        vec![
            input_shape[0] * self.fy,
            input_shape[1] * self.fx,
            input_shape[2],
        ]
    }

    fn save(&self) -> LayerSnapshot {
        LayerSnapshot::new("UpSample2D")
            .with_usize("fy", self.fy)
            .with_usize("fx", self.fx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::{finite_diff_grad, max_relative_error};
    use crate::init::{randn, seeded_rng};

    #[test]
    fn replicates_values() {
        let mut up = UpSample2D::new(2, 3);
        let x = Tensor::from_vec(vec![1.0, 2.0], &[1, 1, 2, 1]);
        let y = up.forward(&x);
        assert_eq!(y.shape(), &[1, 2, 6, 1]);
        assert_eq!(
            y.as_slice(),
            &[1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 1.0, 1.0, 1.0, 2.0, 2.0, 2.0]
        );
    }

    #[test]
    fn backward_sums_blocks() {
        let mut up = UpSample2D::new(2, 2);
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 2, 2, 1]);
        let _ = up.forward(&x);
        let g = up.backward(&Tensor::ones(&[1, 4, 4, 1]));
        assert_eq!(g.as_slice(), &[4.0, 4.0, 4.0, 4.0]);
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let mut rng = seeded_rng(1);
        let mut up = UpSample2D::new(2, 2);
        let x = randn(&[2, 3, 3, 2], &mut rng);
        let _ = up.forward(&x);
        let analytic = up.backward(&Tensor::ones(&[2, 6, 6, 2]));
        let numeric = finite_diff_grad(
            |xx| {
                let mut u = UpSample2D::new(2, 2);
                u.forward(xx).sum()
            },
            &x,
            1e-2,
        );
        assert!(max_relative_error(&analytic, &numeric) < 1e-2);
    }

    #[test]
    fn multichannel_preserved() {
        let mut up = UpSample2D::new(1, 2);
        let x = Tensor::from_vec(vec![1.0, 10.0], &[1, 1, 1, 2]);
        let y = up.forward(&x);
        assert_eq!(y.shape(), &[1, 1, 2, 2]);
        assert_eq!(y.as_slice(), &[1.0, 10.0, 1.0, 10.0]);
    }

    #[test]
    fn snapshot_roundtrip() {
        let up = UpSample2D::new(3, 4);
        let snap = up.save();
        let back = UpSample2D::from_snapshot(&snap).unwrap();
        assert_eq!((back.fy, back.fx), (3, 4));
    }
}
