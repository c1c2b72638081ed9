//! Element-wise activation layers.

use crate::layer::{FusedView, Layer, Param};
use crate::serialize::LayerSnapshot;
use crate::Tensor;

/// The activation function applied by an [`Activation`] layer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum ActivationKind {
    /// `max(alpha·x, x)` — the paper's choice for both G and D hidden layers.
    LeakyRelu {
        /// Negative-slope coefficient (Keras default 0.3; paper-style 0.2).
        alpha: f32,
    },
    /// Standard rectifier `max(0, x)`.
    Relu,
    /// Hyperbolic tangent, used at the generator output (features scaled to
    /// `[-1, 1]`).
    Tanh,
    /// Logistic sigmoid.
    Sigmoid,
}

impl ActivationKind {
    fn apply(self, x: f32) -> f32 {
        match self {
            ActivationKind::LeakyRelu { alpha } => {
                if x >= 0.0 {
                    x
                } else {
                    alpha * x
                }
            }
            ActivationKind::Relu => x.max(0.0),
            ActivationKind::Tanh => x.tanh(),
            ActivationKind::Sigmoid => 1.0 / (1.0 + (-x).exp()),
        }
    }

    /// Whether [`derivative`](Self::derivative) is a function of the
    /// output (tanh, sigmoid) rather than of the input (the rectifiers) —
    /// i.e. which of the two a forward pass has to keep.
    fn derivative_reads_output(self) -> bool {
        matches!(self, ActivationKind::Tanh | ActivationKind::Sigmoid)
    }

    /// Derivative in terms of the one value it reads, `v`: the input `x`
    /// or the output `y`, see
    /// [`derivative_reads_output`](Self::derivative_reads_output).
    fn derivative(self, v: f32) -> f32 {
        match self {
            ActivationKind::LeakyRelu { alpha } => {
                if v >= 0.0 {
                    1.0
                } else {
                    alpha
                }
            }
            ActivationKind::Relu => {
                if v > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            ActivationKind::Tanh => 1.0 - v * v,
            ActivationKind::Sigmoid => v * (1.0 - v),
        }
    }

    fn tag(self) -> &'static str {
        match self {
            ActivationKind::LeakyRelu { .. } => "LeakyReLU",
            ActivationKind::Relu => "ReLU",
            ActivationKind::Tanh => "Tanh",
            ActivationKind::Sigmoid => "Sigmoid",
        }
    }
}

/// An element-wise activation layer (no trainable parameters).
///
/// # Examples
///
/// ```
/// use vehigan_tensor::{layers::Activation, layer::Layer, Tensor};
///
/// let mut act = Activation::leaky_relu(0.2);
/// let y = act.forward(&Tensor::from_vec(vec![-1.0, 2.0], &[2]));
/// assert_eq!(y.as_slice(), &[-0.2, 2.0]);
/// ```
#[derive(Debug)]
pub struct Activation {
    kind: ActivationKind,
    /// What the derivative reads of the last forward: its input or its
    /// output.
    cached: Option<Tensor>,
}

impl Activation {
    /// Creates an activation layer of the given kind.
    pub(crate) fn new(kind: ActivationKind) -> Self {
        Activation { kind, cached: None }
    }

    /// A leaky-ReLU layer, `max(alpha·x, x)`.
    pub fn leaky_relu(alpha: f32) -> Self {
        Self::new(ActivationKind::LeakyRelu { alpha })
    }

    /// A tanh layer.
    pub fn tanh() -> Self {
        Self::new(ActivationKind::Tanh)
    }

    /// Reconstructs an activation layer from a snapshot.
    ///
    /// # Errors
    ///
    /// Returns an error if the kind tag is unknown or `alpha` is missing for
    /// LeakyReLU.
    pub(crate) fn from_snapshot(
        snap: &LayerSnapshot,
    ) -> Result<Self, crate::serialize::ModelFormatError> {
        let kind = match snap.kind.as_str() {
            "LeakyReLU" => ActivationKind::LeakyRelu {
                alpha: snap.f32_attr("alpha")?,
            },
            "ReLU" => ActivationKind::Relu,
            "Tanh" => ActivationKind::Tanh,
            "Sigmoid" => ActivationKind::Sigmoid,
            other => {
                return Err(crate::serialize::ModelFormatError::UnknownLayer(
                    other.into(),
                ))
            }
        };
        Ok(Activation::new(kind))
    }
}

impl Layer for Activation {
    fn forward(&mut self, input: &Tensor) -> Tensor {
        let kind = self.kind;
        let out = input.map(|x| kind.apply(x));
        let keep = if kind.derivative_reads_output() {
            &out
        } else {
            input
        };
        // clone_from reuses the cache allocation once shapes settle.
        match &mut self.cached {
            Some(c) => c.clone_from(keep),
            slot => *slot = Some(keep.clone()),
        }
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let cached = self
            .cached
            .as_ref()
            .expect("Activation::backward called before forward");
        let kind = self.kind;
        let mut grad = grad_out.clone();
        for (g, &v) in grad.as_mut_slice().iter_mut().zip(cached.as_slice()) {
            *g *= kind.derivative(v);
        }
        grad
    }

    fn fused_view(&self) -> Option<FusedView<'_>> {
        match self.kind {
            ActivationKind::LeakyRelu { alpha } => Some(FusedView::LeakyRelu(alpha)),
            _ => None,
        }
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        Vec::new()
    }

    fn params(&self) -> Vec<&Param> {
        Vec::new()
    }

    fn name(&self) -> &'static str {
        self.kind.tag()
    }

    fn output_shape(&self, input_shape: &[usize]) -> Vec<usize> {
        input_shape.to_vec()
    }

    fn save(&self) -> LayerSnapshot {
        let snap = LayerSnapshot::new(self.kind.tag());
        match self.kind {
            ActivationKind::LeakyRelu { alpha } => snap.with_f32("alpha", alpha),
            _ => snap,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::{finite_diff_grad, max_relative_error};
    use crate::init::{randn, seeded_rng};

    #[test]
    fn leaky_relu_values() {
        let mut a = Activation::leaky_relu(0.1);
        let y = a.forward(&Tensor::from_slice(&[-10.0, 0.0, 10.0]));
        assert_eq!(y.as_slice(), &[-1.0, 0.0, 10.0]);
    }

    #[test]
    fn tanh_saturates() {
        let mut a = Activation::tanh();
        let y = a.forward(&Tensor::from_slice(&[-100.0, 0.0, 100.0]));
        assert!((y.as_slice()[0] + 1.0).abs() < 1e-6);
        assert_eq!(y.as_slice()[1], 0.0);
        assert!((y.as_slice()[2] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn sigmoid_range() {
        let mut a = Activation::new(ActivationKind::Sigmoid);
        let y = a.forward(&Tensor::from_slice(&[-5.0, 0.0, 5.0]));
        assert!(y.min() > 0.0 && y.max() < 1.0);
        assert!((y.as_slice()[1] - 0.5).abs() < 1e-6);
    }

    #[test]
    fn gradients_match_finite_differences_for_all_kinds() {
        let kinds = [
            ActivationKind::LeakyRelu { alpha: 0.2 },
            ActivationKind::Relu,
            ActivationKind::Tanh,
            ActivationKind::Sigmoid,
        ];
        let mut rng = seeded_rng(11);
        for kind in kinds {
            let mut layer = Activation::new(kind);
            // Keep inputs away from the ReLU kink where FD is ill-defined.
            let mut x = randn(&[1, 10], &mut rng);
            x.map_in_place(|v| if v.abs() < 0.05 { v + 0.1 } else { v });
            let _ = layer.forward(&x);
            let analytic = layer.backward(&Tensor::ones(&[1, 10]));
            let numeric = finite_diff_grad(|xx| xx.map(|v| kind.apply(v)).sum(), &x, 1e-3);
            assert!(
                max_relative_error(&analytic, &numeric) < 1e-2,
                "kind {kind:?}"
            );
        }
    }

    #[test]
    fn snapshot_roundtrip_keeps_alpha() {
        let a = Activation::leaky_relu(0.37);
        let snap = a.save();
        let b = Activation::from_snapshot(&snap).unwrap();
        assert_eq!(b.kind, ActivationKind::LeakyRelu { alpha: 0.37 });
    }

    #[test]
    fn unknown_kind_rejected() {
        let snap = LayerSnapshot::new("Swish");
        assert!(Activation::from_snapshot(&snap).is_err());
    }
}
