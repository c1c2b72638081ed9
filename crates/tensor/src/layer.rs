//! The [`Layer`] trait and trainable [`Param`] storage.
//!
//! Every layer implements an explicit forward pass that caches whatever the
//! backward pass needs, and a backward pass that (a) accumulates gradients
//! into its parameters and (b) returns the gradient with respect to its
//! *input*. Propagating input gradients all the way back to the data is what
//! enables both WGAN training and the FGSM adversarial attacks of the paper
//! (Eqs. 6–7), which differentiate the critic score w.r.t. the BSM window.
//! A caller that reads only one of the two asks for that half alone:
//! [`Layer::backward_input`] (an attack, the generator's step through the
//! critic) or [`Layer::backward_params`] (the first layer of a model being
//! trained, whose input is data).

use crate::Tensor;

/// A trainable parameter: a value tensor paired with its gradient
/// accumulator.
#[derive(Debug, Clone)]
pub struct Param {
    /// Current parameter values.
    pub value: Tensor,
    /// Accumulated gradient of the loss w.r.t. `value`.
    pub grad: Tensor,
}

impl Param {
    /// Creates a parameter with a zeroed gradient of matching shape.
    pub(crate) fn new(value: Tensor) -> Self {
        let grad = Tensor::zeros(value.shape());
        Param { value, grad }
    }

    /// Resets the gradient accumulator to zero.
    pub(crate) fn zero_grad(&mut self) {
        self.grad.fill_zero();
    }
}

/// What the fused scoring walk needs of a layer it can run: the critic
/// stack is same-padded convolutions, LeakyReLUs, a flatten and a dense
/// head.
#[derive(Debug, Clone, Copy)]
pub enum FusedView<'a> {
    /// A same-padded stride-1 convolution: `[kh·kw·cin, cout]` row-major
    /// weights and `cout` biases.
    Conv {
        /// Input channels.
        cin: usize,
        /// Kernel height.
        kh: usize,
        /// Kernel width.
        kw: usize,
        /// The weight matrix as stored.
        w: &'a [f32],
        /// The bias vector as stored.
        b: &'a [f32],
    },
    /// `x ≥ 0 ? x : α·x`.
    LeakyRelu(f32),
    /// `[h, w, c] → [h·w·c]`: a no-op on row-major activations.
    Flatten,
    /// `[in, out]` row-major weights and `out` biases.
    Dense {
        /// The weight matrix as stored.
        w: &'a [f32],
        /// The bias vector as stored.
        b: &'a [f32],
    },
}

/// A differentiable network layer.
///
/// Layers are stateful: `forward` caches activations needed by `backward`.
/// A layer must therefore not be shared across concurrent forward passes;
/// each training thread owns its own model.
pub trait Layer: Send + Sync {
    /// Computes the layer output for `input`.
    ///
    /// The leading axis of `input` is always the batch dimension.
    fn forward(&mut self, input: &Tensor) -> Tensor;

    /// This layer as a step of the fused scoring walk
    /// ([`crate::Sequential::score_fused`]), which reads the parameters
    /// where the layer keeps them; `None` (the default) for a layer the
    /// walk cannot run.
    fn fused_view(&self) -> Option<FusedView<'_>> {
        None
    }

    /// Back-propagates `grad_out` (gradient w.r.t. this layer's output),
    /// accumulating parameter gradients and returning the gradient w.r.t.
    /// the layer input.
    ///
    /// # Panics
    ///
    /// Panics if called before `forward` (no cached activation).
    fn backward(&mut self, grad_out: &Tensor) -> Tensor;

    /// The input-gradient half of [`backward`](Layer::backward) alone:
    /// returns what `backward` returns, bit for bit, and writes neither a
    /// [`Param::grad`] nor a forward cache — so the same forward still
    /// serves a later `backward` or `backward_params`. A layer without
    /// parameters has no other half and keeps this default; a layer with
    /// parameters overrides it.
    fn backward_input(&mut self, grad_out: &Tensor) -> Tensor {
        self.backward(grad_out)
    }

    /// The parameter half of [`backward`](Layer::backward) alone: leaves
    /// the accumulators `backward` leaves and computes no input gradient.
    /// For the first layer of a model being trained, whose input gradient
    /// nobody reads ([`crate::Sequential::backward_params`]).
    fn backward_params(&mut self, grad_out: &Tensor) {
        let _ = self.backward(grad_out);
    }

    /// Hands a dead output tensor of this layer back so its allocation can
    /// be reused by the next [`forward`]. Called by
    /// [`crate::Sequential::forward`] once the following layer has consumed
    /// the activation; the default implementation simply drops it.
    ///
    /// [`forward`]: Layer::forward
    fn reclaim(&mut self, _output: Tensor) {}

    /// Mutable access to the layer's trainable parameters (possibly empty).
    fn params_mut(&mut self) -> Vec<&mut Param>;

    /// Immutable access to the layer's trainable parameters.
    fn params(&self) -> Vec<&Param>;

    /// Human-readable layer kind, e.g. `"Dense"`.
    fn name(&self) -> &'static str;

    /// Output shape (excluding batch) for a given input shape (excluding
    /// batch). Used for model construction-time shape validation.
    fn output_shape(&self, input_shape: &[usize]) -> Vec<usize>;

    /// Serializes layer hyperparameters + weights into `spec`/`blob` form.
    fn save(&self) -> crate::serialize::LayerSnapshot;
}
