//! # vehigan-tensor
//!
//! The deep-learning substrate of the VehiGAN reproduction: a small,
//! dependency-free (beyond `rand`) CPU tensor library with
//! hand-written exact backpropagation.
//!
//! The VehiGAN paper (ICDCS 2024) trains Wasserstein GANs in
//! Keras/TensorFlow; since no comparable Rust training stack exists, this
//! crate rebuilds the needed subset from scratch:
//!
//! - [`Tensor`]: dense row-major `f32` tensors with shape checking;
//! - [`layers`]: `Dense`, `Conv2D` (im2col, 2×2 kernels), `UpSample2D`,
//!   `LeakyReLU`/`Tanh`/`Sigmoid`, `Flatten`, `Reshape`;
//! - [`Sequential`]: a model container whose backward pass propagates
//!   gradients **to the input** — the primitive behind both WGAN training
//!   and the paper's FGSM attacks (Eqs. 6–7) — and which computes only the
//!   half its caller reads ([`Sequential::backward_input`],
//!   [`Sequential::backward_params`]);
//! - [`optim`]: `RmsProp` (the WGAN-with-clipping pairing), `Adam`;
//! - [`serialize`]: a flat binary model format for shipping trained critics
//!   to the OBU/RSU testing phase;
//! - [`gradcheck`]: finite-difference verification used throughout the test
//!   suite to prove every backward pass exact;
//! - [`forkjoin`]: the one process-wide thread pool every parallel call in
//!   the workspace runs on, set-up and serving alike;
//! - [`windows`]: the windows a scoring walk reads where they lie, each as
//!   two pieces ([`Pieces`]) — a ring buffer's two runs of rows, or a
//!   contiguous window and nothing.
//!
//! # Example: a miniature critic
//!
//! ```
//! use vehigan_tensor::{Sequential, Tensor, Init, init::seeded_rng};
//! use vehigan_tensor::layers::{Conv2D, Padding, Activation, Flatten, Dense};
//!
//! let mut rng = seeded_rng(42);
//! let mut critic = Sequential::new();
//! critic.push(Conv2D::new(1, 8, (2, 2), Padding::Same, Init::HeUniform, &mut rng));
//! critic.push(Activation::leaky_relu(0.2));
//! critic.push(Flatten::new());
//! critic.push(Dense::new(10 * 12 * 8, 1, Init::XavierUniform, &mut rng));
//!
//! let window = Tensor::zeros(&[1, 10, 12, 1]); // one w×f BSM snapshot
//! let realism = critic.forward(&window);
//! assert_eq!(realism.shape(), &[1, 1]);
//!
//! // ∇ₓ D(x) — the FGSM primitive.
//! let grad = critic.backward_input(&Tensor::full(realism.shape(), 1.0));
//! assert_eq!(grad.shape(), window.shape());
//! ```

#![warn(missing_docs)]

pub mod forkjoin;
pub mod gemm;
pub mod gradcheck;
pub mod init;
pub mod layer;
pub mod layers;
mod model;
pub mod optim;
pub mod serialize;
mod tensor;
pub mod windows;

pub use init::Init;
pub use model::{CriticScratch, Sequential, HEAD_ROWS};
pub use tensor::Tensor;
pub use windows::{Flat, Pieces, Windows};

#[cfg(test)]
mod send_sync_tests {
    use super::*;

    #[test]
    fn tensor_is_send_and_sync() {
        fn assert_send<T: Send>() {}
        fn assert_sync<T: Sync>() {}
        assert_send::<Tensor>();
        assert_sync::<Tensor>();
    }

    #[test]
    fn sequential_is_send_and_sync() {
        fn assert_send<T: Send>() {}
        fn assert_sync<T: Sync>() {}
        assert_send::<Sequential>();
        // Sync is what lets parallel ensemble scoring share models across
        // the fork-join pool's threads through `&self`.
        assert_sync::<Sequential>();
    }
}
