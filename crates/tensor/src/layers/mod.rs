//! Differentiable network layers.
//!
//! The layer set mirrors exactly what the VehiGAN paper's Keras models use:
//! 2-D convolutions with 2×2 kernels, 2-D nearest-neighbor upsampling,
//! LeakyReLU activations, and dense projections (§IV-A.1).

mod activation;
mod conv2d;
mod dense;
mod reshape;
mod upsample;

pub use activation::Activation;
pub use conv2d::{Conv2D, Padding};
pub use dense::Dense;
pub use reshape::{Flatten, Reshape};
pub use upsample::UpSample2D;
