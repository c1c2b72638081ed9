//! # vehigan-lite
//!
//! Lightweight critic inference for resource-constrained OBUs — the
//! substitute for the paper's TensorFlow-Lite deployment (§V-D, Fig 8b).
//!
//! There is one lightweight path, and it is the one the serve plane's
//! tier-1 gate runs. A trained float critic is compiled once
//! ([`Int8Weights::compile`]) into:
//!
//! - **int8 weights** with per-output-channel symmetric scales
//!   ([`quant`]) — WGAN weight clipping bounds the ranges, so the
//!   quantization step is tiny — packed for the `i8 × i8 → i32` kernels
//!   of `vehigan_tensor::gemm`;
//! - **fused ops** (conv or dense + dequantize + bias + LeakyReLU in one
//!   kernel call, activations quantized against a calibrated, per-window
//!   range-guarded scale);
//! - a caller-owned [`Scratch`] — scoring performs zero heap allocation
//!   and any number of threads share one compiled critic.
//!
//! [`Int8Ensemble`] is a `Vec` of compiled critics over one scratch.
//! Fig 8's two columns are the served f32 scorer and this path, measured
//! by `vehigan-bench fig8`; the weights ship 4× smaller than the float
//! ones and both sit far below the 100 ms BSM interval (EXPERIMENTS.md).
//!
//! # Example
//!
//! See [`Int8Ensemble`].

#![warn(missing_docs)]

pub mod ensemble;
pub mod quant;

pub use ensemble::{CompileError, Int8Ensemble, Int8Weights, Scratch};
