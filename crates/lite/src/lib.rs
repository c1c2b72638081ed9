//! # vehigan-lite
//!
//! Lightweight critic inference for resource-constrained OBUs — the
//! substitute for the paper's TensorFlow-Lite deployment (§V-D, Fig 8b).
//!
//! A trained float critic is compiled once ([`LiteCritic::compile`]) into:
//!
//! - **int8 weights** with per-tensor symmetric scales ([`quant`]) — WGAN
//!   weight clipping bounds the ranges, so the quantization step is tiny;
//! - **fused kernels** (conv + LeakyReLU in one pass);
//! - **static arenas** — per-inference scoring performs zero heap
//!   allocation.
//!
//! The result reproduces Fig 8's shape: lite inference is consistently
//! faster than the float path, ships 4× smaller weights, and sits far
//! below the 100 ms BSM interval with only a mild slope in critic depth.
//! (The paper's 100× Keras→TFLite gap is mostly interpreter overhead;
//! with both paths compiled Rust the ratio compresses while the ordering
//! and the latency-budget claims hold — see EXPERIMENTS.md.)
//!
//! # Example
//!
//! See [`LiteCritic`].

#![warn(missing_docs)]

mod critic;
pub mod ensemble;
pub mod quant;

pub use critic::{CompileError, LiteCritic};
pub use ensemble::{Int8Ensemble, Int8Weights, Scratch};
