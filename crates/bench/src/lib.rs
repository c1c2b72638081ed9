//! # vehigan-bench
//!
//! The experiment harness regenerating every table and figure of the
//! VehiGAN paper's evaluation (§V) on the from-scratch Rust stack.
//!
//! Run everything at CPU-friendly scale:
//!
//! ```text
//! cargo run --release -p vehigan-bench -- all --scale quick
//! ```
//!
//! or individual experiments (`catalog`, `fig3`, `fig4`, `fig5a`, `fig5b`,
//! `fig5c`, `fig6`, `fig7a`, `fig7b`, `fig8`, `table3`). CSV artifacts are
//! written to `results/`.

pub mod experiments;
pub mod harness;
