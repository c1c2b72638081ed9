//! # VehiGAN — ensemble-WGAN misbehavior detection for V2X
//!
//! A full-system Rust reproduction of *"VehiGAN: Generative Adversarial
//! Networks for Adversarially Robust V2X Misbehavior Detection Systems"*
//! (Shahriar et al., IEEE ICDCS 2024).
//!
//! This umbrella crate re-exports the whole stack:
//!
//! | module | crate | role |
//! |---|---|---|
//! | [`core`] | `vehigan-core` | WGAN training, zoo, ensemble, FGSM attacks |
//! | [`sim`] | `vehigan-sim` | traffic + BSM simulator (SUMO/Veins substitute) |
//! | [`vasp`] | `vehigan-vasp` | Table I attack-injection framework |
//! | [`features`] | `vehigan-features` | physics-guided Table II features |
//! | [`metrics`] | `vehigan-metrics` | AUROC/rates/thresholds |
//! | [`baselines`] | `vehigan-baselines` | PCA/KNN/GMM/AE comparison detectors |
//! | [`lite`] | `vehigan-lite` | quantized OBU inference (TFLite substitute) |
//! | [`mbr`] | `vehigan-mbr` | misbehavior reports, authority, CRL, pseudonym linkage |
//! | [`serve`] | `vehigan-serve` | RSU streaming service: sharded state, batched two-tier scoring |
//! | [`tensor`] | `vehigan-tensor` | CPU DL stack with exact backprop |
//!
//! # Quickstart
//!
//! ```no_run
//! use vehigan::core::{Pipeline, PipelineConfig};
//! use vehigan::features::Representation;
//! use vehigan::vasp::Attack;
//! use vehigan::metrics::auroc;
//!
//! // Train the full system (simulate → features → WGAN zoo → ensemble).
//! let pipeline = Pipeline::run(PipelineConfig::quick());
//!
//! // Evaluate against a Table III attack on held-out traffic: the plane
//! // cuts every labelled dataset from one fleet's per-vehicle windows.
//! let plane = pipeline.plane(pipeline.test_fleet(), Representation::Engineered);
//! let test = plane.attack_windows(Attack::by_name("RandomSpeed").unwrap());
//! let members: Vec<usize> = (0..pipeline.vehigan.k()).collect();
//! let result = pipeline.vehigan.score_with_members(&members, &test.x).unwrap();
//! println!("RandomSpeed AUROC = {:.3}", auroc(&result.scores, &test.labels));
//! ```
//!
//! See `examples/` for runnable end-to-end scenarios and
//! `crates/bench` for the harness regenerating every table and figure of
//! the paper.

pub use vehigan_baselines as baselines;
pub use vehigan_core as core;
pub use vehigan_features as features;
pub use vehigan_lite as lite;
pub use vehigan_mbr as mbr;
pub use vehigan_metrics as metrics;
pub use vehigan_serve as serve;
pub use vehigan_sim as sim;
pub use vehigan_tensor as tensor;
pub use vehigan_vasp as vasp;
