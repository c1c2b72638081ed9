//! # vehigan-core
//!
//! The primary contribution of the VehiGAN paper (ICDCS 2024): an
//! adversarially robust, ensemble-WGAN misbehavior detection system for
//! V2X networks.
//!
//! The training phase (Fig 2, top) trains a grid of Wasserstein GANs on
//! benign `w × f` BSM snapshots ([`ModelZoo`]), pre-evaluates every critic
//! on a validation set with representative attacks (average discriminative
//! score, Eq. 4), and selects the top-*m* candidates. The testing phase
//! (Fig 2, bottom) deploys *k ≤ m* critics per inference ([`VehiGan`]
//! scores the subset it is given), averages their scores, and flags
//! windows whose score exceeds the calibrated threshold (§III-F); the
//! served path (`vehigan-serve`) picks the subset and files the reports.
//!
//! The [`adversarial`] module implements the paper's FGSM-based AFP/AFN
//! attacks (Eqs. 6–7) in white-box, gray-box-transfer, and adaptive
//! multi-model variants.
//!
//! # Example
//!
//! ```no_run
//! use vehigan_core::{Pipeline, PipelineConfig};
//! use vehigan_features::Representation;
//! use vehigan_vasp::Attack;
//! use vehigan_metrics::auroc;
//!
//! let pipeline = Pipeline::run(PipelineConfig::quick());
//! let plane = pipeline.plane(pipeline.test_fleet(), Representation::Engineered);
//! let test = plane.attack_windows(Attack::by_name("HighSpeed").unwrap());
//! let members: Vec<usize> = (0..pipeline.vehigan.k()).collect();
//! let result = pipeline.vehigan.score_with_members(&members, &test.x).unwrap();
//! println!("HighSpeed AUROC: {:.3}", auroc(&result.scores, &test.labels));
//! ```
//!
//! # Fault tolerance
//!
//! Training sixty models and scoring with a subset of them must
//! survive individual failures. Divergence sentinels inside
//! `Wgan::train_epochs_checked` roll back and retry a diverging run;
//! unrecoverable configurations are quarantined by
//! [`ModelZoo::train_grid`] (with a structured [`QuarantineReason`])
//! rather than failing the grid; every finished member is persisted
//! crash-safely through a [`CheckpointStore`] so an interrupted run
//! resumes from its manifest; and [`VehiGan`] scoring degrades gracefully,
//! dropping members that panic or emit non-finite scores as long as a
//! healthy subset remains.

#![warn(missing_docs)]

pub mod adversarial;
mod campaign;
mod checkpoint;
mod config;
mod ensemble;
mod int8;
mod pipeline;
mod wgan;
mod zoo;

pub use campaign::{score_matrix, CampaignPlane};
pub use checkpoint::{CheckpointError, CheckpointStore};
pub use config::{GridConfig, LipschitzMode, WganConfig};
pub use ensemble::{CriticMember, EnsembleError, EnsembleScore, ScoreSummary, VehiGan};
pub use int8::Int8Backend;
pub use pipeline::{Pipeline, PipelineConfig};
pub use wgan::{build_critic, DivergenceReason, TrainError, TrainReport, TrainStats, Wgan};
pub use zoo::{
    ModelZoo, QuarantineReason, QuarantineRecord, ZooEntry, ZooError, ZooTrainOptions,
    ZooTrainReport,
};

use std::sync::{Mutex, MutexGuard, PoisonError};

/// Locks `mutex` whatever a panic left it in, as `vehigan_tensor::forkjoin`
/// does. What this crate keeps behind a lock is valid at every step —
/// scoring scratch that every call writes before it reads, or a list a
/// holder changes by one push — so a panic under the lock leaves nothing
/// half-updated; it reaches the caller by unwinding (or is caught and
/// counted against a member), never through a poisoned lock.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The value `mutex` holds, whatever a panic left it in (see [`lock`]).
fn into_inner<T>(mutex: Mutex<T>) -> T {
    mutex.into_inner().unwrap_or_else(PoisonError::into_inner)
}
