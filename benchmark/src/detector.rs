//! The detector under test: one fixed-seed VehiGAN trained from scratch
//! in every process, with no on-disk cache, so `setup_s` means the same
//! thing on every run and on every commit.

use std::time::Instant;
use vehigan_core::{GridConfig, Pipeline, PipelineConfig, WganConfig};
use vehigan_features::{Tier0Calibration, WindowConfig};
use vehigan_serve::{escalation_threshold, SCORE_TILE};
use vehigan_sim::SimConfig;
use vehigan_tensor::Tensor;

/// Benign gate-score percentile above which tier 1 escalates to tier 2.
pub const ESCALATION_PERCENTILE: f64 = 97.5;
/// Benign quantile the tier-0 decision intervals are fit at.
pub const TIER0_QUANTILE: f64 = 0.995;

/// Where the detector's set-up time went.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DetectorTimings {
    /// `Pipeline::run`: simulate, featurize, train the grid, select.
    pub train_s: f64,
    /// `Pipeline::compile_int8`.
    pub compile_int8_s: f64,
    /// `Tier0Calibration::fit` plus the benign gate scores it needs.
    pub tier0_fit_s: f64,
}

/// A trained, compiled and calibrated detector.
pub struct Detector {
    /// The trained pipeline (ensemble, scaler, training fleet).
    pub pipeline: Pipeline,
    /// The pinned member subset (the first `k`), for both tiers.
    pub members: Vec<usize>,
    /// Tier-1 → tier-2 escalation cutoff.
    pub tau_esc: f32,
    /// The armed tier-0 calibration.
    pub tier0: Tier0Calibration,
    /// Set-up time per stage.
    pub timings: DetectorTimings,
}

/// The fixed training configuration: a six-model grid (noise dims
/// {8, 16, 32} × critic layers {4, 5} × one epoch budget), `top_m = 6`,
/// `deploy_k = 5` (the paper's k). The fleet and epoch budget are the
/// smallest that still train a detector whose tiers behave as designed
/// (see README, "Detector under test"); everything is seeded with 0.
pub fn config() -> PipelineConfig {
    PipelineConfig {
        sim: SimConfig {
            n_vehicles: 16,
            duration_s: 40.0,
            seed: 0,
            ..SimConfig::default()
        },
        window: WindowConfig {
            stride: 6,
            ..WindowConfig::default()
        },
        grid: GridConfig {
            noise_dims: vec![8, 16, 32],
            layer_counts: vec![4, 5],
            epoch_counts: vec![1],
            base: WganConfig {
                batch_size: 16,
                n_critic: 2,
                ..WganConfig::default()
            },
        },
        top_m: 6,
        deploy_k: 5,
        zoo_threads: crate::host::nproc(),
        ..PipelineConfig::demo()
    }
}

/// Trains, compiles and calibrates the detector.
///
/// # Panics
///
/// Panics when any stage fails: the configuration is fixed, so a failure
/// is a bug in the program under test and the run has nothing to report.
pub fn build() -> Detector {
    let t = Instant::now();
    let mut pipeline = Pipeline::run(config());
    let train_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    pipeline.compile_int8().expect("int8 backend compiles");
    let compile_int8_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let members: Vec<usize> = (0..pipeline.vehigan.k()).collect();
    let gate = gate_scores(&pipeline, &members, &pipeline.train_windows.x);
    let tau_esc = escalation_threshold(&gate, ESCALATION_PERCENTILE);
    let window = pipeline.config.window.window;
    let mut tier0 = Tier0Calibration::fit(pipeline.train_fleet(), window, TIER0_QUANTILE)
        .expect("tier-0 fits on the benign training fleet");
    tier0.set_score_band(
        escalation_threshold(&gate, 10.0),
        escalation_threshold(&gate, 50.0),
        tau_esc,
    );
    let tier0_fit_s = t.elapsed().as_secs_f64();

    Detector {
        pipeline,
        members,
        tau_esc,
        tier0,
        timings: DetectorTimings {
            train_s,
            compile_int8_s,
            tier0_fit_s,
        },
    }
}

/// Int8 gate scores of `x` in serve-sized tiles.
fn gate_scores(pipeline: &Pipeline, members: &[usize], x: &Tensor) -> Vec<f32> {
    let shape = x.shape();
    let (n, len) = (shape[0], shape[1] * shape[2] * shape[3]);
    let mut scores = Vec::with_capacity(n);
    for start in (0..n).step_by(SCORE_TILE) {
        let end = (start + SCORE_TILE).min(n);
        let tile = Tensor::from_vec(
            x.as_slice()[start * len..end * len].to_vec(),
            &[end - start, shape[1], shape[2], shape[3]],
        );
        scores.extend_from_slice(
            &pipeline
                .vehigan
                .score_with_members_int8(members, &tile)
                .expect("gate scores")
                .scores,
        );
    }
    scores
}
