//! Ablations for the reproduction's design choices (DESIGN.md §1):
//! Lipschitz enforcement mode (with RMSProp lr 1e-3 vs 1e-4 under the
//! gradient penalty), generator output gain, window length `w`, and
//! threshold percentile `p`.
//!
//! Each ablation trains a single WGAN (the zoo would mask per-choice
//! effects) on a shared dataset and reports detection AUROC over a
//! representative attack set, plus threshold-operating points where
//! relevant. Results land in `results/ablation_*.csv`.

use crate::harness::{rate_above, write_csv, Scale};
use vehigan_core::{LipschitzMode, Wgan, WganConfig};
use vehigan_features::{build_windows, fit_scaler, WindowConfig, WindowDataset};
use vehigan_metrics::{auroc, percentile};
use vehigan_sim::{TrafficSimulator, VehicleTrace};
use vehigan_vasp::{Attack, DatasetBuilder, DatasetConfig};

const ATTACKS: [&str; 6] = [
    "RandomPosition",
    "RandomSpeed",
    "OppositeHeading",
    "RandomYawRate",
    "HighHeadingYawRate",
    "ConstantSpeed",
];

struct Data {
    train: WindowDataset,
    benign_test: WindowDataset,
    attack_tests: Vec<WindowDataset>,
}

fn build_data(fleet: &[VehicleTrace], window: usize) -> Data {
    let n = fleet.len();
    let train_fleet = &fleet[..n / 2];
    let test_fleet = &fleet[n / 2..];
    let builder = DatasetBuilder::new(train_fleet, DatasetConfig::default());
    let benign = builder.benign_dataset();
    let wcfg = WindowConfig {
        window,
        stride: 4,
        ..WindowConfig::default()
    };
    let scaler = fit_scaler(&benign, wcfg.representation);
    let train = build_windows(&benign, wcfg, &scaler);
    let test_builder = DatasetBuilder::new(test_fleet, DatasetConfig::default());
    let benign_test = build_windows(&test_builder.benign_dataset(), wcfg, &scaler);
    let attack_tests = ATTACKS
        .iter()
        .map(|name| {
            let attack = Attack::by_name(name).expect("catalog");
            build_windows(&test_builder.attack_dataset(attack), wcfg, &scaler)
        })
        .collect();
    Data {
        train,
        benign_test,
        attack_tests,
    }
}

fn mean_auroc(wgan: &mut Wgan, tests: &[WindowDataset]) -> f64 {
    tests
        .iter()
        .map(|ds| auroc(&wgan.score_batch(&ds.x), &ds.labels))
        .sum::<f64>()
        / tests.len() as f64
}

/// Runs all ablations and writes `results/ablation_*.csv`.
pub fn run() {
    let fleet = TrafficSimulator::new(Scale::Quick.pipeline_config().sim).run();

    // --- Ablation 1: Lipschitz enforcement mode (and the learning rate
    // under GP: DESIGN.md §1 keeps lr 1e-4 against the paper's 1e-3) ----
    println!("Ablation 1 — Lipschitz enforcement (single WGAN, 4 epochs, lr 1e-4 unless named)");
    println!("{:<32} {:>8}", "mode", "AUROC");
    let data = build_data(&fleet, 10);
    let gp = LipschitzMode::GradientPenalty { lambda: 10.0 };
    let mut rows = Vec::new();
    for (label, mode, learning_rate) in [
        ("gradient-penalty(λ=10)", gp, 1e-4),
        ("spectral-norm", LipschitzMode::Spectral, 1e-4),
        ("weight-clip(0.03)", LipschitzMode::Clip, 1e-4),
        ("gradient-penalty(λ=10) lr=1e-3", gp, 1e-3),
    ] {
        let mut wgan = Wgan::new(WganConfig {
            layers: 5,
            epochs: 4,
            batch_size: 64,
            n_critic: 2,
            lipschitz: mode,
            learning_rate,
            seed: 7,
            ..WganConfig::default()
        });
        wgan.train(&data.train.x);
        let score = mean_auroc(&mut wgan, &data.attack_tests);
        println!("{label:<32} {score:>8.3}");
        rows.push(format!("{label},{score:.4}"));
    }
    write_csv("ablation_lipschitz.csv", "mode,auroc", &rows);

    // --- Ablation 2: generator output gain ------------------------------
    println!("\nAblation 2 — generator output gain at init");
    println!("{:>6} {:>8}", "gain", "AUROC");
    let mut rows = Vec::new();
    for gain in [1.0f32, 2.0, 4.0, 8.0] {
        let mut wgan = Wgan::new(WganConfig {
            layers: 5,
            epochs: 4,
            batch_size: 64,
            n_critic: 2,
            g_output_gain: gain,
            seed: 7,
            ..WganConfig::default()
        });
        wgan.train(&data.train.x);
        let score = mean_auroc(&mut wgan, &data.attack_tests);
        println!("{gain:>6} {score:>8.3}");
        rows.push(format!("{gain},{score:.4}"));
    }
    write_csv("ablation_gain.csv", "gain,auroc", &rows);

    // --- Ablation 3: window length w ------------------------------------
    println!("\nAblation 3 — snapshot window length w (paper: 10)");
    println!("{:>4} {:>8}", "w", "AUROC");
    let mut rows = Vec::new();
    for w in [4usize, 10, 20] {
        let d = build_data(&fleet, w);
        let mut wgan = Wgan::new(WganConfig {
            layers: 5,
            epochs: 4,
            batch_size: 64,
            n_critic: 2,
            window: w,
            seed: 7,
            ..WganConfig::default()
        });
        wgan.train(&d.train.x);
        let score = mean_auroc(&mut wgan, &d.attack_tests);
        println!("{w:>4} {score:>8.3}");
        rows.push(format!("{w},{score:.4}"));
    }
    write_csv("ablation_window.csv", "window,auroc", &rows);

    // --- Ablation 4: threshold percentile p -----------------------------
    println!("\nAblation 4 — threshold percentile p (paper: 99–99.99)");
    println!("{:>7} {:>10} {:>10}", "p", "benignFPR", "attackTPR");
    let mut wgan = Wgan::new(WganConfig {
        layers: 5,
        epochs: 4,
        batch_size: 64,
        n_critic: 2,
        seed: 7,
        ..WganConfig::default()
    });
    wgan.train(&data.train.x);
    let train_scores = wgan.score_batch(&data.train.x);
    let benign_scores = wgan.score_batch(&data.benign_test.x);
    let attack_scores: Vec<(Vec<f32>, Vec<bool>)> = data
        .attack_tests
        .iter()
        .map(|ds| (wgan.score_batch(&ds.x), ds.labels.clone()))
        .collect();
    let mut rows = Vec::new();
    for p in [95.0, 99.0, 99.5, 99.9] {
        let tau = percentile(&train_scores, p);
        let fpr = rate_above(&benign_scores, tau);
        let mut tpr_sum = 0.0;
        for (scores, labels) in &attack_scores {
            let mal: Vec<f32> = scores
                .iter()
                .zip(labels)
                .filter(|(_, &l)| l)
                .map(|(&s, _)| s)
                .collect();
            tpr_sum += rate_above(&mal, tau);
        }
        let tpr = tpr_sum / attack_scores.len() as f64;
        println!("{p:>7} {fpr:>10.4} {tpr:>10.4}");
        rows.push(format!("{p},{fpr:.4},{tpr:.4}"));
    }
    write_csv(
        "ablation_percentile.csv",
        "percentile,benign_fpr,attack_tpr",
        &rows,
    );
    println!("\n(lower p trades benign FPR for attack TPR; the paper fixes p=99 for <1% FPR)");
}
