//! Table III: AUROC of VEHIGAN₁₀¹⁰ and VEHIGAN₅⁵ vs the PCA / KNN / GMM /
//! AE baselines (raw `Base-` and engineered `Vehi-` variants) against all
//! 35 attacks, and of the served decisions of the deployment the tier-0
//! proof vouches for (`VehiGAN-served`: k members, the int8 gate with
//! τ_esc at the benign maximum, the constrained tier-0 calibration).

use crate::experiments::tier0::Deployment;
use crate::harness::{write_csv, Harness};
use crate::served::scores;
use vehigan_baselines::{
    flatten_windows, AeConfig, AeDetector, AnomalyDetector, GmmDetector, KnnDetector, PcaDetector,
};
use vehigan_features::{Representation, WindowDataset};
use vehigan_metrics::auroc;

struct Column {
    name: &'static str,
    auroc: Vec<f64>,
}

fn baseline_column(
    name: &'static str,
    detector: &mut dyn AnomalyDetector,
    train: &WindowDataset,
    tests: &[WindowDataset],
) -> Column {
    eprintln!("[table3] fitting {name}…");
    detector.fit(&flatten_windows(&train.x));
    let auroc = tests
        .iter()
        .map(|ds| {
            let scores = detector.score_batch(&flatten_windows(&ds.x));
            auroc(&scores, &ds.labels)
        })
        .collect();
    Column { name, auroc }
}

/// Runs Table III and writes `results/table3_auroc.csv`.
pub fn run(harness: &mut Harness) {
    let n_attacks = harness.attacks.len();
    let m = harness.pipeline.vehigan.m();

    eprintln!("[table3] replaying the served deployment…");
    let served = Deployment::build(harness).serve(harness);
    // VEHIGAN columns straight from the score cache, and the served one.
    let h = &*harness;
    let vehigan_col = |name, scores: &dyn Fn(usize) -> Vec<f32>| Column {
        name,
        auroc: (0..n_attacks)
            .map(|ai| auroc(&scores(ai), &h.attack_windows[ai].labels))
            .collect(),
    };
    let all: Vec<usize> = (0..m).collect();
    let col_v10 = vehigan_col("VehiGAN-10/10", &|ai| h.ensemble_attack_scores(&all, ai));
    let col_v5 = vehigan_col("VehiGAN-5/5", &|ai| {
        h.ensemble_attack_scores(&all[..m.min(5)], ai)
    });
    let col_served = vehigan_col("VehiGAN-served", &|ai| scores(&served[ai]));

    // Raw-representation data for the Base baseline.
    eprintln!("[table3] building raw-representation datasets…");
    let pipeline = &harness.pipeline;
    let raw_train = pipeline
        .plane(pipeline.train_fleet(), Representation::Raw)
        .benign_windows();
    let raw_tests = pipeline
        .plane(pipeline.test_fleet(), Representation::Raw)
        .campaign(&harness.attacks);

    let eng_train = &harness.pipeline.train_windows;
    let eng_tests = &harness.attack_windows;

    let ae_config = AeConfig {
        epochs: 12,
        ..AeConfig::default()
    };
    let columns = vec![
        col_v10,
        col_v5,
        baseline_column(
            "Base-AE",
            &mut AeDetector::new(ae_config),
            &raw_train,
            &raw_tests,
        ),
        baseline_column(
            "Vehi-AE",
            &mut AeDetector::new(ae_config),
            eng_train,
            eng_tests,
        ),
        baseline_column("Vehi-PCA", &mut PcaDetector::new(), eng_train, eng_tests),
        baseline_column(
            "Vehi-KNN",
            &mut KnnDetector::default(),
            eng_train,
            eng_tests,
        ),
        baseline_column(
            "Vehi-GMM",
            &mut GmmDetector::default(),
            eng_train,
            eng_tests,
        ),
        col_served,
    ];

    // Print the table.
    print!("{:<30}", "attack");
    for c in &columns {
        print!(" {:>13}", c.name);
    }
    println!();
    let mut rows = Vec::with_capacity(n_attacks + 1);
    let mut best_counts = vec![0usize; columns.len()];
    for ai in 0..n_attacks {
        let name = harness.attacks[ai].name();
        print!("{name:<30}");
        let vals: Vec<f64> = columns.iter().map(|c| c.auroc[ai]).collect();
        let best = vals.iter().copied().fold(f64::MIN, f64::max);
        for (ci, v) in vals.iter().enumerate() {
            let marker = if (v - best).abs() < 1e-9 { "*" } else { " " };
            if (v - best).abs() < 1e-9 {
                best_counts[ci] += 1;
            }
            print!(" {v:>12.3}{marker}");
        }
        println!();
        rows.push(format!(
            "{name},{}",
            vals.iter()
                .map(|v| format!("{v:.4}"))
                .collect::<Vec<_>>()
                .join(",")
        ));
    }
    // Averages row.
    print!("{:<30}", "Average");
    let mut avg_line = String::from("Average");
    for c in &columns {
        let avg = c.auroc.iter().sum::<f64>() / n_attacks as f64;
        print!(" {avg:>12.3} ");
        avg_line.push_str(&format!(",{avg:.4}"));
    }
    println!();
    rows.push(avg_line);

    let header = format!(
        "attack,{}",
        columns
            .iter()
            .map(|c| c.name.to_string())
            .collect::<Vec<_>>()
            .join(",")
    );
    write_csv("table3_auroc.csv", &header, &rows);

    println!("\nwins per detector (ties counted):");
    for (c, wins) in columns.iter().zip(&best_counts) {
        println!("  {:<14} {wins}/{n_attacks}", c.name);
    }
    // The advanced-attack block (last six rows of Table III).
    let advanced: Vec<usize> = (0..n_attacks)
        .filter(|&ai| harness.attacks[ai].is_advanced())
        .collect();
    let adv_avg =
        |c: &Column| advanced.iter().map(|&ai| c.auroc[ai]).sum::<f64>() / advanced.len() as f64;
    println!(
        "\nadvanced heading&yaw-rate attacks: VehiGAN-10/10 avg {:.3} vs Base-AE avg {:.3} \
         (paper: VEHIGAN dominates the advanced block)",
        adv_avg(&columns[0]),
        adv_avg(&columns[2]),
    );
    println!(
        "feature-engineering lift (Table III BaseAE vs VehiAE): {:.3} → {:.3}",
        columns[2].auroc.iter().sum::<f64>() / n_attacks as f64,
        columns[3].auroc.iter().sum::<f64>() / n_attacks as f64,
    );
}
