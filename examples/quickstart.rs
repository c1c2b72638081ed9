//! Quickstart: train a small VehiGAN system end-to-end and detect a
//! misbehaving vehicle.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! Walks the full Fig 2 workflow: simulate benign traffic → engineer
//! Table II features → train a WGAN zoo → pre-evaluate and select the
//! top-m critics → deploy a VEHIGAN_m^k ensemble → score a held-out
//! attack.

use vehigan::core::{Pipeline, PipelineConfig};
use vehigan::metrics::{auroc, Confusion};
use vehigan::vasp::Attack;

fn main() {
    println!("=== VehiGAN quickstart ===\n");
    println!("[1/3] training the pipeline (simulate → features → WGAN zoo → ensemble)…");
    let config = PipelineConfig::demo(); // minutes of CPU; use ::quick() for the full zoo
    let pipeline = Pipeline::run(config);
    println!(
        "      zoo of {} WGANs trained; top-{} selected; VEHIGAN_{}^{} deployed",
        pipeline.zoo.len(),
        pipeline.vehigan.m(),
        pipeline.vehigan.m(),
        pipeline.vehigan.k(),
    );
    for (rank, &idx) in pipeline.selected.iter().enumerate() {
        let e = &pipeline.zoo.entries()[idx];
        println!(
            "      #{:<2} {}  ADS={:.3}",
            rank + 1,
            e.wgan.config().id(),
            e.ads
        );
    }

    println!("\n[2/3] building a held-out attack scenario (25% of vehicles misbehave)…");
    let attack = Attack::by_name("HighHeadingYawRate").expect("catalog attack");
    let test = pipeline.test_attack_windows(attack);
    println!(
        "      attack: {attack} ({} windows, {} malicious)",
        test.len(),
        test.malicious_indices().len()
    );

    println!("\n[3/3] scoring with the deployed ensemble…");
    // The served path's default subset: the first k members, (0..k).
    let members: Vec<usize> = (0..pipeline.vehigan.k()).collect();
    let result = pipeline
        .vehigan
        .score_with_members(&members, &test.x)
        .unwrap();
    let score = auroc(&result.scores, &test.labels);
    let confusion = Confusion::at_threshold(&result.scores, &test.labels, result.threshold);
    println!("      deployed members: {:?}", result.members);
    println!("      AUROC = {score:.3}");
    println!(
        "      at the calibrated threshold: TPR={:.3} FPR={:.3}",
        confusion.tpr(),
        confusion.fpr()
    );
    assert!(score > 0.7, "quickstart detection degraded: AUROC {score}");
    println!("\ndone — see examples/attack_campaign.rs for the full 35-attack sweep.");
}
