//! Attack campaign: evaluate a trained VehiGAN ensemble against the
//! complete Table I/III threat matrix (all 35 in-scope misbehaviors).
//!
//! ```text
//! cargo run --release --example attack_campaign
//! ```

use vehigan::core::{Pipeline, PipelineConfig};
use vehigan::metrics::auroc;
use vehigan::vasp::Attack;

fn main() {
    println!("=== VehiGAN 35-attack campaign ===\n");
    let pipeline = Pipeline::run(PipelineConfig::demo());
    let members: Vec<usize> = (0..pipeline.vehigan.m()).collect();

    println!(
        "{:<30} {:>7} {:>9} {:>10}",
        "attack", "AUROC", "windows", "malicious"
    );
    let mut worst: (String, f64) = (String::new(), 1.0);
    let mut advanced_sum = 0.0;
    let mut advanced_n = 0;
    let mut total = 0.0;
    let catalog = Attack::catalog();
    for &attack in &catalog {
        let test = pipeline.test_attack_windows(attack);
        let result = pipeline
            .vehigan
            .score_with_members(&members, &test.x)
            .unwrap();
        let roc = auroc(&result.scores, &test.labels);
        println!(
            "{:<30} {roc:>7.3} {:>9} {:>10}",
            attack.name(),
            test.len(),
            test.malicious_indices().len()
        );
        total += roc;
        if roc < worst.1 {
            worst = (attack.name(), roc);
        }
        if attack.is_advanced() {
            advanced_sum += roc;
            advanced_n += 1;
        }
    }
    println!(
        "\naverage AUROC over {} attacks: {:.3}",
        catalog.len(),
        total / catalog.len() as f64
    );
    println!(
        "advanced heading&yaw-rate block: {:.3} average over {advanced_n} attacks",
        advanced_sum / advanced_n as f64
    );
    println!(
        "hardest attack: {} (AUROC {:.3}) — the paper's hardest is ConstantPositionOffset, \
         which violates no physics and needs map checks (§V-C)",
        worst.0, worst.1
    );
}
