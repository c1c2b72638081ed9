//! Adversarial robustness demo: FGSM AFP/AFN attacks against a single
//! WGAN vs the randomized ensemble (§III-G, §V-B).
//!
//! ```text
//! cargo run --release --example adversarial_robustness
//! ```

use vehigan::core::adversarial::{afn_attack, afp_attack, multi_model_afp, random_noise};
use vehigan::core::{Pipeline, PipelineConfig};
use vehigan::features::Representation;
use vehigan::tensor::init::seeded_rng;
use vehigan::tensor::Sequential;

fn rate_above(scores: &[f32], tau: f32) -> f64 {
    scores.iter().filter(|&&s| s > tau).count() as f64 / scores.len() as f64
}

fn main() {
    println!("=== VehiGAN adversarial robustness demo ===\n");
    let mut pipeline = Pipeline::run(PipelineConfig::demo());
    let benign = pipeline
        .plane(pipeline.test_fleet(), Representation::Engineered)
        .benign_windows();
    // Cap gradient work.
    let indices: Vec<usize> = (0..benign.len().min(200)).collect();
    let x = benign.x.take(&indices);
    let eps = 0.01;

    println!("[1/4] white-box AFP on the single best WGAN (ε = {eps})…");
    let (single_fpr, adv_scores_on_members, noise_fpr) = {
        let m = pipeline.vehigan.m();
        let adv = {
            let best = &mut pipeline.vehigan.members_mut()[0];
            afp_attack(best.wgan.critic_mut(), &x, eps)
        };
        let noisy = random_noise(&x, eps, &mut seeded_rng(1));
        let best = &mut pipeline.vehigan.members_mut()[0];
        let fpr = rate_above(&best.wgan.score_batch(&adv), best.threshold);
        let nf = rate_above(&best.wgan.score_batch(&noisy), best.threshold);
        let per_member: Vec<Vec<f32>> = (0..m)
            .map(|i| pipeline.vehigan.members_mut()[i].wgan.score_batch(&adv))
            .collect();
        (fpr, per_member, nf)
    };
    println!("      single-model FPR under AFP:   {single_fpr:.3}");
    println!("      single-model FPR under noise: {noise_fpr:.3}");

    println!("\n[2/4] the same samples against the full ensemble (gray-box transfer)…");
    let m = pipeline.vehigan.m();
    let k = pipeline.vehigan.m(); // deploy everything for the demo
    let n = adv_scores_on_members[0].len();
    let mut mean_scores = vec![0.0f32; n];
    for row in &adv_scores_on_members {
        for (acc, &s) in mean_scores.iter_mut().zip(row) {
            *acc += s / m as f32;
        }
    }
    let tau: f32 = pipeline
        .vehigan
        .members()
        .iter()
        .map(|c| c.threshold)
        .sum::<f32>()
        / m as f32;
    let graybox_fpr = rate_above(&mean_scores, tau);
    println!("      VEHIGAN_{m}^{k} FPR: {graybox_fpr:.3}");

    println!("\n[3/4] adaptive multi-model AFP (attacker differentiates all {m} critics)…");
    let adv_multi = {
        let members = pipeline.vehigan.members_mut();
        let mut critics: Vec<&mut Sequential> =
            members.iter_mut().map(|c| c.wgan.critic_mut()).collect();
        multi_model_afp(&mut critics, &x, eps)
    };
    let all: Vec<usize> = (0..m).collect();
    let multi_result = pipeline
        .vehigan
        .score_with_members(&all, &adv_multi)
        .unwrap();
    let multi_fpr = rate_above(&multi_result.scores, multi_result.threshold);
    let improvement = (single_fpr - multi_fpr) / single_fpr.max(1e-9) * 100.0;
    println!("      VEHIGAN_{m}^{m} FPR under the adaptive attack: {multi_fpr:.3}");
    println!("      FPR improvement vs single white-box: {improvement:.0}% (paper: ≈92%)");

    println!("\n[4/4] AFN attacks on misbehavior windows (intrinsic robustness)…");
    let attack = vehigan::vasp::Attack::by_name("RandomSpeed").expect("catalog");
    let mal_ds = pipeline
        .plane(pipeline.test_fleet(), Representation::Engineered)
        .attack_windows(attack);
    let mal_idx: Vec<usize> = mal_ds.malicious_indices().into_iter().take(200).collect();
    let mal = mal_ds.x.take(&mal_idx);
    let best = &mut pipeline.vehigan.members_mut()[0];
    let fnr_before = 1.0 - rate_above(&best.wgan.score_batch(&mal), best.threshold);
    let adv_mal = afn_attack(best.wgan.critic_mut(), &mal, eps);
    let fnr_after = 1.0 - rate_above(&best.wgan.score_batch(&adv_mal), best.threshold);
    println!("      FNR before AFN: {fnr_before:.3}, after AFN: {fnr_after:.3}");
    println!("      (AFN barely moves the needle — WGAN critics are intrinsically robust, Fig 5b)");
}
