//! Fig 5: adversarial robustness of single-WGAN VEHIGAN₁¹.
//!
//! - **5a** — FPR of the top-10 models under white-box AFP attacks vs ε,
//!   against a random-noise control of equal magnitude;
//! - **5b** — FNR under AFN attacks vs ε (intrinsic robustness: scores
//!   stay above τ);
//! - **5c** — transferability: AFP samples crafted on the best model
//!   (white-box) evaluated on the other models (black-box).

use crate::harness::{rate_above, write_csv, Harness};
use rand::rngs::StdRng;
use rand::SeedableRng;
use vehigan_core::adversarial::{afn_attack, afp_attack, random_noise};
use vehigan_tensor::Tensor;

/// The ε sweep of §V-B (fractional change in scaled sensor values).
pub(crate) const EPSILONS: [f32; 6] = [0.0, 0.002, 0.005, 0.01, 0.015, 0.02];

/// Cap on windows per adversarial evaluation (gradient passes are the
/// expensive part).
const MAX_WINDOWS: usize = 256;

/// Per-member thresholds at the 99th percentile of benign **test**
/// scores: every model starts the ε-sweep at exactly 1% FPR, the paper's
/// operating point (§V-B), independent of small-scale train→test
/// calibration drift.
pub(crate) fn test_thresholds(harness: &mut Harness, benign: &vehigan_tensor::Tensor) -> Vec<f32> {
    let m = harness.pipeline.vehigan.m();
    (0..m)
        .map(|i| {
            let member = &mut harness.pipeline.vehigan.members_mut()[i];
            vehigan_metrics::percentile(&member.wgan.score_batch(benign), 99.0)
        })
        .collect()
}

fn subsample(x: &Tensor, limit: usize) -> Tensor {
    let n = x.shape()[0];
    if n <= limit {
        return x.clone();
    }
    let stride = n as f64 / limit as f64;
    let indices: Vec<usize> = (0..limit).map(|i| (i as f64 * stride) as usize).collect();
    x.take(&indices)
}

/// Benign test windows capped for gradient work.
pub(crate) fn benign_sample(harness: &Harness) -> Tensor {
    subsample(&harness.benign_windows.x, MAX_WINDOWS)
}

/// Malicious test windows pooled across attacks, capped.
pub(crate) fn malicious_sample(harness: &Harness) -> Tensor {
    let per_attack = (MAX_WINDOWS / harness.attacks.len()).max(4);
    let mut parts: Vec<Tensor> = Vec::new();
    for ds in &harness.attack_windows {
        let malicious = ds.malicious_indices();
        let take: Vec<usize> = malicious.into_iter().take(per_attack).collect();
        if !take.is_empty() {
            parts.push(ds.x.take(&take));
        }
    }
    let total: usize = parts.iter().map(|p| p.shape()[0]).sum();
    let mut data = Vec::with_capacity(total * 120);
    for p in &parts {
        data.extend_from_slice(p.as_slice());
    }
    let mut shape = parts[0].shape().to_vec();
    shape[0] = total;
    Tensor::from_vec(data, &shape)
}

/// Fig 5a: white-box AFP FPR per model vs ε + random-noise control.
pub fn run_5a(harness: &mut Harness) {
    let benign = benign_sample(harness);
    let m = harness.pipeline.vehigan.m();
    let taus = test_thresholds(harness, &benign);
    let mut rng = StdRng::seed_from_u64(55);
    println!("Fig 5a — FPR under white-box AFP attack (rows ε, one col per model, last col noise)");
    let mut rows = Vec::new();
    let mut fpr_at_001 = 0.0;
    for &eps in &EPSILONS {
        let mut line = format!("ε={eps:<6}");
        let mut csv = format!("{eps}");
        let mut sum = 0.0;
        for (i, &tau) in taus.iter().enumerate() {
            let member = &mut harness.pipeline.vehigan.members_mut()[i];
            let adv = afp_attack(member.wgan.critic_mut(), &benign, eps);
            let scores = member.wgan.score_batch(&adv);
            let fpr = rate_above(&scores, tau);
            sum += fpr;
            line.push_str(&format!(" {fpr:>6.3}"));
            csv.push_str(&format!(",{fpr:.4}"));
        }
        if (eps - 0.01).abs() < 1e-6 {
            fpr_at_001 = sum / m as f64;
        }
        // Random-noise control averaged across models.
        let noisy = random_noise(&benign, eps, &mut rng);
        let mut noise_sum = 0.0;
        for (i, &tau) in taus.iter().enumerate() {
            let member = &mut harness.pipeline.vehigan.members_mut()[i];
            let scores = member.wgan.score_batch(&noisy);
            noise_sum += rate_above(&scores, tau);
        }
        let noise_fpr = noise_sum / m as f64;
        line.push_str(&format!("   noise={noise_fpr:.3}"));
        csv.push_str(&format!(",{noise_fpr:.4}"));
        println!("{line}");
        rows.push(csv);
    }
    let header = format!(
        "epsilon,{},noise",
        (0..m)
            .map(|i| format!("model{i}"))
            .collect::<Vec<_>>()
            .join(",")
    );
    write_csv("fig5a_afp_whitebox.csv", &header, &rows);
    println!(
        "\nmean FPR at ε=0.01: {fpr_at_001:.3} — white-box AFP cripples single-WGAN VEHIGAN₁¹ (paper: ≈50%+)"
    );
}

/// Fig 5b: AFN FNR per model vs ε (expected: flat / intrinsically robust).
pub fn run_5b(harness: &mut Harness) {
    let malicious = malicious_sample(harness);
    let benign = benign_sample(harness);
    let m = harness.pipeline.vehigan.m();
    let taus = test_thresholds(harness, &benign);
    println!("Fig 5b — FNR under white-box AFN attack (rows ε, one col per model)");
    let mut rows = Vec::new();
    let mut base_fnr = 0.0;
    let mut max_fnr: f64 = 0.0;
    for &eps in &EPSILONS {
        let mut line = format!("ε={eps:<6}");
        let mut csv = format!("{eps}");
        let mut sum = 0.0;
        for (i, &tau) in taus.iter().enumerate() {
            let member = &mut harness.pipeline.vehigan.members_mut()[i];
            let adv = afn_attack(member.wgan.critic_mut(), &malicious, eps);
            let scores = member.wgan.score_batch(&adv);
            // FNR: malicious windows whose score fails to exceed τ.
            let fnr = 1.0 - rate_above(&scores, tau);
            sum += fnr;
            line.push_str(&format!(" {fnr:>6.3}"));
            csv.push_str(&format!(",{fnr:.4}"));
        }
        let mean = sum / m as f64;
        if eps == 0.0 {
            base_fnr = mean;
        }
        max_fnr = max_fnr.max(mean);
        println!("{line}");
        rows.push(csv);
    }
    let header = format!(
        "epsilon,{}",
        (0..m)
            .map(|i| format!("model{i}"))
            .collect::<Vec<_>>()
            .join(",")
    );
    write_csv("fig5b_afn_whitebox.csv", &header, &rows);
    println!(
        "\nFNR moves from {base_fnr:.3} (ε=0) to at most {max_fnr:.3} across the sweep — \
         AFN attacks stay ineffective (paper Fig 5b: intrinsic robustness)"
    );
}

/// Fig 5c: transfer attack — AFP samples from the best model applied to
/// all models.
pub fn run_5c(harness: &mut Harness) {
    let benign = benign_sample(harness);
    let m = harness.pipeline.vehigan.m();
    let taus = test_thresholds(harness, &benign);
    println!("Fig 5c — AFP transferability (surrogate = best model; rows ε; col 0 is white-box)");
    let mut rows = Vec::new();
    let mut wb_at_001 = 0.0;
    let mut bb_at_001 = 0.0;
    for &eps in &EPSILONS {
        // Craft on model 0 (highest ADS → "open-box").
        let adv = {
            let surrogate = &mut harness.pipeline.vehigan.members_mut()[0];
            afp_attack(surrogate.wgan.critic_mut(), &benign, eps)
        };
        let mut line = format!("ε={eps:<6}");
        let mut csv = format!("{eps}");
        let mut bb_sum = 0.0;
        for (i, &tau) in taus.iter().enumerate() {
            let member = &mut harness.pipeline.vehigan.members_mut()[i];
            let scores = member.wgan.score_batch(&adv);
            let fpr = rate_above(&scores, tau);
            if i == 0 {
                if (eps - 0.01).abs() < 1e-6 {
                    wb_at_001 = fpr;
                }
            } else {
                bb_sum += fpr;
            }
            line.push_str(&format!(" {fpr:>6.3}"));
            csv.push_str(&format!(",{fpr:.4}"));
        }
        if (eps - 0.01).abs() < 1e-6 {
            bb_at_001 = bb_sum / (m - 1) as f64;
        }
        println!("{line}");
        rows.push(csv);
    }
    let header = format!(
        "epsilon,whitebox,{}",
        (1..m)
            .map(|i| format!("blackbox{i}"))
            .collect::<Vec<_>>()
            .join(",")
    );
    write_csv("fig5c_afp_transfer.csv", &header, &rows);
    println!(
        "\nat ε=0.01: white-box FPR {wb_at_001:.3} vs mean black-box FPR {bb_at_001:.3} — \
         adversarial samples do not transfer across WGANs (paper Fig 5c)"
    );
}
