//! Fig 7: adversarial robustness of the ensemble `VEHIGAN_m^k`.
//!
//! - **7a** — gray-box: AFP samples crafted on the single best model
//!   (which sits inside the ensemble) evaluated against `VEHIGAN_m^k`;
//! - **7b** — adaptive white-box: the attacker jointly ascends all m
//!   critics' gradients, and the ensemble still holds (the paper's
//!   headline ≈92% FPR improvement).
//!
//! An FPR is the served rule's: the share of adversarial windows an
//! `Always` [`vehigan_serve::TieredDetector`] pinned to the drawn subset
//! flags, its mean score against the mean of the members' calibrated τ
//! (§III-F).

use crate::experiments::fig5::benign_sample;
use crate::harness::{write_csv, Harness};
use crate::served::{self, Screened};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use vehigan_core::adversarial::{afp_attack, multi_model_afp};
use vehigan_serve::EscalationPolicy;
use vehigan_tensor::Tensor;

const EPS: f32 = 0.01;
const TRIALS: usize = 8;

/// FPR of the ensemble over `members` on the adversarial samples.
fn fpr(harness: &Harness, members: Vec<usize>, adv: &Tensor) -> f64 {
    let config = served::config(harness, EscalationPolicy::Always, members);
    let decisions = Screened::windows(&mut served::detector(harness, &config), adv).decisions;
    decisions.iter().filter(|d| d.flagged).count() as f64 / decisions.len() as f64
}

/// Prints and writes to `results/<csv>` the mean FPR of `VEHIGAN_m^k`
/// over random k-subsets of the first `m` members, on the samples
/// `craft(harness, m)`, for every (m, k); returns the full ensemble's
/// (the last cell).
fn grid(
    harness: &mut Harness,
    csv: &str,
    seed: u64,
    mut craft: impl FnMut(&mut Harness, usize) -> Tensor,
) -> f64 {
    let m_max = harness.pipeline.vehigan.m();
    let mut rng = StdRng::seed_from_u64(seed);
    let ks: Vec<usize> = (1..=m_max).collect();
    println!(
        "{:>4}{}",
        "m\\k",
        ks.iter().map(|k| format!(" {k:>6}")).collect::<String>()
    );
    let mut rows = Vec::new();
    let mut full_fpr = 0.0;
    for m in 1..=m_max {
        let adv = craft(harness, m);
        let (mut line, mut row) = (format!("{m:>4}"), format!("{m}"));
        for &k in &ks {
            if k > m {
                line.push_str("      -");
                row.push(',');
                continue;
            }
            let trials = if k == m { 1 } else { TRIALS };
            let mut total = 0.0;
            for _ in 0..trials {
                let mut members: Vec<usize> = (0..m).collect();
                members.shuffle(&mut rng);
                members.truncate(k);
                total += fpr(harness, members, &adv);
            }
            let mean = total / trials as f64;
            line.push_str(&format!(" {mean:>6.3}"));
            row.push_str(&format!(",{mean:.4}"));
            full_fpr = mean;
        }
        println!("{line}");
        rows.push(row);
    }
    let header: Vec<String> = ks.iter().map(|k| format!("k{k}")).collect();
    write_csv(csv, &format!("m,{}", header.join(",")), &rows);
    full_fpr
}

/// Fig 7a: gray-box single-surrogate AFP vs the ensemble.
pub fn run_7a(harness: &mut Harness) {
    let benign = benign_sample(harness);
    // Surrogate = best member (inside the ensemble) — the constrained
    // attacker of §V-B.2.
    let adv = {
        let surrogate = &mut harness.pipeline.vehigan.members_mut()[0];
        afp_attack(surrogate.wgan.critic_mut(), &benign, EPS)
    };
    let surrogate_fpr = fpr(harness, vec![0], &adv);
    println!("Fig 7a — FPR of VEHIGAN_m^k under gray-box AFP (ε = {EPS}, surrogate in ensemble)");
    let ens_fpr = grid(harness, "fig7a_afp_graybox.csv", 71, |_, _| adv.clone());
    println!(
        "\nsurrogate (white-box) FPR {surrogate_fpr:.3} vs full ensemble FPR {ens_fpr:.3} — \
         randomized ensembling absorbs gray-box transfer (paper Fig 7a)"
    );
}

/// Fig 7b: adaptive multi-model white-box AFP vs the ensemble, and the
/// headline FPR improvement over the single-model white-box attack.
pub fn run_7b(harness: &mut Harness) {
    let benign = benign_sample(harness);
    let m_max = harness.pipeline.vehigan.m();
    // Baseline: plain white-box AFP on the single best model.
    let single_fpr = {
        let member = &mut harness.pipeline.vehigan.members_mut()[0];
        let adv = afp_attack(member.wgan.critic_mut(), &benign, EPS);
        fpr(harness, vec![0], &adv)
    };
    println!("Fig 7b — FPR of VEHIGAN_m^k under adaptive multi-model AFP (ε = {EPS})");
    // The attacker jointly differentiates all m deployed critics.
    let full_fpr = grid(harness, "fig7b_afp_multimodel.csv", 72, |h, m| {
        let members = &mut h.pipeline.vehigan.members_mut()[..m];
        let mut critics: Vec<_> = members.iter_mut().map(|c| c.wgan.critic_mut()).collect();
        multi_model_afp(&mut critics, &benign, EPS)
    });
    let improvement = if single_fpr > 0.0 {
        (single_fpr - full_fpr) / single_fpr * 100.0
    } else {
        0.0
    };
    println!(
        "\nheadline: single white-box FPR {single_fpr:.3} → VEHIGAN_{m_max}^{m_max} FPR {full_fpr:.3} \
         = {improvement:.0}% FPR improvement under the adaptive attack (paper: ≈92%)"
    );
}
