//! FGSM adversarial attacks against WGAN-based MBDS (§II-B, §III-G).
//!
//! Two attack families target the anomaly score `s(x) = −D(x)`:
//!
//! - **AFP** (adversarial false positive, Eq. 6): perturb a *benign*
//!   window so its anomaly score rises above τ —
//!   `x_adv = x − ε·sign(∇ₓD(x))`;
//! - **AFN** (adversarial false negative, Eq. 7): perturb a *misbehavior*
//!   window so its score falls below τ —
//!   `x_adv = x + ε·sign(∇ₓD(x))`.
//!
//! Threat-model variants: white-box (gradients of the victim), gray-box
//! transfer (gradients of a surrogate, samples deployed on others), and
//! the adaptive multi-model attack (joint gradient of the ensemble mean).
//! A random-sign perturbation of equal ε serves as the noise control.

use rand::rngs::StdRng;
use rand::Rng;
use vehigan_tensor::{Sequential, Tensor};

/// Gradient of the anomaly score w.r.t. the input: `∇ₓ s(x) = −∇ₓ D(x)`,
/// computed per sample over a batch `[n, w, f, 1]`.
///
/// Each sample's gradient is independent because the critic processes
/// batch rows independently. The victim's parameter gradients are neither
/// computed nor touched ([`Sequential::backward_input`]).
pub fn score_gradient(critic: &mut Sequential, x: &Tensor) -> Tensor {
    let out = critic.forward(x);
    // d(Σᵢ sᵢ)/dx = per-sample ds/dx with grad_out = −1 per row.
    let grad_out = Tensor::full(out.shape(), -1.0);
    critic.backward_input(&grad_out)
}

/// Clamps perturbed snapshots back into the valid feature domain
/// `[-1, 1]` (FGSM perturbations must remain within sensor encoding
/// bounds to be transmittable).
fn clamp_domain(x: Tensor) -> Tensor {
    x.clamp(-1.0, 1.0)
}

/// AFP attack (Eq. 6): maximizes anomaly scores of benign inputs.
pub fn afp_attack(critic: &mut Sequential, x_benign: &Tensor, epsilon: f32) -> Tensor {
    let grad_s = score_gradient(critic, x_benign);
    let mut adv = x_benign.clone();
    adv.add_scaled(&grad_s.sign(), epsilon);
    clamp_domain(adv)
}

/// AFN attack (Eq. 7): minimizes anomaly scores of misbehavior inputs.
pub fn afn_attack(critic: &mut Sequential, x_anom: &Tensor, epsilon: f32) -> Tensor {
    let grad_s = score_gradient(critic, x_anom);
    let mut adv = x_anom.clone();
    adv.add_scaled(&grad_s.sign(), -epsilon);
    clamp_domain(adv)
}

/// Adaptive multi-model AFP (§V-B.2): the attacker has white-box access to
/// **all** critics and ascends the gradient of the ensemble-mean anomaly
/// score.
///
/// # Panics
///
/// Panics if `critics` is empty.
pub fn multi_model_afp(critics: &mut [&mut Sequential], x_benign: &Tensor, epsilon: f32) -> Tensor {
    assert!(!critics.is_empty(), "need at least one critic");
    let mut total = Tensor::zeros(x_benign.shape());
    for critic in critics.iter_mut() {
        total += &score_gradient(critic, x_benign);
    }
    let mut adv = x_benign.clone();
    adv.add_scaled(&total.sign(), epsilon);
    clamp_domain(adv)
}

/// The random-noise control: a ±ε perturbation with random signs, matching
/// the FGSM perturbation's magnitude but not its direction (§V-B).
pub fn random_noise(x: &Tensor, epsilon: f32, rng: &mut StdRng) -> Tensor {
    let mut adv = x.clone();
    for v in adv.as_mut_slice() {
        *v += if rng.gen_bool(0.5) { epsilon } else { -epsilon };
    }
    clamp_domain(adv)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::WganConfig;
    use crate::wgan::Wgan;
    use vehigan_tensor::init::{rand_uniform, seeded_rng};

    fn benign(n: usize, seed: u64) -> Tensor {
        let mut rng = seeded_rng(seed);
        let base = rand_uniform(&[n, 1], -0.2, 0.2, &mut rng);
        let mut data = Vec::with_capacity(n * 120);
        for i in 0..n {
            for j in 0..120 {
                data.push(base.as_slice()[i] + 0.05 * (j as f32 * 0.4).cos());
            }
        }
        Tensor::from_vec(data, &[n, 10, 12, 1])
    }

    fn trained_wgan(seed: u64) -> Wgan {
        let config = WganConfig {
            noise_dim: 8,
            layers: 3,
            epochs: 3,
            batch_size: 32,
            n_critic: 1,
            seed,
            ..WganConfig::default()
        };
        let mut w = Wgan::new(config);
        w.train(&benign(128, seed ^ 0xF00));
        w
    }

    #[test]
    fn score_gradient_matches_finite_differences() {
        let mut wgan = trained_wgan(0);
        let x = benign(1, 1);
        let analytic = score_gradient(wgan.critic_mut(), &x);
        let numeric = vehigan_tensor::gradcheck::finite_diff_grad(
            |xx| {
                let mut c = Sequential::from_bytes(&wgan.critic_bytes()).expect("roundtrip");
                -c.forward(xx).sum()
            },
            &x,
            5e-3,
        );
        let err = vehigan_tensor::gradcheck::max_relative_error(&analytic, &numeric);
        // GP-trained critics carry more curvature, so central differences
        // at this step size are less exact than the layer-level checks.
        assert!(err < 5e-2, "err={err}");
    }

    #[test]
    fn afp_raises_anomaly_scores() {
        let mut wgan = trained_wgan(2);
        let x = benign(32, 3);
        let before = wgan.score_batch(&x);
        let adv = afp_attack(wgan.critic_mut(), &x, 0.01);
        let after = wgan.score_batch(&adv);
        let raised = before.iter().zip(&after).filter(|(b, a)| a > b).count();
        assert!(raised >= 30, "only {raised}/32 scores rose");
    }

    #[test]
    fn afn_lowers_anomaly_scores() {
        let mut wgan = trained_wgan(4);
        let mut rng = seeded_rng(5);
        let anomalies = rand_uniform(&[32, 10, 12, 1], -1.0, 1.0, &mut rng);
        let before = wgan.score_batch(&anomalies);
        let adv = afn_attack(wgan.critic_mut(), &anomalies, 0.01);
        let after = wgan.score_batch(&adv);
        let lowered = before.iter().zip(&after).filter(|(b, a)| a < b).count();
        assert!(lowered >= 30, "only {lowered}/32 scores fell");
    }

    #[test]
    fn perturbation_is_epsilon_bounded() {
        let mut wgan = trained_wgan(6);
        let x = benign(8, 7);
        let eps = 0.015;
        let adv = afp_attack(wgan.critic_mut(), &x, eps);
        for (a, b) in adv.as_slice().iter().zip(x.as_slice()) {
            assert!((a - b).abs() <= eps + 1e-6);
        }
        assert!(adv.max() <= 1.0 && adv.min() >= -1.0);
    }

    #[test]
    fn afp_beats_random_noise_at_same_epsilon() {
        // The core Fig 5a contrast: gradient-directed ε-perturbations move
        // scores far more than random ±ε noise.
        let mut wgan = trained_wgan(8);
        let x = benign(64, 9);
        let eps = 0.01;
        let before = wgan.score_batch(&x);
        let adv = afp_attack(wgan.critic_mut(), &x, eps);
        let mut rng = seeded_rng(10);
        let noisy = random_noise(&x, eps, &mut rng);
        let adv_scores = wgan.score_batch(&adv);
        let noise_scores = wgan.score_batch(&noisy);
        let mean = |v: &[f32]| v.iter().sum::<f32>() / v.len() as f32;
        let adv_shift = mean(&adv_scores) - mean(&before);
        let noise_shift = (mean(&noise_scores) - mean(&before)).abs();
        assert!(
            adv_shift > 3.0 * noise_shift,
            "adv {adv_shift} vs noise {noise_shift}"
        );
    }

    #[test]
    fn multi_model_attack_raises_mean_score() {
        let mut w1 = trained_wgan(11);
        let mut w2 = trained_wgan(12);
        let x = benign(16, 13);
        let before: f32 = w1
            .score_batch(&x)
            .iter()
            .zip(w2.score_batch(&x))
            .map(|(a, b)| (a + b) / 2.0)
            .sum();
        let adv = {
            let mut critics = [w1.critic_mut(), w2.critic_mut()];
            multi_model_afp(&mut critics, &x, 0.01)
        };
        let after: f32 = w1
            .score_batch(&adv)
            .iter()
            .zip(w2.score_batch(&adv))
            .map(|(a, b)| (a + b) / 2.0)
            .sum();
        assert!(after > before);
    }

    #[test]
    fn attacks_leave_the_victims_gradient_accumulators_untouched() {
        // Accumulators an attack must hand back as it found them: non-zero
        // ones, as a critic borrowed mid-training has.
        let mut w1 = trained_wgan(19);
        let mut w2 = trained_wgan(20);
        let x = benign(8, 21);
        let mark = |critic: &mut Sequential| {
            for (i, p) in critic.params_mut().into_iter().enumerate() {
                p.grad.map_in_place(|_| 0.25 + i as f32);
            }
        };
        let grads = |critic: &Sequential| -> Vec<Vec<u32>> {
            let params = critic.params();
            let bits = params
                .iter()
                .map(|p| p.grad.as_slice().iter().map(|g| g.to_bits()).collect());
            bits.collect()
        };
        mark(w1.critic_mut());
        mark(w2.critic_mut());
        let (before1, before2) = (grads(w1.critic()), grads(w2.critic()));
        let _ = afp_attack(w1.critic_mut(), &x, 0.01);
        {
            let mut critics = [w1.critic_mut(), w2.critic_mut()];
            let _ = multi_model_afp(&mut critics, &x, 0.01);
        }
        assert_eq!(grads(w1.critic()), before1);
        assert_eq!(grads(w2.critic()), before2);
    }

    #[test]
    fn random_noise_is_plus_minus_epsilon() {
        let x = Tensor::zeros(&[2, 10, 12, 1]);
        let mut rng = seeded_rng(14);
        let noisy = random_noise(&x, 0.02, &mut rng);
        for v in noisy.as_slice() {
            assert!((v.abs() - 0.02).abs() < 1e-7);
        }
    }
}
