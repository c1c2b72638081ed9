//! Cross-crate integration tests: the paper's headline claims, checked
//! end-to-end on a shared small-scale trained system.
//!
//! These assert *shapes*, not absolute numbers: who wins, what stays flat,
//! what collapses under attack — per the reproduction contract in
//! DESIGN.md §3.

use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};
use vehigan::core::adversarial::{afn_attack, afp_attack, multi_model_afp};
use vehigan::core::{Pipeline, PipelineConfig};
use vehigan::features::{Representation, WindowDataset};
use vehigan::lite::Int8Ensemble;
use vehigan::metrics::auroc;
use vehigan::tensor::Sequential;
use vehigan::vasp::Attack;

fn pipeline() -> MutexGuard<'static, Pipeline> {
    static SHARED: OnceLock<Mutex<Pipeline>> = OnceLock::new();
    SHARED
        .get_or_init(|| {
            let mut config = PipelineConfig::tiny();
            config.sim.n_vehicles = 16;
            config.sim.duration_s = 60.0;
            config.top_m = 4;
            config.deploy_k = 4;
            Mutex::new(Pipeline::run(config))
        })
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
}

/// One attack's windows on the held-out fleet.
fn test_attack(p: &Pipeline, attack: Attack) -> WindowDataset {
    p.plane(p.test_fleet(), Representation::Engineered)
        .attack_windows(attack)
}

/// The benign windows of the held-out fleet.
fn test_benign(p: &Pipeline) -> WindowDataset {
    p.plane(p.test_fleet(), Representation::Engineered)
        .benign_windows()
}

fn rate_above(scores: &[f32], tau: f32) -> f64 {
    scores.iter().filter(|&&s| s > tau).count() as f64 / scores.len() as f64
}

#[test]
fn ensemble_matches_or_beats_best_single_model_on_validation() {
    // Fig 4's premise: ensembling harnesses individual strengths.
    let p = pipeline();
    let m = p.vehigan.m();
    let members: Vec<usize> = (0..m).collect();
    let mut ens_sum = 0.0;
    let mut best_single = 0.0f64;
    let validation = p.validation.clone();
    for single in 0..m {
        let mut s = 0.0;
        for (_, ds) in &validation {
            let scores = p.vehigan.score_with_members(&[single], &ds.x).unwrap();
            s += auroc(&scores.scores, &ds.labels);
        }
        best_single = best_single.max(s / validation.len() as f64);
    }
    for (_, ds) in &validation {
        let scores = p.vehigan.score_with_members(&members, &ds.x).unwrap();
        ens_sum += auroc(&scores.scores, &ds.labels);
    }
    let ens = ens_sum / validation.len() as f64;
    assert!(
        ens > best_single - 0.05,
        "ensemble {ens:.3} fell more than 0.05 below best single {best_single:.3}"
    );
}

#[test]
fn advanced_coupled_attacks_are_detected() {
    // Table III's last six rows: the coherent heading&yaw-rate attacks.
    let p = pipeline();
    let members: Vec<usize> = (0..p.vehigan.m()).collect();
    let mut sum = 0.0;
    let mut n = 0;
    for attack in Attack::catalog().into_iter().filter(Attack::is_advanced) {
        let ds = test_attack(&p, attack);
        let result = p.vehigan.score_with_members(&members, &ds.x).unwrap();
        sum += auroc(&result.scores, &ds.labels);
        n += 1;
    }
    let avg = sum / n as f64;
    assert!(avg > 0.7, "advanced-attack average AUROC {avg:.3} too low");
}

#[test]
fn whitebox_afp_cripples_single_model_but_not_ensemble() {
    // The §V-B shape, stated in score shifts (threshold-free, so it holds
    // at any training scale): a white-box AFP attack moves the victim's
    // anomaly scores far more than (a) random noise of equal ε and (b)
    // the *per-member average* shift the adaptive multi-model attack can
    // achieve against the whole ensemble — the diverse-loss-landscape /
    // non-transferability property the paper credits for robustness.
    let mut p = pipeline();
    let benign = test_benign(&p);
    let idx: Vec<usize> = (0..benign.len().min(300)).collect();
    let x = benign.x.take(&idx);
    let eps = 0.01;
    let mean = |v: &[f32]| v.iter().sum::<f32>() as f64 / v.len() as f64;

    let (single_shift, noise_shift) = {
        let member = &mut p.vehigan.members_mut()[0];
        let before = mean(&member.wgan.score_batch(&x));
        let adv = afp_attack(member.wgan.critic_mut(), &x, eps);
        let shift = mean(&member.wgan.score_batch(&adv)) - before;
        let noisy = vehigan::core::adversarial::random_noise(
            &x,
            eps,
            &mut vehigan::tensor::init::seeded_rng(9),
        );
        let nshift = (mean(&member.wgan.score_batch(&noisy)) - before).abs();
        (shift, nshift)
    };

    let m = p.vehigan.m();
    let all: Vec<usize> = (0..m).collect();
    let before_ens = mean(&p.vehigan.score_with_members(&all, &x).unwrap().scores);
    let adv_multi = {
        let members = p.vehigan.members_mut();
        let mut critics: Vec<&mut Sequential> =
            members.iter_mut().map(|c| c.wgan.critic_mut()).collect();
        multi_model_afp(&mut critics, &x, eps)
    };
    let ensemble_shift = mean(
        &p.vehigan
            .score_with_members(&all, &adv_multi)
            .unwrap()
            .scores,
    ) - before_ens;

    assert!(
        single_shift > 3.0 * noise_shift,
        "AFP shift {single_shift:.4} should dwarf noise shift {noise_shift:.4}"
    );
    assert!(
        ensemble_shift < single_shift,
        "ensemble shift {ensemble_shift:.4} not below single-model shift {single_shift:.4}"
    );
}

#[test]
fn afn_attacks_are_intrinsically_ineffective() {
    // Fig 5b: pushing misbehavior toward "benign" does not make it benign.
    let mut p = pipeline();
    let ds = test_attack(&p, Attack::by_name("RandomPosition").unwrap());
    let mal: Vec<usize> = ds.malicious_indices().into_iter().take(150).collect();
    let x = ds.x.take(&mal);
    let member = &mut p.vehigan.members_mut()[0];
    let fnr_before = 1.0 - rate_above(&member.wgan.score_batch(&x), member.threshold);
    let adv = afn_attack(member.wgan.critic_mut(), &x, 0.01);
    let fnr_after = 1.0 - rate_above(&member.wgan.score_batch(&adv), member.threshold);
    assert!(
        fnr_after < fnr_before + 0.25,
        "AFN moved FNR {fnr_before:.3} → {fnr_after:.3}; should stay ineffective"
    );
}

#[test]
fn benign_false_positive_rate_respects_calibration() {
    // §III-F: τ at the 99th percentile keeps un-attacked FPR low.
    let p = pipeline();
    let benign = test_benign(&p);
    let all: Vec<usize> = (0..p.vehigan.m()).collect();
    let result = p.vehigan.score_with_members(&all, &benign.x).unwrap();
    let fpr = rate_above(&result.scores, result.threshold);
    assert!(fpr < 0.15, "benign FPR {fpr:.3} too high");
}

#[test]
fn lite_critic_preserves_detection_quality() {
    // Fig 8's implicit claim: the quantized path detects as well as float.
    let mut p = pipeline();
    let ds = test_attack(&p, Attack::by_name("RandomSpeed").unwrap());
    let member = &mut p.vehigan.members_mut()[0];
    let float_scores = member.wgan.score_batch(&ds.x);
    let snap = member.wgan.critic().save();
    // A few hundred benign windows pin the activation ranges.
    let benign = &p.train_windows.x.as_slice()[..p.train_windows.len().min(256) * 120];
    let mut lite = Int8Ensemble::compile(&[&snap], (10, 12, 1), benign).expect("compiles");
    let lite_scores = lite.score_all(ds.x.as_slice(), ds.len());
    let float_auroc = auroc(&float_scores, &ds.labels);
    let lite_auroc = auroc(&lite_scores, &ds.labels);
    assert!(
        (float_auroc - lite_auroc).abs() < 0.02,
        "quantization changed AUROC {float_auroc:.3} → {lite_auroc:.3}"
    );
}

#[test]
fn streaming_detection_flags_the_attacker_not_the_honest() {
    use vehigan::serve::{Decision, EscalationPolicy, ServerConfig, StreamServer};
    use vehigan::tensor::init::seeded_rng;
    use vehigan::vasp::{inject, AttackParams, AttackPolicy};

    let p = pipeline();
    let fleet = p.test_fleet().to_vec();
    let attack = Attack::by_name("HighHeadingYawRate").unwrap();
    let mut rng = seeded_rng(5);
    let attacked = inject(
        &fleet[0],
        attack,
        AttackPolicy::Persistent,
        &AttackParams::default(),
        &mut rng,
    );
    let honest = &fleet[1];

    // One `Always` server over `members` streams both vehicles; their
    // decisions, attacker's first.
    let streamed = |members: Vec<usize>| -> [Vec<Decision>; 2] {
        let config = ServerConfig {
            policy: EscalationPolicy::Always,
            members: Some(members),
            ..ServerConfig::default()
        };
        let mut server = StreamServer::new(&p.vehigan, p.scaler.clone(), config).unwrap();
        server.ingest_batch(&attacked.trace.bsms);
        server.ingest_batch(&honest.bsms);
        let decisions = server.tick().unwrap();
        [attacked.trace.id, honest.id].map(|id| {
            decisions
                .iter()
                .filter(|d| d.vehicle == id)
                .copied()
                .collect()
        })
    };

    let deployed = streamed((0..p.vehigan.k()).collect());
    let [attacker_rate, honest_rate] =
        deployed.map(|d| d.iter().filter(|d| d.flagged).count() as f64 / d.len().max(1) as f64);
    assert!(
        attacker_rate >= honest_rate,
        "attacker flagged {attacker_rate:.2}, honest {honest_rate:.2}"
    );
    // The robust claim is the score ordering: streamed attacker windows
    // must score clearly above streamed honest windows on average.
    let everyone = streamed((0..p.vehigan.m()).collect());
    let [attacker_mean, honest_mean] =
        everyone.map(|d| d.iter().map(|d| f64::from(d.score)).sum::<f64>() / d.len().max(1) as f64);
    assert!(
        attacker_mean > honest_mean,
        "attacker mean score {attacker_mean:.4} not above honest {honest_mean:.4}"
    );
}

#[test]
fn feature_engineering_beats_raw_for_autoencoder() {
    // Table III BaseAE vs VehiAE on a representative attack.
    use vehigan::baselines::{flatten_windows, AeConfig, AeDetector, AnomalyDetector};
    let p = pipeline();
    let config = AeConfig {
        epochs: 8,
        ..AeConfig::default()
    };
    let attack = Attack::by_name("RandomSpeedOffset").unwrap();

    let eng_train = &p.train_windows;
    let eng_test = test_attack(&p, attack);
    let mut vehi_ae = AeDetector::new(config);
    vehi_ae.fit(&flatten_windows(&eng_train.x));
    let vehi_scores = vehi_ae.score_batch(&flatten_windows(&eng_test.x));
    let vehi = auroc(&vehi_scores, &eng_test.labels);

    let raw_train = p
        .plane(p.train_fleet(), Representation::Raw)
        .benign_windows();
    let raw_test = p
        .plane(p.test_fleet(), Representation::Raw)
        .attack_windows(attack);
    let mut base_ae = AeDetector::new(config);
    base_ae.fit(&flatten_windows(&raw_train.x));
    let base_scores = base_ae.score_batch(&flatten_windows(&raw_test.x));
    let base = auroc(&base_scores, &raw_test.labels);

    assert!(
        vehi > base - 0.05,
        "engineered features should not lose to raw: Vehi-AE {vehi:.3} vs Base-AE {base:.3}"
    );
}
