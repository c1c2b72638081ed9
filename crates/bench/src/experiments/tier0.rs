//! Tier-0 campaign escalation-safety proof: the CUSUM/EWMA kinematic
//! monitors in front of the int8 ensemble (DESIGN.md §12) never suppress
//! a window the gate would escalate, and cost no ranking quality.
//!
//! `vehigan-bench tier0 --scale quick` trains the quick system, builds
//! the `Deployment` — a [`Tier0Calibration`] fit on the benign training
//! fleet and tightened with [`Tier0Calibration::constrain`] — and decides
//! the Table III campaign through the served rule offline
//! ([`crate::served`]). The replay steps each vehicle's `Suppression`
//! once per campaign window, at the dataset stride (4 at `--scale
//! quick`), where the server completes a window on every BSM: offline
//! `refresh = 3` lets a carried score stand for up to 16 BSMs against the
//! server's 4, and the proof is a statement about that cadence. What the
//! gated server does under traffic is the perf ledger's (`benchmark/`:
//! `items_per_s`, `tick_p90_ms`, `serve.tier0_suppressed_frac`).
//!
//! The run panics unless both gates hold (the CI smoke step):
//!
//! - **zero** suppressed campaign windows whose gate score escalates
//!   past τ_esc, exhaustively over all 36 campaign datasets;
//! - AUROC degradation of the served decisions vs the screened ones
//!   (always-tier-1) ≤ `AUROC_DELTA_BUDGET` on every attack.

use crate::harness::Harness;
use crate::served::{self, dataset_traces, scores, walk, Screened, AUROC_DELTA_BUDGET};
use std::collections::HashMap;
use vehigan_features::{Tier0Calibration, Tier0State};
use vehigan_metrics::{auroc, percentile};
use vehigan_serve::{escalation_threshold, Decision, EscalationPolicy, ServerConfig};
use vehigan_sim::Bsm;
use vehigan_vasp::DatasetBuilder;

/// Benign quantile the per-statistic decision intervals are fit at.
pub(crate) const BENIGN_QUANTILE: f64 = 0.995;

/// Escalation cutoff percentile on benign gate scores. The tier-0 proof
/// pins this at the benign **maximum** (p100): escalation then means
/// "the int8 gate scored this above anything the benign campaign ever
/// produced", so the escalating set `constrain` must stay below contains
/// only genuinely attacked windows. At interior percentiles (the `quant`
/// experiment's mixture column uses 97.5) the escalating set contains
/// benign gate false-positives by construction — physics-normal windows
/// whose monitor ratios sit deep inside the benign bulk — and the
/// zero-violation constraint would collapse the suppression scale to
/// their minimum ratio (~p0.5 of benign), destroying coverage.
pub(crate) const ESCALATION_PERCENTILE: f64 = 100.0;

/// The gated deployment the proof vouches for — the first `k` members on
/// both tiers, τ_esc at the benign maximum gate score, and the
/// constrained calibration — with every campaign dataset (the attacks in
/// Table III order, then benign) screened through it.
pub(crate) struct Deployment {
    /// The served configuration, tier 0 armed.
    config: ServerConfig,
    /// The escalation cutoff of `config`'s gate.
    tau_esc: f32,
    /// Each dataset's attacker traces, keyed by fleet index.
    attackers: Vec<HashMap<usize, Vec<Bsm>>>,
    /// Each dataset's windows through the screening tiers.
    screened: Vec<Screened>,
}

impl Deployment {
    /// Compiles the int8 backend, fits and bands the calibration, screens
    /// the campaign and tightens the calibration below every window whose
    /// gate score escalates, in campaign order; prints the calibration
    /// and what the tightening did.
    pub(crate) fn build(harness: &mut Harness) -> Deployment {
        harness.pipeline.compile_int8().expect("int8 compiles");
        let harness = &*harness;
        let members: Vec<usize> = (0..harness.pipeline.vehigan.k()).collect();
        let wcfg = harness.pipeline.config.window;
        let (window, stride) = (wcfg.window, wcfg.stride);
        let train = harness.pipeline.train_fleet();
        let mut cal = Tier0Calibration::fit(train, window, BENIGN_QUANTILE).expect("tier-0 fits");
        let benign_gate = harness.gate_scores(&members, &harness.benign_windows.x);
        let tau_esc = escalation_threshold(&benign_gate, ESCALATION_PERCENTILE);
        let tau_detect = percentile(&benign_gate, 99.0);
        let band_floor = percentile(&benign_gate, 10.0);
        let band_ceil = percentile(&benign_gate, 50.0);
        assert!(
            band_ceil < tau_esc,
            "benign gate-score distribution degenerate: p50 {band_ceil} >= tau_esc {tau_esc}"
        );
        cal.set_score_band(band_floor, band_ceil, tau_detect);
        println!(
            "calibration: quantile {BENIGN_QUANTILE}, warmup {window}, band \
             [{band_floor:.4}, {band_ceil:.4}] under tau_esc {tau_esc:.4} / tau {tau_detect:.4}"
        );

        let fleet = harness.pipeline.test_fleet();
        let builder = DatasetBuilder::new(fleet, harness.pipeline.config.dataset.clone());
        let attack_traces = |&attack| -> HashMap<usize, Vec<Bsm>> {
            let traces = builder.attacker_traces(attack).into_iter();
            traces.map(|(i, lt)| (i, lt.trace.bsms)).collect()
        };
        let attackers: Vec<_> = harness
            .attacks
            .iter()
            .map(attack_traces)
            .chain([HashMap::new()])
            .collect();
        let mut config = served::config(harness, EscalationPolicy::Threshold(tau_esc), members);
        let mut detector = served::detector(harness, &config);
        let datasets = harness
            .attack_windows
            .iter()
            .chain([&harness.benign_windows]);

        // Each dataset is screened, then walked in the screening order for
        // the escalation-consistency pass over its monitor statistics.
        let mut screened = Vec::with_capacity(attackers.len());
        let (mut escalating, mut tightened, mut binding) = (0, 0, None);
        let mut benign_ratios = Vec::new();
        for (di, (a, ds)) in attackers.iter().zip(datasets).enumerate() {
            let traces = dataset_traces(fleet, a);
            let s = Screened::dataset(&mut detector, &traces, &ds.x, stride);
            let mut gate = s.gate.iter();
            for bsms in traces {
                let mut state = Tier0State::new(&cal.params);
                walk(bsms, window, stride, |prev, curr, completes| {
                    state.push(&cal.params, prev, curr);
                    if !completes {
                        return;
                    }
                    let stats = state.statistics(&cal.params);
                    let g = *gate.next().expect("a gate score per window");
                    if di == harness.attacks.len() {
                        benign_ratios.push(cal.ratio(&stats));
                    }
                    if g > tau_esc {
                        escalating += 1;
                        if cal.constrain(&stats) {
                            tightened += 1;
                            binding = Some((di, cal.ratio(&stats), g));
                        }
                    }
                });
            }
            screened.push(s);
        }
        // The benign ratio envelope tells how much suppression a given
        // scale buys: suppression ≈ the percentile `scale` sits at.
        benign_ratios.sort_by(f32::total_cmp);
        let bq = |p: f64| percentile(&benign_ratios, p);
        println!(
            "constrain: {escalating} escalating campaign windows, {tightened} tightenings, \
             final scale {:.4}; benign ratio p50/p60/p75/p90 = {:.3}/{:.3}/{:.3}/{:.3}",
            cal.scale,
            bq(50.0),
            bq(60.0),
            bq(75.0),
            bq(90.0)
        );
        if let Some((di, ratio, g)) = binding {
            let name = harness
                .attacks
                .get(di)
                .map_or("benign".into(), |a| a.name());
            println!("constrain: binding window from {name}: ratio {ratio:.4}, gate score {g:.4}");
        }
        config.tier0 = Some(cal);
        Deployment {
            config,
            tau_esc,
            attackers,
            screened,
        }
    }

    /// The served decisions on every campaign dataset.
    pub(crate) fn serve(&self, harness: &Harness) -> Vec<Vec<Decision>> {
        let detector = served::detector(harness, &self.config);
        let (fleet, stride) = (
            harness.pipeline.test_fleet(),
            harness.pipeline.config.window.stride,
        );
        self.attackers
            .iter()
            .zip(&self.screened)
            .map(|(a, s)| s.serve(&detector, &self.config, &dataset_traces(fleet, a), stride))
            .collect()
    }
}

/// Runs the tier-0 campaign proof on a trained harness.
pub fn run(harness: &mut Harness) {
    println!("Tier-0 physics gate: campaign escalation-safety proof");
    let deployment = Deployment::build(harness);
    let tau_esc = deployment.tau_esc;

    // --- Exhaustive safety check + per-attack AUROC degradation. ---
    let served = deployment.serve(harness);
    let (mut violations, mut campaign_suppressed, mut campaign_windows) = (0, 0, 0);
    let (mut max_delta, mut mean_delta) = (f64::NEG_INFINITY, 0.0);
    let (mut worst_attack, mut benign_campaign_rate) = (String::new(), 0.0);
    for (di, (screened, served)) in deployment.screened.iter().zip(&served).enumerate() {
        let suppressed = served.iter().filter(|d| d.suppressed).count();
        let escalates = served.iter().zip(&screened.gate);
        violations += escalates
            .filter(|(d, &g)| d.suppressed && g > tau_esc)
            .count();
        let Some(attack) = harness.attacks.get(di) else {
            benign_campaign_rate = suppressed as f64 / served.len() as f64;
            continue;
        };
        campaign_suppressed += suppressed;
        campaign_windows += served.len();
        // Signed degradation: positive = the gate cost ranking quality.
        let labels = &harness.attack_windows[di].labels;
        let delta = auroc(&scores(&screened.decisions), labels) - auroc(&scores(served), labels);
        mean_delta += delta;
        if delta > max_delta {
            max_delta = delta;
            worst_attack = attack.name();
        }
    }
    mean_delta /= harness.attacks.len() as f64;
    println!(
        "campaign: AUROC degradation mean {mean_delta:.5}, max {max_delta:.5} ({worst_attack}); \
         suppressed {campaign_suppressed}/{campaign_windows} attack-dataset windows, \
         benign dataset {benign_campaign_rate:.3}, violations {violations}"
    );

    // --- Gates. ---
    assert_eq!(
        violations, 0,
        "tier 0 suppressed {violations} campaign windows whose tier-1 score escalates"
    );
    assert!(
        max_delta <= AUROC_DELTA_BUDGET,
        "tier-0 AUROC degradation {max_delta:.5} exceeds the {AUROC_DELTA_BUDGET} budget \
         ({worst_attack})"
    );
    println!("gates: violations 0 ok, AUROC degradation {max_delta:.5} <= {AUROC_DELTA_BUDGET} ok");
}
