//! Tier-0 campaign escalation-safety proof: the CUSUM/EWMA kinematic
//! monitors in front of the int8 ensemble (DESIGN.md §12) never suppress
//! a window the gate would escalate, and cost no ranking quality.
//!
//! Run via `vehigan-bench tier0 --scale quick` (trains the quick system,
//! fits a [`Tier0Calibration`] on the benign training fleet, tightens it
//! with [`Tier0Calibration::constrain`] and replays the serve suppression
//! policy over the Table III campaign, offline). What the gated server
//! does under traffic — throughput, tick latency, benign suppression —
//! is the perf ledger's to measure (`benchmark/`: `items_per_s`,
//! `tick_p90_ms`, `serve.tier0_suppressed_frac`).
//!
//! The run **gates** its own acceptance criteria and panics when they
//! fail (so the CI smoke step catches regressions):
//!
//! - **zero** suppression of any campaign window whose always-tier-1
//!   score would have escalated past τ_esc — checked exhaustively over
//!   all 36 campaign datasets after [`Tier0Calibration::constrain`]
//!   tightens the suppression scale below every escalating window;
//! - AUROC degradation of the gated pipeline vs always-tier-1 over the
//!   35-attack Table III campaign ≤ 0.01 per attack.

use crate::harness::Harness;
use std::collections::HashMap;
use vehigan_features::{GateDecision, Tier0Calibration, Tier0Monitor, NUM_STATISTICS};
use vehigan_metrics::{auroc, percentile};
use vehigan_serve::escalation_threshold;
use vehigan_sim::Bsm;
use vehigan_vasp::DatasetBuilder;

/// Maximum tolerated per-attack AUROC *degradation* of the gated
/// pipeline vs always-tier-1 over the attack campaign (ISSUE gate).
/// Signed, not absolute: suppressing a benign gate false-positive into
/// the pinned band can only *improve* ranking, and an improvement must
/// not trip the budget.
pub const AUROC_DELTA_BUDGET: f64 = 0.01;

/// Benign quantile the per-statistic decision intervals are fit at.
pub const BENIGN_QUANTILE: f64 = 0.995;

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
pub const ESCALATION_PERCENTILE: f64 = 100.0;

/// Streams one trace through a fresh monitor and snapshots it at every
/// dataset window boundary: window `k` (stride `s`) covers feature rows
/// `[k·s, k·s + w)`, row `i` is derived from messages `(i, i+1)`, so the
/// monitor state judged against window `k` is the state right after
/// message `k·s + w` — exactly what a serve shard would hold when that
/// window completes.
fn trace_snapshots(
    bsms: &[Bsm],
    cal: &Tier0Calibration,
    window: usize,
    stride: usize,
) -> Vec<Tier0Monitor> {
    if bsms.len() < 2 {
        return Vec::new();
    }
    let rows = bsms.len() - 1;
    if rows < window {
        return Vec::new();
    }
    let count = (rows - window) / stride + 1;
    let mut snaps = Vec::with_capacity(count);
    let mut monitor = Tier0Monitor::new(cal.params);
    let mut next = 0usize;
    for (i, bsm) in bsms.iter().enumerate() {
        monitor.push(bsm);
        if next < count && i == next * stride + window {
            snaps.push(monitor);
            next += 1;
        }
    }
    debug_assert_eq!(snaps.len(), count);
    snaps
}

/// Monitor snapshots for one campaign dataset: the benign test fleet
/// with the attacker traces (if any) spliced in at their fleet indices,
/// in fleet order — the same trace order `build_windows` uses.
fn dataset_snapshots(
    fleet: &[vehigan_sim::VehicleTrace],
    attackers: &HashMap<usize, Vec<Bsm>>,
    cal: &Tier0Calibration,
    window: usize,
    stride: usize,
) -> Vec<Tier0Monitor> {
    let mut snaps = Vec::new();
    for (i, t) in fleet.iter().enumerate() {
        let bsms = attackers.get(&i).map_or(&t.bsms[..], |b| &b[..]);
        snaps.extend(trace_snapshots(bsms, cal, window, stride));
    }
    snaps
}

/// Runs the tier-0 campaign proof on a trained harness.
pub fn run(harness: &mut Harness) {
    println!("Tier-0 physics gate: campaign escalation-safety proof");
    harness
        .pipeline
        .compile_int8()
        .expect("int8 backend compiles");
    let k = harness.pipeline.vehigan.k();
    let members: Vec<usize> = (0..k).collect();
    let wcfg = harness.pipeline.config.window;
    let (window, stride) = (wcfg.window, wcfg.stride);

    // --- Calibration: fit on the benign *training* fleet, band the
    // pinned scores inside the benign bulk of the tier-1 gate. ---
    let mut cal = Tier0Calibration::fit(harness.pipeline.train_fleet(), window, BENIGN_QUANTILE)
        .expect("tier-0 calibration fits");
    let benign_gate = harness.gate_scores(&members, &harness.benign_windows.x);
    let tau_esc = escalation_threshold(&benign_gate, ESCALATION_PERCENTILE);
    let tau_detect = percentile(&benign_gate, 99.0);
    let (band_floor, band_ceil) = (
        percentile(&benign_gate, 10.0),
        percentile(&benign_gate, 50.0),
    );
    assert!(
        band_ceil < tau_esc,
        "benign gate-score distribution degenerate: p50 {band_ceil} >= tau_esc {tau_esc}"
    );
    cal.set_score_band(band_floor, band_ceil, tau_detect);
    println!(
        "calibration: quantile {BENIGN_QUANTILE}, warmup {window}, band \
         [{band_floor:.4}, {band_ceil:.4}] under tau_esc {tau_esc:.4} / tau {tau_detect:.4}"
    );

    // --- Campaign alignment: monitor snapshot per dataset window. ---
    let test_fleet: Vec<vehigan_sim::VehicleTrace> = harness.pipeline.test_fleet().to_vec();
    let builder = DatasetBuilder::new(&test_fleet, harness.pipeline.config.dataset.clone());
    let no_attackers = HashMap::new();
    let benign_snaps = dataset_snapshots(&test_fleet, &no_attackers, &cal, window, stride);
    assert_eq!(
        benign_snaps.len(),
        harness.benign_windows.labels.len(),
        "benign monitor snapshots misaligned with the benign window dataset"
    );
    let n_attacks = harness.attacks.len();
    let mut attack_snaps: Vec<Vec<Tier0Monitor>> = Vec::with_capacity(n_attacks);
    let mut attack_gate: Vec<Vec<f32>> = Vec::with_capacity(n_attacks);
    for ai in 0..n_attacks {
        let attackers: HashMap<usize, Vec<Bsm>> = builder
            .attacker_traces(harness.attacks[ai])
            .into_iter()
            .map(|(i, lt)| (i, lt.trace.bsms))
            .collect();
        let snaps = dataset_snapshots(&test_fleet, &attackers, &cal, window, stride);
        assert_eq!(
            snaps.len(),
            harness.attack_windows[ai].labels.len(),
            "monitor snapshots misaligned with attack dataset {}",
            harness.attacks[ai].name()
        );
        attack_gate.push(harness.gate_scores(&members, &harness.attack_windows[ai].x));
        attack_snaps.push(snaps);
    }

    // --- Escalation-consistency pass: tighten the suppression scale
    // below every campaign window whose always-tier-1 score escalates,
    // across all 36 datasets (the 35 attacks share the benign 75%). ---
    let mut escalating = 0usize;
    let mut tightened = 0usize;
    let mut binding: Option<(String, f32, f32)> = None;
    let mut low: Vec<(String, usize, [f32; NUM_STATISTICS], f32, f32)> = Vec::new();
    for (di, (snaps, gate)) in attack_snaps
        .iter()
        .zip(&attack_gate)
        .chain(std::iter::once((&benign_snaps, &benign_gate)))
        .enumerate()
    {
        for (wi, (snap, &g)) in snaps.iter().zip(gate.iter()).enumerate() {
            if g > tau_esc {
                escalating += 1;
                let stats = snap.statistics();
                let ratio = cal.ratio(&stats);
                if ratio < 0.7 {
                    let name = harness
                        .attacks
                        .get(di)
                        .map(|a| a.name().to_string())
                        .unwrap_or_else(|| "benign".to_string());
                    let mut norm = [0f32; NUM_STATISTICS];
                    for i in 0..NUM_STATISTICS {
                        norm[i] = stats[i] / cal.h[i].max(1e-12) / cal.scale.max(1e-12);
                    }
                    low.push((name, wi, norm, ratio, g));
                }
                if cal.constrain(&stats) {
                    tightened += 1;
                    let name = harness
                        .attacks
                        .get(di)
                        .map(|a| a.name().to_string())
                        .unwrap_or_else(|| "benign".to_string());
                    binding = Some((name, cal.ratio(&stats), g));
                }
            }
        }
    }
    low.sort_by(|a, b| a.3.total_cmp(&b.3));
    println!(
        "constrain: {} escalating windows with pre-constrain ratio < 0.7:",
        low.len()
    );
    for (name, wi, norm, ratio, g) in low.iter().take(12) {
        println!(
            "  {name} w{wi}: ratio {ratio:.3}, gate {g:.3}, stats/h {:?}",
            norm.map(|v| (v * 1000.0).round() / 1000.0)
        );
    }
    // The benign max-ratio envelope tells how much suppression a given
    // scale buys: suppression ≈ the percentile `scale` sits at.
    let mut benign_ratios: Vec<f32> = benign_snaps
        .iter()
        .map(|s| cal.ratio(&s.statistics()))
        .collect();
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
    if let Some((name, ratio, g)) = binding {
        println!("constrain: binding window from {name}: ratio {ratio:.4}, gate score {g:.4}");
    }

    // --- Exhaustive safety check + per-attack AUROC drift. ---
    // Replays the serve suppression policy per vehicle: a window skips
    // tier-1 only when physics certifies it unchanged AND the vehicle
    // holds a fresh (streak < refresh) sub-detection tier-1 score to
    // carry forward — the same carry-forward the shards implement.
    let per_trace: Vec<usize> = test_fleet
        .iter()
        .map(|t| {
            let rows = t.bsms.len().saturating_sub(1);
            if rows < window {
                0
            } else {
                (rows - window) / stride + 1
            }
        })
        .collect();
    let mut violations = 0usize;
    let mut max_delta = f64::NEG_INFINITY;
    let mut mean_delta = 0.0f64;
    let mut worst_attack = String::new();
    let mut campaign_suppressed = 0usize;
    let mut campaign_windows = 0usize;
    for ai in 0..n_attacks {
        let ds = &harness.attack_windows[ai];
        let tier2 = harness.ensemble_attack_scores(&members, ai);
        let gate = &attack_gate[ai];
        let snaps = &attack_snaps[ai];
        let mut reference = Vec::with_capacity(gate.len());
        let mut gated = Vec::with_capacity(gate.len());
        let mut base = 0usize;
        for &count in &per_trace {
            let mut last: Option<f32> = None;
            let mut streak = 0u32;
            for i in base..base + count {
                let (g, t2v) = (gate[i], tier2[i]);
                let tiered = if g > tau_esc { t2v } else { g };
                reference.push(tiered);
                let carried = match last {
                    Some(l) if l < cal.tau && streak < cal.refresh => Some(l),
                    _ => None,
                };
                match carried.filter(|_| cal.evaluate(&snaps[i]).0 == GateDecision::Suppress) {
                    Some(l) => {
                        violations += (g > tau_esc) as usize;
                        campaign_suppressed += 1;
                        gated.push(l);
                        streak += 1;
                    }
                    None => {
                        gated.push(tiered);
                        last = Some(g);
                        streak = 0;
                    }
                }
            }
            base += count;
        }
        campaign_windows += gate.len();
        // Signed degradation: positive = the gate cost ranking quality.
        let delta = auroc(&reference, &ds.labels) - auroc(&gated, &ds.labels);
        mean_delta += delta;
        if delta > max_delta {
            max_delta = delta;
            worst_attack = harness.attacks[ai].name().to_string();
        }
    }
    mean_delta /= n_attacks as f64;
    let mut benign_campaign_suppressed = 0usize;
    {
        let mut base = 0usize;
        for &count in &per_trace {
            let mut last: Option<f32> = None;
            let mut streak = 0u32;
            for i in base..base + count {
                let g = benign_gate[i];
                let fresh = matches!(last, Some(l) if l < cal.tau && streak < cal.refresh);
                if fresh && cal.evaluate(&benign_snaps[i]).0 == GateDecision::Suppress {
                    violations += (g > tau_esc) as usize;
                    benign_campaign_suppressed += 1;
                    streak += 1;
                } else {
                    last = Some(g);
                    streak = 0;
                }
            }
            base += count;
        }
    }
    let benign_campaign_rate = benign_campaign_suppressed as f64 / benign_snaps.len() as f64;
    println!(
        "campaign: AUROC degradation mean {mean_delta:.5}, max {max_delta:.5} ({worst_attack}); \
         suppressed {campaign_suppressed}/{campaign_windows} attack-dataset windows, \
         benign dataset {benign_campaign_rate:.3}, violations {violations}"
    );

    // --- Gates (ISSUE acceptance criteria). ---
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
