//! Running a serve workload: one observed replay (kept decisions,
//! per-tick counters — the input of every correctness check and quality
//! metric, and the warm-up), measured replays until the time budget is
//! spent, then the untimed pure-f32 reference on a tenth of the stream.

use crate::check::{self, ReferenceScores, Tally};
use crate::drive::{replay, NoProbe, Replay, ServePlan};
use crate::gen::Stream;
use crate::stats::auroc;
use crate::timing::Timing;
use crate::workloads::{reference_server, RSU};
use std::time::Instant;
use vehigan_mbr::CertificateRevocationList;
use vehigan_serve::Decision;

/// Measured replays a run reports medians over, at the least.
pub const MIN_MEASURED_REPLAYS: usize = 3;

/// Quality of the served decisions — pure functions of seed and code.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quality {
    /// Window-level AUROC of the served scores (positive: the window of
    /// an attacker vehicle).
    pub auroc: f64,
    /// The same on the reference sub-stream only.
    pub auroc_sub: f64,
    /// AUROC of the pure-f32 reference server's scores for the same
    /// windows.
    pub auroc_ref: f64,
    /// Attacker vehicles with a pseudonym on the CRL ÷ attacker vehicles.
    pub attacker_revoked_frac: f64,
    /// Honest vehicles with a pseudonym on the CRL ÷ honest vehicles.
    pub honest_revoked_frac: f64,
    /// Vehicles whose CRL status matches their label (attacker revoked,
    /// honest not) ÷ vehicles.
    pub revocation_accuracy: f64,
}

impl Quality {
    /// `|auroc_sub − auroc_ref|`.
    pub fn auroc_drift(&self) -> f64 {
        (self.auroc_sub - self.auroc_ref).abs()
    }
}

/// Everything a serve run produced.
pub struct ServeRun {
    /// The observed (first, warm-up) replay.
    pub observed: Replay,
    /// Timing over the measured replays.
    pub timing: Timing,
    /// Largest heap growth of any measured replay, bytes.
    pub peak_heap_bytes: usize,
    /// Quality of the observed replay's decisions.
    pub quality: Quality,
    /// Attempted / failed / refused operation counts.
    pub tally: Tally,
    /// Correctness violations (empty on a correct run).
    pub violations: Vec<String>,
}

fn label(stream: &Stream, decisions: &[Decision]) -> (Vec<f32>, Vec<bool>) {
    let scores = decisions.iter().map(|d| d.score).collect();
    let labels = decisions
        .iter()
        .map(|d| stream.is_attacker(d.vehicle))
        .collect();
    (scores, labels)
}

/// `(attacker, honest)` shares of vehicles with at least one pseudonym
/// on `crl`, and the share of all vehicles whose CRL status matches
/// their label. A CRL entry that is not a generated pseudonym (the RSU
/// itself, say) is a violation.
fn revoked_fractions(
    stream: &Stream,
    crl: &CertificateRevocationList,
    violations: &mut Vec<String>,
) -> (f64, f64, f64) {
    let mut revoked = vec![false; stream.attacker.len()];
    for (p, _) in crl.iter() {
        match stream.owner.get(p.0 as usize) {
            Some(&v) => revoked[v as usize] = true,
            None => violations.push(format!("CRL holds {p}, which no vehicle was issued")),
        }
    }
    let count = |want_attacker: bool| {
        let total = stream
            .attacker
            .iter()
            .filter(|&&a| a == want_attacker)
            .count();
        let hit = stream
            .attacker
            .iter()
            .zip(&revoked)
            .filter(|(&a, &r)| a == want_attacker && r)
            .count();
        hit as f64 / total.max(1) as f64
    };
    let right = stream
        .attacker
        .iter()
        .zip(&revoked)
        .filter(|(a, r)| a == r)
        .count();
    (
        count(true),
        count(false),
        right as f64 / stream.attacker.len().max(1) as f64,
    )
}

/// Replays the `pseudonym % 10 == 0` sub-stream through the reference
/// server (every window to the f32 ensemble, no tier 0, no admission
/// bound) and returns its scores by window.
pub fn reference(plan: &ServePlan<'_>, stream: &Stream) -> ReferenceScores {
    let mut bsms = Vec::with_capacity(stream.bsms.len() / 8);
    let mut slices = Vec::with_capacity(stream.slices.len());
    for r in &stream.slices {
        let start = bsms.len();
        bsms.extend(
            stream.bsms[r.clone()]
                .iter()
                .filter(|b| check::in_reference(b.vehicle_id.0)),
        );
        slices.push(start..bsms.len());
    }
    // The reference replay reads decisions only, so the sub-stream
    // carries no oracle.
    let sub = Stream {
        bsms,
        slices,
        completes: Vec::new(),
        owner: stream.owner.clone(),
        attacker: stream.attacker.clone(),
        scms: stream.scms.clone(),
        ..*stream
    };
    let ref_plan = ServePlan {
        detector: plan.detector,
        server: reference_server(plan.detector),
        policy: plan.policy,
        evict: false,
        burst: None,
    };
    replay(&ref_plan, &sub, true, &mut NoProbe)
        .kept
        .iter()
        .map(|d| ((d.vehicle.0, d.timestamp.to_bits()), d.score.to_bits()))
        .collect()
}

/// Judges an observed replay: conservation, guard accounting, report
/// validity, CRL mirror, reference equality, quality.
pub fn judge(
    plan: &ServePlan<'_>,
    stream: &Stream,
    observed: &Replay,
) -> (Quality, Tally, Vec<String>) {
    let slice_bsms: Vec<u64> = stream.slices.iter().map(|r| r.len() as u64).collect();
    let mut violations = check::check_ticks(
        &observed.ticks,
        &slice_bsms,
        &stream.completes,
        stream.injected,
    );
    if observed.undrained > 0 {
        violations.push(format!("{} windows undrained", observed.undrained));
    }
    if observed.score_errors > 0 {
        violations.push(format!("{} scoring passes failed", observed.score_errors));
    }
    if observed.authority.rejected > 0 {
        violations.push(format!(
            "authority rejected {} server-emitted reports",
            observed.authority.rejected
        ));
    }
    if observed.mirror != observed.crl {
        violations.push("mirror CRL differs from the authority's CRL".to_string());
    }
    if observed.crl.record(RSU).is_some() {
        violations.push("the RSU revoked itself".to_string());
    }

    let ref_scores = reference(plan, stream);
    violations.extend(check::check_against_reference(&observed.kept, &ref_scores));

    // Served and reference AUROC over the same windows: the ones of the
    // sub-stream the served path decided (it may have shed some).
    let (scores, labels) = label(stream, &observed.kept);
    let sub: Vec<Decision> = observed
        .kept
        .iter()
        .filter(|d| check::in_reference(d.vehicle.0))
        .copied()
        .collect();
    let (sub_scores, sub_labels) = label(stream, &sub);
    let sub_ref_scores: Vec<f32> = sub
        .iter()
        .map(|d| {
            ref_scores
                .get(&(d.vehicle.0, d.timestamp.to_bits()))
                .map_or(f32::NAN, |&bits| f32::from_bits(bits))
        })
        .collect();
    let unmatched = sub_ref_scores.iter().filter(|s| s.is_nan()).count();
    if unmatched > 0 {
        violations.push(format!(
            "{unmatched} served windows of the sub-stream have no reference window"
        ));
    }
    let auroc_ref = auroc(&sub_ref_scores, &sub_labels).unwrap_or(f64::NAN);
    let (attacker_revoked_frac, honest_revoked_frac, revocation_accuracy) =
        revoked_fractions(stream, &observed.crl, &mut violations);
    let quality = Quality {
        auroc: auroc(&scores, &labels).unwrap_or(f64::NAN),
        auroc_sub: auroc(&sub_scores, &sub_labels).unwrap_or(f64::NAN),
        auroc_ref,
        attacker_revoked_frac,
        honest_revoked_frac,
        revocation_accuracy,
    };
    // NaN: a class is missing from the stream, so nothing was compared.
    if quality.auroc_drift().is_nan() || quality.auroc_drift() > check::AUROC_DRIFT_BUDGET {
        violations.push(format!(
            "auroc drift {} exceeds the {} budget (served {} vs reference {})",
            quality.auroc_drift(),
            check::AUROC_DRIFT_BUDGET,
            quality.auroc_sub,
            quality.auroc_ref
        ));
    }

    let (valid_rejected, corrupt_accepted) = check::guard_errors(&observed.ticks, stream.injected);
    let tally = Tally {
        valid_rejected,
        corrupt_accepted,
        shed: observed.stats.shed,
        undrained: observed.undrained,
        reports_rejected: observed.authority.rejected,
        score_errors: observed.score_errors,
        bsms: stream.bsms.len() as u64,
        windows: stream.completes.iter().sum(),
        reports: observed.stats.reports_emitted,
    };
    (quality, tally, violations)
}

/// Runs a serve workload end to end: the observed replay, then measured
/// replays for about `seconds` seconds (at least
/// [`MIN_MEASURED_REPLAYS`]), then the judgement.
pub fn run(plan: &ServePlan<'_>, stream: &Stream, seconds: f64) -> ServeRun {
    let observed = replay(plan, stream, true, &mut NoProbe);
    let started = Instant::now();
    let mut timing = Timing::new(observed.tick_decisions.iter().map(|&d| d > 0).collect());
    let mut diverged = Vec::new();
    let mut peak_heap_bytes = 0usize;
    // Stop before a replay that would overrun the budget.
    while timing.replays() < MIN_MEASURED_REPLAYS
        || started.elapsed().as_secs_f64() + observed.wall_s <= seconds
    {
        let r = replay(plan, stream, false, &mut NoProbe);
        if r.fnv != observed.fnv || r.stats != observed.stats || r.crl != observed.crl {
            diverged.push(format!(
                "replay diverged: decision_fnv {:016x} vs {:016x}",
                r.fnv, observed.fnv
            ));
        }
        peak_heap_bytes = peak_heap_bytes.max(r.peak_heap_bytes);
        if let Err(e) = timing.push(r.service_s) {
            diverged.push(e);
        }
    }
    let (quality, tally, mut violations) = judge(plan, stream, &observed);
    violations.extend(diverged);
    ServeRun {
        observed,
        timing,
        peak_heap_bytes,
        quality,
        tally,
        violations,
    }
}
