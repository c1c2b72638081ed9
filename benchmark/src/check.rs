//! Correctness checks run on every benchmark run. Each takes plain
//! observations and returns the violations it found as messages, so the
//! tests can plant a fault in the observations and watch it trip.

use crate::drive::TickRecord;
use crate::gen::Injected;
use std::collections::HashMap;
use vehigan_serve::Decision;

/// The committed AUROC drift budget between the tiered server and the
/// pure-f32 reference (DESIGN.md §10, §12).
pub const AUROC_DRIFT_BUDGET: f64 = 0.01;

/// Wrong outcomes counted while checking, by kind. A *refusal by
/// configuration* (a window shed under the admission bound) is counted
/// apart from an outcome the program got wrong.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Clean BSMs the ingest guard rejected.
    pub valid_rejected: u64,
    /// Corrupted BSMs the ingest guard accepted.
    pub corrupt_accepted: u64,
    /// Windows shed by the queue bound (refused, not wrong).
    pub shed: u64,
    /// Windows still queued after the drain ticks.
    pub undrained: u64,
    /// Well-formed reports the authority rejected.
    pub reports_rejected: u64,
    /// Scoring passes that returned an error.
    pub score_errors: u64,
    /// BSMs offered.
    pub bsms: u64,
    /// Windows the stream completes.
    pub windows: u64,
    /// Reports the server emitted.
    pub reports: u64,
}

impl Tally {
    /// Operations attempted: BSMs, windows and reports.
    pub fn attempted(&self) -> u64 {
        self.bsms + self.windows + self.reports
    }

    /// Operations the program got wrong.
    pub fn failed(&self) -> u64 {
        self.valid_rejected
            + self.corrupt_accepted
            + self.undrained
            + self.reports_rejected
            + self.score_errors
    }

    /// Share of attempted operations neither failed nor refused.
    pub fn ok_frac(&self) -> f64 {
        1.0 - (self.failed() + self.shed) as f64 / self.attempted().max(1) as f64
    }
}

/// Per-tick conservation over an observed replay.
///
/// `slice_bsms[s]` and `completes[s]` are the generator's BSM and
/// window-completion counts of stream slice `s`; `injected` what the
/// corruption injector did. Checks, at every tick: every BSM delivered is
/// either accepted or rejected; every window the stream has completed so
/// far is decided, shed or still pending; the three tier counters
/// partition the scored windows; no ingest worker panicked; every
/// drained report validates. At the end: per-class rejections equal the
/// injected counts.
pub fn check_ticks(
    ticks: &[TickRecord],
    slice_bsms: &[u64],
    completes: &[u64],
    injected: Injected,
) -> Vec<String> {
    let mut bad = Vec::new();
    let mut decided = 0u64;
    let mut completed = 0u64;
    for (i, t) in ticks.iter().enumerate() {
        let delivered: u64 = slice_bsms[t.first_slice..t.first_slice + t.n_slices]
            .iter()
            .sum();
        completed += completes[t.first_slice..t.first_slice + t.n_slices]
            .iter()
            .sum::<u64>();
        decided += t.decisions;
        if t.received != delivered {
            bad.push(format!(
                "tick {i}: received {} BSMs of {delivered} delivered",
                t.received
            ));
        }
        if t.received != t.accepted + t.rejected.total() {
            bad.push(format!(
                "tick {i}: received {} != accepted {} + rejected {}",
                t.received,
                t.accepted,
                t.rejected.total()
            ));
        }
        if completed != decided + t.stats.shed + t.pending_after {
            bad.push(format!(
                "tick {i}: {completed} windows completed != {decided} decided + {} shed + {} pending",
                t.stats.shed, t.pending_after
            ));
        }
        let s = &t.stats;
        if s.windows_scored != decided
            || s.tier0_suppressed + s.tier1_screened + s.tier2_escalated != s.windows_scored
        {
            bad.push(format!(
                "tick {i}: tiers {}+{}+{} do not partition {} scored ({decided} decided)",
                s.tier0_suppressed, s.tier1_screened, s.tier2_escalated, s.windows_scored
            ));
        }
        if t.panicked_shards > 0 {
            bad.push(format!(
                "tick {i}: {} ingest workers panicked",
                t.panicked_shards
            ));
        }
        if t.invalid_reports > 0 {
            bad.push(format!(
                "tick {i}: {} of {} emitted reports fail Mbr::validate",
                t.invalid_reports, t.reports
            ));
        }
        if bad.len() > 20 {
            bad.push("… further tick violations not listed".to_string());
            return bad;
        }
    }
    if let Some(last) = ticks.last() {
        let r = last.stats.rejected;
        for (class, got, want) in [
            ("non-finite", r.non_finite, injected.non_finite),
            ("out-of-range", r.out_of_range, injected.out_of_range),
            ("stale", r.stale, injected.stale),
        ] {
            if got != want {
                bad.push(format!(
                    "ingest guard rejected {got} {class} BSMs, {want} were injected"
                ));
            }
        }
    }
    bad
}

/// `(clean BSMs rejected, corrupted BSMs accepted)` implied by the final
/// per-class rejection counters against the injected counts.
pub fn guard_errors(ticks: &[TickRecord], injected: Injected) -> (u64, u64) {
    let Some(last) = ticks.last() else {
        return (0, 0);
    };
    let r = last.stats.rejected;
    let pairs = [
        (r.non_finite, injected.non_finite),
        (r.out_of_range, injected.out_of_range),
        (r.stale, injected.stale),
    ];
    let over = pairs.iter().map(|(g, w)| g.saturating_sub(*w)).sum();
    let under = pairs.iter().map(|(g, w)| w.saturating_sub(*g)).sum();
    (over, under)
}

/// Reference scores keyed by `(pseudonym, timestamp bits)`.
pub type ReferenceScores = HashMap<(u32, u64), u32>;

/// Every escalated decision the served path made for a vehicle the
/// reference server also saw must carry the reference's score bit for
/// bit: tile composition, tiering and admission cannot change a tier-2
/// score.
pub fn check_against_reference(kept: &[Decision], reference: &ReferenceScores) -> Vec<String> {
    let mut bad = Vec::new();
    for d in kept
        .iter()
        .filter(|d| d.escalated && in_reference(d.vehicle.0))
    {
        match reference.get(&(d.vehicle.0, d.timestamp.to_bits())) {
            Some(&bits) if bits == d.score.to_bits() => {}
            Some(&bits) => bad.push(format!(
                "{} at t={}: escalated score {:?} differs from reference {:?}",
                d.vehicle,
                d.timestamp,
                d.score,
                f32::from_bits(bits)
            )),
            None => bad.push(format!(
                "{} at t={}: escalated decision has no reference window",
                d.vehicle, d.timestamp
            )),
        }
        if bad.len() > 20 {
            bad.push("… further score mismatches not listed".to_string());
            break;
        }
    }
    bad
}

/// The reference sub-stream: every tenth pseudonym.
pub fn in_reference(pseudonym: u32) -> bool {
    pseudonym.is_multiple_of(10)
}
