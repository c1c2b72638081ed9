//! Bounded, decaying per-suspect evidence state.
//!
//! The seed authority retained every report in a per-suspect
//! `VecDeque<Mbr>` — unbounded memory (each report carries a ~480-byte
//! evidence snapshot) and O(queue) work per ingest to rebuild the
//! distinct-reporter set. [`SuspectEvidence`] replaces the queue with a
//! constant-size accumulator:
//!
//! - **`high_water`** — the maximum report timestamp seen for this
//!   suspect. Window expiry is keyed to this clock, *not* to the latest
//!   report's timestamp, so replaying an old timestamp can no longer
//!   hold stale evidence inside the window (the replay-expiry bug).
//! - **`weight`** — an exponentially decayed report count with half-life
//!   `window_s / 2`: a report contributes 1.0 when fresh and has decayed
//!   to 0.25 by the time it leaves the window, approximating the sliding
//!   window's hard cutoff with O(1) state. Conviction compares
//!   `weight.round()` against `min_reports`.
//! - **`margin`** — the same decay applied to report margins
//!   (score − threshold), so `margin / weight` is the decayed mean
//!   margin recorded on conviction.
//! - **`reporters`** — a window-pruned [`ReporterSet`] of at most
//!   [`crate::EXACT_CAP`] distinct reporters, counted exactly for the
//!   distinct-reporter requirement. Its first two reporters sit inside
//!   the 56-byte struct, so the set of a one- or two-reporter case needs
//!   no allocation of its own; a third spills them to the heap.
//!
//! Two hard cutoffs keep the approximation honest: a report older than
//! the window relative to `high_water` is discarded outright
//! (`Observation::Stale` — decay alone would still credit it ~0.2), and
//! a report *newer* than `high_water` by more than a full window resets
//! the accumulator (the suspect went quiet; whatever decayed mass
//! remained is off-window by definition).
//!
//! All arithmetic is plain `f64` with no iteration-order dependence, so
//! replaying the same per-suspect report sequence reproduces bitwise-
//! identical state.

use crate::reporters::ReporterSet;
use vehigan_sim::VehicleId;

/// What ingesting one report did to a suspect's evidence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Observation {
    /// The report entered the accumulator (possibly after a gap reset).
    Absorbed,
    /// The report's timestamp was a full window older than the suspect's
    /// high-water clock: discarded without touching state.
    Stale,
}

/// Constant-size decaying evidence accumulator for one accused
/// pseudonym (see module docs for the math).
#[derive(Debug, Clone, Default)]
pub struct SuspectEvidence {
    /// Maximum report timestamp seen (the suspect's expiry clock).
    pub high_water: f64,
    /// Exponentially decayed report count.
    pub weight: f64,
    /// Exponentially decayed margin sum.
    pub margin: f64,
    /// Window-pruned distinct-reporter set.
    pub reporters: ReporterSet,
}

impl SuspectEvidence {
    /// Creates an empty accumulator.
    pub(crate) fn new() -> Self {
        SuspectEvidence::default()
    }

    /// Whether no report has been absorbed since creation/reset.
    pub(crate) fn is_empty(&self) -> bool {
        self.weight == 0.0
    }

    /// Absorbs one report (reporter, timestamp, margin) under the given
    /// corroboration window, returning whether it was absorbed or
    /// stale-discarded.
    pub(crate) fn observe(
        &mut self,
        reporter: VehicleId,
        t: f64,
        margin: f64,
        window_s: f64,
    ) -> Observation {
        let half_life = window_s * 0.5;
        if self.is_empty() {
            self.high_water = t;
            self.weight = 1.0;
            self.margin = margin;
            self.reporters.observe(reporter, t, window_s);
            return Observation::Absorbed;
        }
        if t > self.high_water {
            if t - self.high_water > window_s {
                // The suspect went quiet for a full window: everything
                // accumulated is off-window. Start over.
                *self = SuspectEvidence::new();
                return self.observe(reporter, t, margin, window_s);
            }
            let d = f64::exp2(-(t - self.high_water) / half_life);
            self.weight = self.weight * d + 1.0;
            self.margin = self.margin * d + margin;
            self.high_water = t;
            self.reporters.observe(reporter, t, window_s);
            Observation::Absorbed
        } else {
            let age = self.high_water - t;
            if age > window_s {
                // Replayed/ancient timestamp: off-window evidence must
                // not accrue weight at all.
                return Observation::Stale;
            }
            let w = f64::exp2(-age / half_life);
            self.weight += w;
            self.margin += w * margin;
            self.reporters.observe(reporter, t, window_s);
            Observation::Absorbed
        }
    }

    /// Decayed report count, rounded to the nearest whole report (what
    /// conviction compares against `min_reports`).
    pub(crate) fn report_count(&self) -> usize {
        self.weight.round() as usize
    }

    /// Distinct reporters with in-window evidence, exact up to
    /// [`crate::EXACT_CAP`].
    pub(crate) fn reporter_count(&self, window_s: f64) -> usize {
        self.reporters.count(self.high_water, window_s)
    }

    /// Decayed mean margin (0 when empty).
    pub(crate) fn mean_margin(&self) -> f32 {
        if self.weight > 0.0 {
            (self.margin / self.weight) as f32
        } else {
            0.0
        }
    }

    /// FNV-1a digest of the accumulator's exact bit state (for the
    /// batch ≡ one-by-one equivalence tests).
    #[doc(hidden)]
    pub fn digest(&self, mut h: u64) -> u64 {
        let mut fold = |bits: u64| {
            for b in bits.to_le_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
        };
        fold(self.high_water.to_bits());
        fold(self.weight.to_bits());
        fold(self.margin.to_bits());
        // The pairs fold the same whether they sit inline or spilled.
        fold(self.reporters.entries().count() as u64);
        for (id, seen) in self.reporters.entries() {
            fold(u64::from(id.0));
            fold(seen.to_bits());
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const W: f64 = 60.0;

    #[test]
    fn fresh_report_counts_fully() {
        let mut e = SuspectEvidence::new();
        assert_eq!(e.observe(VehicleId(1), 10.0, 0.5, W), Observation::Absorbed);
        assert_eq!(e.report_count(), 1);
        assert_eq!(e.reporter_count(W), 1);
        assert!((e.mean_margin() - 0.5).abs() < 1e-6);
    }

    #[test]
    fn decay_halves_weight_per_half_window() {
        let mut e = SuspectEvidence::new();
        e.observe(VehicleId(1), 0.0, 0.5, W);
        e.observe(VehicleId(2), W / 2.0, 0.5, W);
        // First report decayed to 0.5, second contributes 1.0.
        assert!((e.weight - 1.5).abs() < 1e-12);
    }

    #[test]
    fn old_but_in_window_report_counts_decayed() {
        let mut e = SuspectEvidence::new();
        e.observe(VehicleId(1), 100.0, 0.5, W);
        // A report 30 s older than the high-water arrives late: absorbed
        // at half weight, and the clock does NOT move backwards.
        assert_eq!(e.observe(VehicleId(2), 70.0, 0.5, W), Observation::Absorbed);
        assert!((e.weight - 1.5).abs() < 1e-12);
        assert_eq!(e.high_water, 100.0);
    }

    #[test]
    fn off_window_replay_is_discarded() {
        let mut e = SuspectEvidence::new();
        e.observe(VehicleId(1), 1000.0, 0.5, W);
        let before = e.digest(0xcbf2_9ce4_8422_2325);
        assert_eq!(e.observe(VehicleId(2), 1.0, 0.9, W), Observation::Stale);
        assert_eq!(
            e.digest(0xcbf2_9ce4_8422_2325),
            before,
            "stale report mutated state"
        );
    }

    #[test]
    fn full_window_gap_resets() {
        let mut e = SuspectEvidence::new();
        for i in 0..10 {
            e.observe(VehicleId(i), i as f64, 0.5, W);
        }
        e.observe(VehicleId(99), 1000.0, 0.5, W);
        assert_eq!(e.report_count(), 1);
        assert_eq!(e.reporter_count(W), 1);
    }

    #[test]
    fn mean_margin_is_exact_for_constant_margins() {
        let mut e = SuspectEvidence::new();
        for i in 0..50 {
            e.observe(VehicleId(i % 5), i as f64, 0.25, W);
        }
        assert!((e.mean_margin() - 0.25).abs() < 1e-6);
    }

    #[test]
    fn state_is_constant_size() {
        // The whole point: no per-report retention. Every open case in
        // the authority holds one, so keep it within a cache line: 24
        // bytes of clocks and a 32-byte reporter set whose first two
        // reporters sit inline (a third spills to the heap; what the
        // flood's heap comes to is the ledger's `peak_heap_mb`).
        assert!(std::mem::size_of::<SuspectEvidence>() <= 56);
    }
}
