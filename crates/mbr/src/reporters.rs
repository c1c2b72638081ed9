//! The distinct reporters of one suspect's case, counted exactly in
//! bounded memory.
//!
//! Conviction requires *distinct* corroborating reporters
//! ([`crate::AuthorityPolicy::min_reporters`]), so each case keeps who
//! accused it inside the corroboration window and when each reporter
//! last did. A [`ReporterSet`] holds those `(reporter, last_seen)` pairs:
//!
//! - the first two sit inline in the 32-byte set, so a one- or
//!   two-reporter case costs no heap beyond its own box;
//! - a third spills the pairs to a `Vec` of four (64 heap bytes), which
//!   grows to at most [`EXACT_CAP`] pairs.
//!
//! A newcomer first prunes the reporters whose last accusation aged out
//! of the window. If the list is still full, the newcomer replaces the
//! least recently seen entry when its own accusation is newer, and is
//! dropped otherwise. The list thus always holds the most recently seen
//! reporters, so at any clock at or after the newest accusation
//! [`count`](ReporterSet::count) equals `min(EXACT_CAP, live distinct
//! reporters)`: with `min_reporters ≤ EXACT_CAP`, which
//! [`crate::MisbehaviorAuthority::new`] enforces, every conviction is
//! decided on an exact count. `tests/authority_props.rs` holds the set to
//! an unbounded map of every reporter's last accusation.

use vehigan_sim::VehicleId;

/// Most `(reporter, last_seen)` pairs one case keeps, and so the most
/// distinct reporters a count reports.
pub const EXACT_CAP: usize = 16;

/// Window-pruned set of at most [`EXACT_CAP`] distinct reporters with
/// their last accusation timestamps (see module docs).
///
/// The first two pairs are stored inline; a third spills the list to the
/// heap. Every variant holds its pairs in arrival order, a newcomer that
/// replaces an entry taking its slot, and which variant holds them is not
/// observable through [`entries`](Self::entries) or
/// [`count`](Self::count).
#[derive(Debug, Clone, Default)]
pub enum ReporterSet {
    /// No reporter yet.
    #[default]
    Empty,
    /// One live reporter and its last accusation timestamp.
    One(u32, f64),
    /// Two live reporters: ids and timestamps in two arrays, so the
    /// whole set stays 32 bytes (`[(u32, f64); 2]` would make it 40).
    Two([u32; 2], [f64; 2]),
    /// Three to [`EXACT_CAP`] pairs on the heap. A spilled list stays
    /// spilled when pruning shrinks it.
    Spilled(Vec<(u32, f64)>),
}

// Only a spilled list can reach the cap.
const _: () = assert!(EXACT_CAP > 2);

impl ReporterSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        ReporterSet::Empty
    }

    /// The `(reporter, last accusation timestamp)` pairs in arrival
    /// order, pruned or not.
    pub fn entries(&self) -> impl Iterator<Item = (VehicleId, f64)> + '_ {
        let (ids, ts, spilled): (&[u32], &[f64], &[(u32, f64)]) = match self {
            ReporterSet::Empty => (&[], &[], &[]),
            ReporterSet::One(id, t) => (std::slice::from_ref(id), std::slice::from_ref(t), &[]),
            ReporterSet::Two(ids, ts) => (ids, ts, &[]),
            ReporterSet::Spilled(entries) => (&[], &[], entries),
        };
        ids.iter()
            .copied()
            .zip(ts.iter().copied())
            .chain(spilled.iter().copied())
            .map(|(id, t)| (VehicleId(id), t))
    }

    /// The last-seen clock of a reporter already in the list.
    fn last_seen_mut(&mut self, reporter: u32) -> Option<&mut f64> {
        match self {
            ReporterSet::One(id, t) => (*id == reporter).then_some(t),
            ReporterSet::Two(ids, ts) => {
                let k = ids.iter().position(|&id| id == reporter)?;
                Some(&mut ts[k])
            }
            ReporterSet::Spilled(entries) => entries
                .iter_mut()
                .find(|e| e.0 == reporter)
                .map(|e| &mut e.1),
            ReporterSet::Empty => None,
        }
    }

    /// Records an accusation by `reporter` whose evidence is current at
    /// time `t`, pruning entries older than `window_s` before a newcomer
    /// is added, and replacing the least recently seen entry when the
    /// list is full.
    pub fn observe(&mut self, reporter: VehicleId, t: f64, window_s: f64) {
        // Known reporter: refresh its last-seen clock (monotone).
        if let Some(seen) = self.last_seen_mut(reporter.0) {
            if t > *seen {
                *seen = t;
            }
            return;
        }
        // A new reporter: drop reporters whose last accusation aged out,
        // then add it.
        let live = |e: &(u32, f64)| t - e.1 <= window_s;
        if let ReporterSet::Spilled(entries) = self {
            entries.retain(live);
            if entries.len() < EXACT_CAP {
                entries.push((reporter.0, t));
            } else if let Some(oldest) = entries.iter_mut().min_by(|a, b| a.1.total_cmp(&b.1)) {
                // Full: keep the most recently seen reporters.
                if t > oldest.1 {
                    *oldest = (reporter.0, t);
                }
            }
            return;
        }
        let grown = {
            let mut kept = self.entries().map(|(id, seen)| (id.0, seen)).filter(live);
            match (kept.next(), kept.next()) {
                (None, _) => ReporterSet::One(reporter.0, t),
                (Some((id, seen)), None) => ReporterSet::Two([id, reporter.0], [seen, t]),
                (Some(a), Some(b)) => {
                    // The list's first allocation holds four, as a `Vec`'s
                    // first push would.
                    let mut entries = Vec::with_capacity(4);
                    entries.extend([a, b, (reporter.0, t)]);
                    ReporterSet::Spilled(entries)
                }
            }
        };
        *self = grown;
    }

    /// Distinct reporters with evidence inside the window ending at `t`,
    /// at most [`EXACT_CAP`].
    pub fn count(&self, t: f64, window_s: f64) -> usize {
        self.entries().filter(|e| t - e.1 <= window_s).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_counts_are_exact_and_pruned() {
        let mut s = ReporterSet::new();
        s.observe(VehicleId(1), 0.0, 60.0);
        s.observe(VehicleId(2), 10.0, 60.0);
        s.observe(VehicleId(1), 20.0, 60.0); // duplicate refresh
        assert_eq!(s.count(20.0, 60.0), 2);
        // Reporter 2's last accusation (t=10) ages out of a window ending
        // at t=80; reporter 1 (refreshed at t=20) stays.
        assert_eq!(s.count(80.0, 60.0), 1);
    }

    #[test]
    fn two_reporters_stay_inline_and_a_third_spills() {
        assert_eq!(std::mem::size_of::<ReporterSet>(), 32);
        let mut s = ReporterSet::new();
        s.observe(VehicleId(1), 0.0, 60.0);
        s.observe(VehicleId(2), 1.0, 60.0);
        assert!(matches!(s, ReporterSet::Two([1, 2], _)));
        s.observe(VehicleId(3), 2.0, 60.0);
        assert!(matches!(&s, ReporterSet::Spilled(e) if e.capacity() == 4));
        // Pruning shrinks the list but does not move it back inline.
        s.observe(VehicleId(4), 100.0, 60.0);
        assert!(matches!(&s, ReporterSet::Spilled(e) if e.len() == 1));
        assert_eq!(s.entries().collect::<Vec<_>>(), [(VehicleId(4), 100.0)]);
    }

    #[test]
    fn a_full_list_keeps_the_most_recently_seen() {
        let mut s = ReporterSet::new();
        for i in 0..EXACT_CAP as u32 {
            s.observe(VehicleId(i), f64::from(i), 60.0);
        }
        // Not newer than the oldest entry (t=0): dropped.
        s.observe(VehicleId(100), 0.0, 60.0);
        assert!(s.entries().all(|(id, _)| id != VehicleId(100)));
        // Newer: takes reporter 0's slot.
        s.observe(VehicleId(101), 20.0, 60.0);
        assert_eq!(s.entries().next(), Some((VehicleId(101), 20.0)));
        assert_eq!(s.count(20.0, 60.0), EXACT_CAP);
        // At t=62 reporter 1 (t=1) has aged out; 2..=15 and 101 count.
        assert_eq!(s.count(62.0, 60.0), EXACT_CAP - 1);
    }

    #[test]
    fn stale_reporters_pruned_before_a_full_list_drops_anyone() {
        let mut s = ReporterSet::new();
        // Fill to the cap with reporters that will all be stale…
        for i in 0..EXACT_CAP as u32 {
            s.observe(VehicleId(i), 0.0, 60.0);
        }
        // …then a fresh reporter far later: pruning frees every slot.
        s.observe(VehicleId(99), 1000.0, 60.0);
        assert_eq!(s.entries().collect::<Vec<_>>(), [(VehicleId(99), 1000.0)]);
        assert_eq!(s.count(1000.0, 60.0), 1);
    }
}
