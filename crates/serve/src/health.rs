//! Serve-time ensemble member health: probation benching for members
//! that return non-finite scores.
//!
//! The scoring layer already drops a member that panics or scores
//! non-finite *within one scoring call* (a tile; its index lands in
//! `ScoreSummary::dropped`). That protects a single tick, but a wedged
//! member — NaN weights after a partial update, a poisoned activation —
//! would then be re-run and re-dropped every tick, paying its full
//! inference cost each time for scores that are discarded. Those two
//! failures are the only way a member reaches the bench; the crate's
//! chaos tests produce them through a test-only fault injector that
//! leaves the member out of a tile's subset and reports it dropped,
//! which scores bitwise like the real failure.
//!
//! [`MemberHealth`] adds the serve-plane memory: a member observed
//! dropping is **benched** for three server ticks and simply
//! excluded from the subsets handed to the scorer. When its probation
//! expires it is reinstated *in its original pinned position*, so once
//! the fault clears the active subset — and therefore the ensemble
//! reduction — returns bitwise to the healthy configuration. A member
//! that misbehaves again is re-benched; nothing is ever permanently
//! demoted at serve time (permanent demotion is an offline, evaluated
//! decision — see DESIGN.md §11).

/// Probation state for the pinned ensemble members of one server.
#[derive(Debug, Clone, Default)]
pub(crate) struct MemberHealth {
    /// `(member index, first tick at which it may score again)`.
    benched: Vec<(usize, u64)>,
    /// Lifetime bench events.
    demotions: u64,
    /// Lifetime reinstatements.
    reinstatements: u64,
}

impl MemberHealth {
    /// Creates an empty health table (all members trusted).
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Benches `member` until `until_tick` (exclusive). Re-benching an
    /// already-benched member extends its probation. Returns whether
    /// this was a *new* bench event.
    pub(crate) fn bench(&mut self, member: usize, until_tick: u64) -> bool {
        if let Some(entry) = self.benched.iter_mut().find(|(m, _)| *m == member) {
            entry.1 = entry.1.max(until_tick);
            false
        } else {
            self.benched.push((member, until_tick));
            self.demotions += 1;
            true
        }
    }

    /// Releases every member whose probation has expired by `now_tick`.
    /// Returns how many were reinstated.
    pub(crate) fn release_expired(&mut self, now_tick: u64) -> usize {
        let before = self.benched.len();
        self.benched.retain(|&(_, until)| until > now_tick);
        let released = before - self.benched.len();
        self.reinstatements += released as u64;
        released
    }

    /// Whether `member` is currently benched.
    pub(crate) fn is_benched(&self, member: usize) -> bool {
        self.benched.iter().any(|&(m, _)| m == member)
    }

    /// Overwrites `active` with a pinned subset's active (non-benched)
    /// members, preserving pinned order so reinstatement restores the
    /// exact healthy configuration.
    ///
    /// If *every* member of the subset is benched, the full subset is
    /// active instead: scoring with real members that may fail (and be
    /// dropped per-batch) beats guaranteeing an empty-subset error until
    /// probation expires.
    pub(crate) fn active_into(&self, pinned: &[usize], active: &mut Vec<usize>) {
        active.clear();
        active.extend(pinned.iter().filter(|&&m| !self.is_benched(m)));
        if active.is_empty() {
            active.extend_from_slice(pinned);
        }
    }

    /// Lifetime bench events.
    pub(crate) fn demotions(&self) -> u64 {
        self.demotions
    }

    /// Lifetime reinstatements.
    pub(crate) fn reinstatements(&self) -> u64 {
        self.reinstatements
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl MemberHealth {
        /// Currently benched members (unordered).
        pub(crate) fn benched(&self) -> Vec<usize> {
            self.benched.iter().map(|&(m, _)| m).collect()
        }

        fn active(&self, pinned: &[usize]) -> Vec<usize> {
            let mut active = vec![99];
            self.active_into(pinned, &mut active);
            active
        }
    }

    #[test]
    fn bench_excludes_until_release_preserving_pinned_order() {
        let mut h = MemberHealth::new();
        let pinned = [7usize, 2, 9];
        assert_eq!(h.active(&pinned), vec![7, 2, 9]);

        assert!(h.bench(2, 5));
        assert!(
            !h.bench(2, 4),
            "re-bench of a benched member is not a new event"
        );
        assert_eq!(h.active(&pinned), vec![7, 9]);
        assert_eq!(h.demotions(), 1);

        assert_eq!(h.release_expired(4), 0, "probation not yet expired");
        assert!(h.is_benched(2));
        assert_eq!(h.release_expired(5), 1);
        assert_eq!(h.active(&pinned), vec![7, 2, 9], "pinned order restored");
        assert_eq!(h.reinstatements(), 1);
    }

    #[test]
    fn re_bench_extends_probation_to_the_later_tick() {
        let mut h = MemberHealth::new();
        h.bench(3, 10);
        h.bench(3, 20);
        h.release_expired(10);
        assert!(h.is_benched(3), "extension keeps the member benched");
        h.release_expired(20);
        assert!(!h.is_benched(3));
    }

    #[test]
    fn fully_benched_subset_falls_back_to_full_subset() {
        let mut h = MemberHealth::new();
        h.bench(1, 100);
        h.bench(4, 100);
        assert_eq!(h.active(&[1, 4]), vec![1, 4]);
        assert_eq!(h.active(&[1, 4, 5]), vec![5]);
    }
}
