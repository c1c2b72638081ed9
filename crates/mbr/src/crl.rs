//! Certificate revocation list (CRL) — the SCMS mechanism isolating
//! convicted misbehaving vehicles from the V2X network (§I, [5]).
//!
//! Besides the membership map, the CRL keeps a bounded, sequence-numbered
//! op journal so RSUs/OBUs holding a stale mirror can fetch an
//! incremental [`CrlDelta`] instead of the full list: a mirror presents
//! its last-applied sequence number, and [`delta_since`]
//! (`CertificateRevocationList::delta_since`) answers with just the ops
//! it missed — or a full snapshot when the journal has already compacted
//! past that cursor.
//!
//! Equality between two CRLs compares the *entry set* and validity
//! policy only, never the journal: a mirror that applied deltas holds
//! no journal of its own and must still compare equal to its source.

use std::collections::{HashMap, VecDeque};
use vehigan_sim::{IdHash, VehicleId};

/// Why a credential was revoked.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RevocationRecord {
    /// Revocation time (seconds).
    pub revoked_at: f64,
    /// Distinct reporters that contributed evidence: an exact count,
    /// capped at [`crate::EXACT_CAP`].
    pub reporter_count: usize,
    /// Total reports considered.
    pub report_count: usize,
    /// Mean report margin (score excess over threshold).
    pub mean_margin: f32,
}

/// One journaled CRL mutation.
#[derive(Debug, Clone, PartialEq)]
pub enum CrlOp {
    /// A credential was revoked (or its record refreshed).
    Revoke {
        /// The revoked pseudonym.
        vehicle: VehicleId,
        /// The record placed on the list.
        record: RevocationRecord,
    },
    /// An expired entry was pruned from the list.
    Remove {
        /// The removed pseudonym.
        vehicle: VehicleId,
    },
}

/// An incremental CRL update for a mirror at sequence `since`.
#[derive(Debug, Clone, PartialEq)]
pub struct CrlDelta {
    /// The mirror's cursor this delta starts after.
    pub since: u64,
    /// The sequence number the mirror reaches by applying this delta.
    pub upto: u64,
    /// When `true`, `ops` is a full snapshot (the journal compacted past
    /// `since`): the mirror must clear its entries before applying.
    pub snapshot: bool,
    /// Ops to apply in order.
    pub ops: Vec<CrlOp>,
}

/// Default bound on retained journal ops before compaction.
const DEFAULT_LOG_CAPACITY: usize = 4096;

/// A certificate revocation list with optional entry expiry and an
/// incremental-distribution journal.
///
/// # Examples
///
/// ```
/// use vehigan_mbr::{CertificateRevocationList, RevocationRecord};
/// use vehigan_sim::VehicleId;
///
/// let mut crl = CertificateRevocationList::new(None);
/// crl.revoke(VehicleId(7), RevocationRecord {
///     revoked_at: 12.0, reporter_count: 3, report_count: 9, mean_margin: 0.4,
/// });
/// assert!(crl.is_revoked(VehicleId(7), 100.0));
/// assert!(!crl.is_revoked(VehicleId(8), 100.0));
///
/// // A mirror syncs incrementally by sequence number.
/// let mut mirror = CertificateRevocationList::new(None);
/// let delta = crl.delta_since(mirror.seq());
/// mirror.apply_delta(&delta);
/// assert_eq!(mirror, crl);
/// ```
#[derive(Debug, Clone)]
pub struct CertificateRevocationList {
    entries: HashMap<VehicleId, RevocationRecord, IdHash>,
    /// Entries older than this many seconds no longer apply (`None` =
    /// permanent revocation).
    validity_s: Option<f64>,
    /// Sequence number of the last applied op.
    seq: u64,
    /// Retained `(seq, op)` journal, oldest first: a ring of at most
    /// `log_capacity` slots whose sequence numbers are contiguous, so an
    /// op costs O(1) and a delta finds its first op by subtraction.
    log: VecDeque<(u64, CrlOp)>,
    /// Journal bound; older ops are compacted away.
    log_capacity: usize,
}

impl Default for CertificateRevocationList {
    fn default() -> Self {
        CertificateRevocationList::new(None)
    }
}

/// Entry-set equality (validity policy included, journal excluded — see
/// module docs).
impl PartialEq for CertificateRevocationList {
    fn eq(&self, other: &Self) -> bool {
        self.entries == other.entries && self.validity_s == other.validity_s
    }
}

impl CertificateRevocationList {
    /// Creates an empty CRL; `validity_s = None` makes entries permanent.
    pub fn new(validity_s: Option<f64>) -> Self {
        CertificateRevocationList {
            entries: HashMap::default(),
            validity_s,
            seq: 0,
            log: VecDeque::new(),
            log_capacity: DEFAULT_LOG_CAPACITY,
        }
    }

    /// Bounds the retained journal to `capacity` ops (compacting
    /// immediately if already over).
    pub fn set_log_capacity(&mut self, capacity: usize) {
        self.log_capacity = capacity;
        let excess = self.log.len().saturating_sub(capacity);
        self.log.drain(..excess);
    }

    fn journal(&mut self, op: CrlOp) {
        self.seq += 1;
        if self.log_capacity == 0 {
            return;
        }
        // Trim before the push: a full ring never grows past its bound.
        if self.log.len() == self.log_capacity {
            self.log.pop_front();
        }
        self.log.push_back((self.seq, op));
    }

    /// Sequence number of the last applied op (a mirror's sync cursor).
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Number of ops currently retained in the journal.
    pub fn log_len(&self) -> usize {
        self.log.len()
    }

    /// Adds (or refreshes) a revocation. Returns the previous record if
    /// the vehicle was already revoked.
    pub fn revoke(
        &mut self,
        vehicle: VehicleId,
        record: RevocationRecord,
    ) -> Option<RevocationRecord> {
        let prev = self.entries.insert(vehicle, record);
        self.journal(CrlOp::Revoke { vehicle, record });
        prev
    }

    /// Whether `vehicle` is revoked at time `now`.
    pub fn is_revoked(&self, vehicle: VehicleId, now: f64) -> bool {
        match (self.entries.get(&vehicle), self.validity_s) {
            (Some(rec), Some(validity)) => now - rec.revoked_at <= validity,
            (Some(_), None) => true,
            (None, _) => false,
        }
    }

    /// The revocation record for a vehicle, if any.
    pub fn record(&self, vehicle: VehicleId) -> Option<&RevocationRecord> {
        self.entries.get(&vehicle)
    }

    /// Number of revoked credentials (including expired entries).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the CRL is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Drops entries that expired before `now` (no-op for permanent
    /// CRLs). Removals are journaled in ascending vehicle-id order so
    /// mirrors replaying the delta apply identical op sequences.
    pub fn prune(&mut self, now: f64) {
        if let Some(validity) = self.validity_s {
            let mut victims: Vec<VehicleId> = self
                .entries
                .iter()
                .filter(|(_, rec)| now - rec.revoked_at > validity)
                .map(|(v, _)| *v)
                .collect();
            victims.sort_unstable_by_key(|v| v.0);
            for v in victims {
                self.entries.remove(&v);
                self.journal(CrlOp::Remove { vehicle: v });
            }
        }
    }

    /// Iterates over `(vehicle, record)` pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (&VehicleId, &RevocationRecord)> {
        self.entries.iter()
    }

    /// The incremental update a mirror at sequence `cursor` needs.
    ///
    /// Returns the journaled ops after `cursor` when they are still
    /// retained; otherwise a full snapshot (entries as `Revoke` ops in
    /// ascending vehicle-id order) the mirror applies from scratch. A
    /// cursor ahead of this list's own `seq` (the authority restarted, or
    /// the mirror last synced from another list) is answered with a
    /// snapshot too: nothing in the journal relates to that history.
    pub fn delta_since(&self, cursor: u64) -> CrlDelta {
        let oldest_retained = self.log.front().map_or(self.seq + 1, |(s, _)| *s);
        let snapshot = cursor > self.seq || cursor + 1 < oldest_retained;
        let ops = if snapshot {
            let mut items: Vec<(VehicleId, RevocationRecord)> =
                self.entries.iter().map(|(v, r)| (*v, *r)).collect();
            items.sort_unstable_by_key(|(v, _)| v.0);
            items
                .into_iter()
                .map(|(vehicle, record)| CrlOp::Revoke { vehicle, record })
                .collect()
        } else {
            let skip = (cursor + 1 - oldest_retained) as usize;
            self.log.range(skip..).map(|(_, op)| op.clone()).collect()
        };
        CrlDelta {
            since: cursor,
            upto: self.seq,
            snapshot,
            ops,
        }
    }

    /// Applies a delta produced by [`delta_since`](Self::delta_since) on
    /// the distributing CRL, advancing this mirror's cursor to
    /// `delta.upto`. Mirrors do not re-journal applied ops — and drop
    /// whatever they had journaled themselves, which no longer leads up
    /// to `seq`: a list that mirrors another serves snapshots downstream,
    /// never a journal with a gap in it.
    ///
    /// An incremental delta never moves `seq` back, so a late or repeated
    /// one cannot rewind the mirror to stale records: one that ends at or
    /// before `seq` is a no-op, one that starts before `seq` applies only
    /// the ops past it, and one that starts after `seq` (a gap) is
    /// refused, leaving the list as it was for `delta_since(seq)` to
    /// fill. A snapshot always replaces the entries.
    pub fn apply_delta(&mut self, delta: &CrlDelta) {
        let seen = if delta.snapshot {
            self.entries.clear();
            0
        } else if delta.upto <= self.seq || delta.since > self.seq {
            return;
        } else {
            (self.seq - delta.since) as usize
        };
        self.log.clear();
        for op in &delta.ops[seen.min(delta.ops.len())..] {
            match op {
                CrlOp::Revoke { vehicle, record } => {
                    self.entries.insert(*vehicle, *record);
                }
                CrlOp::Remove { vehicle } => {
                    self.entries.remove(vehicle);
                }
            }
        }
        self.seq = delta.upto;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(at: f64) -> RevocationRecord {
        RevocationRecord {
            revoked_at: at,
            reporter_count: 2,
            report_count: 4,
            mean_margin: 0.1,
        }
    }

    #[test]
    fn permanent_revocation_never_expires() {
        let mut crl = CertificateRevocationList::new(None);
        crl.revoke(VehicleId(1), record(0.0));
        assert!(crl.is_revoked(VehicleId(1), 1e9));
    }

    #[test]
    fn expiring_revocation_lapses() {
        let mut crl = CertificateRevocationList::new(Some(60.0));
        crl.revoke(VehicleId(1), record(100.0));
        assert!(crl.is_revoked(VehicleId(1), 150.0));
        assert!(!crl.is_revoked(VehicleId(1), 200.0));
    }

    #[test]
    fn prune_removes_expired_only() {
        let mut crl = CertificateRevocationList::new(Some(60.0));
        crl.revoke(VehicleId(1), record(0.0));
        crl.revoke(VehicleId(2), record(100.0));
        crl.prune(120.0);
        assert_eq!(crl.len(), 1);
        assert!(crl.record(VehicleId(2)).is_some());
    }

    #[test]
    fn re_revocation_returns_previous() {
        let mut crl = CertificateRevocationList::new(None);
        assert!(crl.revoke(VehicleId(1), record(0.0)).is_none());
        let prev = crl.revoke(VehicleId(1), record(50.0));
        assert_eq!(prev.unwrap().revoked_at, 0.0);
    }

    #[test]
    fn unknown_vehicle_not_revoked() {
        let crl = CertificateRevocationList::new(None);
        assert!(!crl.is_revoked(VehicleId(9), 0.0));
        assert!(crl.is_empty());
    }

    #[test]
    fn incremental_delta_catches_mirror_up() {
        let mut crl = CertificateRevocationList::new(None);
        let mut mirror = CertificateRevocationList::new(None);
        crl.revoke(VehicleId(1), record(0.0));
        crl.revoke(VehicleId(2), record(1.0));
        mirror.apply_delta(&crl.delta_since(mirror.seq()));
        assert_eq!(mirror, crl);
        // More churn; the mirror only fetches what it missed.
        crl.revoke(VehicleId(3), record(2.0));
        let delta = crl.delta_since(mirror.seq());
        assert!(!delta.snapshot);
        assert_eq!(delta.ops.len(), 1);
        mirror.apply_delta(&delta);
        assert_eq!(mirror, crl);
        assert_eq!(mirror.seq(), crl.seq());
    }

    #[test]
    fn a_late_delta_does_not_rewind_a_mirror() {
        let mut source = CertificateRevocationList::new(Some(60.0));
        source.revoke(VehicleId(7), record(0.0));
        let early = source.delta_since(0);
        source.prune(100.0);
        source.revoke(VehicleId(7), record(100.0));
        let mut mirror = CertificateRevocationList::new(Some(60.0));
        mirror.apply_delta(&source.delta_since(0));
        assert_eq!(mirror.seq(), 3);
        // Re-delivered after the mirror moved past it: no-op.
        mirror.apply_delta(&early);
        assert_eq!(mirror.seq(), 3);
        assert_eq!(mirror, source);
        assert!(mirror.is_revoked(VehicleId(7), 110.0));
    }

    #[test]
    fn an_overlapping_delta_applies_only_the_ops_past_seq() {
        let mut source = CertificateRevocationList::new(Some(60.0));
        let mut mirror = CertificateRevocationList::new(Some(60.0));
        source.revoke(VehicleId(1), record(0.0));
        let first = source.delta_since(0);
        source.revoke(VehicleId(2), record(10.0));
        source.prune(70.0);
        let overlapping = source.delta_since(0);
        mirror.apply_delta(&first);
        mirror.apply_delta(&overlapping);
        assert_eq!((mirror.seq(), &mirror), (3, &source));
    }

    #[test]
    fn a_delta_past_a_gap_is_refused() {
        let mut source = CertificateRevocationList::new(None);
        let mut mirror = CertificateRevocationList::new(None);
        source.revoke(VehicleId(1), record(0.0));
        source.revoke(VehicleId(2), record(1.0));
        let after_gap = source.delta_since(1);
        mirror.apply_delta(&after_gap);
        assert_eq!((mirror.seq(), mirror.len()), (0, 0));
        mirror.apply_delta(&source.delta_since(mirror.seq()));
        assert_eq!((mirror.seq(), &mirror), (2, &source));
    }

    #[test]
    fn up_to_date_mirror_gets_empty_delta() {
        let mut crl = CertificateRevocationList::new(None);
        crl.revoke(VehicleId(1), record(0.0));
        let delta = crl.delta_since(crl.seq());
        assert!(delta.ops.is_empty());
        assert!(!delta.snapshot);
    }

    #[test]
    fn mirror_ahead_of_its_source_gets_a_snapshot() {
        // The mirror synced ten ops from a list that no longer exists.
        let mut old = CertificateRevocationList::new(None);
        for i in 0..10u32 {
            old.revoke(VehicleId(100 + i), record(f64::from(i)));
        }
        let mut mirror = CertificateRevocationList::new(None);
        mirror.apply_delta(&old.delta_since(0));
        assert_eq!(mirror.seq(), 10);

        let mut source = CertificateRevocationList::new(None);
        source.revoke(VehicleId(1), record(0.0));
        source.revoke(VehicleId(2), record(1.0));
        let delta = source.delta_since(mirror.seq());
        assert!(delta.snapshot);
        mirror.apply_delta(&delta);
        assert_eq!(mirror, source);
        assert_eq!(mirror.seq(), 2);
    }

    #[test]
    fn a_list_that_mirrors_another_serves_snapshots_downstream() {
        let mut source = CertificateRevocationList::new(None);
        let mut relay = CertificateRevocationList::new(None);
        relay.revoke(VehicleId(50), record(0.0));
        for i in 0..4u32 {
            source.revoke(VehicleId(i), record(f64::from(i)));
        }
        // The relay's own op 1 is not the source's op 1: its journal must
        // not be served as if it led up to the applied `seq`.
        relay.apply_delta(&source.delta_since(relay.seq()));
        assert_eq!(relay.log_len(), 0);
        relay.revoke(VehicleId(60), record(9.0));
        for cursor in 0..relay.seq() - 1 {
            let delta = relay.delta_since(cursor);
            assert!(delta.snapshot);
            let mut downstream = CertificateRevocationList::new(None);
            downstream.apply_delta(&delta);
            assert_eq!(downstream, relay);
        }
        let last = relay.delta_since(relay.seq() - 1);
        assert!(!last.snapshot);
        assert_eq!(last.ops.len(), 1);
    }

    #[test]
    fn compaction_falls_back_to_snapshot() {
        let mut crl = CertificateRevocationList::new(None);
        crl.set_log_capacity(4);
        for i in 0..20u32 {
            crl.revoke(VehicleId(i), record(i as f64));
        }
        assert!(crl.log_len() <= 4);
        // A mirror that last synced before the retained journal must get
        // a full snapshot…
        let delta = crl.delta_since(2);
        assert!(delta.snapshot);
        let mut mirror = CertificateRevocationList::new(None);
        mirror.apply_delta(&delta);
        assert_eq!(mirror, crl);
        // …while a recent mirror still syncs incrementally.
        let recent = crl.delta_since(crl.seq() - 2);
        assert!(!recent.snapshot);
        assert_eq!(recent.ops.len(), 2);
    }

    #[test]
    fn snapshot_clears_stale_mirror_entries() {
        let mut crl = CertificateRevocationList::new(Some(60.0));
        crl.set_log_capacity(2);
        crl.revoke(VehicleId(1), record(0.0));
        let mut mirror = crl.clone();
        // The entry expires and is pruned, then the journal churns past
        // the mirror's cursor.
        crl.prune(1000.0);
        for i in 10..20u32 {
            crl.revoke(VehicleId(i), record(1000.0));
        }
        let delta = crl.delta_since(mirror.seq());
        assert!(delta.snapshot);
        mirror.apply_delta(&delta);
        assert_eq!(mirror, crl);
        assert!(mirror.record(VehicleId(1)).is_none());
    }

    #[test]
    fn prune_journals_removals_deterministically() {
        let mut a = CertificateRevocationList::new(Some(10.0));
        let mut b = CertificateRevocationList::new(Some(10.0));
        // Same entries inserted in different orders.
        for i in [3u32, 1, 2] {
            a.revoke(VehicleId(i), record(0.0));
        }
        for i in [2u32, 3, 1] {
            b.revoke(VehicleId(i), record(0.0));
        }
        a.prune(100.0);
        b.prune(100.0);
        let ops_a: Vec<CrlOp> = a.delta_since(3).ops;
        let ops_b: Vec<CrlOp> = b.delta_since(3).ops;
        assert_eq!(ops_a, ops_b);
    }

    /// A complexity guard, not a stopwatch: a full journal's cost per op
    /// must not depend on its capacity. The ratio is taken inside one
    /// process with the two sizes alternating, so the host's speed
    /// cancels; a journal that shifts its retained ops on every push
    /// reads three orders of magnitude apart here, a ring about 1x.
    #[test]
    fn journal_cost_does_not_grow_with_capacity() {
        const OPS: usize = 200_000;
        fn revoke_n(crl: &mut CertificateRevocationList, n: usize) -> std::time::Duration {
            let start = std::time::Instant::now();
            for i in 0..n as u32 {
                crl.revoke(VehicleId(i % 512), record(f64::from(i)));
            }
            start.elapsed()
        }
        fn full_journal(capacity: usize) -> CertificateRevocationList {
            let mut crl = CertificateRevocationList::new(None);
            crl.set_log_capacity(capacity);
            revoke_n(&mut crl, capacity);
            assert_eq!(crl.log_len(), capacity);
            crl
        }
        let (small_cap, large_cap) = (64, 65_536);
        let mut small = full_journal(small_cap);
        let mut large = full_journal(large_cap);
        let mut best = [std::time::Duration::MAX; 2];
        for _ in 0..5 {
            best[0] = best[0].min(revoke_n(&mut small, OPS));
            best[1] = best[1].min(revoke_n(&mut large, OPS));
        }
        assert!(
            best[1] <= best[0] * 4,
            "{OPS} ops past full: {:?} at capacity {small_cap}, {:?} at {large_cap}",
            best[0],
            best[1]
        );
        for (crl, capacity) in [(&small, small_cap), (&large, large_cap)] {
            assert_eq!(crl.log_len(), capacity);
            let recent = crl.delta_since(crl.seq() - 3);
            assert!(!recent.snapshot);
            assert_eq!(recent.ops.len(), 3);
        }
    }

    #[test]
    fn equality_ignores_journal_history() {
        let mut a = CertificateRevocationList::new(None);
        let mut b = CertificateRevocationList::new(None);
        a.revoke(VehicleId(1), record(0.0));
        a.revoke(VehicleId(2), record(1.0));
        b.revoke(VehicleId(2), record(1.0));
        b.revoke(VehicleId(1), record(0.0));
        assert_eq!(a, b);
    }
}
