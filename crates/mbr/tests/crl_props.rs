//! Model check of the CRL's ring journal (ISSUE 23): random op soups
//! run against the list and against a reference that journals the way
//! the list did before the ring — a plain `Vec`, push then
//! `drain(..excess)`, deltas by filtering on sequence number. After every
//! op the two must agree on `seq`, `log_len`, `len` and on every delta a
//! mirror could ask for, boundary cursors included. Deltas handed out
//! earlier are re-delivered to mirrors at random: a late incremental one
//! must never move a mirror back (ISSUE 26).

use proptest::prelude::*;
use std::collections::HashMap;
use vehigan_mbr::{CertificateRevocationList, CrlDelta, CrlOp, RevocationRecord};
use vehigan_sim::VehicleId;

/// The pre-ring `CertificateRevocationList`, kept as the oracle.
struct ReferenceCrl {
    entries: HashMap<VehicleId, RevocationRecord>,
    validity_s: Option<f64>,
    seq: u64,
    log: Vec<(u64, CrlOp)>,
    log_capacity: usize,
}

impl ReferenceCrl {
    fn new(validity_s: Option<f64>) -> Self {
        ReferenceCrl {
            entries: HashMap::new(),
            validity_s,
            seq: 0,
            log: Vec::new(),
            log_capacity: 4096,
        }
    }

    fn set_log_capacity(&mut self, capacity: usize) {
        self.log_capacity = capacity;
        self.compact();
    }

    fn compact(&mut self) {
        if self.log.len() > self.log_capacity {
            let excess = self.log.len() - self.log_capacity;
            self.log.drain(..excess);
        }
    }

    fn journal(&mut self, op: CrlOp) {
        self.seq += 1;
        self.log.push((self.seq, op));
        self.compact();
    }

    fn revoke(&mut self, vehicle: VehicleId, record: RevocationRecord) -> Option<RevocationRecord> {
        let prev = self.entries.insert(vehicle, record);
        self.journal(CrlOp::Revoke { vehicle, record });
        prev
    }

    fn prune(&mut self, now: f64) {
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

    fn oldest_retained(&self) -> u64 {
        self.log.first().map(|(s, _)| *s).unwrap_or(self.seq + 1)
    }

    fn snapshot(&self, cursor: u64) -> CrlDelta {
        let mut items: Vec<(VehicleId, RevocationRecord)> =
            self.entries.iter().map(|(v, r)| (*v, *r)).collect();
        items.sort_unstable_by_key(|(v, _)| v.0);
        CrlDelta {
            since: cursor,
            upto: self.seq,
            snapshot: true,
            ops: items
                .into_iter()
                .map(|(vehicle, record)| CrlOp::Revoke { vehicle, record })
                .collect(),
        }
    }

    fn delta_since(&self, cursor: u64) -> CrlDelta {
        if cursor >= self.seq {
            return CrlDelta {
                since: cursor,
                upto: self.seq,
                snapshot: false,
                ops: Vec::new(),
            };
        }
        if cursor + 1 >= self.oldest_retained() {
            let ops = self
                .log
                .iter()
                .filter(|(s, _)| *s > cursor)
                .map(|(_, op)| op.clone())
                .collect();
            CrlDelta {
                since: cursor,
                upto: self.seq,
                snapshot: false,
                ops,
            }
        } else {
            self.snapshot(cursor)
        }
    }
}

#[derive(Debug, Clone, Copy)]
enum Op {
    Revoke(u32),
    Prune,
    SetLogCapacity(usize),
    /// `delta_since` at a cursor in `0..=seq + 2`, picked by this draw.
    Delta(u64),
    /// Mirror `n` catches up from wherever it last stopped.
    Sync(usize),
    /// Mirror `n` receives again the delta handed out earlier that this
    /// draw picks.
    Redeliver(usize, u64),
}

const VALIDITY_S: f64 = 20.0;
const CAPACITIES: [usize; 5] = [0, 1, 2, 3, 64];
const MIRRORS: usize = 3;

fn op() -> impl Strategy<Value = Op> {
    (0u32..18, any::<u64>()).prop_map(|(kind, draw)| match kind {
        0..=7 => Op::Revoke((draw % 24) as u32),
        8 => Op::Prune,
        9 => Op::SetLogCapacity(CAPACITIES[(draw % 5) as usize]),
        10..=12 => Op::Delta(draw),
        13..=15 => Op::Sync((draw % MIRRORS as u64) as usize),
        _ => Op::Redeliver((draw % MIRRORS as u64) as usize, draw / MIRRORS as u64),
    })
}

/// The list, its oracle and a few mirrors at different lags, on a clock
/// that advances one second per op.
struct Model {
    crl: CertificateRevocationList,
    reference: ReferenceCrl,
    mirrors: Vec<CertificateRevocationList>,
    /// Every delta `Delta` and `Sync` handed out, with the list as it was
    /// at the delta's `upto`.
    handed: Vec<(CrlDelta, CertificateRevocationList)>,
    now: f64,
}

impl Model {
    fn new(validity_s: Option<f64>) -> Self {
        Model {
            crl: CertificateRevocationList::new(validity_s),
            reference: ReferenceCrl::new(validity_s),
            mirrors: vec![CertificateRevocationList::new(validity_s); MIRRORS],
            handed: Vec::new(),
            now: 0.0,
        }
    }

    /// The list's delta at `cursor`, held to the oracle's — except ahead
    /// of `seq`, where the oracle's empty delta is the bug ISSUE 23 fixed
    /// and a snapshot is required.
    fn checked_delta(&self, cursor: u64) -> CrlDelta {
        let want = if cursor > self.reference.seq {
            self.reference.snapshot(cursor)
        } else {
            self.reference.delta_since(cursor)
        };
        let got = self.crl.delta_since(cursor);
        assert_eq!(got, want, "delta_since({cursor})");
        got
    }

    fn apply(&mut self, op: Op) {
        self.now += 1.0;
        match op {
            Op::Revoke(id) => {
                let record = RevocationRecord {
                    revoked_at: self.now,
                    reporter_count: id as usize,
                    report_count: self.reference.seq as usize,
                    mean_margin: 0.5,
                };
                let prev = self.crl.revoke(VehicleId(id), record);
                assert_eq!(prev, self.reference.revoke(VehicleId(id), record));
            }
            Op::Prune => {
                self.crl.prune(self.now);
                self.reference.prune(self.now);
            }
            Op::SetLogCapacity(capacity) => {
                self.crl.set_log_capacity(capacity);
                self.reference.set_log_capacity(capacity);
            }
            Op::Delta(draw) => {
                let delta = self.checked_delta(draw % (self.reference.seq + 3));
                self.handed.push((delta, self.crl.clone()));
            }
            Op::Sync(n) => {
                let delta = self.checked_delta(self.mirrors[n].seq());
                self.mirrors[n].apply_delta(&delta);
                assert_eq!(self.mirrors[n], self.crl);
                assert_eq!(self.mirrors[n].seq(), self.crl.seq());
                self.handed.push((delta, self.crl.clone()));
            }
            Op::Redeliver(n, draw) => {
                if self.handed.is_empty() {
                    return;
                }
                let (delta, at_upto) = &self.handed[draw as usize % self.handed.len()];
                let mirror = &mut self.mirrors[n];
                let before = (mirror.seq(), mirror.clone());
                mirror.apply_delta(delta);
                let stale = delta.upto <= before.0 || delta.since > before.0;
                if !delta.snapshot && stale {
                    // Already applied, or past a gap: nothing changes.
                    assert_eq!((mirror.seq(), &*mirror), (before.0, &before.1));
                } else {
                    // A mirror only ever holds the list as it was at its
                    // own `seq`, so catching up from there (or a snapshot)
                    // lands exactly on the list at `upto`.
                    assert_eq!((mirror.seq(), &*mirror), (delta.upto, at_upto));
                }
            }
        }
        assert_eq!(self.crl.seq(), self.reference.seq);
        assert_eq!(self.crl.log_len(), self.reference.log.len());
        assert_eq!(self.crl.len(), self.reference.entries.len());
        // Both sides of the incremental-vs-snapshot boundary
        // (`cursor + 1 == oldest_retained` is the last incremental one)
        // and of `cursor == seq`.
        let oldest = self.reference.oldest_retained();
        let seq = self.reference.seq;
        for cursor in [
            oldest.saturating_sub(2),
            oldest.saturating_sub(1),
            oldest,
            seq.saturating_sub(1),
            seq,
            seq + 1,
            seq + 2,
        ] {
            self.checked_delta(cursor);
        }
    }

    /// Every mirror, and one that is ahead of the list, converges in one
    /// round trip.
    fn finish(mut self) {
        for n in 0..MIRRORS {
            self.apply(Op::Sync(n));
        }
        let mut ahead = self.mirrors.swap_remove(0);
        ahead.apply_delta(&CrlDelta {
            since: ahead.seq(),
            upto: self.crl.seq() + 7,
            snapshot: false,
            ops: vec![CrlOp::Revoke {
                vehicle: VehicleId(999),
                record: RevocationRecord {
                    revoked_at: self.now,
                    reporter_count: 1,
                    report_count: 1,
                    mean_margin: 0.0,
                },
            }],
        });
        assert_ne!(ahead, self.crl);
        ahead.apply_delta(&self.checked_delta(ahead.seq()));
        assert_eq!(ahead, self.crl);
        assert_eq!(ahead.seq(), self.crl.seq());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn ring_journal_matches_the_vec_journal(
        expiring in any::<bool>(),
        capacity in 0usize..6,
        ops in proptest::collection::vec(op(), 1..240),
    ) {
        let mut model = Model::new(expiring.then_some(VALIDITY_S));
        // Five draws in six start from a small journal, so it is full
        // within a few ops; the sixth keeps the default 4096.
        if let Some(&capacity) = CAPACITIES.get(capacity) {
            model.apply(Op::SetLogCapacity(capacity));
        }
        for op in ops {
            model.apply(op);
        }
        model.finish();
    }
}

#[test]
fn boundary_cursor_is_the_last_incremental_one() {
    let mut model = Model::new(None);
    model.apply(Op::SetLogCapacity(3));
    for id in 0..5 {
        model.apply(Op::Revoke(id));
    }
    // The journal holds ops 3, 4, 5.
    let at_boundary = model.checked_delta(2);
    assert!(!at_boundary.snapshot);
    assert_eq!(at_boundary.ops.len(), 3);
    assert!(model.checked_delta(1).snapshot);
    model.finish();
}

#[test]
fn shrinking_below_the_current_length_keeps_the_newest_ops() {
    let mut model = Model::new(Some(VALIDITY_S));
    model.apply(Op::SetLogCapacity(64));
    for id in 0..40 {
        model.apply(Op::Revoke(id % 24));
    }
    model.apply(Op::Sync(1));
    model.apply(Op::Prune);
    assert!(model.crl.log_len() > 40);
    model.apply(Op::SetLogCapacity(2));
    assert_eq!(model.crl.log_len(), 2);
    let seq = model.crl.seq();
    assert_eq!(model.checked_delta(seq - 2).ops.len(), 2);
    assert!(model.checked_delta(seq - 3).snapshot);
    // Growing the bound back does not resurrect what was dropped.
    model.apply(Op::SetLogCapacity(64));
    assert!(model.checked_delta(seq - 3).snapshot);
    model.apply(Op::SetLogCapacity(0));
    model.apply(Op::Revoke(3));
    assert_eq!(model.crl.log_len(), 0);
    model.finish();
}
