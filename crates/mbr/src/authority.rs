//! The misbehavior authority (MA): ingests MBRs, corroborates them across
//! independent reporters, and revokes credentials (§I, §II).
//!
//! A single malicious or faulty reporter must not be able to evict an
//! honest vehicle, so conviction requires corroboration: at least
//! `min_reporters` **distinct** reporters and `min_reports` worth of
//! decayed report weight inside a sliding time window (the bounded
//! evidence accumulator in [`crate::evidence`]).
//!
//! # Fleet-scale design
//!
//! Evidence lives in `n_shards` hash-partitioned shards behind per-shard
//! locks, mirroring `vehigan-serve`'s data plane. The shard key is the
//! suspect's resolved *long-term* identity when a linkage manager is
//! attached (so every pseudonym of one vehicle — and therefore every
//! sibling revocation a conviction triggers — stays inside one shard),
//! falling back to the pseudonym id otherwise.
//!
//! [`MisbehaviorAuthority::ingest_batch`] fans a batch out across shards
//! and is **bitwise-identical to serial ingest** of the same slice:
//!
//! 1. Reports are routed to shards preserving arrival order, so each
//!    suspect group sees exactly the per-group subsequence serial ingest
//!    would feed it.
//! 2. Workers read the global CRL *frozen* at batch start plus a
//!    shard-local map of revocations decided earlier in this batch.
//!    Because a conviction only ever revokes pseudonyms in its own shard
//!    (the linkage-aware shard key), the local map is complete: a worker
//!    observes precisely the revocations serial ingest would have
//!    applied before each of its reports.
//! 3. Per-suspect evidence updates are plain `f64` arithmetic driven
//!    only by that suspect's report subsequence — no cross-suspect or
//!    cross-shard state — so shard evidence ends bit-identical.
//! 4. Convictions are merged into the CRL serially in (shard, arrival)
//!    order; the resulting entry *set* equals serial ingest's (op order
//!    may differ, which is why [`CertificateRevocationList`] equality
//!    compares entries, not journal order).

use crate::crl::{CertificateRevocationList, RevocationRecord};
use crate::evidence::{Observation, SuspectEvidence};
use crate::pseudonym::{LongTermId, PseudonymManager};
use crate::report::{InvalidMbrError, Mbr};
use parking_lot::Mutex;
use std::collections::HashMap;
use vehigan_sim::VehicleId;

/// Conviction policy of the authority.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct AuthorityPolicy {
    /// Distinct reporters required for conviction.
    pub min_reporters: usize,
    /// Total decayed report weight required for conviction.
    pub min_reports: usize,
    /// Corroboration window in seconds (reports older than this are
    /// dropped from consideration; the evidence decay half-life is
    /// `window_s / 2`).
    pub window_s: f64,
    /// Expected evidence length (`w · f`) for structural validation.
    pub evidence_len: usize,
    /// CRL entry validity (`None` = permanent).
    pub revocation_validity_s: Option<f64>,
}

impl Default for AuthorityPolicy {
    fn default() -> Self {
        AuthorityPolicy {
            min_reporters: 2,
            min_reports: 3,
            window_s: 60.0,
            evidence_len: 120,
            revocation_validity_s: None,
        }
    }
}

/// Outcome of ingesting one report.
#[derive(Debug, Clone, PartialEq)]
pub enum IngestOutcome {
    /// Report rejected by validation.
    Rejected(InvalidMbrError),
    /// Report about a permanently revoked vehicle (no further action).
    AlreadyRevoked,
    /// Report timestamp a full window older than the suspect's
    /// high-water clock: replayed/ancient evidence, discarded.
    StaleDiscarded,
    /// Report accepted; suspect not yet convicted.
    Pending {
        /// Distinct reporters accumulated inside the window.
        reporters: usize,
        /// Decayed report weight (rounded) inside the window.
        reports: usize,
    },
    /// The report completed the corroboration requirement: revoked.
    Revoked(RevocationRecord),
    /// Corroboration re-met while a time-limited revocation was still
    /// active: the revocation is refreshed instead of lapsing.
    Extended(RevocationRecord),
}

/// One conviction (or extension) decided during ingest.
#[derive(Debug, Clone, PartialEq)]
pub struct Conviction {
    /// The accused pseudonym that crossed the corroboration bar.
    pub suspect: VehicleId,
    /// The resolved long-term identity, when a linkage is attached.
    pub long_term: Option<LongTermId>,
    /// Every pseudonym revoked by this conviction (all issued pseudonyms
    /// of `long_term`, or just `suspect` without linkage).
    pub revoked: Vec<VehicleId>,
    /// The revocation record placed on the CRL.
    pub record: RevocationRecord,
    /// Whether this refreshed an already-active time-limited revocation.
    pub extension: bool,
}

/// Summary of one `ingest_batch` call.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BatchReport {
    /// Reports handed to the batch.
    pub received: usize,
    /// Reports absorbed into evidence.
    pub accepted: usize,
    /// Reports failing structural validation.
    pub rejected: usize,
    /// Off-window replays discarded without touching state.
    pub stale_discarded: usize,
    /// Reports about permanently revoked vehicles.
    pub already_revoked: usize,
    /// Convictions and extensions decided, in (shard, arrival) order.
    pub convictions: Vec<Conviction>,
}

/// Lifetime report counters of the authority.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct AuthorityStats {
    /// Reports absorbed into evidence.
    pub accepted: u64,
    /// Reports failing structural validation.
    pub rejected: u64,
    /// Off-window replays discarded.
    pub stale_discarded: u64,
    /// Reports about permanently revoked vehicles.
    pub already_revoked: u64,
    /// Convictions (including extensions).
    pub convictions: u64,
    /// Extensions of active time-limited revocations.
    pub extensions: u64,
}

/// Evidence partition: suspects hashed here by group key.
#[derive(Debug, Default)]
struct Shard {
    evidence: HashMap<VehicleId, SuspectEvidence>,
}

/// Batch-local worker state, merged serially after the fan-out.
#[derive(Debug, Default)]
struct BatchScratch {
    /// Revocations decided earlier in this batch (this shard only).
    pending_rev: HashMap<VehicleId, RevocationRecord>,
    convictions: Vec<Conviction>,
    counters: AuthorityStats,
}

/// Below this batch size the fan-out runs on the calling thread —
/// thread spawn overhead would dominate.
const PARALLEL_THRESHOLD: usize = 4096;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// The misbehavior authority.
///
/// # Examples
///
/// ```
/// use vehigan_mbr::{AuthorityPolicy, IngestOutcome, Mbr, MisbehaviorAuthority};
/// use vehigan_sim::VehicleId;
///
/// let mut ma = MisbehaviorAuthority::new(AuthorityPolicy {
///     min_reporters: 2, min_reports: 2, evidence_len: 4, ..Default::default()
/// });
/// let report = |reporter, t| Mbr {
///     reporter: VehicleId(reporter), suspect: VehicleId(9), timestamp: t,
///     score: 1.0, threshold: 0.5, evidence: vec![0.0; 4],
/// };
/// assert!(matches!(ma.ingest(report(1, 0.0)), IngestOutcome::Pending { .. }));
/// assert!(matches!(ma.ingest(report(2, 1.0)), IngestOutcome::Revoked(_)));
/// assert!(ma.crl().is_revoked(VehicleId(9), 1.0));
/// ```
#[derive(Debug)]
pub struct MisbehaviorAuthority {
    policy: AuthorityPolicy,
    shards: Vec<Mutex<Shard>>,
    crl: CertificateRevocationList,
    scms: Option<PseudonymManager>,
    /// Long-term identities with a standing conviction (drives
    /// auto-revocation of freshly issued pseudonyms).
    convicted_lt: HashMap<LongTermId, RevocationRecord>,
    stats: AuthorityStats,
}

impl MisbehaviorAuthority {
    /// Creates an authority with the given policy and a default shard
    /// count of 8.
    ///
    /// # Panics
    ///
    /// Panics if the policy is degenerate (zero reporters/reports or a
    /// non-positive window).
    pub fn new(policy: AuthorityPolicy) -> Self {
        Self::with_shards(policy, 8)
    }

    /// Creates an authority with an explicit evidence shard count.
    ///
    /// # Panics
    ///
    /// Panics on a degenerate policy or `n_shards == 0`.
    pub fn with_shards(policy: AuthorityPolicy, n_shards: usize) -> Self {
        assert!(policy.min_reporters >= 1, "need at least one reporter");
        assert!(
            policy.min_reports >= policy.min_reporters,
            "min_reports must be >= min_reporters"
        );
        assert!(policy.window_s > 0.0, "window must be positive");
        assert!(n_shards >= 1, "need at least one shard");
        MisbehaviorAuthority {
            crl: CertificateRevocationList::new(policy.revocation_validity_s),
            policy,
            shards: (0..n_shards)
                .map(|_| Mutex::new(Shard::default()))
                .collect(),
            scms: None,
            convicted_lt: HashMap::new(),
            stats: AuthorityStats::default(),
        }
    }

    /// Attaches the SCMS linkage manager: convictions now revoke *every*
    /// issued pseudonym of the resolved long-term identity, and
    /// [`issue_pseudonym`](Self::issue_pseudonym) auto-revokes rotations
    /// of convicted vehicles.
    pub fn with_linkage(mut self, scms: PseudonymManager) -> Self {
        self.scms = Some(scms);
        self
    }

    /// The active policy.
    pub fn policy(&self) -> &AuthorityPolicy {
        &self.policy
    }

    /// The authority's CRL.
    pub fn crl(&self) -> &CertificateRevocationList {
        &self.crl
    }

    /// The attached linkage manager, if any.
    pub fn scms(&self) -> Option<&PseudonymManager> {
        self.scms.as_ref()
    }

    /// Lifetime report counters.
    pub fn stats(&self) -> AuthorityStats {
        self.stats
    }

    /// Evidence shard count.
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// Shard routing key: the resolved long-term identity when linkage
    /// is attached (tagged to avoid colliding with raw pseudonym ids),
    /// else the pseudonym itself. Keeping a vehicle's pseudonyms on one
    /// shard is what makes batch-local revocation state complete.
    fn group_key(&self, suspect: VehicleId) -> u64 {
        match self.scms.as_ref().and_then(|s| s.resolve(suspect)) {
            Some(lt) => (1u64 << 32) | lt.0 as u64,
            None => suspect.0 as u64,
        }
    }

    fn shard_index(&self, suspect: VehicleId) -> usize {
        let key = self.group_key(suspect);
        ((key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 33) as usize) % self.shards.len()
    }

    /// Folds a worker's decisions into the global CRL and counters.
    fn merge_scratch(&mut self, scratch: BatchScratch) -> Vec<Conviction> {
        for conv in &scratch.convictions {
            for sib in &conv.revoked {
                self.crl.revoke(*sib, conv.record.clone());
            }
            if let Some(lt) = conv.long_term {
                self.convicted_lt.insert(lt, conv.record.clone());
            }
        }
        let c = scratch.counters;
        self.stats.accepted += c.accepted;
        self.stats.rejected += c.rejected;
        self.stats.stale_discarded += c.stale_discarded;
        self.stats.already_revoked += c.already_revoked;
        self.stats.convictions += c.convictions;
        self.stats.extensions += c.extensions;
        scratch.convictions
    }

    /// Ingests one report, possibly convicting the suspect.
    pub fn ingest(&mut self, report: Mbr) -> IngestOutcome {
        self.ingest_ref(&report)
    }

    /// Ingests one report by reference (the hot path: evidence is only
    /// inspected, never retained).
    pub fn ingest_ref(&mut self, report: &Mbr) -> IngestOutcome {
        let idx = self.shard_index(report.suspect);
        let mut scratch = BatchScratch::default();
        let out = {
            let mut shard = self.shards[idx].lock();
            ingest_one(
                &self.policy,
                &self.crl,
                self.scms.as_ref(),
                &mut shard.evidence,
                &mut scratch,
                report,
            )
        };
        self.merge_scratch(scratch);
        out
    }

    /// Ingests a batch of reports, fanning out across evidence shards
    /// (parallel above `PARALLEL_THRESHOLD` reports) and merging
    /// deterministically. Final authority state is bitwise-identical to
    /// calling [`ingest`](Self::ingest) on each report in slice order
    /// (see module docs for the argument).
    pub fn ingest_batch(&mut self, reports: &[Mbr]) -> BatchReport {
        let n = self.shards.len();
        let mut buckets: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (i, r) in reports.iter().enumerate() {
            buckets[self.shard_index(r.suspect)].push(i);
        }
        let run_shard = |shard_idx: usize, idxs: &[usize]| -> BatchScratch {
            let mut scratch = BatchScratch::default();
            let mut shard = self.shards[shard_idx].lock();
            for &i in idxs {
                let _ = ingest_one(
                    &self.policy,
                    &self.crl,
                    self.scms.as_ref(),
                    &mut shard.evidence,
                    &mut scratch,
                    &reports[i],
                );
            }
            scratch
        };
        let scratches: Vec<BatchScratch> = if n == 1 || reports.len() < PARALLEL_THRESHOLD {
            buckets
                .iter()
                .enumerate()
                .map(|(s, idxs)| run_shard(s, idxs))
                .collect()
        } else {
            let run_shard = &run_shard;
            crossbeam::thread::scope(|sc| {
                let handles: Vec<_> = buckets
                    .iter()
                    .enumerate()
                    .map(|(s, idxs)| sc.spawn(move |_| run_shard(s, idxs)))
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("authority shard worker panicked"))
                    .collect()
            })
            .expect("authority batch scope panicked")
        };
        let mut out = BatchReport {
            received: reports.len(),
            ..BatchReport::default()
        };
        for scratch in scratches {
            let c = scratch.counters;
            out.accepted += c.accepted as usize;
            out.rejected += c.rejected as usize;
            out.stale_discarded += c.stale_discarded as usize;
            out.already_revoked += c.already_revoked as usize;
            out.convictions.extend(self.merge_scratch(scratch));
        }
        out
    }

    /// Issues a fresh pseudonym through the attached linkage manager,
    /// auto-revoking it when the vehicle has a standing conviction (a
    /// convicted vehicle must not rejoin the network by rotating).
    ///
    /// # Panics
    ///
    /// Panics when no linkage manager is attached.
    pub fn issue_pseudonym(&mut self, vehicle: LongTermId, now: f64) -> VehicleId {
        let scms = self
            .scms
            .as_mut()
            .expect("issue_pseudonym requires with_linkage");
        let pseudonym = scms.issue(vehicle);
        if let Some(rec) = self.convicted_lt.get(&vehicle) {
            let active = match self.policy.revocation_validity_s {
                Some(v) => now - rec.revoked_at <= v,
                None => true,
            };
            if active {
                self.crl.revoke(pseudonym, rec.clone());
            }
        }
        pseudonym
    }

    /// Number of suspects with open (unconvicted) evidence.
    pub fn pending_suspects(&self) -> usize {
        self.shards.iter().map(|s| s.lock().evidence.len()).sum()
    }

    /// Order-independent FNV digest of the exact per-suspect evidence
    /// bits, for the serial ≡ sharded equivalence tests.
    #[doc(hidden)]
    pub fn evidence_fingerprint(&self) -> u64 {
        let mut h = FNV_OFFSET;
        let fold = |h: &mut u64, bits: u64| {
            for b in bits.to_le_bytes() {
                *h ^= b as u64;
                *h = h.wrapping_mul(FNV_PRIME);
            }
        };
        for shard in &self.shards {
            let shard = shard.lock();
            let mut items: Vec<(u32, u64)> = shard
                .evidence
                .iter()
                .map(|(v, e)| (v.0, e.digest(FNV_OFFSET)))
                .collect();
            items.sort_unstable();
            for (v, d) in items {
                fold(&mut h, v as u64);
                fold(&mut h, d);
            }
        }
        h
    }
}

/// The single-report state machine both serial ingest and the batch
/// workers run — sharing it is what makes their equivalence structural
/// rather than incidental.
fn ingest_one(
    policy: &AuthorityPolicy,
    crl: &CertificateRevocationList,
    scms: Option<&PseudonymManager>,
    evidence: &mut HashMap<VehicleId, SuspectEvidence>,
    scratch: &mut BatchScratch,
    report: &Mbr,
) -> IngestOutcome {
    if let Err(e) = report.validate(policy.evidence_len) {
        scratch.counters.rejected += 1;
        return IngestOutcome::Rejected(e);
    }
    let suspect = report.suspect;
    let t = report.timestamp;
    // Revocation status: the frozen global CRL, overridden by anything
    // this batch already decided for the suspect's shard.
    let revoked_now = match scratch.pending_rev.get(&suspect) {
        Some(rec) => match policy.revocation_validity_s {
            Some(v) => t - rec.revoked_at <= v,
            None => true,
        },
        None => crl.is_revoked(suspect, t),
    };
    if revoked_now && policy.revocation_validity_s.is_none() {
        // Permanent revocation: nothing left to decide.
        scratch.counters.already_revoked += 1;
        return IngestOutcome::AlreadyRevoked;
    }
    // Time-limited revocations keep accumulating evidence so continuous
    // misbehavior extends them instead of letting them lapse.
    let entry = evidence.entry(suspect).or_default();
    match entry.observe(report.reporter, t, report.margin() as f64, policy.window_s) {
        Observation::Stale => {
            scratch.counters.stale_discarded += 1;
            return IngestOutcome::StaleDiscarded;
        }
        Observation::Absorbed => {}
    }
    scratch.counters.accepted += 1;
    let reporters = entry.reporter_count(policy.window_s);
    let reports = entry.report_count();
    if reporters < policy.min_reporters || reports < policy.min_reports {
        return IngestOutcome::Pending { reporters, reports };
    }
    let record = RevocationRecord {
        revoked_at: entry.high_water,
        reporter_count: reporters,
        report_count: reports,
        mean_margin: entry.mean_margin(),
    };
    let long_term = scms.and_then(|s| s.resolve(suspect));
    let mut revoked = match (long_term, scms) {
        (Some(lt), Some(s)) => s.pseudonyms_of(lt),
        _ => vec![suspect],
    };
    if !revoked.contains(&suspect) {
        revoked.push(suspect);
    }
    for sib in &revoked {
        scratch.pending_rev.insert(*sib, record.clone());
        evidence.remove(sib);
    }
    scratch.counters.convictions += 1;
    if revoked_now {
        scratch.counters.extensions += 1;
    }
    scratch.convictions.push(Conviction {
        suspect,
        long_term,
        revoked,
        record: record.clone(),
        extension: revoked_now,
    });
    if revoked_now {
        IngestOutcome::Extended(record)
    } else {
        IngestOutcome::Revoked(record)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policy() -> AuthorityPolicy {
        AuthorityPolicy {
            min_reporters: 2,
            min_reports: 3,
            window_s: 60.0,
            evidence_len: 4,
            revocation_validity_s: None,
        }
    }

    fn report(reporter: u32, suspect: u32, t: f64) -> Mbr {
        Mbr {
            reporter: VehicleId(reporter),
            suspect: VehicleId(suspect),
            timestamp: t,
            score: 1.0,
            threshold: 0.5,
            evidence: vec![0.0; 4],
        }
    }

    #[test]
    fn single_reporter_cannot_convict() {
        let mut ma = MisbehaviorAuthority::new(policy());
        for t in 0..10 {
            let out = ma.ingest(report(1, 9, t as f64));
            assert!(
                matches!(out, IngestOutcome::Pending { reporters: 1, .. }),
                "one reporter alone convicted at t={t}: {out:?}"
            );
        }
        assert!(!ma.crl().is_revoked(VehicleId(9), 10.0));
    }

    #[test]
    fn corroborated_reports_convict() {
        let mut ma = MisbehaviorAuthority::new(policy());
        assert!(matches!(
            ma.ingest(report(1, 9, 0.0)),
            IngestOutcome::Pending { .. }
        ));
        assert!(matches!(
            ma.ingest(report(2, 9, 1.0)),
            IngestOutcome::Pending { .. }
        ));
        let out = ma.ingest(report(1, 9, 2.0));
        match out {
            IngestOutcome::Revoked(rec) => {
                assert_eq!(rec.reporter_count, 2);
                assert_eq!(rec.report_count, 3);
                assert!((rec.mean_margin - 0.5).abs() < 1e-6);
            }
            other => panic!("expected revocation, got {other:?}"),
        }
        assert!(ma.crl().is_revoked(VehicleId(9), 2.0));
        assert_eq!(ma.pending_suspects(), 0);
    }

    #[test]
    fn stale_reports_age_out_of_the_window() {
        let mut ma = MisbehaviorAuthority::new(policy());
        let _ = ma.ingest(report(1, 9, 0.0));
        let _ = ma.ingest(report(2, 9, 1.0));
        // Third report arrives far outside the window: the first two no
        // longer corroborate.
        let out = ma.ingest(report(3, 9, 1000.0));
        assert!(
            matches!(
                out,
                IngestOutcome::Pending {
                    reporters: 1,
                    reports: 1
                }
            ),
            "{out:?}"
        );
    }

    #[test]
    fn invalid_reports_are_rejected_and_counted() {
        let mut ma = MisbehaviorAuthority::new(policy());
        let mut bad = report(1, 1, 0.0); // self-report
        bad.suspect = bad.reporter;
        assert!(matches!(ma.ingest(bad), IngestOutcome::Rejected(_)));
        assert_eq!(ma.stats().accepted, 0);
        assert_eq!(ma.stats().rejected, 1);
    }

    #[test]
    fn reports_after_revocation_are_noops() {
        let mut ma = MisbehaviorAuthority::new(policy());
        let _ = ma.ingest(report(1, 9, 0.0));
        let _ = ma.ingest(report(2, 9, 1.0));
        let _ = ma.ingest(report(3, 9, 2.0));
        assert!(ma.crl().is_revoked(VehicleId(9), 2.0));
        assert!(matches!(
            ma.ingest(report(4, 9, 3.0)),
            IngestOutcome::AlreadyRevoked
        ));
    }

    #[test]
    fn independent_suspects_tracked_separately() {
        let mut ma = MisbehaviorAuthority::new(policy());
        let _ = ma.ingest(report(1, 8, 0.0));
        let _ = ma.ingest(report(1, 9, 0.0));
        assert_eq!(ma.pending_suspects(), 2);
    }

    #[test]
    #[should_panic(expected = "min_reports must be")]
    fn degenerate_policy_rejected() {
        let _ = MisbehaviorAuthority::new(AuthorityPolicy {
            min_reporters: 3,
            min_reports: 1,
            ..policy()
        });
    }

    #[test]
    fn batch_matches_serial_bit_for_bit() {
        let stream: Vec<Mbr> = (0..200)
            .map(|i| report(i % 7, 100 + (i % 11), i as f64 * 0.3))
            .collect();
        let mut serial = MisbehaviorAuthority::with_shards(policy(), 4);
        for r in &stream {
            let _ = serial.ingest_ref(r);
        }
        let mut batch = MisbehaviorAuthority::with_shards(policy(), 4);
        let summary = batch.ingest_batch(&stream);
        assert_eq!(serial.evidence_fingerprint(), batch.evidence_fingerprint());
        assert_eq!(serial.crl(), batch.crl());
        assert_eq!(summary.received, 200);
        assert_eq!(
            summary.accepted + summary.rejected + summary.stale_discarded + summary.already_revoked,
            200
        );
    }

    #[test]
    fn batch_convictions_reported_once_per_suspect() {
        let mut ma = MisbehaviorAuthority::new(policy());
        let stream: Vec<Mbr> = (0..3).map(|i| report(i + 1, 9, i as f64)).collect();
        let summary = ma.ingest_batch(&stream);
        assert_eq!(summary.convictions.len(), 1);
        assert_eq!(summary.convictions[0].suspect, VehicleId(9));
        assert!(!summary.convictions[0].extension);
    }
}
