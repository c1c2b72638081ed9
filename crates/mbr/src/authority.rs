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
//! What lets one authority take a fleet's reports is what it keeps per
//! suspect and what it hands its mirrors, not how it is threaded:
//!
//! - **Bounded evidence.** A suspect's case is one constant-size
//!   [`SuspectEvidence`], boxed in a single map keyed by the accused
//!   pseudonym — memory grows with accused pseudonyms, never with
//!   reports. A case leaves the map only on conviction: one whose
//!   reports have all aged out of the window stays (case expiry is
//!   ROADMAP item 6).
//!   (Boxed because the map is one power-of-two table that pays an
//!   entry's size on every bucket: the flood's heap peak and report rate
//!   are both better with the cases boxed than inline. A 56-byte case
//!   holds its first two reporters itself, so a case of one or two
//!   reporters is one allocation.)
//! - **Linkage.** With a [`PseudonymManager`] attached, a conviction
//!   revokes every pseudonym of the resolved long-term identity and
//!   closes their open cases, and rotations are revoked at issue.
//! - **CRL deltas.** Every revocation is journaled, so mirrors sync by
//!   sequence number ([`crate::CrlDelta`]).
//!
//! There is one ingest path, the private `ingest_one`: a
//! conviction lands on the CRL, in `convicted_lt` and in the counters
//! where it is decided, so the next report — in the same batch or not —
//! sees it. [`ingest`](MisbehaviorAuthority::ingest),
//! [`ingest_ref`](MisbehaviorAuthority::ingest_ref) and
//! [`ingest_batch`](MisbehaviorAuthority::ingest_batch) differ only in
//! what they hand back (DESIGN.md §13 has the measurement that retired
//! a sharded, threaded batch path).

use crate::crl::{CertificateRevocationList, RevocationRecord};
use crate::evidence::{Observation, SuspectEvidence};
use crate::pseudonym::{LongTermId, PseudonymManager};
use crate::report::{InvalidMbrError, Mbr};
use crate::reporters::EXACT_CAP;
use std::collections::HashMap;
use vehigan_sim::{IdHash, VehicleId};

/// Conviction policy of the authority.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AuthorityPolicy {
    /// Distinct reporters required for conviction, at most
    /// [`EXACT_CAP`].
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
        /// Distinct reporters accumulated inside the window: an exact
        /// count, capped at [`EXACT_CAP`].
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
    /// Convictions and extensions decided, in arrival order.
    pub convictions: Vec<Conviction>,
}

/// Lifetime report counters of the authority.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
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
    /// Unconvicted cases by accused pseudonym, expired ones included
    /// (boxed: see module docs).
    evidence: HashMap<VehicleId, Box<SuspectEvidence>, IdHash>,
    crl: CertificateRevocationList,
    scms: Option<PseudonymManager>,
    /// Long-term identities with a standing conviction (drives
    /// auto-revocation of freshly issued pseudonyms).
    convicted_lt: HashMap<LongTermId, RevocationRecord, IdHash>,
    stats: AuthorityStats,
}

impl MisbehaviorAuthority {
    /// Creates an authority with the given policy.
    ///
    /// # Panics
    ///
    /// Panics if the policy is degenerate (zero reporters/reports or a
    /// non-positive window) or asks for more distinct reporters than a
    /// case counts ([`EXACT_CAP`]).
    pub fn new(policy: AuthorityPolicy) -> Self {
        assert!(policy.min_reporters >= 1, "need at least one reporter");
        assert!(
            policy.min_reporters <= EXACT_CAP,
            "min_reporters must be <= EXACT_CAP ({EXACT_CAP})"
        );
        assert!(
            policy.min_reports >= policy.min_reporters,
            "min_reports must be >= min_reporters"
        );
        assert!(policy.window_s > 0.0, "window must be positive");
        MisbehaviorAuthority {
            crl: CertificateRevocationList::new(policy.revocation_validity_s),
            policy,
            evidence: HashMap::default(),
            scms: None,
            convicted_lt: HashMap::default(),
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

    /// Ingests one report, possibly convicting the suspect.
    pub fn ingest(&mut self, report: Mbr) -> IngestOutcome {
        self.ingest_ref(&report)
    }

    /// Ingests one report by reference (the hot path: evidence is only
    /// inspected, never retained).
    pub fn ingest_ref(&mut self, report: &Mbr) -> IngestOutcome {
        self.ingest_one(report).0
    }

    /// Ingests a slice of reports in order — the same as calling
    /// [`ingest_ref`](Self::ingest_ref) on each — and summarises what
    /// happened to them.
    pub fn ingest_batch(&mut self, reports: &[Mbr]) -> BatchReport {
        let before = self.stats;
        let convictions = reports
            .iter()
            .filter_map(|r| self.ingest_one(r).1)
            .collect();
        let counted = |now: u64, then: u64| (now - then) as usize;
        BatchReport {
            received: reports.len(),
            accepted: counted(self.stats.accepted, before.accepted),
            rejected: counted(self.stats.rejected, before.rejected),
            stale_discarded: counted(self.stats.stale_discarded, before.stale_discarded),
            already_revoked: counted(self.stats.already_revoked, before.already_revoked),
            convictions,
        }
    }

    /// The single-report state machine every ingest entry point runs. A
    /// conviction is applied — CRL, sibling cases, `convicted_lt`,
    /// counters — before this returns, so the next report sees it.
    fn ingest_one(&mut self, report: &Mbr) -> (IngestOutcome, Option<Conviction>) {
        let policy = self.policy;
        if let Err(e) = report.validate(policy.evidence_len) {
            self.stats.rejected += 1;
            return (IngestOutcome::Rejected(e), None);
        }
        let suspect = report.suspect;
        let t = report.timestamp;
        let revoked_now = self.crl.is_revoked(suspect, t);
        if revoked_now && policy.revocation_validity_s.is_none() {
            // Permanent revocation: nothing left to decide.
            self.stats.already_revoked += 1;
            return (IngestOutcome::AlreadyRevoked, None);
        }
        // Time-limited revocations keep accumulating evidence so continuous
        // misbehavior extends them instead of letting them lapse.
        let entry = self.evidence.entry(suspect).or_default();
        let margin = f64::from(report.margin());
        if entry.observe(report.reporter, t, margin, policy.window_s) == Observation::Stale {
            self.stats.stale_discarded += 1;
            return (IngestOutcome::StaleDiscarded, None);
        }
        self.stats.accepted += 1;
        let reporters = entry.reporter_count(policy.window_s);
        let reports = entry.report_count();
        if reporters < policy.min_reporters || reports < policy.min_reports {
            return (IngestOutcome::Pending { reporters, reports }, None);
        }
        let record = RevocationRecord {
            revoked_at: entry.high_water,
            reporter_count: reporters,
            report_count: reports,
            mean_margin: entry.mean_margin(),
        };
        let long_term = self.scms.as_ref().and_then(|s| s.resolve(suspect));
        let mut revoked = match (long_term, &self.scms) {
            (Some(lt), Some(s)) => s.pseudonyms_of(lt),
            _ => vec![suspect],
        };
        if !revoked.contains(&suspect) {
            revoked.push(suspect);
        }
        for sib in &revoked {
            self.crl.revoke(*sib, record);
            self.evidence.remove(sib);
        }
        if let Some(lt) = long_term {
            self.convicted_lt.insert(lt, record);
        }
        self.stats.convictions += 1;
        self.stats.extensions += u64::from(revoked_now);
        let conviction = Conviction {
            suspect,
            long_term,
            revoked,
            record,
            extension: revoked_now,
        };
        let outcome = if revoked_now {
            IngestOutcome::Extended(record)
        } else {
            IngestOutcome::Revoked(record)
        };
        (outcome, Some(conviction))
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
                self.crl.revoke(pseudonym, *rec);
            }
        }
        pseudonym
    }

    /// Number of cases in the evidence map: every pseudonym accused and
    /// not yet convicted, *including* those whose reports have all aged
    /// out of the window. A case is removed only on conviction, so this
    /// counts every unconvicted pseudonym ever accused, not the ones
    /// with live evidence.
    pub fn pending_suspects(&self) -> usize {
        self.evidence.len()
    }

    /// Order-independent FNV digest of the exact per-suspect evidence
    /// bits, for the batch ≡ one-by-one equivalence tests.
    #[doc(hidden)]
    pub fn evidence_fingerprint(&self) -> u64 {
        let mut items: Vec<(u32, u64)> = self
            .evidence
            .iter()
            .map(|(v, e)| (v.0, e.digest(FNV_OFFSET)))
            .collect();
        items.sort_unstable();
        let mut h = FNV_OFFSET;
        for bits in items.into_iter().flat_map(|(v, d)| [u64::from(v), d]) {
            for b in bits.to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(FNV_PRIME);
            }
        }
        h
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
    #[should_panic(expected = "min_reporters must be <= EXACT_CAP")]
    fn min_reporters_beyond_the_counted_cap_rejected() {
        let _ = MisbehaviorAuthority::new(AuthorityPolicy {
            min_reporters: EXACT_CAP + 1,
            min_reports: EXACT_CAP + 1,
            ..policy()
        });
    }

    #[test]
    fn batch_matches_serial_bit_for_bit() {
        let stream: Vec<Mbr> = (0..200)
            .map(|i| report(i % 7, 100 + (i % 11), i as f64 * 0.3))
            .collect();
        let mut serial = MisbehaviorAuthority::new(policy());
        for r in &stream {
            let _ = serial.ingest_ref(r);
        }
        let mut batch = MisbehaviorAuthority::new(policy());
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
    fn a_batch_sees_the_sibling_revocations_it_decided_itself() {
        let mut scms = PseudonymManager::new();
        let (p1, p2) = (scms.issue(LongTermId(7)), scms.issue(LongTermId(7)));
        let mut ma = MisbehaviorAuthority::new(policy()).with_linkage(scms);
        // Three reports convict p1; the two after them, in the same
        // slice, accuse its sibling.
        let stream: Vec<Mbr> = [p1, p1, p1, p2, p2]
            .iter()
            .enumerate()
            .map(|(i, s)| report(1000 + i as u32 % 2, s.0, i as f64))
            .collect();
        let summary = ma.ingest_batch(&stream);
        assert_eq!(summary.convictions.len(), 1);
        assert_eq!(summary.convictions[0].revoked, vec![p1, p2]);
        assert_eq!((summary.accepted, summary.already_revoked), (3, 2));
        assert_eq!(ma.pending_suspects(), 0, "a revoked sibling got a case");
        assert!(ma.crl().is_revoked(p2, 4.0));
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
