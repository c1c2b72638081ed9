//! Regression tests for the four authority bugfixes in ISSUE 10. Each
//! test encodes the observable failure of the pre-fix code:
//!
//! 1. `Mbr::validate` accepted non-finite timestamps, letting a NaN
//!    report pin itself into the corroboration state forever.
//! 2. Out-of-order/replayed reports bypassed window expiry (the queue was
//!    pruned against each *arriving* report's timestamp, so replaying old
//!    evidence kept it alive and unbounded).
//! 3. A conviction revoked only the accused pseudonym; the attacker kept
//!    transmitting under its other SCMS pseudonyms, or rotated to a
//!    fresh one.
//! 4. With `revocation_validity_s: Some(_)`, reports about a
//!    revoked-but-still-misbehaving vehicle were discarded, so the
//!    revocation lapsed and the vehicle rejoined the network.

use vehigan_mbr::{
    AuthorityPolicy, IngestOutcome, InvalidMbrError, LongTermId, Mbr, MisbehaviorAuthority,
    PseudonymManager, SuspectEvidence,
};
use vehigan_sim::VehicleId;

const EV_LEN: usize = 4;

fn policy() -> AuthorityPolicy {
    AuthorityPolicy {
        min_reporters: 2,
        min_reports: 3,
        window_s: 60.0,
        evidence_len: EV_LEN,
        revocation_validity_s: None,
    }
}

fn mbr(reporter: u32, suspect: u32, t: f64) -> Mbr {
    Mbr {
        reporter: VehicleId(reporter),
        suspect: VehicleId(suspect),
        timestamp: t,
        score: 1.0,
        threshold: 0.5,
        evidence: vec![0.0; EV_LEN],
    }
}

/// Bugfix 1: a NaN/∞ timestamp must be rejected at validation, not
/// absorbed into evidence (NaN defeats every window comparison, so the
/// pre-fix code retained such a report forever).
#[test]
fn non_finite_timestamps_never_reach_evidence() {
    let mut ma = MisbehaviorAuthority::new(policy());
    for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        let mut r = mbr(1, 100, 0.0);
        r.timestamp = bad;
        assert_eq!(r.validate(EV_LEN), Err(InvalidMbrError::NonFiniteTimestamp));
        assert_eq!(
            ma.ingest(r),
            IngestOutcome::Rejected(InvalidMbrError::NonFiniteTimestamp)
        );
    }
    assert_eq!(ma.stats().rejected, 3);
    assert_eq!(ma.pending_suspects(), 0, "rejected reports left state");
}

/// Bugfix 2: replayed/ancient reports are discarded against the
/// suspect's high-water clock instead of silently re-arming the window.
/// Pre-fix, the replays below corroborated a conviction out of evidence
/// that expired 940 seconds earlier.
#[test]
fn replayed_reports_cannot_resurrect_expired_evidence() {
    let mut ma = MisbehaviorAuthority::new(policy());
    // One stale-but-real accusation, long since expired…
    assert!(matches!(
        ma.ingest(mbr(1, 100, 10.0)),
        IngestOutcome::Pending { .. }
    ));
    // …then the suspect's clock moves far past it.
    assert!(matches!(
        ma.ingest(mbr(2, 100, 1000.0)),
        IngestOutcome::Pending { .. }
    ));
    // An attacker replays captured old reports from distinct reporters.
    // Each is a full window older than the high-water mark: discarded.
    for reporter in 3..8 {
        assert_eq!(
            ma.ingest(mbr(reporter, 100, 10.0)),
            IngestOutcome::StaleDiscarded
        );
    }
    assert_eq!(ma.stats().stale_discarded, 5);
    assert_eq!(
        ma.stats().convictions,
        0,
        "replays corroborated a conviction"
    );
    assert!(ma.crl().is_empty());
    // And the per-suspect state the replay attack inflates is constant
    // size by construction — no retained queue to fill.
    assert!(std::mem::size_of::<SuspectEvidence>() <= 56);
}

/// Bugfix 3: with SCMS linkage attached, a conviction revokes every
/// pseudonym of the resolved long-term identity, and rotating to a fresh
/// pseudonym after conviction is revoked at issue time.
#[test]
fn conviction_revokes_all_linked_pseudonyms_and_rotations() {
    let mut scms = PseudonymManager::new();
    let lt = LongTermId(7);
    let p1 = scms.issue(lt);
    let p2 = scms.issue(lt);
    let bystander = scms.issue(LongTermId(8));
    let mut ma = MisbehaviorAuthority::new(policy()).with_linkage(scms);

    let _ = ma.ingest(mbr(1, p1.0, 0.0));
    let _ = ma.ingest(mbr(2, p1.0, 1.0));
    let out = ma.ingest(mbr(1, p1.0, 2.0));
    assert!(matches!(out, IngestOutcome::Revoked(_)));

    // The accused pseudonym AND its sibling are both on the CRL.
    assert!(ma.crl().is_revoked(p1, 2.0));
    assert!(
        ma.crl().is_revoked(p2, 2.0),
        "sibling pseudonym escaped the conviction"
    );
    assert!(!ma.crl().is_revoked(bystander, 2.0));

    // Rotating after conviction doesn't readmit the vehicle.
    let p3 = ma.issue_pseudonym(lt, 3.0);
    assert!(
        ma.crl().is_revoked(p3, 3.0),
        "post-conviction rotation escaped revocation"
    );
    let clean = ma.issue_pseudonym(LongTermId(8), 3.0);
    assert!(!ma.crl().is_revoked(clean, 3.0));
}

/// Bugfix 4: a time-limited revocation under continuous, corroborated
/// misbehavior is extended instead of lapsing. Pre-fix, reports about an
/// actively revoked vehicle were discarded, so at `revoked_at +
/// validity` the vehicle silently rejoined the network.
#[test]
fn continuous_misbehavior_extends_time_limited_revocations() {
    let mut ma = MisbehaviorAuthority::new(AuthorityPolicy {
        revocation_validity_s: Some(5.0),
        ..policy()
    });
    // Corroborate the first conviction by t=2.
    let mut t = 0.0;
    for reporter in 1..4 {
        let _ = ma.ingest(mbr(reporter, 100, t));
        t += 1.0;
    }
    assert!(ma.crl().is_revoked(VehicleId(100), 2.0));

    // The vehicle keeps misbehaving; reports keep arriving from rotating
    // observers at 1 Hz for 30 s — far past the original 5 s validity.
    let mut extensions = 0;
    while t < 30.0 {
        // The revocation must be active at every instant of the horizon
        // — pre-fix it lapsed at t=7 (revoked_at 2 + validity 5) and the
        // vehicle rejoined until re-corroborated from scratch.
        assert!(
            ma.crl().is_revoked(VehicleId(100), t),
            "revocation lapsed at t={t} despite continuous misbehavior"
        );
        if let IngestOutcome::Extended(_) = ma.ingest(mbr(1 + (t as u32 % 3), 100, t)) {
            extensions += 1;
        }
        t += 1.0;
    }
    assert!(extensions > 0, "no extension ever issued");
    assert_eq!(ma.stats().extensions, extensions);
    let since = ma.crl().record(VehicleId(100)).unwrap().revoked_at;
    assert!(since > 5.0, "record was never refreshed");
    assert!(ma.crl().is_revoked(VehicleId(100), 30.0));
}
