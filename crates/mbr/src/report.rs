//! Misbehavior reports (MBRs): the evidence packet an MBDS sends to the
//! misbehavior authority (§I, §III-F).

use vehigan_sim::VehicleId;

/// A misbehavior report produced by one observer about one suspect.
///
/// Carries the ensemble verdict plus the offending snapshot as evidence,
/// so the MA can re-validate independently before acting.
#[derive(Debug, Clone, PartialEq)]
pub struct Mbr {
    /// The reporting vehicle/RSU (its own pseudonym).
    pub reporter: VehicleId,
    /// The suspected misbehaving sender's pseudonym.
    pub suspect: VehicleId,
    /// Report creation time (seconds).
    pub timestamp: f64,
    /// Ensemble anomaly score of the offending window.
    pub score: f32,
    /// The detection threshold the score exceeded.
    pub threshold: f32,
    /// The flattened `w × f` evidence snapshot.
    pub evidence: Vec<f32>,
}

/// Validation failure for a received report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InvalidMbrError {
    /// Score did not actually exceed the threshold.
    ScoreBelowThreshold,
    /// Score or threshold was not a finite number.
    NonFiniteScore,
    /// Timestamp was NaN or infinite. A NaN timestamp makes every
    /// window-expiry comparison false, so such a report would otherwise
    /// pin itself in the corroboration state forever.
    NonFiniteTimestamp,
    /// Evidence snapshot was empty or the wrong size.
    BadEvidence {
        /// Expected flat length (`w · f`), or 0 if unknown.
        expected: usize,
        /// Received length.
        got: usize,
    },
    /// A vehicle reported itself (self-reports are discarded — a
    /// misbehaving insider could otherwise build false credibility).
    SelfReport,
    /// Evidence values escaped the scaled sensor domain `[-1, 1]`.
    EvidenceOutOfRange,
}

impl std::fmt::Display for InvalidMbrError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InvalidMbrError::ScoreBelowThreshold => {
                write!(f, "reported score does not exceed the threshold")
            }
            InvalidMbrError::NonFiniteScore => write!(f, "score or threshold is not finite"),
            InvalidMbrError::NonFiniteTimestamp => write!(f, "timestamp is not finite"),
            InvalidMbrError::BadEvidence { expected, got } => {
                write!(
                    f,
                    "evidence length {got} does not match expected {expected}"
                )
            }
            InvalidMbrError::SelfReport => write!(f, "reporter and suspect are the same vehicle"),
            InvalidMbrError::EvidenceOutOfRange => {
                write!(f, "evidence values escape the scaled domain [-1, 1]")
            }
        }
    }
}

impl std::error::Error for InvalidMbrError {}

impl Mbr {
    /// Structural validation an authority performs before trusting a
    /// report.
    ///
    /// # Errors
    ///
    /// Returns the first failed check; see [`InvalidMbrError`].
    pub fn validate(&self, expected_evidence_len: usize) -> Result<(), InvalidMbrError> {
        if self.reporter == self.suspect {
            return Err(InvalidMbrError::SelfReport);
        }
        if !self.score.is_finite() || !self.threshold.is_finite() {
            return Err(InvalidMbrError::NonFiniteScore);
        }
        if !self.timestamp.is_finite() {
            return Err(InvalidMbrError::NonFiniteTimestamp);
        }
        if self.score <= self.threshold {
            return Err(InvalidMbrError::ScoreBelowThreshold);
        }
        if self.evidence.len() != expected_evidence_len {
            return Err(InvalidMbrError::BadEvidence {
                expected: expected_evidence_len,
                got: self.evidence.len(),
            });
        }
        if !evidence_in_domain(&self.evidence) {
            return Err(InvalidMbrError::EvidenceOutOfRange);
        }
        Ok(())
    }

    /// How far the score exceeded the threshold (the report's "strength").
    pub(crate) fn margin(&self) -> f32 {
        self.score - self.threshold
    }
}

/// Whether every evidence value is a number in `[-1, 1]` (plus rounding
/// slack). One compare per value and no early exit, so the 120 floats of
/// a report go through at vector width; NaN and ±∞ fail the compare like
/// any other escapee.
fn evidence_in_domain(evidence: &[f32]) -> bool {
    evidence
        .iter()
        .fold(true, |ok, v| ok & (v.abs() <= 1.0 + 1e-6))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_report() -> Mbr {
        Mbr {
            reporter: VehicleId(1),
            suspect: VehicleId(2),
            timestamp: 10.0,
            score: 0.5,
            threshold: 0.2,
            evidence: vec![0.0; 120],
        }
    }

    #[test]
    fn valid_report_passes() {
        assert!(valid_report().validate(120).is_ok());
    }

    #[test]
    fn self_report_rejected() {
        let mut r = valid_report();
        r.suspect = r.reporter;
        assert_eq!(r.validate(120), Err(InvalidMbrError::SelfReport));
    }

    #[test]
    fn below_threshold_rejected() {
        let mut r = valid_report();
        r.score = 0.1;
        assert_eq!(r.validate(120), Err(InvalidMbrError::ScoreBelowThreshold));
    }

    #[test]
    fn nan_rejected() {
        let mut r = valid_report();
        r.score = f32::NAN;
        assert_eq!(r.validate(120), Err(InvalidMbrError::NonFiniteScore));
    }

    #[test]
    fn non_finite_timestamp_rejected() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut r = valid_report();
            r.timestamp = bad;
            assert_eq!(r.validate(120), Err(InvalidMbrError::NonFiniteTimestamp));
        }
    }

    #[test]
    fn wrong_evidence_len_rejected() {
        let r = valid_report();
        assert_eq!(
            r.validate(64),
            Err(InvalidMbrError::BadEvidence {
                expected: 64,
                got: 120
            })
        );
    }

    #[test]
    fn out_of_domain_evidence_rejected() {
        let mut r = valid_report();
        r.evidence[5] = 3.0;
        assert_eq!(r.validate(120), Err(InvalidMbrError::EvidenceOutOfRange));
    }

    #[test]
    #[allow(clippy::manual_range_contains)]
    fn evidence_check_is_the_three_compare_predicate() {
        // The predicate the fold replaced, as it was written.
        let escapes = |v: f32| !v.is_finite() || v < -1.0 - 1e-6 || v > 1.0 + 1e-6;
        // Every bit pattern within 4096 ulps of ±(1 + 1e-6), every NaN
        // payload byte in both signs, ±∞, ±0 and the subnormal edge.
        let edge = (1.0f32 + 1e-6).to_bits();
        let near = (edge - 4096..=edge + 4096).flat_map(|b| [b, b | 0x8000_0000]);
        let nans = (0..=0xFFu32)
            .flat_map(|p| [0x7F80_0001 + (p << 14), 0x7FC0_0000 | p])
            .flat_map(|b| [b, b | 0x8000_0000]);
        let special = [0x7F80_0000, 0xFF80_0000, 0, 0x8000_0000, 1, 0x8000_0001];
        for bits in near.chain(nans).chain(special) {
            let v = f32::from_bits(bits);
            assert_eq!(evidence_in_domain(&[v]), !escapes(v), "{bits:#010x}");
        }
        // No position hides an escapee.
        for at in [0, 7, 8, 63, 119] {
            let mut r = valid_report();
            r.evidence[at] = f32::NAN;
            assert_eq!(r.validate(120), Err(InvalidMbrError::EvidenceOutOfRange));
            r.evidence[at] = -1.0;
            assert_eq!(r.validate(120), Ok(()));
        }
    }

    #[test]
    fn margin_is_score_excess() {
        let r = valid_report();
        assert!((r.margin() - 0.3).abs() < 1e-6);
    }

    #[test]
    fn error_messages_are_lowercase() {
        for e in [
            InvalidMbrError::ScoreBelowThreshold,
            InvalidMbrError::NonFiniteScore,
            InvalidMbrError::NonFiniteTimestamp,
            InvalidMbrError::SelfReport,
            InvalidMbrError::EvidenceOutOfRange,
        ] {
            assert!(e.to_string().starts_with(char::is_lowercase));
        }
    }
}
