//! Ingest-time BSM validation: the hardening layer between the radio and
//! [`WindowBuffer::push`](crate::WindowBuffer::push).
//!
//! Field BSM data is hostile by default — VeReMi exists precisely because
//! deployed senders emit malformed, replayed, and out-of-order messages.
//! A single non-finite field survives the Table II feature arithmetic
//! (subtraction, sin/cos, scaling, clamping all propagate NaN) and
//! poisons every window the message participates in, which in turn
//! poisons ensemble scores and any percentile calibrated from them. An
//! [`IngestGuard`] rejects such messages *before* they touch per-vehicle
//! window state, with a typed [`RejectReason`] per rejection so the
//! serving layer can count and alert instead of silently corrupting.
//!
//! Three checks, in order (first failure wins):
//!
//! 1. **Finiteness** — every payload field must be a finite number
//!    ([`RejectReason::NonFinite`]).
//! 2. **Physical range** — optional per-field plausibility bounds
//!    ([`FieldLimits`]; [`RejectReason::OutOfRange`]). Off by default so
//!    the guard never changes behavior on trusted simulator traffic;
//!    [`FieldLimits::rsu`] enables deployment-grade bounds.
//! 3. **Staleness** — a message older than the vehicle's newest accepted
//!    message beyond a reorder tolerance ([`RejectReason::Stale`]). With
//!    the default tolerance of zero, per-vehicle timestamps must be
//!    strictly increasing — duplicates and replays are rejected.

use vehigan_sim::Bsm;

/// Why an ingest guard rejected a BSM.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// A payload field was NaN or ±∞.
    NonFinite,
    /// A field violated the configured [`FieldLimits`]; carries the
    /// offending field's name.
    OutOfRange(&'static str),
    /// The timestamp was older than the vehicle's newest accepted
    /// message by more than the reorder tolerance (replay, duplicate, or
    /// reordering beyond what the deployment tolerates).
    Stale,
}

impl std::fmt::Display for RejectReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RejectReason::NonFinite => write!(f, "non-finite field"),
            RejectReason::OutOfRange(field) => write!(f, "{field} out of range"),
            RejectReason::Stale => write!(f, "stale timestamp"),
        }
    }
}

/// Running rejection counters, one per [`RejectReason`] class.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RejectCounters {
    /// Messages rejected for a non-finite field.
    pub non_finite: u64,
    /// Messages rejected for violating [`FieldLimits`].
    pub out_of_range: u64,
    /// Messages rejected as stale/duplicate/reordered.
    pub stale: u64,
}

impl RejectCounters {
    /// Records one rejection.
    pub fn count(&mut self, reason: RejectReason) {
        match reason {
            RejectReason::NonFinite => self.non_finite += 1,
            RejectReason::OutOfRange(_) => self.out_of_range += 1,
            RejectReason::Stale => self.stale += 1,
        }
    }

    /// Total rejections across all reasons.
    pub fn total(&self) -> u64 {
        self.non_finite + self.out_of_range + self.stale
    }

    /// Element-wise difference from an earlier snapshot of the same
    /// counters (for per-batch deltas).
    pub fn since(&self, earlier: &RejectCounters) -> RejectCounters {
        RejectCounters {
            non_finite: self.non_finite - earlier.non_finite,
            out_of_range: self.out_of_range - earlier.out_of_range,
            stale: self.stale - earlier.stale,
        }
    }
}

impl std::ops::AddAssign for RejectCounters {
    fn add_assign(&mut self, rhs: RejectCounters) {
        self.non_finite += rhs.non_finite;
        self.out_of_range += rhs.out_of_range;
        self.stale += rhs.stale;
    }
}

/// Optional per-field physical plausibility bounds. `None` disables the
/// check for that field.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FieldLimits {
    /// Maximum |pos_x| and |pos_y| in meters.
    pub max_abs_position: Option<f64>,
    /// Speed must lie in `[0, max_speed]` m/s.
    pub max_speed: Option<f64>,
    /// Maximum |acceleration| in m/s².
    pub max_abs_acceleration: Option<f64>,
    /// Maximum |yaw_rate| in rad/s.
    pub max_abs_yaw_rate: Option<f64>,
}

impl FieldLimits {
    /// No range checks (the default — finiteness and staleness still
    /// apply through the guard).
    pub(crate) fn none() -> Self {
        FieldLimits::default()
    }

    /// Deployment-grade bounds for an RSU: positions within a
    /// metropolitan bounding box (±100 km of the local origin), speed in
    /// `[0, 100]` m/s (360 km/h), |a| ≤ 20 m/s², |ω| ≤ 2 rad/s. Wide
    /// enough that no physically drivable trajectory is rejected, tight
    /// enough that absurd falsifications never reach the feature path.
    pub fn rsu() -> Self {
        FieldLimits {
            max_abs_position: Some(1e5),
            max_speed: Some(100.0),
            max_abs_acceleration: Some(20.0),
            max_abs_yaw_rate: Some(2.0),
        }
    }

    fn check(&self, bsm: &Bsm) -> Result<(), RejectReason> {
        if let Some(p) = self.max_abs_position {
            if bsm.pos_x.abs() > p {
                return Err(RejectReason::OutOfRange("pos_x"));
            }
            if bsm.pos_y.abs() > p {
                return Err(RejectReason::OutOfRange("pos_y"));
            }
        }
        if let Some(v) = self.max_speed {
            if bsm.speed < 0.0 || bsm.speed > v {
                return Err(RejectReason::OutOfRange("speed"));
            }
        }
        if let Some(a) = self.max_abs_acceleration {
            if bsm.acceleration.abs() > a {
                return Err(RejectReason::OutOfRange("acceleration"));
            }
        }
        if let Some(w) = self.max_abs_yaw_rate {
            if bsm.yaw_rate.abs() > w {
                return Err(RejectReason::OutOfRange("yaw_rate"));
            }
        }
        Ok(())
    }
}

/// Ingest-time validation policy: finiteness, optional [`FieldLimits`],
/// and per-vehicle staleness.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IngestGuard {
    /// Physical plausibility bounds (`FieldLimits::none` by default).
    pub limits: FieldLimits,
    /// How far (seconds) a message may be older than the vehicle's
    /// newest accepted message before it is rejected as stale. `0.0`
    /// (the default) requires strictly increasing per-vehicle
    /// timestamps, which also rejects exact-duplicate timestamps.
    pub reorder_tolerance_s: f64,
}

impl Default for IngestGuard {
    fn default() -> Self {
        IngestGuard {
            limits: FieldLimits::none(),
            reorder_tolerance_s: 0.0,
        }
    }
}

impl IngestGuard {
    /// The default guard: finiteness + strict per-vehicle monotonicity,
    /// no range limits. Accepts everything simulator traffic produces.
    pub fn permissive() -> Self {
        IngestGuard::default()
    }

    /// Deployment-grade guard: [`FieldLimits::rsu`] bounds plus strict
    /// monotonic timestamps.
    pub fn rsu() -> Self {
        IngestGuard {
            limits: FieldLimits::rsu(),
            ..IngestGuard::default()
        }
    }

    /// Validates one message against the guard. `last_seen` is the
    /// timestamp of the vehicle's newest *accepted* message, or `None`
    /// for a first contact (staleness cannot apply).
    ///
    /// Check order is fixed (finiteness, range, staleness) so a given
    /// malformed message always reports the same [`RejectReason`].
    pub fn validate(&self, bsm: &Bsm, last_seen: Option<f64>) -> Result<(), RejectReason> {
        if !bsm.all_finite() {
            return Err(RejectReason::NonFinite);
        }
        self.limits.check(bsm)?;
        if let Some(seen) = last_seen {
            if bsm.timestamp <= seen - self.reorder_tolerance_s {
                return Err(RejectReason::Stale);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vehigan_sim::VehicleId;

    fn bsm(t: f64) -> Bsm {
        Bsm {
            vehicle_id: VehicleId(7),
            timestamp: t,
            pos_x: 10.0,
            pos_y: -4.0,
            speed: 13.0,
            acceleration: 0.4,
            heading: 0.2,
            yaw_rate: 0.01,
        }
    }

    #[test]
    fn clean_message_passes_every_guard() {
        for guard in [IngestGuard::permissive(), IngestGuard::rsu()] {
            assert_eq!(guard.validate(&bsm(1.0), None), Ok(()));
            assert_eq!(guard.validate(&bsm(1.0), Some(0.9)), Ok(()));
        }
    }

    #[test]
    fn every_non_finite_field_is_rejected() {
        let guard = IngestGuard::permissive();
        for poison in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            for field in 0..7 {
                let mut b = bsm(1.0);
                match field {
                    0 => b.timestamp = poison,
                    1 => b.pos_x = poison,
                    2 => b.pos_y = poison,
                    3 => b.speed = poison,
                    4 => b.acceleration = poison,
                    5 => b.heading = poison,
                    _ => b.yaw_rate = poison,
                }
                assert!(!b.all_finite());
                assert_eq!(
                    guard.validate(&b, None),
                    Err(RejectReason::NonFinite),
                    "field {field} poison {poison} not rejected"
                );
            }
        }
    }

    #[test]
    fn rsu_limits_reject_absurd_fields() {
        let guard = IngestGuard::rsu();
        let mut b = bsm(1.0);
        b.speed = 900.0;
        assert_eq!(
            guard.validate(&b, None),
            Err(RejectReason::OutOfRange("speed"))
        );
        let mut b = bsm(1.0);
        b.speed = -1.0;
        assert_eq!(
            guard.validate(&b, None),
            Err(RejectReason::OutOfRange("speed"))
        );
        let mut b = bsm(1.0);
        b.pos_x = 1e9;
        assert_eq!(
            guard.validate(&b, None),
            Err(RejectReason::OutOfRange("pos_x"))
        );
        let mut b = bsm(1.0);
        b.yaw_rate = -5.0;
        assert_eq!(
            guard.validate(&b, None),
            Err(RejectReason::OutOfRange("yaw_rate"))
        );
        // The permissive guard accepts the same values.
        let mut b = bsm(1.0);
        b.speed = 900.0;
        assert_eq!(IngestGuard::permissive().validate(&b, None), Ok(()));
    }

    #[test]
    fn staleness_is_strict_at_zero_tolerance() {
        let guard = IngestGuard::permissive();
        // Older and exact-duplicate timestamps are stale.
        assert_eq!(
            guard.validate(&bsm(0.9), Some(1.0)),
            Err(RejectReason::Stale)
        );
        assert_eq!(
            guard.validate(&bsm(1.0), Some(1.0)),
            Err(RejectReason::Stale)
        );
        assert_eq!(guard.validate(&bsm(1.1), Some(1.0)), Ok(()));
        // First contact: staleness cannot apply.
        assert_eq!(guard.validate(&bsm(-1e9), None), Ok(()));
    }

    #[test]
    fn reorder_tolerance_admits_bounded_reordering() {
        let guard = IngestGuard {
            reorder_tolerance_s: 0.5,
            ..IngestGuard::permissive()
        };
        assert_eq!(guard.validate(&bsm(0.6), Some(1.0)), Ok(()));
        assert_eq!(guard.validate(&bsm(1.0), Some(1.0)), Ok(()));
        assert_eq!(
            guard.validate(&bsm(0.5), Some(1.0)),
            Err(RejectReason::Stale)
        );
    }

    #[test]
    fn counters_classify_and_diff() {
        let mut c = RejectCounters::default();
        c.count(RejectReason::NonFinite);
        c.count(RejectReason::Stale);
        c.count(RejectReason::Stale);
        c.count(RejectReason::OutOfRange("speed"));
        assert_eq!(c.non_finite, 1);
        assert_eq!(c.out_of_range, 1);
        assert_eq!(c.stale, 2);
        assert_eq!(c.total(), 4);
        let earlier = RejectCounters {
            non_finite: 1,
            out_of_range: 0,
            stale: 1,
        };
        assert_eq!(
            c.since(&earlier),
            RejectCounters {
                non_finite: 0,
                out_of_range: 1,
                stale: 1
            }
        );
    }
}
