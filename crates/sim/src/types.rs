//! Core V2X message and trace types.

use std::fmt;

/// The BSM transmission interval mandated by SAE J2735 (100 ms).
pub const BSM_INTERVAL_S: f64 = 0.1;

/// Short-term pseudonym identifying the sender of a BSM.
///
/// Real deployments rotate pseudonyms through the SCMS; within a simulation
/// horizon a vehicle keeps one id, matching how the VehiGAN dataset groups
/// messages per vehicle.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VehicleId(pub u32);

impl fmt::Display for VehicleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "veh-{}", self.0)
    }
}

/// A Basic Safety Message: the SAE J2735 core fields VehiGAN consumes.
///
/// Units: meters, seconds, radians. `heading` is measured
/// counter-clockwise from the +X axis and normalized to `(-π, π]`;
/// `yaw_rate` is its time derivative.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bsm {
    /// Sender pseudonym.
    pub vehicle_id: VehicleId,
    /// Transmission time in seconds since simulation start.
    pub timestamp: f64,
    /// East coordinate in meters.
    pub pos_x: f64,
    /// North coordinate in meters.
    pub pos_y: f64,
    /// Scalar speed in m/s (non-negative for benign traffic).
    pub speed: f64,
    /// Scalar longitudinal acceleration in m/s² (signed).
    pub acceleration: f64,
    /// Heading in radians, normalized to `(-π, π]`.
    pub heading: f64,
    /// Yaw rate in rad/s.
    pub yaw_rate: f64,
}

impl Bsm {
    /// Whether every payload field (timestamp included) is a finite
    /// number. Field-equipment BSMs are not guaranteed well-formed, so
    /// ingest paths check this before any feature arithmetic — a single
    /// NaN survives subtraction, scaling, and clamping all the way into
    /// a window tensor.
    pub fn all_finite(&self) -> bool {
        self.timestamp.is_finite()
            && self.pos_x.is_finite()
            && self.pos_y.is_finite()
            && self.speed.is_finite()
            && self.acceleration.is_finite()
            && self.heading.is_finite()
            && self.yaw_rate.is_finite()
    }

    /// Normalizes an angle to `(-π, π]`.
    pub fn normalize_angle(theta: f64) -> f64 {
        let mut t = theta % (2.0 * std::f64::consts::PI);
        if t > std::f64::consts::PI {
            t -= 2.0 * std::f64::consts::PI;
        } else if t <= -std::f64::consts::PI {
            t += 2.0 * std::f64::consts::PI;
        }
        t
    }
}

/// The time-ordered BSM stream of a single vehicle.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct VehicleTrace {
    /// The sender all messages belong to.
    pub id: VehicleId,
    /// Messages in strictly increasing timestamp order.
    pub bsms: Vec<Bsm>,
}

impl VehicleTrace {
    /// Creates an empty trace for `id`.
    pub fn new(id: VehicleId) -> Self {
        VehicleTrace {
            id,
            bsms: Vec::new(),
        }
    }

    /// Number of messages.
    pub fn len(&self) -> usize {
        self.bsms.len()
    }

    /// Whether the trace has no messages.
    pub fn is_empty(&self) -> bool {
        self.bsms.is_empty()
    }

    /// Iterates over the messages.
    pub fn iter(&self) -> std::slice::Iter<'_, Bsm> {
        self.bsms.iter()
    }
}

impl<'a> IntoIterator for &'a VehicleTrace {
    type Item = &'a Bsm;
    type IntoIter = std::slice::Iter<'a, Bsm>;
    fn into_iter(self) -> Self::IntoIter {
        self.bsms.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    #[test]
    fn normalize_angle_range() {
        for theta in [-7.0, -PI, -0.5, 0.0, 0.5, PI, 7.0, 100.0] {
            let n = Bsm::normalize_angle(theta);
            assert!(n > -PI - 1e-12 && n <= PI + 1e-12, "theta={theta} → {n}");
        }
    }

    #[test]
    fn normalize_angle_fixed_points() {
        assert_eq!(Bsm::normalize_angle(0.0), 0.0);
        assert!((Bsm::normalize_angle(2.0 * PI)).abs() < 1e-12);
        assert!((Bsm::normalize_angle(3.0 * PI) - PI).abs() < 1e-12);
    }

    #[test]
    fn vehicle_id_display() {
        assert_eq!(VehicleId(42).to_string(), "veh-42");
    }
}
