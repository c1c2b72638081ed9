//! Sensor noise models.
//!
//! Real BSMs carry GNSS/IMU/wheel-odometry readings, each with its own noise
//! floor. The paper's VASP traces inherit these from the simulator; here the
//! same effect is produced by additive Gaussian noise per field, which the
//! adversarial-robustness experiments also rely on (FGSM perturbations are
//! designed to hide inside this noise).

use crate::types::Bsm;
use rand::rngs::StdRng;
use rand::Rng;

/// Per-field Gaussian noise standard deviations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SensorModel {
    /// GNSS position noise per axis (m).
    pub pos_std: f64,
    /// Wheel-speed noise (m/s).
    pub speed_std: f64,
    /// Accelerometer noise (m/s²).
    pub accel_std: f64,
    /// Compass/GNSS-course heading noise (rad).
    pub heading_std: f64,
    /// Gyroscope yaw-rate noise (rad/s).
    pub yaw_rate_std: f64,
}

impl Default for SensorModel {
    /// Automotive-grade defaults: ~0.5 m GPS, 0.1 m/s wheel speed,
    /// 0.1 m/s² accelerometer, ~0.6° heading, 0.005 rad/s gyro.
    fn default() -> Self {
        SensorModel {
            pos_std: 0.5,
            speed_std: 0.1,
            accel_std: 0.1,
            heading_std: 0.01,
            yaw_rate_std: 0.005,
        }
    }
}

impl SensorModel {
    /// A noiseless sensor (useful for physics tests).
    pub fn noiseless() -> Self {
        SensorModel {
            pos_std: 0.0,
            speed_std: 0.0,
            accel_std: 0.0,
            heading_std: 0.0,
            yaw_rate_std: 0.0,
        }
    }

    /// Applies noise to a ground-truth BSM.
    pub(crate) fn apply(&self, bsm: &Bsm, rng: &mut StdRng) -> Bsm {
        let mut noisy = *bsm;
        noisy.pos_x += gauss(rng) * self.pos_std;
        noisy.pos_y += gauss(rng) * self.pos_std;
        noisy.speed = (noisy.speed + gauss(rng) * self.speed_std).max(0.0);
        noisy.acceleration += gauss(rng) * self.accel_std;
        noisy.heading = Bsm::normalize_angle(noisy.heading + gauss(rng) * self.heading_std);
        noisy.yaw_rate += gauss(rng) * self.yaw_rate_std;
        noisy
    }
}

/// Standard normal sample via Box–Muller.
fn gauss(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::VehicleId;
    use rand::SeedableRng;

    fn base_bsm() -> Bsm {
        Bsm {
            vehicle_id: VehicleId(0),
            timestamp: 1.0,
            pos_x: 100.0,
            pos_y: 200.0,
            speed: 10.0,
            acceleration: 0.5,
            heading: 0.3,
            yaw_rate: 0.01,
        }
    }

    #[test]
    fn noiseless_is_identity() {
        let mut rng = StdRng::seed_from_u64(0);
        let bsm = base_bsm();
        let out = SensorModel::noiseless().apply(&bsm, &mut rng);
        assert_eq!(out, bsm);
    }

    #[test]
    fn noise_statistics_match_model() {
        let mut rng = StdRng::seed_from_u64(1);
        let model = SensorModel::default();
        let bsm = base_bsm();
        let n = 5000;
        let mut sum = 0.0;
        let mut sum_sq = 0.0;
        for _ in 0..n {
            let noisy = model.apply(&bsm, &mut rng);
            let e = noisy.pos_x - bsm.pos_x;
            sum += e;
            sum_sq += e * e;
        }
        let mean = sum / n as f64;
        let std = (sum_sq / n as f64 - mean * mean).sqrt();
        assert!(mean.abs() < 0.05, "bias {mean}");
        assert!((std - model.pos_std).abs() < 0.05, "std {std}");
    }

    #[test]
    fn speed_never_negative() {
        let mut rng = StdRng::seed_from_u64(2);
        let model = SensorModel {
            speed_std: 5.0,
            ..SensorModel::default()
        };
        let mut bsm = base_bsm();
        bsm.speed = 0.1;
        for _ in 0..1000 {
            assert!(model.apply(&bsm, &mut rng).speed >= 0.0);
        }
    }

    #[test]
    fn heading_stays_normalized() {
        let mut rng = StdRng::seed_from_u64(3);
        let model = SensorModel {
            heading_std: 1.0,
            ..SensorModel::default()
        };
        let mut bsm = base_bsm();
        bsm.heading = std::f64::consts::PI - 0.01;
        for _ in 0..1000 {
            let h = model.apply(&bsm, &mut rng).heading;
            assert!(h > -std::f64::consts::PI - 1e-9 && h <= std::f64::consts::PI + 1e-9);
        }
    }
}
