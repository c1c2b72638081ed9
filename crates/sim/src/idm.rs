//! Intelligent Driver Model (IDM) longitudinal dynamics.
//!
//! Treiber's IDM produces smooth, human-plausible acceleration profiles:
//! gentle cruise control toward a desired speed plus a braking interaction
//! term against an obstacle (here: red-signal stop lines and curve entries).

/// IDM parameters for one driver.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IdmParams {
    /// Maximum comfortable acceleration (m/s²).
    pub a_max: f64,
    /// Comfortable deceleration (m/s²).
    pub b_comfort: f64,
    /// Minimum standstill gap to an obstacle (m).
    pub s0: f64,
    /// Desired time headway (s).
    pub time_headway: f64,
    /// Acceleration exponent (4 in the original model).
    pub delta: f64,
}

impl Default for IdmParams {
    fn default() -> Self {
        IdmParams {
            a_max: 1.8,
            b_comfort: 2.5,
            s0: 2.0,
            time_headway: 1.4,
            delta: 4.0,
        }
    }
}

impl IdmParams {
    /// IDM acceleration for speed `v`, desired speed `v0`, and an optional
    /// obstacle `(gap, obstacle_speed)` ahead.
    ///
    /// With no obstacle, this is the free-road term
    /// `a_max · (1 − (v/v0)^δ)`. With an obstacle the standard interaction
    /// term is added.
    ///
    /// # Panics
    ///
    /// Panics (debug) if `v0` is non-positive.
    pub(crate) fn acceleration(&self, v: f64, v0: f64, obstacle: Option<(f64, f64)>) -> f64 {
        debug_assert!(v0 > 0.0, "desired speed must be positive");
        let free = 1.0 - (v / v0).powf(self.delta);
        let interaction = match obstacle {
            Some((gap, v_obs)) => {
                let gap = gap.max(0.01);
                let dv = v - v_obs;
                let s_star = self.s0
                    + (v * self.time_headway
                        + v * dv / (2.0 * (self.a_max * self.b_comfort).sqrt()))
                    .max(0.0);
                (s_star / gap).powi(2)
            }
            None => 0.0,
        };
        self.a_max * (free - interaction)
    }

    /// Comfortable speed for a curve of radius `r` given a lateral
    /// acceleration budget (≈ 2.5 m/s² for passenger comfort).
    pub(crate) fn curve_speed(&self, radius: f64) -> f64 {
        (2.5 * radius).sqrt()
    }

    /// Desired-speed ceiling when a curve starts `dist` meters ahead and
    /// must be entered at `v_curve`: allows comfortable deceleration
    /// `v² = v_curve² + 2·b·dist`.
    pub(crate) fn approach_speed(&self, v_curve: f64, dist: f64) -> f64 {
        (v_curve * v_curve + 2.0 * self.b_comfort * dist.max(0.0)).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn free_road_accelerates_below_desired() {
        let p = IdmParams::default();
        assert!(p.acceleration(5.0, 13.9, None) > 0.0);
    }

    #[test]
    fn free_road_zero_at_desired_speed() {
        let p = IdmParams::default();
        let a = p.acceleration(13.9, 13.9, None);
        assert!(a.abs() < 1e-9);
    }

    #[test]
    fn decelerates_above_desired_speed() {
        let p = IdmParams::default();
        assert!(p.acceleration(20.0, 13.9, None) < 0.0);
    }

    #[test]
    fn brakes_for_close_obstacle() {
        let p = IdmParams::default();
        let a = p.acceleration(10.0, 13.9, Some((5.0, 0.0)));
        assert!(a < -2.0, "a={a}");
    }

    #[test]
    fn far_obstacle_barely_matters() {
        let p = IdmParams::default();
        let free = p.acceleration(10.0, 13.9, None);
        let with = p.acceleration(10.0, 13.9, Some((500.0, 0.0)));
        assert!((free - with).abs() < 0.1);
    }

    #[test]
    fn standstill_at_stop_line_stays_stopped() {
        let p = IdmParams::default();
        // Stopped at the minimum gap: acceleration ≈ −a_max·(s*/gap)² + a_max ≤ 0.
        let a = p.acceleration(0.0, 13.9, Some((p.s0, 0.0)));
        assert!(a <= 1e-9);
    }

    #[test]
    fn curve_speed_scales_with_radius() {
        let p = IdmParams::default();
        assert!(p.curve_speed(12.0) < p.curve_speed(50.0));
        assert!((p.curve_speed(10.0) - 5.0).abs() < 1e-9);
    }

    #[test]
    fn approach_speed_increases_with_distance() {
        let p = IdmParams::default();
        let near = p.approach_speed(5.0, 1.0);
        let far = p.approach_speed(5.0, 100.0);
        assert!(near < far);
        assert!((p.approach_speed(5.0, 0.0) - 5.0).abs() < 1e-9);
    }
}
