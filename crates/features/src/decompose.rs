//! Physics-guided vector decomposition (Table II).
//!
//! Raw BSM fields are scalars with weak pairwise correlation (speed vs.
//! acceleration, heading vs. yaw rate). Decomposing them into X/Y
//! components and taking per-step deltas exposes the physical coupling:
//!
//! | relation | benign traffic satisfies |
//! |---|---|
//! | `Δx ≈ vx·Δt` | position integrates velocity |
//! | `Δvx ≈ ax·Δt` | velocity integrates acceleration |
//! | `Δθx ≈ ωx·Δt` | heading integrates yaw rate |
//!
//! Misbehaviors that falsify one field break at least one relation, which
//! is what makes these features discriminative for *any* downstream
//! detector (the paper shows the same features boost the PCA/KNN/GMM/AE
//! baselines too — Table III's `Vehi-` rows).

use vehigan_sim::{Bsm, VehicleTrace};

/// Number of engineered features (the paper's `f = 12`).
pub const NUM_FEATURES: usize = 12;

/// Number of raw features used by the raw-feature baseline (`BaseAE`).
pub(crate) const NUM_RAW_FEATURES: usize = 6;

/// Names of the engineered features, in column order.
pub const FEATURE_NAMES: [&str; NUM_FEATURES] = [
    "delta_x",
    "delta_y",
    "v_x",
    "v_y",
    "delta_v_x",
    "delta_v_y",
    "a_x",
    "a_y",
    "delta_theta_x",
    "delta_theta_y",
    "omega_x",
    "omega_y",
];

/// One engineered feature row (from a consecutive BSM pair).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FeatureRow {
    /// The 12 features in [`FEATURE_NAMES`] order.
    pub values: [f64; NUM_FEATURES],
    /// Timestamp of the later message of the pair.
    pub timestamp: f64,
}

/// Computes the Table II feature row for a consecutive message pair.
///
/// The core feature set is
/// `F = {Δx, Δy, vx, vy, Δvx, Δvy, ax, ay, Δθx, Δθy, ωx, ωy}`.
///
/// # Examples
///
/// ```
/// use vehigan_features::decompose_pair;
/// use vehigan_sim::{Bsm, VehicleId};
///
/// let mk = |t: f64, x: f64| Bsm {
///     vehicle_id: VehicleId(0), timestamp: t, pos_x: x, pos_y: 0.0,
///     speed: 10.0, acceleration: 0.0, heading: 0.0, yaw_rate: 0.0,
/// };
/// let row = decompose_pair(&mk(0.0, 0.0), &mk(0.1, 1.0));
/// assert!((row.values[0] - 1.0).abs() < 1e-9);  // Δx
/// assert!((row.values[2] - 10.0).abs() < 1e-9); // vx = v·cos(0)
/// ```
pub fn decompose_pair(prev: &Bsm, curr: &Bsm) -> FeatureRow {
    let (sin_c, cos_c) = curr.heading.sin_cos();
    let (sin_p, cos_p) = prev.heading.sin_cos();
    let vx = curr.speed * cos_c;
    let vy = curr.speed * sin_c;
    let vx_prev = prev.speed * cos_p;
    let vy_prev = prev.speed * sin_p;
    FeatureRow {
        values: [
            curr.pos_x - prev.pos_x,   // Δx
            curr.pos_y - prev.pos_y,   // Δy
            vx,                        // vx = v·cosθ
            vy,                        // vy = v·sinθ
            vx - vx_prev,              // Δvx
            vy - vy_prev,              // Δvy
            curr.acceleration * cos_c, // ax = a·cosθ
            curr.acceleration * sin_c, // ay = a·sinθ
            cos_c - cos_p,             // Δθx (θx = cosθ)
            sin_c - sin_p,             // Δθy (θy = sinθ)
            curr.yaw_rate * cos_c,     // ωx = ω·cosθ
            curr.yaw_rate * sin_c,     // ωy = ω·sinθ
        ],
        timestamp: curr.timestamp,
    }
}

/// Engineered feature rows for a whole trace (length = `trace.len() − 1`;
/// empty for traces shorter than two messages).
pub fn decompose_trace(trace: &VehicleTrace) -> Vec<FeatureRow> {
    trace
        .bsms
        .windows(2)
        .map(|w| decompose_pair(&w[0], &w[1]))
        .collect()
}

/// The raw feature row used by the raw baseline: `[x, y, v, a, θ, ω]`.
///
/// Positions are made translation-invariant by subtracting the trace's
/// first message (otherwise absolute coordinates dominate every distance).
pub(crate) fn raw_row(bsm: &Bsm, origin: &Bsm) -> [f64; NUM_RAW_FEATURES] {
    [
        bsm.pos_x - origin.pos_x,
        bsm.pos_y - origin.pos_y,
        bsm.speed,
        bsm.acceleration,
        bsm.heading,
        bsm.yaw_rate,
    ]
}

/// Raw feature rows for a whole trace (same length as the engineered rows,
/// skipping the first message so both representations align 1:1).
pub(crate) fn raw_trace(trace: &VehicleTrace) -> Vec<[f64; NUM_RAW_FEATURES]> {
    match trace.bsms.first() {
        Some(origin) => trace.bsms[1..].iter().map(|b| raw_row(b, origin)).collect(),
        None => Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vehigan_sim::{SensorModel, SimConfig, TrafficSimulator, VehicleId, BSM_INTERVAL_S};

    fn noiseless_trace() -> VehicleTrace {
        TrafficSimulator::new(SimConfig {
            n_vehicles: 1,
            duration_s: 60.0,
            seed: 11,
            sensor: SensorModel::noiseless(),
            ..SimConfig::default()
        })
        .run()
        .remove(0)
    }

    #[test]
    fn feature_count_is_twelve() {
        assert_eq!(NUM_FEATURES, 12);
        assert_eq!(FEATURE_NAMES.len(), 12);
    }

    #[test]
    fn rows_align_with_messages() {
        let trace = noiseless_trace();
        let rows = decompose_trace(&trace);
        assert_eq!(rows.len(), trace.len() - 1);
        assert_eq!(raw_trace(&trace).len(), rows.len());
    }

    #[test]
    fn table2_relation_position_velocity() {
        // Δx ≈ vx·Δt on benign noiseless traffic.
        let trace = noiseless_trace();
        for row in decompose_trace(&trace) {
            let dx = row.values[0];
            let vx_dt = row.values[2] * BSM_INTERVAL_S;
            assert!((dx - vx_dt).abs() < 0.15, "Δx={dx} vxΔt={vx_dt}");
        }
    }

    #[test]
    fn table2_relation_velocity_acceleration() {
        // Δvx ≈ ax·Δt (exact along straights; small error through turns
        // where longitudinal acceleration rotates).
        let trace = noiseless_trace();
        for row in decompose_trace(&trace) {
            let dvx = row.values[4];
            let ax_dt = row.values[6] * BSM_INTERVAL_S;
            assert!((dvx - ax_dt).abs() < 0.3, "Δvx={dvx} axΔt={ax_dt}");
        }
    }

    #[test]
    fn table2_relation_heading_yaw() {
        // Δθx ≈ ωx·Δt... with θx = cosθ: dθx/dt = −sinθ·ω. The paper's
        // table couples Δθ components with ω components; the practical
        // invariant is |Δθ| ≈ |ω|·Δt, checked here via both components.
        let trace = noiseless_trace();
        for w in trace.bsms.windows(2) {
            let dtheta = Bsm::normalize_angle(w[1].heading - w[0].heading);
            let w_dt = w[1].yaw_rate * BSM_INTERVAL_S;
            assert!((dtheta - w_dt).abs() < 0.05);
        }
    }

    #[test]
    fn speed_decomposition_magnitude() {
        let trace = noiseless_trace();
        for (row, bsm) in decompose_trace(&trace).iter().zip(trace.bsms[1..].iter()) {
            let mag = (row.values[2].powi(2) + row.values[3].powi(2)).sqrt();
            assert!((mag - bsm.speed).abs() < 1e-9);
        }
    }

    #[test]
    fn raw_rows_are_translation_invariant() {
        let trace = noiseless_trace();
        let rows = raw_trace(&trace);
        assert!(
            rows[0][0].abs() < 5.0,
            "first raw Δ position should be near origin"
        );
    }

    #[test]
    fn empty_trace_yields_no_rows() {
        let trace = VehicleTrace::new(VehicleId(0));
        assert!(decompose_trace(&trace).is_empty());
        assert!(raw_trace(&trace).is_empty());
    }
}
