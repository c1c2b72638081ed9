//! Attack injection: falsifying benign BSM streams per the Table I matrix.

use crate::attack::{Attack, AttackKind, TargetField};
use rand::rngs::StdRng;
use rand::Rng;
use vehigan_sim::{Bsm, VehicleTrace, BSM_INTERVAL_S};

/// When the attacker transmits falsified messages.
///
/// The paper's dataset uses the *persistent* policy (§IV-A): the attacker
/// always transmits attack messages. It is the only one.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AttackPolicy {
    /// Every message is falsified.
    Persistent,
}

/// Value ranges for falsified fields.
///
/// Defaults follow VASP's spirit: "random" values span the plausible
/// playground, "high"/"low" values are physically extreme, offsets are
/// large enough to matter but not absurd.
#[derive(Debug, Clone, PartialEq)]
pub struct AttackParams {
    /// Playground (simulation area) bounds for random/constant positions:
    /// `(min_x, max_x, min_y, max_y)`.
    pub(crate) playground: (f64, f64, f64, f64),
    /// Position offset magnitude range (m).
    pub(crate) pos_offset: (f64, f64),
    /// Random speed range (m/s).
    pub(crate) speed_range: (f64, f64),
    /// Speed offset magnitude range (m/s).
    pub(crate) speed_offset: (f64, f64),
    /// High speed range (m/s).
    pub(crate) speed_high: (f64, f64),
    /// Low speed range (m/s).
    pub(crate) speed_low: (f64, f64),
    /// Random acceleration range (m/s²).
    pub(crate) accel_range: (f64, f64),
    /// Acceleration offset magnitude range (m/s²).
    pub(crate) accel_offset: (f64, f64),
    /// High acceleration range (m/s²).
    pub(crate) accel_high: (f64, f64),
    /// Low acceleration range (m/s²).
    pub(crate) accel_low: (f64, f64),
    /// Heading offset magnitude range (rad).
    pub(crate) heading_offset: (f64, f64),
    /// Rotating-heading rate range (rad/s).
    pub(crate) rotate_rate: (f64, f64),
    /// Random yaw-rate range (rad/s).
    pub(crate) yaw_range: (f64, f64),
    /// Yaw-rate offset magnitude range (rad/s).
    pub(crate) yaw_offset: (f64, f64),
    /// High yaw-rate range (rad/s).
    pub(crate) yaw_high: (f64, f64),
    /// Low yaw-rate range (rad/s).
    pub(crate) yaw_low: (f64, f64),
    /// High coupled heading-rotation rate (rad/s) for HighHeadingYawRate.
    pub(crate) coupled_high_rate: (f64, f64),
    /// Low coupled heading-rotation rate (rad/s) for LowHeadingYawRate.
    pub(crate) coupled_low_rate: (f64, f64),
}

impl Default for AttackParams {
    fn default() -> Self {
        AttackParams {
            playground: (0.0, 1000.0, 0.0, 1000.0),
            pos_offset: (20.0, 150.0),
            speed_range: (0.0, 40.0),
            speed_offset: (2.0, 10.0),
            speed_high: (45.0, 70.0),
            speed_low: (0.0, 0.5),
            accel_range: (-10.0, 10.0),
            accel_offset: (1.0, 5.0),
            accel_high: (10.0, 20.0),
            accel_low: (-20.0, -10.0),
            heading_offset: (0.5, std::f64::consts::PI),
            rotate_rate: (0.2, 1.0),
            yaw_range: (-2.0, 2.0),
            yaw_offset: (0.1, 1.0),
            yaw_high: (2.0, 4.0),
            yaw_low: (-4.0, -2.0),
            coupled_high_rate: (1.0, 2.0),
            coupled_low_rate: (0.01, 0.05),
        }
    }
}

fn sample(range: (f64, f64), rng: &mut StdRng) -> f64 {
    if range.0 == range.1 {
        range.0
    } else {
        rng.gen_range(range.0..range.1)
    }
}

/// Magnitude sampled from `range` with a random sign.
fn sample_signed(range: (f64, f64), rng: &mut StdRng) -> f64 {
    let mag = sample(range, rng);
    if rng.gen_bool(0.5) {
        mag
    } else {
        -mag
    }
}

/// Per-attacker constants sampled once (Table I "Constant"/offset rows and
/// the rotation rates).
#[derive(Debug, Clone)]
struct InjectorState {
    const_pos: (f64, f64),
    const_pos_offset: (f64, f64),
    const_speed: f64,
    const_speed_offset: f64,
    const_accel: f64,
    const_accel_offset: f64,
    const_heading: f64,
    const_heading_offset: f64,
    const_yaw: f64,
    const_yaw_offset: f64,
    rotate_rate: f64,
    coupled_rate: f64,
}

impl InjectorState {
    fn sample(params: &AttackParams, rng: &mut StdRng) -> Self {
        let (x0, x1, y0, y1) = params.playground;
        InjectorState {
            const_pos: (rng.gen_range(x0..x1), rng.gen_range(y0..y1)),
            const_pos_offset: (
                sample_signed(params.pos_offset, rng),
                sample_signed(params.pos_offset, rng),
            ),
            const_speed: sample(params.speed_range, rng),
            const_speed_offset: sample_signed(params.speed_offset, rng),
            const_accel: sample(params.accel_range, rng),
            const_accel_offset: sample_signed(params.accel_offset, rng),
            const_heading: rng.gen_range(-std::f64::consts::PI..std::f64::consts::PI),
            const_heading_offset: sample_signed(params.heading_offset, rng),
            const_yaw: sample(params.yaw_range, rng),
            const_yaw_offset: sample_signed(params.yaw_offset, rng),
            rotate_rate: sample_signed(params.rotate_rate, rng),
            coupled_rate: sample_signed(params.coupled_high_rate, rng),
        }
    }
}

/// A falsified trace: the BSMs an attacker transmits.
#[derive(Debug, Clone, PartialEq)]
pub struct AttackedTrace {
    /// The messages as received by the MBDS (every one falsified).
    pub trace: VehicleTrace,
}

/// Applies `attack` to every message of a benign trace (`policy` is
/// [`AttackPolicy::Persistent`]).
///
/// Per-attacker constants (constant values, offsets, rotation rates) are
/// sampled from `rng` once per call, so distinct attackers falsify
/// differently, matching VASP.
///
/// # Panics
///
/// Panics if the trace is empty.
pub fn inject(
    benign: &VehicleTrace,
    attack: Attack,
    _policy: AttackPolicy,
    params: &AttackParams,
    rng: &mut StdRng,
) -> AttackedTrace {
    assert!(!benign.is_empty(), "cannot attack an empty trace");
    let state = InjectorState::sample(params, rng);
    let t0 = benign.bsms[0].timestamp;
    let mut out = VehicleTrace::new(benign.id);
    // Previous *transmitted* heading, for coherent coupled yaw rates.
    let mut prev_tx_heading: Option<f64> = None;

    for bsm in benign {
        let elapsed = bsm.timestamp - t0;
        let mut tx = *bsm;
        falsify(
            &mut tx,
            attack,
            &state,
            params,
            elapsed,
            prev_tx_heading,
            rng,
        );
        prev_tx_heading = Some(tx.heading);
        out.bsms.push(tx);
    }
    AttackedTrace { trace: out }
}

#[allow(clippy::too_many_arguments)]
fn falsify(
    bsm: &mut Bsm,
    attack: Attack,
    state: &InjectorState,
    params: &AttackParams,
    elapsed: f64,
    prev_tx_heading: Option<f64>,
    rng: &mut StdRng,
) {
    use AttackKind as K;
    use TargetField as F;
    let (x0, x1, y0, y1) = params.playground;
    match (attack.field(), attack.kind()) {
        (F::Position, K::Random) => {
            bsm.pos_x = rng.gen_range(x0..x1);
            bsm.pos_y = rng.gen_range(y0..y1);
        }
        (F::Position, K::RandomOffset) => {
            bsm.pos_x += sample_signed(params.pos_offset, rng);
            bsm.pos_y += sample_signed(params.pos_offset, rng);
        }
        (F::Position, K::Constant) => {
            bsm.pos_x = state.const_pos.0;
            bsm.pos_y = state.const_pos.1;
        }
        (F::Position, K::ConstantOffset) => {
            bsm.pos_x += state.const_pos_offset.0;
            bsm.pos_y += state.const_pos_offset.1;
        }
        (F::Speed, K::Random) => bsm.speed = sample(params.speed_range, rng),
        (F::Speed, K::RandomOffset) => {
            bsm.speed = (bsm.speed + sample_signed(params.speed_offset, rng)).max(0.0)
        }
        (F::Speed, K::Constant) => bsm.speed = state.const_speed,
        (F::Speed, K::ConstantOffset) => {
            bsm.speed = (bsm.speed + state.const_speed_offset).max(0.0)
        }
        (F::Speed, K::High) => bsm.speed = sample(params.speed_high, rng),
        (F::Speed, K::Low) => bsm.speed = sample(params.speed_low, rng),
        (F::Acceleration, K::Random) => bsm.acceleration = sample(params.accel_range, rng),
        (F::Acceleration, K::RandomOffset) => {
            bsm.acceleration += sample_signed(params.accel_offset, rng)
        }
        (F::Acceleration, K::Constant) => bsm.acceleration = state.const_accel,
        (F::Acceleration, K::ConstantOffset) => bsm.acceleration += state.const_accel_offset,
        (F::Acceleration, K::High) => bsm.acceleration = sample(params.accel_high, rng),
        (F::Acceleration, K::Low) => bsm.acceleration = sample(params.accel_low, rng),
        (F::Heading, K::Random) => {
            bsm.heading = rng.gen_range(-std::f64::consts::PI..std::f64::consts::PI)
        }
        (F::Heading, K::RandomOffset) => {
            bsm.heading =
                Bsm::normalize_angle(bsm.heading + sample_signed(params.heading_offset, rng))
        }
        (F::Heading, K::Constant) => bsm.heading = state.const_heading,
        (F::Heading, K::ConstantOffset) => {
            bsm.heading = Bsm::normalize_angle(bsm.heading + state.const_heading_offset)
        }
        (F::Heading, K::Opposite) => {
            bsm.heading = Bsm::normalize_angle(bsm.heading + std::f64::consts::PI)
        }
        (F::Heading, K::Perpendicular) => {
            bsm.heading = Bsm::normalize_angle(bsm.heading + std::f64::consts::FRAC_PI_2)
        }
        (F::Heading, K::Rotating) => {
            bsm.heading = Bsm::normalize_angle(state.const_heading + state.rotate_rate * elapsed)
        }
        (F::YawRate, K::Random) => bsm.yaw_rate = sample(params.yaw_range, rng),
        (F::YawRate, K::RandomOffset) => bsm.yaw_rate += sample_signed(params.yaw_offset, rng),
        (F::YawRate, K::Constant) => bsm.yaw_rate = state.const_yaw,
        (F::YawRate, K::ConstantOffset) => bsm.yaw_rate += state.const_yaw_offset,
        (F::YawRate, K::High) => bsm.yaw_rate = sample(params.yaw_high, rng),
        (F::YawRate, K::Low) => bsm.yaw_rate = sample(params.yaw_low, rng),
        (F::HeadingYawRate, kind) => {
            coupled_heading_yaw(bsm, kind, state, params, elapsed, prev_tx_heading, rng)
        }
        _ => unreachable!("Attack::new validated the matrix"),
    }
}

/// The advanced attacks: falsify heading and set yaw rate to the *actual*
/// derivative of the falsified heading sequence, replicating a coherent
/// (but fake) maneuver, e.g. staging a sharp turn (Fig 1b).
fn coupled_heading_yaw(
    bsm: &mut Bsm,
    kind: AttackKind,
    state: &InjectorState,
    params: &AttackParams,
    elapsed: f64,
    prev_tx_heading: Option<f64>,
    rng: &mut StdRng,
) {
    let new_heading = match kind {
        AttackKind::Random => rng.gen_range(-std::f64::consts::PI..std::f64::consts::PI),
        AttackKind::RandomOffset => {
            Bsm::normalize_angle(bsm.heading + sample_signed(params.heading_offset, rng))
        }
        AttackKind::Constant => state.const_heading,
        AttackKind::ConstantOffset => {
            Bsm::normalize_angle(bsm.heading + state.const_heading_offset)
        }
        AttackKind::High => {
            Bsm::normalize_angle(state.const_heading + state.coupled_rate * elapsed)
        }
        AttackKind::Low => {
            let rate = state.coupled_rate.signum()
                * (params.coupled_low_rate.0
                    + (state.coupled_rate.abs() - params.coupled_high_rate.0).abs()
                        % (params.coupled_low_rate.1 - params.coupled_low_rate.0));
            Bsm::normalize_angle(state.const_heading + rate * elapsed)
        }
        _ => unreachable!("matrix excludes other kinds for HeadingYawRate"),
    };
    // Coherent yaw rate: the discrete derivative of the transmitted heading.
    bsm.yaw_rate = match prev_tx_heading {
        Some(prev) => Bsm::normalize_angle(new_heading - prev) / BSM_INTERVAL_S,
        None => match kind {
            AttackKind::High | AttackKind::Low => state.coupled_rate,
            AttackKind::Constant => 0.0,
            _ => bsm.yaw_rate,
        },
    };
    bsm.heading = new_heading;
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use vehigan_sim::{SensorModel, SimConfig, TrafficSimulator};

    fn benign_trace() -> VehicleTrace {
        let config = SimConfig {
            n_vehicles: 1,
            duration_s: 60.0,
            seed: 3,
            sensor: SensorModel::noiseless(),
            ..SimConfig::default()
        };
        TrafficSimulator::new(config).run().remove(0)
    }

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0)
    }

    fn run(attack: Attack) -> (VehicleTrace, AttackedTrace) {
        let benign = benign_trace();
        let attacked = inject(
            &benign,
            attack,
            AttackPolicy::Persistent,
            &AttackParams::default(),
            &mut rng(),
        );
        (benign, attacked)
    }

    #[test]
    fn persistent_policy_falsifies_everything() {
        let attack = Attack::by_name("RandomSpeed").unwrap();
        let (benign, attacked) = run(attack);
        assert_eq!(attacked.trace.len(), benign.len());
        for (b, a) in benign.iter().zip(&attacked.trace) {
            assert_ne!(
                b.speed, a.speed,
                "a transmitted speed kept its benign value"
            );
        }
    }

    #[test]
    fn non_targeted_fields_untouched() {
        let (benign, attacked) = run(Attack::by_name("RandomSpeed").unwrap());
        for (b, a) in benign.iter().zip(&attacked.trace) {
            assert_eq!(b.pos_x, a.pos_x);
            assert_eq!(b.heading, a.heading);
            assert_eq!(b.yaw_rate, a.yaw_rate);
            assert_eq!(b.acceleration, a.acceleration);
        }
    }

    #[test]
    fn constant_position_is_constant() {
        let (_, attacked) = run(Attack::by_name("PlaygroundConstantPosition").unwrap());
        let first = &attacked.trace.bsms[0];
        for b in &attacked.trace {
            assert_eq!((b.pos_x, b.pos_y), (first.pos_x, first.pos_y));
        }
    }

    #[test]
    fn constant_offset_position_preserves_shape() {
        let (benign, attacked) = run(Attack::by_name("ConstantPositionOffset").unwrap());
        let dx0 = attacked.trace.bsms[0].pos_x - benign.bsms[0].pos_x;
        let dy0 = attacked.trace.bsms[0].pos_y - benign.bsms[0].pos_y;
        assert!(dx0.abs() >= 20.0 || dy0.abs() >= 20.0);
        for (b, a) in benign.iter().zip(&attacked.trace) {
            assert!((a.pos_x - b.pos_x - dx0).abs() < 1e-9);
            assert!((a.pos_y - b.pos_y - dy0).abs() < 1e-9);
        }
    }

    #[test]
    fn high_speed_is_extreme() {
        let (_, attacked) = run(Attack::by_name("HighSpeed").unwrap());
        assert!(attacked.trace.iter().all(|b| b.speed >= 45.0));
    }

    #[test]
    fn low_speed_is_near_zero() {
        let (_, attacked) = run(Attack::by_name("LowSpeed").unwrap());
        assert!(attacked.trace.iter().all(|b| b.speed <= 0.5));
    }

    #[test]
    fn opposite_heading_flips() {
        let (benign, attacked) = run(Attack::by_name("OppositeHeading").unwrap());
        for (b, a) in benign.iter().zip(&attacked.trace) {
            let diff = Bsm::normalize_angle(a.heading - b.heading).abs();
            assert!((diff - std::f64::consts::PI).abs() < 1e-9);
        }
    }

    #[test]
    fn perpendicular_heading_rotates_quarter() {
        let (benign, attacked) = run(Attack::by_name("PerpendicularHeading").unwrap());
        for (b, a) in benign.iter().zip(&attacked.trace) {
            let diff = Bsm::normalize_angle(a.heading - b.heading).abs();
            assert!((diff - std::f64::consts::FRAC_PI_2).abs() < 1e-9);
        }
    }

    #[test]
    fn rotating_heading_rotates_linearly() {
        let (_, attacked) = run(Attack::by_name("RotatingHeading").unwrap());
        let bsms = &attacked.trace.bsms;
        // Consecutive heading deltas must be constant (the rotation rate).
        let d0 = Bsm::normalize_angle(bsms[1].heading - bsms[0].heading);
        for w in bsms.windows(2) {
            let d = Bsm::normalize_angle(w[1].heading - w[0].heading);
            assert!((d - d0).abs() < 1e-9);
        }
        assert!(d0.abs() > 0.01); // actually rotating
    }

    #[test]
    fn coupled_high_attack_is_coherent() {
        // The advanced attack's signature: transmitted yaw rate equals the
        // discrete derivative of the transmitted heading.
        let (_, attacked) = run(Attack::by_name("HighHeadingYawRate").unwrap());
        let bsms = &attacked.trace.bsms;
        for w in bsms.windows(2) {
            let dh = Bsm::normalize_angle(w[1].heading - w[0].heading) / BSM_INTERVAL_S;
            assert!(
                (dh - w[1].yaw_rate).abs() < 1e-6,
                "dh={dh} yaw={}",
                w[1].yaw_rate
            );
        }
        // And the rate is high.
        assert!(bsms[5].yaw_rate.abs() >= 1.0);
    }

    #[test]
    fn coupled_constant_attack_has_zero_yaw() {
        let (_, attacked) = run(Attack::by_name("ConstantHeadingYawRate").unwrap());
        for b in attacked.trace.iter().skip(1) {
            assert!(b.yaw_rate.abs() < 1e-9);
        }
    }

    #[test]
    fn coupled_random_attack_yaw_matches_heading_derivative() {
        let (_, attacked) = run(Attack::by_name("RandomHeadingYawRate").unwrap());
        let bsms = &attacked.trace.bsms;
        for w in bsms.windows(2) {
            let dh = Bsm::normalize_angle(w[1].heading - w[0].heading) / BSM_INTERVAL_S;
            assert!((dh - w[1].yaw_rate).abs() < 1e-6);
        }
    }

    #[test]
    fn different_attackers_get_different_constants() {
        let benign = benign_trace();
        let attack = Attack::by_name("ConstantSpeed").unwrap();
        let mut r = rng();
        let a = inject(
            &benign,
            attack,
            AttackPolicy::Persistent,
            &AttackParams::default(),
            &mut r,
        );
        let b = inject(
            &benign,
            attack,
            AttackPolicy::Persistent,
            &AttackParams::default(),
            &mut r,
        );
        assert_ne!(a.trace.bsms[0].speed, b.trace.bsms[0].speed);
    }

    #[test]
    fn all_35_attacks_inject_without_panic_and_change_something() {
        let benign = benign_trace();
        let mut r = rng();
        for attack in Attack::catalog() {
            let attacked = inject(
                &benign,
                attack,
                AttackPolicy::Persistent,
                &AttackParams::default(),
                &mut r,
            );
            assert_eq!(attacked.trace.len(), benign.len(), "{attack}");
            let changed = benign.iter().zip(&attacked.trace).any(|(b, a)| b != a);
            assert!(changed, "attack {attack} changed nothing");
        }
    }
}
