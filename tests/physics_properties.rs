//! Cross-crate property tests: the Table II physics invariants hold on
//! benign traffic for arbitrary seeds, and every catalog attack breaks at
//! least one observable property while preserving the protocol framing.

use proptest::prelude::*;
use vehigan::features::{decompose_trace, fit_scaler, Representation};
use vehigan::sim::{Bsm, SensorModel, SimConfig, TrafficSimulator, BSM_INTERVAL_S};
use vehigan::tensor::init::seeded_rng;
use vehigan::vasp::{inject, Attack, AttackParams, AttackPolicy};

fn noiseless_sim(seed: u64, vehicles: usize) -> Vec<vehigan::sim::VehicleTrace> {
    TrafficSimulator::new(SimConfig {
        n_vehicles: vehicles,
        duration_s: 30.0,
        seed,
        sensor: SensorModel::noiseless(),
        ..SimConfig::default()
    })
    .run()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn benign_physics_holds_for_any_seed(seed in 0u64..10_000) {
        let traces = noiseless_sim(seed, 2);
        for trace in &traces {
            for w in trace.bsms.windows(2) {
                // Δpos ≈ v·Δt in the heading direction.
                let dx = w[1].pos_x - w[0].pos_x;
                let dy = w[1].pos_y - w[0].pos_y;
                let ex = w[1].speed * w[1].heading.cos() * BSM_INTERVAL_S;
                let ey = w[1].speed * w[1].heading.sin() * BSM_INTERVAL_S;
                prop_assert!((dx - ex).abs() < 0.2, "seed {seed}: Δx {dx} vs {ex}");
                prop_assert!((dy - ey).abs() < 0.2);
                // Δv = a·Δt by construction of the integrator.
                let dv = w[1].speed - w[0].speed;
                prop_assert!((dv - w[1].acceleration * BSM_INTERVAL_S).abs() < 1e-6);
                // Δθ ≈ ω·Δt. A step that straddles a straight→arc
                // boundary sees the yaw rate jump mid-interval, so allow
                // the full jump magnitude there (discretization, not a
                // physics violation).
                let dh = Bsm::normalize_angle(w[1].heading - w[0].heading);
                let yaw_jump = (w[1].yaw_rate - w[0].yaw_rate).abs() * BSM_INTERVAL_S;
                let tolerance = 0.06 + yaw_jump;
                prop_assert!(
                    (dh - w[1].yaw_rate * BSM_INTERVAL_S).abs() < tolerance,
                    "seed {seed}: dh={dh} vs {}", w[1].yaw_rate * BSM_INTERVAL_S
                );
            }
        }
    }

    #[test]
    fn every_attack_preserves_framing_and_changes_content(
        seed in 0u64..1000,
        attack_idx in 0usize..35
    ) {
        let traces = noiseless_sim(seed, 1);
        let attack = Attack::catalog()[attack_idx];
        let mut rng = seeded_rng(seed ^ 0xA77AC);
        let attacked = inject(
            &traces[0],
            attack,
            AttackPolicy::Persistent,
            &AttackParams::default(),
            &mut rng,
        );
        // Framing preserved: same id, timestamps, message count.
        prop_assert_eq!(attacked.trace.len(), traces[0].len());
        prop_assert_eq!(attacked.trace.id, traces[0].id);
        for (a, b) in attacked.trace.iter().zip(&traces[0]) {
            prop_assert_eq!(a.timestamp, b.timestamp);
            prop_assert_eq!(a.vehicle_id, b.vehicle_id);
        }
        // Content falsified somewhere.
        let changed = attacked.trace.iter().zip(&traces[0]).any(|(a, b)| a != b);
        prop_assert!(changed, "{} changed nothing (seed {seed})", attack);
    }

    #[test]
    fn coupled_attacks_keep_heading_yaw_coherent(seed in 0u64..500, which in 0usize..6) {
        // The advanced attacks' defining property must hold for all seeds.
        let traces = noiseless_sim(seed, 1);
        let advanced: Vec<Attack> =
            Attack::catalog().into_iter().filter(Attack::is_advanced).collect();
        let attack = advanced[which];
        let mut rng = seeded_rng(seed ^ 0xC0);
        let attacked = inject(
            &traces[0],
            attack,
            AttackPolicy::Persistent,
            &AttackParams::default(),
            &mut rng,
        );
        for w in attacked.trace.bsms.windows(2) {
            let dh = Bsm::normalize_angle(w[1].heading - w[0].heading) / BSM_INTERVAL_S;
            prop_assert!(
                (dh - w[1].yaw_rate).abs() < 1e-4,
                "{}: yaw {} vs dθ/dt {} (seed {seed})",
                attack,
                w[1].yaw_rate,
                dh
            );
        }
    }

    #[test]
    fn scaler_bounds_all_benign_rows(seed in 0u64..500) {
        let traces = noiseless_sim(seed, 2);
        let scaler = fit_scaler(&traces, Representation::Engineered);
        for t in &traces {
            for row in decompose_trace(t) {
                for (j, &v) in row.values.iter().enumerate() {
                    let s = scaler.transform_value(j, v);
                    prop_assert!((-1.0..=1.0).contains(&s));
                }
            }
        }
    }

    #[test]
    fn single_field_attacks_leave_other_fields_alone(
        seed in 0u64..500,
        attack_idx in 0usize..29
    ) {
        // All non-advanced attacks target exactly one field group.
        let traces = noiseless_sim(seed, 1);
        let attack = Attack::catalog()[attack_idx];
        prop_assume!(!attack.is_advanced());
        let mut rng = seeded_rng(seed);
        let attacked = inject(
            &traces[0],
            attack,
            AttackPolicy::Persistent,
            &AttackParams::default(),
            &mut rng,
        );
        use vehigan::vasp::TargetField as F;
        for (a, b) in attacked.trace.iter().zip(&traces[0]) {
            match attack.field() {
                F::Position => {
                    prop_assert_eq!(a.speed, b.speed);
                    prop_assert_eq!(a.heading, b.heading);
                    prop_assert_eq!(a.yaw_rate, b.yaw_rate);
                    prop_assert_eq!(a.acceleration, b.acceleration);
                }
                F::Speed => {
                    prop_assert_eq!((a.pos_x, a.pos_y), (b.pos_x, b.pos_y));
                    prop_assert_eq!(a.heading, b.heading);
                    prop_assert_eq!(a.yaw_rate, b.yaw_rate);
                }
                F::Acceleration => {
                    prop_assert_eq!((a.pos_x, a.pos_y), (b.pos_x, b.pos_y));
                    prop_assert_eq!(a.speed, b.speed);
                    prop_assert_eq!(a.heading, b.heading);
                }
                F::Heading => {
                    prop_assert_eq!((a.pos_x, a.pos_y), (b.pos_x, b.pos_y));
                    prop_assert_eq!(a.speed, b.speed);
                    prop_assert_eq!(a.yaw_rate, b.yaw_rate);
                }
                F::YawRate => {
                    prop_assert_eq!((a.pos_x, a.pos_y), (b.pos_x, b.pos_y));
                    prop_assert_eq!(a.speed, b.speed);
                    prop_assert_eq!(a.heading, b.heading);
                }
                F::HeadingYawRate => unreachable!("filtered above"),
            }
        }
    }
}
