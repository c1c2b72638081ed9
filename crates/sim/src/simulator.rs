//! The traffic simulator: spawns vehicles, integrates their motion, and
//! emits 10 Hz BSM streams.
//!
//! This is the substitute for the SUMO + Veins + OMNeT++ stack of the
//! paper's evaluation (§IV-A). VehiGAN never observes the radio layer —
//! only per-vehicle message content — so the simulator focuses on producing
//! kinematically coherent traces: IDM longitudinal control, signalized
//! stops, curve slow-downs, quarter-turns with matching heading/yaw-rate,
//! and sensor noise.

use crate::idm::IdmParams;
use crate::network::RoadNetwork;
use crate::route::Route;
use crate::sensor::SensorModel;
use crate::types::{Bsm, VehicleId, VehicleTrace, BSM_INTERVAL_S};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Simulation configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// Number of vehicles to spawn.
    pub n_vehicles: usize,
    /// Simulated horizon in seconds (paper: 3,000 s benign).
    pub duration_s: f64,
    /// RNG seed controlling everything (network, routes, noise).
    pub seed: u64,
    /// Grid columns.
    pub grid_nx: i32,
    /// Grid rows.
    pub grid_ny: i32,
    /// Block spacing in meters.
    pub spacing_m: f64,
    /// Speed limit in m/s.
    pub speed_limit: f64,
    /// Quarter-turn radius in meters.
    pub turn_radius: f64,
    /// Sensor noise model applied to every emitted BSM.
    pub sensor: SensorModel,
    /// IDM driver parameters (jittered ±15% per vehicle).
    pub idm: IdmParams,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            n_vehicles: 50,
            duration_s: 120.0,
            seed: 0,
            grid_nx: 6,
            grid_ny: 6,
            spacing_m: 200.0,
            speed_limit: 13.9,
            turn_radius: 12.0,
            sensor: SensorModel::default(),
            idm: IdmParams::default(),
        }
    }
}

impl SimConfig {
    /// A small, fast configuration for unit tests.
    pub fn quick_test() -> Self {
        SimConfig {
            n_vehicles: 5,
            duration_s: 60.0,
            ..SimConfig::default()
        }
    }
}

/// A temporary desired-speed reduction, emulating ambient traffic.
#[derive(Debug, Clone, Copy)]
struct SlowdownEvent {
    start: f64,
    end: f64,
    factor: f64,
}

/// The traffic simulator.
///
/// # Examples
///
/// ```
/// use vehigan_sim::{SimConfig, TrafficSimulator};
///
/// let traces = TrafficSimulator::new(SimConfig::quick_test()).run();
/// assert_eq!(traces.len(), 5);
/// assert!(traces.iter().all(|t| !t.is_empty()));
/// ```
#[derive(Debug)]
pub struct TrafficSimulator {
    config: SimConfig,
}

impl TrafficSimulator {
    /// Creates a simulator for the given configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is degenerate (no vehicles, zero
    /// duration).
    pub fn new(config: SimConfig) -> Self {
        assert!(config.n_vehicles > 0, "need at least one vehicle");
        assert!(config.duration_s > 1.0, "duration too short");
        assert!(config.speed_limit > 0.0, "speed limit must be positive");
        TrafficSimulator { config }
    }

    /// Runs the simulation, returning one trace per vehicle.
    ///
    /// Traces are deterministic for a given configuration (seed included).
    pub fn run(&self) -> Vec<VehicleTrace> {
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let net = RoadNetwork::grid(
            self.config.grid_nx,
            self.config.grid_ny,
            self.config.spacing_m,
            &mut rng,
        );
        (0..self.config.n_vehicles)
            .map(|i| {
                // Per-vehicle RNG stream so vehicle count does not perturb
                // other vehicles' trajectories.
                let mut vrng = StdRng::seed_from_u64(self.config.seed ^ (0x9E37_79B9 + i as u64));
                self.simulate_vehicle(VehicleId(i as u32), &net, &mut vrng)
            })
            .collect()
    }

    fn simulate_vehicle(&self, id: VehicleId, net: &RoadNetwork, rng: &mut StdRng) -> VehicleTrace {
        let cfg = &self.config;
        let spawn_time = rng.gen_range(0.0..(cfg.duration_s * 0.2).max(0.1));
        let drive_time = cfg.duration_s - spawn_time;
        let min_length = cfg.speed_limit * drive_time * 1.2 + 2.0 * cfg.spacing_m;
        let route = Route::random(net, min_length, cfg.turn_radius, rng);

        // ±15% driver heterogeneity.
        let jitter = |v: f64, rng: &mut StdRng| v * rng.gen_range(0.85..1.15);
        let idm = IdmParams {
            a_max: jitter(cfg.idm.a_max, rng),
            b_comfort: jitter(cfg.idm.b_comfort, rng),
            s0: jitter(cfg.idm.s0, rng),
            time_headway: jitter(cfg.idm.time_headway, rng),
            delta: cfg.idm.delta,
        };
        let personal_limit = jitter(cfg.speed_limit, rng);

        // Ambient-traffic slowdowns: ~1 event per 60 s of driving.
        let n_events = (drive_time / 60.0).ceil() as usize;
        let events: Vec<SlowdownEvent> = (0..n_events)
            .map(|_| {
                let start = rng.gen_range(spawn_time..cfg.duration_s);
                SlowdownEvent {
                    start,
                    end: start + rng.gen_range(5.0..20.0),
                    factor: rng.gen_range(0.3..0.8),
                }
            })
            .collect();

        let dt = BSM_INTERVAL_S;
        let mut trace = VehicleTrace::new(id);
        let mut s = 0.0_f64;
        let mut v = rng.gen_range(0.3..0.9) * personal_limit;
        let mut t = spawn_time;
        let lookahead = 120.0;

        while t < cfg.duration_s && s < route.total_length() - 1.0 {
            // Desired speed: personal limit, reduced by slowdown events and
            // upcoming/current curves.
            let mut v0 = personal_limit;
            for ev in &events {
                if t >= ev.start && t <= ev.end {
                    v0 *= ev.factor;
                }
            }
            let current_curv = route.curvature(s).abs();
            if current_curv > 1e-9 {
                v0 = v0.min(idm.curve_speed(1.0 / current_curv));
            } else if let Some((curve_start, radius)) = route.next_curve(s) {
                let dist = curve_start - s;
                if dist < lookahead {
                    v0 = v0.min(idm.approach_speed(idm.curve_speed(radius), dist));
                }
            }
            v0 = v0.max(0.5); // IDM requires positive desired speed

            // Obstacle: the next red stop line within the lookahead.
            let mut obstacle = None;
            if let Some(sl) = route.next_stop_line(s) {
                let gap = sl.position - s;
                if gap < lookahead {
                    let signal = net.signal(sl.node);
                    let red = !signal.is_green(sl.approach, t);
                    // Near a red line: treat the line as a stopped obstacle.
                    if red {
                        obstacle = Some((gap, 0.0));
                    }
                }
            }

            let mut a = idm.acceleration(v, v0, obstacle);
            a = a.clamp(-6.0, 3.0);
            // Semi-implicit Euler keeps the Δv = aΔt relation exact per step.
            let v_next = (v + a * dt).max(0.0);
            let a_eff = (v_next - v) / dt;
            let s_next = s + v_next * dt;

            let pose = route.pose(s_next);
            let truth = Bsm {
                vehicle_id: id,
                timestamp: t + dt,
                pos_x: pose.x,
                pos_y: pose.y,
                speed: v_next,
                acceleration: a_eff,
                heading: Bsm::normalize_angle(pose.heading),
                yaw_rate: pose.curvature * v_next,
            };
            trace.bsms.push(cfg.sensor.apply(&truth, rng));

            v = v_next;
            s = s_next;
            t += dt;
        }
        trace
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn noiseless_config() -> SimConfig {
        SimConfig {
            n_vehicles: 6,
            duration_s: 90.0,
            seed: 7,
            sensor: SensorModel::noiseless(),
            ..SimConfig::default()
        }
    }

    #[test]
    fn produces_one_trace_per_vehicle() {
        let traces = TrafficSimulator::new(SimConfig::quick_test()).run();
        assert_eq!(traces.len(), 5);
        for (i, t) in traces.iter().enumerate() {
            assert_eq!(t.id, VehicleId(i as u32));
            assert!(t.len() > 50, "trace {i} too short: {}", t.len());
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let a = TrafficSimulator::new(SimConfig::quick_test()).run();
        let b = TrafficSimulator::new(SimConfig::quick_test()).run();
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a = TrafficSimulator::new(SimConfig::quick_test()).run();
        let b = TrafficSimulator::new(SimConfig {
            seed: 99,
            ..SimConfig::quick_test()
        })
        .run();
        assert_ne!(a, b);
    }

    #[test]
    fn timestamps_are_bsm_cadence() {
        let traces = TrafficSimulator::new(noiseless_config()).run();
        for trace in &traces {
            for w in trace.bsms.windows(2) {
                let dt = w[1].timestamp - w[0].timestamp;
                assert!((dt - BSM_INTERVAL_S).abs() < 1e-9, "dt={dt}");
            }
        }
    }

    #[test]
    fn position_integrates_speed_and_heading() {
        // Δx ≈ v·cos(θ)·Δt — the Table II relation that makes the
        // engineered features discriminative.
        let traces = TrafficSimulator::new(noiseless_config()).run();
        for trace in &traces {
            for w in trace.bsms.windows(2) {
                let (prev, next) = (&w[0], &w[1]);
                let dx = next.pos_x - prev.pos_x;
                let dy = next.pos_y - prev.pos_y;
                let expect_dx = next.speed * next.heading.cos() * BSM_INTERVAL_S;
                let expect_dy = next.speed * next.heading.sin() * BSM_INTERVAL_S;
                assert!((dx - expect_dx).abs() < 0.15, "dx={dx} expect={expect_dx}");
                assert!((dy - expect_dy).abs() < 0.15, "dy={dy} expect={expect_dy}");
            }
        }
    }

    #[test]
    fn speed_change_matches_acceleration() {
        let traces = TrafficSimulator::new(noiseless_config()).run();
        for trace in &traces {
            for w in trace.bsms.windows(2) {
                let dv = w[1].speed - w[0].speed;
                let expect = w[1].acceleration * BSM_INTERVAL_S;
                assert!((dv - expect).abs() < 1e-6, "dv={dv} expect={expect}");
            }
        }
    }

    #[test]
    fn heading_change_matches_yaw_rate() {
        let traces = TrafficSimulator::new(noiseless_config()).run();
        for trace in &traces {
            for w in trace.bsms.windows(2) {
                let dh = Bsm::normalize_angle(w[1].heading - w[0].heading);
                let expect = w[1].yaw_rate * BSM_INTERVAL_S;
                // Curvature steps at segment boundaries allow small error.
                assert!((dh - expect).abs() < 0.05, "dh={dh} expect={expect}");
            }
        }
    }

    #[test]
    fn speeds_and_accelerations_are_plausible() {
        let traces = TrafficSimulator::new(noiseless_config()).run();
        let mut saw_stop = false;
        let mut saw_cruise = false;
        for trace in &traces {
            for bsm in trace {
                assert!(bsm.speed >= 0.0 && bsm.speed < 25.0, "speed {}", bsm.speed);
                assert!(bsm.acceleration.abs() <= 6.0 + 1e-9);
                if bsm.speed < 0.3 {
                    saw_stop = true;
                }
                if bsm.speed > 10.0 {
                    saw_cruise = true;
                }
            }
        }
        assert!(saw_cruise, "no cruising observed");
        // Stops depend on signal phases; with 6 vehicles × 90 s some red
        // should be hit.
        assert!(saw_stop, "no signal stops observed");
    }

    #[test]
    fn turning_produces_nonzero_yaw() {
        let traces = TrafficSimulator::new(noiseless_config()).run();
        let any_turn = traces
            .iter()
            .flat_map(|t| &t.bsms)
            .any(|b| b.yaw_rate.abs() > 0.05);
        assert!(any_turn, "no turns observed in any trace");
    }
}
