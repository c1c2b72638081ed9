//! # vehigan-sim
//!
//! Microscopic traffic and BSM simulation substrate for the VehiGAN
//! reproduction — the stand-in for the paper's SUMO + Veins + OMNeT++
//! stack (§IV-A).
//!
//! The pipeline is: build a signalized grid `network::RoadNetwork` →
//! sample per-vehicle `route::Route`s (straights + quarter-turn arcs) →
//! integrate [`idm::IdmParams`] longitudinal dynamics → emit 10 Hz
//! [`Bsm`] streams through a [`SensorModel`].
//!
//! Benign traces are kinematically coherent by construction: heading is the
//! route tangent, yaw rate is `curvature × speed`, `Δv = a·Δt` holds per
//! step. Misbehaviors (crate `vehigan-vasp`) break exactly these relations.
//!
//! # Example
//!
//! ```
//! use vehigan_sim::{SimConfig, TrafficSimulator};
//!
//! let config = SimConfig { n_vehicles: 3, duration_s: 30.0, ..SimConfig::default() };
//! let traces = TrafficSimulator::new(config).run();
//! assert_eq!(traces.len(), 3);
//! let bsm = &traces[0].bsms[10];
//! assert!(bsm.speed >= 0.0);
//! ```

#![warn(missing_docs)]

mod id_hash;
mod idm;
pub mod network;
mod route;
pub mod sensor;
mod simulator;
mod types;

pub use id_hash::{IdHash, IdHasher};
pub use idm::IdmParams;
pub use sensor::SensorModel;
pub use simulator::{SimConfig, TrafficSimulator};
pub use types::{Bsm, VehicleId, VehicleTrace, BSM_INTERVAL_S};
