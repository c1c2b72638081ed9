//! # vehigan-vasp
//!
//! The attack-injection framework of the VehiGAN reproduction — the
//! substitute for VASP ("V2X Application Spoofing Platform", Ansari et al.,
//! VehicleSec 2023), which the paper uses to generate its misbehavior
//! dataset (§IV-A).
//!
//! The crate implements the complete in-scope threat matrix of Table I:
//! nine attack kinds ([`AttackKind`]) crossed with six field targets
//! ([`TargetField`]), yielding the 35 named attacks of Table III
//! ([`Attack::catalog`]) — including the six *advanced* attacks that
//! falsify heading and yaw rate **coherently** (the transmitted yaw rate is
//! the exact discrete derivative of the transmitted heading, replicating a
//! fake maneuver as in Fig 1b).
//!
//! # Example
//!
//! ```
//! use vehigan_sim::{SimConfig, TrafficSimulator};
//! use vehigan_vasp::{Attack, DatasetBuilder, DatasetConfig};
//!
//! let fleet = TrafficSimulator::new(SimConfig::quick_test()).run();
//! let builder = DatasetBuilder::new(&fleet, DatasetConfig::default());
//! for attack in Attack::catalog() {
//!     // Each attack's dataset: these vehicles attack, the rest are benign.
//!     let attackers = builder.attacker_traces(attack);
//!     assert!(!attackers.is_empty(), "{attack}");
//! }
//! ```

#![warn(missing_docs)]

mod attack;
mod dataset;
mod inject;

pub use attack::{Attack, AttackKind, InvalidAttackError, TargetField};
pub use dataset::{DatasetBuilder, DatasetConfig};
pub use inject::{inject, AttackParams, AttackPolicy, AttackedTrace};
