//! # vehigan-features
//!
//! Physics-guided feature engineering for V2X misbehavior detection —
//! the paper's Table II pipeline.
//!
//! Raw BSM fields (position, speed, acceleration, heading, yaw rate) are
//! vector-decomposed into X/Y components and per-step deltas, producing the
//! 12-feature core set
//! `F = {Δx, Δy, vx, vy, Δvx, Δvy, ax, ay, Δθx, Δθy, ωx, ωy}`
//! whose internal physical couplings (`Δx ≈ vxΔt`, `Δvx ≈ axΔt`,
//! `Δθ ≈ ωΔt`) benign traffic satisfies and misbehaviors break.
//!
//! The crate then assembles `w × f` snapshots (paper: `10 × 12`) from the
//! rows, batched per trace for training and evaluation ([`build_fragment`],
//! [`assemble_fragments`]) or streamed per vehicle at test time
//! ([`WindowBuffer`]), scaled to `[-1, 1]` by a [`MinMaxScaler`] fitted on
//! benign data.
//!
//! # Example
//!
//! ```
//! use vehigan_sim::{SimConfig, TrafficSimulator};
//! use vehigan_features::{
//!     assemble_fragments, build_fragment, engineer_trace, fit_scaler, WindowConfig,
//!     WindowFragment,
//! };
//!
//! let fleet = TrafficSimulator::new(SimConfig::quick_test()).run();
//! let config = WindowConfig::default();
//! let scaler = fit_scaler(&fleet, config.representation);
//! let fragments: Vec<WindowFragment> = fleet
//!     .iter()
//!     .filter_map(|trace| engineer_trace(trace, false, config.representation))
//!     .map(|rows| build_fragment(&rows, config, &scaler))
//!     .collect();
//! let windows = assemble_fragments(&fragments, config);
//! assert_eq!(&windows.x.shape()[1..], &[10, 12, 1]);
//! assert!(windows.labels.iter().all(|&malicious| !malicious));
//! ```

#![warn(missing_docs)]

mod decompose;
mod ingest;
mod monitor;
mod scaler;
mod stream;
mod window;

pub use decompose::{decompose_pair, decompose_trace, FeatureRow, FEATURE_NAMES, NUM_FEATURES};
pub use ingest::{FieldLimits, IngestGuard, RejectCounters, RejectReason};
pub use monitor::{
    residuals, GateDecision, Suppression, Tier0Calibration, Tier0Monitor, Tier0Params, Tier0State,
};
pub use scaler::MinMaxScaler;
pub use stream::{lru_key, EvictionConfig, WindowBuffer, WindowRing, WindowView};
pub use window::{
    assemble_fragments, build_fragment, engineer_trace, fit_scaler, fit_scaler_from_rows,
    Representation, TraceRows, WindowConfig, WindowDataset, WindowFragment,
};
