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
//! rows, batched for training ([`build_windows`]) or streamed per vehicle
//! at test time ([`WindowBuffer`]), scaled to `[-1, 1]` by a
//! [`MinMaxScaler`] fitted on benign data.
//!
//! # Example
//!
//! ```
//! use vehigan_sim::{SimConfig, TrafficSimulator};
//! use vehigan_vasp::{DatasetBuilder, DatasetConfig};
//! use vehigan_features::{build_windows, fit_scaler, Representation, WindowConfig};
//!
//! let fleet = TrafficSimulator::new(SimConfig::quick_test()).run();
//! let builder = DatasetBuilder::new(&fleet, DatasetConfig::default());
//! let benign = builder.benign_dataset();
//! let scaler = fit_scaler(&benign, Representation::Engineered);
//! let windows = build_windows(&benign, WindowConfig::default(), &scaler);
//! assert_eq!(&windows.x.shape()[1..], &[10, 12, 1]);
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
    assemble_fragments, build_fragment, build_windows, build_windows_from_rows, engineer_rows,
    engineer_trace, fit_scaler, fit_scaler_from_rows, Representation, TraceRows, WindowConfig,
    WindowDataset, WindowFragment,
};
