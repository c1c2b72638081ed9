//! # vehigan-metrics
//!
//! Detection metrics for the VehiGAN evaluation (§IV-A.2): confusion-rate
//! metrics (TPR/FPR), AUROC, and the percentile-based threshold
//! selection of §III-F.
//!
//! Conventions: higher score = more anomalous; label `true` = misbehavior
//! (positive class). A sample is predicted positive when
//! `score > threshold`.
//!
//! # Example
//!
//! ```
//! use vehigan_metrics::{auroc, Confusion};
//!
//! let scores = [0.9, 0.8, 0.3, 0.1];
//! let labels = [true, true, false, false];
//! assert_eq!(auroc(&scores, &labels), 1.0);
//!
//! let c = Confusion::at_threshold(&scores, &labels, 0.5);
//! assert_eq!(c.tpr(), 1.0);
//! assert_eq!(c.fpr(), 0.0);
//! ```

#![warn(missing_docs)]

mod confusion;
mod curves;
mod threshold;

pub use confusion::Confusion;
pub use curves::auroc;
pub use threshold::percentile;
