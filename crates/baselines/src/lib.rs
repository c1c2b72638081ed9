//! # vehigan-baselines
//!
//! The comparison detectors of the VehiGAN evaluation (§IV-B):
//!
//! - [`PcaDetector`] — linear model: Mahalanobis distance in the benign
//!   covariance eigenbasis (Jacobi eigendecomposition, no LAPACK);
//! - [`KnnDetector`] — proximity model: distance to the k-th nearest
//!   benign training sample;
//! - [`GmmDetector`] — probabilistic model: negative log-likelihood under
//!   a diagonal-covariance Gaussian mixture fitted by EM;
//! - [`AeDetector`] — deep model: autoencoder reconstruction error
//!   (`BaseAE` on raw features, `VehiAE` on the engineered features).
//!
//! All detectors implement [`AnomalyDetector`] (fit on benign, score with
//! higher-is-more-anomalous), so Table III's comparison is a single loop.
//!
//! # Example
//!
//! ```
//! use vehigan_baselines::{AnomalyDetector, PcaDetector, flatten_windows};
//! use vehigan_tensor::Tensor;
//!
//! let windows = Tensor::zeros(&[8, 10, 12, 1]);
//! let mut det = PcaDetector::new();
//! det.fit(&flatten_windows(&windows));
//! let scores = det.score_batch(&flatten_windows(&windows));
//! assert_eq!(scores.len(), 8);
//! ```

#![warn(missing_docs)]

mod ae;
mod detector;
mod gmm;
mod knn;
mod linalg;
mod pca;

pub use ae::{AeConfig, AeDetector};
pub use detector::{flatten_windows, AnomalyDetector};
pub use gmm::GmmDetector;
pub use knn::KnnDetector;
pub use pca::PcaDetector;
