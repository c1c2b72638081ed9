//! Sliding-window snapshot assembly.
//!
//! VehiGAN's models consume 2-D snapshots `x ∈ ℝ^{w×f}`: `w` consecutive
//! feature rows of a single vehicle (paper: `w = 10`, `f = 12`). This
//! module turns traces into batched snapshot tensors `[n, w, f, 1]` (NHWC
//! with one channel) ready for training or scoring, along one path:
//!
//! 1. [`engineer_trace`] decomposes one trace into flat feature rows (the
//!    expensive trig-heavy step), carrying its vehicle's attacker bit;
//! 2. [`fit_scaler_from_rows`] fits a [`MinMaxScaler`] on benign rows
//!    ([`fit_scaler`] engineers a benign fleet first);
//! 3. [`build_fragment`] scales one trace's rows and cuts its windows;
//! 4. [`assemble_fragments`] concatenates fragments into a dataset.
//!
//! A fragment is the unit of caching: a vehicle whose trace is the same
//! in several datasets (a non-attacker) has the same fragment in each, so
//! campaign callers compute it once and splice it into every dataset.

use crate::decompose::{decompose_trace, raw_trace, NUM_FEATURES, NUM_RAW_FEATURES};
use crate::scaler::MinMaxScaler;
use vehigan_sim::{VehicleId, VehicleTrace};
use vehigan_tensor::Tensor;

/// Which feature representation windows are built from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Representation {
    /// The 12 physics-guided features of Table II (`Vehi-` detectors).
    Engineered,
    /// The 6 raw fields (`Base` detectors).
    Raw,
}

impl Representation {
    /// Feature count `f` of this representation.
    pub(crate) fn width(self) -> usize {
        match self {
            Representation::Engineered => NUM_FEATURES,
            Representation::Raw => NUM_RAW_FEATURES,
        }
    }
}

/// Windowing configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowConfig {
    /// Window length `w` in messages (paper: 10).
    pub window: usize,
    /// Stride between consecutive training windows (1 = fully overlapping).
    pub stride: usize,
    /// Feature representation.
    pub representation: Representation,
}

impl Default for WindowConfig {
    fn default() -> Self {
        WindowConfig {
            window: 10,
            stride: 1,
            representation: Representation::Engineered,
        }
    }
}

/// A batched snapshot dataset.
#[derive(Debug, Clone)]
pub struct WindowDataset {
    /// Snapshots, shape `[n, w, f, 1]`, scaled to `[-1, 1]`.
    pub x: Tensor,
    /// Per-window ground truth: whether the window's vehicle attacks.
    pub labels: Vec<bool>,
    /// Source vehicle of each window.
    pub vehicles: Vec<VehicleId>,
}

impl WindowDataset {
    /// Number of snapshots.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Whether the dataset is empty.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Window length `w`.
    pub fn window(&self) -> usize {
        self.x.shape()[1]
    }

    /// Feature count `f`.
    pub fn features(&self) -> usize {
        self.x.shape()[2]
    }

    /// Indices of malicious (`true`) windows.
    pub fn malicious_indices(&self) -> Vec<usize> {
        (0..self.len()).filter(|&i| self.labels[i]).collect()
    }
}

/// Engineered feature rows of a single trace, stored flat (row-major,
/// `num_rows × width`) so downstream scaling can stream them without
/// per-row allocations.
#[derive(Debug, Clone)]
pub struct TraceRows {
    /// Source vehicle.
    pub vehicle: VehicleId,
    /// Feature count per row.
    pub width: usize,
    /// Flat row-major feature values (`num_rows × width`); row `i` is
    /// derived from messages `(i, i + 1)`.
    pub values: Vec<f64>,
    /// Whether the vehicle attacks: every window of the trace carries it.
    pub malicious: bool,
}

impl TraceRows {
    /// How many windows of length `window` at the given `stride` this
    /// trace yields.
    pub(crate) fn window_count(&self, window: usize, stride: usize) -> usize {
        let n = self.values.len() / self.width;
        if n < window {
            0
        } else {
            (n - window) / stride + 1
        }
    }
}

/// Engineers the feature rows of one trace, labelled `malicious`, or
/// `None` if the trace is too short to yield a row (fewer than 2
/// messages).
pub fn engineer_trace(
    trace: &VehicleTrace,
    malicious: bool,
    representation: Representation,
) -> Option<TraceRows> {
    if trace.len() < 2 {
        return None;
    }
    let width = representation.width();
    let mut values = Vec::with_capacity((trace.len() - 1) * width);
    match representation {
        Representation::Engineered => {
            for r in decompose_trace(trace) {
                values.extend_from_slice(&r.values);
            }
        }
        Representation::Raw => {
            for r in raw_trace(trace) {
                values.extend_from_slice(&r);
            }
        }
    }
    Some(TraceRows {
        vehicle: trace.id,
        width,
        values,
        malicious,
    })
}

/// Fits a [`MinMaxScaler`] on already-engineered rows.
///
/// # Panics
///
/// Panics if `rows` is empty.
pub fn fit_scaler_from_rows(rows: &[TraceRows]) -> MinMaxScaler {
    assert!(!rows.is_empty(), "cannot fit a scaler on zero rows");
    let width = rows[0].width;
    MinMaxScaler::fit_flat(width, rows.iter().flat_map(|t| t.values.iter().copied()))
}

/// Fits a [`MinMaxScaler`] on a benign fleet under the given
/// representation.
///
/// # Panics
///
/// Panics if the fleet yields no feature rows.
pub fn fit_scaler(benign: &[VehicleTrace], representation: Representation) -> MinMaxScaler {
    let rows: Vec<TraceRows> = benign
        .iter()
        .filter_map(|t| engineer_trace(t, false, representation))
        .collect();
    fit_scaler_from_rows(&rows)
}

/// The scaled windows contributed by a single trace: its window count of
/// snapshots stored flat (`count × w × f`), ready to be spliced into a
/// full dataset by [`assemble_fragments`].
#[derive(Debug, Clone)]
pub struct WindowFragment {
    /// Source vehicle.
    pub vehicle: VehicleId,
    /// Flat scaled snapshot data, `count × w × f` values.
    pub data: Vec<f32>,
    /// Whether the vehicle attacks: the label of each of its windows.
    pub malicious: bool,
}

/// Builds the scaled window fragment of a single trace (possibly empty if
/// the trace is shorter than one window): every row is scaled once (f64
/// math, rounded once to f32), then each window — a contiguous run of `w`
/// rows, `stride` rows after the last — is copied out.
///
/// # Panics
///
/// Panics if the scaler or the rows do not match the representation's
/// width, the window is shorter than 2 rows or the stride is 0.
pub fn build_fragment(
    t: &TraceRows,
    config: WindowConfig,
    scaler: &MinMaxScaler,
) -> WindowFragment {
    let f = config.representation.width();
    assert_eq!(
        scaler.width(),
        f,
        "scaler width {} does not match representation width {f}",
        scaler.width(),
    );
    assert_eq!(
        t.width, f,
        "trace row width {} does not match representation",
        t.width
    );
    assert!(config.window >= 2, "window must hold at least 2 rows");
    assert!(config.stride >= 1, "stride must be at least 1");
    let count = t.window_count(config.window, config.stride);
    let mut data = Vec::with_capacity(count * config.window * f);
    if count > 0 {
        let scaled: Vec<f32> = t
            .values
            .chunks_exact(f)
            .flat_map(|row| {
                row.iter()
                    .enumerate()
                    .map(|(j, &v)| scaler.transform_value_f32(j, v))
            })
            .collect();
        let span = config.window * f;
        for k in 0..count {
            let start = k * config.stride * f;
            data.extend_from_slice(&scaled[start..start + span]);
        }
    }
    WindowFragment {
        vehicle: t.vehicle,
        data,
        malicious: t.malicious,
    }
}

/// Concatenates per-trace fragments, in the given order, into a full
/// dataset.
///
/// # Panics
///
/// Panics if every fragment is empty.
pub fn assemble_fragments<'a>(
    fragments: impl IntoIterator<Item = &'a WindowFragment>,
    config: WindowConfig,
) -> WindowDataset {
    let w = config.window;
    let span = w * config.representation.width();
    // Two passes over the (cheap) fragment references so the output
    // buffers are allocated exactly once at their final size.
    let frags: Vec<&WindowFragment> = fragments.into_iter().collect();
    let total: usize = frags.iter().map(|frag| frag.data.len() / span).sum();
    assert!(total > 0, "no trace long enough for a window of {w}");
    let mut data = Vec::with_capacity(total * span);
    let mut labels = Vec::with_capacity(total);
    let mut vehicles = Vec::with_capacity(total);
    for frag in frags {
        let count = frag.data.len() / span;
        data.extend_from_slice(&frag.data);
        labels.extend(std::iter::repeat_n(frag.malicious, count));
        vehicles.extend(std::iter::repeat_n(frag.vehicle, count));
    }
    WindowDataset {
        x: Tensor::from_vec(data, &[total, w, config.representation.width(), 1]),
        labels,
        vehicles,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vehigan_sim::{SimConfig, TrafficSimulator};
    use vehigan_vasp::{Attack, DatasetBuilder, DatasetConfig};

    fn fleet() -> Vec<VehicleTrace> {
        TrafficSimulator::new(SimConfig {
            n_vehicles: 6,
            duration_s: 30.0,
            seed: 21,
            ..SimConfig::default()
        })
        .run()
    }

    /// The windows of `fleet` with the `HighSpeed` attackers in place of
    /// their benign traces, or of the benign fleet alone.
    fn windows(
        fleet: &[VehicleTrace],
        attacked: bool,
        config: WindowConfig,
        scaler: &MinMaxScaler,
    ) -> WindowDataset {
        let attackers = if attacked {
            DatasetBuilder::new(fleet, DatasetConfig::default())
                .attacker_traces(Attack::by_name("HighSpeed").unwrap())
        } else {
            Vec::new()
        };
        let fragments: Vec<WindowFragment> = fleet
            .iter()
            .enumerate()
            .filter_map(|(i, benign)| {
                let attacker = attackers.iter().find(|(j, _)| *j == i);
                let trace = attacker.map_or(benign, |(_, t)| t);
                engineer_trace(trace, attacker.is_some(), config.representation)
            })
            .map(|rows| build_fragment(&rows, config, scaler))
            .collect();
        assemble_fragments(&fragments, config)
    }

    #[test]
    fn benign_windows_are_all_negative() {
        let fleet = fleet();
        let scaler = fit_scaler(&fleet, Representation::Engineered);
        let ds = windows(&fleet, false, WindowConfig::default(), &scaler);
        assert!(ds.len() > 100);
        assert!(ds.labels.iter().all(|&l| !l));
        assert_eq!(ds.x.shape(), &[ds.len(), 10, 12, 1]);
    }

    #[test]
    fn attack_windows_are_labelled() {
        let fleet = fleet();
        let scaler = fit_scaler(&fleet, Representation::Engineered);
        let ds = windows(&fleet, true, WindowConfig::default(), &scaler);
        let malicious = ds.malicious_indices().len();
        let benign_ct = ds.len() - malicious;
        assert!(malicious > 0 && benign_ct > 0);
        // 25% of vehicles are persistent attackers → ~25% of windows.
        let frac = malicious as f64 / ds.len() as f64;
        assert!(frac > 0.1 && frac < 0.5, "frac={frac}");
    }

    #[test]
    fn values_are_bounded() {
        let fleet = fleet();
        let scaler = fit_scaler(&fleet, Representation::Engineered);
        let ds = windows(&fleet, true, WindowConfig::default(), &scaler);
        assert!(ds.x.max() <= 1.0 && ds.x.min() >= -1.0);
    }

    #[test]
    fn stride_reduces_window_count() {
        let fleet = fleet();
        let scaler = fit_scaler(&fleet, Representation::Engineered);
        let dense = windows(&fleet, false, WindowConfig::default(), &scaler);
        let sparse = windows(
            &fleet,
            false,
            WindowConfig {
                stride: 5,
                ..WindowConfig::default()
            },
            &scaler,
        );
        assert!(sparse.len() * 4 < dense.len());
    }

    #[test]
    fn raw_representation_width() {
        let fleet = fleet();
        let scaler = fit_scaler(&fleet, Representation::Raw);
        let config = WindowConfig {
            representation: Representation::Raw,
            ..WindowConfig::default()
        };
        assert_eq!(windows(&fleet, false, config, &scaler).features(), 6);
    }

    #[test]
    #[should_panic(expected = "scaler width")]
    fn mismatched_scaler_rejected() {
        let fleet = fleet();
        let scaler = fit_scaler(&fleet, Representation::Raw);
        let _ = windows(&fleet, false, WindowConfig::default(), &scaler);
    }

    #[test]
    fn short_trace_yields_no_rows() {
        let mut trace = fleet().swap_remove(0);
        trace.bsms.truncate(1);
        assert!(engineer_trace(&trace, false, Representation::Engineered).is_none());
    }
}
