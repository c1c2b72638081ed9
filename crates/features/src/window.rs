//! Sliding-window snapshot assembly.
//!
//! VehiGAN's models consume 2-D snapshots `x ∈ ℝ^{w×f}`: `w` consecutive
//! feature rows of a single vehicle (paper: `w = 10`, `f = 12`). This
//! module turns labelled traces into batched snapshot tensors
//! `[n, w, f, 1]` (NHWC with one channel) ready for training or scoring.
//!
//! The build path is staged so each stage can be reused and parallelised:
//!
//! 1. [`engineer_rows`] decomposes every trace into flat feature rows
//!    **once** (the expensive trig-heavy step);
//! 2. [`fit_scaler_from_rows`] fits a [`MinMaxScaler`] on those rows
//!    without re-engineering them;
//! 3. [`build_windows_from_rows`] scales rows straight into the
//!    preallocated `f32` window tensor — no per-row `Vec<Vec<f64>>` — in
//!    parallel across vehicles with deterministic output ordering;
//! 4. [`build_fragment`] / [`assemble_fragments`] expose the per-vehicle
//!    granularity so campaign-style callers can cache the windows of
//!    vehicles that are byte-identical across datasets (the benign 75%)
//!    and reassemble full datasets from cached pieces.
//!
//! [`fit_scaler`] and [`build_windows`] remain as thin dataset-level
//! wrappers; every path produces bitwise-identical tensors.

use crate::decompose::{decompose_trace, raw_trace, NUM_FEATURES, NUM_RAW_FEATURES};
use crate::scaler::MinMaxScaler;
use vehigan_sim::VehicleId;
use vehigan_tensor::forkjoin::{fork_join, workers_for};
use vehigan_tensor::Tensor;
use vehigan_vasp::{LabeledTrace, MisbehaviorDataset};

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
    /// Per-window ground truth (`true` = contains misbehavior).
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
    /// Flat row-major feature values (`labels.len() × width`).
    pub values: Vec<f64>,
    /// Per-row ground truth: row i is derived from messages (i, i+1), so a
    /// row is tainted if either message was falsified.
    pub labels: Vec<bool>,
}

impl TraceRows {
    /// Number of feature rows.
    pub(crate) fn num_rows(&self) -> usize {
        self.labels.len()
    }

    /// How many windows of length `window` at the given `stride` this
    /// trace yields.
    pub(crate) fn window_count(&self, window: usize, stride: usize) -> usize {
        let n = self.num_rows();
        if n < window {
            0
        } else {
            (n - window) / stride + 1
        }
    }
}

/// Engineers the feature rows of one labelled trace, or `None` if the
/// trace is too short to yield a row (fewer than 2 messages).
pub fn engineer_trace(t: &LabeledTrace, representation: Representation) -> Option<TraceRows> {
    if t.trace.len() < 2 {
        return None;
    }
    let width = representation.width();
    let n_rows = t.trace.len() - 1;
    let mut values = Vec::with_capacity(n_rows * width);
    match representation {
        Representation::Engineered => {
            for r in decompose_trace(&t.trace) {
                values.extend_from_slice(&r.values);
            }
        }
        Representation::Raw => {
            for r in raw_trace(&t.trace) {
                values.extend_from_slice(&r);
            }
        }
    }
    let labels: Vec<bool> = t.labels.windows(2).map(|w| w[0] || w[1]).collect();
    debug_assert_eq!(values.len(), labels.len() * width);
    Some(TraceRows {
        vehicle: t.trace.id,
        width,
        values,
        labels,
    })
}

/// Engineers feature rows for every (long-enough) trace of a dataset,
/// in fleet order. This is the single expensive decomposition step —
/// fit the scaler and build windows from the returned rows instead of
/// re-engineering per consumer.
pub fn engineer_rows(
    dataset: &MisbehaviorDataset,
    representation: Representation,
) -> Vec<TraceRows> {
    dataset
        .traces
        .iter()
        .filter_map(|t| engineer_trace(t, representation))
        .collect()
}

/// Fits a [`MinMaxScaler`] on already-engineered rows (statistics are
/// identical to fitting on the originating dataset).
///
/// # Panics
///
/// Panics if `rows` is empty.
pub fn fit_scaler_from_rows(rows: &[TraceRows]) -> MinMaxScaler {
    assert!(!rows.is_empty(), "cannot fit a scaler on zero rows");
    let width = rows[0].width;
    MinMaxScaler::fit_flat(width, rows.iter().flat_map(|t| t.values.iter().copied()))
}

/// Fits a [`MinMaxScaler`] on the benign dataset under the given
/// representation.
///
/// # Panics
///
/// Panics if the dataset yields no feature rows.
pub fn fit_scaler(benign: &MisbehaviorDataset, representation: Representation) -> MinMaxScaler {
    fit_scaler_from_rows(&engineer_rows(benign, representation))
}

/// The scaled windows contributed by a single trace: `window_count`
/// snapshots stored flat (`window_count × w × f`), ready to be spliced
/// into a full dataset by [`assemble_fragments`].
///
/// Fragments are the unit of caching for campaign evaluation: a vehicle
/// whose trace is byte-identical across datasets (a non-attacker) has a
/// byte-identical fragment, so it is computed once and shared.
#[derive(Debug, Clone)]
pub struct WindowFragment {
    /// Source vehicle.
    pub vehicle: VehicleId,
    /// Flat scaled snapshot data, `labels.len() × w × f` values.
    pub data: Vec<f32>,
    /// Per-window ground truth.
    pub labels: Vec<bool>,
}

/// Scales all rows of `t` once (f64 math, rounded once to f32) into
/// `scaled`, then copies each window — a contiguous run of `w` rows — into
/// `out`, which must be exactly `window_count × w × f` long.
fn fill_fragment(
    t: &TraceRows,
    config: WindowConfig,
    scaler: &MinMaxScaler,
    scaled: &mut Vec<f32>,
    out: &mut [f32],
) {
    let f = t.width;
    scaled.clear();
    scaled.reserve(t.values.len());
    for row in t.values.chunks_exact(f) {
        for (j, &v) in row.iter().enumerate() {
            scaled.push(scaler.transform_value_f32(j, v));
        }
    }
    let w = config.window;
    let span = w * f;
    for (k, dst) in out.chunks_exact_mut(span).enumerate() {
        let start = k * config.stride * f;
        dst.copy_from_slice(&scaled[start..start + span]);
    }
}

/// Window labels of one trace: a window is malicious if **any** row is.
fn fragment_labels(t: &TraceRows, config: WindowConfig) -> Vec<bool> {
    (0..t.window_count(config.window, config.stride))
        .map(|k| {
            let start = k * config.stride;
            t.labels[start..start + config.window].iter().any(|&l| l)
        })
        .collect()
}

fn assert_scaler_matches(config: WindowConfig, scaler: &MinMaxScaler) {
    assert_eq!(
        scaler.width(),
        config.representation.width(),
        "scaler width {} does not match representation width {}",
        scaler.width(),
        config.representation.width()
    );
    assert!(config.window >= 2, "window must hold at least 2 rows");
    assert!(config.stride >= 1, "stride must be at least 1");
}

/// Builds the scaled window fragment of a single trace (possibly empty if
/// the trace is shorter than one window).
///
/// # Panics
///
/// Panics if the scaler width does not match the representation.
pub fn build_fragment(
    t: &TraceRows,
    config: WindowConfig,
    scaler: &MinMaxScaler,
) -> WindowFragment {
    assert_scaler_matches(config, scaler);
    let count = t.window_count(config.window, config.stride);
    let mut data = vec![0.0f32; count * config.window * t.width];
    let mut scaled = Vec::new();
    if count > 0 {
        fill_fragment(t, config, scaler, &mut scaled, &mut data);
    }
    WindowFragment {
        vehicle: t.vehicle,
        data,
        labels: fragment_labels(t, config),
    }
}

/// Concatenates per-trace fragments (in the given order) into a full
/// dataset — bitwise identical to building the windows directly with
/// [`build_windows_from_rows`] over the same traces in the same order.
///
/// # Panics
///
/// Panics if every fragment is empty.
pub fn assemble_fragments<'a>(
    fragments: impl IntoIterator<Item = &'a WindowFragment>,
    config: WindowConfig,
) -> WindowDataset {
    let w = config.window;
    let f = config.representation.width();
    // Two passes over the (cheap) fragment references so the output
    // buffers are allocated exactly once at their final size.
    let frags: Vec<&WindowFragment> = fragments.into_iter().collect();
    let total: usize = frags.iter().map(|frag| frag.labels.len()).sum();
    let mut data = Vec::with_capacity(total * w * f);
    let mut labels = Vec::with_capacity(total);
    let mut vehicles = Vec::with_capacity(total);
    for frag in frags {
        data.extend_from_slice(&frag.data);
        labels.extend_from_slice(&frag.labels);
        vehicles.extend(std::iter::repeat_n(frag.vehicle, frag.labels.len()));
    }
    assert!(
        !labels.is_empty(),
        "no trace long enough for a window of {w}"
    );
    let n = labels.len();
    WindowDataset {
        x: Tensor::from_vec(data, &[n, w, f, 1]),
        labels,
        vehicles,
    }
}

/// What [`fill_fragment`] costs per window value it writes, for
/// [`workers_for`]: 0.7 ns at stride 1 and 1.5 at stride 6 (scaling the
/// rows is spread over fewer windows) on one core of the ledger host.
const FILL_NS_PER_VALUE: usize = 1;

/// Builds scaled snapshot windows from already-engineered rows.
///
/// The output tensor is preallocated from per-trace window counts and
/// each trace scales directly into its own disjoint slice — no per-row
/// intermediate allocations — in parallel across vehicles. Output
/// ordering is deterministic (trace order, then window start) regardless
/// of thread scheduling, and bitwise identical to a serial build.
///
/// # Panics
///
/// Panics if the scaler width does not match the representation, or no
/// trace is long enough for a single window.
pub fn build_windows_from_rows(
    rows: &[TraceRows],
    config: WindowConfig,
    scaler: &MinMaxScaler,
) -> WindowDataset {
    assert_scaler_matches(config, scaler);
    let w = config.window;
    let f = config.representation.width();
    for t in rows {
        assert_eq!(
            t.width, f,
            "trace row width {} does not match representation",
            t.width
        );
    }
    let counts: Vec<usize> = rows
        .iter()
        .map(|t| t.window_count(w, config.stride))
        .collect();
    let total: usize = counts.iter().sum();
    assert!(total > 0, "no trace long enough for a window of {w}");

    // Preassign each trace a disjoint slice of the output buffer so the
    // parallel fill is write-racefree and ordering is fixed up front.
    let mut data = vec![0.0f32; total * w * f];
    let mut jobs: Vec<(&TraceRows, &mut [f32])> = Vec::with_capacity(rows.len());
    let mut rest: &mut [f32] = &mut data;
    for (t, &c) in rows.iter().zip(&counts) {
        let (head, tail) = rest.split_at_mut(c * w * f);
        rest = tail;
        if c > 0 {
            jobs.push((t, head));
        }
    }

    // One `scaled` scratch per thread.
    let mut scratch = vec![Vec::new(); workers_for(total * w * f * FILL_NS_PER_VALUE)];
    fork_join(&mut scratch, jobs.into_iter(), |scaled, _, (t, out)| {
        fill_fragment(t, config, scaler, scaled, out)
    });

    let mut labels = Vec::with_capacity(total);
    let mut vehicles = Vec::with_capacity(total);
    for (t, &c) in rows.iter().zip(&counts) {
        if c > 0 {
            labels.extend(fragment_labels(t, config));
            vehicles.extend(std::iter::repeat_n(t.vehicle, c));
        }
    }
    WindowDataset {
        x: Tensor::from_vec(data, &[total, w, f, 1]),
        labels,
        vehicles,
    }
}

/// Builds scaled snapshot windows from a labelled dataset.
///
/// A window is labelled malicious if **any** of its rows is tainted.
/// Thin wrapper over [`engineer_rows`] + [`build_windows_from_rows`];
/// callers that also fit a scaler should engineer once and use the
/// staged functions directly.
///
/// # Panics
///
/// Panics if the scaler width does not match the representation, or no
/// trace is long enough for a single window.
pub fn build_windows(
    dataset: &MisbehaviorDataset,
    config: WindowConfig,
    scaler: &MinMaxScaler,
) -> WindowDataset {
    build_windows_from_rows(
        &engineer_rows(dataset, config.representation),
        config,
        scaler,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use vehigan_sim::{SimConfig, TrafficSimulator};
    use vehigan_vasp::{Attack, DatasetBuilder, DatasetConfig};

    fn setup() -> (MisbehaviorDataset, MisbehaviorDataset) {
        let fleet = TrafficSimulator::new(SimConfig {
            n_vehicles: 6,
            duration_s: 30.0,
            seed: 21,
            ..SimConfig::default()
        })
        .run();
        let builder = DatasetBuilder::new(&fleet, DatasetConfig::default());
        (
            builder.benign_dataset(),
            builder.attack_dataset(Attack::by_name("HighSpeed").unwrap()),
        )
    }

    #[test]
    fn benign_windows_are_all_negative() {
        let (benign, _) = setup();
        let scaler = fit_scaler(&benign, Representation::Engineered);
        let ds = build_windows(&benign, WindowConfig::default(), &scaler);
        assert!(ds.len() > 100);
        assert!(ds.labels.iter().all(|&l| !l));
        assert_eq!(ds.x.shape(), &[ds.len(), 10, 12, 1]);
    }

    #[test]
    fn attack_windows_are_labelled() {
        let (benign, attacked) = setup();
        let scaler = fit_scaler(&benign, Representation::Engineered);
        let ds = build_windows(&attacked, WindowConfig::default(), &scaler);
        let malicious = ds.malicious_indices().len();
        let benign_ct = ds.len() - malicious;
        assert!(malicious > 0 && benign_ct > 0);
        // 25% of vehicles are persistent attackers → ~25% of windows.
        let frac = malicious as f64 / ds.len() as f64;
        assert!(frac > 0.1 && frac < 0.5, "frac={frac}");
    }

    #[test]
    fn values_are_bounded() {
        let (benign, attacked) = setup();
        let scaler = fit_scaler(&benign, Representation::Engineered);
        let ds = build_windows(&attacked, WindowConfig::default(), &scaler);
        assert!(ds.x.max() <= 1.0 && ds.x.min() >= -1.0);
    }

    #[test]
    fn stride_reduces_window_count() {
        let (benign, _) = setup();
        let scaler = fit_scaler(&benign, Representation::Engineered);
        let dense = build_windows(&benign, WindowConfig::default(), &scaler);
        let sparse = build_windows(
            &benign,
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
        let (benign, _) = setup();
        let scaler = fit_scaler(&benign, Representation::Raw);
        let ds = build_windows(
            &benign,
            WindowConfig {
                representation: Representation::Raw,
                ..WindowConfig::default()
            },
            &scaler,
        );
        assert_eq!(ds.features(), 6);
    }

    #[test]
    #[should_panic(expected = "scaler width")]
    fn mismatched_scaler_rejected() {
        let (benign, _) = setup();
        let scaler = fit_scaler(&benign, Representation::Raw);
        let _ = build_windows(&benign, WindowConfig::default(), &scaler);
    }

    /// The staged path (engineer once → fit → build) must be bitwise
    /// identical to the dataset-level wrappers.
    #[test]
    fn staged_build_is_bitwise_identical() {
        let (benign, attacked) = setup();
        let config = WindowConfig {
            stride: 2,
            ..WindowConfig::default()
        };
        let scaler = fit_scaler(&benign, Representation::Engineered);
        let rows = engineer_rows(&benign, Representation::Engineered);
        assert_eq!(fit_scaler_from_rows(&rows), scaler);
        for ds in [&benign, &attacked] {
            let wrapper = build_windows(ds, config, &scaler);
            let rows = engineer_rows(ds, config.representation);
            let staged = build_windows_from_rows(&rows, config, &scaler);
            assert_eq!(wrapper.x.as_slice(), staged.x.as_slice());
            assert_eq!(wrapper.labels, staged.labels);
            assert_eq!(wrapper.vehicles, staged.vehicles);
        }
    }

    /// Assembling per-trace fragments reproduces the monolithic build
    /// byte for byte.
    #[test]
    fn fragment_assembly_matches_monolithic_build() {
        let (benign, attacked) = setup();
        let config = WindowConfig::default();
        let scaler = fit_scaler(&benign, Representation::Engineered);
        let rows = engineer_rows(&attacked, config.representation);
        let monolithic = build_windows_from_rows(&rows, config, &scaler);
        let fragments: Vec<WindowFragment> = rows
            .iter()
            .map(|t| build_fragment(t, config, &scaler))
            .collect();
        let assembled = assemble_fragments(fragments.iter(), config);
        assert_eq!(monolithic.x.as_slice(), assembled.x.as_slice());
        assert_eq!(monolithic.labels, assembled.labels);
        assert_eq!(monolithic.vehicles, assembled.vehicles);
    }

    #[test]
    fn short_trace_yields_no_rows() {
        let (benign, _) = setup();
        let mut t = benign.traces[0].clone();
        t.trace.bsms.truncate(1);
        t.labels.truncate(1);
        assert!(engineer_trace(&t, Representation::Engineered).is_none());
    }
}
