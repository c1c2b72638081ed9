//! Campaign data-plane benchmark: the pre-data-plane serial build vs
//! the cache-aware [`CampaignPlane`].
//!
//! The serial baseline reproduces what `Harness::build` did before the
//! data plane landed — one monolithic `build_windows` per catalog
//! attack with the original allocation-heavy row scaling (per-row
//! `Vec<f64>` allocations, element-wise pushes), re-engineering the
//! shared benign ~75% of the fleet 35 times. Two successors are timed
//! against it:
//!
//! * `staged` — the current monolithic `build_windows` (allocation-free
//!   scaling straight into the window tensor), still once per attack;
//! * `plane` — the [`CampaignPlane`], which engineers each benign trace
//!   once and splices per-attack attacker fragments over the shared
//!   fragment cache.
//!
//! All three paths are checked for bitwise equality before any timing
//! is reported.
//!
//! Writes `results/BENCH_campaign.json`. Run via `vehigan-bench campaign
//! [--scale quick|paper]`.

use crate::harness::{results_dir, Scale};
use std::time::Instant;
use vehigan_core::CampaignPlane;
use vehigan_features::{
    build_windows, decompose_trace, fit_scaler, raw_trace, MinMaxScaler, Representation,
    WindowConfig, WindowDataset,
};
use vehigan_sim::TrafficSimulator;
use vehigan_tensor::Tensor;
use vehigan_vasp::{Attack, DatasetBuilder, MisbehaviorDataset};

/// Faithful copy of the window builder the harness used before the
/// campaign data plane: engineer into per-row `Vec<f64>`s, scale each
/// row into a fresh allocation, and push the window tensor element by
/// element into a growing `Vec`. Kept here (not in `vehigan-features`)
/// purely as the benchmark baseline.
pub fn seed_build_windows(
    dataset: &MisbehaviorDataset,
    config: WindowConfig,
    scaler: &MinMaxScaler,
) -> WindowDataset {
    let w = config.window;
    let f = config.representation.width();
    let mut data: Vec<f32> = Vec::new();
    let mut labels = Vec::new();
    let mut vehicles = Vec::new();
    for t in &dataset.traces {
        if t.trace.len() < 2 {
            continue;
        }
        let rows: Vec<Vec<f64>> = match config.representation {
            Representation::Engineered => decompose_trace(&t.trace)
                .into_iter()
                .map(|r| r.values.to_vec())
                .collect(),
            Representation::Raw => raw_trace(&t.trace)
                .into_iter()
                .map(|r| r.to_vec())
                .collect(),
        };
        let row_labels: Vec<bool> = t.labels.windows(2).map(|p| p[0] || p[1]).collect();
        if rows.len() < w {
            continue;
        }
        let scaled: Vec<Vec<f64>> = rows.iter().map(|r| scaler.transform_row(r)).collect();
        let mut start = 0;
        while start + w <= scaled.len() {
            for row in &scaled[start..start + w] {
                data.extend(row.iter().map(|&v| v as f32));
            }
            labels.push(row_labels[start..start + w].iter().any(|&l| l));
            vehicles.push(t.trace.id);
            start += config.stride;
        }
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

/// Median wall-clock seconds over `trials` runs of `f` (each run's result
/// is returned once for the equality check).
fn median_secs<T>(trials: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    assert!(trials >= 1);
    let mut samples = Vec::with_capacity(trials);
    let mut out = None;
    for _ in 0..trials {
        let start = Instant::now();
        let v = f();
        samples.push(start.elapsed().as_secs_f64());
        out = Some(v);
    }
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    (samples[samples.len() / 2], out.expect("trials >= 1"))
}

fn total_windows(datasets: &[WindowDataset]) -> usize {
    datasets.iter().map(|d| d.len()).sum()
}

fn assert_identical(a: &[WindowDataset], b: &[WindowDataset], what: &str) {
    assert_eq!(a.len(), b.len());
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(
            x.x.as_slice(),
            y.x.as_slice(),
            "{what}, attack {i}: window bytes differ"
        );
        assert_eq!(x.labels, y.labels, "{what}, attack {i}: labels differ");
        assert_eq!(
            x.vehicles, y.vehicles,
            "{what}, attack {i}: vehicle ids differ"
        );
    }
}

/// Runs the benchmark at `scale`, prints a summary, and writes
/// `results/BENCH_campaign.json`.
///
/// # Panics
///
/// Panics if the staged or plane output is not bitwise identical to the
/// serial build — the speedup is only admissible if the data is the same.
pub fn run(scale: Scale) {
    let config = scale.pipeline_config();
    eprintln!("[campaign] simulating fleet at {scale:?} scale…");
    let fleet = TrafficSimulator::new(config.sim.clone()).run();
    let builder = DatasetBuilder::new(&fleet, config.dataset.clone());
    let scaler = fit_scaler(&builder.benign_dataset(), config.window.representation);
    let attacks = Attack::catalog();
    let trials = match scale {
        Scale::Quick => 5,
        Scale::Paper => 1,
    };

    // Every path builds the full 36-dataset evaluation set the harness
    // needs: one labelled dataset per catalog attack plus the benign
    // test dataset.
    eprintln!("[campaign] serial pre-data-plane build ({trials} trials)…");
    let (serial_secs, serial) = median_secs(trials, || {
        let mut sets: Vec<WindowDataset> = attacks
            .iter()
            .map(|&a| seed_build_windows(&builder.attack_dataset(a), config.window, &scaler))
            .collect();
        sets.push(seed_build_windows(
            &builder.benign_dataset(),
            config.window,
            &scaler,
        ));
        sets
    });

    eprintln!("[campaign] staged monolithic build ({trials} trials)…");
    let (staged_secs, staged) = median_secs(trials, || {
        let mut sets: Vec<WindowDataset> = attacks
            .iter()
            .map(|&a| build_windows(&builder.attack_dataset(a), config.window, &scaler))
            .collect();
        sets.push(build_windows(
            &builder.benign_dataset(),
            config.window,
            &scaler,
        ));
        sets
    });

    eprintln!("[campaign] campaign plane build ({trials} trials)…");
    let (plane_secs, plane) = median_secs(trials, || {
        let plane = CampaignPlane::new(&fleet, config.dataset.clone(), config.window, &scaler);
        let mut sets = plane.campaign(&attacks);
        sets.push(plane.benign_windows());
        sets
    });

    assert_identical(&serial, &staged, "staged vs serial");
    assert_identical(&serial, &plane, "plane vs serial");

    let windows = total_windows(&plane);
    let speedup = serial_secs / plane_secs;
    let staged_speedup = serial_secs / staged_secs;
    let serial_wps = windows as f64 / serial_secs;
    let plane_wps = windows as f64 / plane_secs;
    println!(
        "campaign data plane ({} attacks + benign, {windows} windows, bitwise identical)",
        attacks.len()
    );
    println!("  serial (pre-data-plane): {serial_secs:.3} s  ({serial_wps:.0} windows/s)");
    println!("  staged monolithic:       {staged_secs:.3} s  ({staged_speedup:.2}x)",);
    println!("  campaign plane:          {plane_secs:.3} s  ({plane_wps:.0} windows/s)");
    println!("  speedup (plane vs serial): {speedup:.2}x");

    let json = format!(
        "{{\n  \"bench\": \"campaign\",\n  \"scale\": \"{scale:?}\",\n  \
         \"attacks\": {},\n  \"vehicles\": {},\n  \"windows\": {windows},\n  \
         \"serial_secs\": {serial_secs:.6},\n  \"staged_secs\": {staged_secs:.6},\n  \
         \"plane_secs\": {plane_secs:.6},\n  \
         \"serial_windows_per_sec\": {serial_wps:.1},\n  \
         \"plane_windows_per_sec\": {plane_wps:.1},\n  \
         \"staged_speedup\": {staged_speedup:.3},\n  \
         \"speedup\": {speedup:.3},\n  \"bitwise_identical\": true\n}}\n",
        attacks.len(),
        fleet.len(),
    );
    let path = results_dir().join("BENCH_campaign.json");
    std::fs::write(&path, json).expect("write BENCH_campaign.json");
    eprintln!("[harness] wrote {}", path.display());
}
