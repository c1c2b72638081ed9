//! Int8 backend benchmark: fused k-member ensemble latency vs the float
//! path, plus quantization-error accounting on the Table III campaign.
//!
//! Run via `vehigan-bench quant --scale quick` (trains the quick system,
//! prints a summary, writes `results/BENCH_quant.json`).
//!
//! The run **gates** its own acceptance criteria and panics when they
//! fail (so the CI smoke step catches regressions):
//!
//! - fused int8 `k`-member single-snapshot scoring ≥ 2× faster than the
//!   float `score_with_members` path (Fig-8 scale, `k = deploy_k`) — a
//!   claim about the SIMD int8 kernels, so reported but not gated when
//!   `VEHIGAN_FORCE_PORTABLE` pins the portable fallback;
//! - max |AUROC(int8) − AUROC(f32)| over the 35-attack Table III campaign
//!   ≤ 0.01, and the same bound for the served mixture (int8 gate score,
//!   replaced by the f32 score where the gate score crosses τ_esc);
//! - every int8 leg this CPU has agrees bitwise with the naive reference
//!   on a critic-shaped GEMM (i32 accumulator equality) — the AVX2 leg
//!   included, which a VNNI host never dispatches.

use crate::harness::{results_dir, Harness};
use std::time::Instant;
use vehigan_metrics::auroc;
use vehigan_serve::escalation_threshold;
use vehigan_tensor::gemm::{gemm_i8_on, int8_leg, naive_i8, Int8Leg, PackedI8};
use vehigan_tensor::Tensor;

/// Maximum tolerated AUROC drift of the int8 path vs f32 (ISSUE gate).
pub const AUROC_DELTA_BUDGET: f64 = 0.01;

/// Escalation cutoff of the mixture column: this percentile of benign
/// int8 gate scores, so roughly `100 − p` percent of benign traffic is
/// re-scored by the f32 ensemble. Non-escalated windows carry scores
/// within int8 quantization error of f32, so the mixture's drift stays
/// inside the budget at any percentile; 97.5 keeps tier 2 at ~2.5 % of
/// benign traffic while sitting below the detection percentile (99), so
/// every window the ensemble would flag crosses the gate (DESIGN.md §10).
pub const ESCALATION_PERCENTILE: f64 = 97.5;

/// Minimum required fused-ensemble speedup over the float path (ISSUE
/// gate).
pub const MIN_SPEEDUP: f64 = 2.0;

/// Median wall-clock milliseconds per call (median rejects scheduler
/// noise on shared VMs).
fn time_ms(mut f: impl FnMut(), reps: usize, trials: usize) -> f64 {
    for _ in 0..3 {
        f(); // warm-up
    }
    let mut samples: Vec<f64> = (0..trials)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..reps {
                f();
            }
            start.elapsed().as_secs_f64() * 1000.0 / reps as f64
        })
        .collect();
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    samples[samples.len() / 2]
}

/// Asserts that every int8 leg this CPU has produces the naive
/// reference's i32 accumulators bit for bit on a critic-shaped GEMM.
fn assert_kernels_bitwise_identical() {
    let (m, k, n) = (120usize, 3840usize, 8usize); // the fused dense shape
    let a: Vec<i8> = (0..m * k).map(|i| ((i * 37 + 11) % 255) as i8).collect();
    let b: Vec<i8> = (0..k * n).map(|i| ((i * 73 + 5) % 255) as i8).collect();
    let packed = PackedI8::pack(k, n, &b);
    let mut want = vec![0i32; m * n];
    naive_i8(m, k, n, &a, &b, &mut want);
    let mut legs = Vec::new();
    for leg in Int8Leg::ALL.into_iter().filter(|leg| leg.supported()) {
        let mut got = vec![0i32; m * n];
        gemm_i8_on(leg, m, &a, &packed, &mut got);
        assert_eq!(got, want, "int8 leg {} must be exactly naive", leg.name());
        legs.push(leg.name());
    }
    println!(
        "kernel check: {} == naive bitwise on ({m},{k},{n}) ✓",
        legs.join(", ")
    );
}

/// Runs the quant benchmark on a trained harness and writes
/// `results/BENCH_quant.json`.
pub fn run(harness: &mut Harness) {
    println!("Int8 backend benchmark (fused k-member ensemble vs float path)");
    let leg = int8_leg();
    println!("int8_leg: {leg}");
    assert_kernels_bitwise_identical();

    harness
        .pipeline
        .compile_int8()
        .expect("int8 backend compiles");
    let backend_desc = format!("{:?}", harness.pipeline.vehigan.int8_backend().unwrap());
    println!("{backend_desc}");

    let vehigan = &harness.pipeline.vehigan;
    let k = vehigan.k();
    let m = vehigan.m();
    let subset: Vec<usize> = (0..k).collect();
    let all: Vec<usize> = (0..m).collect();
    let int8_bytes = vehigan.int8_backend().unwrap().weight_bytes();

    // --- Fig-8-scale latency: one snapshot through k deployed members. ---
    let shape = harness.benign_windows.x.shape().to_vec();
    let len = shape[1] * shape[2] * shape[3];
    let single = Tensor::from_vec(
        harness.benign_windows.x.as_slice()[..len].to_vec(),
        &[1, shape[1], shape[2], shape[3]],
    );
    let f32_single_ms = time_ms(
        || {
            vehigan.score_with_members(&subset, &single).unwrap();
        },
        20,
        7,
    );
    let int8_single_ms = time_ms(
        || {
            vehigan.score_with_members_int8(&subset, &single).unwrap();
        },
        20,
        7,
    );
    let single_speedup = f32_single_ms / int8_single_ms;

    // --- Batch throughput: a 64-snapshot batch through the same k. ---
    let batch_n = 64.min(harness.benign_windows.x.shape()[0]);
    let batch = Tensor::from_vec(
        harness.benign_windows.x.as_slice()[..batch_n * len].to_vec(),
        &[batch_n, shape[1], shape[2], shape[3]],
    );
    let f32_batch_ms = time_ms(
        || {
            vehigan.score_with_members(&subset, &batch).unwrap();
        },
        10,
        7,
    );
    let int8_batch_ms = time_ms(
        || {
            vehigan.score_with_members_int8(&subset, &batch).unwrap();
        },
        10,
        7,
    );
    let batch_speedup = f32_batch_ms / int8_batch_ms;

    println!(
        "{:>24} {:>12} {:>12} {:>9}",
        "case", "f32 (ms)", "int8 (ms)", "speedup"
    );
    println!(
        "{:>24} {f32_single_ms:>12.4} {int8_single_ms:>12.4} {single_speedup:>8.2}x",
        format!("snapshot k={k}")
    );
    println!(
        "{:>24} {f32_batch_ms:>12.4} {int8_batch_ms:>12.4} {batch_speedup:>8.2}x",
        format!("batch n={batch_n} k={k}")
    );

    // --- Quantization error: Table III AUROC, int8 vs f32, all m; and
    // the served gate+escalation mixture vs f32 beside it. ---
    let benign_gate = harness.gate_scores(&all, &harness.benign_windows.x);
    let tau_esc = escalation_threshold(&benign_gate, ESCALATION_PERCENTILE);
    let mut max_delta = 0.0f64;
    let mut mean_delta = 0.0f64;
    let mut worst_attack = String::new();
    let mut mix_max_delta = 0.0f64;
    let mut mix_worst_attack = String::new();
    let n_attacks = harness.attacks.len();
    for ai in 0..n_attacks {
        let ds = &harness.attack_windows[ai];
        let f32_scores = harness.ensemble_attack_scores(&all, ai);
        let int8_scores = harness.gate_scores(&all, &ds.x);
        let mixture: Vec<f32> = int8_scores
            .iter()
            .zip(&f32_scores)
            .map(|(&g, &t2)| if g > tau_esc { t2 } else { g })
            .collect();
        let f32_auroc = auroc(&f32_scores, &ds.labels);
        let delta = (f32_auroc - auroc(&int8_scores, &ds.labels)).abs();
        mean_delta += delta;
        if delta > max_delta {
            max_delta = delta;
            worst_attack = harness.attacks[ai].name().to_string();
        }
        let mix_delta = (f32_auroc - auroc(&mixture, &ds.labels)).abs();
        if mix_delta > mix_max_delta {
            mix_max_delta = mix_delta;
            mix_worst_attack = harness.attacks[ai].name().to_string();
        }
    }
    mean_delta /= n_attacks as f64;
    println!(
        "Table III AUROC drift over {n_attacks} attacks: mean {mean_delta:.5}, \
         max {max_delta:.5} ({worst_attack}); gate+escalation mixture at tau_esc \
         {tau_esc:.4} (p{ESCALATION_PERCENTILE} benign): max {mix_max_delta:.5} ({mix_worst_attack})"
    );

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str(&format!(
        "  \"bench\": \"quant\",\n  \"int8_leg\": \"{leg}\",\n  \"k\": {k},\n  \"m\": {m},\n  \"int8_weight_bytes\": {int8_bytes},\n"
    ));
    json.push_str("  \"cases\": [\n");
    json.push_str(&format!(
        "    {{\"name\": \"snapshot_k{k}\", \"f32_ms\": {f32_single_ms:.5}, \"int8_ms\": {int8_single_ms:.5}, \"speedup\": {single_speedup:.2}}},\n"
    ));
    json.push_str(&format!(
        "    {{\"name\": \"batch{batch_n}_k{k}\", \"f32_ms\": {f32_batch_ms:.5}, \"int8_ms\": {int8_batch_ms:.5}, \"speedup\": {batch_speedup:.2}}}\n"
    ));
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"auroc\": {{\"attacks\": {n_attacks}, \"mean_delta\": {mean_delta:.5}, \"max_delta\": {max_delta:.5}, \"worst_attack\": \"{worst_attack}\", \"tau_esc\": {tau_esc:.5}, \"mixture_max_delta\": {mix_max_delta:.5}, \"mixture_worst_attack\": \"{mix_worst_attack}\", \"budget\": {AUROC_DELTA_BUDGET}}},\n"
    ));
    json.push_str(&format!(
        "  \"gates\": {{\"min_speedup\": {MIN_SPEEDUP}, \"speedup_ok\": {}, \"auroc_ok\": {}, \"mixture_auroc_ok\": {}}}\n}}\n",
        single_speedup >= MIN_SPEEDUP,
        max_delta <= AUROC_DELTA_BUDGET,
        mix_max_delta <= AUROC_DELTA_BUDGET,
    ));
    let path = results_dir().join("BENCH_quant.json");
    std::fs::write(&path, json).expect("write BENCH_quant.json");
    eprintln!("[harness] wrote {}", path.display());

    // --- Gates (ISSUE acceptance criteria). ---
    assert!(
        max_delta <= AUROC_DELTA_BUDGET,
        "int8 AUROC drift {max_delta:.5} exceeds the {AUROC_DELTA_BUDGET} budget ({worst_attack})"
    );
    assert!(
        mix_max_delta <= AUROC_DELTA_BUDGET,
        "gate+escalation AUROC drift {mix_max_delta:.5} exceeds the {AUROC_DELTA_BUDGET} budget ({mix_worst_attack})"
    );
    // The portable int8 walk is a correctness fallback, slower than the
    // portable f32 walk; only its scores are held to account.
    let speed_gated = std::env::var_os("VEHIGAN_FORCE_PORTABLE").is_none();
    assert!(
        !speed_gated || single_speedup >= MIN_SPEEDUP,
        "fused int8 ensemble speedup {single_speedup:.2}x below the required {MIN_SPEEDUP}x"
    );
    let speed_gate = if speed_gated {
        format!("≥ {MIN_SPEEDUP}x ✓")
    } else {
        "not gated (portable dispatch forced)".to_string()
    };
    println!(
        "gates: speedup {single_speedup:.2}x {speed_gate}, \
         AUROC drift {max_delta:.5} ≤ {AUROC_DELTA_BUDGET} ✓, \
         mixture drift {mix_max_delta:.5} ≤ {AUROC_DELTA_BUDGET} ✓"
    );
}
