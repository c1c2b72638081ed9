//! Int8 backend benchmark: fused k-member ensemble latency vs the float
//! path, plus quantization-error accounting on the Table III campaign.
//!
//! Run via `vehigan-bench quant --scale quick` (trains the quick system,
//! prints a summary, writes `results/BENCH_quant.json`).
//!
//! The run **gates** its own acceptance criteria and panics when they
//! fail (so the CI smoke step catches regressions):
//!
//! - fused int8 `k`-member scoring of a 64-snapshot batch ≥ 2× faster
//!   than the float `score_with_members` path (`k = deploy_k`; the
//!   median of paired per-trial ratios) — a claim about the SIMD int8
//!   kernels, so reported but not gated when
//!   `VEHIGAN_FORCE_PORTABLE` pins the portable fallback. The batch is
//!   gated, not the single snapshot, because both of its calls fork to
//!   every core: one snapshot's f32 call is worth two fork shares and its
//!   int8 call one, so that ratio would move with the core count and with
//!   load on the other cores;
//! - max |AUROC(int8) − AUROC(f32)| over the 35-attack Table III campaign
//!   ≤ `AUROC_DELTA_BUDGET`, and the same bound for the served mixture
//!   (a gated [`vehigan_serve::TieredDetector`] over all m members: the
//!   int8 gate score, or the f32 score where it crosses τ_esc);
//! - every int8 leg this CPU has agrees bitwise with the naive reference
//!   on a critic-shaped GEMM (i32 accumulator equality) — the AVX2 leg
//!   included, which a VNNI host never dispatches.

use crate::harness::{write_json, Harness, Json};
use crate::served::{self, scores, Screened, AUROC_DELTA_BUDGET};
use std::time::Instant;
use vehigan_metrics::auroc;
use vehigan_serve::{escalation_threshold, EscalationPolicy};
use vehigan_tensor::gemm::{gemm_i8_on, int8_leg, naive_i8, Int8Leg, PackedI8};
use vehigan_tensor::Tensor;

/// Escalation cutoff of the mixture column: this percentile of benign
/// int8 gate scores, so roughly `100 − p` percent of benign traffic is
/// re-scored by the f32 ensemble. Non-escalated windows carry scores
/// within int8 quantization error of f32, so the mixture's drift stays
/// inside the budget at any percentile; 97.5 keeps tier 2 at ~2.5 % of
/// benign traffic while sitting below the detection percentile (99), so
/// every window the ensemble would flag crosses the gate (DESIGN.md §10).
pub(crate) const ESCALATION_PERCENTILE: f64 = 97.5;

/// Minimum required fused-ensemble speedup over the float path on the
/// batch case.
pub(crate) const MIN_SPEEDUP: f64 = 2.0;

/// Wall-clock milliseconds per call of the f32 and the int8 path, and
/// the int8 speedup, as `(f32_ms, int8_ms, speedup)`. Each trial times
/// `reps` calls of each path back to back, alternating which goes first,
/// so load that comes and goes on the host lands on both sides of the
/// trial's ratio; the speedup is the median of those ratios and each
/// time the median of its path's trials.
fn paired_ms(
    mut f32_call: impl FnMut(),
    mut int8_call: impl FnMut(),
    reps: usize,
    trials: usize,
) -> (f64, f64, f64) {
    for _ in 0..3 {
        f32_call(); // warm-up
        int8_call();
    }
    let time = |f: &mut dyn FnMut()| {
        let start = Instant::now();
        for _ in 0..reps {
            f();
        }
        start.elapsed().as_secs_f64() * 1000.0 / reps as f64
    };
    let (mut f32_ms, mut int8_ms, mut ratios) = (Vec::new(), Vec::new(), Vec::new());
    for trial in 0..trials {
        let (f, q) = if trial % 2 == 0 {
            let f = time(&mut f32_call);
            (f, time(&mut int8_call))
        } else {
            let q = time(&mut int8_call);
            (time(&mut f32_call), q)
        };
        f32_ms.push(f);
        int8_ms.push(q);
        ratios.push(f / q);
    }
    let median = |mut v: Vec<f64>| {
        v.sort_by(f64::total_cmp);
        v[v.len() / 2]
    };
    (median(f32_ms), median(int8_ms), median(ratios))
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

    // --- Fig-8-scale latency: one snapshot through k deployed members
    // (reported, not gated). ---
    let shape = harness.benign_windows.x.shape().to_vec();
    let len = shape[1] * shape[2] * shape[3];
    let single = Tensor::from_vec(
        harness.benign_windows.x.as_slice()[..len].to_vec(),
        &[1, shape[1], shape[2], shape[3]],
    );
    let (f32_single_ms, int8_single_ms, single_speedup) = paired_ms(
        || {
            vehigan.score_with_members(&subset, &single).unwrap();
        },
        || {
            vehigan.score_with_members_int8(&subset, &single).unwrap();
        },
        20,
        9,
    );

    // --- Batch throughput: a 64-snapshot batch through the same k, the
    // gated case. ---
    let batch_n = 64.min(harness.benign_windows.x.shape()[0]);
    let batch = Tensor::from_vec(
        harness.benign_windows.x.as_slice()[..batch_n * len].to_vec(),
        &[batch_n, shape[1], shape[2], shape[3]],
    );
    let (f32_batch_ms, int8_batch_ms, batch_speedup) = paired_ms(
        || {
            vehigan.score_with_members(&subset, &batch).unwrap();
        },
        || {
            vehigan.score_with_members_int8(&subset, &batch).unwrap();
        },
        10,
        9,
    );

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
    let config = served::config(harness, EscalationPolicy::Threshold(tau_esc), all.clone());
    let mut mixture_detector = served::detector(harness, &config);
    let mut max_delta = 0.0f64;
    let mut mean_delta = 0.0f64;
    let mut worst_attack = String::new();
    let mut mix_max_delta = 0.0f64;
    let mut mix_worst_attack = String::new();
    let n_attacks = harness.attacks.len();
    for ai in 0..n_attacks {
        let ds = &harness.attack_windows[ai];
        let f32_scores = harness.ensemble_attack_scores(&all, ai);
        let mixture = Screened::windows(&mut mixture_detector, &ds.x);
        let f32_auroc = auroc(&f32_scores, &ds.labels);
        let delta = (f32_auroc - auroc(&mixture.gate, &ds.labels)).abs();
        mean_delta += delta;
        if delta > max_delta {
            max_delta = delta;
            worst_attack = harness.attacks[ai].name().to_string();
        }
        let mix_delta = (f32_auroc - auroc(&scores(&mixture.decisions), &ds.labels)).abs();
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

    let fixed = Json::fixed;
    let case = |name: String, f32_ms: f64, int8_ms: f64, speedup: f64| {
        Json::Obj(vec![
            ("name", Json::str(name)),
            ("f32_ms", fixed(f32_ms, 5)),
            ("int8_ms", fixed(int8_ms, 5)),
            ("speedup", fixed(speedup, 2)),
        ])
    };
    write_json(
        "BENCH_quant.json",
        &Json::Obj(vec![
            ("bench", Json::str("quant")),
            ("int8_leg", Json::str(leg)),
            ("k", Json::lit(k)),
            ("m", Json::lit(m)),
            ("int8_weight_bytes", Json::lit(int8_bytes)),
            (
                "cases",
                Json::Arr(vec![
                    case(
                        format!("snapshot_k{k}"),
                        f32_single_ms,
                        int8_single_ms,
                        single_speedup,
                    ),
                    case(
                        format!("batch{batch_n}_k{k}"),
                        f32_batch_ms,
                        int8_batch_ms,
                        batch_speedup,
                    ),
                ]),
            ),
            (
                "auroc",
                Json::Obj(vec![
                    ("attacks", Json::lit(n_attacks)),
                    ("mean_delta", fixed(mean_delta, 5)),
                    ("max_delta", fixed(max_delta, 5)),
                    ("worst_attack", Json::str(&worst_attack)),
                    ("tau_esc", fixed(f64::from(tau_esc), 5)),
                    ("mixture_max_delta", fixed(mix_max_delta, 5)),
                    ("mixture_worst_attack", Json::str(&mix_worst_attack)),
                    ("budget", Json::lit(AUROC_DELTA_BUDGET)),
                ]),
            ),
            (
                "gates",
                Json::Obj(vec![
                    ("min_speedup", Json::lit(MIN_SPEEDUP)),
                    ("speedup_case", Json::str(format!("batch{batch_n}_k{k}"))),
                    ("speedup_ok", Json::lit(batch_speedup >= MIN_SPEEDUP)),
                    ("auroc_ok", Json::lit(max_delta <= AUROC_DELTA_BUDGET)),
                    (
                        "mixture_auroc_ok",
                        Json::lit(mix_max_delta <= AUROC_DELTA_BUDGET),
                    ),
                ]),
            ),
        ]),
    );

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
        !speed_gated || batch_speedup >= MIN_SPEEDUP,
        "fused int8 ensemble speedup {batch_speedup:.2}x below the required {MIN_SPEEDUP}x"
    );
    let speed_gate = if speed_gated {
        format!("≥ {MIN_SPEEDUP}x ✓")
    } else {
        "not gated (portable dispatch forced)".to_string()
    };
    println!(
        "gates: batch speedup {batch_speedup:.2}x {speed_gate}, \
         AUROC drift {max_delta:.5} ≤ {AUROC_DELTA_BUDGET} ✓, \
         mixture drift {mix_max_delta:.5} ≤ {AUROC_DELTA_BUDGET} ✓"
    );
}
