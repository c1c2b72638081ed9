//! GEMM kernel micro-benchmarks: blocked vs naive on critic-shaped
//! problems, plus the transpose-free backward kernels.
//!
//! Writes `results/BENCH_gemm.json` so future PRs have a perf trajectory
//! to compare against. Run via `vehigan-bench gemm`.
//!
//! Shapes (10×12 snapshots; the first four at `WganConfig`'s 128-sample
//! batches, the training shapes at the perf ledger's 16):
//! - `critic_forward` — the final Dense layer of the critic,
//!   `[128, 120] · [120, 64]`, the ISSUE's ≥3× acceptance shape;
//! - `im2col_gemm` — a critic conv as its im2col product,
//!   `[128·10·12, 2·2·8] · [32, 16]`;
//! - `dense_backward_dw` — `dW = Xᵀ·dY` via `gemm_tn` vs
//!   transpose-then-naive;
//! - `dense_backward_dx` — `dX = dY·Wᵀ` via `gemm_nt` vs
//!   transpose-then-naive;
//! - `conv{1_8,8_16,32_32}_{fwd,dw,dx}` — what a critic actually trains:
//!   the three products of its `k = 4` first layer (1 → 8 channels), its
//!   16-column layer (8 → 16) and its widest (32 → 32, where
//!   `dW = gemm_tn` 128×32 over `k = 1920` and `dX = gemm_nt` 1920×128
//!   over `k = 32`).
//!
//! The `blocked` column is whatever leg the process dispatches
//! ([`gemm::f32_leg`], recorded in the file); run under
//! `VEHIGAN_FORCE_PORTABLE=1` for the portable one.

use crate::harness::results_dir;
use std::time::Instant;
use vehigan_tensor::gemm;

/// Which kernel pair a case compares.
#[derive(Clone, Copy)]
enum Kind {
    /// `gemm` vs `naive`.
    Nn,
    /// `gemm_nt` vs transpose-B-then-naive.
    Nt,
    /// `gemm_tn` vs transpose-A-then-naive.
    Tn,
}

struct Case {
    name: &'static str,
    m: usize,
    k: usize,
    n: usize,
    kind: Kind,
}

const fn case(name: &'static str, kind: Kind, m: usize, k: usize, n: usize) -> Case {
    Case {
        name,
        m,
        k,
        n,
        kind,
    }
}

/// The benched shapes. Public callers go through [`run`].
const CASES: [Case; 13] = [
    case("critic_forward", Kind::Nn, 128, 120, 64),
    case("im2col_gemm", Kind::Nn, 15360, 32, 16),
    case("dense_backward_dw", Kind::Tn, 120, 128, 64),
    case("dense_backward_dx", Kind::Nt, 128, 64, 120),
    case("conv1_8_fwd", Kind::Nn, 1920, 4, 8),
    case("conv1_8_dw", Kind::Tn, 4, 1920, 8),
    case("conv1_8_dx", Kind::Nt, 1920, 8, 4),
    case("conv8_16_fwd", Kind::Nn, 1920, 32, 16),
    case("conv8_16_dw", Kind::Tn, 32, 1920, 16),
    case("conv8_16_dx", Kind::Nt, 1920, 16, 32),
    case("conv32_32_fwd", Kind::Nn, 1920, 128, 32),
    case("conv32_32_dw", Kind::Tn, 128, 1920, 32),
    case("conv32_32_dx", Kind::Nt, 1920, 32, 128),
];

/// Deterministic xorshift fill — no RNG dependency, same data every run.
fn fill(mut seed: u32, len: usize) -> Vec<f32> {
    (0..len)
        .map(|_| {
            seed ^= seed << 13;
            seed ^= seed >> 17;
            seed ^= seed << 5;
            (seed as f32 / u32::MAX as f32) - 0.5
        })
        .collect()
}

/// Median wall-clock seconds per call over `trials` timed trials of
/// `reps` calls each (median rejects scheduler noise on shared VMs).
fn time_per_call(mut f: impl FnMut(), reps: usize, trials: usize) -> f64 {
    f(); // warm-up
    let mut samples: Vec<f64> = (0..trials)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..reps {
                f();
            }
            start.elapsed().as_secs_f64() / reps as f64
        })
        .collect();
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    samples[samples.len() / 2]
}

struct Measurement {
    name: &'static str,
    m: usize,
    k: usize,
    n: usize,
    naive_gflops: f64,
    blocked_gflops: f64,
}

impl Measurement {
    fn speedup(&self) -> f64 {
        self.blocked_gflops / self.naive_gflops
    }
}

fn measure(case: &Case) -> Measurement {
    let (m, k, n) = (case.m, case.k, case.n);
    let flops = 2.0 * m as f64 * k as f64 * n as f64;
    // Scale reps so each trial costs roughly the same wall-clock.
    let reps = ((2e7 / flops) as usize).clamp(1, 2000);
    let trials = 7;
    // Operands in the layout each kernel reads: `a_t`/`b_t` are the
    // pre-transposed forms gemm_tn/gemm_nt consume directly.
    let a = fill(1, m * k);
    let b = fill(2, k * n);
    let a_t = {
        let mut t = vec![0.0f32; m * k];
        gemm::transpose_into(m, k, &a, &mut t); // [k, m]
        t
    };
    let b_t = {
        let mut t = vec![0.0f32; k * n];
        gemm::transpose_into(k, n, &b, &mut t); // [n, k]
        t
    };
    let mut c = vec![0.0f32; m * n];
    let mut scratch = vec![0.0f32; m * k.max(n)];

    let naive_secs = match case.kind {
        Kind::Nn => time_per_call(
            || {
                c.iter_mut().for_each(|v| *v = 0.0);
                gemm::naive(m, k, n, &a, &b, &mut c);
            },
            reps,
            trials,
        ),
        // Baselines for nt/tn are what the backward passes used to do:
        // materialize the transpose, then run the naive kernel.
        Kind::Tn => time_per_call(
            || {
                gemm::transpose_into(k, m, &a_t, &mut scratch[..m * k]);
                c.iter_mut().for_each(|v| *v = 0.0);
                gemm::naive(m, k, n, &scratch[..m * k], &b, &mut c);
            },
            reps,
            trials,
        ),
        Kind::Nt => time_per_call(
            || {
                gemm::transpose_into(n, k, &b_t, &mut scratch[..k * n]);
                c.iter_mut().for_each(|v| *v = 0.0);
                gemm::naive(m, k, n, &a, &scratch[..k * n], &mut c);
            },
            reps,
            trials,
        ),
    };
    let blocked_secs = match case.kind {
        Kind::Nn => time_per_call(
            || {
                c.iter_mut().for_each(|v| *v = 0.0);
                gemm::gemm(m, k, n, &a, &b, &mut c);
            },
            reps,
            trials,
        ),
        Kind::Tn => time_per_call(
            || {
                c.iter_mut().for_each(|v| *v = 0.0);
                gemm::gemm_tn(m, n, k, &a_t, &b, &mut c);
            },
            reps,
            trials,
        ),
        Kind::Nt => time_per_call(
            || {
                c.iter_mut().for_each(|v| *v = 0.0);
                gemm::gemm_nt(m, n, k, &a, &b_t, &mut c);
            },
            reps,
            trials,
        ),
    };

    Measurement {
        name: case.name,
        m,
        k,
        n,
        naive_gflops: flops / naive_secs / 1e9,
        blocked_gflops: flops / blocked_secs / 1e9,
    }
}

/// Runs all cases, prints a table, and writes `results/BENCH_gemm.json`.
pub fn run() {
    println!("GEMM kernel benchmark (median of 7 trials per kernel)");
    println!("f32_leg: {}", gemm::f32_leg());
    println!("int8_leg: {}", gemm::int8_leg());
    println!(
        "{:>20} {:>16} {:>14} {:>14} {:>9}",
        "case", "shape (m,k,n)", "naive GF/s", "blocked GF/s", "speedup"
    );
    let results: Vec<Measurement> = CASES.iter().map(measure).collect();
    let mut entries = Vec::with_capacity(results.len());
    for r in &results {
        println!(
            "{:>20} {:>16} {:>14.2} {:>14.2} {:>8.2}x",
            r.name,
            format!("({},{},{})", r.m, r.k, r.n),
            r.naive_gflops,
            r.blocked_gflops,
            r.speedup()
        );
        entries.push(format!(
            "    {{\"name\": \"{}\", \"m\": {}, \"k\": {}, \"n\": {}, \
             \"naive_gflops\": {:.2}, \"blocked_gflops\": {:.2}, \"speedup\": {:.2}}}",
            r.name,
            r.m,
            r.k,
            r.n,
            r.naive_gflops,
            r.blocked_gflops,
            r.speedup()
        ));
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let cpu_model = cpuinfo
        .lines()
        .find_map(|l| l.strip_prefix("model name")?.split_once(": "))
        .map_or("unknown", |(_, model)| model);
    let json = format!(
        "{{\n  \"bench\": \"gemm\",\n  \"unit\": \"GFLOP/s\",\n  \
         \"host\": {{\"nproc\": {nproc}, \"cpu_model\": \"{cpu_model}\"}},\n  \
         \"f32_leg\": \"{}\",\n  \"cases\": [\n{}\n  ]\n}}\n",
        gemm::f32_leg(),
        entries.join(",\n")
    );
    let path = results_dir().join("BENCH_gemm.json");
    std::fs::write(&path, json).expect("write BENCH_gemm.json");
    eprintln!("[harness] wrote {}", path.display());
}
