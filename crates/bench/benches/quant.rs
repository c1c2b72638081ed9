//! Criterion benches for the int8 ensemble backend.
//!
//! Run with `cargo bench -p vehigan-bench --bench quant`. The quick
//! JSON-emitting variant (on a trained system, with acceptance gates) is
//! `vehigan-bench quant`, which writes `results/BENCH_quant.json`.
//!
//! Groups:
//! - `i8_gemm/*` — the raw i8×i8→i32 kernel on critic shapes, dispatched
//!   vs portable vs naive;
//! - `fused_ensemble/kN` — one snapshot through N paper-depth int8
//!   critics, one after another on one scratch.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use vehigan_core::{build_critic, WganConfig};
use vehigan_lite::Int8Ensemble;
use vehigan_tensor::gemm::{gemm_i8, gemm_i8_portable, naive_i8, PackedI8};
use vehigan_tensor::init::{rand_uniform, seeded_rng};

fn config(layers: usize) -> WganConfig {
    WganConfig {
        layers,
        ..WganConfig::default()
    }
}

fn fill_i8(mut seed: u32, len: usize) -> Vec<i8> {
    (0..len)
        .map(|_| {
            seed ^= seed << 13;
            seed ^= seed >> 17;
            seed ^= seed << 5;
            (seed % 255) as i8
        })
        .collect()
}

fn bench_i8_gemm(c: &mut Criterion) {
    // The two hot critic shapes: an im2col conv and the final dense.
    for (name, m, k, n) in [
        ("im2col_conv", 120usize, 128usize, 32usize),
        ("final_dense", 1, 3840, 8),
    ] {
        let mut group = c.benchmark_group(format!("i8_gemm/{name}"));
        let a = fill_i8(1, m * k);
        let b = fill_i8(2, k * n);
        let packed = PackedI8::pack(k, n, &b);
        let mut out = vec![0i32; m * n];
        group.bench_function("naive", |bch| {
            bch.iter(|| {
                out.iter_mut().for_each(|v| *v = 0);
                naive_i8(m, k, n, black_box(&a), black_box(&b), &mut out);
                black_box(out[0])
            })
        });
        group.bench_function("portable", |bch| {
            bch.iter(|| {
                out.iter_mut().for_each(|v| *v = 0);
                gemm_i8_portable(m, black_box(&a), black_box(&packed), &mut out);
                black_box(out[0])
            })
        });
        group.bench_function("dispatched", |bch| {
            bch.iter(|| {
                out.iter_mut().for_each(|v| *v = 0);
                gemm_i8(m, black_box(&a), black_box(&packed), &mut out);
                black_box(out[0])
            })
        });
        group.finish();
    }
}

fn bench_fused_ensemble(c: &mut Criterion) {
    let cfg = config(6);
    let shape = (cfg.window, cfg.features, 1);
    let mut rng = seeded_rng(1);
    let calibration = rand_uniform(&[16, cfg.window, cfg.features, 1], -1.0, 1.0, &mut rng);
    let x = rand_uniform(&[1, cfg.window, cfg.features, 1], -1.0, 1.0, &mut rng);
    let flat: Vec<f32> = x.as_slice().to_vec();

    for k in [1usize, 5, 10] {
        let snaps: Vec<_> = (0..k)
            .map(|s| build_critic(&cfg, &mut seeded_rng(s as u64)).save())
            .collect();
        let refs: Vec<&_> = snaps.iter().collect();
        let mut fused =
            Int8Ensemble::compile(&refs, shape, calibration.as_slice()).expect("compiles");
        let subset: Vec<usize> = (0..k).collect();
        let mut scores = vec![0.0f32; k];
        let mut group = c.benchmark_group("fused_ensemble");
        group.bench_function(format!("k{k}"), |b| {
            b.iter(|| {
                fused.score_subset_into(&subset, black_box(&flat), 1, &mut scores);
                black_box(scores[0])
            })
        });
        group.finish();
    }
}

criterion_group!(benches, bench_i8_gemm, bench_fused_ensemble);
criterion_main!(benches);
