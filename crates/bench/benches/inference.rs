//! Fig 8 Criterion benches: per-snapshot critic inference latency.
//!
//! - `standard/layersN` — the served float scorer `Wgan::score_*`
//!   (Fig 8a, the paper's Keras path);
//! - `lite/layersN` — the compiled int8 fused path (Fig 8b, the paper's
//!   TFLite path);
//! - `ensemble/*` — full `VEHIGAN_k` scoring cost (k critics per BSM).
//!
//! All must sit far below the 100 ms BSM transmission interval.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use vehigan_core::{build_critic, Wgan, WganConfig};
use vehigan_lite::LiteCritic;
use vehigan_tensor::init::{rand_uniform, seeded_rng};

fn config(layers: usize) -> WganConfig {
    WganConfig {
        layers,
        ..WganConfig::default()
    }
}

fn bench_standard(c: &mut Criterion) {
    let mut group = c.benchmark_group("standard");
    for layers in [6usize, 7, 8] {
        let cfg = config(layers);
        let wgan = Wgan::new(cfg);
        let mut rng = seeded_rng(1);
        let x = rand_uniform(&[1, cfg.window, cfg.features, 1], -1.0, 1.0, &mut rng);
        let mut score = [0.0f32; 1];
        group.bench_function(format!("layers{layers}"), |b| {
            b.iter(|| wgan.score_into(black_box(&x), black_box(&mut score)));
        });
    }
    group.finish();
}

fn bench_lite(c: &mut Criterion) {
    let mut group = c.benchmark_group("lite");
    for layers in [6usize, 7, 8] {
        let cfg = config(layers);
        let critic = build_critic(&cfg, &mut seeded_rng(layers as u64));
        let mut lite =
            LiteCritic::compile(&critic, (cfg.window, cfg.features, 1)).expect("critic compiles");
        let mut rng = seeded_rng(1);
        let x = rand_uniform(&[1, cfg.window, cfg.features, 1], -1.0, 1.0, &mut rng);
        let flat: Vec<f32> = x.as_slice().to_vec();
        group.bench_function(format!("layers{layers}"), |b| {
            b.iter(|| black_box(lite.infer(black_box(&flat))));
        });
    }
    group.finish();
}

fn bench_ensemble(c: &mut Criterion) {
    let mut group = c.benchmark_group("ensemble");
    // k lite critics scored sequentially — the OBU worst case without
    // parallel inference (§V-D).
    for k in [1usize, 5, 10] {
        let cfg = config(6);
        let mut lites: Vec<LiteCritic> = (0..k)
            .map(|i| {
                let critic = build_critic(&cfg, &mut seeded_rng(i as u64));
                LiteCritic::compile(&critic, (cfg.window, cfg.features, 1)).expect("compiles")
            })
            .collect();
        let mut rng = seeded_rng(1);
        let x = rand_uniform(&[1, cfg.window, cfg.features, 1], -1.0, 1.0, &mut rng);
        let flat: Vec<f32> = x.as_slice().to_vec();
        group.bench_function(format!("lite_k{k}"), |b| {
            b.iter(|| {
                let mut sum = 0.0f32;
                for lite in &mut lites {
                    sum += lite.score(black_box(&flat));
                }
                black_box(sum / k as f32)
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_standard, bench_lite, bench_ensemble);
criterion_main!(benches);
