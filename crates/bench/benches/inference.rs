//! Fig 8 Criterion benches: per-snapshot critic inference latency.
//!
//! - `standard/layersN` — the served float scorer `Wgan::score_*`
//!   (Fig 8a, the paper's Keras path);
//! - `lite/layersN` — the compiled int8 critic (Fig 8b, the paper's
//!   TFLite path).
//!
//! Both must sit far below the 100 ms BSM transmission interval. The full
//! `VEHIGAN_k` cost (k int8 critics per BSM) is `fused_ensemble/kN` in
//! the `quant` bench.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use vehigan_core::{build_critic, Wgan, WganConfig};
use vehigan_lite::Int8Ensemble;
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
        let snap = build_critic(&cfg, &mut seeded_rng(layers as u64)).save();
        let mut rng = seeded_rng(1);
        let calibration = rand_uniform(&[16, cfg.window, cfg.features, 1], -1.0, 1.0, &mut rng);
        let shape = (cfg.window, cfg.features, 1);
        let mut lite = Int8Ensemble::compile(&[&snap], shape, calibration.as_slice())
            .expect("critic compiles");
        let x = rand_uniform(&[1, cfg.window, cfg.features, 1], -1.0, 1.0, &mut rng);
        let mut score = [0.0f32; 1];
        group.bench_function(format!("layers{layers}"), |b| {
            b.iter(|| {
                lite.score_subset_into(&[0], black_box(x.as_slice()), 1, &mut score);
                black_box(score[0])
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_standard, bench_lite);
criterion_main!(benches);
