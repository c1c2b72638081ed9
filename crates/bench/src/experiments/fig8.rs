//! Fig 8: single-snapshot inference latency of the standard (served f32)
//! vs lite (int8) critic, by critic depth.
//!
//! The paper's claim is about the shape: both paths sit far below the
//! 100 ms BSM interval; the lite path is the faster one; depth adds a
//! mild slope.

use crate::harness::write_csv;
use std::time::Instant;
use vehigan_core::{build_critic, Wgan, WganConfig};
use vehigan_lite::Int8Ensemble;
use vehigan_tensor::init::{rand_uniform, seeded_rng};

/// Critic depths swept by the paper (§IV-A.1).
pub(crate) const LAYER_COUNTS: [usize; 3] = [6, 7, 8];

/// Builds a critic of the given depth with the paper's snapshot shape.
pub(crate) fn critic_config(layers: usize) -> WganConfig {
    WganConfig {
        layers,
        ..WganConfig::default()
    }
}

fn time_ms(mut f: impl FnMut(), reps: usize) -> f64 {
    // Warm-up.
    for _ in 0..5 {
        f();
    }
    let start = Instant::now();
    for _ in 0..reps {
        f();
    }
    start.elapsed().as_secs_f64() * 1000.0 / reps as f64
}

/// Runs Fig 8 and writes `results/fig8_inference_ms.csv`.
pub fn run() {
    let mut rng = seeded_rng(8);
    println!("Fig 8 — per-snapshot inference latency (ms), BSM budget = 100 ms");
    println!(
        "{:>7} {:>14} {:>14} {:>9}",
        "layers", "standard (8a)", "lite (8b)", "speedup"
    );
    let mut rows = Vec::new();
    for layers in LAYER_COUNTS {
        let config = critic_config(layers);
        let shape = (config.window, config.features, 1);
        let critic = build_critic(&config, &mut seeded_rng(layers as u64));
        // Column 8a is the served float scorer, not the training pass.
        let standard = Wgan::from_critic_bytes(config, &critic.to_bytes()).expect("critic loads");
        let calibration = rand_uniform(
            &[16, config.window, config.features, 1],
            -1.0,
            1.0,
            &mut seeded_rng(layers as u64 + 80),
        );
        // Column 8b is the served int8 critic, a single member.
        let mut lite = Int8Ensemble::compile(&[&critic.save()], shape, calibration.as_slice())
            .expect("critic compiles");
        let x = rand_uniform(&[1, config.window, config.features, 1], -1.0, 1.0, &mut rng);
        let flat: Vec<f32> = x.as_slice().to_vec();
        let mut score = [0.0f32; 1];

        let std_ms = time_ms(|| standard.score_slice_into(&flat, &mut score), 500);
        let lite_ms = time_ms(|| lite.score_subset_into(&[0], &flat, 1, &mut score), 500);
        println!(
            "{layers:>7} {std_ms:>14.3} {lite_ms:>14.4} {:>8.1}x",
            std_ms / lite_ms
        );
        rows.push(format!("{layers},{std_ms:.5},{lite_ms:.5}"));
        assert!(
            std_ms < 100.0 && lite_ms < 100.0,
            "inference must beat the 100 ms BSM interval"
        );
    }
    write_csv("fig8_inference_ms.csv", "layers,standard_ms,lite_ms", &rows);
    println!("\nboth paths beat the 100 ms BSM interval; lite is the OBU fallback (paper Fig 8)");
}
