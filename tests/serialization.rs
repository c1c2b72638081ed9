//! Cross-crate serialization tests: the training-phase → testing-phase
//! hand-off (critic files shipped to OBUs, compiled to the int8 runtime).

use vehigan::core::{Wgan, WganConfig};
use vehigan::lite::Int8Ensemble;
use vehigan::tensor::init::{rand_uniform, seeded_rng};
use vehigan::tensor::serialize::{ModelFormatError, ModelSnapshot};
use vehigan::tensor::{Sequential, Tensor};

fn trained_critic_bytes(seed: u64) -> (WganConfig, Vec<u8>, Tensor, Vec<f32>) {
    let config = WganConfig {
        noise_dim: 8,
        layers: 4,
        epochs: 2,
        batch_size: 32,
        n_critic: 1,
        seed,
        ..WganConfig::default()
    };
    let mut rng = seeded_rng(seed ^ 0xDA7A);
    let train = rand_uniform(&[96, 10, 12, 1], -0.4, 0.4, &mut rng);
    let mut wgan = Wgan::new(config);
    wgan.train(&train);
    let probe = rand_uniform(&[8, 10, 12, 1], -1.0, 1.0, &mut rng);
    let scores = wgan.score_batch(&probe);
    (config, wgan.critic_bytes(), probe, scores)
}

#[test]
fn critic_file_roundtrips_through_wgan() {
    let (config, bytes, probe, scores) = trained_critic_bytes(1);
    let restored = Wgan::from_critic_bytes(config, &bytes).expect("load");
    assert_eq!(restored.score_batch(&probe), scores);
}

#[test]
fn critic_file_compiles_to_lite_with_matching_ranking() {
    let (_, bytes, probe, scores) = trained_critic_bytes(2);
    let snap = ModelSnapshot::from_bytes(&bytes).expect("parse");
    // Activation scales come from benign windows like the training set's;
    // the wider probe windows trip the range guard.
    let benign = rand_uniform(&[32, 10, 12, 1], -0.4, 0.4, &mut seeded_rng(7));
    let mut lite =
        Int8Ensemble::compile(&[&snap], (10, 12, 1), benign.as_slice()).expect("compile");
    let lite_scores = lite.score_all(probe.as_slice(), 8);
    // Quantized scores track the float scores closely.
    for (f, l) in scores.iter().zip(&lite_scores) {
        assert!(
            (f - l).abs() < 0.05 * f.abs().max(1.0),
            "float {f} vs lite {l}"
        );
    }
}

#[test]
fn corrupted_critic_file_is_rejected_not_misloaded() {
    let (config, mut bytes, _, _) = trained_critic_bytes(3);
    // Flip the magic.
    bytes[0] ^= 0xFF;
    assert!(matches!(
        Wgan::from_critic_bytes(config, &bytes),
        Err(ModelFormatError::BadMagic)
    ));
    // Truncation is an I/O-style error, not a panic.
    let (config, bytes, _, _) = trained_critic_bytes(4);
    let truncated = &bytes[..bytes.len() / 3];
    assert!(Wgan::from_critic_bytes(config, truncated).is_err());
}

#[test]
fn sequential_roundtrip_is_bit_exact() {
    let (_, bytes, probe, _) = trained_critic_bytes(5);
    let mut a = Sequential::from_bytes(&bytes).expect("load a");
    let b_bytes = a.to_bytes();
    assert_eq!(bytes, b_bytes, "re-serialization must be bit-identical");
    let mut b = Sequential::from_bytes(&b_bytes).expect("load b");
    assert_eq!(a.forward(&probe), b.forward(&probe));
}

#[test]
fn foreign_files_are_rejected() {
    assert!(matches!(
        Sequential::from_bytes(b"not a model at all"),
        Err(ModelFormatError::BadMagic)
    ));
    assert!(Sequential::from_bytes(&[]).is_err());
}
