//! Integration tests for the fault-tolerant training runtime: crash-safe
//! checkpoints, mid-member resume from a partial checkpoint, and
//! calibrating and scoring a trained zoo. The tests that kill a grid run
//! and resume it live in `zoo.rs`'s test module, beside the test-only
//! kill they use.

use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use vehigan_core::{
    CheckpointError, CheckpointStore, CriticMember, EnsembleError, GridConfig, ModelZoo, VehiGan,
    Wgan, WganConfig, ZooTrainOptions,
};
use vehigan_features::WindowDataset;
use vehigan_tensor::init::{rand_uniform, seeded_rng};
use vehigan_tensor::Tensor;
use vehigan_vasp::Attack;

fn scratch_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let dir =
        std::env::temp_dir().join(format!("vehigan-ft-test-{}-{tag}-{n}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn benign(n: usize, seed: u64) -> Tensor {
    let mut rng = seeded_rng(seed);
    let base = rand_uniform(&[n, 1], -0.2, 0.2, &mut rng);
    let mut data = Vec::with_capacity(n * 120);
    for i in 0..n {
        for j in 0..120 {
            data.push(base.as_slice()[i] + 0.05 * (j as f32 * 0.4).cos());
        }
    }
    Tensor::from_vec(data, &[n, 10, 12, 1])
}

fn synthetic_validation(seed: u64) -> Vec<(Attack, WindowDataset)> {
    let mut rng = seeded_rng(seed);
    let b = benign(40, seed);
    let garbage = rand_uniform(&[40, 10, 12, 1], -1.0, 1.0, &mut rng);
    let mut data = b.as_slice().to_vec();
    data.extend_from_slice(garbage.as_slice());
    let x = Tensor::from_vec(data, &[80, 10, 12, 1]);
    let labels: Vec<bool> = (0..80).map(|i| i >= 40).collect();
    let vehicles = vec![vehigan_sim::VehicleId(0); 80];
    vec![(
        Attack::by_name("RandomSpeed").unwrap(),
        WindowDataset {
            x,
            labels,
            vehicles,
        },
    )]
}

#[test]
fn completed_run_is_a_pure_reload() {
    let train = benign(96, 0);
    let grid = GridConfig::tiny();
    let dir = scratch_dir("reload");

    let mut options = ZooTrainOptions::new(2);
    options.checkpoint_dir = Some(dir.clone());
    let first = ModelZoo::train_grid(&grid, &train, &options).unwrap();
    assert_eq!(first.resumed, 0);

    let second = ModelZoo::train_grid(&grid, &train, &options).unwrap();
    assert_eq!(
        second.resumed,
        grid.len(),
        "second run must load everything"
    );
    let probe = benign(8, 3);
    for (a, b) in first.zoo.entries().iter().zip(second.zoo.entries()) {
        assert_eq!(a.wgan.score_batch(&probe), b.wgan.score_batch(&probe));
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn corrupted_checkpoints_yield_typed_errors() {
    let dir = scratch_dir("corrupt");
    let store = CheckpointStore::open(&dir).unwrap();
    let config = WganConfig {
        noise_dim: 8,
        layers: 3,
        epochs: 1,
        batch_size: 16,
        n_critic: 1,
        ..WganConfig::default()
    };
    let mut wgan = Wgan::new(config);
    wgan.train(&benign(32, 1));
    store.save_member(&wgan).unwrap();
    let path = store.member_path(&config.id());
    let pristine = fs::read(&path).unwrap();

    // Truncation at several depths.
    for keep in [3, 12, pristine.len() / 3, pristine.len() - 2] {
        fs::write(&path, &pristine[..keep]).unwrap();
        assert!(
            matches!(
                store.load_member(config),
                Err(CheckpointError::Truncated { .. })
            ),
            "keep={keep}"
        );
    }

    // A single flipped bit deep in the payload.
    let mut flipped = pristine.clone();
    let mid = 20 + (flipped.len() - 20) * 2 / 3;
    flipped[mid] ^= 0x01;
    fs::write(&path, &flipped).unwrap();
    assert!(matches!(
        store.load_member(config),
        Err(CheckpointError::ChecksumMismatch { .. })
    ));

    // Wrong magic.
    let mut wrong_magic = pristine.clone();
    wrong_magic[0] = b'X';
    fs::write(&path, &wrong_magic).unwrap();
    assert!(matches!(
        store.load_member(config),
        Err(CheckpointError::BadMagic)
    ));

    // Intact bytes still load after all that.
    fs::write(&path, &pristine).unwrap();
    let restored = store.load_member(config).unwrap();
    let probe = benign(4, 2);
    assert_eq!(restored.score_batch(&probe), wgan.score_batch(&probe));
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn calibrated_zoo_members_score_an_explicit_subset() {
    // Train a small pool, calibrate its top three, and score through a
    // deployed pair.
    let train = benign(96, 0);
    let report =
        ModelZoo::train_grid(&GridConfig::tiny(), &train, &ZooTrainOptions::new(2)).unwrap();
    let mut zoo = report.zoo;
    zoo.pre_evaluate(&synthetic_validation(13));
    let selected = zoo.top_m(3);
    let members: Vec<CriticMember> = zoo
        .take_models(&selected)
        .into_iter()
        .map(|e| CriticMember::calibrate(e.wgan, e.ads, &train).unwrap())
        .collect();
    let vehigan = VehiGan::new(members, 2).unwrap();

    let x = benign(20, 9);
    let ens = vehigan.score_with_members(&[1, 2], &x).unwrap();
    assert_eq!(ens.members, vec![1, 2]);
    assert!(ens.dropped.is_empty());
    assert!(ens.scores.iter().all(|s| s.is_finite()));
}

#[test]
fn mid_member_kill_resume_is_bitwise_identical() {
    // The headline guarantee of the v2 checkpoint format: killing training
    // at ANY epoch boundary and resuming from the partial checkpoint must
    // reproduce the uninterrupted run bit for bit — critic weights,
    // history, and the full training state (generator, optimizer caches,
    // spectral vectors, RNG cursor).
    let x = benign(48, 5);
    let config = WganConfig {
        noise_dim: 8,
        layers: 3,
        epochs: 4,
        batch_size: 16,
        n_critic: 1,
        seed: 21,
        ..WganConfig::default()
    };

    let mut reference = Wgan::new(config);
    reference.train_epochs_resumable(&x, 4, |_| true).unwrap();

    for kill_after in 1..=3 {
        let dir = scratch_dir("midkill");
        let store = CheckpointStore::open(&dir).unwrap();
        let mut victim = Wgan::new(config);
        let mut seen = 0usize;
        let report = victim
            .train_epochs_resumable(&x, 4, |w| {
                store.save_partial("grp", w).unwrap();
                seen += 1;
                seen < kill_after
            })
            .unwrap();
        assert!(report.stopped, "kill_after={kill_after}");
        assert_eq!(report.epochs, kill_after);
        drop(victim); // the "process" dies; only the partial survives

        let mut resumed = store.load_partial("grp", config).unwrap();
        assert_eq!(resumed.history().len(), kill_after);
        resumed
            .train_epochs_resumable(&x, 4 - kill_after, |_| true)
            .unwrap();

        assert_eq!(
            resumed.critic_bytes(),
            reference.critic_bytes(),
            "kill_after={kill_after}: critic bytes must match the uninterrupted run"
        );
        assert_eq!(
            resumed.history(),
            reference.history(),
            "kill_after={kill_after}: history must match"
        );
        assert_eq!(
            resumed.training_state_bytes(),
            reference.training_state_bytes(),
            "kill_after={kill_after}: full training state must match"
        );
        let _ = fs::remove_dir_all(&dir);
    }
}

#[test]
fn partial_checkpoints_round_trip_and_clear() {
    let dir = scratch_dir("partial");
    let store = CheckpointStore::open(&dir).unwrap();
    let config = WganConfig {
        noise_dim: 8,
        layers: 3,
        epochs: 2,
        batch_size: 16,
        n_critic: 1,
        seed: 9,
        ..WganConfig::default()
    };
    let mut wgan = Wgan::new(config);
    wgan.train(&benign(32, 1));

    assert!(!store.has_partial("g"));
    store.save_partial("g", &wgan).unwrap();
    assert!(store.has_partial("g"));

    let restored = store.load_partial("g", config).unwrap();
    assert_eq!(restored.history(), wgan.history());
    assert_eq!(restored.critic_bytes(), wgan.critic_bytes());
    assert_eq!(restored.training_state_bytes(), wgan.training_state_bytes());

    // A partial written under a different run seed is
    // an id mismatch, not a silent resume of the stale trajectory.
    let stale = WganConfig { seed: 10, ..config };
    assert!(matches!(
        store.load_partial("g", stale),
        Err(CheckpointError::IdMismatch { .. })
    ));

    // A v1-style file (no training state) cannot seed a resume.
    store.save_member(&wgan).unwrap();
    fs::copy(
        store.member_path(&config.id()),
        store.partial_path("v2-member"),
    )
    .unwrap();
    assert!(matches!(
        store.load_partial("v2-member", config),
        Err(CheckpointError::Corrupt(_))
    ));

    store.remove_partial("g").unwrap();
    assert!(!store.has_partial("g"));
    store.remove_partial("g").unwrap(); // absent: still Ok
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn v1_checkpoint_fixture_still_loads() {
    // Wire-format back-compat: a checkpoint written by the v1 code (the
    // committed fixture) must still load for inference under the v2
    // reader, reproducing exactly the model that wrote it.
    let fixture = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/v1-z8-l3-e1-s0.ckpt"
    );
    let bytes = fs::read(fixture).expect("v1 fixture present");
    assert_eq!(&bytes[..4], b"VZCK");
    assert_eq!(&bytes[4..8], &1u32.to_le_bytes(), "fixture must be v1");

    let config = WganConfig {
        noise_dim: 8,
        layers: 3,
        epochs: 1,
        batch_size: 16,
        n_critic: 1,
        seed: 0,
        ..WganConfig::default()
    };
    let dir = scratch_dir("v1compat");
    let store = CheckpointStore::open(&dir).unwrap();
    fs::write(store.member_path(&config.id()), &bytes).unwrap();
    let restored = store.load_member(config).unwrap();

    // The fixture was produced by training this exact config on this
    // exact data; the deterministic retrain must agree bit for bit — on
    // the kernel leg that wrote it. The fixture comes from the FMA f32
    // `gemm`; the portable one rounds differently, so on that leg only
    // the load above is checked.
    if std::env::var_os("VEHIGAN_FORCE_PORTABLE").is_some() {
        eprintln!("skipping the bit-exact retrain: VEHIGAN_FORCE_PORTABLE is set");
        let _ = fs::remove_dir_all(&dir);
        return;
    }
    let mut retrained = Wgan::new(config);
    retrained.train(&benign(32, 1));
    assert_eq!(restored.critic_bytes(), retrained.critic_bytes());
    assert_eq!(restored.history(), retrained.history());
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn short_garbage_file_is_bad_magic_not_truncated() {
    // A sub-20-byte file whose available prefix already contradicts the
    // magic is diagnosed as BadMagic (wrong file), not Truncated (torn
    // write) — the two faults have different remediations.
    let dir = scratch_dir("badmagic");
    let store = CheckpointStore::open(&dir).unwrap();
    let config = WganConfig {
        noise_dim: 8,
        layers: 3,
        epochs: 1,
        batch_size: 16,
        n_critic: 1,
        ..WganConfig::default()
    };
    let path = store.member_path(&config.id());

    fs::write(&path, b"hello").unwrap();
    assert!(matches!(
        store.load_member(config),
        Err(CheckpointError::BadMagic)
    ));

    // A short file that IS a valid magic prefix stays a truncation.
    fs::write(&path, b"VZ").unwrap();
    assert!(matches!(
        store.load_member(config),
        Err(CheckpointError::Truncated { .. })
    ));
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn calibrate_filters_non_finite_scores() {
    let config = WganConfig {
        noise_dim: 8,
        layers: 3,
        epochs: 1,
        batch_size: 16,
        n_critic: 1,
        seed: 4,
        ..WganConfig::default()
    };
    let mut wgan = Wgan::new(config);
    wgan.train(&benign(32, 1));
    let clone = Wgan::from_critic_bytes(config, &wgan.critic_bytes()).unwrap();

    // Poison one calibration window with NaN: its score is dropped, the
    // threshold comes from the finite remainder.
    let mut data = benign(8, 2).as_slice().to_vec();
    data[0] = f32::NAN;
    let poisoned = Tensor::from_vec(data, &[8, 10, 12, 1]);
    let member = CriticMember::calibrate(wgan, 0.5, &poisoned).unwrap();
    assert!(member.threshold.is_finite());

    // All-NaN calibration data: typed error, not a NaN threshold.
    let all_nan = Tensor::from_vec(vec![f32::NAN; 2 * 120], &[2, 10, 12, 1]);
    assert!(matches!(
        CriticMember::calibrate(clone, 0.5, &all_nan),
        Err(EnsembleError::NoFiniteCalibrationScores { .. })
    ));
}
