//! Determinism tests: sharded batched serve scoring must be **bitwise
//! identical** to a serial reference — pushing the same BSM stream
//! through one `WindowBuffer` per vehicle (serial, unsharded) and scoring
//! each window alone, with `VehiGan::score_with_members` or, with tier 0
//! armed, through a `TieredDetector` and one `Suppression` per vehicle.
//!
//! Why this can hold exactly: a vehicle maps to one shard (per-vehicle
//! message order preserved), shards are drained in index order, the
//! member subset is pinned, and both scoring backends are batch-row
//! independent (`vehigan_tensor::gemm` / `vehigan_lite::ensemble`
//! determinism contracts) — so sharing a tick with other vehicles'
//! windows cannot perturb a window's score.

use std::collections::{HashMap, HashSet};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};
use vehigan_core::{Pipeline, PipelineConfig};
use vehigan_features::{Suppression, Tier0Calibration, WindowBuffer};
use vehigan_mbr::Mbr;
use vehigan_serve::{Decision, EscalationPolicy, ServerConfig, StreamServer, TieredDetector};
use vehigan_sim::{Bsm, VehicleId};
use vehigan_tensor::init::seeded_rng;
use vehigan_vasp::{inject, Attack, AttackParams, AttackPolicy};

fn pipeline() -> MutexGuard<'static, Pipeline> {
    static SHARED: OnceLock<Mutex<Pipeline>> = OnceLock::new();
    SHARED
        .get_or_init(|| {
            let mut p = Pipeline::run(PipelineConfig::tiny());
            p.compile_int8().expect("int8 backend compiles");
            Mutex::new(p)
        })
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
}

/// Interleaved mixed benign/attack stream over the held-out test fleet:
/// vehicle 0 runs a persistent position attack, the rest stay honest.
fn mixed_stream(p: &Pipeline) -> Vec<Bsm> {
    let fleet = p.test_fleet().to_vec();
    let attack = Attack::by_name("RandomPosition").expect("attack exists");
    let mut rng = seeded_rng(11);
    let attacked = inject(
        &fleet[0],
        attack,
        AttackPolicy::Persistent,
        &AttackParams::default(),
        &mut rng,
    );
    let mut stream: Vec<Bsm> = attacked
        .trace
        .bsms
        .iter()
        .chain(fleet.iter().skip(1).flat_map(|t| &t.bsms))
        .copied()
        .collect();
    // Arrival order: by timestamp, ties broken by pseudonym (stable and
    // deterministic; per-vehicle order is preserved).
    stream.sort_by(|a, b| {
        a.timestamp
            .partial_cmp(&b.timestamp)
            .unwrap()
            .then(a.vehicle_id.cmp(&b.vehicle_id))
    });
    stream
}

/// Key a decision by (pseudonym, completing-BSM timestamp bits).
fn key(vehicle: VehicleId, timestamp: f64) -> (u32, u64) {
    (vehicle.0, timestamp.to_bits())
}

#[test]
fn sharded_batched_tier2_is_bitwise_identical_to_serial_buffers() {
    let p = pipeline();
    let stream = mixed_stream(&p);
    let members: Vec<usize> = (0..p.vehigan.k()).collect();

    // Reference: one buffer per vehicle, every window scored alone.
    let mut buffers: HashMap<VehicleId, WindowBuffer> = HashMap::new();
    let mut reference: HashMap<(u32, u64), (u32, u32)> = HashMap::new();
    for bsm in &stream {
        let vehicle = bsm.vehicle_id;
        let timestamp = bsm.timestamp;
        let buffer = buffers
            .entry(vehicle)
            .or_insert_with(|| WindowBuffer::new(10, p.scaler.clone()));
        if let Some(window) = buffer.push(bsm) {
            let r = p
                .vehigan
                .score_with_members(&members, &window.to_tensor())
                .unwrap();
            let prev = reference.insert(
                key(vehicle, timestamp),
                (r.scores[0].to_bits(), r.threshold.to_bits()),
            );
            assert!(prev.is_none(), "duplicate (vehicle, timestamp) in stream");
        }
    }
    // Pinned at what the oracle has always emitted on this stream, so a
    // rewrite of it cannot silently shrink the comparison.
    assert_eq!(reference.len(), 1165, "reference path lost windows");

    // Serve: 4 shards, parallel ingest in uneven chunks, batched tier-2
    // scoring (EscalationPolicy::Always = pure tier-2, same members).
    let mut server = StreamServer::new(
        &p.vehigan,
        p.scaler.clone(),
        ServerConfig {
            n_shards: 4,
            policy: EscalationPolicy::Always,
            members: Some(members.clone()),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let mut decided = 0usize;
    for chunk in stream.chunks(173) {
        server.ingest_batch(chunk);
        for d in server.tick().unwrap() {
            let (score_bits, tau_bits) = reference
                .get(&key(d.vehicle, d.timestamp))
                .copied()
                .unwrap_or_else(|| panic!("serve emitted unknown window {:?}", d));
            assert_eq!(
                d.score.to_bits(),
                score_bits,
                "vehicle {:?} t={} diverged from the serial reference",
                d.vehicle,
                d.timestamp
            );
            assert_eq!(d.threshold.to_bits(), tau_bits);
            assert!(d.escalated, "Always policy must mark every window tier-2");
            decided += 1;
        }
    }
    assert_eq!(server.pending_windows(), 0, "queue did not drain");
    assert_eq!(
        decided,
        reference.len(),
        "serve emitted a different window count than the serial reference"
    );
    let stats = server.stats();
    assert_eq!(stats.ingested, stream.len() as u64);
    assert_eq!(stats.windows_scored, decided as u64);
    assert_eq!(stats.tier2_escalated, decided as u64);
}

#[test]
fn escalate_everything_threshold_equals_pure_tier2() {
    // Threshold(-inf) must be decision-for-decision identical to Always:
    // the gate runs but every window escalates and tier-2 overwrites it.
    let p = pipeline();
    let stream = mixed_stream(&p);
    let members: Vec<usize> = (0..p.vehigan.k()).collect();
    let run = |policy: EscalationPolicy| {
        let mut server = StreamServer::new(
            &p.vehigan,
            p.scaler.clone(),
            ServerConfig {
                n_shards: 3,
                policy,
                members: Some(members.clone()),
                ..ServerConfig::default()
            },
        )
        .unwrap();
        let mut decisions = Vec::new();
        for chunk in stream.chunks(211) {
            server.ingest_batch(chunk);
            decisions.extend(server.tick().unwrap());
        }
        decisions
    };
    let tier2 = run(EscalationPolicy::Always);
    let gated = run(EscalationPolicy::Threshold(f32::NEG_INFINITY));
    assert_eq!(tier2, gated);
}

#[test]
fn calibrated_gate_escalations_match_tier2_bitwise() {
    let p = pipeline();
    let stream = mixed_stream(&p);
    let members: Vec<usize> = (0..p.vehigan.k()).collect();

    // Calibrate the escalation cutoff from the gate's view of this
    // stream's own score distribution (the bench calibrates on held-out
    // benign windows; any cutoff exercises the machinery here).
    let mut probe = StreamServer::new(
        &p.vehigan,
        p.scaler.clone(),
        ServerConfig {
            n_shards: 2,
            policy: EscalationPolicy::Threshold(f32::INFINITY),
            members: Some(members.clone()),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    probe.ingest_batch(&stream);
    let gate_scores: Vec<f32> = probe.tick().unwrap().iter().map(|d| d.score).collect();
    let tau_esc = vehigan_serve::escalation_threshold(&gate_scores, 75.0);

    let mut tier2_by_key = HashMap::new();
    let mut reference = StreamServer::new(
        &p.vehigan,
        p.scaler.clone(),
        ServerConfig {
            n_shards: 2,
            policy: EscalationPolicy::Always,
            members: Some(members.clone()),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    reference.ingest_batch(&stream);
    for d in reference.tick().unwrap() {
        tier2_by_key.insert(key(d.vehicle, d.timestamp), d.score.to_bits());
    }

    let mut server = StreamServer::new(
        &p.vehigan,
        p.scaler.clone(),
        ServerConfig {
            n_shards: 2,
            policy: EscalationPolicy::Threshold(tau_esc),
            members: Some(members),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    server.ingest_batch(&stream);
    let decisions = server.tick().unwrap();
    let escalated = decisions.iter().filter(|d| d.escalated).count();
    assert!(escalated > 0, "75th-percentile cutoff escalated nothing");
    assert!(
        escalated < decisions.len(),
        "75th-percentile cutoff escalated everything"
    );
    for d in &decisions {
        if d.escalated {
            // Tier-2 re-scores must be bitwise identical to the pure
            // tier-2 run even though the escalated sub-batch has a
            // different composition.
            assert_eq!(
                d.score.to_bits(),
                tier2_by_key[&key(d.vehicle, d.timestamp)],
                "escalated window diverged from pure tier-2"
            );
        } else {
            // The gate only passes windows it scored at or below the
            // cutoff, and never flags them.
            assert!(d.score <= tau_esc);
            assert!(!d.flagged);
        }
    }
    let stats = server.stats();
    assert_eq!(stats.tier2_escalated, escalated as u64);
}

/// Every field of a decision, floats as bits.
fn decision_bits(d: &Decision) -> (u32, u64, u32, u32, bool, bool, bool) {
    (
        d.vehicle.0,
        d.timestamp.to_bits(),
        d.score.to_bits(),
        d.threshold.to_bits(),
        d.escalated,
        d.flagged,
        d.suppressed,
    )
}

/// Every field of each report, floats as bits, in window order.
fn report_bits(reports: &[Mbr]) -> Vec<(u32, u32, u64, u32, u32, Vec<u32>)> {
    let mut bits: Vec<_> = reports
        .iter()
        .map(|r| {
            (
                r.suspect.0,
                r.reporter.0,
                r.timestamp.to_bits(),
                r.score.to_bits(),
                r.threshold.to_bits(),
                r.evidence.iter().map(|x| x.to_bits()).collect(),
            )
        })
        .collect();
    bits.sort_by_key(|b| (b.2, b.0));
    bits
}

/// One vehicle of the tier-0 serial reference: its window buffer, its
/// suppression rule, and the previous message both step against.
struct Tracked {
    buffer: WindowBuffer,
    suppression: Suppression,
    prev: Bsm,
}

#[test]
fn a_tier0_gated_server_decides_and_reports_like_one_window_at_a_time() {
    let p = pipeline();
    let stream = mixed_stream(&p);
    let members: Vec<usize> = (0..p.vehigan.k()).collect();

    // A gate that sends the top quarter of this stream's gate scores on
    // to tier 2, tier 0 over the training fleet carrying scores below the
    // detection threshold τ, and a reporter.
    let mut probe = StreamServer::new(
        &p.vehigan,
        p.scaler.clone(),
        ServerConfig {
            n_shards: 2,
            policy: EscalationPolicy::Threshold(f32::INFINITY),
            members: Some(members.clone()),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    probe.ingest_batch(&stream);
    let gate_scores: Vec<f32> = probe.tick().unwrap().iter().map(|d| d.score).collect();
    let tau_esc = vehigan_serve::escalation_threshold(&gate_scores, 75.0);
    let mut cal = Tier0Calibration::fit(p.train_fleet(), 10, 0.995).expect("tier-0 fits");
    let tau = members
        .iter()
        .map(|&i| p.vehigan.members()[i].threshold)
        .sum::<f32>()
        / members.len() as f32;
    cal.set_score_band(0.05, 0.1, tau);
    let config = ServerConfig {
        n_shards: 3,
        policy: EscalationPolicy::Threshold(tau_esc),
        members: Some(members),
        tier0: Some(cal),
        reporter: Some(VehicleId(u32::MAX)),
        ..ServerConfig::default()
    };

    // Reference: every window decided alone, as it completes, and its
    // gate score recorded before the vehicle's next window.
    let mut detector = TieredDetector::new(&p.vehigan, &config, p.scaler.width()).unwrap();
    let mut vehicles: HashMap<VehicleId, Tracked> = HashMap::new();
    let mut reference = HashMap::new();
    let mut reference_reports = Vec::new();
    for bsm in &stream {
        let Some(v) = vehicles.get_mut(&bsm.vehicle_id) else {
            let mut buffer = WindowBuffer::new(10, p.scaler.clone());
            assert!(buffer.push(bsm).is_none());
            let suppression = Suppression::new(&cal);
            let tracked = Tracked {
                buffer,
                suppression,
                prev: *bsm,
            };
            vehicles.insert(bsm.vehicle_id, tracked);
            continue;
        };
        v.suppression.push(&cal, &v.prev, bsm);
        v.prev = *bsm;
        let Some(window) = v.buffer.push(bsm) else {
            continue;
        };
        let carried = v.suppression.complete(&cal);
        let mut d = [detector.admit(bsm.vehicle_id, bsm.timestamp, carried)];
        if carried.is_none() {
            let tile = [[window.older, window.newer]];
            let mut escalated = false;
            detector
                .decide(&tile[..], &mut d, |_| escalated = true)
                .unwrap();
            v.suppression.record(d[0].score);
            if escalated {
                detector.escalate(&tile[..], &mut d).unwrap();
            }
        }
        reference.insert(key(bsm.vehicle_id, bsm.timestamp), d[0]);
        reference_reports.extend(detector.take_reports());
    }
    assert_eq!(reference.len(), 1165, "reference path lost windows");
    let count = |f: fn(&Decision) -> bool| reference.values().filter(|d| f(d)).count();
    assert!(count(|d| d.suppressed) > 0, "tier 0 suppressed nothing");
    assert!(count(|d| d.escalated) > 0, "nothing escalated");
    assert!(
        count(|d| !d.suppressed && !d.escalated) > 0,
        "the gate decided nothing"
    );
    assert!(!reference_reports.is_empty(), "nothing reported");

    // Serve: slices that end before a vehicle's second BSM, one tick per
    // slice, so every gate score is recorded before the vehicle's next
    // window completes, as in the reference.
    let mut slices = vec![0];
    let mut in_slice = HashSet::new();
    for (i, bsm) in stream.iter().enumerate() {
        if !in_slice.insert(bsm.vehicle_id) {
            slices.push(i);
            in_slice = HashSet::from([bsm.vehicle_id]);
        }
    }
    slices.push(stream.len());
    let mut server = StreamServer::new(&p.vehigan, p.scaler.clone(), config).unwrap();
    let mut decided = 0usize;
    let mut served_reports = Vec::new();
    for slice in slices.windows(2).map(|r| &stream[r[0]..r[1]]) {
        server.ingest_batch(slice);
        for d in server.tick().unwrap() {
            let want = reference
                .get(&key(d.vehicle, d.timestamp))
                .unwrap_or_else(|| panic!("serve emitted unknown window {d:?}"));
            assert_eq!(decision_bits(&d), decision_bits(want));
            decided += 1;
        }
        served_reports.extend(server.take_reports());
    }
    assert_eq!(server.pending_windows(), 0, "queue did not drain");
    assert_eq!(decided, reference.len());
    assert_eq!(
        report_bits(&served_reports),
        report_bits(&reference_reports)
    );
    assert_eq!(
        server.stats().tier0_suppressed,
        count(|d| d.suppressed) as u64
    );
}
