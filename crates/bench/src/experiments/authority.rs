//! The live BSM → detection → report → revocation loop, end to end
//! (DESIGN.md §13).
//!
//! Run via `vehigan-bench authority --scale quick [--vehicles N]
//! [--duration S]`: trains the quick system, drives the streaming server
//! over mixed city traffic with rotating RSU reporter identities, feeds
//! the emitted MBRs to the authority and writes
//! `results/BENCH_authority.json`.
//!
//! The run **gates** itself and panics on failure (so the CI smoke step
//! catches regressions): the server emits reports, every one of them
//! validates at the authority (zero rejections), rotating RSU coverage
//! corroborates at least one conviction, and replaying the same reports
//! one by one via `ingest_ref` reproduces the per-tick `ingest_batch`
//! authority state bit for bit (CRL, evidence fingerprint, counters).
//!
//! What the authority does under a fleet's worth of reports — zero honest
//! revocations, no lapse under continuous misbehavior, mirror
//! convergence, bounded memory, throughput — is the perf ledger's
//! `authority_flood` workload (`benchmark/src/flood.rs`), not this file's.

use crate::harness::{write_json, Harness, Json};
use std::collections::HashSet;
use std::ops::Range;
use vehigan_features::IngestGuard;
use vehigan_mbr::{AuthorityPolicy, Mbr, MisbehaviorAuthority};
use vehigan_serve::{EscalationPolicy, ServerConfig, StreamServer};
use vehigan_sim::{Bsm, SimConfig, TrafficSimulator, VehicleId, VehicleTrace, BSM_INTERVAL_S};
use vehigan_tensor::init::seeded_rng;
use vehigan_vasp::{inject, Attack, AttackParams, AttackPolicy};

/// Fraction of vehicles transmitting falsified BSMs: a detection-focused
/// mix, so the short CI smoke still produces enough flagged escalations
/// to corroborate a conviction.
const ATTACKER_FRACTION: f64 = 0.1;

/// Rotating RSU reporter identities covering the stream (the serving
/// cell hands the vehicle off every tick, so corroboration needs reports
/// from distinct observers — exactly the authority's job).
const N_RSUS: u32 = 4;
const RSU_BASE: u32 = 1 << 30;

/// Simulates the city fleet.
fn city_fleet(vehicles: usize, duration_s: f64, seed: u64) -> Vec<VehicleTrace> {
    TrafficSimulator::new(SimConfig {
        n_vehicles: vehicles,
        duration_s,
        seed,
        ..SimConfig::default()
    })
    .run()
}

/// Mixed benign/attack stream: every `1/attacker_fraction`-th vehicle
/// runs a VASP attack (cycling over position/speed/heading families,
/// falsified values inside RSU guard field limits), all BSMs interleaved
/// in arrival order. Returns the stream and the attacker count.
fn mixed_stream(fleet: &[VehicleTrace], seed: u64, attacker_fraction: f64) -> (Vec<Bsm>, usize) {
    let attacks: Vec<Attack> = ["RandomPosition", "RandomSpeed", "HighHeadingYawRate"]
        .iter()
        .map(|n| Attack::by_name(n).expect("catalog attack"))
        .collect();
    let mut rng = seeded_rng(seed);
    let every = (1.0 / attacker_fraction) as usize;
    let mut stream = Vec::new();
    let mut attackers = 0usize;
    for (i, trace) in fleet.iter().enumerate() {
        if i % every == 0 {
            let attacked = inject(
                trace,
                attacks[attackers % attacks.len()],
                AttackPolicy::Persistent,
                &AttackParams::default(),
                &mut rng,
            );
            stream.extend_from_slice(&attacked.trace.bsms);
            attackers += 1;
        } else {
            stream.extend_from_slice(&trace.bsms);
        }
    }
    stream.sort_by(|a, b| {
        a.timestamp
            .partial_cmp(&b.timestamp)
            .unwrap()
            .then(a.vehicle_id.cmp(&b.vehicle_id))
    });
    (stream, attackers)
}

/// Groups a timestamp-sorted stream into per-tick index ranges of
/// [`BSM_INTERVAL_S`] width (empty slices included, so the drive loop
/// ticks at real cadence).
fn slice_ranges(stream: &[Bsm]) -> Vec<Range<usize>> {
    let mut ranges = Vec::new();
    let mut start = 0usize;
    let mut slice_end = BSM_INTERVAL_S;
    let mut i = 0usize;
    while i < stream.len() {
        while i < stream.len() && stream[i].timestamp < slice_end {
            i += 1;
        }
        ranges.push(start..i);
        start = i;
        slice_end += BSM_INTERVAL_S;
    }
    ranges
}

/// Runs the authority benchmark on a trained harness and writes
/// `results/BENCH_authority.json`.
pub fn run(harness: &mut Harness, vehicles: usize, duration_s: f64) {
    // The fleet must be live and past window warmup long enough for
    // persistent attackers to flag across several reporter rotations.
    let duration_s = duration_s.max(6.0);
    println!("Authority benchmark: {vehicles} vehicles x {duration_s:.1} s live loop");
    harness
        .pipeline
        .compile_int8()
        .expect("int8 backend compiles");
    let k = harness.pipeline.vehigan.k();
    let members: Vec<usize> = (0..k).collect();

    // StreamServer escalations are the report source.
    let fleet = city_fleet(vehicles, duration_s, 11);
    let (stream, attackers) = mixed_stream(&fleet, 29, ATTACKER_FRACTION);
    let ranges = slice_ranges(&stream);
    assert!(!ranges.is_empty(), "empty stream; raise --duration");
    let every = (1.0 / ATTACKER_FRACTION) as usize;
    let attacker_ids: HashSet<VehicleId> = fleet
        .iter()
        .enumerate()
        .filter(|(i, _)| i % every == 0)
        .map(|(_, tr)| tr.id)
        .collect();
    println!(
        "traffic: {} BSMs from {vehicles} vehicles ({attackers} attackers), {} tick slices",
        stream.len(),
        ranges.len()
    );

    let mut server = StreamServer::new(
        &harness.pipeline.vehigan,
        harness.pipeline.scaler.clone(),
        ServerConfig {
            n_shards: 4,
            policy: EscalationPolicy::Always,
            members: Some(members),
            guard: IngestGuard::rsu(),
            reporter: Some(VehicleId(RSU_BASE)),
            ..ServerConfig::default()
        },
    )
    .expect("server builds");
    let live_policy = AuthorityPolicy {
        min_reporters: 2,
        min_reports: 3,
        window_s: 60.0,
        evidence_len: 10 * harness.pipeline.scaler.width(),
        revocation_validity_s: None,
    };
    let mut live = MisbehaviorAuthority::new(live_policy);
    let mut all_reports: Vec<Mbr> = Vec::new();
    let mut cursor = 0usize;
    let mut tick = 0u64;
    let mut drain_ticks = 0u32;
    loop {
        let (start, end) = match ranges.get(cursor) {
            Some(r) => {
                cursor += 1;
                (r.start, r.end)
            }
            None => {
                if server.pending_windows() == 0 || drain_ticks >= 4096 {
                    break;
                }
                drain_ticks += 1;
                (stream.len(), stream.len())
            }
        };
        // The covering RSU hands off every tick: corroboration must come
        // from genuinely distinct observer identities.
        server.set_reporter(Some(VehicleId(RSU_BASE + (tick % N_RSUS as u64) as u32)));
        server.ingest_batch(&stream[start..end]);
        let _ = server.tick().expect("tick scores");
        let reports = server.take_reports();
        if !reports.is_empty() {
            live.ingest_batch(&reports);
            all_reports.extend(reports);
        }
        tick += 1;
    }
    assert_eq!(server.pending_windows(), 0, "service failed to drain");

    // Serial replay of the same report sequence must land on the same
    // authority bit for bit.
    let mut replay = MisbehaviorAuthority::new(live_policy);
    for r in &all_reports {
        let _ = replay.ingest_ref(r);
    }
    let p1_stats = live.stats();
    let p1_serial_identical = live.crl() == replay.crl()
        && live.evidence_fingerprint() == replay.evidence_fingerprint()
        && p1_stats == replay.stats();
    let p1_attacker_convictions = live
        .crl()
        .iter()
        .filter(|(v, _)| attacker_ids.contains(v))
        .count();
    let p1_honest_convictions = live.crl().len() - p1_attacker_convictions;
    println!(
        "phase1: {} reports emitted, {} accepted / {} rejected, {} convictions \
         ({p1_attacker_convictions} attackers, {p1_honest_convictions} honest), serial replay identical: {p1_serial_identical}",
        all_reports.len(),
        p1_stats.accepted,
        p1_stats.rejected,
        p1_stats.convictions
    );

    write_json(
        "BENCH_authority.json",
        &Json::Obj(vec![
            ("bench", Json::str("authority")),
            (
                "phase1",
                Json::Obj(vec![
                    ("vehicles", Json::lit(vehicles)),
                    ("duration_s", Json::lit(duration_s)),
                    ("bsms", Json::lit(stream.len())),
                    ("attackers", Json::lit(attackers)),
                    ("rsus", Json::lit(N_RSUS)),
                    ("reports", Json::lit(all_reports.len())),
                    ("accepted", Json::lit(p1_stats.accepted)),
                    ("rejected", Json::lit(p1_stats.rejected)),
                    ("convictions", Json::lit(p1_stats.convictions)),
                    ("attacker_convictions", Json::lit(p1_attacker_convictions)),
                    ("honest_convictions", Json::lit(p1_honest_convictions)),
                    ("serial_identical", Json::lit(p1_serial_identical)),
                ]),
            ),
            (
                "gates",
                Json::Obj(vec![
                    (
                        "phase1_reports_positive",
                        Json::lit(!all_reports.is_empty()),
                    ),
                    ("phase1_rejected_zero", Json::lit(p1_stats.rejected == 0)),
                    ("phase1_convicted", Json::lit(p1_stats.convictions > 0)),
                    ("phase1_serial_identical", Json::lit(p1_serial_identical)),
                ]),
            ),
        ]),
    );

    // --- Gates. ---
    assert!(
        !all_reports.is_empty(),
        "server emitted no misbehavior reports"
    );
    assert_eq!(
        p1_stats.rejected, 0,
        "server-emitted reports failed authority validation"
    );
    assert!(
        p1_stats.convictions > 0,
        "rotating RSU coverage failed to corroborate any conviction"
    );
    assert!(
        p1_serial_identical,
        "per-tick batches diverged from serial replay"
    );
    println!("gates: reports ok, validation ok, conviction ok, serial==batch ok");
}
