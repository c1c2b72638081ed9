//! Tier-0 gate acceptance tests (ISSUE 9): with a [`Tier0Calibration`]
//! armed, serve output may diverge from the ungated server **only** on
//! windows the gate suppressed — every screened window must stay bitwise
//! identical to the gateless path — suppression streaks are bounded by
//! the calibration's carry-forward refresh, monitor state is rebuilt
//! from scratch across eviction.
//!
//! Why confinement can hold exactly: the suppression verdict is fixed at
//! window completion (ingest time), suppressed windows are spliced out
//! before scoring, and both scoring backends are batch-row independent —
//! so removing rows from a tick's batch cannot change any surviving
//! window's score.
//!
//! Suppression itself is a *serving-schedule* property, not a pure
//! function of the stream: a suppressed window re-emits the vehicle's
//! last tier-1 gate score, and that score is only recorded when a tick
//! actually scores — so re-chunking ingest (which moves window
//! completions relative to scoring ticks) may legitimately change which
//! windows carry forward. What re-chunking must never change is any
//! *screened* window's decision.

use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};
use vehigan_core::{Pipeline, PipelineConfig};
use vehigan_features::{EvictionConfig, Tier0Calibration};
use vehigan_serve::{Decision, EscalationPolicy, ServerConfig, StreamServer};
use vehigan_sim::Bsm;
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

/// A tier-0 calibration fit on the pipeline's benign training fleet,
/// with an arbitrary-but-valid pinned score band.
fn calibration(p: &Pipeline) -> Tier0Calibration {
    let mut cal =
        Tier0Calibration::fit(p.train_fleet(), 10, 0.995).expect("tier-0 calibration fits");
    cal.set_score_band(0.05, 0.1, 0.9);
    cal
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
    stream.sort_by(|a, b| {
        a.timestamp
            .partial_cmp(&b.timestamp)
            .unwrap()
            .then(a.vehicle_id.cmp(&b.vehicle_id))
    });
    stream
}

/// An escalation cutoff from a gate-only probe over the stream — any
/// interior percentile exercises the three-tier machinery.
fn probe_tau_esc(p: &Pipeline, stream: &[Bsm], members: &[usize]) -> f32 {
    let mut probe = StreamServer::new(
        &p.vehigan,
        p.scaler.clone(),
        ServerConfig {
            n_shards: 2,
            policy: EscalationPolicy::Threshold(f32::INFINITY),
            members: Some(members.to_vec()),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    probe.ingest_batch(stream);
    let mut scores: Vec<f32> = Vec::new();
    loop {
        let d = probe.tick().unwrap();
        if d.is_empty() && probe.pending_windows() == 0 {
            break;
        }
        scores.extend(d.iter().map(|x| x.score));
    }
    vehigan_serve::escalation_threshold(&scores, 75.0)
}

fn key(vehicle: vehigan_sim::VehicleId, timestamp: f64) -> (u32, u64) {
    (vehicle.0, timestamp.to_bits())
}

/// Drives one gated/ungated server over the stream in `chunk`-sized
/// ingest batches and returns every decision keyed by window identity.
fn run_keyed(
    p: &Pipeline,
    stream: &[Bsm],
    config: ServerConfig,
    chunk: usize,
) -> HashMap<(u32, u64), Decision> {
    let mut server = StreamServer::new(&p.vehigan, p.scaler.clone(), config).unwrap();
    let mut out = HashMap::new();
    for c in stream.chunks(chunk) {
        server.ingest_batch(c);
        for d in server.tick().unwrap() {
            let prev = out.insert(key(d.vehicle, d.timestamp), d);
            assert!(prev.is_none(), "duplicate window decision");
        }
    }
    loop {
        let d = server.tick().unwrap();
        if d.is_empty() && server.pending_windows() == 0 {
            break;
        }
        for d in d {
            out.insert(key(d.vehicle, d.timestamp), d);
        }
    }
    let stats = server.stats();
    assert_eq!(
        stats.tier0_suppressed + stats.tier1_screened + stats.tier2_escalated,
        stats.windows_scored,
        "tier counters must partition windows_scored"
    );
    out
}

#[test]
fn divergence_confined_to_suppressed_windows() {
    let p = pipeline();
    let stream = mixed_stream(&p);
    let members: Vec<usize> = (0..p.vehigan.k()).collect();
    let tau_esc = probe_tau_esc(&p, &stream, &members);
    let cal = calibration(&p);
    let base = ServerConfig {
        n_shards: 4,
        policy: EscalationPolicy::Threshold(tau_esc),
        members: Some(members.clone()),
        ..ServerConfig::default()
    };
    let ungated = run_keyed(&p, &stream, base.clone(), 173);
    let gated = run_keyed(
        &p,
        &stream,
        ServerConfig {
            tier0: Some(cal),
            ..base
        },
        173,
    );
    assert_eq!(gated.len(), ungated.len(), "window sets differ");

    let mut suppressed = 0usize;
    let mut screened = 0usize;
    for (k, d) in &gated {
        let u = ungated[k];
        if d.suppressed {
            suppressed += 1;
            // A suppressed window re-emits the vehicle's last real
            // tier-1 gate score; carry-forward eligibility requires that
            // score to sit strictly below the calibration's τ, so a
            // suppressed window can never escalate or flag.
            assert!(!d.escalated && !d.flagged);
            assert!(
                d.score < cal.tau,
                "carried score {} not below tau {}",
                d.score,
                cal.tau
            );
            assert_eq!(d.threshold, cal.tau);
        } else {
            screened += 1;
            // Screened windows are bitwise identical to the ungated
            // server: same score, threshold, tier, and flag.
            assert_eq!(
                d.score.to_bits(),
                u.score.to_bits(),
                "screened window diverged"
            );
            assert_eq!(d.threshold.to_bits(), u.threshold.to_bits());
            assert_eq!(d.escalated, u.escalated);
            assert_eq!(d.flagged, u.flagged);
            assert!(!u.suppressed);
        }
    }
    assert!(suppressed > 0, "gate suppressed nothing — test is vacuous");
    assert!(screened > 0, "gate screened nothing — test is vacuous");

    // Carry-forward staleness bound: no vehicle strings together more
    // than `refresh` suppressed windows before tier-1 re-runs for real.
    let mut by_vehicle: HashMap<u32, Vec<(u64, bool)>> = HashMap::new();
    for (k, d) in &gated {
        by_vehicle.entry(k.0).or_default().push((k.1, d.suppressed));
    }
    for (vehicle, mut wins) in by_vehicle {
        // Positive-float bit patterns order like the floats themselves.
        wins.sort_by_key(|&(ts_bits, _)| ts_bits);
        let mut streak = 0u32;
        for (_, s) in wins {
            streak = if s { streak + 1 } else { 0 };
            assert!(
                streak <= cal.refresh,
                "vehicle {vehicle} suppressed {streak} windows in a row (refresh {})",
                cal.refresh
            );
        }
    }
}

#[test]
fn eviction_rebuilds_monitor_state_from_scratch() {
    // Evict a vehicle mid-stream, then continue its trace: the decisions
    // after re-insertion must be bitwise identical to a fresh server
    // that only ever saw the suffix — no monitor (or window) state may
    // leak across the eviction.
    let p = pipeline();
    let cal = calibration(&p);
    let members: Vec<usize> = (0..p.vehigan.k()).collect();
    let trace = &p.test_fleet()[1];
    let split = trace.bsms.len() / 2;
    let (head, tail) = trace.bsms.split_at(split);
    let config = ServerConfig {
        n_shards: 1,
        policy: EscalationPolicy::Threshold(f32::INFINITY),
        members: Some(members.clone()),
        eviction: EvictionConfig {
            max_vehicles: None,
            ttl_s: Some(0.5),
        },
        tier0: Some(cal),
        ..ServerConfig::default()
    };

    let mut server = StreamServer::new(&p.vehigan, p.scaler.clone(), config.clone()).unwrap();
    server.ingest_batch(head);
    while !server.tick().unwrap().is_empty() {}
    let evicted = server.evict_stale(head.last().unwrap().timestamp + 10.0);
    assert_eq!(evicted, 1, "TTL eviction must drop the idle vehicle");
    server.ingest_batch(tail);
    let mut resumed: Vec<Decision> = Vec::new();
    loop {
        let d = server.tick().unwrap();
        if d.is_empty() && server.pending_windows() == 0 {
            break;
        }
        resumed.extend(d);
    }

    let mut fresh_server = StreamServer::new(&p.vehigan, p.scaler.clone(), config).unwrap();
    fresh_server.ingest_batch(tail);
    let mut fresh: Vec<Decision> = Vec::new();
    loop {
        let d = fresh_server.tick().unwrap();
        if d.is_empty() && fresh_server.pending_windows() == 0 {
            break;
        }
        fresh.extend(d);
    }
    assert!(!resumed.is_empty(), "suffix produced no windows");
    assert_eq!(resumed, fresh, "state leaked across eviction");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Re-chunking ingest moves window completions relative to scoring
    /// ticks, which legitimately changes *which* windows the
    /// carry-forward gate suppresses — but divergence stays confined to
    /// gate-suppressed windows: every window screened in both runs is
    /// bitwise identical, any disagreement involves a suppression on at
    /// least one side, and no suppressed window ever escalates or flags.
    #[test]
    fn rechunked_ingest_diverges_only_on_suppressed_windows(chunk in 41usize..600) {
        let p = pipeline();
        let stream = mixed_stream(&p);
        let members: Vec<usize> = (0..p.vehigan.k()).collect();
        let tau_esc = probe_tau_esc(&p, &stream, &members);
        let cal = calibration(&p);
        let config = ServerConfig {
            n_shards: 3,
            policy: EscalationPolicy::Threshold(tau_esc),
            members: Some(members.clone()),
            tier0: Some(cal),
            ..ServerConfig::default()
        };
        let reference = run_keyed(&p, &stream, config.clone(), 173);
        let rechunked = run_keyed(&p, &stream, config, chunk);
        prop_assert_eq!(reference.len(), rechunked.len());
        for (k, d) in &reference {
            let r = &rechunked[k];
            if !d.suppressed && !r.suppressed {
                prop_assert_eq!(d.score.to_bits(), r.score.to_bits());
                prop_assert_eq!(d.escalated, r.escalated);
                prop_assert_eq!(d.flagged, r.flagged);
            }
            for s in [d, r].into_iter().filter(|x| x.suppressed) {
                prop_assert!(!s.escalated && !s.flagged);
                prop_assert!(s.score < cal.tau);
            }
        }
    }
}
