//! Acceptance-criteria chaos tests (ISSUE 8): under a seeded fault plan
//! injecting member NaN-poisoning, a shard-ingest panic, malformed and
//! replayed BSM bursts, and a 4× overload burst, the server must
//!
//! 1. stay up — every tick returns decisions or a typed error, never a
//!    crash;
//! 2. degrade by policy — sustained pressure steps `Threshold` down to
//!    gate-only scoring with hysteresis, shedding is bounded, counted,
//!    and oldest-first;
//! 3. recover — once faults clear, scoring returns **bitwise identical**
//!    to a healthy run of the same server configuration within at most
//!    5 clean ticks.
//!
//! The recovery bound works because injected faults only ever *add*
//! messages or transient flags: rejections touch no window state and the
//! captured panic loses no messages, so both runs see the exact same
//! per-vehicle window sequence, and pinned-order member reinstatement
//! restores the exact healthy ensemble reduction.

use std::collections::HashMap;
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};
use vehigan_core::{Pipeline, PipelineConfig};
use vehigan_features::{IngestGuard, RejectCounters};
use vehigan_serve::{
    escalation_threshold, AdmissionConfig, ChaosRunner, EscalationPolicy, FaultPlan, ServeMode,
    ServerConfig, StreamServer, TickRecord,
};
use vehigan_sim::Bsm;

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

/// Interleaved benign stream over the held-out test fleet, sorted by
/// arrival (timestamp, then pseudonym). Benign-only so that with an RSU
/// guard every real message is accepted and rejection counters isolate
/// the injected faults exactly.
fn benign_stream(p: &Pipeline) -> Vec<Bsm> {
    let mut stream: Vec<Bsm> = p
        .test_fleet()
        .iter()
        .flat_map(|t| &t.bsms)
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

/// The server-under-test configuration: deployment-grade guard, a tight
/// window budget (steady state is ~3 windows/tick for the 3-vehicle
/// test fleet, so budget 4 absorbs 1× load with headroom and drains one
/// backlogged window per tick), a pending cap with headroom *above* the
/// budget (so a 4× burst builds an over-budget backlog that trips the
/// mode machine before shedding caps it). The server's fixed hysteresis
/// (degrade after 2, restore after 3) and 3-tick probation fit recovery
/// inside the 5-clean-tick bound.
fn chaos_config(tau_esc: f32, members: &[usize]) -> ServerConfig {
    ServerConfig {
        n_shards: 2,
        policy: EscalationPolicy::Threshold(tau_esc),
        members: Some(members.to_vec()),
        guard: IngestGuard::rsu(),
        admission: AdmissionConfig {
            windows_per_tick: Some(4),
            max_pending_per_shard: Some(8),
        },
        ..ServerConfig::default()
    }
}

fn key(d: &vehigan_serve::Decision) -> (u32, u64) {
    (d.vehicle.0, d.timestamp.to_bits())
}

#[test]
fn faulted_server_survives_degrades_by_policy_and_recovers_bitwise() {
    let p = pipeline();
    let stream = benign_stream(&p);
    let members: Vec<usize> = (0..p.vehigan.k()).collect();

    // Sanity: the benign stream passes the deployment guard everywhere,
    // so any rejection in the chaos run is an injected message.
    let guard = IngestGuard::rsu();
    let mut last_seen: HashMap<u32, f64> = HashMap::new();
    for bsm in &stream {
        assert_eq!(
            guard.validate(bsm, last_seen.get(&bsm.vehicle_id.0).copied()),
            Ok(()),
            "benign traffic rejected by the rsu guard: {bsm:?}"
        );
        last_seen.insert(bsm.vehicle_id.0, bsm.timestamp);
    }

    // Calibrate the escalation cutoff from a gate-only probe.
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
    let tau_esc = escalation_threshold(&gate_scores, 90.0);

    // Healthy reference: the same server configuration driven by the
    // same runner with an empty fault plan.
    let mut healthy_server = StreamServer::new(
        &p.vehigan,
        p.scaler.clone(),
        chaos_config(tau_esc, &members),
    )
    .unwrap();
    let healthy = ChaosRunner::new(FaultPlan::new(99)).run(&mut healthy_server, &stream);
    assert!(healthy.errored_ticks().is_empty());
    assert_eq!(healthy.stats.shed, 0, "healthy 1x load must never shed");
    assert_eq!(healthy.stats.rejected.total(), 0);
    assert_eq!(healthy.stats.degraded_ticks, 0);
    assert_eq!(healthy.stats.shard_panics, 0);
    let mut healthy_map: HashMap<(u32, u64), (u32, u32, bool, bool)> = HashMap::new();
    for d in healthy.decisions() {
        let prev = healthy_map.insert(
            key(&d),
            (
                d.score.to_bits(),
                d.threshold.to_bits(),
                d.escalated,
                d.flagged,
            ),
        );
        assert!(prev.is_none(), "healthy run scored a window twice");
    }
    assert!(
        healthy_map.len() > 100,
        "healthy run emitted too few windows"
    );

    // The fault plan: every chaos class, all after every test-fleet
    // vehicle is live (the simulator staggers vehicle entry; the third
    // vehicle's windows start flowing ~tick 52 of ~450 — before that a
    // 4× burst of one vehicle's traffic wouldn't even exceed the
    // 4-window budget), all before tick 80.
    let plan = FaultPlan::new(7)
        .with_member_poison(members[0], 60, 63)
        .with_shard_panic(66, 0)
        .with_malformed_burst(70, 6)
        .with_replay_burst(72, 5, 2.0)
        .with_overload(76, 77, 4);
    let last_fault = plan.last_fault_tick();
    let mut faulted_server = StreamServer::new(
        &p.vehigan,
        p.scaler.clone(),
        chaos_config(tau_esc, &members),
    )
    .unwrap();
    let report = ChaosRunner::new(plan).run(&mut faulted_server, &stream);

    // 1. Liveness: the runner returned and no tick errored — every
    //    fault was absorbed as a typed, counted event.
    assert!(
        report.errored_ticks().is_empty(),
        "ticks errored: {:?}",
        report.errored_ticks()
    );

    // 2. The injected panic was captured exactly once, on the scheduled
    //    shard at the scheduled tick, and lost nothing (conservation
    //    below proves zero loss).
    assert_eq!(report.stats.shard_panics, 1);
    assert_eq!(report.ticks[66].panicked_shards, vec![0]);

    // 3. Input hardening: every injected message was rejected with its
    //    exact reason class; nothing real was rejected.
    assert_eq!(
        report.stats.rejected.stale, 5,
        "replays must reject as stale"
    );
    assert_eq!(
        report.stats.rejected.non_finite + report.stats.rejected.out_of_range,
        6,
        "malformed burst must reject as non-finite/out-of-range"
    );
    assert_eq!(report.ticks[70].rejected.total(), 6);
    assert_eq!(report.ticks[72].rejected.stale, 5);

    // 4. Degraded-mode tiering under the 4x burst: the server stepped
    //    down, shed deterministically, and stepped back up.
    assert!(report.stats.degraded_ticks >= 1, "burst never degraded");
    assert!(
        report.stats.mode_switches >= 2,
        "must both degrade and restore"
    );
    assert!(report.stats.shed > 0, "4x burst must shed");
    assert_eq!(report.ticks.last().unwrap().mode_after, ServeMode::Normal);

    // 5. Member health: the poisoned member was benched and later
    //    reinstated into its pinned position.
    assert!(report.stats.member_demotions >= 1, "poison never benched");
    assert!(
        report.stats.member_reinstatements >= 1,
        "bench never expired"
    );
    assert!(report.ticks.last().unwrap().benched_after.is_empty());

    // 6. Conservation: every window the healthy run scored was either
    //    scored (exactly once) or counted shed in the faulted run —
    //    injected faults lost nothing silently.
    let fault_decisions = report.decisions();
    assert_eq!(
        healthy_map.len(),
        fault_decisions.len() + report.stats.shed as usize,
        "windows lost without being counted shed"
    );
    {
        let mut seen: HashMap<(u32, u64), u32> = HashMap::new();
        for d in &fault_decisions {
            *seen.entry(key(d)).or_insert(0) += 1;
        }
        assert!(seen.values().all(|&c| c == 1), "a window was scored twice");
        assert!(
            seen.keys().all(|k| healthy_map.contains_key(k)),
            "faulted run emitted a window the healthy run never saw"
        );
    }

    // 7. Bitwise recovery within <= 5 clean ticks: find the 5th
    //    consecutive clean tick after the last scheduled fault; from it
    //    onward every decision must match the healthy run exactly.
    let clean = |r: &TickRecord| {
        r.tick > last_fault
            && !r.faulted
            && r.mode_after == ServeMode::Normal
            && r.benched_after.is_empty()
            && r.shed == 0
            && r.panicked_shards.is_empty()
            && r.rejected == RejectCounters::default()
    };
    let mut streak = 0u32;
    let mut recovery_tick = None;
    for r in &report.ticks {
        if clean(r) {
            streak += 1;
            if streak == 5 {
                recovery_tick = Some(r.tick);
                break;
            }
        } else {
            streak = 0;
        }
    }
    let recovery_tick = recovery_tick.expect("no run of 5 clean ticks after the last fault");
    let mut compared = 0usize;
    for r in report.ticks.iter().filter(|r| r.tick >= recovery_tick) {
        for d in r.outcome.as_ref().expect("clean ticks cannot error") {
            let (score_bits, tau_bits, escalated, flagged) = healthy_map[&key(d)];
            assert_eq!(
                d.score.to_bits(),
                score_bits,
                "post-recovery score diverged for vehicle {:?} t={}",
                d.vehicle,
                d.timestamp
            );
            assert_eq!(d.threshold.to_bits(), tau_bits);
            assert_eq!(d.escalated, escalated);
            assert_eq!(d.flagged, flagged);
            compared += 1;
        }
    }
    assert!(
        compared > 50,
        "recovery window compared only {compared} decisions"
    );
}

#[test]
fn chaos_runs_are_reproducible() {
    // Same plan + same stream + same config => identical traces, down to
    // score bits and counters. This is what makes a chaos failure
    // debuggable.
    let p = pipeline();
    let stream = benign_stream(&p);
    let members: Vec<usize> = (0..p.vehigan.k()).collect();
    let run = || {
        let plan = FaultPlan::new(21)
            .with_member_poison(members[0], 55, 57)
            .with_malformed_burst(60, 4)
            .with_overload(63, 64, 4);
        let mut server =
            StreamServer::new(&p.vehigan, p.scaler.clone(), chaos_config(0.0, &members)).unwrap();
        ChaosRunner::new(plan).run(&mut server, &stream)
    };
    let (a, b) = (run(), run());
    assert_eq!(a.stats, b.stats);
    assert_eq!(a.decisions(), b.decisions());
    assert_eq!(a.ticks.len(), b.ticks.len());
    for (x, y) in a.ticks.iter().zip(&b.ticks) {
        assert_eq!(x.rejected, y.rejected);
        assert_eq!(x.shed, y.shed);
        assert_eq!(x.mode_after, y.mode_after);
    }
}
