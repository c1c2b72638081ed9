//! Streaming OBU/RSU: the testing-phase deployment loop (§III-A.2),
//! served through the `vehigan::serve` streaming data plane.
//!
//! ```text
//! cargo run --release --example streaming_obu
//! ```
//!
//! Simulates a roadside unit receiving interleaved BSMs from nearby
//! vehicles (one of which misbehaves). Instead of scoring each window
//! refresh one vehicle at a time, the `StreamServer` shards per-pseudonym
//! window state, batches every window completed in a radio tick across
//! vehicles, screens the batch with the fused int8 tier-1 gate, and
//! escalates only suspicious windows to the full f32 ensemble.
//!
//! The serial loop this replaces — one `WindowBuffer` per pseudonym in a
//! `HashMap`, each refreshed window scored alone through the same member
//! subset — is the oracle of `crates/serve/tests/determinism.rs`, which
//! proves the served path is bitwise identical to it:
//!
//! ```ignore
//! let members: Vec<usize> = (0..pipeline.vehigan.k()).collect();
//! let mut buffers: HashMap<VehicleId, WindowBuffer> = HashMap::new();
//! for bsm in &inbox {
//!     let buffer = buffers
//!         .entry(bsm.vehicle_id)
//!         .or_insert_with(|| WindowBuffer::new(w, pipeline.scaler.clone()));
//!     if let Some(window) = buffer.push(bsm) {
//!         let r = pipeline
//!             .vehigan
//!             .score_with_members(&members, &window.to_tensor())
//!             .unwrap();
//!         // flagged when r.scores[0] > r.threshold
//!     }
//! }
//! ```
//!
//! The counters printed at the end are this demo's; what the server
//! sustains (BSMs/s, tick latency against the 100 ms interval, shed and
//! suppressed fractions) is measured by the perf ledger in `benchmark/`
//! (`items_per_s`, `tick_p90_ms`, `serve.shed_windows`,
//! `serve.tier0_suppressed_frac`).

use std::collections::HashMap;
use vehigan::core::{Pipeline, PipelineConfig};
use vehigan::features::Tier0Calibration;
use vehigan::metrics::percentile;
use vehigan::serve::{escalation_threshold, EscalationPolicy, ServerConfig, StreamServer};
use vehigan::sim::{Bsm, VehicleId};
use vehigan::tensor::init::seeded_rng;
use vehigan::vasp::{inject, Attack, AttackParams, AttackPolicy};

fn main() {
    println!("=== VehiGAN streaming serve demo ===\n");
    println!("[setup] training the detector…");
    let mut pipeline = Pipeline::run(PipelineConfig::demo());
    pipeline.compile_int8().expect("int8 backend compiles");

    // Build the radio environment: the held-out fleet, with vehicle 0
    // replaced by a misbehaving sender (coherent fake turn, Fig 1b).
    let attack = Attack::by_name("HighHeadingYawRate").expect("catalog");
    let mut rng = seeded_rng(99);
    let fleet = pipeline.test_fleet().to_vec();
    let attacker_id = fleet[0].id;
    let attacked = inject(
        &fleet[0],
        attack,
        AttackPolicy::Persistent,
        &AttackParams::default(),
        &mut rng,
    );
    println!(
        "[setup] {} vehicles in range; {attacker_id} persistently transmits {attack}\n",
        fleet.len()
    );

    // Interleave all messages by timestamp, as the radio would deliver.
    let mut inbox: Vec<Bsm> = attacked
        .trace
        .bsms
        .iter()
        .chain(fleet[1..].iter().flat_map(|t| &t.bsms))
        .copied()
        .collect();
    inbox.sort_by(|a, b| {
        a.timestamp
            .partial_cmp(&b.timestamp)
            .expect("finite time")
            .then(a.vehicle_id.cmp(&b.vehicle_id))
    });

    // Calibrate the tier-1 escalation cutoff on benign training windows:
    // windows whose int8 gate score clears the 90th benign percentile are
    // re-scored by the full f32 ensemble (DESIGN.md §10).
    let k = pipeline.vehigan.k();
    let members: Vec<usize> = (0..k).collect();
    let gate = pipeline
        .vehigan
        .score_with_members_int8(&members, &pipeline.train_windows.x)
        .expect("gate scores");
    let tau_esc = escalation_threshold(&gate.scores, 90.0);
    println!("[setup] int8 gate over {k} members, escalation cutoff τ_esc = {tau_esc:.4}");

    // Arm the tier-0 physics gate (DESIGN.md §12): per-vehicle CUSUM/EWMA
    // kinematic monitors fit on the benign training fleet. Windows whose
    // monitors stay deep inside the benign envelope are suppressed before
    // the int8 ensemble ever runs, re-emitting the vehicle's last real
    // tier-1 score (re-screened at least every 4th window); anything
    // physically unusual — and any cold or freshly-evicted vehicle —
    // falls through to tier 1.
    let window = pipeline.config.window.window;
    let mut tier0 =
        Tier0Calibration::fit(pipeline.train_fleet(), window, 0.995).expect("tier-0 fits");
    tier0.set_score_band(
        percentile(&gate.scores, 10.0),
        percentile(&gate.scores, 50.0),
        tau_esc,
    );
    println!("[setup] tier-0 monitors armed: warmup {window} rows, quantile 0.995\n");

    // The serve loop: ingest each radio tick as one batch, then score
    // every window completed that tick across all vehicles at once.
    let mut server = StreamServer::new(
        &pipeline.vehigan,
        pipeline.scaler.clone(),
        ServerConfig {
            n_shards: 2,
            policy: EscalationPolicy::Threshold(tau_esc),
            members: Some(members.clone()),
            gate_members: Some(members),
            tier0: Some(tier0),
            ..ServerConfig::default()
        },
    )
    .expect("server builds");
    let mut reports: HashMap<VehicleId, usize> = HashMap::new();
    let mut windows: HashMap<VehicleId, usize> = HashMap::new();
    let mut first_detection: Option<(VehicleId, f64)> = None;
    for tick in inbox.chunks(64) {
        server.ingest_batch(tick);
        for decision in server.tick().expect("tick scores") {
            *windows.entry(decision.vehicle).or_insert(0) += 1;
            if decision.flagged {
                *reports.entry(decision.vehicle).or_insert(0) += 1;
                if first_detection.is_none() && decision.vehicle == attacker_id {
                    first_detection = Some((decision.vehicle, decision.timestamp));
                }
            }
        }
    }
    let stats = server.stats();

    println!("per-vehicle report rates (flagged / scored windows):");
    let mut ids: Vec<VehicleId> = windows.keys().copied().collect();
    ids.sort();
    for id in ids {
        let r = reports.get(&id).copied().unwrap_or(0);
        let c = windows[&id];
        let marker = if id == attacker_id {
            "  << attacker"
        } else {
            ""
        };
        println!("  {id}: {r:>4}/{c}{marker}");
    }
    println!(
        "\nserved {} BSMs, scored {} windows",
        stats.ingested, stats.windows_scored
    );
    // Tier traffic split: every scored window lands in exactly one tier.
    let scored = stats.windows_scored.max(1) as f64;
    println!(
        "tiers: {} suppressed at tier 0 ({:.1}%), {} screened by the int8 gate ({:.1}%), \
         {} escalated to the f32 ensemble ({:.1}%)",
        stats.tier0_suppressed,
        100.0 * stats.tier0_suppressed as f64 / scored,
        stats.tier1_screened,
        100.0 * stats.tier1_screened as f64 / scored,
        stats.tier2_escalated,
        100.0 * stats.tier2_escalated as f64 / scored
    );
    // Resilience counters (DESIGN.md §11): a clean demo run holds the
    // server at 1× load with well-formed traffic, so all of these stay 0.
    println!(
        "resilience: rejected {} (non-finite {}, out-of-range {}, stale {}), \
         shed {}, degraded ticks {}, benched members {}, shard panics {}",
        stats.rejected.total(),
        stats.rejected.non_finite,
        stats.rejected.out_of_range,
        stats.rejected.stale,
        stats.shed,
        stats.degraded_ticks,
        stats.member_demotions,
        stats.shard_panics
    );
    match first_detection {
        Some((id, t)) => {
            println!("first MBR for {id} at t = {t:.1}s (attack active from its first message)")
        }
        None => println!("no MBR raised for the attacker — try a larger training scale"),
    }
    println!("\ndone.");
}
