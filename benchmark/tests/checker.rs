//! The correctness checker must trip on planted faults: a dropped
//! decision, a flipped bit in an escalated score, an accepted NaN BSM.

use vehigan_benchmark::check::{
    check_against_reference, check_ticks, guard_errors, ReferenceScores,
};
use vehigan_benchmark::drive::TickRecord;
use vehigan_benchmark::gen::Injected;
use vehigan_features::RejectCounters;
use vehigan_serve::{Decision, ServerStats};
use vehigan_sim::VehicleId;

const SLICE_BSMS: [u64; 4] = [100, 100, 100, 100];
const COMPLETES: [u64; 4] = [0, 40, 90, 90];
const INJECTED: Injected = Injected {
    non_finite: 4,
    out_of_range: 4,
    stale: 4,
};

/// Four ticks of a server that does everything right: 3 BSMs rejected
/// per tick (one per class), every completed window decided the same
/// tick, a tenth suppressed and a tenth escalated.
fn healthy() -> Vec<TickRecord> {
    let mut stats = ServerStats::default();
    (0..4)
        .map(|i| {
            let rejected = RejectCounters {
                non_finite: 1,
                out_of_range: 1,
                stale: 1,
            };
            let decisions = COMPLETES[i];
            stats.ingested += SLICE_BSMS[i];
            stats.rejected += rejected;
            stats.windows_scored += decisions;
            stats.tier0_suppressed += decisions / 10;
            stats.tier2_escalated += decisions / 10;
            stats.tier1_screened += decisions - 2 * (decisions / 10);
            stats.ticks += 1;
            TickRecord {
                first_slice: i,
                n_slices: 1,
                received: SLICE_BSMS[i],
                accepted: SLICE_BSMS[i] - 3,
                rejected,
                panicked_shards: 0,
                decisions,
                pending_after: 0,
                vehicles_tracked: 50,
                stats,
                reports: 2,
                invalid_reports: 0,
            }
        })
        .collect()
}

#[test]
fn a_healthy_replay_passes() {
    let ticks = healthy();
    assert_eq!(
        check_ticks(&ticks, &SLICE_BSMS, &COMPLETES, INJECTED),
        Vec::<String>::new()
    );
    assert_eq!(guard_errors(&ticks, INJECTED), (0, 0));
}

#[test]
fn a_dropped_decision_trips_window_conservation() {
    let mut ticks = healthy();
    // tick() returned one decision fewer than the windows it took.
    ticks[2].decisions -= 1;
    let bad = check_ticks(&ticks, &SLICE_BSMS, &COMPLETES, INJECTED);
    assert!(
        bad.iter().any(|m| m.contains("windows completed")),
        "dropped decision not caught: {bad:?}"
    );
}

#[test]
fn an_accepted_nan_bsm_trips_the_guard_accounting() {
    let mut ticks = healthy();
    // The guard let one non-finite BSM through in tick 1 (and so in
    // every cumulative count after it).
    ticks[1].accepted += 1;
    ticks[1].rejected.non_finite -= 1;
    for t in &mut ticks[1..] {
        t.stats.rejected.non_finite -= 1;
    }
    let bad = check_ticks(&ticks, &SLICE_BSMS, &COMPLETES, INJECTED);
    assert!(
        bad.iter()
            .any(|m| m.contains("3 non-finite BSMs, 4 were injected")),
        "accepted NaN not caught: {bad:?}"
    );
    assert_eq!(
        guard_errors(&ticks, INJECTED),
        (0, 1),
        "one corrupted BSM accepted"
    );
}

fn decision(vehicle: u32, t: f64, score: f32, escalated: bool) -> Decision {
    Decision {
        vehicle: VehicleId(vehicle),
        timestamp: t,
        score,
        threshold: 0.5,
        escalated,
        flagged: escalated && score > 0.5,
        suppressed: false,
    }
}

#[test]
fn a_flipped_bit_in_an_escalated_score_trips_the_reference_check() {
    let kept = vec![
        decision(10, 1.0, 0.75, true),
        decision(10, 1.1, 0.25, false), // gate score: not compared
        decision(13, 1.1, 0.9, true),   // not in the reference sub-stream
        decision(20, 1.2, 0.625, true),
    ];
    let reference: ReferenceScores = [
        ((10, 1.0f64.to_bits()), 0.75f32.to_bits()),
        ((10, 1.1f64.to_bits()), 0.3f32.to_bits()),
        ((20, 1.2f64.to_bits()), 0.625f32.to_bits()),
    ]
    .into_iter()
    .collect();
    assert_eq!(
        check_against_reference(&kept, &reference),
        Vec::<String>::new()
    );

    let mut flipped = kept.clone();
    flipped[3].score = f32::from_bits(flipped[3].score.to_bits() ^ 1);
    let bad = check_against_reference(&flipped, &reference);
    assert_eq!(bad.len(), 1, "{bad:?}");
    assert!(bad[0].contains("veh-20"));

    // An escalated window the reference never produced is a fault too.
    let mut extra = kept;
    extra.push(decision(30, 2.0, 0.8, true));
    assert_eq!(check_against_reference(&extra, &reference).len(), 1);
}
