//! The load generator: same seed, same stream; exact 100 ms slicing with
//! empty slices kept; the corruption injector places exactly the counts
//! it advertises, and the ingest guard files each under its own class.

use vehigan_benchmark::gen::{build_stream, corrupt, slice_ranges, StreamSpec};
use vehigan_features::{IngestGuard, RejectCounters};
use vehigan_sim::{Bsm, VehicleId, BSM_INTERVAL_S};
use vehigan_tensor::init::seeded_rng;

const WINDOW: usize = 10;

fn spec() -> StreamSpec {
    StreamSpec {
        vehicles: 40,
        duration_s: 4.0,
        attacker_every: 4,
        rekey_s: None,
        corrupt_frac: 0.0,
    }
}

#[test]
fn same_seed_same_stream_different_seed_different_stream() {
    let churn = StreamSpec {
        rekey_s: Some(2.0),
        corrupt_frac: 0.06,
        ..spec()
    };
    for s in [spec(), churn] {
        let a = build_stream(&s, WINDOW, 7);
        let b = build_stream(&s, WINDOW, 7);
        let c = build_stream(&s, WINDOW, 8);
        assert_eq!(a.hash(), b.hash());
        assert_eq!(a.slices, b.slices);
        assert_eq!(a.completes, b.completes);
        assert_eq!(a.injected, b.injected);
        assert_ne!(a.hash(), c.hash());
    }
}

#[test]
fn slices_sit_on_the_exact_cadence_and_empty_ones_are_kept() {
    let stream = build_stream(&spec(), WINDOW, 3);
    // 4.0 s → slices 0..=40, whether or not anything arrived in them.
    assert_eq!(stream.slices.len(), 41);
    assert_eq!(stream.slices[0].start, 0);
    assert_eq!(stream.slices.last().unwrap().end, stream.bsms.len());
    for (k, r) in stream.slices.iter().enumerate() {
        if k > 0 {
            assert_eq!(r.start, stream.slices[k - 1].end, "slices are contiguous");
        }
        for b in &stream.bsms[r.clone()] {
            assert!(
                b.timestamp >= k as f64 * BSM_INTERVAL_S
                    && (b.timestamp < (k + 1) as f64 * BSM_INTERVAL_S || k == 40),
                "BSM at t={} in slice {k}",
                b.timestamp
            );
        }
    }

    // A sparse hand-made stream: gaps become empty slices, not skipped ones.
    let at = |t: f64| Bsm {
        vehicle_id: VehicleId(0),
        timestamp: t,
        pos_x: 0.0,
        pos_y: 0.0,
        speed: 1.0,
        acceleration: 0.0,
        heading: 0.0,
        yaw_rate: 0.0,
    };
    let sparse = [at(0.05), at(0.31), at(0.32), at(0.99)];
    let ranges = slice_ranges(&sparse, 1.0);
    assert_eq!(ranges.len(), 11);
    let sizes: Vec<usize> = ranges.iter().map(|r| r.len()).collect();
    assert_eq!(sizes, vec![1, 0, 0, 2, 0, 0, 0, 0, 0, 1, 0]);
}

#[test]
fn rekeying_issues_dense_pseudonyms_that_resolve_to_their_vehicle() {
    let s = StreamSpec {
        rekey_s: Some(1.0),
        ..spec()
    };
    let stream = build_stream(&s, WINDOW, 5);
    let scms = stream
        .scms
        .as_ref()
        .expect("re-keyed stream carries its linkage");
    assert!(
        stream.owner.len() > 2 * s.vehicles,
        "several pseudonyms per vehicle"
    );
    assert_eq!(scms.issued_count(), stream.owner.len());
    for b in &stream.bsms {
        let owner = stream.owner[b.vehicle_id.0 as usize];
        assert_eq!(scms.resolve(b.vehicle_id).map(|lt| lt.0), Some(owner));
    }
}

/// Replays a stream through the real guard with per-pseudonym
/// last-accepted stamps, as a shard does.
fn guard_counts(bsms: &[Bsm]) -> RejectCounters {
    let guard = IngestGuard::rsu();
    let n = bsms.iter().map(|b| b.vehicle_id.0).max().unwrap() as usize + 1;
    let mut last_seen: Vec<Option<f64>> = vec![None; n];
    let mut counts = RejectCounters::default();
    for b in bsms {
        let slot = &mut last_seen[b.vehicle_id.0 as usize];
        match guard.validate(b, *slot) {
            Ok(()) => *slot = Some(b.timestamp),
            Err(reason) => counts.count(reason),
        }
    }
    counts
}

#[test]
fn corruption_injector_places_exactly_the_advertised_counts_per_class() {
    for (seed, frac) in [(1u64, 0.03), (2, 0.06), (3, 0.12)] {
        let mut stream = build_stream(&spec(), WINDOW, seed);
        assert_eq!(
            guard_counts(&stream.bsms).total(),
            0,
            "clean stream is all accepted"
        );
        let n = stream.bsms.len();
        let (flags, injected) = corrupt(&mut stream.bsms, frac, &mut seeded_rng(seed));
        let per_class = (frac * n as f64 / 3.0).round() as u64;
        assert_eq!(injected.non_finite, per_class);
        assert_eq!(injected.out_of_range, per_class);
        assert_eq!(injected.stale, per_class);
        assert_eq!(flags.iter().filter(|&&f| f).count() as u64, 3 * per_class);
        // …and the guard files every one under the class it was built for.
        let got = guard_counts(&stream.bsms);
        assert_eq!(got.non_finite, injected.non_finite);
        assert_eq!(got.out_of_range, injected.out_of_range);
        assert_eq!(got.stale, injected.stale);
    }
}

#[test]
fn window_oracle_counts_clean_bsms_past_the_warm_up() {
    let s = StreamSpec {
        corrupt_frac: 0.06,
        ..spec()
    };
    let stream = build_stream(&s, WINDOW, 9);
    let clean = stream.bsms.len() as u64 - stream.injected.total();
    let total: u64 = stream.completes.iter().sum();
    // Every pseudonym spends its first WINDOW clean BSMs warming up.
    assert!(total < clean);
    assert!(total + (WINDOW * stream.owner.len()) as u64 >= clean);
}
