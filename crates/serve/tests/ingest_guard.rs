//! Property tests for ingest hardening (ISSUE 8 satellite): a shard
//! behind an [`IngestGuard`] never emits a window containing non-finite
//! features no matter what hostile mix of malformed, replayed, and clean
//! messages it ingests — and the bounded pending queue sheds the oldest
//! windows deterministically, never the newest.
//!
//! Why finiteness-at-ingest is sufficient: the Table II feature pipeline
//! (`decompose_pair`) is division-free arithmetic on BSM fields and the
//! scaler clamps to `[-1, 1]`, so a non-finite window feature can only
//! originate from a non-finite BSM field — which the guard rejects
//! before any state is touched.

use proptest::prelude::*;
use vehigan_features::{EvictionConfig, IngestGuard, MinMaxScaler, RejectCounters, NUM_FEATURES};
use vehigan_serve::Shard;
use vehigan_sim::{Bsm, VehicleId};

fn test_scaler() -> MinMaxScaler {
    MinMaxScaler::fit(&[vec![-50.0; NUM_FEATURES], vec![50.0; NUM_FEATURES]])
}

fn clean_bsm(vehicle: u32, timestamp: f64) -> Bsm {
    Bsm {
        vehicle_id: VehicleId(vehicle),
        timestamp,
        pos_x: timestamp * 3.0,
        pos_y: vehicle as f64,
        speed: 10.0,
        acceleration: 0.1,
        heading: 0.3,
        yaw_rate: 0.0,
    }
}

/// One hostile event: which corruption (if any) to apply to the next
/// message of a round-robin vehicle schedule.
#[derive(Debug, Clone, Copy)]
enum Event {
    Clean,
    /// Poison field `i % 7` with NaN or ∞.
    NonFinite(u8),
    /// Physically absurd but finite (caught only by range limits).
    Absurd,
    /// Replay: reuse the vehicle's previous timestamp (stale).
    Replay,
}

fn event_strategy() -> impl Strategy<Value = Event> {
    // Clean entries repeated to bias the mix toward valid traffic (the
    // vendored proptest's prop_oneof! has no weight syntax).
    prop_oneof![
        Just(Event::Clean),
        Just(Event::Clean),
        Just(Event::Clean),
        Just(Event::Clean),
        (0u8..14).prop_map(Event::NonFinite),
        (0u8..14).prop_map(Event::NonFinite),
        Just(Event::Absurd),
        Just(Event::Replay),
    ]
}

/// A reorder tolerance bounds how far a message may trail the vehicle's
/// newest *accepted* timestamp, not its latest push: a sender walking
/// its clock back half a tolerance at a time is refused once it falls a
/// whole tolerance behind, and the walk does not make it look idle.
#[test]
fn reorder_tolerance_is_measured_from_the_newest_accepted_timestamp() {
    let guard = IngestGuard {
        reorder_tolerance_s: 0.5,
        ..IngestGuard::permissive()
    };
    let eviction = EvictionConfig {
        max_vehicles: None,
        ttl_s: Some(1.0),
    };
    let mut shard = Shard::with_guard(8, test_scaler(), eviction, guard, None);
    assert!(shard.ingest(&clean_bsm(1, 1.0)));
    assert!(shard.ingest(&clean_bsm(1, 0.6)), "inside the tolerance");
    for t in [0.2, -0.2, -0.6] {
        assert!(
            !shard.ingest(&clean_bsm(1, t)),
            "{t} trails 1.0 by more than 0.5"
        );
    }
    assert_eq!(
        shard.rejects(),
        RejectCounters {
            stale: 3,
            ..RejectCounters::default()
        }
    );
    assert!(shard.ingest(&clean_bsm(1, 1.4)));
    assert!(shard.ingest(&clean_bsm(1, 1.1)), "inside the tolerance");
    // Last heard at 1.4, not 1.1: 1.9 s later the TTL has not run out.
    assert_eq!(shard.evict_stale(2.35), 0);
    assert_eq!(shard.evict_stale(2.45), 1);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn guarded_ingest_never_emits_non_finite_windows(
        events in proptest::collection::vec(event_strategy(), 1..200),
        n_vehicles in 1u32..5,
    ) {
        let window = 4usize;
        let mut shard = Shard::with_guard(
            window,
            test_scaler(),
            EvictionConfig::unbounded(),
            IngestGuard::rsu(),
            None,
        );
        let mut clocks = vec![0.0f64; n_vehicles as usize];
        let mut last_accepted = vec![None::<f64>; n_vehicles as usize];
        let mut expected_rejects = 0u64;
        for (i, &event) in events.iter().enumerate() {
            let v = i as u32 % n_vehicles;
            let clock = &mut clocks[v as usize];
            let (bsm, expect_accept) = match event {
                Event::Clean => {
                    *clock += 0.1;
                    (clean_bsm(v, *clock), true)
                }
                Event::NonFinite(field) => {
                    *clock += 0.1;
                    let mut b = clean_bsm(v, *clock);
                    let poison = if field < 7 { f64::NAN } else { f64::INFINITY };
                    match field % 7 {
                        0 => b.timestamp = poison,
                        1 => b.pos_x = poison,
                        2 => b.pos_y = poison,
                        3 => b.speed = poison,
                        4 => b.acceleration = poison,
                        5 => b.heading = poison,
                        _ => b.yaw_rate = poison,
                    }
                    (b, false)
                }
                Event::Absurd => {
                    *clock += 0.1;
                    let mut b = clean_bsm(v, *clock);
                    b.speed = 1e7;
                    (b, false)
                }
                // A copy of the vehicle's newest *accepted* timestamp:
                // stale under the strict default tolerance — unless the
                // vehicle has no accepted message yet, in which case
                // staleness cannot apply and the (clean-valued) message
                // is legitimately accepted.
                Event::Replay => match last_accepted[v as usize] {
                    Some(t) => (clean_bsm(v, t), false),
                    None => (clean_bsm(v, *clock), true),
                },
            };
            let accepted = shard.ingest(&bsm);
            prop_assert_eq!(
                accepted, expect_accept,
                "event {:?} acceptance mismatch", event
            );
            if accepted {
                last_accepted[v as usize] = Some(bsm.timestamp);
            } else {
                expected_rejects += 1;
            }
        }
        prop_assert_eq!(shard.rejects().total(), expected_rejects);
        prop_assert_eq!(shard.ingested(), events.len() as u64);

        // The property under test: every float the shard hands to the
        // scoring plane is finite.
        let (floats, meta) = shard.take_pending(usize::MAX);
        prop_assert_eq!(floats.len(), meta.len() * shard.window_len());
        for (i, x) in floats.iter().enumerate() {
            prop_assert!(
                x.is_finite(),
                "non-finite feature {} at flat index {} reached the scoring plane", x, i
            );
        }
    }

    #[test]
    fn bounded_queue_sheds_oldest_first_and_is_deterministic(
        n_messages in 6usize..120,
        cap in 1usize..6,
    ) {
        let window = 3usize;
        let build = || {
            let mut shard = Shard::with_guard(
                window,
                test_scaler(),
                EvictionConfig::unbounded(),
                IngestGuard::permissive(),
                Some(cap),
            );
            for i in 0..n_messages {
                shard.ingest(&clean_bsm(1, 0.1 * (i + 1) as f64));
            }
            shard
        };
        let mut shard = build();
        // One vehicle completes its first window at message `window + 1`
        // and one more per message after that.
        let windows_created = n_messages.saturating_sub(window);
        prop_assert_eq!(shard.pending_windows(), windows_created.min(cap));
        prop_assert_eq!(shard.shed(), windows_created.saturating_sub(cap) as u64);

        // The retained windows are exactly the NEWEST ones: their
        // completing timestamps are the last `cap` message timestamps.
        let (_, meta) = shard.take_pending(usize::MAX);
        let expected: Vec<f64> = (0..n_messages)
            .map(|i| 0.1 * (i + 1) as f64)
            .skip(window)
            .skip(windows_created.saturating_sub(cap))
            .collect();
        let got: Vec<f64> = meta.iter().map(|w| w.timestamp).collect();
        prop_assert_eq!(got, expected);

        // Deterministic: a second identical shard sheds identically.
        let mut again = build();
        prop_assert_eq!(again.shed(), shard.shed());
        prop_assert_eq!(again.take_pending(usize::MAX).1, meta);
    }
}
