//! Property tests for the shard layer: shard assignment is a pure,
//! stable function of the pseudonym, TTL/LRU eviction never drops a
//! vehicle that still has in-flight (undrained) pending windows, and a
//! queued window — left in its vehicle's ring or spilled out of it —
//! is taken bit for bit as it was when it completed.

use proptest::prelude::*;
use std::collections::{HashMap, VecDeque};
use vehigan_features::{
    EvictionConfig, IngestGuard, MinMaxScaler, Tier0Calibration, Tier0Params, WindowBuffer,
    EWMA_LAMBDA, NUM_FEATURES, NUM_RESIDUALS, NUM_STATISTICS,
};
use vehigan_serve::{shard_for, PendingWindow, Shard};
use vehigan_sim::{Bsm, VehicleId};

fn test_scaler() -> MinMaxScaler {
    MinMaxScaler::fit(&[vec![-50.0; NUM_FEATURES], vec![50.0; NUM_FEATURES]])
}

fn bsm(vehicle: u32, timestamp: f64) -> Bsm {
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

/// A BSM whose kinematics wander with time, so no two windows agree.
fn wandering_bsm(vehicle: u32, t: f64) -> Bsm {
    let phase = f64::from(vehicle) * 0.7 + t;
    Bsm {
        vehicle_id: VehicleId(vehicle),
        timestamp: t,
        pos_x: 3.0 * t + 20.0 * phase.sin(),
        pos_y: f64::from(vehicle) + 15.0 * (0.6 * phase).cos(),
        speed: 10.0 + 2.0 * (3.1 * phase).sin(),
        acceleration: (1.7 * phase).cos(),
        heading: 0.3 + 0.2 * phase.sin(),
        yaw_rate: 0.05 * (2.3 * phase).cos(),
    }
}

/// A tier-0 gate whose monitors never trip: a warm vehicle with a
/// carried score below τ suppresses until its refresh streak runs out.
fn quiet_gate(window: usize) -> Tier0Calibration {
    Tier0Calibration {
        params: Tier0Params {
            lambda: EWMA_LAMBDA,
            mu: [0.0; NUM_RESIDUALS],
            slack: [0.0; NUM_RESIDUALS],
            horizon: window as u32,
        },
        h: [f32::MAX; NUM_STATISTICS],
        scale: 1.0,
        warmup: window as u32,
        quantile: 0.995,
        score_floor: 0.0,
        score_span: 0.0,
        tau: 1.0,
        refresh: 3,
    }
}

/// The oracle for [`taken_windows_are_the_windows_that_completed`]: one
/// reference [`WindowBuffer`] per resident vehicle, and the queue of
/// completed windows copied out of them, shed like the shard's.
struct Model {
    window: usize,
    cap: Option<usize>,
    buffers: HashMap<u32, WindowBuffer>,
    queue: VecDeque<(VehicleId, f64, Vec<f32>)>,
    shed: u64,
}

impl Model {
    fn new(window: usize, cap: Option<usize>) -> Self {
        Model {
            window,
            cap,
            buffers: HashMap::new(),
            queue: VecDeque::new(),
            shed: 0,
        }
    }

    fn ingest(&mut self, shard: &mut Shard, bsm: &Bsm) {
        let v = bsm.vehicle_id.0;
        if !shard.contains(bsm.vehicle_id) {
            // The shard builds a fresh slot for an unknown pseudonym.
            self.buffers
                .insert(v, WindowBuffer::new(self.window, test_scaler()));
        }
        assert!(shard.ingest(bsm), "an in-order BSM is accepted");
        // Whatever the insert evicted lost its state with its slot.
        self.buffers.retain(|&id, _| shard.contains(VehicleId(id)));
        let completed = self
            .buffers
            .get_mut(&v)
            .expect("sender is resident")
            .push(bsm);
        if let Some(window) = completed {
            let mut floats = Vec::new();
            window.extend_into(&mut floats);
            if let Some(cap) = self.cap {
                while self.queue.len() >= cap.max(1) {
                    self.queue.pop_front();
                    self.shed += 1;
                }
            }
            self.queue
                .push_back((bsm.vehicle_id, bsm.timestamp, floats));
        }
    }

    /// Checks one take against the queue's front, bit for bit.
    fn check_take(&mut self, suppressed_floats: bool, floats: &[f32], meta: &[PendingWindow]) {
        let mut chunks = floats.chunks_exact(self.window * NUM_FEATURES);
        for w in meta {
            let (vehicle, timestamp, expected) = self.queue.pop_front().expect("model queue");
            assert_eq!((w.vehicle, w.timestamp), (vehicle, timestamp));
            if suppressed_floats || !w.suppressed {
                let got = chunks.next().expect("a float block per read window");
                let bits = |x: &[f32]| x.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
                assert_eq!(
                    bits(got),
                    bits(&expected),
                    "window of {vehicle:?} at {timestamp}"
                );
            }
        }
        assert_eq!(chunks.count(), 0, "floats for a window no one reads");
    }
}

#[test]
fn shard_assignment_golden_values() {
    // shard_for is a wire format: changing the hash silently rebalances
    // every deployment, so pin concrete values.
    assert_eq!(shard_for(VehicleId(0), 8), 0);
    assert_eq!(shard_for(VehicleId(1), 8), 4);
    assert_eq!(shard_for(VehicleId(2), 8), 1);
    assert_eq!(shard_for(VehicleId(12345), 8), 5);
    assert_eq!(shard_for(VehicleId(u32::MAX), 8), 5);
    assert_eq!(shard_for(VehicleId(12345), 1), 0);
}

#[test]
fn a_vehicle_pushing_before_the_tick_spills_its_queued_window() {
    let window = 3;
    let mut shard = Shard::new(window, test_scaler(), EvictionConfig::unbounded());
    let mut model = Model::new(window, None);
    // Windows complete at the 4th, 5th and 6th BSM; each of the first
    // two is still queued in the ring when the next push would
    // overwrite its oldest row.
    for i in 1..=6 {
        model.ingest(&mut shard, &wandering_bsm(7, 0.1 * f64::from(i)));
    }
    assert_eq!(shard.spilled(), 2);
    let (floats, meta) = shard.take_pending(usize::MAX);
    model.check_take(true, &floats, &meta);
    // Taken, the ring's window needs no spill: the next push is free.
    model.ingest(&mut shard, &wandering_bsm(7, 0.7));
    assert_eq!(shard.spilled(), 2);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn shard_assignment_is_stable_and_in_range(
        id in any::<u32>(),
        n_shards in 1usize..64,
    ) {
        let s = shard_for(VehicleId(id), n_shards);
        prop_assert!(s < n_shards);
        // Pure function of (id, n_shards): repeated calls agree.
        for _ in 0..3 {
            prop_assert_eq!(shard_for(VehicleId(id), n_shards), s);
        }
    }

    #[test]
    fn eviction_never_drops_vehicles_with_in_flight_windows(
        holders in proptest::collection::vec(0u32..8, 1..4),
        churn in proptest::collection::vec(100u32..200, 1..40),
        cap in 1usize..3,
    ) {
        let window = 3usize;
        let mut shard = Shard::new(
            window,
            test_scaler(),
            EvictionConfig { max_vehicles: Some(cap), ttl_s: Some(0.5) },
        );
        let mut t = 0.0f64;

        // Give each holder a completed (pending) window: window + 1 BSMs.
        let mut holders = holders;
        holders.sort_unstable();
        holders.dedup();
        for &v in &holders {
            for _ in 0..=window {
                shard.ingest(&bsm(v, t));
                t += 0.1;
            }
            prop_assert!(shard.has_in_flight(VehicleId(v)));
        }
        let pending_before = shard.pending_windows();
        prop_assert_eq!(pending_before, holders.len());

        // Hammer the shard with fresh pseudonyms (LRU pressure far past
        // the cap) and a stale-eviction sweep far past every holder's
        // TTL. Holders have undrained windows, so they must survive.
        for &v in &churn {
            shard.ingest(&bsm(v, t));
            t += 0.1;
        }
        shard.evict_stale(t + 1e6);
        for &v in &holders {
            prop_assert!(
                shard.contains(VehicleId(v)),
                "vehicle {} evicted with an in-flight window", v
            );
        }
        prop_assert_eq!(shard.pending_windows(), pending_before);

        // Draining clears the in-flight marks; now the same pressure may
        // evict the holders.
        let (floats, meta) = shard.drain_pending();
        prop_assert_eq!(meta.len(), pending_before);
        prop_assert_eq!(floats.len(), pending_before * shard.window_len());
        for &v in &holders {
            prop_assert!(!shard.has_in_flight(VehicleId(v)));
        }
        shard.evict_stale(t + 1e6);
        prop_assert_eq!(shard.num_vehicles(), 0, "post-drain TTL sweep keeps nothing");
    }

    #[test]
    fn taken_windows_are_the_windows_that_completed(
        n_vehicles in 1u32..9,
        window in 2usize..5,
        cap in 0usize..7,
        max_vehicles in 1usize..9,
        gated in any::<bool>(),
        // Per round: accepted BSMs per vehicle (0–4 each, interleaved),
        // then a take of up to `take` windows with or without the
        // suppressed windows' floats, then optionally a TTL sweep.
        rounds in proptest::collection::vec(
            (
                proptest::collection::vec(0u8..5, 8),
                0usize..12,
                any::<bool>(),
                any::<bool>(),
            ),
            1..24,
        ),
    ) {
        // cap 0 = an unbounded queue; otherwise the bound sheds windows
        // still in a ring and windows already spilled alike.
        let cap = (cap > 0).then_some(cap);
        let mut shard = Shard::with_guard(
            window,
            test_scaler(),
            EvictionConfig { max_vehicles: Some(max_vehicles), ttl_s: Some(0.45) },
            IngestGuard::permissive(),
            cap,
        )
        .with_tier0(gated.then(|| quiet_gate(window)));
        let mut model = Model::new(window, cap);
        let mut t = 0.0f64;
        for (counts, take, suppressed_floats, sweep) in &rounds {
            for k in 0..4u8 {
                for v in 0..n_vehicles {
                    if counts[v as usize] > k {
                        t += 0.05;
                        model.ingest(&mut shard, &wandering_bsm(v, t));
                    }
                }
            }
            prop_assert_eq!(shard.pending_windows(), model.queue.len());
            prop_assert_eq!(shard.shed(), model.shed);
            let (mut floats, mut meta) = (Vec::new(), Vec::new());
            shard.take_pending_into(*take, *suppressed_floats, &mut floats, &mut meta);
            model.check_take(*suppressed_floats, &floats, &meta);
            // Feed screened windows a sub-τ score, as the server does,
            // so their vehicles' next windows may suppress.
            for w in meta.iter().filter(|w| !w.suppressed) {
                shard.record_gate(w.vehicle, 0.0);
            }
            if *sweep {
                shard.evict_stale(t);
                model.buffers.retain(|&id, _| shard.contains(VehicleId(id)));
            }
        }
        let (floats, meta) = shard.drain_pending();
        model.check_take(true, &floats, &meta);
        prop_assert!(model.queue.is_empty());
    }

    #[test]
    fn lru_capacity_holds_for_idle_vehicles(
        ids in proptest::collection::vec(any::<u32>(), 1..60),
        cap in 1usize..5,
    ) {
        // One BSM per vehicle never completes a window, so every slot is
        // idle and the cap is a hard bound.
        let mut shard = Shard::new(
            4,
            test_scaler(),
            EvictionConfig { max_vehicles: Some(cap), ttl_s: None },
        );
        let mut t = 0.0;
        for &v in &ids {
            shard.ingest(&bsm(v, t));
            t += 0.1;
        }
        prop_assert!(shard.num_vehicles() <= cap);
    }
}
