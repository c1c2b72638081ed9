//! Property tests for the shard layer: shard assignment is a pure,
//! stable function of the pseudonym, TTL/LRU eviction never drops a
//! vehicle that still has in-flight (undrained) pending windows, and a
//! queued window — left in its vehicle's ring or spilled out of it —
//! is taken bit for bit as it was when it completed, with the tier-0
//! verdict and carried score a standalone monitor per vehicle implies.
//! A take bounded by a tile's room stops exactly before the first window
//! the tile has no room for, leaving the rest queued as they were, and
//! every location it hands back — the vehicle's ring while the window is
//! still its newest, a spill buffer once it was pushed past — reads the
//! window bit for bit until the next ingest, also when one take holds a
//! vehicle's spilled windows and its in-ring one together.

use proptest::prelude::*;
use std::collections::{HashMap, HashSet, VecDeque};
use vehigan_features::{
    EvictionConfig, GateDecision, IngestGuard, MinMaxScaler, Tier0Calibration, Tier0Monitor,
    WindowBuffer, NUM_FEATURES,
};
use vehigan_serve::{shard_for, PendingWindow, Shard, WindowAt, SCORE_TILE};
use vehigan_sim::{Bsm, VehicleId, VehicleTrace};

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

/// Accepted-message reordering the model's guard tolerates, so duplicate
/// and slightly older timestamps reach the ring and the monitor.
const REORDER_TOLERANCE_S: f64 = 0.1;

/// A tier-0 gate whose monitors do trip: fitted on wandering traces
/// sampled every 0.05–0.4 s (the spacing interleaved senders see) at a
/// low benign quantile, so warm windows both suppress and screen, with a
/// detection threshold some recorded scores reach.
fn tripping_gate(window: usize) -> Tier0Calibration {
    let traces: Vec<VehicleTrace> = (0..8)
        .map(|v| VehicleTrace {
            id: VehicleId(v),
            bsms: (1..80)
                .map(|i| wandering_bsm(v, f64::from(i) * 0.05 * f64::from(1 + v)))
                .collect(),
        })
        .collect();
    let mut gate = Tier0Calibration::fit(&traces, window, 0.9).expect("tier-0 fits");
    gate.set_score_band(0.0, 0.5, 1.0);
    gate
}

/// The sub-detection score the model checks feed back for a screened
/// window: deterministic, and at or above τ = 1.0 for one vehicle-time
/// in five, which may then not be carried.
fn gate_score(w: &PendingWindow) -> f32 {
    let tick = (w.timestamp * 20.0).round() as u64;
    ((u64::from(w.vehicle.0) * 7 + tick) % 5) as f32 * 0.3
}

/// One resident vehicle as the shard should see it: a standalone window
/// buffer and tier-0 monitor, and the carried-score rule's state.
struct Tracked {
    buffer: WindowBuffer,
    monitor: Option<Tier0Monitor>,
    newest: f64,
    prev_timestamp: f64,
    last_gate: Option<f32>,
    streak: u32,
    /// Sequence number of the vehicle's queued window still in its ring
    /// (its newest, not yet spilled by a later push).
    in_ring: Option<u64>,
}

/// A window the model expects the shard to queue: who completed it
/// when, its tier-0 verdict and its floats.
struct Expected {
    seq: u64,
    vehicle: VehicleId,
    timestamp: f64,
    carried: Option<f32>,
    floats: Vec<f32>,
}

/// What a model run exercised, for the coverage check.
#[derive(Debug, Default)]
struct Coverage {
    suppressed: u64,
    /// Warm windows the monitor screened.
    tripped: u64,
    /// Accepted rows whose timestamp did not advance: monitor resets.
    resets: u64,
    rejected: u64,
    /// Pseudonyms given a fresh slot after an eviction.
    reinserted: u64,
    /// Takes that stopped before a window the room had no place for.
    stops: u64,
    /// Suppressed windows taken, costing no room, once the room was full.
    free_suppressed: u64,
    /// Takes in which one vehicle had a spilled window and its in-ring
    /// window both.
    mixed: u64,
}

/// One taken window as a take handed it back: its metadata, its floats,
/// and where the take said they lie (none for a copying take).
struct Taken {
    meta: PendingWindow,
    floats: Vec<f32>,
    at: Option<WindowAt>,
}

/// The oracle for [`taken_windows_are_the_windows_that_completed`]: one
/// reference [`WindowBuffer`] and [`Tier0Monitor`] per resident vehicle,
/// each with its own previous message, the carried-score rule of
/// [`Shard::ingest`] replayed on them, and the queue of completed windows
/// copied out of them, shed like the shard's.
struct Model {
    window: usize,
    cap: Option<usize>,
    guard: IngestGuard,
    gate: Option<Tier0Calibration>,
    vehicles: HashMap<u32, Tracked>,
    seen: HashSet<u32>,
    queue: VecDeque<Expected>,
    next_seq: u64,
    shed: u64,
    spilled: u64,
    coverage: Coverage,
}

impl Model {
    fn new(window: usize, cap: Option<usize>, gate: Option<Tier0Calibration>) -> Self {
        Model {
            window,
            cap,
            guard: IngestGuard {
                reorder_tolerance_s: REORDER_TOLERANCE_S,
                ..IngestGuard::permissive()
            },
            gate,
            vehicles: HashMap::new(),
            seen: HashSet::new(),
            queue: VecDeque::new(),
            next_seq: 0,
            shed: 0,
            spilled: 0,
            coverage: Coverage::default(),
        }
    }

    /// A shard the model describes.
    fn shard(&self, eviction: EvictionConfig) -> Shard {
        Shard::with_guard(self.window, test_scaler(), eviction, self.guard, self.cap)
            .with_tier0(self.gate)
    }

    /// The timestamp of the vehicle's last accepted BSM, if resident.
    fn prev_timestamp(&self, vehicle: u32) -> Option<f64> {
        self.vehicles.get(&vehicle).map(|v| v.prev_timestamp)
    }

    fn ingest(&mut self, shard: &mut Shard, bsm: &Bsm) {
        let v = bsm.vehicle_id.0;
        let newest = self.vehicles.get(&v).map(|t| t.newest);
        let accepted = self.guard.validate(bsm, newest).is_ok();
        assert_eq!(shard.ingest(bsm), accepted, "guard verdict on {bsm:?}");
        if !accepted {
            self.coverage.rejected += 1;
            return;
        }
        if newest.is_none() {
            // The shard built a fresh slot for an unknown pseudonym.
            if !self.seen.insert(v) {
                self.coverage.reinserted += 1;
            }
            self.vehicles.insert(
                v,
                Tracked {
                    buffer: WindowBuffer::new(self.window, test_scaler()),
                    monitor: self.gate.map(|g| Tier0Monitor::new(g.params)),
                    newest: bsm.timestamp,
                    prev_timestamp: bsm.timestamp,
                    last_gate: None,
                    streak: 0,
                    in_ring: None,
                },
            );
            // Whatever the insert evicted lost its state with its slot.
            self.vehicles.retain(|&id, _| shard.contains(VehicleId(id)));
        }
        let tracked = self.vehicles.get_mut(&v).expect("sender is resident");
        if newest.is_some() {
            if bsm.timestamp <= tracked.prev_timestamp {
                self.coverage.resets += 1;
            }
            // The push overwrites the ring's oldest row: a window still
            // queued there is spilled first.
            if tracked.in_ring.take().is_some() {
                self.spilled += 1;
            }
        }
        tracked.newest = tracked.newest.max(bsm.timestamp);
        tracked.prev_timestamp = bsm.timestamp;
        if let Some(monitor) = tracked.monitor.as_mut() {
            monitor.push(bsm);
        }
        let Some(window) = tracked.buffer.push(bsm) else {
            return;
        };
        let mut floats = Vec::new();
        window.extend_into(&mut floats);
        let carried = match (self.gate, tracked.monitor.as_ref()) {
            (Some(gate), Some(monitor)) => {
                let physics = gate.evaluate(monitor).0;
                if monitor.rows() >= gate.warmup && physics == GateDecision::Screen {
                    self.coverage.tripped += 1;
                }
                match (physics, tracked.last_gate) {
                    (GateDecision::Suppress, Some(g))
                        if g < gate.tau && tracked.streak < gate.refresh =>
                    {
                        Some(g)
                    }
                    _ => None,
                }
            }
            _ => None,
        };
        if carried.is_some() {
            tracked.streak += 1;
            self.coverage.suppressed += 1;
        }
        tracked.in_ring = Some(self.next_seq);
        if let Some(cap) = self.cap {
            while self.queue.len() >= cap.max(1) {
                self.dequeue();
                self.shed += 1;
            }
        }
        self.queue.push_back(Expected {
            seq: self.next_seq,
            vehicle: bsm.vehicle_id,
            timestamp: bsm.timestamp,
            carried,
            floats,
        });
        self.next_seq += 1;
    }

    /// Removes the queue's front, which no longer sits in a ring, and
    /// says whether it was its vehicle's in-ring window.
    fn dequeue(&mut self) -> (Expected, bool) {
        let front = self.queue.pop_front().expect("model queue");
        let mut in_ring = false;
        if let Some(tracked) = self.vehicles.get_mut(&front.vehicle.0) {
            if tracked.in_ring == Some(front.seq) {
                tracked.in_ring = None;
                in_ring = true;
            }
        }
        (front, in_ring)
    }

    /// Whether the queue's `n` oldest windows hold, for some vehicle,
    /// both its in-ring window and a spilled one.
    fn mixes_ring_and_spill(&self, n: usize) -> bool {
        let taken: Vec<&Expected> = self.queue.iter().take(n).collect();
        taken.iter().any(|e| {
            let tracked = &self.vehicles[&e.vehicle.0];
            tracked.in_ring == Some(e.seq)
                && taken
                    .iter()
                    .any(|o| o.vehicle == e.vehicle && o.seq != e.seq)
        })
    }

    /// How many windows a take of up to `take` windows into a tile with
    /// room for `room` removes: it stops before the first screened
    /// window once `room` are placed.
    fn expected_take(&mut self, take: usize, room: usize) -> usize {
        let (mut taken, mut read) = (0, 0);
        for e in self.queue.iter().take(take) {
            if e.carried.is_none() {
                if read == room {
                    self.coverage.stops += 1;
                    break;
                }
                read += 1;
            } else if read == room {
                self.coverage.free_suppressed += 1;
            }
            taken += 1;
        }
        taken
    }

    /// Checks what the shard still holds: the queue depth and sheds, the
    /// spills (a take moves no window between ring and spill buffer) and
    /// the in-flight mark of every resident vehicle.
    fn check_queue(&self, shard: &Shard) {
        assert_eq!(shard.pending_windows(), self.queue.len());
        assert_eq!(shard.shed(), self.shed);
        assert_eq!(shard.spilled(), self.spilled);
        for &v in self.vehicles.keys() {
            let queued = self.queue.iter().any(|e| e.vehicle.0 == v);
            assert_eq!(
                shard.has_in_flight(VehicleId(v)),
                queued,
                "in-flight mark of vehicle {v}"
            );
        }
    }

    /// Checks one take against the queue's front — metadata, tier-0
    /// verdict and carried score exactly, floats bit for bit, and a
    /// location in the ring exactly for the vehicle's in-ring window —
    /// then records each screened window's [`gate_score`] on the shard
    /// and the model alike, as the server's tick does.
    fn check_take(&mut self, shard: &mut Shard, taken: &[Taken]) {
        for Taken {
            meta: w,
            floats,
            at,
        } in taken
        {
            let (e, in_ring) = self.dequeue();
            assert_eq!((w.vehicle, w.timestamp), (e.vehicle, e.timestamp));
            assert_eq!(
                w.carried.map(f32::to_bits),
                e.carried.map(f32::to_bits),
                "tier-0 verdict of {:?} at {}",
                e.vehicle,
                e.timestamp
            );
            let bits = |x: &[f32]| x.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
            assert_eq!(
                bits(floats),
                bits(&e.floats),
                "window of {:?} at {}",
                e.vehicle,
                e.timestamp
            );
            if let Some(at) = at {
                assert_eq!(
                    matches!(at, WindowAt::Ring(_)),
                    in_ring,
                    "{at:?} for the window of {:?} at {}",
                    e.vehicle,
                    e.timestamp
                );
            }
        }
        for Taken { meta: w, .. } in taken.iter().filter(|t| t.meta.carried.is_none()) {
            let score = gate_score(w);
            shard.record_gate(w.slot, score);
            if let Some(tracked) = self.vehicles.get_mut(&w.vehicle.0) {
                tracked.last_gate = Some(score);
                tracked.streak = 0;
            }
        }
    }

    /// A TTL sweep at stream time `now`, on the shard and the model.
    fn sweep(&mut self, shard: &mut Shard, now: f64) {
        shard.evict_stale(now);
        self.vehicles.retain(|&id, _| shard.contains(VehicleId(id)));
    }
}

/// One round of [`drive`]: accepted-or-not BSMs per vehicle (0–4 each,
/// interleaved), which of each vehicle's messages repeats or predates its
/// previous one, a take of up to `take` windows into a tile with room for
/// `room`, then optionally a TTL sweep.
type Round = (Vec<u8>, Vec<u8>, usize, usize, bool);

/// Runs `rounds` through `shard` and `model`, checking every take, and
/// finally drains both.
fn drive(shard: &mut Shard, model: &mut Model, n_vehicles: u32, rounds: &[Round]) {
    let mut t = 0.0f64;
    for (r, (counts, irregular, take, room, sweep)) in rounds.iter().enumerate() {
        for k in 0..4u8 {
            for v in 0..n_vehicles {
                if counts[v as usize] <= k {
                    continue;
                }
                t += 0.05;
                // An irregular message repeats the vehicle's previous
                // timestamp or predates it, by less than the tolerance
                // (accepted: the monitor resets) or by more (rejected).
                let at = match model.prev_timestamp(v) {
                    Some(prev) if irregular[v as usize] == k => {
                        prev - [0.0, 0.02, 1.5 * REORDER_TOLERANCE_S][(r + v as usize) % 3]
                    }
                    _ => t,
                };
                model.ingest(shard, &wandering_bsm(v, at));
            }
        }
        model.check_queue(shard);
        let want = model.expected_take(*take, *room);
        if model.mixes_ring_and_spill(want) {
            model.coverage.mixed += 1;
        }
        let mut located = Vec::new();
        let n = shard.take_pending_within(*take, *room, |w, at| located.push((*w, at)));
        assert_eq!((n, located.len()), (want, want), "windows taken");
        // Every location is read once the take is over, as the tick does.
        let taken: Vec<Taken> = located
            .into_iter()
            .map(|(meta, at)| Taken {
                meta,
                floats: shard.window_at(at).concat(),
                at: Some(at),
            })
            .collect();
        model.check_take(shard, &taken);
        model.check_queue(shard);
        if *sweep {
            model.sweep(shard, t);
        }
    }
    let (floats, meta) = shard.take_pending(usize::MAX);
    model.check_take(shard, &copied(shard, &floats, &meta));
    model.check_queue(shard);
    assert!(model.queue.is_empty());
}

/// What a copying take returned, window by window.
fn copied(shard: &Shard, floats: &[f32], meta: &[PendingWindow]) -> Vec<Taken> {
    assert_eq!(floats.len(), meta.len() * shard.window_len());
    let windows = floats.chunks_exact(shard.window_len());
    meta.iter()
        .zip(windows)
        .map(|(&meta, w)| Taken {
            meta,
            floats: w.to_vec(),
            at: None,
        })
        .collect()
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
    let mut model = Model::new(window, None, None);
    let mut shard = model.shard(EvictionConfig::unbounded());
    // Windows complete at the 4th, 5th and 6th BSM; each of the first
    // two is still queued in the ring when the next push would
    // overwrite its oldest row.
    for i in 1..=6 {
        model.ingest(&mut shard, &wandering_bsm(7, 0.1 * f64::from(i)));
    }
    assert_eq!(shard.spilled(), 2);
    model.check_queue(&shard);
    // One take holds both spilled windows and the ring's, each read where
    // it lies.
    let mut located = Vec::new();
    assert_eq!(
        shard.take_pending_within(3, 3, |w, at| located.push((*w, at))),
        3
    );
    let kinds: Vec<bool> = located
        .iter()
        .map(|(_, at)| matches!(at, WindowAt::Ring(_)))
        .collect();
    assert_eq!(kinds, [false, false, true]);
    let taken: Vec<Taken> = located
        .into_iter()
        .map(|(meta, at)| Taken {
            meta,
            floats: shard.window_at(at).concat(),
            at: Some(at),
        })
        .collect();
    model.check_take(&mut shard, &taken);
    // Taken, the ring's window needs no spill: the next push is free.
    model.ingest(&mut shard, &wandering_bsm(7, 0.7));
    assert_eq!(shard.spilled(), 2);
    model.check_queue(&shard);
    // The taken windows' spill buffers are free again: two more spills
    // reuse them.
    for i in 8..=9 {
        model.ingest(&mut shard, &wandering_bsm(7, 0.1 * f64::from(i)));
    }
    assert_eq!((shard.spilled(), shard.spill_buffers()), (4, 2));
    let (floats, meta) = shard.take_pending(usize::MAX);
    let taken = copied(&shard, &floats, &meta);
    model.check_take(&mut shard, &taken);
}

#[test]
fn the_model_check_reaches_every_tier0_path() {
    // A fixed run of the proptest's shape: four busy vehicles and an
    // occasional fifth on a gate that trips, four slots, irregular
    // timestamps, periodic sweeps and takes into rooms of 0–3 windows.
    // It must exercise every branch the shard's shared previous message
    // feeds, a take both stopped by a full room and carrying suppressed
    // windows past it, and one holding a vehicle's spilled and in-ring
    // windows together.
    let window = 3;
    let mut model = Model::new(window, Some(6), Some(tripping_gate(window)));
    let mut shard = model.shard(EvictionConfig {
        max_vehicles: Some(4),
        ttl_s: Some(0.45),
    });
    let rounds: Vec<Round> = (0..200u32)
        .map(|r| {
            let mut counts = vec![4u8; 8];
            counts[4] = u8::from(r % 10 == 0);
            let irregular = (0..8).map(|v| ((r * 7 + v) % 10) as u8).collect();
            (
                counts,
                irregular,
                (r % 9) as usize,
                (r % 4) as usize,
                r % 15 == 14,
            )
        })
        .collect();
    drive(&mut shard, &mut model, 5, &rounds);
    let c = &model.coverage;
    println!("{c:?}");
    for (what, n) in [
        ("suppressed windows", c.suppressed),
        ("warm windows screened", c.tripped),
        ("monitor resets", c.resets),
        ("guard rejects", c.rejected),
        ("re-inserted pseudonyms", c.reinserted),
        ("takes stopped by the room", c.stops),
        (
            "suppressed windows taken past a full room",
            c.free_suppressed,
        ),
        (
            "takes holding a vehicle's spilled and in-ring windows",
            c.mixed,
        ),
    ] {
        assert!(n > 0, "no {what}: {c:?}");
    }
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
        let (floats, meta) = shard.take_pending(usize::MAX);
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
        rounds in proptest::collection::vec(
            (
                proptest::collection::vec(0u8..5, 8),
                proptest::collection::vec(0u8..10, 8),
                0usize..12,
                // Mostly rooms small enough to stop a take.
                prop_oneof![0usize..4, 0..=SCORE_TILE],
                any::<bool>(),
            ),
            1..24,
        ),
    ) {
        // cap 0 = an unbounded queue; otherwise the bound sheds windows
        // still in a ring and windows already spilled alike.
        let cap = (cap > 0).then_some(cap);
        let mut model = Model::new(window, cap, gated.then(|| tripping_gate(window)));
        let mut shard = model.shard(EvictionConfig {
            max_vehicles: Some(max_vehicles),
            ttl_s: Some(0.45),
        });
        drive(&mut shard, &mut model, n_vehicles, &rounds);
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
