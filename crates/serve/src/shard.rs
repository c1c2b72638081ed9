//! Per-shard vehicle state: a slab of ring-buffer [`WindowBuffer`]s plus
//! the shard's pending-window queue.
//!
//! A vehicle's pseudonym is hashed to exactly one shard by [`shard_for`],
//! so all of a vehicle's BSMs are processed by the same shard in arrival
//! order and no cross-shard coordination is needed on the ingest path.
//! A completed window stays where [`WindowBuffer::push`] wrote it: the
//! shard's `pending` queue holds its metadata and its vehicle's slab
//! slot, and the tick copies its floats from the ring straight into one
//! cross-vehicle batch — only for windows the tick will score. Should the
//! vehicle push again before the tick, the push would overwrite the
//! window's oldest row, so the shard first *spills* the window into one
//! of its reusable window-sized buffers.
//!
//! Two robustness layers sit in front of that queue (DESIGN.md §11):
//!
//! - an [`IngestGuard`] validates every BSM (finiteness, optional
//!   physical range limits, per-vehicle staleness against the newest
//!   accepted timestamp) *before* it touches window state, so one NaN
//!   field or replayed message cannot poison a snapshot — rejections are
//!   counted per [`vehigan_features::RejectReason`] class;
//! - an optional pending-queue bound sheds the **oldest** queued window
//!   when a new one would overflow it, so a traffic burst degrades into
//!   counted, deterministic window loss instead of unbounded memory.
//!
//! [`WindowBuffer`]: vehigan_features::WindowBuffer
//! [`WindowBuffer::push`]: vehigan_features::WindowBuffer::push

use std::collections::HashMap;
use vehigan_features::{
    lru_key, EvictionConfig, GateDecision, IngestGuard, MinMaxScaler, RejectCounters,
    Tier0Calibration, Tier0Monitor, WindowBuffer,
};
use vehigan_sim::{Bsm, IdHash, VehicleId};

/// Maps a pseudonym to its owning shard.
///
/// Fibonacci multiplicative hashing on the raw id: pure, stateless, and
/// stable across runs, processes, and shard iteration order — the
/// property the shard-assignment proptest pins down. Changing this
/// function redistributes every vehicle, so treat it as a wire format.
pub fn shard_for(vehicle: VehicleId, n_shards: usize) -> usize {
    assert!(n_shards > 0, "shard count must be positive");
    let h = (vehicle.0 as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    ((h >> 33) % n_shards as u64) as usize
}

/// A window snapshot queued for the next batch tick.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PendingWindow {
    /// Pseudonym that produced the snapshot.
    pub vehicle: VehicleId,
    /// Timestamp of the BSM that completed the window.
    pub timestamp: f64,
    /// Tier-0 verdict at window completion: `true` means the vehicle's
    /// kinematic monitors were warm and every statistic sat inside its
    /// calibrated decision interval, so the window may skip tier 1.
    /// Always `false` when the shard has no tier-0 calibration.
    pub suppressed: bool,
    /// The score a suppressed window reports in place of an ensemble
    /// score: the vehicle's last real tier-1 gate score, carried forward
    /// while the monitors certify its kinematics unchanged (recorded via
    /// [`Shard::record_gate`]). `0.0` when `suppressed` is `false`.
    pub pinned: f32,
}

#[derive(Debug)]
struct Slot {
    vehicle: VehicleId,
    buffer: WindowBuffer,
    /// Tier-0 kinematic monitor, present iff the shard was built with a
    /// calibration. Reset on out-of-order input by its own `push` and
    /// discarded wholesale with the slot on eviction.
    monitor: Option<Tier0Monitor>,
    /// Last real tier-1 gate score recorded for this vehicle (the score
    /// a suppressed window carries forward). `None` until the first
    /// screened window is scored — a vehicle's first window always runs
    /// tier-1 — and lost with the slot on eviction.
    last_gate: Option<f32>,
    /// Consecutive suppressed windows since the last recorded tier-1
    /// score; suppression requires `streak < refresh`.
    streak: u32,
    /// Windows from this vehicle sitting in `pending` (not yet taken or
    /// shed). Eviction never removes a slot while this is non-zero, so
    /// the queue may name its windows by slot index.
    in_flight: usize,
    /// Queue sequence number of this vehicle's window that still lives in
    /// its ring (its newest, queued and not spilled), if any.
    in_ring: Option<u64>,
    /// Timestamp of the newest accepted BSM: the guard's staleness
    /// reference and the TTL/LRU age. It never moves backwards when the
    /// guard tolerates reordering.
    newest: f64,
}

/// A queued window: its metadata, the slab slot of the vehicle that
/// produced it, and where its floats are.
#[derive(Debug, Clone, Copy)]
struct Queued {
    meta: PendingWindow,
    slot: usize,
    /// The spill buffer holding the floats, or `None` while they are
    /// still the newest window in the vehicle's ring.
    spill: Option<u32>,
}

/// One worker shard: a slab of per-vehicle window buffers and the queue
/// of windows awaiting the next batch tick.
#[derive(Debug)]
pub struct Shard {
    window: usize,
    features: usize,
    scaler: MinMaxScaler,
    eviction: EvictionConfig,
    guard: IngestGuard,
    /// Pending-queue bound; overflow sheds the oldest queued window.
    /// `None` = unbounded (the historical behavior).
    max_pending: Option<usize>,
    /// Tier-0 gate calibration; `None` disables the gate so every window
    /// screens through tier 1 (the historical behavior).
    tier0: Option<Tier0Calibration>,
    slots: Vec<Option<Slot>>,
    free: Vec<usize>,
    index: HashMap<VehicleId, usize, IdHash>,
    /// Queued windows in ingestion order; `pending[i]` has sequence
    /// number `front + i`.
    pending: Vec<Queued>,
    /// Windows ever removed from the front of `pending`.
    front: u64,
    /// Spill buffers, `window × features` floats each, reused through
    /// `spill_free`.
    spill: Vec<f32>,
    spill_free: Vec<u32>,
    ingested: u64,
    evicted: u64,
    rejects: RejectCounters,
    shed: u64,
    spilled: u64,
}

impl Shard {
    /// Creates an empty shard with a permissive guard and an unbounded
    /// pending queue (the historical behavior).
    pub fn new(window: usize, scaler: MinMaxScaler, eviction: EvictionConfig) -> Self {
        Self::with_guard(window, scaler, eviction, IngestGuard::permissive(), None)
    }

    /// Creates an empty shard with an explicit [`IngestGuard`] and
    /// optional pending-queue bound.
    pub fn with_guard(
        window: usize,
        scaler: MinMaxScaler,
        eviction: EvictionConfig,
        guard: IngestGuard,
        max_pending: Option<usize>,
    ) -> Self {
        let features = scaler.width();
        Shard {
            window,
            features,
            scaler,
            eviction,
            guard,
            max_pending,
            tier0: None,
            slots: Vec::new(),
            free: Vec::new(),
            index: HashMap::default(),
            pending: Vec::new(),
            front: 0,
            spill: Vec::new(),
            spill_free: Vec::new(),
            ingested: 0,
            evicted: 0,
            rejects: RejectCounters::default(),
            shed: 0,
            spilled: 0,
        }
    }

    /// Arms (or disarms, with `None`) the tier-0 kinematic gate.
    ///
    /// Vehicles inserted afterwards get a fresh [`Tier0Monitor`];
    /// already-resident vehicles stay ungated (their windows keep
    /// screening through tier 1) — in practice the gate is configured at
    /// construction, before any traffic.
    pub fn with_tier0(mut self, tier0: Option<Tier0Calibration>) -> Self {
        self.tier0 = tier0;
        self
    }

    /// Ingests one BSM: validates it against the shard's [`IngestGuard`]
    /// (rejections are counted and touch no state — not even a slab slot
    /// for an unseen pseudonym), then pushes it into the sender's window
    /// buffer; if the push completes a window, queues it for the next
    /// tick, shedding the oldest queued window when the queue bound would
    /// overflow.
    ///
    /// Returns whether the message was accepted.
    pub fn ingest(&mut self, bsm: &Bsm) -> bool {
        self.ingested += 1;
        let existing = self.index.get(&bsm.vehicle_id).copied();
        let newest = existing.map(|i| self.slot(i).newest);
        if let Err(reason) = self.guard.validate(bsm, newest) {
            self.rejects.count(reason);
            return false;
        }
        let slot_idx = match existing {
            Some(i) => i,
            None => self.insert_vehicle(bsm.vehicle_id),
        };
        // The push overwrites the ring's oldest row, so a window still
        // queued there moves out first.
        if let Some(seq) = self.slot(slot_idx).in_ring {
            self.spill_window(seq);
        }
        let tier0 = self.tier0;
        let slot = self.slots[slot_idx].as_mut().expect("indexed slot is live");
        slot.newest = slot.newest.max(bsm.timestamp);
        if let Some(monitor) = slot.monitor.as_mut() {
            monitor.push(bsm);
        }
        if slot.buffer.push(bsm).is_some() {
            // Evaluate the gate at window completion, while the slot
            // borrow is live; a missing calibration or monitor screens.
            // Physics alone is not enough to suppress: the vehicle must
            // also hold a fresh (streak < refresh) sub-detection tier-1
            // score to carry forward, so its first window — and at least
            // every `refresh + 1`-th thereafter — runs the real gate.
            let (suppressed, pinned) = match (tier0, slot.monitor.as_ref()) {
                (Some(cal), Some(monitor)) => match (cal.evaluate(monitor).0, slot.last_gate) {
                    (GateDecision::Suppress, Some(g))
                        if g < cal.tau && slot.streak < cal.refresh =>
                    {
                        (true, g)
                    }
                    _ => (false, 0.0),
                },
                _ => (false, 0.0),
            };
            if let Some(cap) = self.max_pending {
                let cap = cap.max(1);
                if self.pending.len() >= cap {
                    let over = self.pending.len() + 1 - cap;
                    self.shed_oldest(over);
                }
            }
            let slot = self.slots[slot_idx].as_mut().expect("indexed slot is live");
            if suppressed {
                slot.streak += 1;
            }
            slot.in_flight += 1;
            slot.in_ring = Some(self.front + self.pending.len() as u64);
            self.pending.push(Queued {
                meta: PendingWindow {
                    vehicle: bsm.vehicle_id,
                    timestamp: bsm.timestamp,
                    suppressed,
                    pinned,
                },
                slot: slot_idx,
                spill: None,
            });
        }
        true
    }

    fn slot(&self, idx: usize) -> &Slot {
        self.slots[idx].as_ref().expect("indexed slot is live")
    }

    /// Moves the queued window with sequence number `seq` out of its
    /// vehicle's ring into a spill buffer (reused once one is free).
    fn spill_window(&mut self, seq: u64) {
        let len = self.window_len();
        let queued = &mut self.pending[(seq - self.front) as usize];
        let i = self.spill_free.pop().unwrap_or_else(|| {
            self.spill.resize(self.spill.len() + len, 0.0);
            (self.spill.len() / len - 1) as u32
        });
        let slot = self.slots[queued.slot]
            .as_mut()
            .expect("in-flight slot is live");
        let window = slot.buffer.last_window().expect("queued window");
        let dst = &mut self.spill[i as usize * len..][..len];
        let (older, newer) = dst.split_at_mut(window.older.len());
        older.copy_from_slice(window.older);
        newer.copy_from_slice(window.newer);
        queued.spill = Some(i);
        slot.in_ring = None;
        self.spilled += 1;
    }

    /// Records the real tier-1 gate score of a screened window back onto
    /// the vehicle's slot: the carried score its suppressed windows will
    /// reuse, and the refresh-streak reset. A vanished vehicle (evicted
    /// between snapshot and tick) is a no-op — its rebuilt slot starts
    /// with no carried score and screens until tier-1 runs again.
    pub fn record_gate(&mut self, vehicle: VehicleId, score: f32) {
        if let Some(&i) = self.index.get(&vehicle) {
            if let Some(slot) = self.slots[i].as_mut() {
                slot.last_gate = Some(score);
                slot.streak = 0;
            }
        }
    }

    /// Allocates a slab slot for a new pseudonym, evicting the
    /// least-recently-updated *idle* vehicle first when the shard is at
    /// its `max_vehicles` bound. A vehicle with in-flight pending windows
    /// is never evicted, so the slab can transiently exceed the bound
    /// rather than drop undrained work.
    fn insert_vehicle(&mut self, vehicle: VehicleId) -> usize {
        if let Some(cap) = self.eviction.max_vehicles {
            if self.index.len() >= cap.max(1) {
                self.evict_lru_idle();
            }
        }
        let buffer = WindowBuffer::new(self.window, self.scaler.clone());
        let slot = Slot {
            vehicle,
            buffer,
            monitor: self.tier0.map(|cal| Tier0Monitor::new(cal.params)),
            last_gate: None,
            streak: 0,
            in_flight: 0,
            in_ring: None,
            newest: f64::NEG_INFINITY,
        };
        let idx = match self.free.pop() {
            Some(i) => {
                self.slots[i] = Some(slot);
                i
            }
            None => {
                self.slots.push(Some(slot));
                self.slots.len() - 1
            }
        };
        self.index.insert(vehicle, idx);
        idx
    }

    /// Evicts the least-recently-updated vehicle with no pending windows
    /// (ties broken by pseudonym; a NaN timestamp counts as oldest via
    /// [`lru_key`] instead of panicking the sweep). A no-op when every
    /// vehicle has in-flight work.
    fn evict_lru_idle(&mut self) {
        let victim = self
            .slots
            .iter()
            .flatten()
            .filter(|s| s.in_flight == 0)
            .map(|s| (lru_key(s.newest), s.vehicle))
            .min_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)))
            .map(|(_, id)| id);
        if let Some(id) = victim {
            self.remove(id);
            self.evicted += 1;
        }
    }

    /// Drops vehicles whose TTL expired at stream time `now`, skipping
    /// any with in-flight pending windows. Returns how many were evicted.
    pub fn evict_stale(&mut self, now: f64) -> usize {
        if self.eviction.ttl_s.is_none() {
            return 0;
        }
        let mut evicted = 0;
        for (idx, cell) in self.slots.iter_mut().enumerate() {
            let Some(slot) = cell else { continue };
            if slot.in_flight == 0 && self.eviction.is_stale(slot.newest, now) {
                self.index.remove(&slot.vehicle);
                *cell = None;
                self.free.push(idx);
                evicted += 1;
            }
        }
        self.evicted += evicted as u64;
        evicted
    }

    fn remove(&mut self, vehicle: VehicleId) {
        if let Some(idx) = self.index.remove(&vehicle) {
            self.slots[idx] = None;
            self.free.push(idx);
        }
    }

    /// Removes the `n` **oldest** queued windows without scoring them
    /// (admission-control shedding), clearing their in-flight marks so
    /// eviction sees the truth. Returns how many were shed.
    ///
    /// Oldest-first is the deterministic drop-head policy: under
    /// overload the stalest backlog is sacrificed so freshly completed
    /// windows — the ones a detection would still be actionable for —
    /// keep flowing.
    pub fn shed_oldest(&mut self, n: usize) -> usize {
        let n = n.min(self.pending.len());
        self.dequeue(n, |_, _| {});
        self.shed += n as u64;
        n
    }

    /// Takes up to `n` of the **oldest** queued windows for scoring
    /// (FIFO service order), leaving the rest queued for later ticks and
    /// clearing the taken windows' in-flight marks.
    pub fn take_pending(&mut self, n: usize) -> (Vec<f32>, Vec<PendingWindow>) {
        let (mut floats, mut meta) = (Vec::new(), Vec::new());
        self.take_pending_into(n, true, &mut floats, &mut meta);
        (floats, meta)
    }

    /// [`Shard::take_pending`], appending to the caller's buffers: each
    /// window's floats are copied from where they sit — its vehicle's
    /// ring, or a spill buffer — straight into `floats`.
    ///
    /// With `suppressed_floats` off, the windows tier 0 suppressed are
    /// left out of `floats` and never copied at all (their `meta`
    /// entries are still taken): a caller that honours the verdict never
    /// reads them.
    pub fn take_pending_into(
        &mut self,
        n: usize,
        suppressed_floats: bool,
        floats: &mut Vec<f32>,
        meta: &mut Vec<PendingWindow>,
    ) {
        let n = n.min(self.pending.len());
        meta.reserve(n);
        if suppressed_floats {
            floats.reserve(n * self.window_len());
        }
        self.dequeue(n, |w, [older, newer]| {
            if suppressed_floats || !w.suppressed {
                floats.extend_from_slice(older);
                floats.extend_from_slice(newer);
            }
            meta.push(*w);
        });
    }

    /// Removes the `n` oldest queued windows, showing each to `visit`
    /// with its floats (two slices in arrival order), then clearing its
    /// in-flight mark and freeing its spill buffer.
    fn dequeue(&mut self, n: usize, mut visit: impl FnMut(&PendingWindow, [&[f32]; 2])) {
        let len = self.window_len();
        for q in self.pending.drain(..n) {
            let slot = self.slots[q.slot].as_mut().expect("in-flight slot is live");
            slot.in_flight -= 1;
            match q.spill {
                None => {
                    slot.in_ring = None;
                    let window = slot.buffer.last_window().expect("queued window");
                    visit(&q.meta, [window.older, window.newer]);
                }
                Some(i) => {
                    self.spill_free.push(i);
                    visit(&q.meta, [&self.spill[i as usize * len..][..len], &[]]);
                }
            }
        }
        self.front += n as u64;
    }

    /// Drains the whole pending queue: the flat snapshot floats and their
    /// metadata, in ingestion order. Clears all in-flight marks.
    pub fn drain_pending(&mut self) -> (Vec<f32>, Vec<PendingWindow>) {
        let n = self.pending.len();
        self.take_pending(n)
    }

    /// Number of windows awaiting the next tick.
    pub fn pending_windows(&self) -> usize {
        self.pending.len()
    }

    /// Number of vehicles currently resident in the slab.
    pub fn num_vehicles(&self) -> usize {
        self.index.len()
    }

    /// Whether `vehicle` is resident in this shard.
    pub fn contains(&self, vehicle: VehicleId) -> bool {
        self.index.contains_key(&vehicle)
    }

    /// Whether `vehicle` currently has pending (undrained) windows.
    pub fn has_in_flight(&self, vehicle: VehicleId) -> bool {
        self.index
            .get(&vehicle)
            .and_then(|&i| self.slots[i].as_ref())
            .is_some_and(|s| s.in_flight > 0)
    }

    /// BSMs processed by this shard since construction (accepted and
    /// rejected alike).
    pub fn ingested(&self) -> u64 {
        self.ingested
    }

    /// Vehicles evicted by LRU or TTL since construction.
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// Rejections by the shard's [`IngestGuard`], per reason class.
    pub fn rejects(&self) -> RejectCounters {
        self.rejects
    }

    /// Windows shed by the pending-queue bound or admission control.
    pub fn shed(&self) -> u64 {
        self.shed
    }

    /// Queued windows moved out of their vehicle's ring into a spill
    /// buffer because the vehicle pushed again before they were taken.
    pub fn spilled(&self) -> u64 {
        self.spilled
    }

    /// Floats per snapshot (`window × features`).
    pub fn window_len(&self) -> usize {
        self.window * self.features
    }
}
