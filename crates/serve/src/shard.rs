//! Per-shard vehicle state: a slab of per-vehicle slots plus the shard's
//! pending-window queue.
//!
//! A vehicle's pseudonym is hashed to exactly one shard by [`shard_for`],
//! so all of a vehicle's BSMs are processed by the same shard in arrival
//! order and no cross-shard coordination is needed on the ingest path.
//!
//! A slot stores each fact about its vehicle once: the newest accepted
//! BSM, which both the next window row and the next tier-0 residual row
//! are computed against, a [`WindowRing`], a [`Suppression`] and narrow
//! queue bookkeeping; the window length, the scaler and the
//! [`Tier0Calibration`] are the shard's. The shard only steps each
//! vehicle's [`Suppression`]: a completed window is queued with its
//! verdict, and [`Shard::record_gate`] records a screened window's gate
//! score by the slab slot its take named (`tests/shard_props.rs` checks
//! both against a standalone [`WindowBuffer`] and monitor per vehicle).
//!
//! A completed window stays where [`WindowRing::push`] wrote it: the
//! shard's `pending` queue holds its metadata and its vehicle's slab
//! slot. Should the vehicle push again before the tick, the push would
//! overwrite the window's oldest row, so the shard first *spills* the
//! window into one of its reusable window-sized buffers. The tick copies
//! no window: [`Shard::take_pending_within`] hands back where each one
//! lies ([`WindowAt`]: its vehicle's ring, or a spill buffer), and the
//! scoring calls read it there through [`Shard::window_at`] — nothing
//! writes a ring or a spill buffer until the next ingest.
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
//! [`WindowRing::push`]: vehigan_features::WindowRing::push

use std::collections::HashMap;
use vehigan_features::{
    lru_key, EvictionConfig, IngestGuard, MinMaxScaler, RejectCounters, Suppression,
    Tier0Calibration, WindowRing,
};
use vehigan_sim::{Bsm, IdHash, VehicleId};
use vehigan_tensor::Pieces;

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
    /// The tier-0 verdict at window completion ([`Suppression::complete`]):
    /// the vehicle's last real tier-1 gate score, carried in place of
    /// one, or `None` when the window screens. Always `None` when the
    /// shard has no tier-0 calibration.
    pub carried: Option<f32>,
    /// The slab slot of the vehicle: where [`Shard::record_gate`] takes
    /// its gate score until the shard's next ingest or eviction.
    pub slot: u32,
}

/// Where a taken window's floats lie, until the shard's next
/// [`Shard::ingest`] or eviction: read them with [`Shard::window_at`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WindowAt {
    /// The newest window in the ring of the vehicle in this slab slot.
    Ring(u32),
    /// This spill buffer, which the vehicle's next push moved it into.
    Spill(u32),
}

/// [`Slot::in_ring`] when none of the vehicle's queued windows is in its
/// ring.
const NOT_IN_RING: u64 = u64::MAX;

#[derive(Debug)]
struct Slot {
    /// The newest accepted BSM (in arrival order): the reference point
    /// the next one's window row and tier-0 residuals are computed
    /// against. Its `vehicle_id` is the slot's pseudonym.
    prev: Bsm,
    ring: WindowRing,
    /// Tier-0 state and carried gate score, present iff the shard had a
    /// calibration when the slot was built; lost with the slot on
    /// eviction, so a rebuilt vehicle screens until tier 1 runs again.
    suppression: Option<Suppression>,
    /// Windows from this vehicle sitting in `pending` (not yet taken or
    /// shed). Eviction never removes a slot while this is non-zero, so
    /// the queue may name its windows by slot index.
    in_flight: u32,
    /// Queue sequence number of this vehicle's window that still lives in
    /// its ring (its newest, queued and not spilled), or [`NOT_IN_RING`].
    in_ring: u64,
    /// Timestamp of the newest accepted BSM: the guard's staleness
    /// reference and the TTL/LRU age. It never moves backwards when the
    /// guard tolerates reordering.
    newest: f64,
}

/// A queued window: its metadata, with the slab slot of the vehicle
/// that produced it, and where its floats are.
#[derive(Debug, Clone, Copy)]
struct Queued {
    meta: PendingWindow,
    /// The spill buffer holding the floats, or `None` while they are
    /// still the newest window in the vehicle's ring.
    spill: Option<u32>,
}

/// One worker shard: a slab of per-vehicle slots and the queue of windows
/// awaiting the next batch tick.
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
    /// Vehicles inserted afterwards get a fresh [`Suppression`];
    /// already-resident vehicles lose theirs and stay ungated (their
    /// windows keep screening through tier 1) — in practice the gate is
    /// configured at construction, before any traffic.
    pub fn with_tier0(mut self, tier0: Option<Tier0Calibration>) -> Self {
        self.tier0 = tier0;
        for slot in self.slots.iter_mut().flatten() {
            slot.suppression = None;
        }
        self
    }

    /// Ingests one BSM: validates it against the shard's [`IngestGuard`]
    /// (rejections are counted and touch no state — not even a slab slot
    /// for an unseen pseudonym), then pushes the pair it forms with the
    /// sender's previous BSM into the sender's window ring and
    /// [`Suppression`]; if the push completes a window, queues it with its
    /// tier-0 verdict for the next tick, shedding the oldest queued window
    /// when the queue bound would overflow. An unseen pseudonym's first
    /// BSM only builds its slot.
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
        let Some(slot_idx) = existing else {
            self.insert_vehicle(bsm);
            return true;
        };
        // The push overwrites the ring's oldest row, so a window still
        // queued there moves out first.
        let seq = self.slot(slot_idx).in_ring;
        if seq != NOT_IN_RING {
            self.spill_window(seq);
        }
        let tier0 = self.tier0.as_ref();
        let slot = self.slots[slot_idx].as_mut().expect("indexed slot is live");
        slot.newest = slot.newest.max(bsm.timestamp);
        let prev = std::mem::replace(&mut slot.prev, *bsm);
        if let Some((cal, s)) = tier0.zip(slot.suppression.as_mut()) {
            s.push(cal, &prev, bsm);
        }
        if slot
            .ring
            .push(self.window, &self.scaler, &prev, bsm)
            .is_some()
        {
            let carried = tier0
                .zip(slot.suppression.as_mut())
                .and_then(|(cal, s)| s.complete(cal));
            if let Some(cap) = self.max_pending {
                let cap = cap.max(1);
                if self.pending.len() >= cap {
                    let over = self.pending.len() + 1 - cap;
                    self.shed_oldest(over);
                }
            }
            let slot = self.slots[slot_idx].as_mut().expect("indexed slot is live");
            slot.in_flight += 1;
            slot.in_ring = self.front + self.pending.len() as u64;
            self.pending.push(Queued {
                meta: PendingWindow {
                    vehicle: bsm.vehicle_id,
                    timestamp: bsm.timestamp,
                    carried,
                    slot: slot_idx as u32,
                },
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
        let (window, len) = (self.window, self.window_len());
        let queued = &mut self.pending[(seq - self.front) as usize];
        let i = self.spill_free.pop().unwrap_or_else(|| {
            self.spill.resize(self.spill.len() + len, 0.0);
            (self.spill.len() / len - 1) as u32
        });
        let slot = self.slots[queued.meta.slot as usize]
            .as_mut()
            .expect("in-flight slot is live");
        let window = slot.ring.last_window(window).expect("queued window");
        let dst = &mut self.spill[i as usize * len..][..len];
        let (older, newer) = dst.split_at_mut(window.older.len());
        older.copy_from_slice(window.older);
        newer.copy_from_slice(window.newer);
        queued.spill = Some(i);
        slot.in_ring = NOT_IN_RING;
        self.spilled += 1;
    }

    /// Records a screened window's real tier-1 gate score on the
    /// [`Suppression`] in [`PendingWindow::slot`]; a no-op without tier 0.
    ///
    /// # Panics
    ///
    /// Panics if `slot` holds no vehicle: call it before the shard's next
    /// ingest or eviction.
    pub fn record_gate(&mut self, slot: u32, score: f32) {
        let slot = self.slots[slot as usize]
            .as_mut()
            .expect("a taken slot is live");
        if let Some(s) = slot.suppression.as_mut() {
            s.record(score);
        }
    }

    /// Allocates a slab slot for a new pseudonym from its first accepted
    /// BSM, evicting the least-recently-updated *idle* vehicle first when
    /// the shard is at its `max_vehicles` bound. A vehicle with in-flight
    /// pending windows is never evicted, so the slab can transiently
    /// exceed the bound rather than drop undrained work.
    fn insert_vehicle(&mut self, first: &Bsm) {
        if let Some(cap) = self.eviction.max_vehicles {
            if self.index.len() >= cap.max(1) {
                self.evict_lru_idle();
            }
        }
        let slot = Slot {
            prev: *first,
            ring: WindowRing::new(self.window, self.features),
            suppression: self.tier0.as_ref().map(Suppression::new),
            in_flight: 0,
            in_ring: NOT_IN_RING,
            newest: first.timestamp,
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
        self.index.insert(first.vehicle_id, idx);
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
            .map(|s| (lru_key(s.newest), s.prev.vehicle_id))
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
                self.index.remove(&slot.prev.vehicle_id);
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
    pub(crate) fn shed_oldest(&mut self, n: usize) -> usize {
        let n = n.min(self.pending.len());
        self.dequeue(n, |_, _, _| {});
        self.shed += n as u64;
        n
    }

    /// Takes up to `n` of the **oldest** queued windows for scoring
    /// (FIFO service order), leaving the rest queued for later ticks and
    /// clearing the taken windows' in-flight marks. Returns a copy of
    /// their floats, back to back, and their metadata.
    pub fn take_pending(&mut self, n: usize) -> (Vec<f32>, Vec<PendingWindow>) {
        let n = n.min(self.pending.len());
        let mut meta = Vec::with_capacity(n);
        let mut floats = Vec::with_capacity(n * self.window_len());
        self.dequeue(n, |w, _, [older, newer]| {
            floats.extend_from_slice(older);
            floats.extend_from_slice(newer);
            meta.push(*w);
        });
        (floats, meta)
    }

    /// Takes up to `n` of the **oldest** queued windows like
    /// [`Shard::take_pending`], for a scoring tile with room for `room`
    /// more windows, and copies none of them: each taken window's
    /// metadata and [`WindowAt`] — where its floats lie, for
    /// [`Shard::window_at`] — are shown to `visit`, in queue order. A
    /// window tier 0 suppressed costs no room: it carries its score and is
    /// never read. The take stops before the first window the tile has no
    /// room for, leaving it and every younger window queued where they
    /// are. Returns how many windows were taken.
    pub fn take_pending_within(
        &mut self,
        n: usize,
        room: usize,
        mut visit: impl FnMut(&PendingWindow, WindowAt),
    ) -> usize {
        let (mut n_taken, mut n_read) = (0, 0);
        for q in self.pending.iter().take(n) {
            if q.meta.carried.is_none() {
                if n_read == room {
                    break;
                }
                n_read += 1;
            }
            n_taken += 1;
        }
        self.dequeue(n_taken, |w, at, _| visit(w, at));
        n_taken
    }

    /// A taken window's floats, as two pieces in arrival order, where
    /// [`Shard::take_pending_within`] said they lie. They stay there until
    /// the shard's next [`Shard::ingest`] (which may push over the ring or
    /// reuse the spill buffer) or eviction.
    ///
    /// # Panics
    ///
    /// Panics if `at` names a slot with no vehicle, a vehicle whose ring
    /// holds no window, or a spill buffer the shard never had.
    pub fn window_at(&self, at: WindowAt) -> Pieces<'_> {
        match at {
            WindowAt::Ring(slot) => {
                let window = self.slot(slot as usize).ring.last_window(self.window);
                let window = window.expect("a taken window is still its vehicle's newest");
                [window.older, window.newer]
            }
            WindowAt::Spill(i) => {
                let len = self.window_len();
                [&self.spill[i as usize * len..][..len], &[]]
            }
        }
    }

    /// Removes the `n` oldest queued windows, showing each to `visit`
    /// with where its floats lie and the floats themselves (two slices in
    /// arrival order), then clearing its in-flight mark and freeing its
    /// spill buffer.
    fn dequeue(&mut self, n: usize, mut visit: impl FnMut(&PendingWindow, WindowAt, Pieces<'_>)) {
        let (window, len) = (self.window, self.window_len());
        for q in self.pending.drain(..n) {
            let slot = self.slots[q.meta.slot as usize]
                .as_mut()
                .expect("in-flight slot is live");
            slot.in_flight -= 1;
            match q.spill {
                None => {
                    slot.in_ring = NOT_IN_RING;
                    let window = slot.ring.last_window(window).expect("queued window");
                    let at = WindowAt::Ring(q.meta.slot);
                    visit(&q.meta, at, [window.older, window.newer]);
                }
                Some(i) => {
                    self.spill_free.push(i);
                    let floats = &self.spill[i as usize * len..][..len];
                    visit(&q.meta, WindowAt::Spill(i), [floats, &[]]);
                }
            }
        }
        self.front += n as u64;
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
    pub(crate) fn evicted(&self) -> u64 {
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

    /// Spill buffers the shard holds, in use or free for reuse: the most
    /// windows it ever had spilled at once.
    pub fn spill_buffers(&self) -> usize {
        self.spill.len().checked_div(self.window_len()).unwrap_or(0)
    }

    /// Floats per snapshot (`window × features`).
    pub fn window_len(&self) -> usize {
        self.window * self.features
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_slot_fits_in_four_cache_lines() {
        // One previous BSM, the two per-vehicle cores and narrow counters;
        // with a second `prev`, the tier-0 parameters and the scaler and
        // window length per slot it read 440 bytes.
        let size = std::mem::size_of::<Slot>();
        assert!(size <= 256, "a slab slot is {size} bytes");
    }
}
