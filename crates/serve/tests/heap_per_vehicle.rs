//! What a tracked vehicle and a window in flight cost a shard, counted
//! per thread by a global allocator.
//!
//! - A warm pseudonym pays for its window ring, tier-0 monitor and its
//!   share of the slab and the index. Every buffer shares the shard's
//!   scaler; a private scaler copy and snapshot tensor per vehicle would
//!   cost ≈ 770 bytes more and fail the bound.
//! - A queued window pays for its queue entry only: its floats stay in
//!   the vehicle's ring until the tick takes them. Copying the 480 bytes
//!   into the queue, as the shard once did, costs 503 bytes a window
//!   and fails the bound.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use vehigan_features::{EvictionConfig, MinMaxScaler, Tier0Calibration};
use vehigan_serve::Shard;
use vehigan_sim::{Bsm, SimConfig, TrafficSimulator, VehicleId, VehicleTrace};

struct Counting;

thread_local! {
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

// SAFETY: defers every operation to `System`; the counter is a
// const-initialized thread-local `Cell` with no destructor, so touching
// it inside the allocator cannot itself allocate or run after teardown.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.with(|c| c.set(c.get() + layout.size() as i64));
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.with(|c| c.set(c.get() - layout.size() as i64));
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.with(|c| c.set(c.get() + new_size as i64 - layout.size() as i64));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn live() -> i64 {
    LIVE.with(Cell::get)
}

/// Heap bytes per warm vehicle: at most this (a slot sharing the scaler
/// reads 954 B, one with a private scaler and snapshot tensor 1707 B).
const BOUND_BYTES: f64 = 1_300.0;

/// Heap bytes per queued window: at most this (an entry naming the
/// window's slot reads 40 B, a copy of its floats plus metadata 503 B).
const BOUND_BYTES_PER_WINDOW: f64 = 64.0;

const VEHICLES: u32 = 1024;
const WINDOW: usize = 10;

fn fleet() -> Vec<VehicleTrace> {
    TrafficSimulator::new(SimConfig {
        n_vehicles: 4,
        duration_s: 30.0,
        seed: 2,
        ..SimConfig::default()
    })
    .run()
}

/// A gated shard with `VEHICLES` warm pseudonyms, each fed `WINDOW + 1`
/// BSMs of one trace (completing its first window) and drained after
/// every vehicle, so the queue stays one window deep. Returns the shard
/// and the heap bytes it grew by.
fn warm_shard(fleet: &[VehicleTrace]) -> (Shard, i64) {
    let tier0 = Tier0Calibration::fit(fleet, WINDOW, 0.995).expect("tier-0 fits");
    let scaler = MinMaxScaler::fit(&[vec![-1e3; 12], vec![1e3; 12]]);
    let mut shard = Shard::new(WINDOW, scaler, EvictionConfig::unbounded()).with_tier0(Some(tier0));
    let before = live();
    for v in 0..VEHICLES {
        for bsm in &fleet[0].bsms[..WINDOW + 1] {
            assert!(shard.ingest(&Bsm {
                vehicle_id: VehicleId(v),
                ..*bsm
            }));
        }
        let (_, meta) = shard.take_pending(usize::MAX);
        assert_eq!(meta.len(), 1, "vehicle {v} completed no window");
    }
    let grown = live() - before;
    (shard, grown)
}

#[test]
fn a_tracked_vehicle_costs_its_own_state_only() {
    let fleet = fleet();
    let (shard, grown) = warm_shard(&fleet);
    let per_vehicle = grown as f64 / f64::from(VEHICLES);
    println!("heap per tracked vehicle: {per_vehicle:.0} B");
    assert_eq!(shard.num_vehicles(), VEHICLES as usize);
    assert!(
        per_vehicle <= BOUND_BYTES,
        "a tracked vehicle costs {per_vehicle:.0} heap bytes (bound {BOUND_BYTES})"
    );
}

#[test]
fn a_queued_window_costs_its_queue_entry_only() {
    let fleet = fleet();
    let (mut shard, _) = warm_shard(&fleet);
    // One more BSM per warm vehicle completes one more window each, left
    // queued: what grows now is the queue alone.
    let next = fleet[0].bsms[WINDOW + 1];
    let before = live();
    for v in 0..VEHICLES {
        assert!(shard.ingest(&Bsm {
            vehicle_id: VehicleId(v),
            ..next
        }));
    }
    let per_window = (live() - before) as f64 / f64::from(VEHICLES);
    println!("heap per queued window: {per_window:.0} B");
    assert_eq!(shard.pending_windows(), VEHICLES as usize);
    assert!(
        per_window <= BOUND_BYTES_PER_WINDOW,
        "a queued window costs {per_window:.0} heap bytes (bound {BOUND_BYTES_PER_WINDOW})"
    );
}
