//! What a tracked vehicle costs a shard: the live heap bytes of one warm
//! pseudonym (window ring, tier-0 monitor, its share of the slab and the
//! index), counted per thread by a global allocator. A slot holds only
//! its own state: every buffer shares the shard's scaler, and a completed
//! window goes from the ring straight into the pending queue. A private
//! scaler copy and snapshot tensor per vehicle would cost ≈ 770 bytes
//! more and fail the bound.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use vehigan_features::{EvictionConfig, MinMaxScaler, Tier0Calibration};
use vehigan_serve::Shard;
use vehigan_sim::{SimConfig, TrafficSimulator, VehicleId};

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
/// reads 939 B, one with a private scaler and snapshot tensor 1707 B).
const BOUND_BYTES: f64 = 1_300.0;

#[test]
fn a_tracked_vehicle_costs_its_own_state_only() {
    const VEHICLES: u32 = 1024;
    let window = 10;
    let fleet = TrafficSimulator::new(SimConfig {
        n_vehicles: 4,
        duration_s: 30.0,
        seed: 2,
        ..SimConfig::default()
    })
    .run();
    let tier0 = Tier0Calibration::fit(&fleet, window, 0.995).expect("tier-0 fits");
    let scaler = MinMaxScaler::fit(&[vec![-1e3; 12], vec![1e3; 12]]);
    let mut shard = Shard::new(window, scaler, EvictionConfig::unbounded()).with_tier0(Some(tier0));
    // `window + 1` BSMs complete each vehicle's first window; draining
    // after every vehicle keeps the queue one window deep, so what grows
    // is the vehicle state alone.
    let trace = &fleet[0].bsms[..window + 1];
    let before = live();
    for v in 0..VEHICLES {
        for bsm in trace {
            let mut bsm = *bsm;
            bsm.vehicle_id = VehicleId(v);
            assert!(shard.ingest(&bsm));
        }
        let (_, meta) = shard.take_pending(usize::MAX);
        assert_eq!(meta.len(), 1, "vehicle {v} completed no window");
    }
    let per_vehicle = (live() - before) as f64 / f64::from(VEHICLES);
    println!("heap per tracked vehicle: {per_vehicle:.0} B");
    assert_eq!(shard.num_vehicles(), VEHICLES as usize);
    assert!(
        per_vehicle <= BOUND_BYTES,
        "a tracked vehicle costs {per_vehicle:.0} heap bytes (bound {BOUND_BYTES})"
    );
}
