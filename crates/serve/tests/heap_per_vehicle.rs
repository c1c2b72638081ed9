//! What a tracked vehicle and a window in flight cost a shard, and what
//! a tick holds while it scores, counted per thread by a global
//! allocator that also tracks its peak.
//!
//! - A warm pseudonym pays for its 480-byte window ring, its 240-byte
//!   slab slot (one previous BSM, the ring and tier-0 state, counters)
//!   and its share of the index: 754 bytes. A slot that also kept a
//!   second previous BSM, the tier-0 parameters, the scaler handle and
//!   the window length per vehicle read 440 bytes, 954 per vehicle, and
//!   fails the bound; a private scaler copy and snapshot tensor per
//!   vehicle on top of that cost 1707.
//! - A queued window pays for its queue entry only: its floats stay in
//!   the vehicle's ring until the tick takes them. Copying the 480 bytes
//!   into the queue, as the shard once did, costs 503 bytes a window
//!   and fails the bound.
//! - A tick copies no window: both tiers read each one where it lies,
//!   in its vehicle's ring or its shard's spill buffer. One that admits
//!   four tiles of windows grows the caller's heap by 15 KiB at its peak:
//!   its 12 KiB of decisions, one tile's window locations (2 KiB) and
//!   scores. Escalating every window to tier 2 adds 16 B of location per
//!   window, 23 KiB in all, besides the reports it leaves for
//!   `take_reports`. A tick that streamed the windows through a
//!   128-window tile of copies read 74 KiB, and under a gate it also
//!   kept a 480-byte copy of each escalated window (over 300 KiB here);
//!   one that copied every admitted window into one batch first read
//!   292 KiB. All fail the bounds.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use vehigan_core::{CriticMember, VehiGan, Wgan, WganConfig};
use vehigan_features::{EvictionConfig, MinMaxScaler, Tier0Calibration};
use vehigan_mbr::Mbr;
use vehigan_serve::{Decision, EscalationPolicy, ServerConfig, Shard, StreamServer, SCORE_TILE};
use vehigan_sim::{Bsm, SimConfig, TrafficSimulator, VehicleId, VehicleTrace};
use vehigan_tensor::Flat;

struct Counting;

thread_local! {
    static LIVE: Cell<i64> = const { Cell::new(0) };
    static PEAK: Cell<i64> = const { Cell::new(0) };
}

/// Moves this thread's live count by `delta`, raising its peak.
fn count(delta: i64) {
    let live = LIVE.with(|c| {
        c.set(c.get() + delta);
        c.get()
    });
    PEAK.with(|p| p.set(p.get().max(live)));
}

// SAFETY: defers every operation to `System`; the counters are
// const-initialized thread-local `Cell`s with no destructor, so touching
// them inside the allocator cannot itself allocate or run after teardown.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as i64);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(-(layout.size() as i64));
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size as i64 - layout.size() as i64);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn live() -> i64 {
    LIVE.with(Cell::get)
}

/// Restarts this thread's peak at its live count.
fn reset_peak() {
    PEAK.with(|p| p.set(live()));
}

fn peak() -> i64 {
    PEAK.with(Cell::get)
}

/// Heap bytes per warm vehicle: at most this (a slot storing each fact
/// once reads 754 B, one with per-vehicle copies of `prev`, the tier-0
/// parameters and the scaler handle 954 B).
const BOUND_BYTES: f64 = 850.0;

/// Heap bytes per queued window: at most this (an entry naming the
/// window's slot reads 32 B, a copy of its floats plus metadata 503 B).
const BOUND_BYTES_PER_WINDOW: f64 = 64.0;

/// Heap bytes a tick of `TICK_WINDOWS` windows may add on top of the
/// decisions it returns (and the reports it leaves for `take_reports`):
/// one tile's window locations (2 KiB) and scores, and the tick's small
/// per-shard lists.
const TICK_SLACK_BYTES: usize = 4096;

/// Heap bytes per escalated window on top of that: where it lies, kept
/// until tier 2 has scored every one (a copy of its floats is 480).
const ESCALATED_BYTES: usize = 16;

const VEHICLES: u32 = 1024;
const WINDOW: usize = 10;
const FEATURES: usize = 12;
/// Four tiles of windows, completed before one tick.
const TICK_WINDOWS: usize = 4 * SCORE_TILE;

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

/// Two untrained critics calibrated on a smooth signal, compiled to
/// int8 on it: enough for both tiers to score, which is all the tick's
/// footprint depends on.
fn two_critics() -> VehiGan {
    let benign: Vec<f32> = (0..32 * WINDOW * FEATURES)
        .map(|i| (i as f32 * 0.37).sin())
        .collect();
    let benign = vehigan_tensor::Tensor::from_vec(benign, &[32, WINDOW, FEATURES, 1]);
    let members = (0..2)
        .map(|seed| {
            let config = WganConfig {
                layers: 3,
                seed,
                ..WganConfig::default()
            };
            CriticMember::calibrate(Wgan::new(config), 0.9, &benign).unwrap()
        })
        .collect();
    let mut vehigan = VehiGan::new(members, 2).unwrap();
    vehigan.compile_int8(&benign).unwrap();
    vehigan
}

/// What one tick of `TICK_WINDOWS` first windows, one per vehicle, grows
/// the caller's heap by at its peak, less the reports it leaves behind
/// for `take_reports`; and the tick's decisions and those reports.
fn tick_peak(vehigan: &VehiGan, config: ServerConfig) -> (usize, Vec<Decision>, Vec<Mbr>) {
    // The scoring paths keep scratch sized by the call: one tile-sized
    // call of each beforehand, so what the tick grows is its own.
    let tile = vec![0.25f32; SCORE_TILE * WINDOW * FEATURES];
    let tile = Flat::new(&tile, WINDOW * FEATURES);
    let mut scores = vec![0.0f32; SCORE_TILE];
    vehigan
        .score_with_members_into(&[0, 1], &tile, &mut scores)
        .unwrap();
    vehigan
        .score_with_members_int8_into(&[0, 1], &tile, &mut scores)
        .unwrap();

    let fleet = fleet();
    let scaler = MinMaxScaler::fit(&[vec![-1e3; FEATURES], vec![1e3; FEATURES]]);
    let mut server = StreamServer::new(vehigan, scaler, config).unwrap();
    // Every vehicle completes its first window; the tick admits them all
    // and screens every one (no tier 0).
    let bsms: Vec<Bsm> = (0..TICK_WINDOWS as u32)
        .flat_map(|v| {
            fleet[0].bsms[..WINDOW + 1].iter().map(move |bsm| Bsm {
                vehicle_id: VehicleId(v),
                ..*bsm
            })
        })
        .collect();
    server.ingest_batch(&bsms);
    assert_eq!(server.pending_windows(), TICK_WINDOWS);

    let before = live();
    reset_peak();
    let decisions = server.tick().unwrap();
    let peak = (peak() - before) as usize;
    let reports = server.take_reports();
    let report_bytes = reports.capacity() * std::mem::size_of::<Mbr>()
        + reports
            .iter()
            .map(|r| r.evidence.capacity() * std::mem::size_of::<f32>())
            .sum::<usize>();
    assert_eq!(decisions.len(), TICK_WINDOWS);
    (peak - report_bytes, decisions, reports)
}

#[test]
fn a_tick_scores_windows_where_they_lie() {
    let vehigan = two_critics();
    let config = ServerConfig {
        n_shards: 1,
        window: WINDOW,
        policy: EscalationPolicy::Always,
        members: Some(vec![0, 1]),
        ..ServerConfig::default()
    };
    let (grown, decisions, _) = tick_peak(&vehigan, config);
    println!("heap a {TICK_WINDOWS}-window tick grows at its peak: {grown} B");
    assert!(decisions.iter().all(|d| d.escalated));
    let bound = TICK_WINDOWS * std::mem::size_of::<Decision>() + TICK_SLACK_BYTES;
    assert!(
        grown <= bound,
        "a tick grows the heap by {grown} bytes at its peak (bound {bound})"
    );
}

#[test]
fn a_tick_escalating_every_window_copies_none() {
    // A τ_esc below every gate score sends every window on to tier 2, and
    // with a τ below every tier-2 score each one becomes a report carrying
    // its window.
    let mut vehigan = two_critics();
    for member in vehigan.members_mut() {
        member.threshold = f32::NEG_INFINITY;
    }
    let config = ServerConfig {
        n_shards: 1,
        window: WINDOW,
        policy: EscalationPolicy::Threshold(f32::NEG_INFINITY),
        members: Some(vec![0, 1]),
        reporter: Some(VehicleId(u32::MAX)),
        ..ServerConfig::default()
    };
    let (grown, decisions, reports) = tick_peak(&vehigan, config);
    println!(
        "heap a {TICK_WINDOWS}-window tick escalating all grows at its peak, \
         {} reports aside: {grown} B",
        reports.len()
    );
    assert!(decisions.iter().all(|d| d.escalated && d.flagged));
    assert_eq!(reports.len(), TICK_WINDOWS);
    let bound =
        TICK_WINDOWS * (std::mem::size_of::<Decision>() + ESCALATED_BYTES) + TICK_SLACK_BYTES;
    assert!(
        grown <= bound,
        "a tick escalating every window grows the heap by {grown} bytes at its peak \
         (bound {bound})"
    );
}
