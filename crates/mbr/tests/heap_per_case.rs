//! What an open case costs the misbehavior authority: the live heap bytes
//! per suspect accused by two reporters and not (yet) convicted, counted
//! per thread by a global allocator. A case is one boxed 56-byte
//! accumulator that holds its first two reporters inline: 90 B with the
//! map's share. Boxing a 48-byte accumulator and its reporter list
//! separately (146 B) fails the bound, and so does a 296-byte one with a
//! fixed 16-slot list.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use vehigan_mbr::{AuthorityPolicy, Mbr, MisbehaviorAuthority};
use vehigan_sim::VehicleId;

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

/// Heap bytes per open two-reporter case: at most this (90 B with the
/// reporters inline, 146 B with a separate list sized to its reporters,
/// 330 B with 16 fixed slots).
const BOUND_BYTES: f64 = 112.0;

#[test]
fn an_open_case_costs_its_live_reporters_only() {
    const SUSPECTS: u32 = 4096;
    let mut ma = MisbehaviorAuthority::new(AuthorityPolicy {
        min_reporters: 3,
        min_reports: 3,
        evidence_len: 4,
        ..AuthorityPolicy::default()
    });
    let reports: Vec<Mbr> = (0..SUSPECTS)
        .flat_map(|s| {
            [1u32, 2].map(|reporter| Mbr {
                reporter: VehicleId(1_000_000 + reporter),
                suspect: VehicleId(s),
                timestamp: f64::from(reporter),
                score: 1.0,
                threshold: 0.5,
                evidence: vec![0.0; 4],
            })
        })
        .collect();
    let before = live();
    assert_eq!(ma.ingest_batch(&reports).accepted, reports.len());
    let per_case = (live() - before) as f64 / f64::from(SUSPECTS);
    println!("heap per open two-reporter case: {per_case:.0} B");
    assert_eq!(ma.pending_suspects(), SUSPECTS as usize);
    assert!(
        per_case <= BOUND_BYTES,
        "an open case costs {per_case:.0} heap bytes (bound {BOUND_BYTES})"
    );
}
