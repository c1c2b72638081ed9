//! `VehiGan::score_with_members_int8_into` and `score_with_members_into`
//! — the gate and escalation entries the serve plane calls per tile, on
//! windows read where they lie — allocate nothing once their buffers have
//! grown to the batch size, whether each window is one contiguous piece
//! or two, as a ring buffer holds it. Counted per thread by a global
//! allocator, across a mixed-depth subset (every member switch re-lays a
//! plane of the worker's scratch) at the batch sizes the serve plane
//! issues. That holds for a call big enough to fork (on a host with a
//! second core) too: lending work to the pool's helper allocates nothing,
//! and the scratch does not grow.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use vehigan_core::{CriticMember, VehiGan, Wgan, WganConfig};
use vehigan_tensor::{Flat, Pieces, Tensor};

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: defers every operation to `System`; the counter is a
// const-initialized thread-local `Cell` with no destructor, so touching
// it inside the allocator cannot itself allocate or run after teardown.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn warm_slice_scoring_never_allocates() {
    let windows: Vec<f32> = (0..128 * 120)
        .map(|i| 0.3 * (i as f32 * 0.61).sin())
        .collect();
    let benign = Tensor::from_vec(windows.clone(), &[128, 10, 12, 1]);
    // Untrained critics score like trained ones as far as the allocator
    // can tell; depths 3/4/3 share each worker's scratch.
    let members: Vec<CriticMember> = [3usize, 4, 3]
        .iter()
        .zip(0u64..)
        .map(|(&layers, seed)| {
            let config = WganConfig {
                layers,
                seed,
                ..WganConfig::default()
            };
            CriticMember::calibrate(Wgan::new(config), 0.9, &benign).unwrap()
        })
        .collect();
    let mut vehigan = VehiGan::new(members, 3).unwrap();
    vehigan.compile_int8(&benign).unwrap();

    type Entry = fn(&VehiGan, &[usize], &[Pieces<'_>], &mut [f32]) -> bool;
    let int8: Entry = |v, subset, x, out| {
        let r = v.score_with_members_int8_into(subset, x, out);
        r.is_ok_and(|s| s.dropped.is_empty())
    };
    let f32: Entry = |v, subset, x, out| {
        let r = v.score_with_members_into(subset, x, out);
        r.is_ok_and(|s| s.dropped.is_empty())
    };
    // The same windows whole, and cut after a row that moves from window
    // to window.
    let whole: Vec<Pieces<'_>> = windows.chunks_exact(120).map(|w| [w, &[][..]]).collect();
    let cut: Vec<Pieces<'_>> = windows
        .chunks_exact(120)
        .enumerate()
        .map(|(i, w)| {
            let (older, newer) = w.split_at(i % 11 * 12);
            [older, newer]
        })
        .collect();
    let int8_scratch: fn(&VehiGan) -> usize = |v| v.int8_backend().unwrap().scratch_bytes();
    let backends = [
        ("int8", int8, int8_scratch),
        ("f32", f32, VehiGan::scratch_bytes as fn(&VehiGan) -> usize),
    ];

    let subset = [1usize, 2, 0];
    let mut out = vec![0.0f32; 128];
    for ((name, score, scratch_bytes), x) in
        backends.into_iter().flat_map(|b| [(b, &whole), (b, &cut)])
    {
        // Largest batch first, so the score buffers are at full size.
        for n in [128usize, 37, 20, 1] {
            let (x, scores) = (&x[..n], &mut out[..n]);
            assert!(score(&vehigan, &subset, x, scores), "{name} warm-up");
            let scratch = scratch_bytes(&vehigan);
            let before = ALLOCS.with(Cell::get);
            for _ in 0..100 {
                assert!(score(&vehigan, &subset, x, scores));
            }
            // On this thread; what a helper runs is the same walk on
            // another scratch of the same state.
            let allocs = ALLOCS.with(Cell::get) - before;
            assert_eq!(
                allocs, 0,
                "{name}: {allocs} allocations over 100 warm calls at n = {n}"
            );
            assert_eq!(
                scratch_bytes(&vehigan),
                scratch,
                "{name}: scratch grew over 100 warm calls at n = {n}"
            );
        }
    }

    // Same scores as the Tensor entry point, bit for bit.
    let tile = Tensor::from_vec(windows[..37 * 120].to_vec(), &[37, 10, 12, 1]);
    let via_tensor = vehigan.score_with_members_int8(&subset, &tile).unwrap();
    let summary = vehigan
        .score_with_members_int8_into(&subset, &Flat::new(tile.as_slice(), 120), &mut out[..37])
        .unwrap();
    assert_eq!(via_tensor.threshold, summary.threshold);
    assert_eq!(via_tensor.members, subset);
    for (a, b) in via_tensor.scores.iter().zip(&out[..37]) {
        assert_eq!(a.to_bits(), b.to_bits());
    }
    let via_tensor = vehigan.score_with_members(&subset, &tile).unwrap();
    let summary = vehigan
        .score_with_members_into(&subset, &Flat::new(tile.as_slice(), 120), &mut out[..37])
        .unwrap();
    assert_eq!(via_tensor.threshold, summary.threshold);
    for (a, b) in via_tensor.scores.iter().zip(&out[..37]) {
        assert_eq!(a.to_bits(), b.to_bits());
    }
}
