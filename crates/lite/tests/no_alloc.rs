//! The int8 scorer's steady state allocates nothing: every runtime buffer
//! is sized when the scratch is fitted. A counting global allocator (per
//! thread, so the harness's other threads cannot bleed in) asserts it
//! across the batch sizes the serve plane issues — a single window, a
//! ragged tile, a full tile — through a mixed-depth subset whose every
//! member switch re-lays a plane, and again on two threads sharing one
//! critic, each scoring half the rows — every window in two pieces, as a
//! ring buffer holds it — on its own scratch.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use vehigan_lite::{Int8Ensemble, Int8Weights, Scratch};
use vehigan_tensor::init::seeded_rng;
use vehigan_tensor::layers::{Activation, Conv2D, Dense, Flatten, Padding};
use vehigan_tensor::{Flat, Init, Pieces, Sequential, Windows};

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

const H: usize = 10;
const W: usize = 12;

fn critic(seed: u64, convs: usize) -> Sequential {
    let mut rng = seeded_rng(seed);
    let mut m = Sequential::new();
    let mut cin = 1;
    for cout in [8, 16, 32].into_iter().take(convs) {
        m.push(Conv2D::new(
            cin,
            cout,
            (2, 2),
            Padding::Same,
            Init::HeUniform,
            &mut rng,
        ));
        m.push(Activation::leaky_relu(0.2));
        cin = cout;
    }
    m.push(Flatten::new());
    m.push(Dense::new(H * W * cin, 1, Init::XavierUniform, &mut rng));
    m
}

#[test]
fn warm_scoring_never_allocates() {
    let snaps: Vec<_> = [3, 2, 3]
        .iter()
        .zip(0u64..)
        .map(|(&convs, seed)| critic(seed, convs).save())
        .collect();
    let refs: Vec<&_> = snaps.iter().collect();
    let windows: Vec<f32> = (0..128 * H * W).map(|i| (i as f32 * 0.61).sin()).collect();
    let mut fused = Int8Ensemble::compile(&refs, (H, W, 1), &windows[..16 * H * W]).unwrap();
    let subset = [2usize, 1, 0, 1];
    let mut out = vec![0.0f32; subset.len() * 128];
    for n in [1usize, 37, 128] {
        let (x, scores) = (&windows[..n * H * W], &mut out[..subset.len() * n]);
        // Warm: first use of the kernels' thread-local scratch.
        fused.score_subset_into(&subset, x, n, scores);
        let before = ALLOCS.with(Cell::get);
        for _ in 0..100 {
            fused.score_subset_into(&subset, x, n, scores);
        }
        let allocs = ALLOCS.with(Cell::get) - before;
        assert_eq!(
            allocs, 0,
            "{allocs} allocations over 100 warm calls at n = {n}"
        );
        assert!(scores.iter().all(|s| s.is_finite()));
    }
}

#[test]
fn threads_sharing_a_critic_allocate_nothing_and_grow_no_scratch() {
    let windows: Vec<f32> = (0..128 * H * W).map(|i| (i as f32 * 0.61).sin()).collect();
    let snap = critic(0, 3).save();
    let critic = &Int8Weights::compile(&snap, (H, W, 1), &windows[..16 * H * W]).unwrap();
    let n = 128;
    let mut serial = vec![0.0f32; n];
    let flat = Flat::new(&windows, H * W);
    critic.score_into(&mut Scratch::new(), flat.pieces(0..n), &mut serial);

    // Each thread reads its windows as a ring holds them: two pieces,
    // cut at a row that moves from window to window.
    let pieces: Vec<Pieces<'_>> = windows
        .chunks_exact(H * W)
        .enumerate()
        .map(|(i, w)| {
            let (older, newer) = w.split_at(i % (H + 1) * W);
            [older, newer]
        })
        .collect();
    let half = n / 2;
    let mut halves = vec![0.0f32; n];
    std::thread::scope(|scope| {
        for (rows, out) in pieces.chunks(half).zip(halves.chunks_mut(half)) {
            scope.spawn(move || {
                let mut scratch = Scratch::new();
                // Warm: the fit, and this thread's first use of the kernels.
                critic.score_into(&mut scratch, rows.iter().copied(), out);
                let bytes = scratch.bytes();
                let before = ALLOCS.with(Cell::get);
                for _ in 0..100 {
                    critic.score_into(&mut scratch, rows.iter().copied(), out);
                }
                assert_eq!(ALLOCS.with(Cell::get) - before, 0);
                assert_eq!(scratch.bytes(), bytes);
            });
        }
    });
    // The halves side by side, in pieces, are the serial call on the
    // contiguous windows, bit for bit.
    assert!(serial
        .iter()
        .zip(&halves)
        .all(|(a, b)| a.to_bits() == b.to_bits()));
}
