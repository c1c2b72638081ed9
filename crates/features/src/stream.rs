//! Streaming window maintenance for the testing phase.
//!
//! On the OBU/RSU, VehiGAN keeps only the most recent `w` messages per
//! vehicle and refreshes that vehicle's snapshot on every arriving BSM
//! (§III-C). [`WindowBuffer`] implements exactly that per-vehicle buffer
//! for a single-vehicle or single-threaded caller (a bare buffer, or a
//! `HashMap` of them). Its per-vehicle part is a [`WindowRing`], which
//! takes the window length, the scaler and the previous message from its
//! caller: the `vehigan-serve` shards keep one ring per observed
//! pseudonym next to the one previous message the tier-0 monitor shares,
//! and the window length and scaler once per shard.
//!
//! - [`WindowRing::push`] is **allocation-free**: the scaled feature row
//!   is written straight into a fixed `w × f` ring, and the completed
//!   window is handed back as a [`WindowView`] of that ring (two slices
//!   split where it wraps), not copied into a tensor;
//! - [`EvictionConfig`] (TTL and/or LRU capacity, ordered by [`lru_key`])
//!   is the policy the shards evict stale pseudonyms under, so pseudonym
//!   churn in a long-lived deployment cannot grow state without bound.

use crate::decompose::decompose_pair;
use crate::scaler::MinMaxScaler;
use vehigan_sim::Bsm;
use vehigan_tensor::Tensor;

/// Bounds on per-vehicle window state retained by a serve shard. The
/// default keeps everything (the historical behavior).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EvictionConfig {
    /// Evict the least-recently-updated vehicles once more than this many
    /// are tracked (`None` = unbounded).
    pub max_vehicles: Option<usize>,
    /// Evict vehicles not heard from for longer than this many seconds of
    /// stream time when the shard's `evict_stale` runs (`None` = never
    /// expire).
    pub ttl_s: Option<f64>,
}

impl EvictionConfig {
    /// No eviction: every observed pseudonym is kept forever.
    pub fn unbounded() -> Self {
        EvictionConfig::default()
    }

    /// Whether `last_seen` has expired at stream time `now`.
    pub fn is_stale(&self, last_seen: f64, now: f64) -> bool {
        self.ttl_s.is_some_and(|ttl| now - last_seen > ttl)
    }
}

/// A completed window borrowed from a [`WindowBuffer`]'s ring: `w` rows
/// of `f` scaled features in arrival order, split where the ring wraps.
#[derive(Debug, Clone, Copy)]
pub struct WindowView<'a> {
    /// The oldest rows, up to the end of the ring.
    pub older: &'a [f32],
    /// The newest rows, from the start of the ring.
    pub newer: &'a [f32],
    window: usize,
}

impl WindowView<'_> {
    /// Appends the window's `w × f` floats, in arrival order, to `out`.
    // Inlined across crates, like `last_window`: the serve shards call both
    // per completed window, and out of line they cost `Shard::ingest` 10 %.
    #[inline]
    pub fn extend_into(&self, out: &mut Vec<f32>) {
        out.extend_from_slice(self.older);
        out.extend_from_slice(self.newer);
    }

    /// An owned `[1, w, f, 1]` copy of the window, the shape the
    /// detectors score.
    pub fn to_tensor(&self) -> Tensor {
        let mut data = Vec::with_capacity(self.older.len() + self.newer.len());
        self.extend_into(&mut data);
        let f = data.len() / self.window;
        Tensor::from_vec(data, &[1, self.window, f, 1])
    }
}

/// The per-vehicle half of a [`WindowBuffer`]: the ring of scaled
/// feature rows and where the next one goes — no window length, scaler
/// or previous message. A caller tracking many vehicles (the serve
/// shards) keeps one ring per vehicle and the rest once; the buffer is
/// one ring plus its own copy of the rest.
#[derive(Debug, Clone)]
pub struct WindowRing {
    /// `window` scaled rows, `features` wide each.
    ring: Box<[f32]>,
    /// Offset, in floats, of the ring slot the next row is written to.
    head: u32,
    /// Rows filled so far (saturates at `window`).
    filled: u32,
}

impl WindowRing {
    /// An empty ring of `window` rows, `features` wide each.
    ///
    /// # Panics
    ///
    /// Panics if `window < 2` or the ring holds more than `u32::MAX`
    /// floats.
    pub fn new(window: usize, features: usize) -> Self {
        assert!(window >= 2, "window must be at least 2");
        let len = window * features;
        assert!(u32::try_from(len).is_ok(), "window ring too large");
        WindowRing {
            ring: vec![0.0; len].into_boxed_slice(),
            head: 0,
            filled: 0,
        }
    }

    /// Writes the scaled feature row of the consecutive pair
    /// `(prev, curr)`; returns the completed window once `window` rows
    /// are in. `window` and `scaler` must be the ones every push to this
    /// ring uses, the shape it was built with.
    // Inlined across crates for the serve shards, like `last_window`.
    #[inline]
    pub fn push(
        &mut self,
        window: usize,
        scaler: &MinMaxScaler,
        prev: &Bsm,
        curr: &Bsm,
    ) -> Option<WindowView<'_>> {
        let f = scaler.width();
        let head = self.head as usize;
        let row = decompose_pair(prev, curr);
        let dst = &mut self.ring[head..head + f];
        for (j, (d, &v)) in dst.iter_mut().zip(row.values.iter()).enumerate() {
            *d = scaler.transform_value_f32(j, v);
        }
        self.head = if head + f == self.ring.len() {
            0
        } else {
            (head + f) as u32
        };
        self.filled = (self.filled + 1).min(window as u32);
        self.last_window(window)
    }

    /// The window the last [`WindowRing::push`] completed, if the ring is
    /// full. Once it is, `head` points at the oldest row.
    #[inline]
    pub fn last_window(&self, window: usize) -> Option<WindowView<'_>> {
        let (newer, older) = self.ring.split_at(self.head as usize);
        (self.filled as usize >= window).then_some(WindowView {
            older,
            newer,
            window,
        })
    }
}

/// Rolling feature-window buffer for one vehicle: a [`WindowRing`] with
/// its window length, scaler and the vehicle's previous message.
///
/// Pushing a BSM performs no heap allocation after construction; the
/// scaler is shared with every other buffer cloned from it.
#[derive(Debug, Clone)]
pub struct WindowBuffer {
    window: usize,
    scaler: MinMaxScaler,
    prev: Option<Bsm>,
    ring: WindowRing,
}

impl WindowBuffer {
    /// Creates a buffer producing `window × scaler.width()` windows.
    ///
    /// # Panics
    ///
    /// Panics if `window < 2`.
    pub fn new(window: usize, scaler: MinMaxScaler) -> Self {
        WindowBuffer {
            window,
            prev: None,
            ring: WindowRing::new(window, scaler.width()),
            scaler,
        }
    }

    /// Ingests one BSM; returns the completed window once enough messages
    /// have arrived. The view borrows the ring, so copy it out
    /// ([`WindowView::extend_into`], [`WindowView::to_tensor`]) if it must
    /// outlive the next push.
    pub fn push(&mut self, bsm: &Bsm) -> Option<WindowView<'_>> {
        let prev = self.prev.replace(*bsm)?;
        self.ring.push(self.window, &self.scaler, &prev, bsm)
    }
}

/// LRU ordering key for a `last_seen` timestamp: a NaN (a non-finite
/// timestamp that slipped past upstream validation) is treated as
/// "freshness unknown" and ordered *before* every real timestamp, so the
/// poisoned vehicle is the first eviction victim instead of panicking
/// the sweep (`partial_cmp().unwrap()`) or becoming immortal (raw
/// `total_cmp`, which sorts NaN after +∞). The serve shards order their
/// LRU sweep by it.
pub fn lru_key(last_seen: f64) -> f64 {
    if last_seen.is_nan() {
        f64::NEG_INFINITY
    } else {
        last_seen
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::window::{
        assemble_fragments, build_fragment, engineer_trace, fit_scaler, Representation,
        WindowConfig, WindowDataset,
    };
    use vehigan_sim::{SimConfig, TrafficSimulator, VehicleTrace};

    impl WindowBuffer {
        /// The window the last [`WindowBuffer::push`] completed, if the buffer
        /// is full.
        #[inline]
        pub(crate) fn last_window(&self) -> Option<WindowView<'_>> {
            self.ring.last_window(self.window)
        }

        /// Number of buffered feature rows.
        pub(crate) fn len(&self) -> usize {
            self.ring.filled as usize
        }
    }

    fn setup() -> (Vec<vehigan_sim::VehicleTrace>, MinMaxScaler) {
        let fleet = TrafficSimulator::new(SimConfig {
            n_vehicles: 3,
            duration_s: 20.0,
            seed: 2,
            ..SimConfig::default()
        })
        .run();
        let scaler = fit_scaler(&fleet, Representation::Engineered);
        (fleet, scaler)
    }

    /// The stride-1 batch windows of one trace.
    fn batch_windows(trace: &VehicleTrace, scaler: &MinMaxScaler) -> WindowDataset {
        let config = WindowConfig::default();
        let rows = engineer_trace(trace, false, config.representation).expect("rows");
        assemble_fragments([&build_fragment(&rows, config, scaler)], config)
    }

    #[test]
    fn buffer_warms_up_then_emits() {
        let (fleet, scaler) = setup();
        let mut buf = WindowBuffer::new(10, scaler);
        let mut emitted = 0;
        for (i, bsm) in fleet[0].iter().enumerate() {
            let snap = buf.push(bsm);
            if i < 10 {
                assert!(snap.is_none(), "emitted too early at {i}");
            } else {
                assert!(snap.is_some());
                emitted += 1;
            }
        }
        assert!(emitted > 0);
    }

    #[test]
    fn streaming_matches_batch_windows() {
        // The last streamed window must equal the last batch window
        // (stride 1) of the same trace.
        let (fleet, scaler) = setup();
        let batch = batch_windows(&fleet[0], &scaler);
        let mut buf = WindowBuffer::new(10, scaler);
        let mut last = None;
        for bsm in &fleet[0] {
            if let Some(snap) = buf.push(bsm) {
                last = Some(snap.to_tensor());
            }
        }
        let last = last.expect("stream emitted nothing");
        let batch_last = batch.x.take(&[batch.len() - 1]);
        assert_eq!(last.as_slice(), batch_last.as_slice());
    }

    #[test]
    fn ring_rollover_matches_every_batch_window() {
        // Every streamed window (not just the last) must equal the
        // corresponding stride-1 batch window, across many ring
        // rollovers.
        let (fleet, scaler) = setup();
        let batch = batch_windows(&fleet[0], &scaler);
        let mut buf = WindowBuffer::new(10, scaler);
        let mut streamed = Vec::new();
        for bsm in &fleet[0] {
            if let Some(snap) = buf.push(bsm) {
                streamed.push(snap.to_tensor().into_vec());
            }
        }
        assert_eq!(streamed.len(), batch.len());
        let len = batch.window() * batch.features();
        for (i, s) in streamed.iter().enumerate() {
            assert_eq!(
                s.as_slice(),
                &batch.x.as_slice()[i * len..(i + 1) * len],
                "window {i} diverged"
            );
        }
    }

    #[test]
    fn buffer_accepts_out_of_order_and_duplicate_timestamps_verbatim() {
        // Pin the raw WindowBuffer contract: it performs NO ordering or
        // duplicate checks. An out-of-order or duplicate-timestamp BSM
        // is ingested like any other (rows are computed from consecutive
        // *arrivals*, not timestamps), even one older than the last.
        // Rejection is the caller's job — the serve shards run an
        // `IngestGuard` in front of this buffer.
        let (fleet, scaler) = setup();
        let mut buf = WindowBuffer::new(10, scaler);
        for bsm in fleet[0].iter().take(12) {
            buf.push(bsm);
        }
        assert_eq!(buf.len(), 10);
        let window = |b: &WindowBuffer| b.last_window().unwrap().to_tensor().into_vec();
        let before = window(&buf);

        // Duplicate timestamp: accepted, completes a new window.
        let dup = fleet[0].bsms[11];
        assert!(buf.push(&dup).is_some());
        let after_dup = window(&buf);
        assert_ne!(before, after_dup, "duplicate push must shift the ring");

        // Out-of-order (older) timestamp: accepted and pushed into the
        // ring — exactly the poisoned state the guard prevents.
        let old = fleet[0].bsms[0];
        assert!(buf.push(&old).is_some());
        assert_ne!(after_dup, window(&buf), "an older push must shift the ring");
    }

    #[test]
    fn lru_key_sorts_nan_before_every_timestamp() {
        // A NaN `last_seen` must not panic an LRU sweep, and the poisoned
        // vehicle (freshness unknown) must be its first victim — not
        // immortal, as raw `total_cmp` (NaN after +∞) would make it.
        assert_eq!(lru_key(f64::NAN), f64::NEG_INFINITY);
        for t in [f64::NEG_INFINITY, -3.5, 0.0, 7.25, f64::INFINITY] {
            assert_eq!(lru_key(t), t, "real timestamps pass through");
        }
        let coldest = [5.0, f64::NAN, 6.0]
            .into_iter()
            .min_by(|a, b| lru_key(*a).total_cmp(&lru_key(*b)))
            .unwrap();
        assert!(coldest.is_nan(), "the NaN-stamped vehicle is the victim");
    }

    #[test]
    fn push_is_allocation_free_after_warmup() {
        // The ring is sized at construction; pushing must not grow it
        // (capacity identity is the observable proxy), and the window
        // handed back is the ring itself, not a copy.
        let (fleet, scaler) = setup();
        let mut buf = WindowBuffer::new(10, scaler);
        for bsm in fleet[0].iter().take(15) {
            buf.push(bsm);
        }
        let ring = buf.ring.ring.as_ptr_range();
        for bsm in fleet[0].iter().skip(15).take(40) {
            let view = buf.push(bsm).expect("a full buffer completes a window");
            for part in [view.older, view.newer] {
                assert!(ring.contains(&part.as_ptr()) || part.is_empty());
            }
        }
        assert_eq!(buf.ring.ring.as_ptr_range(), ring, "ring reallocated");
    }
}
