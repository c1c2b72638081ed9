//! Streaming window maintenance for the testing phase.
//!
//! On the OBU/RSU, VehiGAN keeps only the most recent `w` messages per
//! vehicle and refreshes that vehicle's snapshot on every arriving BSM
//! (§III-C). [`WindowBuffer`] implements exactly that per-vehicle buffer;
//! the `vehigan-serve` shards multiplex buffers across all observed
//! pseudonyms (a single-vehicle or single-threaded caller holds a bare
//! buffer, or a `HashMap` of them).
//!
//! - [`WindowBuffer::push`] is **allocation-free** once warmed up: the
//!   scaled feature row is written straight into a fixed `w × f` ring, and
//!   the completed window is handed back as a [`WindowView`] of that ring
//!   (two slices split where it wraps), not copied into a tensor;
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

/// Rolling feature-window buffer for one vehicle.
///
/// Internally a fixed ring of scaled `f32` feature rows, so pushing a BSM
/// performs no heap allocation after construction; the scaler is shared
/// with every other buffer cloned from it.
#[derive(Debug, Clone)]
pub struct WindowBuffer {
    window: usize,
    scaler: MinMaxScaler,
    prev: Option<Bsm>,
    /// Ring of `window` scaled rows, `features` wide each.
    ring: Vec<f32>,
    /// Ring slot the next row will be written to.
    head: usize,
    /// Rows filled so far (saturates at `window`).
    filled: usize,
}

impl WindowBuffer {
    /// Creates a buffer producing `window × scaler.width()` windows.
    ///
    /// # Panics
    ///
    /// Panics if `window < 2`.
    pub fn new(window: usize, scaler: MinMaxScaler) -> Self {
        assert!(window >= 2, "window must be at least 2");
        let f = scaler.width();
        WindowBuffer {
            window,
            prev: None,
            ring: vec![0.0; window * f],
            head: 0,
            filled: 0,
            scaler,
        }
    }

    /// Ingests one BSM; returns the completed window once enough messages
    /// have arrived. The view borrows the ring, so copy it out
    /// ([`WindowView::extend_into`], [`WindowView::to_tensor`]) if it must
    /// outlive the next push.
    pub fn push(&mut self, bsm: &Bsm) -> Option<WindowView<'_>> {
        let f = self.scaler.width();
        if let Some(prev) = self.prev {
            let row = decompose_pair(&prev, bsm);
            let dst = &mut self.ring[self.head * f..(self.head + 1) * f];
            for (j, (d, &v)) in dst.iter_mut().zip(row.values.iter()).enumerate() {
                *d = self.scaler.transform_value_f32(j, v);
            }
            self.head = (self.head + 1) % self.window;
            self.filled = (self.filled + 1).min(self.window);
        }
        self.prev = Some(*bsm);
        self.last_window()
    }

    /// The window the last [`WindowBuffer::push`] completed, if the buffer
    /// is full. Once it is, `head` points at the oldest row.
    #[inline]
    pub fn last_window(&self) -> Option<WindowView<'_>> {
        let (newer, older) = self.ring.split_at(self.head * self.scaler.width());
        (self.filled >= self.window).then_some(WindowView {
            older,
            newer,
            window: self.window,
        })
    }

    /// Number of buffered feature rows.
    pub fn len(&self) -> usize {
        self.filled
    }

    /// Whether no rows are buffered yet.
    pub fn is_empty(&self) -> bool {
        self.filled == 0
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
    use crate::window::{build_windows, fit_scaler, Representation, WindowConfig};
    use vehigan_sim::{SimConfig, TrafficSimulator};
    use vehigan_vasp::{DatasetBuilder, DatasetConfig};

    fn setup() -> (Vec<vehigan_sim::VehicleTrace>, MinMaxScaler) {
        let fleet = TrafficSimulator::new(SimConfig {
            n_vehicles: 3,
            duration_s: 20.0,
            seed: 2,
            ..SimConfig::default()
        })
        .run();
        let builder = DatasetBuilder::new(&fleet, DatasetConfig::default());
        let scaler = fit_scaler(&builder.benign_dataset(), Representation::Engineered);
        (fleet, scaler)
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
        let builder = DatasetBuilder::new(&fleet[..1], DatasetConfig::default());
        let batch = build_windows(&builder.benign_dataset(), WindowConfig::default(), &scaler);
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
        let builder = DatasetBuilder::new(&fleet[..1], DatasetConfig::default());
        let batch = build_windows(
            &builder.benign_dataset(),
            WindowConfig {
                stride: 1,
                ..WindowConfig::default()
            },
            &scaler,
        );
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
        let ring = buf.ring.as_ptr_range();
        for bsm in fleet[0].iter().skip(15).take(40) {
            let view = buf.push(bsm).expect("a full buffer completes a window");
            for part in [view.older, view.newer] {
                assert!(ring.contains(&part.as_ptr()) || part.is_empty());
            }
        }
        assert_eq!(buf.ring.as_ptr_range(), ring, "ring reallocated");
    }
}
