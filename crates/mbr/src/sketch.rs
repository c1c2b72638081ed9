//! Reporter-cardinality tracking in bounded memory.
//!
//! Conviction requires *distinct* corroborating reporters
//! ([`crate::AuthorityPolicy::min_reporters`]), so the authority must
//! count how many different observers accused a suspect inside the
//! corroboration window. The seed implementation rebuilt a `HashSet`
//! over the full retained report queue on every ingest — O(reports) time
//! and memory per suspect. At fleet scale a suspect can be accused by
//! thousands of observers, so this module tracks distinct reporters in
//! O(1) memory per suspect with a two-mode [`ReporterSketch`]:
//!
//! - **Exact mode** — up to [`EXACT_CAP`] `(reporter, last_seen)` pairs.
//!   The first two sit inline in the 32-byte set, so the typical one- or
//!   two-reporter case costs no heap beyond its own box; a third spills
//!   the pairs to a `Vec` of four (64 heap bytes). Conviction thresholds
//!   are small (2–3 reporters), and in exact mode counts are *precise*
//!   and *window-pruned*: a reporter whose last accusation aged past the
//!   window stops counting. This is the mode every conviction decision
//!   near the threshold runs in.
//! - **Sketch mode** — once more than [`EXACT_CAP`] distinct reporters
//!   are live at once, the set upgrades to a [`Hll`] (HyperLogLog,
//!   2⁸ = 256 registers, ~6.5 % standard error, boxed so only suspects
//!   in this mode pay for them). Far above any conviction
//!   threshold the exact count no longer matters; the sketch keeps the
//!   reporter-count statistic honest at campaign scale (hundreds of
//!   observers) without per-reporter state. Sketch registers cannot be
//!   window-pruned; the set resets wholesale with the suspect's evidence
//!   on a full-window report gap (see `SuspectEvidence`).
//!
//! All hashing is an explicit SplitMix64 finalizer, so estimates are a
//! pure function of the inserted ids — identical across runs and
//! processes (the ledger's `exact` block relies on it).

use vehigan_sim::VehicleId;

/// Distinct reporters tracked exactly (with per-reporter window pruning)
/// before a suspect's set upgrades to the HyperLogLog sketch.
pub const EXACT_CAP: usize = 16;

/// HyperLogLog register-index bits (`m = 2^P` registers).
const HLL_P: u32 = 8;
/// HyperLogLog register count.
const HLL_M: usize = 1 << HLL_P;

/// SplitMix64 finalizer: a high-quality 64-bit mix, deterministic and
/// dependency-free.
#[inline]
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A HyperLogLog distinct-count sketch over reporter pseudonyms
/// (Flajolet et al.; 256 registers, one byte each).
///
/// # Examples
///
/// ```
/// use vehigan_mbr::Hll;
/// use vehigan_sim::VehicleId;
///
/// let mut hll = Hll::new();
/// for i in 0..1000 {
///     hll.insert(VehicleId(i));
///     hll.insert(VehicleId(i)); // duplicates don't count
/// }
/// let est = hll.estimate();
/// assert!((est as f64 - 1000.0).abs() / 1000.0 < 0.25);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hll {
    registers: [u8; HLL_M],
}

impl Default for Hll {
    fn default() -> Self {
        Hll::new()
    }
}

impl Hll {
    /// Creates an empty sketch.
    pub fn new() -> Self {
        Hll {
            registers: [0u8; HLL_M],
        }
    }

    /// Folds one reporter id into the sketch. Idempotent per id.
    pub fn insert(&mut self, id: VehicleId) {
        let h = mix64(id.0 as u64);
        let idx = (h >> (64 - HLL_P)) as usize;
        // Rank of the first set bit in the remaining 56 bits (1-based);
        // an all-zero remainder gets the maximum rank.
        let rest = h << HLL_P;
        let rho = (rest.leading_zeros().min(63 - HLL_P) + 1) as u8;
        if rho > self.registers[idx] {
            self.registers[idx] = rho;
        }
    }

    /// Estimated number of distinct ids inserted, with the standard
    /// small-range (linear counting) correction.
    pub fn estimate(&self) -> usize {
        let m = HLL_M as f64;
        // alpha_m for m = 256.
        let alpha = 0.7213 / (1.0 + 1.079 / m);
        let mut sum = 0.0f64;
        let mut zeros = 0usize;
        for &r in &self.registers {
            sum += f64::exp2(-(r as f64));
            if r == 0 {
                zeros += 1;
            }
        }
        let raw = alpha * m * m / sum;
        let est = if raw <= 2.5 * m && zeros > 0 {
            m * (m / zeros as f64).ln()
        } else {
            raw
        };
        est.round() as usize
    }

    /// Whether no id has been inserted.
    pub fn is_empty(&self) -> bool {
        self.registers.iter().all(|&r| r == 0)
    }
}

/// Bounded distinct-reporter set: exact and window-pruned up to
/// [`EXACT_CAP`] live reporters, HyperLogLog beyond (see module docs).
///
/// The first two live `(reporter, last accusation timestamp)` pairs are
/// stored inline; a third spills the exact list to the heap. Every
/// exact variant holds its pairs in first-accusation order, and which
/// one holds them is not observable through [`entries`](Self::entries),
/// [`count`](Self::count) or [`is_sketch`](Self::is_sketch).
#[derive(Debug, Clone, Default)]
pub enum ReporterSketch {
    /// No reporter yet.
    #[default]
    Empty,
    /// One live reporter and its last accusation timestamp.
    One(u32, f64),
    /// Two live reporters: ids and timestamps in two arrays, so the
    /// whole set stays 32 bytes (`[(u32, f64); 2]` would make it 40).
    Two([u32; 2], [f64; 2]),
    /// Three to [`EXACT_CAP`] pairs on the heap. A spilled list stays
    /// spilled when pruning shrinks it.
    Spilled(Vec<(u32, f64)>),
    /// Estimated mode for campaign-scale reporter counts.
    Sketch(Box<Hll>),
}

// Only a spilled list can reach the cap, so only it overflows.
const _: () = assert!(EXACT_CAP > 2);

impl ReporterSketch {
    /// Creates an empty (exact-mode) set.
    pub fn new() -> Self {
        ReporterSketch::Empty
    }

    /// The exact `(reporter, last accusation timestamp)` pairs in
    /// first-accusation order, pruned or not; none in sketch mode.
    pub fn entries(&self) -> impl Iterator<Item = (VehicleId, f64)> + '_ {
        let (ids, ts, spilled): (&[u32], &[f64], &[(u32, f64)]) = match self {
            ReporterSketch::Empty | ReporterSketch::Sketch(_) => (&[], &[], &[]),
            ReporterSketch::One(id, t) => (std::slice::from_ref(id), std::slice::from_ref(t), &[]),
            ReporterSketch::Two(ids, ts) => (ids, ts, &[]),
            ReporterSketch::Spilled(entries) => (&[], &[], entries),
        };
        ids.iter()
            .copied()
            .zip(ts.iter().copied())
            .chain(spilled.iter().copied())
            .map(|(id, t)| (VehicleId(id), t))
    }

    /// The last-seen clock of a reporter already in the exact list.
    fn last_seen_mut(&mut self, reporter: u32) -> Option<&mut f64> {
        match self {
            ReporterSketch::One(id, t) => (*id == reporter).then_some(t),
            ReporterSketch::Two(ids, ts) => {
                let k = ids.iter().position(|&id| id == reporter)?;
                Some(&mut ts[k])
            }
            ReporterSketch::Spilled(entries) => entries
                .iter_mut()
                .find(|e| e.0 == reporter)
                .map(|e| &mut e.1),
            ReporterSketch::Empty | ReporterSketch::Sketch(_) => None,
        }
    }

    /// Records an accusation by `reporter` whose evidence is current at
    /// time `t` (the suspect's high-water clock), pruning exact entries
    /// older than `window_s` and upgrading to the sketch on overflow.
    pub fn observe(&mut self, reporter: VehicleId, t: f64, window_s: f64) {
        if let ReporterSketch::Sketch(hll) = self {
            hll.insert(reporter);
            return;
        }
        // Known reporter: refresh its last-seen clock (monotone).
        if let Some(seen) = self.last_seen_mut(reporter.0) {
            if t > *seen {
                *seen = t;
            }
            return;
        }
        // A new reporter: drop reporters whose last accusation aged out,
        // then append it.
        let live = |e: &(u32, f64)| t - e.1 <= window_s;
        if let ReporterSketch::Spilled(entries) = self {
            entries.retain(live);
            if entries.len() < EXACT_CAP {
                entries.push((reporter.0, t));
            } else {
                // Overflow: carry every live reporter into the sketch.
                let mut hll = Box::new(Hll::new());
                for e in entries.iter() {
                    hll.insert(VehicleId(e.0));
                }
                hll.insert(reporter);
                *self = ReporterSketch::Sketch(hll);
            }
            return;
        }
        let grown = {
            let mut kept = self.entries().map(|(id, seen)| (id.0, seen)).filter(live);
            match (kept.next(), kept.next()) {
                (None, _) => ReporterSketch::One(reporter.0, t),
                (Some((id, seen)), None) => ReporterSketch::Two([id, reporter.0], [seen, t]),
                (Some(a), Some(b)) => {
                    // The list's first allocation holds four, as a `Vec`'s
                    // first push would.
                    let mut entries = Vec::with_capacity(4);
                    entries.extend([a, b, (reporter.0, t)]);
                    ReporterSketch::Spilled(entries)
                }
            }
        };
        *self = grown;
    }

    /// Distinct reporters with evidence inside the window ending at `t`
    /// (exact mode) or the sketch estimate (sketch mode, unpruned).
    pub fn count(&self, t: f64, window_s: f64) -> usize {
        match self {
            ReporterSketch::Sketch(hll) => hll.estimate(),
            exact => exact.entries().filter(|e| t - e.1 <= window_s).count(),
        }
    }

    /// Whether the set upgraded to the HyperLogLog sketch.
    pub fn is_sketch(&self) -> bool {
        matches!(self, ReporterSketch::Sketch(_))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_counts_are_exact_and_pruned() {
        let mut s = ReporterSketch::new();
        s.observe(VehicleId(1), 0.0, 60.0);
        s.observe(VehicleId(2), 10.0, 60.0);
        s.observe(VehicleId(1), 20.0, 60.0); // duplicate refresh
        assert_eq!(s.count(20.0, 60.0), 2);
        // Reporter 2's last accusation (t=10) ages out of a window ending
        // at t=80; reporter 1 (refreshed at t=20) stays.
        assert_eq!(s.count(80.0, 60.0), 1);
        assert!(!s.is_sketch());
    }

    #[test]
    fn two_reporters_stay_inline_and_a_third_spills() {
        assert_eq!(std::mem::size_of::<ReporterSketch>(), 32);
        let mut s = ReporterSketch::new();
        s.observe(VehicleId(1), 0.0, 60.0);
        s.observe(VehicleId(2), 1.0, 60.0);
        assert!(matches!(s, ReporterSketch::Two([1, 2], _)));
        s.observe(VehicleId(3), 2.0, 60.0);
        assert!(matches!(&s, ReporterSketch::Spilled(e) if e.capacity() == 4));
        // Pruning shrinks the list but does not move it back inline.
        s.observe(VehicleId(4), 100.0, 60.0);
        assert!(matches!(&s, ReporterSketch::Spilled(e) if e.len() == 1));
        assert_eq!(s.entries().collect::<Vec<_>>(), [(VehicleId(4), 100.0)]);
    }

    #[test]
    fn overflow_upgrades_to_sketch() {
        let mut s = ReporterSketch::new();
        for i in 0..(EXACT_CAP as u32 + 1) {
            s.observe(VehicleId(i), 0.0, 60.0);
        }
        assert!(s.is_sketch());
        let est = s.count(0.0, 60.0);
        let n = EXACT_CAP + 1;
        assert!(
            (est as f64 - n as f64).abs() <= 4.0,
            "estimate {est} far from {n}"
        );
    }

    #[test]
    fn stale_reporters_pruned_before_overflow() {
        let mut s = ReporterSketch::new();
        // Fill to the cap with reporters that will all be stale…
        for i in 0..EXACT_CAP as u32 {
            s.observe(VehicleId(i), 0.0, 60.0);
        }
        // …then a fresh reporter far later: pruning frees every slot, so
        // the set stays exact.
        s.observe(VehicleId(99), 1000.0, 60.0);
        assert!(!s.is_sketch());
        assert_eq!(s.count(1000.0, 60.0), 1);
    }

    #[test]
    fn hll_estimates_within_error_bound() {
        for (seed, n) in [(1u64, 100usize), (2, 1_000), (3, 10_000)] {
            let mut hll = Hll::new();
            for i in 0..n as u64 {
                hll.insert(VehicleId(
                    mix64(seed.wrapping_mul(1 << 20).wrapping_add(i)) as u32
                ));
            }
            let est = hll.estimate() as f64;
            let rel = (est - n as f64).abs() / n as f64;
            assert!(rel < 0.25, "n={n}: estimate {est} rel err {rel:.3}");
        }
    }

    #[test]
    fn hll_is_deterministic_and_duplicate_insensitive() {
        let mut a = Hll::new();
        let mut b = Hll::new();
        for i in 0..500u32 {
            a.insert(VehicleId(i));
            b.insert(VehicleId(i));
            b.insert(VehicleId(i));
        }
        assert_eq!(a, b);
        assert_eq!(a.estimate(), b.estimate());
    }
}
