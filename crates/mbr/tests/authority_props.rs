//! Property tests for the fleet-scale evidence pipeline (ISSUE 10):
//! ingest-order permutation invariance of the conviction set, any
//! chunking of `ingest_batch` ≡ one-by-one `ingest_ref`, the reporter
//! cardinality sketch's error bound against an exact `HashSet`, and the
//! inline reporter storage against an all-`Vec` reference.

use proptest::prelude::*;
use std::collections::HashSet;
use vehigan_mbr::{
    AuthorityPolicy, CertificateRevocationList, Hll, Mbr, MisbehaviorAuthority, ReporterSketch,
    SuspectEvidence, EXACT_CAP,
};
use vehigan_sim::VehicleId;

const WINDOW_S: f64 = 60.0;
const EV_LEN: usize = 4;

fn policy() -> AuthorityPolicy {
    AuthorityPolicy {
        min_reporters: 2,
        min_reports: 3,
        window_s: WINDOW_S,
        evidence_len: EV_LEN,
        revocation_validity_s: None,
    }
}

fn mbr(reporter: u32, suspect: u32, t: f64) -> Mbr {
    Mbr {
        reporter: VehicleId(reporter),
        suspect: VehicleId(suspect),
        timestamp: t,
        score: 1.0,
        threshold: 0.5,
        evidence: vec![0.0; EV_LEN],
    }
}

/// Splitmix64 — the tests' own deterministic RNG (the vendored proptest
/// stub has no shuffle strategy, so shuffles are hand-rolled from a
/// sampled seed).
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: u64) -> u64 {
        ((u128::from(self.next()) * u128::from(bound)) >> 64) as u64
    }

    fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// Builds a constrained report soup whose conviction set is provably
/// order-independent, returning `(reports, expected_convicted)`:
///
/// - **hot** suspects get `≥ 2·min_reports` reports from
///   `≥ min_reporters` distinct reporters, all timestamps within a
///   `window/2` span — every permutation convicts them (no permutation
///   can make a report stale, and at the last ingested report the decayed
///   weight is still `≥ count/2 ≥ min_reports` with every reporter entry
///   live);
/// - **cold** suspects stay under one of the two bars structurally
///   (fewer distinct reporters than `min_reporters`, or fewer total
///   reports than `min_reports` — decayed weight never exceeds the raw
///   report count) — no permutation convicts them.
///
/// Unconstrained soups are genuinely order-dependent (a borderline
/// suspect can convict under one interleaving and decay under another),
/// so the invariance property only holds — and is only claimed — for
/// streams with this hot/cold margin.
fn constrained_soup(seed: u64, n_suspects: usize) -> (Vec<Mbr>, HashSet<VehicleId>) {
    let mut rng = Rng(seed);
    let p = policy();
    let mut reports = Vec::new();
    let mut hot = HashSet::new();
    for s in 0..n_suspects {
        let suspect = 100 + s as u32;
        let t0 = rng.below(1000) as f64 / 10.0;
        let is_hot = rng.below(2) == 0;
        let (n, reporters) = if is_hot {
            hot.insert(VehicleId(suspect));
            (
                2 * p.min_reports + rng.below(6) as usize,
                p.min_reporters + rng.below(3) as usize,
            )
        } else if rng.below(2) == 0 {
            // Too few distinct reporters, any volume.
            (1 + rng.below(5) as usize, 1)
        } else {
            // Too few reports, any reporter spread.
            (p.min_reports - 1, p.min_reporters + rng.below(2) as usize)
        };
        for i in 0..n {
            let reporter = 1000 + s as u32 * 10 + (i % reporters) as u32;
            let t = t0 + rng.below((WINDOW_S / 2.0 * 10.0) as u64) as f64 / 10.0;
            reports.push(mbr(reporter, suspect, t));
        }
    }
    rng.shuffle(&mut reports);
    (reports, hot)
}

fn convicted(crl: &CertificateRevocationList) -> HashSet<VehicleId> {
    crl.iter().map(|(v, _)| *v).collect()
}

/// An unconstrained report soup: valid and invalid reports, replays,
/// out-of-window timestamps — everything the serial/batch equivalence
/// must survive.
fn arbitrary_soup(seed: u64, n: usize) -> Vec<Mbr> {
    let mut rng = Rng(seed);
    (0..n)
        .map(|_| {
            let suspect = 100 + rng.below(8) as u32;
            let reporter = match rng.below(12) {
                0 => suspect, // self-report → rejected
                r => 1000 + r as u32,
            };
            let t = match rng.below(10) {
                0 => -(rng.below(500) as f64) / 10.0, // ancient → stale later
                _ => rng.below(3000) as f64 / 10.0,
            };
            let mut m = mbr(reporter, suspect, t);
            match rng.below(16) {
                0 => m.timestamp = f64::NAN,
                1 => m.score = 0.1, // below threshold
                2 => m.evidence = vec![0.0; EV_LEN + 1],
                _ => {}
            }
            m
        })
        .collect()
}

/// The reporter set with every exact pair in one `Vec`, as it was before
/// the first two moved inline: the reference [`ReporterSketch`] must
/// match after every `observe`.
enum VecSketch {
    Exact(Vec<(u32, f64)>),
    Sketch(Box<Hll>),
}

impl VecSketch {
    fn observe(&mut self, reporter: VehicleId, t: f64, window_s: f64) {
        match self {
            VecSketch::Exact(entries) => {
                if let Some(e) = entries.iter_mut().find(|e| e.0 == reporter.0) {
                    if t > e.1 {
                        e.1 = t;
                    }
                    return;
                }
                entries.retain(|e| t - e.1 <= window_s);
                if entries.len() < EXACT_CAP {
                    entries.push((reporter.0, t));
                } else {
                    let mut hll = Box::new(Hll::new());
                    for e in entries.iter() {
                        hll.insert(VehicleId(e.0));
                    }
                    hll.insert(reporter);
                    *self = VecSketch::Sketch(hll);
                }
            }
            VecSketch::Sketch(hll) => hll.insert(reporter),
        }
    }

    fn count(&self, t: f64, window_s: f64) -> usize {
        match self {
            VecSketch::Exact(entries) => entries.iter().filter(|e| t - e.1 <= window_s).count(),
            VecSketch::Sketch(hll) => hll.estimate(),
        }
    }

    /// The exact pairs, timestamps as bits (empty in sketch mode).
    fn entries(&self) -> Vec<(u32, u64)> {
        match self {
            VecSketch::Exact(entries) => entries.iter().map(|e| (e.0, e.1.to_bits())).collect(),
            VecSketch::Sketch(_) => Vec::new(),
        }
    }
}

fn entry_bits(sketch: &ReporterSketch) -> Vec<(u32, u64)> {
    sketch
        .entries()
        .map(|(id, t)| (id.0, t.to_bits()))
        .collect()
}

/// One accusation stream against a single suspect's reporter set, as
/// `(reporter, timestamp, reset)`; `reset` starts both sets over first,
/// as a suspect's evidence does after a full-window silence. In order:
///
/// 1. random reports from a pool of 1–20 reporters: jittered clock, late
///    reports up to 1.5 windows old, and occasional gaps of more than a
///    window;
/// 2. a reset, then three fresh reporters a few seconds apart (the set
///    spills from inline at the third), their repeats interleaved;
/// 3. more random pool reports;
/// 4. a gap of more than a window and one fresh reporter: pruning takes
///    the spilled list below three;
/// 5. more random pool reports;
/// 6. `EXACT_CAP + 1` fresh reporters inside one window (overflow into
///    the sketch), then more random pool reports.
fn reporter_stream(seed: u64) -> Vec<(u32, f64, bool)> {
    let mut rng = Rng(seed);
    let pool = 1 + rng.below(20) as u32;
    let mut clock = 0.0f64;
    let mut fresh = 1_000u32;
    let mut out = Vec::new();
    let random = |rng: &mut Rng, clock: &mut f64, out: &mut Vec<(u32, f64, bool)>| {
        for _ in 0..rng.below(40) {
            *clock += match rng.below(12) {
                0 => WINDOW_S + rng.below(600) as f64 / 10.0,
                _ => rng.below(100) as f64 / 10.0,
            };
            let t = match rng.below(5) {
                0 => *clock - rng.below((WINDOW_S * 15.0) as u64) as f64 / 10.0,
                _ => *clock,
            };
            out.push((rng.below(u64::from(pool)) as u32, t, false));
        }
    };
    random(&mut rng, &mut clock, &mut out);

    clock += WINDOW_S + 1.0 + rng.below(100) as f64;
    out.push((fresh, clock, true));
    for k in 1..3 {
        for _ in 0..rng.below(3) {
            out.push((
                fresh + rng.below(k) as u32,
                clock - rng.below(50) as f64 / 10.0,
                false,
            ));
        }
        clock += rng.below(50) as f64 / 10.0;
        out.push((fresh + k as u32, clock, false));
    }
    fresh += 3;
    random(&mut rng, &mut clock, &mut out);

    clock += WINDOW_S + 1.0 + rng.below(100) as f64;
    out.push((fresh, clock, false));
    fresh += 1;
    random(&mut rng, &mut clock, &mut out);

    for k in 0..=EXACT_CAP as u32 {
        clock += rng.below(30) as f64 / 10.0;
        out.push((fresh + k, clock, false));
    }
    random(&mut rng, &mut clock, &mut out);
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn conviction_set_is_permutation_invariant(
        seed in proptest::arbitrary::any::<u64>(),
        n_suspects in 1usize..6,
    ) {
        let (reports, hot) = constrained_soup(seed, n_suspects);
        let mut reference = MisbehaviorAuthority::new(policy());
        for r in &reports {
            let _ = reference.ingest_ref(r);
        }
        prop_assert_eq!(convicted(reference.crl()), hot.clone());

        let mut rng = Rng(seed ^ 0xDEAD_BEEF);
        for _ in 0..4 {
            let mut permuted = reports.clone();
            rng.shuffle(&mut permuted);
            let mut ma = MisbehaviorAuthority::new(policy());
            for r in &permuted {
                let _ = ma.ingest_ref(r);
            }
            prop_assert_eq!(convicted(ma.crl()), hot.clone());
        }
    }

    /// Any chunking of `ingest_batch` ≡ one-by-one `ingest_ref`: the
    /// batch form adds only its summary, and this holds it to that.
    #[test]
    fn sharded_batch_matches_serial(
        seed in proptest::arbitrary::any::<u64>(),
        n in 1usize..300,
        chunk in 1usize..64,
    ) {
        let reports = arbitrary_soup(seed, n);
        let mut serial = MisbehaviorAuthority::new(policy());
        for r in &reports {
            let _ = serial.ingest_ref(r);
        }
        let mut batched = MisbehaviorAuthority::new(policy());
        let mut batch_convictions = 0u64;
        for c in reports.chunks(chunk) {
            batch_convictions += batched.ingest_batch(c).convictions.len() as u64;
        }
        prop_assert_eq!(serial.crl(), batched.crl());
        prop_assert_eq!(serial.evidence_fingerprint(), batched.evidence_fingerprint());
        prop_assert_eq!(serial.stats(), batched.stats());
        prop_assert_eq!(batch_convictions, batched.stats().convictions);
    }

    #[test]
    fn sketch_cardinality_error_is_bounded(
        seed in proptest::arbitrary::any::<u64>(),
        n in 1usize..10_000,
    ) {
        let mut rng = Rng(seed);
        let mut sketch = ReporterSketch::new();
        let mut exact: HashSet<VehicleId> = HashSet::new();
        let t = 0.0;
        for _ in 0..n {
            // Duplicates on purpose: cardinality counts distinct ids.
            let id = VehicleId(rng.below(n as u64 * 2) as u32);
            sketch.observe(id, t, WINDOW_S);
            exact.insert(id);
        }
        let est = sketch.count(t, WINDOW_S);
        let truth = exact.len();
        if truth <= EXACT_CAP && !sketch.is_sketch() {
            prop_assert_eq!(est, truth);
        } else {
            // HLL with 256 registers: σ ≈ 6.5 %; 3σ plus slack for the
            // small-range correction handoff.
            let tol = (truth as f64 * 0.25).max(4.0);
            prop_assert!(
                (est as f64 - truth as f64).abs() <= tol,
                "estimate {} vs exact {} (tolerance {:.0})",
                est,
                truth,
                tol
            );
        }
    }

    /// Inline storage of the first two reporters ≡ one `Vec` of pairs:
    /// after every `observe`, the same live pairs in the same order, the
    /// same counts and the same mode; and a spilled list that pruning took
    /// back under three digests like the inline set with its pairs.
    #[test]
    fn inline_reporters_match_the_vec_reference(seed in proptest::arbitrary::any::<u64>()) {
        let mut sketch = ReporterSketch::new();
        let mut reference = VecSketch::Exact(Vec::new());
        let (mut spilled_from_inline, mut pruned_below_three) = (false, false);
        for (reporter, t, reset) in reporter_stream(seed) {
            if reset {
                sketch = ReporterSketch::new();
                reference = VecSketch::Exact(Vec::new());
            }
            let was_two = matches!(sketch, ReporterSketch::Two(..));
            let had = reference.entries().len();
            sketch.observe(VehicleId(reporter), t, WINDOW_S);
            reference.observe(VehicleId(reporter), t, WINDOW_S);

            prop_assert_eq!(entry_bits(&sketch), reference.entries());
            prop_assert_eq!(sketch.is_sketch(), matches!(reference, VecSketch::Sketch(_)));
            for probe in [t, t + WINDOW_S / 2.0, t + WINDOW_S * 2.0] {
                prop_assert_eq!(sketch.count(probe, WINDOW_S), reference.count(probe, WINDOW_S));
            }
            let now = reference.entries().len();
            spilled_from_inline |= was_two && had == 2 && now == 3
                && matches!(sketch, ReporterSketch::Spilled(_));
            if let ReporterSketch::Spilled(pairs) = &sketch {
                if pairs.len() < 3 {
                    pruned_below_three = true;
                    // The same pairs inline: replayed with no pruning.
                    let mut inline = ReporterSketch::new();
                    for &(id, seen) in pairs {
                        inline.observe(VehicleId(id), seen, f64::INFINITY);
                    }
                    prop_assert!(!matches!(inline, ReporterSketch::Spilled(_)));
                    prop_assert_eq!(entry_bits(&inline), entry_bits(&sketch));
                    let case = |reporters| SuspectEvidence {
                        high_water: t,
                        weight: 1.5,
                        margin: 0.25,
                        reporters,
                    };
                    prop_assert_eq!(
                        case(inline).digest(0xcbf2_9ce4_8422_2325),
                        case(sketch.clone()).digest(0xcbf2_9ce4_8422_2325)
                    );
                }
            }
        }
        prop_assert!(spilled_from_inline, "no stream step spilled 2 -> 3 from inline");
        prop_assert!(pruned_below_three, "no spilled list was pruned below three");
        prop_assert!(sketch.is_sketch(), "the stream never overflowed EXACT_CAP");
    }
}
