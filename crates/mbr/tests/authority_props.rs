//! Property tests for the fleet-scale evidence pipeline:
//! ingest-order permutation invariance of the conviction set, any
//! chunking of `ingest_batch` ≡ one-by-one `ingest_ref`, the bounded
//! reporter set's counts against an unbounded map of every reporter's
//! last accusation, and the inline reporter storage against an all-`Vec`
//! reference.

use proptest::prelude::*;
use std::collections::{HashMap, HashSet};
use vehigan_mbr::{
    AuthorityPolicy, CertificateRevocationList, Mbr, MisbehaviorAuthority, ReporterSet,
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

/// The reporter set with every pair in one `Vec`, as it was before the
/// first two moved inline: the reference [`ReporterSet`] must match after
/// every `observe`.
struct VecReporters(Vec<(u32, f64)>);

impl VecReporters {
    /// Returns whether the reporter replaced the least recently seen
    /// entry of a full list.
    fn observe(&mut self, reporter: u32, t: f64, window_s: f64) -> bool {
        let entries = &mut self.0;
        if let Some(e) = entries.iter_mut().find(|e| e.0 == reporter) {
            if t > e.1 {
                e.1 = t;
            }
            return false;
        }
        entries.retain(|e| t - e.1 <= window_s);
        if entries.len() < EXACT_CAP {
            entries.push((reporter, t));
            return false;
        }
        let oldest =
            (1..entries.len()).fold(0, |k, i| if entries[i].1 < entries[k].1 { i } else { k });
        let evicts = t > entries[oldest].1;
        if evicts {
            entries[oldest] = (reporter, t);
        }
        evicts
    }

    fn count(&self, t: f64, window_s: f64) -> usize {
        self.0.iter().filter(|e| t - e.1 <= window_s).count()
    }

    /// The pairs, timestamps as bits.
    fn entries(&self) -> Vec<(u32, u64)> {
        self.0.iter().map(|e| (e.0, e.1.to_bits())).collect()
    }
}

fn entry_bits(set: &ReporterSet) -> Vec<(u32, u64)> {
    set.entries().map(|(id, t)| (id.0, t.to_bits())).collect()
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
/// 6. `EXACT_CAP + 1` fresh reporters inside one window (the list fills
///    and the last one evicts the least recently seen), then more random
///    pool reports.
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

/// Accusations against one suspect from a pool of `pool` reporters, as
/// `(reporter, timestamp)`: a clock advancing 0–2 s a report on a 0.1 s
/// step (so timestamps tie), a fifth of the reports late by up to 1.5
/// windows, and one report in forty after a gap of more than a window.
fn crowd_stream(seed: u64, pool: u64) -> Vec<(u32, f64)> {
    let mut rng = Rng(seed);
    let mut clock = 0.0f64;
    (0..300)
        .map(|_| {
            clock += match rng.below(40) {
                0 => WINDOW_S + 1.0 + rng.below(600) as f64 / 10.0,
                _ => rng.below(20) as f64 / 10.0,
            };
            let t = match rng.below(5) {
                0 => clock - rng.below((WINDOW_S * 15.0) as u64) as f64 / 10.0,
                _ => clock,
            };
            (rng.below(pool) as u32, t)
        })
        .collect()
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

    /// The bounded set against an unbounded map of every reporter's last
    /// accusation: after every `observe`, at the suspect's clock and
    /// later inside its window, `count` is `min(EXACT_CAP, live distinct
    /// reporters)`. A list that drops newcomers when full fails this.
    #[test]
    fn reporter_set_counts_match_an_unbounded_map(
        seed in proptest::arbitrary::any::<u64>(),
        pool in 1u64..61,
    ) {
        let mut set = ReporterSet::new();
        let mut truth: HashMap<u32, f64> = HashMap::new();
        let mut high_water = f64::NEG_INFINITY;
        let mut over_cap = false;
        for (reporter, t) in crowd_stream(seed, pool) {
            if t > high_water + WINDOW_S {
                // A full window of silence starts the case over, as it
                // does a suspect's evidence.
                set = ReporterSet::new();
                truth.clear();
            }
            high_water = high_water.max(t);
            set.observe(VehicleId(reporter), t, WINDOW_S);
            let seen = truth.entry(reporter).or_insert(t);
            *seen = seen.max(t);
            for probe in [high_water, high_water + WINDOW_S / 3.0, high_water + 0.9 * WINDOW_S] {
                let live = truth.values().filter(|&&s| probe - s <= WINDOW_S).count();
                over_cap |= live > EXACT_CAP;
                prop_assert_eq!(
                    set.count(probe, WINDOW_S),
                    live.min(EXACT_CAP),
                    "reporter {} at t = {}, probe {}",
                    reporter,
                    t,
                    probe
                );
            }
        }
        prop_assert!(
            over_cap || pool < 2 * EXACT_CAP as u64,
            "a pool of {} never had more than EXACT_CAP live reporters",
            pool
        );
    }

    /// Inline storage of the first two reporters ≡ one `Vec` of pairs:
    /// after every `observe`, the same live pairs in the same order and
    /// the same counts; and a spilled list that pruning took back under
    /// three digests like the inline set with its pairs.
    #[test]
    fn inline_reporters_match_the_vec_reference(seed in proptest::arbitrary::any::<u64>()) {
        let mut set = ReporterSet::new();
        let mut reference = VecReporters(Vec::new());
        let (mut spilled_from_inline, mut pruned_below_three) = (false, false);
        let mut evicted = false;
        for (reporter, t, reset) in reporter_stream(seed) {
            if reset {
                set = ReporterSet::new();
                reference = VecReporters(Vec::new());
            }
            let was_two = matches!(set, ReporterSet::Two(..));
            let had = reference.0.len();
            set.observe(VehicleId(reporter), t, WINDOW_S);
            evicted |= reference.observe(reporter, t, WINDOW_S);

            prop_assert_eq!(entry_bits(&set), reference.entries());
            for probe in [t, t + WINDOW_S / 2.0, t + WINDOW_S * 2.0] {
                prop_assert_eq!(set.count(probe, WINDOW_S), reference.count(probe, WINDOW_S));
            }
            spilled_from_inline |= was_two && had == 2 && reference.0.len() == 3
                && matches!(set, ReporterSet::Spilled(_));
            if let ReporterSet::Spilled(pairs) = &set {
                if pairs.len() < 3 {
                    pruned_below_three = true;
                    // The same pairs inline: replayed with no pruning.
                    let mut inline = ReporterSet::new();
                    for &(id, seen) in pairs {
                        inline.observe(VehicleId(id), seen, f64::INFINITY);
                    }
                    prop_assert!(!matches!(inline, ReporterSet::Spilled(_)));
                    prop_assert_eq!(entry_bits(&inline), entry_bits(&set));
                    let case = |reporters| SuspectEvidence {
                        high_water: t,
                        weight: 1.5,
                        margin: 0.25,
                        reporters,
                    };
                    prop_assert_eq!(
                        case(inline).digest(0xcbf2_9ce4_8422_2325),
                        case(set.clone()).digest(0xcbf2_9ce4_8422_2325)
                    );
                }
            }
        }
        prop_assert!(spilled_from_inline, "no stream step spilled 2 -> 3 from inline");
        prop_assert!(pruned_below_three, "no spilled list was pruned below three");
        prop_assert!(evicted, "the stream never overflowed EXACT_CAP and evicted");
    }
}
