//! Property tests for the fleet-scale evidence pipeline (ISSUE 10):
//! ingest-order permutation invariance of the conviction set, any
//! chunking of `ingest_batch` ≡ one-by-one `ingest_ref`, and the reporter
//! cardinality sketch's error bound against an exact `HashSet`.

use proptest::prelude::*;
use std::collections::HashSet;
use vehigan_mbr::{
    AuthorityPolicy, CertificateRevocationList, Mbr, MisbehaviorAuthority, ReporterSketch,
    EXACT_CAP,
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
}
