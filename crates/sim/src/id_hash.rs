//! A keyed hash for maps keyed by a pseudonym (or any key that hashes as
//! one `u32`), in place of std's SipHash-1-3 `RandomState`.
//!
//! Every map instance draws its own random 64-bit keys `(a, b)`, and a
//! `u32` id `x` hashes to `u = (a·x + b) mod 2⁶⁴ >> 32` — Dietzfelbinger's
//! multiply-add-shift, strongly universal on its 32 output bits (Thorup,
//! arXiv 1504.06804): two distinct ids chosen without knowledge of the
//! keys agree on any `n` bits of `u` with probability `2⁻ⁿ`. A fixed
//! bijection then spreads `u` over all 64 bits, so that hashbrown's
//! bucket index (the low bits) and its 7-bit tag (the top bits) both
//! depend on all of `u`; a bijection cannot merge two values of `u`, so
//! it keeps the collision odds. Without it, about one key in ten crowds
//! consecutive or strided ids into fewer buckets than a random function
//! would, and one in a hundred fourfold — and those are the pseudonyms a
//! `PseudonymManager` actually issues (DESIGN.md §13, "Keyed pseudonym
//! hashing").
//!
//! What this gives up against SipHash: an attacker who can time single
//! lookups and so learn collisions could learn one map's `(a, b)`.

use std::collections::hash_map::RandomState;
use std::fmt;
use std::hash::{BuildHasher, Hasher};

/// Multiplier of the fixed finalizer (⌊2⁶⁴/φ⌋, odd).
const SPREAD: u64 = 0x9E37_79B9_7F4A_7C15;

/// The [`BuildHasher`] of every pseudonym-keyed map: fresh random keys
/// per instance (like std's `RandomState`), kept by clones.
///
/// # Examples
///
/// ```
/// use std::collections::HashMap;
/// use vehigan_sim::{IdHash, VehicleId};
///
/// let mut crl: HashMap<VehicleId, f64, IdHash> = HashMap::default();
/// crl.insert(VehicleId(7), 12.0);
/// assert_eq!(crl.get(&VehicleId(7)), Some(&12.0));
/// ```
#[derive(Clone, Copy)]
pub struct IdHash {
    a: u64,
    b: u64,
}

impl Default for IdHash {
    fn default() -> Self {
        let keys = RandomState::new();
        IdHash {
            a: keys.hash_one(0u64),
            b: keys.hash_one(1u64),
        }
    }
}

impl IdHash {
    /// Fixed keys, so the oracle below is deterministic.
    #[cfg(test)]
    fn with_keys(a: u64, b: u64) -> Self {
        IdHash { a, b }
    }
}

impl fmt::Debug for IdHash {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("IdHash").finish_non_exhaustive()
    }
}

impl BuildHasher for IdHash {
    type Hasher = IdHasher;

    fn build_hasher(&self) -> IdHasher {
        IdHasher { keys: *self, u: 0 }
    }
}

/// The [`Hasher`] an [`IdHash`] builds. One `write_u32` is the whole
/// multiply-add-shift; further writes (keys wider than a `u32`) chain
/// the previous 32-bit state in above the next word.
#[derive(Clone)]
pub struct IdHasher {
    keys: IdHash,
    u: u64,
}

impl fmt::Debug for IdHasher {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("IdHasher").finish_non_exhaustive()
    }
}

impl Hasher for IdHasher {
    #[inline]
    fn write_u32(&mut self, x: u32) {
        let x = u64::from(x) | self.u << 32;
        self.u = self.keys.a.wrapping_mul(x).wrapping_add(self.keys.b) >> 32;
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(4) {
            let mut word = [0u8; 4];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u32(u32::from_le_bytes(word));
        }
    }

    #[inline]
    fn finish(&self) -> u64 {
        let z = self.u.wrapping_mul(SPREAD);
        z ^ (z >> 32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::VehicleId;

    /// hashbrown's table for 65 536 entries: 2¹⁷ buckets.
    const BUCKET_BITS: u32 = 17;
    const IDS: usize = 1 << 16;

    /// The structured id sets our maps really see: sequential pseudonyms
    /// and the flood's id ranges, and strides that line up with powers of
    /// two or sit just past one.
    fn id_sets() -> [(&'static str, Vec<u32>); 6] {
        let strided = |start: u32, step: u32| (0..IDS as u32).map(|i| start + i * step).collect();
        [
            ("consecutive from 0", strided(0, 1)),
            ("consecutive from 10^6", strided(1_000_000, 1)),
            ("stride 3", strided(0, 3)),
            ("stride 4096", strided(0, 4096)),
            ("stride 2^16", strided(0, 1 << 16)),
            ("stride 32769", strided(0, 32_769)),
        ]
    }

    /// Mean bucket-mates per id (itself included; a random function reads
    /// 1 + (n − 1)/2¹⁷ ≈ 1.5) and the share of same-bucket pairs whose
    /// top 7 bits — hashbrown's tag — also agree, times 128 (random: 1).
    fn occupancy(hashes: &[u64], head: &mut [u32], next: &mut [u32]) -> (f64, f64) {
        head.fill(u32::MAX);
        let (mut pairs, mut same_tag) = (0u64, 0u64);
        for (i, &h) in hashes.iter().enumerate() {
            let bucket = (h & ((1 << BUCKET_BITS) - 1)) as usize;
            let mut j = head[bucket];
            while j != u32::MAX {
                pairs += 1;
                same_tag += u64::from(hashes[j as usize] >> 57 == h >> 57);
                j = next[j as usize];
            }
            next[i] = head[bucket];
            head[bucket] = i as u32;
        }
        let mates = 1.0 + 2.0 * pairs as f64 / hashes.len() as f64;
        (mates, 128.0 * same_tag as f64 / pairs.max(1) as f64)
    }

    /// Keys from a fixed SplitMix64 stream.
    fn keys(n: usize) -> impl Iterator<Item = (u64, u64)> {
        let mut s = 0x5EED_u64;
        let mut draw = move || {
            s = s.wrapping_add(SPREAD);
            let mut z = s;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        (0..n).map(move |_| (draw(), draw()))
    }

    /// The oracle: over `n_keys` keys per id set, the worst mean
    /// bucket-mates must stay ≤ 2.25 and the worst same-bucket tag
    /// agreement ≤ 20/128. Returns the worst of each, or the first set and
    /// key that breaks a bound.
    fn oracle(n_keys: usize, hash: impl Fn(u64, u64, u32) -> u64) -> Result<(f64, f64), String> {
        let mut head = vec![0u32; 1 << BUCKET_BITS];
        let mut next = vec![0u32; IDS];
        let mut hashes = vec![0u64; IDS];
        let mut worst = (0.0f64, 0.0f64);
        for (name, ids) in id_sets() {
            for (k, (a, b)) in keys(n_keys).enumerate() {
                for (h, &x) in hashes.iter_mut().zip(&ids) {
                    *h = hash(a, b, x);
                }
                let (mates, tags) = occupancy(&hashes, &mut head, &mut next);
                if mates > 2.25 || tags > 20.0 {
                    return Err(format!(
                        "{name}, key {k}: {mates:.2} bucket-mates, {tags:.1}/128 tags shared"
                    ));
                }
                worst = (worst.0.max(mates), worst.1.max(tags));
            }
        }
        Ok(worst)
    }

    fn shipped(a: u64, b: u64, x: u32) -> u64 {
        IdHash::with_keys(a, b).hash_one(VehicleId(x))
    }

    #[test]
    fn id_hash_spreads_structured_ids_like_a_random_function() {
        let (mates, tags) = oracle(256, shipped).unwrap();
        println!("id_hash worst over 256 keys: {mates:.3} bucket-mates, {tags:.1}/128 tags");
    }

    /// The planted fault: the same multiply-add-shift with no finalizer
    /// (two independent halves, so the tag is not constant) clusters
    /// structured ids under a few keys in a hundred.
    #[test]
    fn id_hash_oracle_rejects_multiply_add_shift_without_a_finalizer() {
        let halves = |a: u64, b: u64, x: u32| {
            let half = |a: u64, b: u64| a.wrapping_mul(u64::from(x)).wrapping_add(b) >> 32;
            half(a, b) << 32 | half(b, a)
        };
        let err = oracle(256, halves).expect_err("the oracle passed a hash with no finalizer");
        println!("planted no-finalizer variant: {err}");
    }

    #[test]
    fn id_hash_keys_are_random_per_map_and_kept_by_clones() {
        let (one, two) = (IdHash::default(), IdHash::default());
        let id = VehicleId(42);
        assert_ne!(one.hash_one(id), two.hash_one(id));
        assert_eq!(one.clone().hash_one(id), one.hash_one(id));
    }

    #[test]
    fn id_hash_byte_writes_are_deterministic() {
        let keys = IdHash::with_keys(0x0123_4567_89AB_CDEF, 0x0FED_CBA9_8765_4321);
        let hash = |bytes: &[u8]| {
            let mut h = keys.build_hasher();
            h.write(bytes);
            h.finish()
        };
        assert_eq!(hash(b"pseudonym"), hash(b"pseudonym"));
        assert_ne!(hash(b"pseudonym"), hash(b"pseudonyn"));
        // One `write_u32` and its four little-endian bytes agree.
        assert_eq!(hash(&7u32.to_le_bytes()), keys.hash_one(7u32));
    }
}
