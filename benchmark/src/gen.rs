//! Seeded load generation for the serve workloads.
//!
//! BSM arrival is an open loop: vehicles beacon at 10 Hz whether or not
//! the RSU keeps up. The generator therefore builds the whole stream up
//! front — simulate a city fleet, falsify the attackers' traces, re-key
//! pseudonyms, sort by arrival time, cut into 100 ms slices, corrupt a
//! chosen share in place — and hands the driver plain `Bsm` values plus
//! the ground truth it needs to judge the output: who is an attacker,
//! which pseudonym belongs to whom, how many BSMs of each corruption
//! class were injected, and how many windows each slice must complete.
//! The program under test sees only the `Bsm`s.

use rand::rngs::StdRng;
use rand::Rng;
use std::ops::Range;
use std::time::Instant;
use vehigan_features::FieldLimits;
use vehigan_mbr::{LongTermId, PseudonymManager};
use vehigan_sim::{Bsm, SimConfig, TrafficSimulator, VehicleId, BSM_INTERVAL_S};
use vehigan_tensor::init::seeded_rng;
use vehigan_vasp::{inject, Attack, AttackParams, AttackPolicy};

/// The attack families attackers cycle through: one per falsified field
/// group (position, speed, heading + yaw rate). All three keep their
/// falsified values inside [`FieldLimits::rsu`], so the ingest guard
/// accepts them and detection is left to the tiers.
pub const ATTACKS: [&str; 3] = ["RandomPosition", "RandomSpeed", "HighHeadingYawRate"];

/// What a serve workload asks of the generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamSpec {
    /// Concurrent vehicles.
    pub vehicles: usize,
    /// Stream length in seconds.
    pub duration_s: f64,
    /// Every `attacker_every`-th vehicle is a persistent attacker.
    pub attacker_every: usize,
    /// Re-key every vehicle to a fresh pseudonym this often (staggered
    /// across vehicles); `None` keeps one pseudonym per vehicle.
    pub rekey_s: Option<f64>,
    /// Share of BSMs corrupted in place, split in equal thirds between
    /// the three [`Corruption`] classes.
    pub corrupt_frac: f64,
}

/// The three ways the injector breaks a BSM, one per ingest-guard
/// rejection class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Corruption {
    /// One payload field set to NaN or ±∞.
    NonFinite,
    /// One payload field pushed outside [`FieldLimits::rsu`].
    OutOfRange,
    /// An exact replay of the sender's previous (clean) message.
    Stale,
}

/// Injected corruption counts per class.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Injected {
    /// BSMs with a non-finite field.
    pub non_finite: u64,
    /// BSMs with a field outside the RSU limits.
    pub out_of_range: u64,
    /// Replayed BSMs.
    pub stale: u64,
}

impl Injected {
    /// All corrupted BSMs.
    pub fn total(&self) -> u64 {
        self.non_finite + self.out_of_range + self.stale
    }
}

/// A generated serve workload: the stream and its ground truth.
#[derive(Debug, Clone)]
pub struct Stream {
    /// Every BSM in arrival order.
    pub bsms: Vec<Bsm>,
    /// Index ranges of consecutive 100 ms arrival slices, empty ones kept.
    pub slices: Vec<Range<usize>>,
    /// Windows the server must complete while ingesting each slice: one
    /// per clean BSM that is at least the `window + 1`-th clean BSM of
    /// its pseudonym.
    pub completes: Vec<u64>,
    /// `owner[p]` is the vehicle pseudonym `p` belongs to.
    pub owner: Vec<u32>,
    /// `attacker[v]` is whether vehicle `v` falsifies its BSMs.
    pub attacker: Vec<bool>,
    /// The issuing record of every pseudonym, when the workload re-keys:
    /// the linkage the misbehavior authority is attached to.
    pub scms: Option<PseudonymManager>,
    /// What the corruption injector did.
    pub injected: Injected,
    /// Concurrent vehicles (the offered rate is ten times this).
    pub live_vehicles: usize,
    /// Seconds spent in `TrafficSimulator::run` and BSMs it produced.
    pub sim_s: f64,
    /// Seconds spent in `vasp::inject` and BSMs it rewrote.
    pub inject_s: f64,
    /// BSMs of attacker traces (the `inject_s` denominator).
    pub inject_bsms: u64,
}

impl Stream {
    /// Whether pseudonym `p` belongs to an attacker.
    pub fn is_attacker(&self, p: VehicleId) -> bool {
        self.attacker[self.owner[p.0 as usize] as usize]
    }

    /// FNV-1a over every bit of every BSM and every slice boundary.
    pub fn hash(&self) -> u64 {
        let mut h = crate::stats::FNV_OFFSET;
        for b in &self.bsms {
            h = crate::stats::fnv(h, &b.vehicle_id.0.to_le_bytes());
            for f in [
                b.timestamp,
                b.pos_x,
                b.pos_y,
                b.speed,
                b.acceleration,
                b.heading,
                b.yaw_rate,
            ] {
                h = crate::stats::fnv(h, &f.to_bits().to_le_bytes());
            }
        }
        for r in &self.slices {
            h = crate::stats::fnv(h, &(r.end as u64).to_le_bytes());
        }
        h
    }
}

/// SplitMix64 finalizer: decorrelates the sub-seeds derived from
/// `--seed`, and keeps the workload fleets away from the detector's
/// fixed training seed whatever `--seed` is.
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(stream.wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Builds the stream for `spec` from `seed`. `window` is the detector's
/// window length in feature rows (a window completes on the
/// `window + 1`-th clean BSM of a pseudonym and on each one after).
pub fn build_stream(spec: &StreamSpec, window: usize, seed: u64) -> Stream {
    let t0 = Instant::now();
    let mut fleet = TrafficSimulator::new(SimConfig {
        n_vehicles: spec.vehicles,
        duration_s: spec.duration_s,
        seed: mix(seed, 1),
        ..SimConfig::default()
    })
    .run();
    let sim_s = t0.elapsed().as_secs_f64();

    // Persistent attackers, cycling the attack families.
    let attacks: Vec<Attack> = ATTACKS
        .iter()
        .map(|n| Attack::by_name(n).expect("catalog attack"))
        .collect();
    let mut rng = seeded_rng(mix(seed, 2));
    let mut attacker = vec![false; fleet.len()];
    let mut inject_s = 0.0;
    let mut inject_bsms = 0u64;
    let mut n_attackers = 0usize;
    for (i, trace) in fleet.iter_mut().enumerate() {
        if spec.attacker_every == 0 || i % spec.attacker_every != 0 || trace.is_empty() {
            continue;
        }
        let t = Instant::now();
        let attacked = inject(
            trace,
            attacks[n_attackers % attacks.len()],
            AttackPolicy::Persistent,
            &AttackParams::default(),
            &mut rng,
        );
        inject_s += t.elapsed().as_secs_f64();
        inject_bsms += trace.len() as u64;
        *trace = attacked.trace;
        attacker[i] = true;
        n_attackers += 1;
    }

    // Pseudonyms: the simulator's id, or a fresh one per re-key epoch.
    let mut owner: Vec<u32> = Vec::new();
    let mut scms = None;
    match spec.rekey_s {
        None => owner.extend(0..fleet.len() as u32),
        Some(period) => {
            let mut manager = PseudonymManager::new();
            for (i, trace) in fleet.iter_mut().enumerate() {
                // Stagger the epoch boundaries so re-keys spread evenly
                // over every slice instead of landing on one.
                let phase = (i as f64 * 0.618_033_988_749_895).fract() * period;
                let mut epoch = i64::MIN;
                let mut pseudonym = VehicleId(0);
                for b in &mut trace.bsms {
                    let e = ((b.timestamp + phase) / period).floor() as i64;
                    if e != epoch {
                        epoch = e;
                        pseudonym = manager.issue(LongTermId(i as u32));
                        assert_eq!(pseudonym.0 as usize, owner.len(), "dense pseudonym ids");
                        owner.push(i as u32);
                    }
                    b.vehicle_id = pseudonym;
                }
            }
            scms = Some(manager);
        }
    }

    // Arrival order: by transmit time, ties by pseudonym.
    let mut bsms: Vec<Bsm> = fleet.iter().flat_map(|t| t.bsms.iter().copied()).collect();
    drop(fleet);
    bsms.sort_by(|a, b| {
        a.timestamp
            .partial_cmp(&b.timestamp)
            .expect("simulator timestamps are finite")
            .then(a.vehicle_id.cmp(&b.vehicle_id))
    });
    let slices = slice_ranges(&bsms, spec.duration_s);

    let mut crng = seeded_rng(mix(seed, 3));
    let (corrupted, injected) = corrupt(&mut bsms, spec.corrupt_frac, &mut crng);

    // The window-completion oracle.
    let mut clean_seen = vec![0u32; owner.len()];
    let mut completes = vec![0u64; slices.len()];
    for (s, r) in slices.iter().enumerate() {
        for i in r.clone() {
            if corrupted[i] {
                continue;
            }
            let seen = &mut clean_seen[bsms[i].vehicle_id.0 as usize];
            *seen += 1;
            if *seen as usize > window {
                completes[s] += 1;
            }
        }
    }

    Stream {
        bsms,
        slices,
        completes,
        owner,
        attacker,
        scms,
        injected,
        live_vehicles: spec.vehicles,
        sim_s,
        inject_s,
        inject_bsms,
    }
}

/// Cuts an arrival-ordered stream into consecutive [`BSM_INTERVAL_S`]
/// slices covering `[0, duration_s]`: slice `k` holds the BSMs with
/// `k·Δ ≤ t < (k+1)·Δ`. Empty slices are kept so the driver ticks at the
/// real cadence. Boundaries are computed as `k·Δ`, not by accumulation,
/// so they do not drift.
pub fn slice_ranges(bsms: &[Bsm], duration_s: f64) -> Vec<Range<usize>> {
    // The last BSM is stamped one interval past the simulator's final
    // step, so cover the duration plus one slice.
    let n_slices = (duration_s / BSM_INTERVAL_S).round() as usize + 1;
    let mut ranges = Vec::with_capacity(n_slices);
    let mut i = 0usize;
    for k in 0..n_slices {
        let end_t = (k + 1) as f64 * BSM_INTERVAL_S;
        let start = i;
        while i < bsms.len() && bsms[i].timestamp < end_t {
            i += 1;
        }
        ranges.push(start..i);
    }
    // Anything later than the nominal horizon rides in the last slice.
    if let Some(last) = ranges.last_mut() {
        last.end = bsms.len();
    }
    ranges
}

/// Corrupts `round(frac · n / 3)` BSMs of each [`Corruption`] class in
/// place, at seeded positions. Returns the per-BSM corrupted flags and
/// the exact per-class counts.
///
/// A replay copies the sender's immediately preceding message, which is
/// then barred from corruption itself: the replayed timestamp is thereby
/// always the sender's newest accepted one, so the guard must call it
/// stale whatever else was corrupted.
pub fn corrupt(bsms: &mut [Bsm], frac: f64, rng: &mut StdRng) -> (Vec<bool>, Injected) {
    let n = bsms.len();
    let mut corrupted = vec![false; n];
    let mut injected = Injected::default();
    let per_class = (frac * n as f64 / 3.0).round() as u64;
    if per_class == 0 {
        return (corrupted, injected);
    }
    assert!(
        3 * per_class <= n as u64 / 4,
        "corruption share too large to place"
    );

    // Index of each BSM's predecessor from the same pseudonym.
    let n_pseudonyms = bsms.iter().map(|b| b.vehicle_id.0).max().unwrap_or(0) as usize + 1;
    let mut last = vec![usize::MAX; n_pseudonyms];
    let mut prev = vec![usize::MAX; n];
    for (i, b) in bsms.iter().enumerate() {
        let slot = &mut last[b.vehicle_id.0 as usize];
        prev[i] = *slot;
        *slot = i;
    }

    // Replay sources must stay clean.
    let mut locked = vec![false; n];
    let limits = FieldLimits::rsu();
    let classes = [
        Corruption::NonFinite,
        Corruption::OutOfRange,
        Corruption::Stale,
    ];
    let mut placed = 0u64;
    while placed < 3 * per_class {
        let class = classes[(placed % 3) as usize];
        let i = rng.gen_range(0..n);
        if corrupted[i] || locked[i] {
            continue;
        }
        match class {
            Corruption::NonFinite => {
                let bad = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][rng.gen_range(0..3usize)];
                *payload_field(&mut bsms[i], rng.gen_range(0..6usize)) = bad;
                injected.non_finite += 1;
            }
            Corruption::OutOfRange => {
                let b = &mut bsms[i];
                match rng.gen_range(0..4usize) {
                    0 => b.pos_x = 2.0 * limits.max_abs_position.expect("rsu limit"),
                    1 => b.speed = 1.5 * limits.max_speed.expect("rsu limit"),
                    2 => b.acceleration = -1.5 * limits.max_abs_acceleration.expect("rsu limit"),
                    _ => b.yaw_rate = 1.5 * limits.max_abs_yaw_rate.expect("rsu limit"),
                }
                injected.out_of_range += 1;
            }
            Corruption::Stale => {
                let p = prev[i];
                if p == usize::MAX || corrupted[p] {
                    continue;
                }
                bsms[i] = bsms[p];
                locked[p] = true;
                injected.stale += 1;
            }
        }
        corrupted[i] = true;
        placed += 1;
    }
    (corrupted, injected)
}

fn payload_field(b: &mut Bsm, k: usize) -> &mut f64 {
    match k {
        0 => &mut b.pos_x,
        1 => &mut b.pos_y,
        2 => &mut b.speed,
        3 => &mut b.acceleration,
        4 => &mut b.heading,
        _ => &mut b.yaw_rate,
    }
}
