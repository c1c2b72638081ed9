//! `authority_flood`: the misbehavior authority alone.
//!
//! In the serve workloads the authority is well under a percent of the
//! wall clock, so nothing done to `crates/mbr` can show there. This
//! workload floods `MisbehaviorAuthority::ingest_batch` with synthetic
//! reports carrying the evidence length the server really emits, and
//! keeps an RSU-side CRL mirror in sync by deltas after every chunk.
//!
//! Three report populations over a ten-minute horizon, after
//! `results/BENCH_authority.json`:
//!
//! - **attackers**, each accused once a second by one of four reporters in
//!   rotation — must be convicted, and stay revoked to the end as their
//!   time-limited revocations are extended;
//! - **stalked** honest vehicles, each smeared four times a second by one
//!   single reporter — must never be convicted, whatever the volume;
//! - **noise**: honest vehicles with ten sparse reports from two reporters
//!   — below both the reporter and the weight bar.
//!
//! Reports are generated chunk by chunk into one reused buffer, outside
//! the timed section; the authority only ever sees `&[Mbr]`.

use crate::drive::{Probe, Stage};
use crate::gen::mix;
use crate::stats::{fnv, FNV_OFFSET};
use rand::Rng;
use std::time::Instant;
use vehigan_mbr::{
    AuthorityPolicy, AuthorityStats, CertificateRevocationList, Conviction, Mbr,
    MisbehaviorAuthority,
};
use vehigan_sim::VehicleId;
use vehigan_tensor::init::seeded_rng;

/// Sizes of the flood.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FloodSpec {
    /// Misbehaving vehicles.
    pub attackers: u32,
    /// Honest vehicles with one persistent false accuser.
    pub stalked: u32,
    /// Honest vehicles with sparse two-reporter noise.
    pub noise: u32,
    /// Horizon in seconds.
    pub horizon_s: u32,
    /// Seconds of reports per `ingest_batch` call.
    pub chunk_s: u32,
    /// Evidence floats per report (`window × features`).
    pub evidence_len: usize,
}

/// Reporters accusing each attacker, in rotation.
const ATTACKER_REPORTERS: u32 = 4;
/// Reports per second against each stalked vehicle.
const STALKED_HZ: u32 = 4;
/// Reports against each noise vehicle over the horizon.
const NOISE_REPORTS: u32 = 10;
/// Seconds between a noise vehicle's reports.
const NOISE_SPACING_S: f64 = 45.0;

// Disjoint id ranges.
const STALKED_BASE: u32 = 500_000;
const NOISE_BASE: u32 = 600_000;
const ATTACKER_BASE: u32 = 1_000_000;
const ATTACKER_RSU_BASE: u32 = 2_000_000;
const STALKER_BASE: u32 = 3_000_000;
const NOISE_RSU_BASE: u32 = 4_000_000;

impl FloodSpec {
    /// The full-size flood, or the `--smoke` one.
    pub fn new(smoke: bool, evidence_len: usize) -> FloodSpec {
        if smoke {
            FloodSpec {
                attackers: 60,
                stalked: 15,
                noise: 2_800,
                horizon_s: 600,
                chunk_s: 6,
                evidence_len,
            }
        } else {
            FloodSpec {
                attackers: 800,
                stalked: 200,
                noise: 24_000,
                horizon_s: 600,
                chunk_s: 6,
                evidence_len,
            }
        }
    }

    /// `ingest_batch` calls per replay.
    pub fn chunks(&self) -> u32 {
        self.horizon_s / self.chunk_s
    }

    /// Reports per replay.
    pub fn reports(&self) -> u64 {
        u64::from(self.horizon_s) * u64::from(self.attackers + self.stalked * STALKED_HZ)
            + u64::from(self.noise) * u64::from(NOISE_REPORTS)
    }

    /// Conviction policy: three distinct reporters and a decayed weight
    /// of five inside 90 s; a revocation lapses after 120 s unless
    /// continuing evidence extends it.
    pub fn policy(&self) -> AuthorityPolicy {
        AuthorityPolicy {
            min_reporters: 3,
            min_reports: 5,
            window_s: 90.0,
            evidence_len: self.evidence_len,
            revocation_validity_s: Some(120.0),
        }
    }
}

/// The seeded report generator.
pub struct FloodGen {
    spec: FloodSpec,
    /// Per-attacker phase inside its second, and reporter rotation offset.
    attacker_phase: Vec<(f64, u32)>,
    /// Per-stalked-vehicle phase.
    stalked_phase: Vec<f64>,
    /// Per-noise-vehicle first report time.
    noise_start: Vec<f64>,
    /// Score margin over the threshold, cycled over reports.
    margins: Vec<f32>,
    /// The reused report buffer; every entry owns its evidence.
    buf: Vec<Mbr>,
}

/// Detection threshold stamped on every synthetic report.
const THRESHOLD: f32 = 0.25;

impl FloodGen {
    /// Builds the generator for `seed`: phases, margins and the evidence
    /// of the reused buffer all derive from it.
    pub fn new(spec: FloodSpec, seed: u64) -> FloodGen {
        let mut rng = seeded_rng(mix(seed, 11));
        let attacker_phase = (0..spec.attackers)
            .map(|_| {
                (
                    rng.gen_range(0.0..0.9),
                    rng.gen_range(0..ATTACKER_REPORTERS),
                )
            })
            .collect();
        let stalked_phase = (0..spec.stalked).map(|_| rng.gen_range(0.0..0.2)).collect();
        let noise_start = (0..spec.noise).map(|_| rng.gen_range(0.0..150.0)).collect();
        let margins = (0..1024).map(|_| rng.gen_range(0.05f32..1.0)).collect();
        let per_sec = (spec.attackers + spec.stalked * STALKED_HZ) as usize;
        // Noise reports per chunk average noise·10·chunk/horizon; leave
        // generous head-room and grow on demand.
        let cap = per_sec * spec.chunk_s as usize
            + 2 * (spec.noise * NOISE_REPORTS * spec.chunk_s / spec.horizon_s) as usize
            + 64;
        let buf = (0..cap)
            .map(|_| Mbr {
                reporter: VehicleId(0),
                suspect: VehicleId(1),
                timestamp: 0.0,
                score: 0.0,
                threshold: THRESHOLD,
                evidence: (0..spec.evidence_len)
                    .map(|_| rng.gen_range(-1.0f32..1.0))
                    .collect(),
            })
            .collect();
        FloodGen {
            spec,
            attacker_phase,
            stalked_phase,
            noise_start,
            margins,
            buf,
        }
    }

    /// The sizes this generator was built for.
    pub fn spec(&self) -> &FloodSpec {
        &self.spec
    }

    /// Regenerates chunk `c` (seconds `c·chunk_s .. (c+1)·chunk_s`) into
    /// the reused buffer. Per-suspect timestamps are monotone across
    /// chunks, and a chunk is identical every time it is regenerated.
    pub fn chunk(&mut self, c: u32) -> &[Mbr] {
        let spec = self.spec;
        let (t0, t1) = (
            f64::from(c * spec.chunk_s),
            f64::from((c + 1) * spec.chunk_s),
        );
        let mut n = 0usize;
        let mut push = |buf: &mut Vec<Mbr>, reporter: u32, suspect: u32, t: f64| {
            if n == buf.len() {
                let spare = buf[n - 1].clone();
                buf.push(spare);
            }
            let m = &mut buf[n];
            m.reporter = VehicleId(reporter);
            m.suspect = VehicleId(suspect);
            m.timestamp = t;
            m.score = THRESHOLD + self.margins[(n + c as usize) % self.margins.len()];
            n += 1;
        };
        for sec in c * spec.chunk_s..(c + 1) * spec.chunk_s {
            let t = f64::from(sec);
            for (j, &(phase, rot)) in self.attacker_phase.iter().enumerate() {
                let j = j as u32;
                push(
                    &mut self.buf,
                    ATTACKER_RSU_BASE + j * ATTACKER_REPORTERS + (sec + rot) % ATTACKER_REPORTERS,
                    ATTACKER_BASE + j,
                    t + phase,
                );
            }
            for (v, &phase) in self.stalked_phase.iter().enumerate() {
                let v = v as u32;
                for q in 0..STALKED_HZ {
                    push(
                        &mut self.buf,
                        STALKER_BASE + v,
                        STALKED_BASE + v,
                        t + phase + f64::from(q) / f64::from(STALKED_HZ),
                    );
                }
            }
        }
        for (v, &start) in self.noise_start.iter().enumerate() {
            let v = v as u32;
            for k in 0..NOISE_REPORTS {
                let tk = start + f64::from(k) * NOISE_SPACING_S;
                if tk >= t0 && tk < t1 {
                    push(
                        &mut self.buf,
                        NOISE_RSU_BASE + v * 2 + k % 2,
                        NOISE_BASE + v,
                        tk,
                    );
                }
            }
        }
        &self.buf[..n]
    }
}

/// The outcome of one flood replay.
pub struct FloodReplay {
    /// Service time of every chunk (ingest + CRL sync), seconds.
    pub service_s: Vec<f64>,
    /// Reports handed to the authority.
    pub reports: u64,
    /// Final authority counters.
    pub stats: AuthorityStats,
    /// FNV-1a over every conviction (sorted within a chunk, so shard
    /// merge order cannot move it).
    pub fnv: u64,
    /// Open suspects at the end.
    pub pending_suspects: usize,
    /// The authority's CRL at the end.
    pub crl: CertificateRevocationList,
    /// The mirror kept in sync by deltas.
    pub mirror: CertificateRevocationList,
    /// Deltas that had to be full snapshots.
    pub snapshot_deltas: u64,
    /// CRL ops applied to the mirror.
    pub delta_ops: u64,
    /// Chunks whose `BatchReport` did not add up.
    pub unbalanced_chunks: u64,
    /// Wall clock of the replay, generation included.
    pub wall_s: f64,
    /// Most heap bytes live at once during the replay, above the level
    /// it started from: the authority's evidence, the CRLs, the deltas.
    pub peak_heap_bytes: usize,
}

fn fold_convictions(mut h: u64, convictions: &[Conviction]) -> u64 {
    let mut keys: Vec<(u32, u64, bool)> = convictions
        .iter()
        .map(|c| (c.suspect.0, c.record.revoked_at.to_bits(), c.extension))
        .collect();
    keys.sort_unstable();
    for (suspect, at, ext) in keys {
        h = fnv(h, &suspect.to_le_bytes());
        h = fnv(h, &at.to_le_bytes());
        h = fnv(h, &[ext as u8]);
    }
    h
}

/// Replays the whole horizon once through a fresh authority and mirror.
pub fn replay<P: Probe>(gen: &mut FloodGen, probe: &mut P) -> FloodReplay {
    let spec = *gen.spec();
    let policy = spec.policy();
    let heap_before = crate::alloc::live();
    crate::alloc::reset_peak();
    let mut authority = MisbehaviorAuthority::new(policy);
    let mut mirror = CertificateRevocationList::new(policy.revocation_validity_s);
    let mut out = FloodReplay {
        service_s: Vec::with_capacity(spec.chunks() as usize),
        reports: 0,
        stats: AuthorityStats::default(),
        fnv: FNV_OFFSET,
        pending_suspects: 0,
        crl: CertificateRevocationList::new(None),
        mirror: CertificateRevocationList::new(None),
        snapshot_deltas: 0,
        delta_ops: 0,
        unbalanced_chunks: 0,
        wall_s: 0.0,
        peak_heap_bytes: 0,
    };
    let wall = Instant::now();
    probe.begin_replay();
    for c in 0..spec.chunks() {
        let reports = gen.chunk(c);

        probe.begin_tick(c);
        let t0 = Instant::now();
        probe.enter(Stage::AuthorityIngest);
        let batch = authority.ingest_batch(reports);
        probe.exit(reports.len() as u64);
        probe.enter(Stage::CrlDelta);
        let delta = authority.crl().delta_since(mirror.seq());
        probe.exit(delta.ops.len() as u64);
        probe.enter(Stage::CrlApply);
        mirror.apply_delta(&delta);
        probe.exit(delta.ops.len() as u64);
        let dt = t0.elapsed().as_secs_f64();
        probe.end_tick();

        out.service_s.push(dt);
        out.reports += reports.len() as u64;
        out.snapshot_deltas += delta.snapshot as u64;
        out.delta_ops += delta.ops.len() as u64;
        if batch.received != reports.len()
            || batch.received
                != batch.accepted + batch.rejected + batch.stale_discarded + batch.already_revoked
        {
            out.unbalanced_chunks += 1;
        }
        out.fnv = fold_convictions(out.fnv, &batch.convictions);
    }
    probe.end_replay();
    out.wall_s = wall.elapsed().as_secs_f64();
    out.peak_heap_bytes = crate::alloc::peak().saturating_sub(heap_before);
    out.stats = authority.stats();
    out.pending_suspects = authority.pending_suspects();
    out.crl = authority.crl().clone();
    out.mirror = mirror;
    out
}

/// What the final CRL says about the three populations at the end of
/// the horizon.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FloodQuality {
    /// Attackers whose revocation is active at the end ÷ attackers.
    pub attacker_revoked_frac: f64,
    /// Honest (stalked or noise) vehicles revoked at the end ÷ honest.
    pub honest_revoked_frac: f64,
    /// Vehicles whose final CRL status matches their label ÷ vehicles.
    pub revocation_accuracy: f64,
}

impl FloodQuality {
    /// AUROC of the CRL-membership indicator against the attacker label:
    /// for a binary score, the mean of the true-positive and
    /// true-negative rates.
    pub fn auroc(&self) -> f64 {
        0.5 * (self.attacker_revoked_frac + (1.0 - self.honest_revoked_frac))
    }
}

/// Reads the populations' fate off a CRL at the end of the horizon.
pub fn quality(spec: &FloodSpec, crl: &CertificateRevocationList) -> FloodQuality {
    let now = f64::from(spec.horizon_s);
    let revoked = |base: u32, n: u32| {
        (0..n)
            .filter(|i| crl.is_revoked(VehicleId(base + i), now))
            .count() as f64
    };
    let honest = f64::from(spec.stalked + spec.noise).max(1.0);
    let attackers = f64::from(spec.attackers).max(1.0);
    let attackers_revoked = revoked(ATTACKER_BASE, spec.attackers);
    let honest_revoked = revoked(STALKED_BASE, spec.stalked) + revoked(NOISE_BASE, spec.noise);
    FloodQuality {
        attacker_revoked_frac: attackers_revoked / attackers,
        honest_revoked_frac: honest_revoked / honest,
        revocation_accuracy: (attackers_revoked + honest - honest_revoked) / (attackers + honest),
    }
}
