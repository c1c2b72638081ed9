//! Fleet-scale misbehavior-authority benchmark: the BSM → detection →
//! report → revocation loop end-to-end, plus a 1M-report evidence
//! campaign against the seed's unbounded-queue authority (DESIGN.md §13).
//!
//! Run via `vehigan-bench authority --scale quick [--vehicles N]
//! [--duration S]` (trains the quick system, drives the streaming server
//! over mixed city traffic with rotating RSU reporter identities, feeds
//! the emitted MBRs to the authority, then runs the synthetic 1M-report
//! campaign three ways — serial, sharded, seed-style naive — and writes
//! `results/BENCH_authority.json`).
//!
//! The run **gates** its own acceptance criteria and panics when they
//! fail (so the CI smoke step catches regressions):
//!
//! - **Phase 1 (live loop)** — every report the server emits validates at
//!   the authority (zero rejections), rotating RSU coverage corroborates
//!   at least one conviction, and replaying the same reports serially via
//!   `ingest_ref` reproduces the per-tick `ingest_batch` authority state
//!   bit for bit (CRL, evidence fingerprint, counters).
//! - **Phase 2 (campaign)** — sharded `ingest_batch` and serial ingest
//!   decide bitwise-identical conviction sets; the evidence pipeline
//!   sustains ≥ [`SPEEDUP_TARGET`]× the seed VecDeque path's reports/sec;
//!   zero honest vehicles are ever revoked (200 stalked victims under a
//!   single-reporter smear plus 28 000 sparse two-reporter noise victims);
//!   per-suspect authority state stays constant-size (the naive path
//!   retains every in-window report); every attacker's time-limited
//!   revocation is still active at the end of the horizon (extension
//!   churn instead of lapse); and an RSU mirror syncing by
//!   [`vehigan_mbr::CrlDelta`] converges to the authority CRL.

use crate::harness::{results_dir, Harness};
use std::collections::{HashMap, HashSet, VecDeque};
use std::ops::Range;
use std::time::Instant;
use vehigan_features::IngestGuard;
use vehigan_mbr::{
    AuthorityPolicy, CertificateRevocationList, IngestOutcome, Mbr, MisbehaviorAuthority,
    RevocationRecord, SuspectEvidence,
};
use vehigan_serve::{EscalationPolicy, ServerConfig, StreamServer};
use vehigan_sim::{Bsm, SimConfig, TrafficSimulator, VehicleId, VehicleTrace, BSM_INTERVAL_S};
use vehigan_tensor::init::seeded_rng;
use vehigan_vasp::{inject, Attack, AttackParams, AttackPolicy};

/// Minimum reports/sec multiple of the sharded evidence pipeline over the
/// seed's retain-every-report VecDeque authority (ISSUE gate).
pub const SPEEDUP_TARGET: f64 = 5.0;

/// Fraction of phase-1 vehicles transmitting falsified BSMs: a
/// detection-focused mix, so the short CI smoke still produces enough
/// flagged escalations to corroborate a conviction.
const ATTACKER_FRACTION: f64 = 0.1;

/// Rotating RSU reporter identities covering the phase-1 stream (the
/// serving cell hands the vehicle off every tick, so corroboration needs
/// reports from distinct observers — exactly the authority's job).
const N_RSUS: u32 = 4;
const RSU_BASE: u32 = 1 << 30;

/// Simulates the phase-1 city fleet.
fn city_fleet(vehicles: usize, duration_s: f64, seed: u64) -> Vec<VehicleTrace> {
    TrafficSimulator::new(SimConfig {
        n_vehicles: vehicles,
        duration_s,
        seed,
        ..SimConfig::default()
    })
    .run()
}

/// Mixed benign/attack stream: every `1/attacker_fraction`-th vehicle
/// runs a VASP attack (cycling over position/speed/heading families,
/// falsified values inside RSU guard field limits), all BSMs interleaved
/// in arrival order. Returns the stream and the attacker count.
fn mixed_stream(fleet: &[VehicleTrace], seed: u64, attacker_fraction: f64) -> (Vec<Bsm>, usize) {
    let attacks: Vec<Attack> = ["RandomPosition", "RandomSpeed", "HighHeadingYawRate"]
        .iter()
        .map(|n| Attack::by_name(n).expect("catalog attack"))
        .collect();
    let mut rng = seeded_rng(seed);
    let every = (1.0 / attacker_fraction) as usize;
    let mut stream = Vec::new();
    let mut attackers = 0usize;
    for (i, trace) in fleet.iter().enumerate() {
        if i % every == 0 {
            let attacked = inject(
                trace,
                attacks[attackers % attacks.len()],
                AttackPolicy::Persistent,
                &AttackParams::default(),
                &mut rng,
            );
            stream.extend_from_slice(&attacked.trace.bsms);
            attackers += 1;
        } else {
            stream.extend_from_slice(&trace.bsms);
        }
    }
    stream.sort_by(|a, b| {
        a.timestamp
            .partial_cmp(&b.timestamp)
            .unwrap()
            .then(a.vehicle_id.cmp(&b.vehicle_id))
    });
    (stream, attackers)
}

/// Groups a timestamp-sorted stream into per-tick index ranges of
/// [`BSM_INTERVAL_S`] width (empty slices included, so the drive loop
/// ticks at real cadence).
fn slice_ranges(stream: &[Bsm]) -> Vec<Range<usize>> {
    let mut ranges = Vec::new();
    let mut start = 0usize;
    let mut slice_end = BSM_INTERVAL_S;
    let mut i = 0usize;
    while i < stream.len() {
        while i < stream.len() && stream[i].timestamp < slice_end {
            i += 1;
        }
        ranges.push(start..i);
        start = i;
        slice_end += BSM_INTERVAL_S;
    }
    ranges
}

// --- Phase-2 synthetic campaign: exactly 1 000 000 reports. ---

/// Campaign horizon in seconds.
const HORIZON_S: usize = 600;
/// Reports are generated (and re-generated per path) in slices of this
/// many seconds, so no path ever holds the full campaign in memory.
const CHUNK_S: usize = 60;
/// Misbehaving vehicles, each accused by 4 rotating reporters at 1 Hz.
const N_ATTACKERS: u32 = 400;
/// Honest vehicles smeared by a single stalker at [`STALKED_HZ`] — the
/// `min_reporters` guard must hold regardless of report volume.
const N_STALKED: u32 = 200;
const STALKED_HZ: usize = 4;
/// Honest vehicles receiving 10 sparse reports from only two distinct
/// reporters — below both the reporter and the decayed-weight bars.
const N_NOISE: u32 = 28_000;
const NOISE_REPORTS: usize = 10;
const NOISE_SPACING_S: f64 = 45.0;
/// Flat evidence length carried by every campaign report.
const EV_LEN: usize = 8;

/// Campaign suspect/reporter id ranges (disjoint by construction).
const STALKED_BASE: u32 = 500_000;
const NOISE_BASE: u32 = 600_000;
const ATTACKER_BASE: u32 = 1_000_000;
const ATTACKER_RSU_BASE: u32 = 2_000_000;
const STALKER_BASE: u32 = 3_000_000;
const NOISE_RSU_BASE: u32 = 4_000_000;

/// Campaign conviction policy: 3 distinct reporters and decayed weight 5
/// inside a 90 s window; revocations expire after 120 s unless extended.
fn campaign_policy() -> AuthorityPolicy {
    AuthorityPolicy {
        min_reporters: 3,
        min_reports: 5,
        window_s: 90.0,
        evidence_len: EV_LEN,
        revocation_validity_s: Some(120.0),
    }
}

fn campaign_report(reporter: u32, suspect: u32, t: f64) -> Mbr {
    Mbr {
        reporter: VehicleId(reporter),
        suspect: VehicleId(suspect),
        timestamp: t,
        score: 1.0,
        threshold: 0.25,
        evidence: vec![0.0; EV_LEN],
    }
}

/// Deterministically regenerates campaign chunk `c` (seconds
/// `c·CHUNK_S .. (c+1)·CHUNK_S`): per-suspect timestamps are monotone,
/// chunks are identical across regenerations, and the full horizon sums
/// to exactly 1 000 000 reports.
fn campaign_chunk(c: usize) -> Vec<Mbr> {
    let (t0, t1) = ((c * CHUNK_S) as f64, ((c + 1) * CHUNK_S) as f64);
    let per_sec = N_ATTACKERS as usize + N_STALKED as usize * STALKED_HZ;
    let mut out = Vec::with_capacity(CHUNK_S * per_sec + 32_000);
    for sec in c * CHUNK_S..(c + 1) * CHUNK_S {
        let t = sec as f64;
        for j in 0..N_ATTACKERS {
            // 4 reporters per attacker, rotating every second.
            out.push(campaign_report(
                ATTACKER_RSU_BASE + j * 4 + (sec as u32 % 4),
                ATTACKER_BASE + j,
                t + j as f64 * 0.002,
            ));
        }
        for v in 0..N_STALKED {
            for q in 0..STALKED_HZ {
                out.push(campaign_report(
                    STALKER_BASE + v,
                    STALKED_BASE + v,
                    t + q as f64 * 0.25 + v as f64 * 1e-4,
                ));
            }
        }
    }
    for v in 0..N_NOISE {
        let start = (v % 150) as f64;
        for k in 0..NOISE_REPORTS {
            let tk = start + k as f64 * NOISE_SPACING_S + v as f64 * 1e-6;
            if tk >= t0 && tk < t1 {
                out.push(campaign_report(
                    NOISE_RSU_BASE + v * 2 + k as u32 % 2,
                    NOISE_BASE + v,
                    tk,
                ));
            }
        }
    }
    out
}

const N_CHUNKS: usize = HORIZON_S / CHUNK_S;
const CAMPAIGN_REPORTS: usize = HORIZON_S
    * (N_ATTACKERS as usize + N_STALKED as usize * STALKED_HZ)
    + N_NOISE as usize * NOISE_REPORTS;

/// A conviction's full bit pattern, for set comparison across ingest
/// orders (the batch path merges per shard, so sequences may reorder but
/// the sorted multiset must match serial exactly).
type ConvKey = (u32, u64, usize, usize, u32, bool);

fn conv_key(suspect: VehicleId, rec: &RevocationRecord, extension: bool) -> ConvKey {
    (
        suspect.0,
        rec.revoked_at.to_bits(),
        rec.reporter_count,
        rec.report_count,
        rec.mean_margin.to_bits(),
        extension,
    )
}

/// The seed authority this PR replaced: every report retained in a
/// per-suspect `VecDeque`, reporter set and mean margin rebuilt from the
/// whole queue on every ingest, reports about actively revoked suspects
/// dropped (the lapse bug — a time-limited revocation under continuous
/// misbehavior expires and the vehicle rejoins until re-corroborated).
struct NaiveAuthority {
    policy: AuthorityPolicy,
    queues: HashMap<VehicleId, VecDeque<Mbr>>,
    crl: HashMap<VehicleId, RevocationRecord>,
    convictions: u64,
}

impl NaiveAuthority {
    fn new(policy: AuthorityPolicy) -> Self {
        NaiveAuthority {
            policy,
            queues: HashMap::new(),
            crl: HashMap::new(),
            convictions: 0,
        }
    }

    fn ingest(&mut self, report: &Mbr) {
        if report.validate(self.policy.evidence_len).is_err() {
            return;
        }
        let t = report.timestamp;
        if let Some(rec) = self.crl.get(&report.suspect) {
            let active = match self.policy.revocation_validity_s {
                None => true,
                Some(v) => t - rec.revoked_at <= v,
            };
            if active {
                return;
            }
        }
        let (convict, reporters, reports, mean_margin) = {
            let q = self.queues.entry(report.suspect).or_default();
            q.push_back(report.clone());
            while q
                .front()
                .is_some_and(|r| r.timestamp < t - self.policy.window_s)
            {
                q.pop_front();
            }
            let reporters: HashSet<VehicleId> = q.iter().map(|r| r.reporter).collect();
            let mean = q.iter().map(|r| r.margin()).sum::<f32>() / q.len() as f32;
            (
                reporters.len() >= self.policy.min_reporters && q.len() >= self.policy.min_reports,
                reporters.len(),
                q.len(),
                mean,
            )
        };
        if convict {
            self.crl.insert(
                report.suspect,
                RevocationRecord {
                    revoked_at: t,
                    reporter_count: reporters,
                    report_count: reports,
                    mean_margin,
                },
            );
            self.queues.remove(&report.suspect);
            self.convictions += 1;
        }
    }

    /// Reports currently retained across all suspect queues.
    fn retained(&self) -> usize {
        self.queues.values().map(VecDeque::len).sum()
    }
}

/// Runs the authority benchmark on a trained harness and writes
/// `results/BENCH_authority.json`.
pub fn run(harness: &mut Harness, vehicles: usize, duration_s: f64) {
    // Phase 1 needs the fleet live and past window warmup long enough for
    // persistent attackers to flag across several reporter rotations.
    let duration_s = duration_s.max(6.0);
    println!(
        "Authority benchmark: {vehicles} vehicles x {duration_s:.1} s live loop, \
         then {CAMPAIGN_REPORTS} synthetic campaign reports"
    );
    harness
        .pipeline
        .compile_int8()
        .expect("int8 backend compiles");
    let k = harness.pipeline.vehigan.k();
    let members: Vec<usize> = (0..k).collect();

    // --- Phase 1: StreamServer escalations as the report source. ---
    let fleet = city_fleet(vehicles, duration_s, 11);
    let (stream, attackers) = mixed_stream(&fleet, 29, ATTACKER_FRACTION);
    let ranges = slice_ranges(&stream);
    assert!(!ranges.is_empty(), "empty stream; raise --duration");
    let every = (1.0 / ATTACKER_FRACTION) as usize;
    let attacker_ids: HashSet<VehicleId> = fleet
        .iter()
        .enumerate()
        .filter(|(i, _)| i % every == 0)
        .map(|(_, tr)| tr.id)
        .collect();
    println!(
        "traffic: {} BSMs from {vehicles} vehicles ({attackers} attackers), {} tick slices",
        stream.len(),
        ranges.len()
    );

    let mut server = StreamServer::new(
        &harness.pipeline.vehigan,
        harness.pipeline.scaler.clone(),
        ServerConfig {
            n_shards: 4,
            policy: EscalationPolicy::Always,
            members: Some(members),
            guard: IngestGuard::rsu(),
            reporter: Some(VehicleId(RSU_BASE)),
            ..ServerConfig::default()
        },
    )
    .expect("server builds");
    let live_policy = AuthorityPolicy {
        min_reporters: 2,
        min_reports: 3,
        window_s: 60.0,
        evidence_len: 10 * harness.pipeline.scaler.width(),
        revocation_validity_s: None,
    };
    let mut live = MisbehaviorAuthority::new(live_policy);
    let mut all_reports: Vec<Mbr> = Vec::new();
    let mut cursor = 0usize;
    let mut tick = 0u64;
    let mut drain_ticks = 0u32;
    loop {
        let (start, end) = match ranges.get(cursor) {
            Some(r) => {
                cursor += 1;
                (r.start, r.end)
            }
            None => {
                if server.pending_windows() == 0 || drain_ticks >= 4096 {
                    break;
                }
                drain_ticks += 1;
                (stream.len(), stream.len())
            }
        };
        // The covering RSU hands off every tick: corroboration must come
        // from genuinely distinct observer identities.
        server.set_reporter(Some(VehicleId(RSU_BASE + (tick % N_RSUS as u64) as u32)));
        server.ingest_batch(&stream[start..end]);
        let _ = server.tick().expect("tick scores");
        let reports = server.take_reports();
        if !reports.is_empty() {
            live.ingest_batch(&reports);
            all_reports.extend(reports);
        }
        tick += 1;
    }
    assert_eq!(server.pending_windows(), 0, "service failed to drain");

    // Serial replay of the same report sequence must land on the same
    // authority bit for bit.
    let mut replay = MisbehaviorAuthority::new(live_policy);
    for r in &all_reports {
        let _ = replay.ingest_ref(r);
    }
    let p1_stats = live.stats();
    let p1_serial_identical = live.crl() == replay.crl()
        && live.evidence_fingerprint() == replay.evidence_fingerprint()
        && p1_stats == replay.stats();
    let p1_attacker_convictions = live
        .crl()
        .iter()
        .filter(|(v, _)| attacker_ids.contains(v))
        .count();
    let p1_honest_convictions = live.crl().len() - p1_attacker_convictions;
    println!(
        "phase1: {} reports emitted, {} accepted / {} rejected, {} convictions \
         ({p1_attacker_convictions} attackers, {p1_honest_convictions} honest), serial replay identical: {p1_serial_identical}",
        all_reports.len(),
        p1_stats.accepted,
        p1_stats.rejected,
        p1_stats.convictions
    );

    // --- Phase 2: the 1M-report campaign, three ways. ---
    let policy = campaign_policy();

    // Serial reference: per-report `ingest_ref`.
    let mut serial = MisbehaviorAuthority::new(policy);
    let mut serial_convs: Vec<ConvKey> = Vec::new();
    let mut serial_s = 0.0f64;
    for c in 0..N_CHUNKS {
        let chunk = campaign_chunk(c);
        let t0 = Instant::now();
        for r in &chunk {
            match serial.ingest_ref(r) {
                IngestOutcome::Revoked(rec) => serial_convs.push(conv_key(r.suspect, &rec, false)),
                IngestOutcome::Extended(rec) => serial_convs.push(conv_key(r.suspect, &rec, true)),
                _ => {}
            }
        }
        serial_s += t0.elapsed().as_secs_f64();
    }

    // Sharded pipeline path, with an RSU mirror syncing by CRL delta.
    let mut sharded = MisbehaviorAuthority::new(policy);
    let mut sharded_convs: Vec<ConvKey> = Vec::new();
    let mut mirror = CertificateRevocationList::new(policy.revocation_validity_s);
    let mut snapshot_deltas = 0usize;
    let mut sharded_s = 0.0f64;
    let mut campaign_total = 0usize;
    for c in 0..N_CHUNKS {
        let chunk = campaign_chunk(c);
        campaign_total += chunk.len();
        let t0 = Instant::now();
        let br = sharded.ingest_batch(&chunk);
        sharded_s += t0.elapsed().as_secs_f64();
        for conv in &br.convictions {
            sharded_convs.push(conv_key(conv.suspect, &conv.record, conv.extension));
        }
        let delta = sharded.crl().delta_since(mirror.seq());
        snapshot_deltas += delta.snapshot as usize;
        mirror.apply_delta(&delta);
    }
    assert_eq!(campaign_total, CAMPAIGN_REPORTS, "campaign size drifted");

    // The seed path, same reports.
    let mut naive = NaiveAuthority::new(policy);
    let mut naive_s = 0.0f64;
    let mut naive_peak_retained = 0usize;
    for c in 0..N_CHUNKS {
        let chunk = campaign_chunk(c);
        let t0 = Instant::now();
        for r in &chunk {
            naive.ingest(r);
        }
        naive_s += t0.elapsed().as_secs_f64();
        naive_peak_retained = naive_peak_retained.max(naive.retained());
    }

    // Bitwise-identical conviction sets (order may differ across the
    // shard merge, the multiset may not).
    serial_convs.sort_unstable();
    sharded_convs.sort_unstable();
    let identical = serial_convs == sharded_convs
        && serial.crl() == sharded.crl()
        && serial.evidence_fingerprint() == sharded.evidence_fingerprint()
        && serial.stats() == sharded.stats();

    let stats = sharded.stats();
    let crl = sharded.crl();
    let honest_revocations = (0..N_STALKED)
        .map(|v| VehicleId(STALKED_BASE + v))
        .chain((0..N_NOISE).map(|v| VehicleId(NOISE_BASE + v)))
        .filter(|v| crl.record(*v).is_some())
        .count();
    let only_attackers = crl
        .iter()
        .all(|(v, _)| (ATTACKER_BASE..ATTACKER_BASE + N_ATTACKERS).contains(&v.0));
    // Continuous misbehavior must keep every time-limited revocation
    // alive through the whole horizon (the lapse fix).
    let attackers_active_at_end = (0..N_ATTACKERS)
        .filter(|j| crl.is_revoked(VehicleId(ATTACKER_BASE + j), HORIZON_S as f64))
        .count();
    let mirror_ok = mirror == *crl;

    let serial_rps = CAMPAIGN_REPORTS as f64 / serial_s;
    let sharded_rps = CAMPAIGN_REPORTS as f64 / sharded_s;
    let naive_rps = CAMPAIGN_REPORTS as f64 / naive_s;
    let speedup = sharded_rps / naive_rps;

    let state_bytes = std::mem::size_of::<SuspectEvidence>();
    let suspects = sharded.pending_suspects();
    let max_suspects = (N_ATTACKERS + N_STALKED + N_NOISE) as usize;
    let naive_report_bytes = std::mem::size_of::<Mbr>() + EV_LEN * std::mem::size_of::<f32>();
    let bounded_memory = state_bytes <= 512 && suspects <= max_suspects;

    println!(
        "phase2: {CAMPAIGN_REPORTS} reports — serial {serial_rps:.0}/s, sharded {sharded_rps:.0}/s, \
         naive {naive_rps:.0}/s ({speedup:.1}x)"
    );
    println!(
        "phase2: {} convictions ({} extensions), {} CRL entries, honest revocations {honest_revocations}, \
         {attackers_active_at_end}/{N_ATTACKERS} attackers still revoked at t={HORIZON_S}",
        stats.convictions,
        stats.extensions,
        crl.len()
    );
    println!(
        "phase2: {suspects} open suspects x {state_bytes} B evidence vs naive peak \
         {naive_peak_retained} retained reports x {naive_report_bytes} B; mirror synced over \
         {N_CHUNKS} deltas ({snapshot_deltas} snapshots), seq {}",
        crl.seq()
    );

    let mut json = String::new();
    json.push_str("{\n  \"bench\": \"authority\",\n");
    json.push_str(&format!(
        "  \"phase1\": {{\"vehicles\": {vehicles}, \"duration_s\": {duration_s}, \"bsms\": {}, \"attackers\": {attackers}, \"rsus\": {N_RSUS}, \"reports\": {}, \"accepted\": {}, \"rejected\": {}, \"convictions\": {}, \"attacker_convictions\": {p1_attacker_convictions}, \"honest_convictions\": {p1_honest_convictions}, \"serial_identical\": {p1_serial_identical}}},\n",
        stream.len(),
        all_reports.len(),
        p1_stats.accepted,
        p1_stats.rejected,
        p1_stats.convictions,
    ));
    json.push_str(&format!(
        "  \"phase2\": {{\"reports\": {CAMPAIGN_REPORTS}, \"horizon_s\": {HORIZON_S}, \"attackers\": {N_ATTACKERS}, \"stalked\": {N_STALKED}, \"noise_vehicles\": {N_NOISE}, \"window_s\": {}, \"validity_s\": {}, \"serial_rps\": {serial_rps:.0}, \"sharded_rps\": {sharded_rps:.0}, \"naive_rps\": {naive_rps:.0}, \"speedup\": {speedup:.2}, \"convictions\": {}, \"extensions\": {}, \"crl_entries\": {}, \"crl_seq\": {}, \"honest_revocations\": {honest_revocations}, \"attackers_active_at_end\": {attackers_active_at_end}, \"naive_convictions\": {}, \"pending_suspects\": {suspects}, \"state_bytes_per_suspect\": {state_bytes}, \"naive_peak_retained\": {naive_peak_retained}, \"naive_report_bytes\": {naive_report_bytes}, \"snapshot_deltas\": {snapshot_deltas}, \"mirror_ok\": {mirror_ok}}},\n",
        policy.window_s,
        policy.revocation_validity_s.unwrap_or(0.0),
        stats.convictions,
        stats.extensions,
        crl.len(),
        crl.seq(),
        naive.convictions,
    ));
    json.push_str(&format!(
        "  \"gates\": {{\"speedup_target\": {SPEEDUP_TARGET}, \"phase1_reports_positive\": {}, \"phase1_rejected_zero\": {}, \"phase1_convicted\": {}, \"phase1_serial_identical\": {p1_serial_identical}, \"sharded_matches_serial\": {identical}, \"speedup_ok\": {}, \"zero_honest_revocations\": {}, \"no_lapse\": {}, \"bounded_memory\": {bounded_memory}, \"crl_mirror_ok\": {mirror_ok}, \"drained\": true}}\n}}\n",
        !all_reports.is_empty(),
        p1_stats.rejected == 0,
        p1_stats.convictions > 0,
        speedup >= SPEEDUP_TARGET,
        honest_revocations == 0 && only_attackers,
        attackers_active_at_end == N_ATTACKERS as usize,
    ));
    let path = results_dir().join("BENCH_authority.json");
    std::fs::write(&path, json).expect("write BENCH_authority.json");
    eprintln!("[harness] wrote {}", path.display());

    // --- Gates (ISSUE acceptance criteria). ---
    assert!(
        !all_reports.is_empty(),
        "server emitted no misbehavior reports"
    );
    assert_eq!(
        p1_stats.rejected, 0,
        "server-emitted reports failed authority validation"
    );
    assert!(
        p1_stats.convictions > 0,
        "rotating RSU coverage failed to corroborate any conviction"
    );
    assert!(
        p1_serial_identical,
        "phase-1 per-tick batches diverged from serial replay"
    );
    assert!(
        identical,
        "sharded campaign diverged from serial ({} vs {} convictions)",
        sharded_convs.len(),
        serial_convs.len()
    );
    assert!(
        speedup >= SPEEDUP_TARGET,
        "evidence pipeline speedup {speedup:.2}x below the {SPEEDUP_TARGET}x target \
         (sharded {sharded_rps:.0}/s vs naive {naive_rps:.0}/s)"
    );
    assert!(
        honest_revocations == 0 && only_attackers,
        "honest vehicles revoked: {honest_revocations} victims on the CRL"
    );
    assert_eq!(
        attackers_active_at_end, N_ATTACKERS as usize,
        "time-limited revocations lapsed under continuous misbehavior"
    );
    assert!(
        bounded_memory,
        "authority memory unbounded: {state_bytes} B/suspect, {suspects} suspects"
    );
    assert!(mirror_ok, "CRL delta mirror diverged from the authority");
    println!(
        "gates: reports ok, validation ok, conviction ok, serial==batch ok, \
         speedup {speedup:.1}x >= {SPEEDUP_TARGET}x ok, zero honest ok, no lapse ok, \
         bounded memory ok, mirror ok"
    );
}
