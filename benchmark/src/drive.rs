//! The serve drive loop: replay a generated stream through a fresh
//! `StreamServer` and `MisbehaviorAuthority`, slice by slice, from one
//! thread, timing each slice's service time.
//!
//! Per driver tick, in this order and all inside the timed section:
//! `ingest_batch(slice)` → `tick()` → `take_reports()` →
//! `MisbehaviorAuthority::ingest_batch` → CRL `delta_since` → `apply_delta`
//! into an RSU-side mirror → `evict_stale` (when the workload evicts).
//! Everything the harness does for itself — hashing decisions, reading
//! counters for the conservation checks — happens between ticks, outside
//! it. The loop is open: slices are replayed back to back and a slice
//! that takes longer than the 100 ms it represents simply means the RSU
//! is not keeping up (`rtf < 1`).

use crate::detector::Detector;
use crate::gen::Stream;
use crate::stats::{fnv_decision, FNV_OFFSET};
use std::time::Instant;
use vehigan_features::RejectCounters;
use vehigan_mbr::{
    AuthorityPolicy, AuthorityStats, CertificateRevocationList, Mbr, MisbehaviorAuthority,
};
use vehigan_serve::{Decision, ServerConfig, ServerStats, StreamServer};

/// An overload burst: `multiplier` slices delivered per driver tick for
/// `ticks` consecutive ticks starting at driver tick `at_tick` (a radio
/// backlog flushed at once).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Burst {
    /// First bursting driver tick.
    pub at_tick: usize,
    /// Slices delivered per tick while bursting.
    pub multiplier: usize,
    /// Consecutive bursting ticks.
    pub ticks: usize,
}

/// Everything a replay needs besides the stream.
pub struct ServePlan<'a> {
    /// The trained detector.
    pub detector: &'a Detector,
    /// Server configuration, cloned into a fresh server per replay.
    pub server: ServerConfig,
    /// Authority conviction policy.
    pub policy: AuthorityPolicy,
    /// Whether to run `evict_stale` every tick.
    pub evict: bool,
    /// Optional overload burst.
    pub burst: Option<Burst>,
}

/// Drain ticks allowed after the stream ends before the replay gives up
/// and counts the remaining windows as undrained.
const MAX_DRAIN_TICKS: usize = 4096;

/// What the harness saw at one driver tick of an observed replay.
#[derive(Debug, Clone, PartialEq)]
pub struct TickRecord {
    /// First stream slice delivered this tick (`slices.len()` on drain
    /// ticks).
    pub first_slice: usize,
    /// Slices delivered this tick (0 on drain ticks).
    pub n_slices: usize,
    /// `IngestReport::received`.
    pub received: u64,
    /// `IngestReport::accepted`.
    pub accepted: u64,
    /// `IngestReport::rejected`.
    pub rejected: RejectCounters,
    /// Shards whose ingest worker panicked.
    pub panicked_shards: usize,
    /// Decisions `tick()` returned.
    pub decisions: u64,
    /// `pending_windows()` after the tick.
    pub pending_after: u64,
    /// `num_vehicles()` after the tick.
    pub vehicles_tracked: u64,
    /// Cumulative `stats()` after the tick.
    pub stats: ServerStats,
    /// Reports drained this tick.
    pub reports: u64,
    /// Reports drained this tick that fail `Mbr::validate`.
    pub invalid_reports: u64,
}

/// The outcome of one replay.
pub struct Replay {
    /// Service time of every driver tick, in seconds.
    pub service_s: Vec<f64>,
    /// Decisions each driver tick returned (scoring ticks have > 0).
    pub tick_decisions: Vec<u32>,
    /// FNV-1a over every decision in emission order.
    pub fnv: u64,
    /// Final server counters.
    pub stats: ServerStats,
    /// Windows still pending when the replay stopped.
    pub undrained: u64,
    /// Scoring passes that returned an error.
    pub score_errors: u64,
    /// Final authority counters.
    pub authority: AuthorityStats,
    /// Open suspects at the authority when the replay stopped.
    pub pending_suspects: usize,
    /// The authority's CRL at the end of the stream.
    pub crl: CertificateRevocationList,
    /// The RSU-side mirror kept in sync by deltas.
    pub mirror: CertificateRevocationList,
    /// Every decision in emission order (observed replays only).
    pub kept: Vec<Decision>,
    /// Per-tick observations (observed replays only).
    pub ticks: Vec<TickRecord>,
    /// Wall clock from the first slice to the last, harness work included.
    pub wall_s: f64,
    /// Most heap bytes live at once during the replay, above the level
    /// it started from: server, authority, mirror and their transients
    /// (plus, on an observed replay, what the harness keeps).
    pub peak_heap_bytes: usize,
}

/// The driver's view of the stages inside one timed tick. The untraced
/// runs use [`NoProbe`], whose methods compile to nothing.
pub trait Probe {
    /// A replay starts.
    fn begin_replay(&mut self) {}
    /// The timed section of driver tick `tick` starts.
    fn begin_tick(&mut self, _tick: u32) {}
    /// A public call into the program starts.
    fn enter(&mut self, _stage: Stage) {}
    /// The call entered last returns, having processed `items` items.
    fn exit(&mut self, _items: u64) {}
    /// The timed section ends.
    fn end_tick(&mut self) {}
    /// The replay ends.
    fn end_replay(&mut self) {}
}

/// The public calls the driver makes per tick, in order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// `StreamServer::ingest_batch`
    IngestBatch,
    /// `StreamServer::tick`
    Tick,
    /// `StreamServer::take_reports`
    TakeReports,
    /// `MisbehaviorAuthority::ingest_batch`
    AuthorityIngest,
    /// `CertificateRevocationList::delta_since`
    CrlDelta,
    /// `CertificateRevocationList::apply_delta`
    CrlApply,
    /// `StreamServer::evict_stale`
    EvictStale,
}

impl Stage {
    /// Span name: crate, then the public function.
    pub fn name(self) -> &'static str {
        match self {
            Stage::IngestBatch => "serve.ingest_batch",
            Stage::Tick => "serve.tick",
            Stage::TakeReports => "serve.take_reports",
            Stage::AuthorityIngest => "mbr.authority.ingest_batch",
            Stage::CrlDelta => "mbr.crl.delta_since",
            Stage::CrlApply => "mbr.crl.apply_delta",
            Stage::EvictStale => "serve.evict_stale",
        }
    }
}

/// The probe of the untraced runs.
pub struct NoProbe;
impl Probe for NoProbe {}

/// Replays `stream` once through a fresh server and authority.
///
/// With `observe`, the harness also keeps every decision and reads the
/// server's counters after every tick (for the correctness checks and the
/// gauges); that work is outside the timed sections but does disturb
/// caches, so observed replays are never used for timing metrics.
pub fn replay<P: Probe>(
    plan: &ServePlan<'_>,
    stream: &Stream,
    observe: bool,
    probe: &mut P,
) -> Replay {
    let heap_before = crate::alloc::live();
    crate::alloc::reset_peak();
    let pipeline = &plan.detector.pipeline;
    let mut server = StreamServer::new(
        &pipeline.vehigan,
        pipeline.scaler.clone(),
        plan.server.clone(),
    )
    .expect("server builds from the fixed configuration");
    let mut authority = MisbehaviorAuthority::new(plan.policy);
    if let Some(scms) = &stream.scms {
        authority = authority.with_linkage(scms.clone());
    }
    let mut mirror = CertificateRevocationList::new(plan.policy.revocation_validity_s);

    let n_slices = stream.slices.len();
    let mut out = Replay {
        service_s: Vec::with_capacity(n_slices + 8),
        tick_decisions: Vec::with_capacity(n_slices + 8),
        fnv: FNV_OFFSET,
        stats: ServerStats::default(),
        undrained: 0,
        score_errors: 0,
        authority: AuthorityStats::default(),
        pending_suspects: 0,
        crl: CertificateRevocationList::new(None),
        mirror: CertificateRevocationList::new(None),
        kept: Vec::new(),
        ticks: Vec::new(),
        wall_s: 0.0,
        peak_heap_bytes: 0,
    };
    if observe {
        out.kept
            .reserve(stream.completes.iter().sum::<u64>() as usize);
        out.ticks.reserve(n_slices + 8);
    }

    let mut cursor = 0usize;
    let mut tick = 0usize;
    let mut drain_ticks = 0usize;
    let mut now = 0.0f64;
    let wall = Instant::now();
    probe.begin_replay();
    loop {
        // Which slices arrive this tick.
        let mult = match plan.burst {
            Some(b) if tick >= b.at_tick && tick < b.at_tick + b.ticks => b.multiplier,
            _ => 1,
        };
        let first_slice = cursor;
        let take = mult.min(n_slices - cursor);
        let range = if take == 0 {
            if server.pending_windows() == 0 || drain_ticks >= MAX_DRAIN_TICKS {
                break;
            }
            drain_ticks += 1;
            stream.bsms.len()..stream.bsms.len()
        } else {
            let r = stream.slices[cursor].start..stream.slices[cursor + take - 1].end;
            cursor += take;
            r
        };
        let slice = &stream.bsms[range];
        if let Some(last) = slice.last() {
            // Stream time: the newest transmit stamp delivered so far (a
            // replayed stamp is older and must not turn the clock back).
            now = now.max(last.timestamp);
        }

        // ---- timed section ----
        probe.begin_tick(tick as u32);
        let t0 = Instant::now();
        probe.enter(Stage::IngestBatch);
        let ingest = server.ingest_batch(slice);
        probe.exit(slice.len() as u64);
        probe.enter(Stage::Tick);
        let ticked = server.tick();
        probe.exit(ticked.as_ref().map_or(0, |d| d.len() as u64));
        probe.enter(Stage::TakeReports);
        let reports: Vec<Mbr> = server.take_reports();
        probe.exit(reports.len() as u64);
        probe.enter(Stage::AuthorityIngest);
        if !reports.is_empty() {
            let _ = authority.ingest_batch(&reports);
        }
        probe.exit(reports.len() as u64);
        probe.enter(Stage::CrlDelta);
        let delta = authority.crl().delta_since(mirror.seq());
        probe.exit(delta.ops.len() as u64);
        probe.enter(Stage::CrlApply);
        mirror.apply_delta(&delta);
        probe.exit(delta.ops.len() as u64);
        if plan.evict {
            probe.enter(Stage::EvictStale);
            let evicted = server.evict_stale(now);
            probe.exit(evicted as u64);
        }
        let dt = t0.elapsed().as_secs_f64();
        probe.end_tick();
        // ---- end of timed section ----

        let decisions = match ticked {
            Ok(d) => d,
            Err(_) => {
                out.score_errors += 1;
                Vec::new()
            }
        };
        out.service_s.push(dt);
        out.tick_decisions.push(decisions.len() as u32);
        for d in &decisions {
            out.fnv = fnv_decision(out.fnv, d);
        }
        if observe {
            let evidence_len = plan.policy.evidence_len;
            out.ticks.push(TickRecord {
                first_slice,
                n_slices: take,
                received: ingest.received,
                accepted: ingest.accepted,
                rejected: ingest.rejected,
                panicked_shards: ingest.panicked_shards.len(),
                decisions: decisions.len() as u64,
                pending_after: server.pending_windows() as u64,
                vehicles_tracked: server.num_vehicles() as u64,
                stats: server.stats(),
                reports: reports.len() as u64,
                invalid_reports: reports
                    .iter()
                    .filter(|r| r.validate(evidence_len).is_err())
                    .count() as u64,
            });
            out.kept.extend_from_slice(&decisions);
        }
        tick += 1;
    }
    probe.end_replay();
    out.wall_s = wall.elapsed().as_secs_f64();
    out.peak_heap_bytes = crate::alloc::peak().saturating_sub(heap_before);

    out.undrained = server.pending_windows() as u64;
    out.stats = server.stats();
    out.authority = authority.stats();
    out.pending_suspects = authority.pending_suspects();
    out.crl = authority.crl().clone();
    out.mirror = mirror;
    out
}
