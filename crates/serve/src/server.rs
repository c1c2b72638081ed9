//! The streaming detection server: parallel sharded ingest, then once
//! per tick admission and tiled decisions (DESIGN.md §10, §11).
//!
//! 1. **Ingest** — [`StreamServer::ingest_batch`] partitions incoming
//!    BSMs by [`shard_for`] and runs the shards' buckets on as many
//!    threads as the batch is worth ([`vehigan_tensor::forkjoin`]). A
//!    vehicle maps to exactly one shard, so its messages are processed in
//!    arrival order; a shard worker that panics is captured and resumed.
//! 2. **Admit** — [`StreamServer::tick`] measures the offered backlog
//!    against the [`AdmissionConfig`] budget, drives the normal/degraded
//!    hysteresis machine, and takes at most the budget's worth of the
//!    **oldest** pending windows, water-filled across shards in index
//!    order — deterministic whatever the ingest threads did.
//! 3. **Decide** — the admitted windows are taken, shard by shard, into
//!    tiles of at most [`SCORE_TILE`] screened windows, which the
//!    [`TieredDetector`] decides where they lie ([`WindowAt`]); a window
//!    tier 0 suppressed costs no room and is decided on the score it
//!    carries. Decisions land in admitted order in the `Vec` the tick
//!    returns.
//! 4. **Record and escalate** — once every tile has passed, each screened
//!    window's gate score goes back to its vehicle's
//!    [`vehigan_features::Suppression`] by the slab slot its take named,
//!    and tier 2 re-scores the escalated windows where they still lie:
//!    nothing writes a ring or a spill buffer inside a tick.
//!
//! Both scoring backends are batch-row independent, so a window's score
//! does not depend on which windows share its tick. A tick failing on a
//! later tile leaves what one failing on its first leaves: no carried
//! gate score, no report, every admitted window counted shed.

use crate::detector::{TieredDetector, Tile};
use crate::shard::{shard_for, Shard, WindowAt};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use vehigan_core::{EnsembleError, VehiGan};
use vehigan_features::{
    EvictionConfig, IngestGuard, MinMaxScaler, RejectCounters, Tier0Calibration,
};
use vehigan_mbr::Mbr;
use vehigan_sim::{Bsm, VehicleId};
use vehigan_tensor::forkjoin::{fork_join, workers_for};
use vehigan_tensor::{Pieces, Windows};

/// What the tier-1 gate does with a scored window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EscalationPolicy {
    /// Every window goes to the full f32 ensemble (no gate). This is the
    /// reference tier-2 path used by the determinism test.
    Always,
    /// Windows whose int8 gate score exceeds the threshold are re-scored
    /// by the full f32 ensemble; the rest are decided by the gate.
    /// Calibrate with [`escalation_threshold`] so the cutoff sits well
    /// below the detection threshold τ.
    Threshold(f32),
}

/// Load-shedding posture of the server (DESIGN.md §11).
///
/// Driven by the offered backlog relative to the admission budget with
/// hysteresis on both edges, so a single noisy tick cannot flap the
/// policy: the server degrades only after two consecutive over-budget
/// ticks and restores only after three consecutive under-budget ticks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ServeMode {
    /// Configured policy in full effect.
    Normal,
    /// Sustained overload: a `Threshold` gate policy steps down to
    /// gate-only scoring — nothing escalates, and the gate score is
    /// flagged against its own τ — until pressure clears. `Always` (the
    /// reference/calibration path, which has no gate to fall back on) is
    /// unaffected.
    Degraded,
}

/// Tile size for scoring passes. Both backends are batch-row independent
/// and walk one window at a time, so splitting a tick's windows into
/// tiles changes nothing bitwise. A tile is one scoring call and the unit
/// a member failure is confined to — τ and the survivor set are per tile.
/// It holds no floats: each window is read where it lies.
pub const SCORE_TILE: usize = 128;

/// Admission-control and degradation parameters (DESIGN.md §11).
///
/// The default is fully unbounded — bitwise-identical behavior to a
/// server without admission control — so existing callers and the
/// determinism suite are unaffected unless a deployment opts in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmissionConfig {
    /// Compute budget: windows scored per tick. `None` = unbounded.
    /// Values below 1 are treated as 1 so a tick always makes progress.
    pub windows_per_tick: Option<usize>,
    /// Pending-queue bound per shard; when a completing window would
    /// overflow it, the shard sheds its **oldest** queued window
    /// (drop-head) and counts it. `None` = unbounded.
    pub max_pending_per_shard: Option<usize>,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig::unbounded()
    }
}

impl AdmissionConfig {
    /// No budget, no queue bound: the historical always-score-everything
    /// behavior.
    pub fn unbounded() -> Self {
        AdmissionConfig {
            windows_per_tick: None,
            max_pending_per_shard: None,
        }
    }
}

/// Consecutive over-budget ticks before `Normal → Degraded`.
const DEGRADE_AFTER: u32 = 2;
/// Consecutive under-budget ticks before `Degraded → Normal`.
const RESTORE_AFTER: u32 = 3;

/// Server construction parameters.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker shard count (vehicles are hashed across these).
    pub n_shards: usize,
    /// Window length `w` in messages (paper: 10).
    pub window: usize,
    /// Per-shard state bound; `max_vehicles` applies per shard.
    pub eviction: EvictionConfig,
    /// Tier-1 gate policy.
    pub policy: EscalationPolicy,
    /// Pinned ensemble member subset for tier-2 (and the gate, unless
    /// [`ServerConfig::gate_members`] narrows it). `None` deploys the
    /// first `k` members, `(0..k)`. A fixed subset (rather than per-batch
    /// sampling) keeps every tick — and the determinism test —
    /// reproducible.
    pub members: Option<Vec<usize>>,
    /// Member subset for the int8 tier-1 gate. `None` gates with the
    /// full tier-2 subset, which keeps the gated score vector within
    /// int8 quantization error of the pure f32 path everywhere (AUROC
    /// drift ≲ 0.004 on the attack campaign). A narrower subset trades
    /// gate accuracy for speed: subtle attacks (constant-offset
    /// families) start slipping under a half-width gate, so measure
    /// drift before narrowing.
    pub gate_members: Option<Vec<usize>>,
    /// Ingest-time validation applied by every shard before window
    /// state is touched. The default guard checks finiteness and strict
    /// per-vehicle timestamp monotonicity only; [`IngestGuard::rsu`]
    /// adds physical range limits.
    pub guard: IngestGuard,
    /// Admission control and degraded-mode tiering. Unbounded by
    /// default.
    pub admission: AdmissionConfig,
    /// Tier-0 kinematic gate calibration (DESIGN.md §12). `None` (the
    /// default) screens every window through tier 1. With one, a
    /// vehicle's window skips tier 1 while its
    /// [`vehigan_features::Suppression`] carries a score; anything else
    /// falls through to the tier-1 → tier-2 path. Ignored under
    /// [`EscalationPolicy::Always`]: the shards then run no monitor.
    pub tier0: Option<Tier0Calibration>,
    /// Reporter identity (this RSU's own pseudonym) for misbehavior
    /// reports. When set, every flagged tier-2 escalation emits an
    /// [`Mbr`] carrying the scored window as evidence, collected via
    /// [`StreamServer::take_reports`] for forwarding to the misbehavior
    /// authority. `None` (the default) disables reporting.
    pub reporter: Option<VehicleId>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            n_shards: 8,
            window: 10,
            eviction: EvictionConfig::unbounded(),
            policy: EscalationPolicy::Always,
            members: None,
            gate_members: None,
            guard: IngestGuard::permissive(),
            admission: AdmissionConfig::unbounded(),
            tier0: None,
            reporter: None,
        }
    }
}

/// Construction/scoring failures surfaced by the server.
#[derive(Debug)]
pub enum ServeError {
    /// `n_shards` was zero.
    ZeroShards,
    /// [`ServerConfig::window`] was below 2: a feature row is derived
    /// from two consecutive messages, so no shorter window exists.
    WindowTooShort {
        /// The configured window length.
        window: usize,
    },
    /// [`EscalationPolicy::Threshold`] held NaN: no gate score compares
    /// above it, so nothing would ever escalate or be flagged. (±∞ are
    /// legal: they escalate everything or nothing on purpose.)
    NanEscalationThreshold,
    /// A deployed critic scores another snapshot shape than the server
    /// would assemble.
    ShapeMismatch {
        /// The configured `(window, scaler.width())`.
        configured: (usize, usize),
        /// Ensemble index of the disagreeing member.
        member: usize,
        /// The `(window, features)` that member was built for.
        critic: (usize, usize),
    },
    /// The pinned member subset was empty, out of bounds or named a
    /// member twice.
    BadMembers(EnsembleError),
    /// A scoring pass failed.
    Score(EnsembleError),
    /// [`EscalationPolicy::Threshold`] requires a compiled int8 backend.
    Int8NotCompiled,
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::ZeroShards => write!(f, "server needs at least one shard"),
            ServeError::WindowTooShort { window } => {
                write!(f, "window of {window} messages is below the minimum of 2")
            }
            ServeError::NanEscalationThreshold => {
                write!(f, "escalation threshold is NaN: no window would escalate")
            }
            ServeError::ShapeMismatch {
                configured,
                member,
                critic,
            } => write!(
                f,
                "server assembles {}x{} snapshots but member {member} scores {}x{}",
                configured.0, configured.1, critic.0, critic.1
            ),
            ServeError::BadMembers(e) => write!(f, "bad member subset: {e}"),
            ServeError::Score(e) => write!(f, "scoring failed: {e}"),
            ServeError::Int8NotCompiled => {
                write!(f, "gate policy requires VehiGan::compile_int8 first")
            }
        }
    }
}

impl std::error::Error for ServeError {}

/// One scored window, emitted by [`StreamServer::tick`] in deterministic
/// batch order.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Decision {
    /// Pseudonym the window belongs to.
    pub vehicle: VehicleId,
    /// Timestamp of the BSM that completed the window.
    pub timestamp: f64,
    /// Final anomaly score: tier-2 f32 if escalated, else the gate score.
    pub score: f32,
    /// Detection threshold τ of the path that produced `score`.
    pub threshold: f32,
    /// Whether the window was re-scored by the full f32 ensemble.
    pub escalated: bool,
    /// `score > threshold` — a misbehavior detection.
    pub flagged: bool,
    /// Whether the window was suppressed at tier 0: the vehicle's
    /// kinematic monitors were warm and in-interval and it held a fresh
    /// sub-detection tier-1 score, so `score` is that carried gate
    /// score and no ensemble ran. Always `false` without a tier-0
    /// calibration.
    pub suppressed: bool,
}

/// Running counters across the server's lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ServerStats {
    /// BSMs ingested.
    pub ingested: u64,
    /// Windows scored across all ticks.
    pub windows_scored: u64,
    /// Windows suppressed at tier 0 (kinematic monitors in-interval; no
    /// ensemble ran). Partitions `windows_scored` together with
    /// `tier1_screened` and `tier2_escalated`.
    pub tier0_suppressed: u64,
    /// Windows whose final decision came from the int8 tier-1 gate.
    pub tier1_screened: u64,
    /// Windows whose final decision came from the f32 tier-2 ensemble.
    pub tier2_escalated: u64,
    /// Vehicles evicted by TTL/LRU across all shards.
    pub evicted: u64,
    /// BSMs rejected by the ingest guards, per reason class.
    pub rejected: RejectCounters,
    /// Windows shed unscored: by queue bounds/admission control, and the
    /// windows a tick had admitted when its scoring pass failed.
    pub shed: u64,
    /// Captured ingest-worker panics.
    pub shard_panics: u64,
    /// Server ticks elapsed.
    pub ticks: u64,
    /// Ticks spent in degraded (gate-only) mode.
    pub degraded_ticks: u64,
    /// Mode transitions in either direction.
    pub mode_switches: u64,
    /// Members benched for returning non-finite scores.
    pub member_demotions: u64,
    /// Members reinstated after probation.
    pub member_reinstatements: u64,
    /// Misbehavior reports emitted from flagged tier-2 escalations
    /// (zero unless [`ServerConfig::reporter`] is set).
    pub reports_emitted: u64,
}

/// Outcome of one [`StreamServer::ingest_batch`] call.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct IngestReport {
    /// Messages in the batch.
    pub received: u64,
    /// Messages accepted into window state.
    pub accepted: u64,
    /// Messages rejected by the ingest guards during this batch.
    pub rejected: RejectCounters,
    /// Windows shed by per-shard queue bounds during this batch.
    pub shed: u64,
    /// Shards whose ingest worker panicked (captured and resumed).
    pub panicked_shards: Vec<usize>,
}

/// A screened window on its way through a tick: the decision it fills,
/// and where its floats lie.
#[derive(Debug, Clone, Copy)]
struct Screened {
    decision: u32,
    shard: u32,
    at: WindowAt,
}

/// Screened windows as the scoring calls read them: in their shards'
/// rings and spill buffers.
struct Lying<'a> {
    shards: &'a [Shard],
    windows: &'a [Screened],
}

impl Windows for Lying<'_> {
    fn count(&self) -> usize {
        self.windows.len()
    }

    fn window(&self, i: usize) -> Pieces<'_> {
        let w = self.windows[i];
        self.shards[w.shard as usize].window_at(w.at)
    }
}

impl Tile for Lying<'_> {
    fn decision(&self, i: usize) -> usize {
        self.windows[i].decision as usize
    }
}

/// The buffers a tick fills, owned by the server so that a steady-state
/// tick allocates only what it hands out (its decisions and reports).
/// Cleared, never dropped, between ticks.
#[derive(Default)]
struct TickArena {
    /// Per shard, the windows pending and the windows admitted but not
    /// yet taken.
    lens: Vec<usize>,
    take: Vec<usize>,
    /// The tile being gathered: at most [`SCORE_TILE`] screened windows.
    screened: Vec<Screened>,
    /// The windows whose gate score crossed τ_esc.
    escalate: Vec<Screened>,
    /// With tier 0 armed, the shard and slab slot of every screened
    /// window, in admitted order: where its gate score is recorded.
    slots: Vec<(u32, u32)>,
}

/// One shard's share of an [`StreamServer::ingest_batch`] call; the
/// server keeps one per shard and refills it every call.
#[derive(Default)]
struct IngestTask {
    /// Positions in the call's `bsms` of this shard's messages, in
    /// arrival order.
    bucket: Vec<usize>,
    /// Panics observed while running the bucket.
    panics: u32,
    /// What the bucket added to the shard's lifetime counters.
    processed: u64,
    rejected: RejectCounters,
    shed: u64,
}

/// What [`Shard::ingest`] costs per message, for [`workers_for`]: an
/// unforked `ingest_batch` reads 242–256 ns per BSM on the ledger
/// (`serve.ingest_batch.ns_per_bsm` at PR 16; the shard alone 220–340).
const INGEST_NS_PER_BSM: usize = 240;

/// The degrade/restore hysteresis core, kept free of server state so the
/// edge conditions are unit-testable.
#[derive(Debug, Clone, Copy)]
struct ModeMachine {
    mode: ServeMode,
    over_streak: u32,
    under_streak: u32,
}

impl ModeMachine {
    fn new() -> Self {
        ModeMachine {
            mode: ServeMode::Normal,
            over_streak: 0,
            under_streak: 0,
        }
    }

    /// Feeds one tick's pressure observation; returns whether the mode
    /// switched.
    fn observe(&mut self, over_budget: bool) -> bool {
        if over_budget {
            self.over_streak += 1;
            self.under_streak = 0;
        } else {
            self.under_streak += 1;
            self.over_streak = 0;
        }
        match self.mode {
            ServeMode::Normal if self.over_streak >= DEGRADE_AFTER => {
                self.mode = ServeMode::Degraded;
                true
            }
            ServeMode::Degraded if self.under_streak >= RESTORE_AFTER => {
                self.mode = ServeMode::Normal;
                true
            }
            _ => false,
        }
    }
}

/// Splits a window budget across shard queue depths, oldest-first within
/// each shard: every shard gets its proportional share (floor), and the
/// remainder is dealt one window at a time in shard-index order to
/// shards with backlog left. Deterministic in the queue depths alone.
/// `take` is overwritten with one count per shard.
fn budgeted_take_into(lens: &[usize], budget: Option<usize>, take: &mut Vec<usize>) {
    take.clear();
    let total: usize = lens.iter().sum();
    let Some(b) = budget.map(|b| b.max(1)).filter(|&b| total > b) else {
        take.extend_from_slice(lens);
        return;
    };
    take.extend(lens.iter().map(|&l| l * b / total));
    let mut assigned: usize = take.iter().sum();
    let mut i = 0;
    while assigned < b {
        if take[i] < lens[i] {
            take[i] += 1;
            assigned += 1;
        }
        i = (i + 1) % lens.len();
    }
}

/// Takes the admitted windows — `arena.take[s]` from shard `s`,
/// counted down as they leave it — and pushes one decision per window
/// onto `decisions` in admitted order (shard index, then ingestion
/// order).
///
/// The screened windows gather in tiles of at most [`SCORE_TILE`],
/// each decided once it fills or the take is over, so the tile
/// boundaries fall where a whole-batch pass would put them. Once every
/// tile has passed, the gate scores of the screened windows are
/// recorded on their vehicles, and tier 2 runs over the windows the
/// gate escalated.
fn decide_admitted(
    detector: &mut TieredDetector<'_>,
    shards: &mut [Shard],
    arena: &mut TickArena,
    decisions: &mut Vec<Decision>,
) -> Result<(), ServeError> {
    arena.screened.clear();
    arena.escalate.clear();
    arena.slots.clear();
    arena.screened.reserve_exact(SCORE_TILE);
    let suppressing = detector.tier0_tau.is_some();
    let last = arena.take.len() - 1;
    for s in 0..=last {
        loop {
            let room = SCORE_TILE - arena.screened.len();
            let left = &mut arena.take[s];
            *left -= shards[s].take_pending_within(*left, room, |w, at| {
                let d = detector.admit(w.vehicle, w.timestamp, w.carried);
                if !d.suppressed {
                    let decision = decisions.len() as u32;
                    let shard = s as u32;
                    arena.screened.push(Screened {
                        decision,
                        shard,
                        at,
                    });
                    if suppressing {
                        arena.slots.push((shard, w.slot));
                    }
                }
                decisions.push(d);
            });
            let done = *left == 0;
            let full = arena.screened.len() == SCORE_TILE;
            if full || done && s == last && !arena.screened.is_empty() {
                let tile = Lying {
                    shards,
                    windows: &arena.screened,
                };
                let escalate = &mut arena.escalate;
                detector.decide(&tile, decisions, |i| escalate.push(tile.windows[i]))?;
                arena.screened.clear();
            }
            if done {
                break;
            }
        }
    }
    // Every gate tile passed: the real tier-1 scores go back to the
    // owning vehicles — the carried scores tier-0 suppression reuses.
    let gated = decisions.iter().filter(|d| !d.suppressed);
    for (&(s, slot), d) in arena.slots.iter().zip(gated) {
        shards[s as usize].record_gate(slot, d.score);
    }
    let escalated = Lying {
        shards,
        windows: &arena.escalate,
    };
    detector.escalate(&escalated, decisions)
}

/// Runs one shard's bucket with panic capture: a panicked worker is
/// resumed once past the message it died on; a second panic quarantines
/// the rest of the bucket for this batch. Returns observed panics. A test
/// build can make the first attempt panic before it touches state.
fn ingest_bucket(
    shard: &mut Shard,
    bsms: &[Bsm],
    bucket: &[usize],
    #[cfg(test)] inject_panic: bool,
) -> u32 {
    // Index of the message being processed; usize::MAX = none yet, so a
    // panic before the loop resumes from 0 with zero message loss.
    let progress = AtomicUsize::new(usize::MAX);
    let mut panics = 0u32;
    let mut start = 0usize;
    loop {
        let result = catch_unwind(AssertUnwindSafe(|| {
            #[cfg(test)]
            if inject_panic && panics == 0 {
                panic!("injected shard-ingest panic");
            }
            for (offset, &at) in bucket[start..].iter().enumerate() {
                progress.store(start + offset, Ordering::Relaxed);
                shard.ingest(&bsms[at]);
            }
        }));
        match result {
            Ok(()) => return panics,
            Err(_) => {
                panics += 1;
                if panics >= 2 {
                    return panics;
                }
                start = progress.load(Ordering::Relaxed).wrapping_add(1);
                if start >= bucket.len() {
                    return panics;
                }
            }
        }
    }
}

/// A long-lived RSU-style streaming detection service over a trained
/// [`VehiGan`].
pub struct StreamServer<'a> {
    /// The decision rule every admitted window goes through.
    pub(crate) detector: TieredDetector<'a>,
    /// Owned, one per ingest task: a forked `ingest_batch` hands each
    /// task its own `&mut Shard`, and everything else runs on the caller.
    shards: Vec<Shard>,
    admission: AdmissionConfig,
    mode_machine: ModeMachine,
    tick_index: u64,
    /// Per-shard ingest work lists.
    ingest_tasks: Vec<IngestTask>,
    arena: TickArena,
    stats: ServerStats,
}

impl<'a> StreamServer<'a> {
    /// Builds a server over a trained ensemble and fitted scaler.
    ///
    /// # Errors
    ///
    /// [`ServeError::ZeroShards`] for an empty shard set,
    /// [`ServeError::WindowTooShort`] for a window below 2,
    /// [`ServeError::NanEscalationThreshold`] for a `Threshold(NaN)` policy,
    /// [`ServeError::BadMembers`] for a bad pinned subset,
    /// [`ServeError::ShapeMismatch`] when a deployed critic was built for
    /// another `window × features` than the config and scaler give,
    /// [`ServeError::Int8NotCompiled`] when the gate policy needs the
    /// int8 backend but [`VehiGan::compile_int8`] has not run.
    pub fn new(
        vehigan: &'a VehiGan,
        scaler: MinMaxScaler,
        config: ServerConfig,
    ) -> Result<Self, ServeError> {
        if config.n_shards == 0 {
            return Err(ServeError::ZeroShards);
        }
        if config.window < 2 {
            return Err(ServeError::WindowTooShort {
                window: config.window,
            });
        }
        let detector = TieredDetector::new(vehigan, &config, scaler.width())?;
        let tier0 = config.tier0.filter(|_| detector.tier0_tau.is_some());
        let shards = (0..config.n_shards)
            .map(|_| {
                Shard::with_guard(
                    config.window,
                    scaler.clone(),
                    config.eviction,
                    config.guard,
                    config.admission.max_pending_per_shard,
                )
                .with_tier0(tier0)
            })
            .collect();
        Ok(StreamServer {
            detector,
            shards,
            admission: config.admission,
            mode_machine: ModeMachine::new(),
            tick_index: 0,
            ingest_tasks: (0..config.n_shards)
                .map(|_| IngestTask::default())
                .collect(),
            arena: TickArena::default(),
            stats: ServerStats::default(),
        })
    }

    /// Ingests a batch of BSMs, processing shards in parallel.
    ///
    /// Messages are partitioned by [`shard_for`] with relative order
    /// preserved, and each vehicle's messages land on exactly one shard —
    /// so per-vehicle window state is identical to serial ingestion no
    /// matter how the shard threads interleave. Guard rejections and
    /// queue-bound shedding are counted; a panicking shard worker is
    /// captured and resumed instead of tearing the server down (see
    /// [`IngestReport`]).
    pub fn ingest_batch(&mut self, bsms: &[Bsm]) -> IngestReport {
        let n_shards = self.shards.len();
        for task in &mut self.ingest_tasks {
            task.bucket.clear();
            (task.panics, task.processed, task.shed) = (0, 0, 0);
            task.rejected = RejectCounters::default();
        }
        for (at, bsm) in bsms.iter().enumerate() {
            self.ingest_tasks[shard_for(bsm.vehicle_id, n_shards)]
                .bucket
                .push(at);
        }

        #[cfg(test)]
        let panic_on = std::mem::take(&mut self.detector.faults.ingest_panics);
        // Tasks run one per shard, so a task's index is its shard's.
        let run = |_: &mut (), _index: usize, (shard, task): (&mut Shard, &mut IngestTask)| {
            let (ingested0, rejects0, shed0) = (shard.ingested(), shard.rejects(), shard.shed());
            task.panics = ingest_bucket(
                shard,
                bsms,
                &task.bucket,
                #[cfg(test)]
                panic_on.contains(&_index),
            );
            task.processed = shard.ingested() - ingested0;
            task.rejected = shard.rejects().since(&rejects0);
            task.shed = shard.shed() - shed0;
        };
        let workers = workers_for(bsms.len() * INGEST_NS_PER_BSM).min(n_shards);
        let mut threads = vec![(); workers];
        // Worker panics are captured inside ingest_bucket; a panic that
        // somehow escaped capture (panic-while-panicking aborts before
        // reaching here) still must not take the server down with it.
        let tasks = self.shards.iter_mut().zip(&mut self.ingest_tasks);
        if catch_unwind(AssertUnwindSafe(|| fork_join(&mut threads, tasks, run))).is_err() {
            // Attribute the escaped panic to every shard we cannot vouch
            // for rather than crash; the counters below still reflect
            // whatever work completed.
            for task in &mut self.ingest_tasks {
                task.panics += 1;
            }
        }
        self.stats.ingested += bsms.len() as u64;

        let mut report = IngestReport {
            received: bsms.len() as u64,
            ..IngestReport::default()
        };
        let mut processed = 0u64;
        for (i, task) in self.ingest_tasks.iter().enumerate() {
            processed += task.processed;
            report.rejected += task.rejected;
            report.shed += task.shed;
            if task.panics > 0 {
                report.panicked_shards.push(i);
                self.stats.shard_panics += u64::from(task.panics);
            }
        }
        report.accepted = processed - report.rejected.total();
        report
    }

    /// Admits up to the window budget from the shards' pending queues
    /// (oldest-first per shard, water-filled across shards), has the
    /// [`TieredDetector`] decide the admitted windows tile by tile, and
    /// emits decisions in deterministic order (shard index, then ingestion
    /// order). Windows over budget stay queued for later ticks. Each tick
    /// also advances the normal/degraded hysteresis machine and the
    /// member-health probation clock.
    ///
    /// Returns an empty vec when no windows are ready.
    ///
    /// # Errors
    ///
    /// [`ServeError::Score`] when a scoring pass fails; the windows the
    /// tick had admitted, taken or not, are then counted as `shed`, not
    /// as scored, and no report or carried gate score of an earlier tile
    /// is left behind.
    pub fn tick(&mut self) -> Result<Vec<Decision>, ServeError> {
        self.tick_index += 1;
        self.stats.ticks += 1;

        let arena = &mut self.arena;
        arena.lens.clear();
        arena
            .lens
            .extend(self.shards.iter().map(Shard::pending_windows));
        let offered: usize = arena.lens.iter().sum();
        let over_budget = self
            .admission
            .windows_per_tick
            .is_some_and(|b| offered > b.max(1));
        if self.mode_machine.observe(over_budget) {
            self.stats.mode_switches += 1;
        }
        if self.mode_machine.mode == ServeMode::Degraded {
            self.stats.degraded_ticks += 1;
        }
        self.detector.begin(self.tick_index, self.mode_machine.mode);

        let budget = self.admission.windows_per_tick;
        budgeted_take_into(&arena.lens, budget, &mut arena.take);
        let n: usize = arena.take.iter().sum();
        if n == 0 {
            return Ok(Vec::new());
        }
        let mut decisions = Vec::with_capacity(n);
        let reports = self.detector.reports.len();
        let shards = &mut self.shards;
        if let Err(e) = decide_admitted(&mut self.detector, shards, arena, &mut decisions) {
            // The admitted windows, taken or not, leave the shards and will
            // never be decided: they are shed, not scored. The reports of
            // tiles decided before the failure go too; carried gate scores
            // wait for every gate tile to pass, so none is left behind.
            for (shard, &k) in shards.iter_mut().zip(&arena.take) {
                shard.shed_oldest(k);
            }
            self.stats.shed += decisions.len() as u64;
            self.detector.reports.truncate(reports);
            return Err(e);
        }
        self.detector.commit(self.tick_index);

        let screened = decisions.iter().filter(|d| !d.suppressed).count();
        let escalated = decisions.iter().filter(|d| d.escalated).count();
        self.stats.windows_scored += n as u64;
        self.stats.tier0_suppressed += (n - screened) as u64;
        self.stats.tier1_screened += (screened - escalated) as u64;
        self.stats.tier2_escalated += escalated as u64;
        self.stats.reports_emitted += (self.detector.reports.len() - reports) as u64;
        Ok(decisions)
    }

    /// Runs TTL eviction on every shard at stream time `now`, returning
    /// how many vehicles were dropped. Vehicles with pending windows are
    /// always retained.
    pub fn evict_stale(&mut self, now: f64) -> usize {
        self.shards.iter_mut().map(|s| s.evict_stale(now)).sum()
    }

    /// Windows queued across all shards awaiting the next tick.
    pub fn pending_windows(&self) -> usize {
        self.shards.iter().map(Shard::pending_windows).sum()
    }

    /// Vehicles currently resident across all shards.
    pub fn num_vehicles(&self) -> usize {
        self.shards.iter().map(Shard::num_vehicles).sum()
    }

    /// Lifetime counters (ingest/score/reject/shed/degrade/health).
    pub fn stats(&self) -> ServerStats {
        let mut stats = self.stats;
        stats.evicted = 0;
        stats.rejected = RejectCounters::default();
        for shard in &self.shards {
            stats.evicted += shard.evicted();
            stats.rejected += shard.rejects();
            stats.shed += shard.shed();
        }
        stats.member_demotions = self.detector.health.demotions();
        stats.member_reinstatements = self.detector.health.reinstatements();
        stats
    }

    /// Sets (or clears) the reporter identity misbehavior reports are
    /// emitted under. Useful when coverage hands a stream between RSUs
    /// mid-run; takes effect from the next tick.
    pub fn set_reporter(&mut self, reporter: Option<VehicleId>) {
        self.detector.reporter = reporter;
    }

    /// Drains the misbehavior reports emitted since the last call (in
    /// decision order), for forwarding to the misbehavior authority.
    pub fn take_reports(&mut self) -> Vec<Mbr> {
        self.detector.take_reports()
    }

    /// The shards, for the in-crate chaos tests to inspect.
    #[cfg(test)]
    pub(crate) fn shards(&self) -> &[Shard] {
        &self.shards
    }
}

/// Calibrates the gate's escalation threshold from benign gate scores:
/// the `p`-th percentile (e.g. 90.0), so roughly `100 − p` percent of
/// benign traffic escalates. Keep `p` below the detection percentile
/// (99) so every would-be detection crosses the gate and is confirmed by
/// the f32 ensemble — that is what bounds AUROC drift (DESIGN.md §10).
pub fn escalation_threshold(benign_gate_scores: &[f32], p: f64) -> f32 {
    vehigan_metrics::percentile(benign_gate_scores, p)
}

#[cfg(test)]
mod tests {
    use super::*;

    impl StreamServer<'_> {
        /// Members currently benched by serve-time health probation.
        pub(crate) fn benched_members(&self) -> Vec<usize> {
            self.detector.health.benched()
        }

        /// Current load-shedding posture.
        pub(crate) fn mode(&self) -> ServeMode {
            self.mode_machine.mode
        }
    }

    #[test]
    fn budgeted_take_is_proportional_and_exact() {
        let budgeted_take = |lens: &[usize], budget| {
            // Whatever the last tick left there is overwritten.
            let mut take = vec![9; 7];
            budgeted_take_into(lens, budget, &mut take);
            take
        };
        // Under budget: take everything.
        assert_eq!(budgeted_take(&[3, 0, 2], Some(10)), vec![3, 0, 2]);
        assert_eq!(budgeted_take(&[3, 0, 2], None), vec![3, 0, 2]);
        // Over budget: water-filled, sums to exactly the budget, never
        // exceeds a shard's queue.
        let lens = [10, 1, 7, 0, 4];
        let take = budgeted_take(&lens, Some(9));
        assert_eq!(take.iter().sum::<usize>(), 9);
        for (t, l) in take.iter().zip(&lens) {
            assert!(t <= l);
        }
        // Deterministic.
        assert_eq!(take, budgeted_take(&lens, Some(9)));
        // Budget floor of 1.
        assert_eq!(budgeted_take(&[5, 5], Some(0)).iter().sum::<usize>(), 1);
    }

    #[test]
    fn mode_machine_degrades_and_restores_with_hysteresis() {
        let mut m = ModeMachine::new();
        // One over-budget tick is not enough (DEGRADE_AFTER = 2).
        assert!(!m.observe(true));
        assert_eq!(m.mode, ServeMode::Normal);
        // A clean tick resets the streak.
        assert!(!m.observe(false));
        assert!(!m.observe(true));
        assert_eq!(m.mode, ServeMode::Normal);
        // Two consecutive over-budget ticks degrade.
        assert!(m.observe(true));
        assert_eq!(m.mode, ServeMode::Degraded);
        // Restoring needs 3 consecutive clean ticks; pressure resets.
        assert!(!m.observe(false));
        assert!(!m.observe(false));
        assert!(!m.observe(true));
        assert!(!m.observe(false));
        assert!(!m.observe(false));
        assert_eq!(m.mode, ServeMode::Degraded);
        assert!(m.observe(false));
        assert_eq!(m.mode, ServeMode::Normal);
    }

    /// `n` untrained critics with distinct calibrated thresholds.
    fn critics(n: u64) -> Vec<vehigan_core::CriticMember> {
        use vehigan_core::{CriticMember, Wgan, WganConfig};

        let benign: Vec<f32> = (0..32 * 120).map(|i| (i as f32 * 0.37).sin()).collect();
        let benign = vehigan_tensor::Tensor::from_vec(benign, &[32, 10, 12, 1]);
        (0..n)
            .map(|seed| {
                let config = WganConfig {
                    layers: 3,
                    seed,
                    ..WganConfig::default()
                };
                CriticMember::calibrate(Wgan::new(config), 0.9, &benign).unwrap()
            })
            .collect()
    }

    #[test]
    fn a_failed_tick_sheds_its_windows_and_the_next_tick_is_normal() {
        // m = 3 > k = 2, so `members: None` has a member to leave out.
        let mut vehigan = VehiGan::new(critics(3), 2).unwrap();
        // Every τ below every score these windows get: each is reported.
        for member in vehigan.members_mut() {
            member.threshold -= 1.0;
        }
        let calibration = vehigan_tensor::Tensor::from_vec(vec![0.5; 8 * 120], &[8, 10, 12, 1]);
        vehigan.compile_int8(&calibration).unwrap();
        let server_over = |members: Option<Vec<usize>>| {
            let scaler = MinMaxScaler::fit_flat(12, (0..24).map(f64::from));
            let config = ServerConfig {
                n_shards: 2,
                // Every window crosses the gate and is confirmed by tier 2.
                policy: EscalationPolicy::Threshold(f32::NEG_INFINITY),
                members,
                reporter: Some(VehicleId(99)),
                ..ServerConfig::default()
            };
            StreamServer::new(&vehigan, scaler, config).unwrap()
        };
        // Round 0 fills every vehicle's first window (ten feature rows
        // take eleven messages); rounds 1 and 2 complete one more each.
        let round = |r: usize| -> Vec<Bsm> {
            let steps = if r == 0 { 0..11 } else { 10 + r..11 + r };
            steps
                .flat_map(|t| {
                    (0..6).map(move |v| Bsm {
                        vehicle_id: VehicleId(v),
                        timestamp: t as f64 * 0.1,
                        pos_x: t as f64 * (1.0 + v as f64),
                        pos_y: v as f64,
                        speed: 10.0 + v as f64,
                        acceleration: 0.1,
                        heading: 0.3,
                        yaw_rate: 0.0,
                    })
                })
                .collect()
        };
        let pinned = || server_over(Some(vec![0, 1]));
        let bits = |d: &Decision| {
            (
                d.vehicle,
                d.score.to_bits(),
                d.threshold.to_bits(),
                d.flagged,
            )
        };
        let decided = |s: &mut StreamServer| s.tick().unwrap().iter().map(bits).collect::<Vec<_>>();

        // `members: None` deploys `(0..k)`: every decision and report of
        // the pinned server, bit for bit.
        let (mut default, mut reference) = (server_over(None), pinned());
        for r in 0..3 {
            default.ingest_batch(&round(r));
            reference.ingest_batch(&round(r));
            assert_eq!(decided(&mut default), decided(&mut reference), "round {r}");
        }
        let reports = default.take_reports();
        assert_eq!(reports.len(), 18);
        assert_eq!(reports, reference.take_reports());

        let (mut faulted, mut healthy) = (pinned(), pinned());
        for s in [&mut faulted, &mut healthy] {
            s.ingest_batch(&round(0));
            assert_eq!(s.tick().unwrap().len(), 6);
            s.ingest_batch(&round(1));
        }
        let before = faulted.stats();
        assert_eq!((before.windows_scored, before.shed), (6, 0));

        // Every deployed member fails for one tick.
        faulted.detector.faults.poisoned = vec![0, 1];
        let err = faulted.tick().unwrap_err();
        faulted.detector.faults.poisoned.clear();
        let all_failed = EnsembleError::AllMembersFailed {
            attempted: vec![0, 1],
        };
        assert!(
            matches!(&err, ServeError::Score(e) if *e == all_failed),
            "{err}"
        );
        // The six admitted windows left the shards undecided: shed, not
        // scored, and the per-tier partition of the scored ones holds.
        let after = faulted.stats();
        assert_eq!(after.windows_scored, before.windows_scored);
        assert_eq!(after.shed, before.shed + 6);
        assert_eq!(
            after.tier0_suppressed + after.tier1_screened + after.tier2_escalated,
            after.windows_scored
        );
        assert_eq!(faulted.pending_windows(), 0);

        // The next clean tick decides what a never-faulted server does.
        assert_eq!(healthy.tick().unwrap().len(), 6);
        faulted.ingest_batch(&round(2));
        healthy.ingest_batch(&round(2));
        let (got, want) = (faulted.tick().unwrap(), healthy.tick().unwrap());
        assert_eq!(got.len(), 6);
        assert_eq!(
            got.iter().map(bits).collect::<Vec<_>>(),
            want.iter().map(bits).collect::<Vec<_>>()
        );
        assert_eq!(faulted.stats().windows_scored, 12);
    }

    #[test]
    fn each_window_carries_the_threshold_of_its_own_tiles_survivors() {
        let members = critics(2);
        let taus = [members[0].threshold, members[1].threshold];
        assert_ne!(taus[0], taus[1]);
        let mut vehigan = VehiGan::new(members, 2).unwrap();
        // Member 1 becomes a critic that is finite on an all-zero window
        // (0·w = 0 all the way down) and overflows to ±inf on anything
        // else: huge positive weights, zero biases.
        for param in vehigan.members_mut()[1].wgan.critic_mut().params_mut() {
            let value = if param.value.shape().len() == 1 {
                0.0
            } else {
                1e20
            };
            param.value.as_mut_slice().fill(value);
        }

        // Features of ±1 scale to ±1, so a standing vehicle's window (every
        // feature 0) is all zeros.
        let scaler = MinMaxScaler::fit_flat(12, [-1.0; 12].into_iter().chain([1.0; 12]));
        let config = ServerConfig {
            n_shards: 1,
            policy: EscalationPolicy::Always,
            members: Some(vec![0, 1]),
            ..ServerConfig::default()
        };
        let mut server = StreamServer::new(&vehigan, scaler, config).unwrap();

        // Tile 1: the all-zero windows of SCORE_TILE standing vehicles,
        // both members finite. Tile 2: two moving vehicles, member 1
        // non-finite and dropped — for that tile only.
        let n = SCORE_TILE + 2;
        let bsms: Vec<Bsm> = (0..n)
            .flat_map(|v| {
                let speed = if v < SCORE_TILE { 0.0 } else { 1.0 };
                (0..11).map(move |t| Bsm {
                    vehicle_id: VehicleId(v as u32),
                    timestamp: t as f64 * 0.1,
                    pos_x: t as f64 * 0.1 * speed,
                    pos_y: 0.0,
                    speed,
                    acceleration: 0.0,
                    heading: 0.0,
                    yaw_rate: 0.0,
                })
            })
            .collect();
        server.ingest_batch(&bsms);
        let decisions = server.tick().unwrap();
        assert_eq!(decisions.len(), n);
        assert_eq!(server.benched_members(), vec![1]);
        let both = (taus[0] + taus[1]) / 2.0;
        for (i, d) in decisions.iter().enumerate() {
            assert_eq!(d.vehicle, VehicleId(i as u32));
            let want = if i < SCORE_TILE { both } else { taus[0] };
            assert_eq!(d.threshold, want, "window {i}");
            assert!(d.score.is_finite());
            assert_eq!(d.flagged, d.score > d.threshold);
        }
    }

    #[test]
    fn a_subset_naming_a_member_twice_is_refused_at_construction() {
        // It used to build, and every tick weighted member 1 twice.
        let vehigan = VehiGan::new(critics(2), 2).unwrap();
        let build = |members: Option<Vec<usize>>, gate_members: Option<Vec<usize>>| {
            let scaler = MinMaxScaler::fit_flat(12, (0..24).map(f64::from));
            let config = ServerConfig {
                members,
                gate_members,
                ..ServerConfig::default()
            };
            StreamServer::new(&vehigan, scaler, config).err()
        };
        for err in [
            build(Some(vec![1, 1, 0]), None),
            build(Some(vec![0, 1]), Some(vec![0, 1, 1])),
        ] {
            assert!(
                matches!(
                    err,
                    Some(ServeError::BadMembers(EnsembleError::DuplicateMember {
                        index: 1
                    }))
                ),
                "{err:?}"
            );
        }
        assert!(build(Some(vec![1, 0]), Some(vec![0])).is_none());
    }

    #[test]
    fn a_window_below_two_is_refused_at_construction() {
        // It used to build, and every ingest_batch then reported a
        // captured shard panic (WindowBuffer::new's assert).
        let vehigan = VehiGan::new(critics(2), 2).unwrap();
        let scaler = MinMaxScaler::fit_flat(12, (0..24).map(f64::from));
        let config = ServerConfig {
            window: 1,
            ..ServerConfig::default()
        };
        let err = StreamServer::new(&vehigan, scaler, config).err();
        assert!(
            matches!(err, Some(ServeError::WindowTooShort { window: 1 })),
            "{err:?}"
        );
    }

    #[test]
    fn a_nan_escalation_threshold_is_refused_at_construction() {
        // It used to build: `score > NaN` is false for every window, so
        // nothing escalated, nothing was flagged and no error was seen.
        let mut vehigan = VehiGan::new(critics(2), 2).unwrap();
        let calibration = vehigan_tensor::Tensor::from_vec(vec![0.5; 8 * 120], &[8, 10, 12, 1]);
        vehigan.compile_int8(&calibration).unwrap();
        let build = |tau_esc: f32| {
            let scaler = MinMaxScaler::fit_flat(12, (0..24).map(f64::from));
            let config = ServerConfig {
                policy: EscalationPolicy::Threshold(tau_esc),
                ..ServerConfig::default()
            };
            StreamServer::new(&vehigan, scaler, config).err()
        };
        let err = build(f32::NAN);
        assert!(
            matches!(err, Some(ServeError::NanEscalationThreshold)),
            "{err:?}"
        );
        // Escalate everything / escalate nothing stay expressible.
        assert!(build(f32::NEG_INFINITY).is_none());
        assert!(build(f32::INFINITY).is_none());
    }

    #[test]
    fn a_snapshot_shape_the_critics_do_not_score_is_refused_at_construction() {
        // It used to build, and the first tick died on score_fused's
        // length assert. The critics are 10 x 12.
        let vehigan = VehiGan::new(critics(2), 2).unwrap();
        let scaler = |width: usize| MinMaxScaler::fit_flat(width, (0..2 * width).map(|v| v as f64));
        let refused = |window: usize, width: usize| {
            let config = ServerConfig {
                window,
                members: Some(vec![1]),
                ..ServerConfig::default()
            };
            match StreamServer::new(&vehigan, scaler(width), config).err() {
                Some(ServeError::ShapeMismatch {
                    configured,
                    member: 1,
                    critic: (10, 12),
                }) => configured == (window, width),
                _ => false,
            }
        };
        assert!(refused(8, 12), "a shorter window");
        assert!(refused(10, 6), "a narrower scaler");
        // Same 120 floats per snapshot, still not what the critics score.
        assert!(refused(12, 10), "a transposed shape");
        let config = ServerConfig::default();
        assert!(StreamServer::new(&vehigan, scaler(12), config).is_ok());
    }
}
