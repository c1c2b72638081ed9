//! Deterministic fault injection for the stream plane's own tests
//! (DESIGN.md §11). The module exists in test builds only: a production
//! [`StreamServer`] carries no fault seam.
//!
//! A [`FaultPlan`] is a seeded, tick-indexed schedule of every fault
//! class the serve plane defends against:
//!
//! - **member poisoning** — an ensemble member fails for a range of
//!   ticks (through [`FaultInjector::poisoned`]), exercising per-tile
//!   member dropping and [`MemberHealth`] probation; held off for a
//!   number of scoring calls ([`FaultInjector::clean_calls`]), it fails a
//!   tick part-way, on a later tile;
//! - **shard-ingest panics** — a shard's ingest worker panics before
//!   touching state (through [`FaultInjector::ingest_panics`]),
//!   exercising panic capture and zero-loss resume;
//! - **malformed bursts** — BSMs with non-finite or out-of-range fields
//!   spoofing real pseudonyms, exercising the ingest guard (the plan
//!   assumes a guard with [`FieldLimits::rsu`]-style range limits — a
//!   limitless guard would *accept* the out-of-range portion);
//! - **replay/clock-skew bursts** — copies of in-flight messages with
//!   timestamps shifted into the past, modeling a replaying attacker or
//!   a sender with a lagging clock, exercising staleness rejection;
//! - **overload bursts** — time compression: `multiplier` tick-slices
//!   of traffic delivered per server tick, exercising admission
//!   control, shedding, and degraded-mode tiering.
//!
//! The last three arrive as input through the public API; only the
//! first two need the server's [`FaultInjector`].
//!
//! All injection is derived from the plan's seed and tick indices —
//! never from wall clock or a global RNG — so a chaos run is exactly
//! reproducible, which is what lets the tests below assert the server
//! returns to **bitwise-identical** scoring after the faults clear.
//!
//! Injected faults are always *additions* to the real stream (extra
//! messages, transient flags), never mutations of it: every real BSM is
//! still delivered, in order, exactly once. Since rejected messages
//! touch no window state and captured panics lose no messages, the
//! per-vehicle window sequence under faults is identical to the healthy
//! run — the invariant the recovery assertion rests on.
//!
//! [`MemberHealth`]: crate::health::MemberHealth
//! [`FieldLimits::rsu`]: vehigan_features::FieldLimits::rsu

use crate::server::{Decision, ServeError, ServeMode, ServerStats, StreamServer};
use std::cell::Cell;
use vehigan_core::EnsembleError;
use vehigan_features::RejectCounters;
use vehigan_sim::{Bsm, BSM_INTERVAL_S};

/// The two faults that do not arrive as input, which a test build of
/// [`StreamServer`] owns and consults.
#[derive(Debug, Default)]
pub(crate) struct FaultInjector {
    /// Shards whose next ingest task panics once, before it touches
    /// state; consumed by the next `ingest_batch`. The captured worker
    /// resumes from the start of its bucket, so nothing is lost.
    pub(crate) ingest_panics: Vec<usize>,
    /// Members that fail every tile they are deployed on, until cleared.
    pub(crate) poisoned: Vec<usize>,
    /// Scoring calls left to run clean before the poisoned members start
    /// failing: each call counts it down, so `1` fails a tick from its
    /// second tile on.
    pub(crate) clean_calls: Cell<usize>,
}

impl FaultInjector {
    /// A tile's `subset` minus the poisoned members, in subset order; the
    /// poisoned ones are appended to `dropped`. That is bitwise what the
    /// ensemble's reduction does with a member that panics or scores
    /// non-finite (vehigan-core's oracle
    /// `a_member_failing_inside_the_walk_scores_like_the_subset_without_it`):
    /// the survivors are summed in subset order and τ is their mean.
    /// While clean calls are left, the call uses one up instead and the
    /// whole subset survives.
    ///
    /// # Errors
    ///
    /// [`EnsembleError::AllMembersFailed`] over the whole subset when
    /// every member is poisoned.
    pub(crate) fn survivors(
        &self,
        subset: &[usize],
        dropped: &mut Vec<usize>,
    ) -> Result<Vec<usize>, ServeError> {
        if let Some(left) = self.clean_calls.get().checked_sub(1) {
            self.clean_calls.set(left);
            return Ok(subset.to_vec());
        }
        let (failed, survivors): (Vec<usize>, Vec<usize>) =
            subset.iter().partition(|m| self.poisoned.contains(m));
        if survivors.is_empty() {
            return Err(ServeError::Score(EnsembleError::AllMembersFailed {
                attempted: subset.to_vec(),
            }));
        }
        dropped.extend(failed);
        Ok(survivors)
    }
}

/// Splitmix64: a tiny, seedable, allocation-free PRNG. Used instead of
/// the `rand` crate so fault generation is a pure function of the plan
/// seed with no dependency on RNG crate versioning.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw in `[0, bound)`; `bound` must be positive.
    fn below(&mut self, bound: usize) -> usize {
        (self.next_u64() % bound as u64) as usize
    }
}

/// A member-poisoning window: `member` fails on server ticks in
/// `[from, to]` (0-based, inclusive).
#[derive(Debug)]
struct MemberPoison {
    /// Global ensemble member index.
    member: usize,
    /// First poisoned tick.
    from: u64,
    /// Last poisoned tick.
    to: u64,
}

/// A tick-indexed, seeded fault schedule. Build with the chainable
/// `with_*` methods; drive a server through it with [`FaultPlan::run`].
#[derive(Debug, Default)]
struct FaultPlan {
    /// Seed for malformed/replay message generation.
    seed: u64,
    /// Member poisoning windows.
    member_poison: Vec<MemberPoison>,
    /// `(tick, shard)` injected ingest-worker panics.
    shard_panics: Vec<(u64, usize)>,
    /// `(tick, count)` malformed-BSM bursts.
    malformed_bursts: Vec<(u64, u32)>,
    /// `(tick, count, skew_s)` replay bursts: copies of in-flight
    /// messages shifted `skew_s` seconds into the past.
    replay_bursts: Vec<(u64, u32, f64)>,
    /// `(from, to, multiplier)` overload windows: deliver `multiplier`
    /// tick-slices of traffic per server tick (inclusive tick range).
    overload: Vec<(u64, u64, usize)>,
}

impl FaultPlan {
    /// An empty plan (a healthy run) with the given generation seed.
    fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            ..FaultPlan::default()
        }
    }

    /// Fails `member` on ticks `[from, to]`.
    fn with_member_poison(mut self, member: usize, from: u64, to: u64) -> Self {
        self.member_poison.push(MemberPoison { member, from, to });
        self
    }

    /// Panics `shard`'s ingest worker at `tick` (before it touches
    /// state, so no messages are lost).
    fn with_shard_panic(mut self, tick: u64, shard: usize) -> Self {
        self.shard_panics.push((tick, shard));
        self
    }

    /// Injects `count` malformed BSMs (non-finite and out-of-range
    /// fields, spoofing live pseudonyms) at `tick`.
    fn with_malformed_burst(mut self, tick: u64, count: u32) -> Self {
        self.malformed_bursts.push((tick, count));
        self
    }

    /// Injects `count` replayed copies of live messages at `tick`, each
    /// shifted `skew_s` seconds into the past (`skew_s >= 0`).
    fn with_replay_burst(mut self, tick: u64, count: u32, skew_s: f64) -> Self {
        assert!(skew_s >= 0.0, "replay skew must shift into the past");
        self.replay_bursts.push((tick, count, skew_s));
        self
    }

    /// Delivers `multiplier`× traffic for ticks `[from, to]`.
    fn with_overload(mut self, from: u64, to: u64, multiplier: usize) -> Self {
        assert!(multiplier >= 1, "overload multiplier must be at least 1");
        self.overload.push((from, to, multiplier));
        self
    }

    /// Traffic multiplier in effect at `tick` (1 outside overload
    /// windows).
    fn multiplier_at(&self, tick: u64) -> usize {
        self.overload
            .iter()
            .filter(|&&(from, to, _)| from <= tick && tick <= to)
            .map(|&(_, _, m)| m)
            .max()
            .unwrap_or(1)
    }

    /// The members poisoned at `tick`, ascending.
    fn poisoned_at(&self, tick: u64) -> Vec<usize> {
        let mut m: Vec<usize> = self
            .member_poison
            .iter()
            .filter(|p| p.from <= tick && tick <= p.to)
            .map(|p| p.member)
            .collect();
        m.sort_unstable();
        m.dedup();
        m
    }

    /// Whether any fault is scheduled at `tick`.
    fn faulty_at(&self, tick: u64) -> bool {
        !self.poisoned_at(tick).is_empty()
            || self.shard_panics.iter().any(|&(t, _)| t == tick)
            || self.malformed_bursts.iter().any(|&(t, _)| t == tick)
            || self.replay_bursts.iter().any(|&(t, _, _)| t == tick)
            || self.multiplier_at(tick) > 1
    }

    /// The last tick with any scheduled fault (0 for an empty plan).
    /// Queue pressure can outlive this tick while backlog drains.
    fn last_fault_tick(&self) -> u64 {
        let poison = self.member_poison.iter().map(|p| p.to);
        let panics = self.shard_panics.iter().map(|&(t, _)| t);
        let malformed = self.malformed_bursts.iter().map(|&(t, _)| t);
        let replays = self.replay_bursts.iter().map(|&(t, _, _)| t);
        let overload = self.overload.iter().map(|&(_, to, _)| to);
        poison
            .chain(panics)
            .chain(malformed)
            .chain(replays)
            .chain(overload)
            .max()
            .unwrap_or(0)
    }

    /// Runs `server` over `stream` (timestamp-sorted, 10 Hz cadence),
    /// one server tick per [`BSM_INTERVAL_S`] slice of traffic —
    /// compressed to `multiplier` slices per tick during overload —
    /// then keeps ticking until all backlog drains (bounded at 1024
    /// drain ticks). The server's faults are cleared before returning.
    fn run(&self, server: &mut StreamServer<'_>, stream: &[Bsm]) -> ChaosReport {
        let slices = slice_stream(stream);
        let mut rng = SplitMix64(self.seed ^ 0xC3A5_C85C_97CB_3127);
        let mut ticks = Vec::new();
        let mut cursor = 0usize;
        let mut tick = 0u64;
        let mut drain_ticks = 0u32;
        loop {
            let mult = self.multiplier_at(tick);
            let mut batch: Vec<Bsm> = Vec::new();
            let mut consumed = 0usize;
            while consumed < mult && cursor < slices.len() {
                batch.extend_from_slice(&slices[cursor]);
                cursor += 1;
                consumed += 1;
            }
            if consumed == 0 {
                // Stream exhausted: drain remaining backlog.
                if server.pending_windows() == 0 || drain_ticks >= 1024 {
                    break;
                }
                drain_ticks += 1;
            }

            server.detector.faults.poisoned = self.poisoned_at(tick);
            for &(t, shard) in &self.shard_panics {
                if t == tick {
                    server.detector.faults.ingest_panics.push(shard);
                }
            }

            // Injected messages are drawn from (and appended after) the
            // tick's *real* traffic, so every original is processed
            // before its corrupted copy and each copy's reject class is
            // exact: malformed → NonFinite/OutOfRange, replay → Stale.
            let real_len = batch.len();
            if real_len > 0 {
                for &(t, count) in &self.malformed_bursts {
                    if t == tick {
                        for _ in 0..count {
                            let mal = malform(&batch[rng.below(real_len)], &mut rng);
                            batch.push(mal);
                        }
                    }
                }
                for &(t, count, skew) in &self.replay_bursts {
                    if t == tick {
                        for _ in 0..count {
                            let mut replay = batch[rng.below(real_len)];
                            replay.timestamp -= skew;
                            batch.push(replay);
                        }
                    }
                }
            }

            let report = server.ingest_batch(&batch);
            let outcome = server.tick().map_err(|e| e.to_string());
            ticks.push(TickRecord {
                tick,
                faulted: self.faulty_at(tick),
                rejected: report.rejected,
                shed: report.shed,
                panicked_shards: report.panicked_shards,
                mode_after: server.mode(),
                benched_after: server.benched_members(),
                outcome,
            });
            tick += 1;
        }
        server.detector.faults = FaultInjector::default();
        ChaosReport {
            ticks,
            stats: server.stats(),
        }
    }
}

/// What happened on one server tick of a chaos run.
#[derive(Debug)]
struct TickRecord {
    /// 0-based server tick index (matches the plan's tick indexing).
    tick: u64,
    /// Whether the plan scheduled *any* fault this tick.
    faulted: bool,
    /// Guard rejections during this tick's ingest.
    rejected: RejectCounters,
    /// Windows shed during this tick's ingest (queue bounds).
    shed: u64,
    /// Shards whose ingest worker panicked (captured).
    panicked_shards: Vec<usize>,
    /// Server mode after the tick.
    mode_after: ServeMode,
    /// Members still benched by health probation after the tick.
    benched_after: Vec<usize>,
    /// Decisions emitted, or the typed scoring error's rendering.
    outcome: Result<Vec<Decision>, String>,
}

/// The full trace of a chaos run. [`FaultPlan::run`] returning at all is
/// the liveness assertion: every fault was absorbed without the server
/// process going down.
#[derive(Debug)]
struct ChaosReport {
    /// Per-tick trace, in tick order (includes post-stream drain ticks).
    ticks: Vec<TickRecord>,
    /// Server counters at the end of the run.
    stats: ServerStats,
}

impl ChaosReport {
    /// All decisions across the run, flattened in tick order.
    fn decisions(&self) -> Vec<Decision> {
        self.ticks
            .iter()
            .filter_map(|t| t.outcome.as_ref().ok())
            .flatten()
            .copied()
            .collect()
    }

    /// Ticks whose scoring returned a typed error.
    fn errored_ticks(&self) -> Vec<u64> {
        self.ticks
            .iter()
            .filter(|t| t.outcome.is_err())
            .map(|t| t.tick)
            .collect()
    }
}

/// Groups a timestamp-sorted stream into [`BSM_INTERVAL_S`] tick slices
/// relative to the first message.
fn slice_stream(stream: &[Bsm]) -> Vec<Vec<Bsm>> {
    let mut slices: Vec<Vec<Bsm>> = Vec::new();
    let Some(first) = stream.first() else {
        return slices;
    };
    let t0 = first.timestamp;
    for bsm in stream {
        let idx = ((bsm.timestamp - t0) / BSM_INTERVAL_S).floor().max(0.0) as usize;
        while slices.len() <= idx {
            slices.push(Vec::new());
        }
        slices[idx].push(*bsm);
    }
    slices
}

/// Produces a malformed copy of a live message: spoofs the pseudonym
/// with a slightly advanced timestamp and corrupts one field. Kinds 0–2
/// are non-finite (rejected by any guard); kind 3 is finite but
/// physically absurd (rejected only by a guard with range limits).
fn malform(template: &Bsm, rng: &mut SplitMix64) -> Bsm {
    let mut bsm = *template;
    bsm.timestamp += BSM_INTERVAL_S * 0.25;
    match rng.below(4) {
        0 => bsm.pos_x = f64::NAN,
        1 => bsm.speed = f64::INFINITY,
        2 => bsm.yaw_rate = f64::NAN,
        _ => bsm.speed = 900.0,
    }
    bsm
}

mod tests {
    //! Under a seeded fault plan injecting member poisoning, a
    //! shard-ingest panic, malformed and replayed BSM bursts, and a 4×
    //! overload burst, the server must
    //!
    //! 1. stay up — every tick returns decisions or a typed error, never
    //!    a crash;
    //! 2. degrade by policy — sustained pressure steps `Threshold` down
    //!    to gate-only scoring with hysteresis, shedding is bounded,
    //!    counted, and oldest-first;
    //! 3. recover — once faults clear, scoring returns **bitwise
    //!    identical** to a healthy run of the same server configuration
    //!    within at most 5 clean ticks.
    //!
    //! The recovery bound works because injected faults only ever *add*
    //! messages or transient flags: rejections touch no window state and
    //! the captured panic loses no messages, so both runs see the exact
    //! same per-vehicle window sequence, and pinned-order member
    //! reinstatement restores the exact healthy ensemble reduction.

    use super::*;
    use crate::server::{
        escalation_threshold, AdmissionConfig, EscalationPolicy, ServerConfig, SCORE_TILE,
    };
    use std::collections::HashMap;
    use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};
    use vehigan_core::{Pipeline, PipelineConfig};
    use vehigan_features::{IngestGuard, Tier0Calibration};
    use vehigan_mbr::Mbr;
    use vehigan_sim::VehicleId;
    use vehigan_tensor::init::seeded_rng;
    use vehigan_vasp::{inject, Attack, AttackParams, AttackPolicy};

    #[test]
    fn plan_schedule_queries() {
        let plan = FaultPlan::new(7)
            .with_member_poison(2, 10, 12)
            .with_member_poison(0, 12, 13)
            .with_shard_panic(14, 0)
            .with_malformed_burst(15, 5)
            .with_replay_burst(16, 3, 2.0)
            .with_overload(17, 18, 4);
        assert_eq!(plan.multiplier_at(16), 1);
        assert_eq!(plan.multiplier_at(17), 4);
        assert_eq!(plan.multiplier_at(19), 1);
        assert_eq!(plan.poisoned_at(9), Vec::<usize>::new());
        assert_eq!(plan.poisoned_at(10), vec![2]);
        assert_eq!(plan.poisoned_at(12), vec![0, 2]);
        assert_eq!(plan.poisoned_at(13), vec![0]);
        assert!((10..=18).all(|t| plan.faulty_at(t)));
        assert!(!plan.faulty_at(9) && !plan.faulty_at(19));
        assert_eq!(plan.last_fault_tick(), 18);
        assert_eq!(FaultPlan::new(1).last_fault_tick(), 0);
    }

    #[test]
    fn poisoned_members_leave_the_subset_and_count_as_dropped() {
        let faults = FaultInjector {
            poisoned: vec![3, 1],
            ..FaultInjector::default()
        };
        let mut dropped = vec![9];
        let survivors = faults.survivors(&[4, 1, 0, 3], &mut dropped).unwrap();
        assert_eq!(survivors, vec![4, 0]);
        assert_eq!(dropped, vec![9, 1, 3]);
        let err = faults.survivors(&[3, 1], &mut dropped).unwrap_err();
        assert!(
            matches!(&err, ServeError::Score(EnsembleError::AllMembersFailed { attempted })
                if *attempted == [3, 1]),
            "{err}"
        );
        // A clean call left: the next call keeps everyone, the one after
        // does not.
        faults.clean_calls.set(1);
        let mut dropped = Vec::new();
        assert_eq!(faults.survivors(&[4, 1], &mut dropped).unwrap(), vec![4, 1]);
        assert_eq!(faults.survivors(&[4, 1], &mut dropped).unwrap(), vec![4]);
        assert_eq!(dropped, vec![1]);
    }

    #[test]
    fn malformed_messages_never_pass_an_rsu_guard() {
        let template = Bsm {
            vehicle_id: VehicleId(3),
            timestamp: 5.0,
            pos_x: 10.0,
            pos_y: 20.0,
            speed: 13.0,
            acceleration: 0.2,
            heading: 1.0,
            yaw_rate: 0.05,
        };
        let guard = IngestGuard::rsu();
        let mut rng = SplitMix64(1);
        for _ in 0..64 {
            let bad = malform(&template, &mut rng);
            assert!(
                guard.validate(&bad, None).is_err(),
                "malformed message passed the guard: {bad:?}"
            );
        }
    }

    #[test]
    fn splitmix_is_deterministic_and_bounded() {
        let (mut a, mut b) = (SplitMix64(42), SplitMix64(42));
        for bound in [1usize, 2, 7, 1000] {
            for _ in 0..32 {
                let x = a.below(bound);
                assert_eq!(x, b.below(bound));
                assert!(x < bound);
            }
        }
    }

    #[test]
    fn stream_slicing_groups_by_interval() {
        let bsm = |t: f64| Bsm {
            vehicle_id: VehicleId(1),
            timestamp: t,
            pos_x: 0.0,
            pos_y: 0.0,
            speed: 0.0,
            acceleration: 0.0,
            heading: 0.0,
            yaw_rate: 0.0,
        };
        let stream = [bsm(1.0), bsm(1.05), bsm(1.1), bsm(1.35)];
        let slices = slice_stream(&stream);
        assert_eq!(slices.len(), 4);
        assert_eq!(slices[0].len(), 2);
        assert_eq!(slices[1].len(), 1);
        assert_eq!(slices[2].len(), 0);
        assert_eq!(slices[3].len(), 1);
    }

    fn pipeline() -> MutexGuard<'static, Pipeline> {
        static SHARED: OnceLock<Mutex<Pipeline>> = OnceLock::new();
        SHARED
            .get_or_init(|| {
                let mut p = Pipeline::run(PipelineConfig::tiny());
                p.compile_int8().expect("int8 backend compiles");
                Mutex::new(p)
            })
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Interleaved benign stream over the held-out test fleet, sorted by
    /// arrival (timestamp, then pseudonym). Benign-only so that with an RSU
    /// guard every real message is accepted and rejection counters isolate
    /// the injected faults exactly.
    fn benign_stream(p: &Pipeline) -> Vec<Bsm> {
        let mut stream: Vec<Bsm> = p
            .test_fleet()
            .iter()
            .flat_map(|t| &t.bsms)
            .copied()
            .collect();
        stream.sort_by(|a, b| {
            a.timestamp
                .partial_cmp(&b.timestamp)
                .unwrap()
                .then(a.vehicle_id.cmp(&b.vehicle_id))
        });
        stream
    }

    /// The server-under-test configuration: deployment-grade guard, a tight
    /// window budget (steady state is ~3 windows/tick for the 3-vehicle
    /// test fleet, so budget 4 absorbs 1× load with headroom and drains one
    /// backlogged window per tick), a pending cap with headroom *above* the
    /// budget (so a 4× burst builds an over-budget backlog that trips the
    /// mode machine before shedding caps it). The server's fixed hysteresis
    /// (degrade after 2, restore after 3) and 3-tick probation fit recovery
    /// inside the 5-clean-tick bound.
    fn chaos_config(tau_esc: f32, members: &[usize]) -> ServerConfig {
        ServerConfig {
            n_shards: 2,
            policy: EscalationPolicy::Threshold(tau_esc),
            members: Some(members.to_vec()),
            guard: IngestGuard::rsu(),
            admission: AdmissionConfig {
                windows_per_tick: Some(4),
                max_pending_per_shard: Some(8),
            },
            ..ServerConfig::default()
        }
    }

    fn key(d: &Decision) -> (u32, u64) {
        (d.vehicle.0, d.timestamp.to_bits())
    }

    #[test]
    fn faulted_server_survives_degrades_by_policy_and_recovers_bitwise() {
        let p = pipeline();
        let stream = benign_stream(&p);
        let members: Vec<usize> = (0..p.vehigan.k()).collect();

        // Sanity: the benign stream passes the deployment guard everywhere,
        // so any rejection in the chaos run is an injected message.
        let guard = IngestGuard::rsu();
        let mut last_seen: HashMap<u32, f64> = HashMap::new();
        for bsm in &stream {
            assert_eq!(
                guard.validate(bsm, last_seen.get(&bsm.vehicle_id.0).copied()),
                Ok(()),
                "benign traffic rejected by the rsu guard: {bsm:?}"
            );
            last_seen.insert(bsm.vehicle_id.0, bsm.timestamp);
        }

        // Calibrate the escalation cutoff from a gate-only probe.
        let mut probe = StreamServer::new(
            &p.vehigan,
            p.scaler.clone(),
            ServerConfig {
                n_shards: 2,
                policy: EscalationPolicy::Threshold(f32::INFINITY),
                members: Some(members.clone()),
                ..ServerConfig::default()
            },
        )
        .unwrap();
        probe.ingest_batch(&stream);
        let gate_scores: Vec<f32> = probe.tick().unwrap().iter().map(|d| d.score).collect();
        let tau_esc = escalation_threshold(&gate_scores, 90.0);

        // Healthy reference: the same server configuration driven by the
        // same runner with an empty fault plan.
        let mut healthy_server = StreamServer::new(
            &p.vehigan,
            p.scaler.clone(),
            chaos_config(tau_esc, &members),
        )
        .unwrap();
        let healthy = FaultPlan::new(99).run(&mut healthy_server, &stream);
        assert!(healthy.errored_ticks().is_empty());
        assert_eq!(healthy.stats.shed, 0, "healthy 1x load must never shed");
        assert_eq!(healthy.stats.rejected.total(), 0);
        assert_eq!(healthy.stats.degraded_ticks, 0);
        assert_eq!(healthy.stats.shard_panics, 0);
        let mut healthy_map: HashMap<(u32, u64), (u32, u32, bool, bool)> = HashMap::new();
        for d in healthy.decisions() {
            let prev = healthy_map.insert(
                key(&d),
                (
                    d.score.to_bits(),
                    d.threshold.to_bits(),
                    d.escalated,
                    d.flagged,
                ),
            );
            assert!(prev.is_none(), "healthy run scored a window twice");
        }
        assert!(
            healthy_map.len() > 100,
            "healthy run emitted too few windows"
        );

        // The fault plan: every chaos class, all after every test-fleet
        // vehicle is live (the simulator staggers vehicle entry; the third
        // vehicle's windows start flowing ~tick 52 of ~450 — before that a
        // 4× burst of one vehicle's traffic wouldn't even exceed the
        // 4-window budget), all before tick 80.
        let plan = FaultPlan::new(7)
            .with_member_poison(members[0], 60, 63)
            .with_shard_panic(66, 0)
            .with_malformed_burst(70, 6)
            .with_replay_burst(72, 5, 2.0)
            .with_overload(76, 77, 4);
        let last_fault = plan.last_fault_tick();
        let mut faulted_server = StreamServer::new(
            &p.vehigan,
            p.scaler.clone(),
            chaos_config(tau_esc, &members),
        )
        .unwrap();
        let report = plan.run(&mut faulted_server, &stream);

        // 1. Liveness: the runner returned and no tick errored — every
        //    fault was absorbed as a typed, counted event.
        assert!(
            report.errored_ticks().is_empty(),
            "ticks errored: {:?}",
            report.errored_ticks()
        );

        // 2. The injected panic was captured exactly once, on the scheduled
        //    shard at the scheduled tick, and lost nothing (conservation
        //    below proves zero loss).
        assert_eq!(report.stats.shard_panics, 1);
        assert_eq!(report.ticks[66].panicked_shards, vec![0]);

        // 3. Input hardening: every injected message was rejected with its
        //    exact reason class; nothing real was rejected.
        assert_eq!(
            report.stats.rejected.stale, 5,
            "replays must reject as stale"
        );
        assert_eq!(
            report.stats.rejected.non_finite + report.stats.rejected.out_of_range,
            6,
            "malformed burst must reject as non-finite/out-of-range"
        );
        assert_eq!(report.ticks[70].rejected.total(), 6);
        assert_eq!(report.ticks[72].rejected.stale, 5);

        // 4. Degraded-mode tiering under the 4x burst: the server stepped
        //    down, shed deterministically, and stepped back up.
        assert!(report.stats.degraded_ticks >= 1, "burst never degraded");
        assert!(
            report.stats.mode_switches >= 2,
            "must both degrade and restore"
        );
        assert!(report.stats.shed > 0, "4x burst must shed");
        assert_eq!(report.ticks.last().unwrap().mode_after, ServeMode::Normal);

        // 5. Member health: the poisoned member was benched and later
        //    reinstated into its pinned position.
        assert!(report.stats.member_demotions >= 1, "poison never benched");
        assert!(
            report.stats.member_reinstatements >= 1,
            "bench never expired"
        );
        assert!(report.ticks.last().unwrap().benched_after.is_empty());

        // 6. Conservation: every window the healthy run scored was either
        //    scored (exactly once) or counted shed in the faulted run —
        //    injected faults lost nothing silently.
        let fault_decisions = report.decisions();
        assert_eq!(
            healthy_map.len(),
            fault_decisions.len() + report.stats.shed as usize,
            "windows lost without being counted shed"
        );
        {
            let mut seen: HashMap<(u32, u64), u32> = HashMap::new();
            for d in &fault_decisions {
                *seen.entry(key(d)).or_insert(0) += 1;
            }
            assert!(seen.values().all(|&c| c == 1), "a window was scored twice");
            assert!(
                seen.keys().all(|k| healthy_map.contains_key(k)),
                "faulted run emitted a window the healthy run never saw"
            );
        }

        // 7. Bitwise recovery within <= 5 clean ticks: find the 5th
        //    consecutive clean tick after the last scheduled fault; from it
        //    onward every decision must match the healthy run exactly.
        let clean = |r: &TickRecord| {
            r.tick > last_fault
                && !r.faulted
                && r.mode_after == ServeMode::Normal
                && r.benched_after.is_empty()
                && r.shed == 0
                && r.panicked_shards.is_empty()
                && r.rejected == RejectCounters::default()
        };
        let mut streak = 0u32;
        let mut recovery_tick = None;
        for r in &report.ticks {
            if clean(r) {
                streak += 1;
                if streak == 5 {
                    recovery_tick = Some(r.tick);
                    break;
                }
            } else {
                streak = 0;
            }
        }
        let recovery_tick = recovery_tick.expect("no run of 5 clean ticks after the last fault");
        let mut compared = 0usize;
        for r in report.ticks.iter().filter(|r| r.tick >= recovery_tick) {
            for d in r.outcome.as_ref().expect("clean ticks cannot error") {
                let (score_bits, tau_bits, escalated, flagged) = healthy_map[&key(d)];
                assert_eq!(
                    d.score.to_bits(),
                    score_bits,
                    "post-recovery score diverged for vehicle {:?} t={}",
                    d.vehicle,
                    d.timestamp
                );
                assert_eq!(d.threshold.to_bits(), tau_bits);
                assert_eq!(d.escalated, escalated);
                assert_eq!(d.flagged, flagged);
                compared += 1;
            }
        }
        assert!(
            compared > 50,
            "recovery window compared only {compared} decisions"
        );
    }

    #[test]
    fn chaos_runs_are_reproducible() {
        // Same plan + same stream + same config => identical traces, down to
        // score bits and counters. This is what makes a chaos failure
        // debuggable.
        let p = pipeline();
        let stream = benign_stream(&p);
        let members: Vec<usize> = (0..p.vehigan.k()).collect();
        let run = || {
            let plan = FaultPlan::new(21)
                .with_member_poison(members[0], 55, 57)
                .with_malformed_burst(60, 4)
                .with_overload(63, 64, 4);
            let mut server =
                StreamServer::new(&p.vehigan, p.scaler.clone(), chaos_config(0.0, &members))
                    .unwrap();
            plan.run(&mut server, &stream)
        };
        let (a, b) = (run(), run());
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.decisions(), b.decisions());
        assert_eq!(a.ticks.len(), b.ticks.len());
        for (x, y) in a.ticks.iter().zip(&b.ticks) {
            assert_eq!(x.rejected, y.rejected);
            assert_eq!(x.shed, y.shed);
            assert_eq!(x.mode_after, y.mode_after);
        }
    }

    /// The held-out test fleet with its first vehicle running a
    /// persistent position attack, interleaved by arrival: some of its
    /// windows are flagged, escalated and reported.
    fn attacked_stream(p: &Pipeline) -> Vec<Bsm> {
        let fleet = p.test_fleet();
        let attack = Attack::by_name("RandomPosition").expect("attack exists");
        let attacked = inject(
            &fleet[0],
            attack,
            AttackPolicy::Persistent,
            &AttackParams::default(),
            &mut seeded_rng(11),
        );
        let mut stream: Vec<Bsm> = attacked
            .trace
            .bsms
            .iter()
            .chain(fleet.iter().skip(1).flat_map(|t| &t.bsms))
            .copied()
            .collect();
        stream.sort_by(|a, b| {
            a.timestamp
                .total_cmp(&b.timestamp)
                .then(a.vehicle_id.cmp(&b.vehicle_id))
        });
        stream
    }

    /// Everything a decision says, bit for bit.
    fn bits(d: &Decision) -> (u32, u64, u32, u32, bool, bool, bool) {
        (
            d.vehicle.0,
            d.timestamp.to_bits(),
            d.score.to_bits(),
            d.threshold.to_bits(),
            d.escalated,
            d.flagged,
            d.suppressed,
        )
    }

    fn report_bits(r: &Mbr) -> (u32, u64, u32, Vec<u32>) {
        let evidence = r.evidence.iter().map(|x| x.to_bits()).collect();
        (
            r.suspect.0,
            r.timestamp.to_bits(),
            r.score.to_bits(),
            evidence,
        )
    }

    /// The escalation threshold that sends the top quarter of `stream`'s
    /// gate scores on to tier 2.
    fn quartile_tau_esc(p: &Pipeline, stream: &[Bsm], members: &[usize]) -> f32 {
        let mut probe = StreamServer::new(
            &p.vehigan,
            p.scaler.clone(),
            ServerConfig {
                policy: EscalationPolicy::Threshold(f32::INFINITY),
                members: Some(members.to_vec()),
                ..ServerConfig::default()
            },
        )
        .unwrap();
        probe.ingest_batch(stream);
        let gate: Vec<f32> = probe.tick().unwrap().iter().map(|d| d.score).collect();
        escalation_threshold(&gate, 75.0)
    }

    #[test]
    fn a_burst_tick_failing_on_its_second_tile_frees_its_spill_buffers() {
        // A burst of traffic between two ticks: every vehicle completes
        // many windows, and all but its newest are spilled out of its
        // ring. The tick reads them where they lie — spill buffers and
        // rings alike — and fails on its second tile. Its spill buffers
        // must be free for the next ingest to reuse, and with nothing
        // carried across ticks (a gate without tier 0) the next tick must
        // decide and report bitwise what a never-failed server does.
        let p = pipeline();
        let stream = attacked_stream(&p);
        let members: Vec<usize> = (0..p.vehigan.k()).collect();
        let config = ServerConfig {
            n_shards: 1,
            policy: EscalationPolicy::Threshold(quartile_tau_esc(&p, &stream, &members)),
            members: Some(members.clone()),
            reporter: Some(VehicleId(u32::MAX)),
            ..ServerConfig::default()
        };
        // The two bursts are alike, so the second needs about every spill
        // buffer the first made: one the failed tick kept would show.
        let (a, b) = (stream.len() * 2 / 5, stream.len() * 7 / 10);
        let chunks = [&stream[..a], &stream[a..b], &stream[b..]];
        let server = || StreamServer::new(&p.vehigan, p.scaler.clone(), config.clone()).unwrap();
        let (mut clean, mut failed) = (server(), server());
        for s in [&mut clean, &mut failed] {
            s.ingest_batch(chunks[0]);
            s.tick().unwrap();
            s.take_reports();
            let spilled = s.shards()[0].spilled();
            s.ingest_batch(chunks[1]);
            let n = s.pending_windows() as u64;
            let burst = s.shards()[0].spilled() - spilled;
            assert!(n > 2 * SCORE_TILE as u64, "{n} windows: not a burst");
            assert!(burst > n / 2, "{burst} of {n} admitted windows spilled");
        }
        let buffers = clean.shards()[0].spill_buffers();
        assert_eq!(failed.shards()[0].spill_buffers(), buffers);

        let middle = clean.tick().unwrap();
        assert!(middle.len() > SCORE_TILE);
        clean.take_reports();
        failed.detector.faults.poisoned = members.clone();
        failed.detector.faults.clean_calls.set(1);
        let err = failed.tick().unwrap_err();
        failed.detector.faults = FaultInjector::default();
        assert!(
            matches!(
                &err,
                ServeError::Score(EnsembleError::AllMembersFailed { .. })
            ),
            "{err}"
        );
        assert_eq!(failed.pending_windows(), 0);
        assert!(failed.take_reports().is_empty());

        // The next burst spills into the buffers both ticks freed: the
        // failed server holds no more of them than the clean one.
        for s in [&mut clean, &mut failed] {
            let spilled = s.shards()[0].spilled();
            s.ingest_batch(chunks[2]);
            assert!(s.shards()[0].spilled() > spilled);
        }
        assert_eq!(
            failed.shards()[0].spill_buffers(),
            clean.shards()[0].spill_buffers(),
        );
        assert!(clean.shards()[0].spill_buffers() >= buffers);
        let [clean_c, failed_c] = [clean, failed].map(|mut s| {
            let decisions: Vec<_> = s.tick().unwrap().iter().map(bits).collect();
            let reports: Vec<_> = s.take_reports().iter().map(report_bits).collect();
            (decisions, reports)
        });
        assert!(
            clean_c.0.iter().any(|d| d.4),
            "nothing escalated in the third tick"
        );
        assert_eq!(failed_c, clean_c, "the tick after a failed burst tick");
    }

    #[test]
    fn a_tick_failing_on_its_second_tile_leaves_nothing_behind() {
        // Three servers of one configuration see the same three chunks of
        // traffic, one tick each. On the middle tick, `failed_late`'s
        // scoring fails on its second tile and `failed_early`'s on its
        // first, before anything was scored; `clean` never fails. The
        // late failure must leave exactly what the early one leaves: all
        // n admitted windows shed, no report, no carried gate score — so
        // the third tick decides bitwise alike on both. Under `Always`
        // nothing is carried, and the third tick also matches `clean`'s.
        let p = pipeline();
        let stream = attacked_stream(&p);
        let members: Vec<usize> = (0..p.vehigan.k()).collect();
        let mut tier0 = Tier0Calibration::fit(p.train_fleet(), 10, 0.995).expect("tier-0 fits");
        tier0.set_score_band(0.05, 0.1, 0.9);
        let tau_esc = quartile_tau_esc(&p, &stream, &members);
        // The middle chunk spans over two tiles of screened windows, and
        // the attacker's flagged ones fall inside its first tile.
        let (a, b) = (stream.len() * 11 / 20, stream.len() * 17 / 20);
        let chunks = [&stream[..a], &stream[a..b], &stream[b..]];
        let reporter = Some(VehicleId(u32::MAX));
        let gated = ServerConfig {
            n_shards: 1,
            policy: EscalationPolicy::Threshold(tau_esc),
            members: Some(members.clone()),
            tier0: Some(tier0),
            reporter,
            ..ServerConfig::default()
        };
        let always = ServerConfig {
            n_shards: 1,
            policy: EscalationPolicy::Always,
            members: Some(members.clone()),
            reporter,
            ..ServerConfig::default()
        };
        for config in [gated, always] {
            let policy = config.policy;
            let server = || StreamServer::new(&p.vehigan, p.scaler.clone(), config.clone());
            let mut servers = [server(), server(), server()].map(|s| s.unwrap());
            for s in servers.iter_mut() {
                s.ingest_batch(chunks[0]);
                s.tick().unwrap();
                s.take_reports();
                s.ingest_batch(chunks[1]);
            }
            let [clean, failed_early, failed_late] = &mut servers;
            let n = clean.pending_windows() as u64;
            let before = failed_late.stats();

            let clean_b = clean.tick().unwrap();
            let clean_reports = clean.take_reports();
            let screened: Vec<&Decision> = clean_b.iter().filter(|d| !d.suppressed).collect();
            assert!(screened.len() > SCORE_TILE, "{policy:?}: one tile only");
            for (s, clean_calls) in [(&mut *failed_early, 0), (&mut *failed_late, 1)] {
                s.detector.faults.poisoned = members.clone();
                s.detector.faults.clean_calls.set(clean_calls);
                let err = s.tick().unwrap_err();
                s.detector.faults = FaultInjector::default();
                assert!(
                    matches!(
                        &err,
                        ServeError::Score(EnsembleError::AllMembersFailed { .. })
                    ),
                    "{policy:?}: {err}"
                );
            }
            let after = failed_late.stats();
            assert_eq!(after, failed_early.stats(), "{policy:?}");
            assert_eq!(after.shed, before.shed + n, "{policy:?}");
            assert_eq!(after.windows_scored, before.windows_scored);
            assert_eq!(after.reports_emitted, before.reports_emitted);
            assert_eq!(failed_late.pending_windows(), 0);
            assert!(failed_late.take_reports().is_empty(), "{policy:?}");
            assert!(failed_early.take_reports().is_empty(), "{policy:?}");

            // What the late failure had to undo: tile 1 was scored, and
            // under the gate it carried scores the third tick would read.
            let tile1 = &screened[..SCORE_TILE];
            let in_tile1 = |r: &Mbr| {
                tile1
                    .iter()
                    .any(|d| (d.vehicle, d.timestamp) == (r.suspect, r.timestamp))
            };
            let [clean_c, early_c, late_c] = servers.map(|mut s| {
                s.ingest_batch(chunks[2]);
                let decisions: Vec<_> = s.tick().unwrap().iter().map(bits).collect();
                let reports: Vec<_> = s.take_reports().iter().map(report_bits).collect();
                (decisions, reports)
            });
            assert!(!late_c.0.is_empty());
            assert_eq!(
                late_c, early_c,
                "{policy:?}: the third tick after a late failure"
            );
            match policy {
                EscalationPolicy::Always => {
                    assert!(clean_reports.iter().any(in_tile1), "no report from tile 1");
                    assert_eq!(late_c, clean_c, "Always carries nothing across ticks");
                }
                EscalationPolicy::Threshold(_) => {
                    let verdicts = |d: &[(u32, u64, u32, u32, bool, bool, bool)]| {
                        d.iter().map(|b| (b.6, b.2)).collect::<Vec<_>>()
                    };
                    assert_ne!(
                        verdicts(&late_c.0),
                        verdicts(&clean_c.0),
                        "the middle tick's gate scores never reach the third tick's verdicts"
                    );
                }
            }
        }
    }
}
