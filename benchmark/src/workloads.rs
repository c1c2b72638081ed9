//! The four workloads: names, sizes and the server/authority
//! configuration each one runs under. Names are stable identifiers;
//! sizes are fixed here and nowhere else.

use crate::detector::Detector;
use crate::drive::{Burst, ServePlan};
use crate::gen::{Stream, StreamSpec};
use crate::host::nproc;
use vehigan_features::{EvictionConfig, IngestGuard};
use vehigan_mbr::AuthorityPolicy;
use vehigan_serve::{AdmissionConfig, EscalationPolicy, ServerConfig};
use vehigan_sim::VehicleId;

/// The RSU's own pseudonym, the one reporter of every serve workload.
/// Far above any pseudonym the generator issues.
pub const RSU: VehicleId = VehicleId(1 << 30);

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// A mostly benign city at the largest fleet the run-time cap allows.
    CityBenign,
    /// An incident: a quarter of the fleet attacks.
    CityAttack,
    /// Pseudonym churn, corrupted input, bounded admission and a burst.
    ChurnHostile,
    /// The misbehavior authority alone, flooded with reports.
    AuthorityFlood,
}

impl Workload {
    /// Every workload, in the order the full set runs them.
    pub const ALL: [Workload; 4] = [
        Workload::CityBenign,
        Workload::CityAttack,
        Workload::ChurnHostile,
        Workload::AuthorityFlood,
    ];

    /// The stable identifier.
    pub fn name(self) -> &'static str {
        match self {
            Workload::CityBenign => "city_benign",
            Workload::CityAttack => "city_attack",
            Workload::ChurnHostile => "churn_hostile",
            Workload::AuthorityFlood => "authority_flood",
        }
    }

    /// Parses a stable identifier.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The stream the generator builds for a serve workload (`None` for
    /// `authority_flood`, which generates reports, not BSMs). `smoke`
    /// shrinks it to a harness check whose numbers mean nothing.
    pub fn stream_spec(self, smoke: bool) -> Option<StreamSpec> {
        // 13 s at 10 Hz: ~11 slices of window warm-up, then ≥ 100
        // scoring slices — enough for a p90 with ten samples beyond it,
        // which is why the smoke run shrinks the fleet, not the duration.
        let duration_s = 13.0;
        let size = |full: usize| if smoke { 120 } else { full };
        match self {
            Workload::CityBenign => Some(StreamSpec {
                vehicles: size(500),
                duration_s,
                attacker_every: 50,
                rekey_s: None,
                corrupt_frac: 0.0,
            }),
            Workload::CityAttack => Some(StreamSpec {
                vehicles: size(250),
                duration_s,
                attacker_every: 4,
                rekey_s: None,
                corrupt_frac: 0.0,
            }),
            Workload::ChurnHostile => Some(StreamSpec {
                vehicles: size(300),
                duration_s,
                attacker_every: 10,
                rekey_s: Some(2.0),
                corrupt_frac: 0.05,
            }),
            Workload::AuthorityFlood => None,
        }
    }
}

/// Conviction policy of the serve workloads: one RSU is one reporter, so
/// a conviction needs three flagged escalations' worth of decayed
/// evidence inside a minute; revocations are permanent.
pub fn serve_policy(detector: &Detector) -> AuthorityPolicy {
    let window = detector.pipeline.config.window.window;
    AuthorityPolicy {
        min_reporters: 1,
        min_reports: 3,
        window_s: 60.0,
        evidence_len: window * detector.pipeline.scaler.width(),
        revocation_validity_s: None,
    }
}

/// The three-tier server every serve workload starts from.
fn tiered_server(detector: &Detector) -> ServerConfig {
    ServerConfig {
        n_shards: nproc(),
        window: detector.pipeline.config.window.window,
        policy: EscalationPolicy::Threshold(detector.tau_esc),
        members: Some(detector.members.clone()),
        gate_members: Some(detector.members.clone()),
        guard: IngestGuard::rsu(),
        tier0: Some(detector.tier0),
        reporter: Some(RSU),
        ..ServerConfig::default()
    }
}

/// The pure-f32, ungated, unbounded reference server the served scores
/// are compared against.
pub fn reference_server(detector: &Detector) -> ServerConfig {
    ServerConfig {
        policy: EscalationPolicy::Always,
        tier0: None,
        reporter: None,
        ..tiered_server(detector)
    }
}

/// The plan a serve workload replays `stream` under.
///
/// # Panics
///
/// Panics for `authority_flood`, which has no server.
pub fn serve_plan<'a>(
    workload: Workload,
    detector: &'a Detector,
    stream: &Stream,
) -> ServePlan<'a> {
    let mut server = tiered_server(detector);
    let mut evict = false;
    let mut burst = None;
    match workload {
        Workload::CityBenign | Workload::CityAttack => {}
        Workload::ChurnHostile => {
            // A pseudonym lives two seconds and its monitor is warm by
            // its first window, so tier 0 would still suppress most
            // windows. The churn deployment does not trust a carried
            // score across such short-lived identities: `refresh = 0`
            // keeps every monitor running but never suppresses, so every
            // window reaches tier 1.
            server.tier0 = Some(vehigan_features::Tier0Calibration {
                refresh: 0,
                ..detector.tier0
            });
            // Mean windows offered per slice once the fleet has spawned
            // (the first fifth of the stream) — from the generator's
            // oracle, not from the program.
            let steady = &stream.completes[stream.completes.len() / 5..];
            let mean_offered = steady.iter().sum::<u64>() as f64 / steady.len().max(1) as f64;
            let budget = (1.3 * mean_offered).ceil().max(1.0) as usize;
            let n_shards = server.n_shards;
            // Each shard may queue a whole tick's budget: the backlog a
            // burst leaves behind then exceeds the budget for several
            // ticks, which is what drives the degrade/restore machine.
            // (Queues that add up to exactly the budget shed everything
            // above it at ingest and the server never sees pressure.)
            server.admission = AdmissionConfig {
                windows_per_tick: Some(budget),
                max_pending_per_shard: Some(budget),
                ..AdmissionConfig::unbounded()
            };
            server.eviction = EvictionConfig {
                ttl_s: Some(1.0),
                max_vehicles: Some((3 * stream.live_vehicles).div_ceil(2 * n_shards)),
            };
            evict = true;
            burst = Some(Burst {
                at_tick: stream.slices.len() * 3 / 5,
                multiplier: 4,
                ticks: 2,
            });
        }
        Workload::AuthorityFlood => panic!("authority_flood has no serve plan"),
    }
    ServePlan {
        detector,
        server,
        policy: serve_policy(detector),
        evict,
        burst,
    }
}
