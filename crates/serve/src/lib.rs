//! # vehigan-serve — city-scale streaming detection service
//!
//! VehiGAN's deployment story (paper §III-C) is an RSU or OBU that
//! refreshes each vehicle's rolling feature window on every arriving BSM
//! and scores the refreshed snapshot. This crate turns that per-message,
//! per-vehicle loop into a line-rate data plane:
//!
//! - **Sharded state** — per-vehicle window rings and tier-0 states live
//!   in worker shards ([`Shard`]) the server owns outright, next to one
//!   previous BSM per vehicle (the shard keeps the window length, scaler
//!   and tier-0 parameters once); a pseudonym is hashed
//!   to one shard by [`shard_for`], so a forked ingest hands each task
//!   its own `&mut Shard` — no lock anywhere — and per-vehicle message
//!   order is preserved.
//! - **Tiled scoring in place** — instead of scoring windows one at a
//!   time, [`StreamServer::tick`] scores the ready windows of every shard
//!   in tiles of [`SCORE_TILE`], each window read where it lies — its
//!   vehicle's ring or its shard's spill buffer ([`WindowAt`]) — so a
//!   tick copies no window into a batch.
//! - **Two-tier gate** — each tile first flows through the fused int8
//!   ensemble as a cheap tier-1 gate; only windows whose gate score
//!   crosses an [`EscalationPolicy::Threshold`] are re-scored by the full
//!   f32 k-of-m ensemble. See [`escalation_threshold`] for calibration.
//! - **Tier-0 kinematic gate** (DESIGN.md §12) — with a
//!   [`vehigan_features::Tier0Calibration`] in [`ServerConfig::tier0`],
//!   per-vehicle O(1) CUSUM/EWMA physics monitors run alongside each
//!   window ring; windows whose monitors are warm and in-interval skip
//!   tier 1 entirely and emit a monitor-implied benign score, while any
//!   tripped monitor or cold/rebuilt buffer conservatively falls through
//!   to the full tier-1 → tier-2 path.
//! - **Bounded memory** — shards reuse the [`EvictionConfig`] TTL/LRU
//!   policy from `vehigan-features`, and never evict a vehicle with
//!   undrained pending windows.
//! - **Overload resilience** (DESIGN.md §11) — an [`AdmissionConfig`]
//!   window budget with bounded per-shard queues sheds the oldest
//!   backlog deterministically under burst, and a [`ServeMode`]
//!   hysteresis machine steps a `Threshold` policy down to gate-only
//!   scoring while pressure is sustained.
//! - **Misbehavior reporting** — with a reporter identity in
//!   [`ServerConfig::reporter`], every flagged tier-2 escalation emits a
//!   [`vehigan_mbr::Mbr`] carrying the scored window as evidence;
//!   [`StreamServer::take_reports`] drains them for forwarding to the
//!   misbehavior authority, closing the BSM → detection → report →
//!   revocation loop.
//! - **Fault resilience** — shard ingest guards
//!   ([`vehigan_features::IngestGuard`]) reject malformed/stale BSMs
//!   before they touch window state; panicking ingest workers are
//!   captured and resumed; members returning non-finite scores are
//!   benched and later reinstated ([`MemberHealth`]). The crate's own
//!   tests drive all of these faults deterministically through a
//!   seeded fault plan; the two that do not arrive as input (a panicking
//!   ingest worker, a failing member) go through a fault injector that
//!   exists in test builds only.
//!
//! Scoring is deterministic: shards are drained in index order, both
//! scoring backends are batch-row independent, and the member subset is
//! pinned at construction — so serve output is bitwise identical to a
//! serial reference that holds one [`WindowBuffer`] per vehicle and
//! scores each window alone with `score_with_members` (proven by
//! `tests/determinism.rs`), and a faulted server recovers to
//! bitwise-identical scoring once its faults clear (proven by the
//! in-crate `chaos` tests).
//!
//! How fast all of this runs is the perf ledger's to say, not this
//! crate's: `benchmark/` drives these public types over four seeded
//! workloads and reports `items_per_s`, `tick_p90_ms` against the 100 ms
//! BSM interval, `serve.shed_windows`, `serve.tier0_suppressed_frac` and
//! the served-vs-f32 `serve.auroc_drift`.
//!
//! [`WindowBuffer`]: vehigan_features::WindowBuffer
//! [`EvictionConfig`]: vehigan_features::EvictionConfig

pub mod health;
pub mod server;
pub mod shard;

pub use health::MemberHealth;
pub use server::{
    escalation_threshold, AdmissionConfig, Decision, EscalationPolicy, IngestReport, ServeError,
    ServeMode, ServerConfig, ServerStats, StreamServer, SCORE_TILE,
};
pub use shard::{shard_for, PendingWindow, Shard, WindowAt};

#[cfg(test)]
mod chaos;
