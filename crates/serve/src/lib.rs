//! # vehigan-serve — city-scale streaming detection service
//!
//! VehiGAN's deployment story (paper §III-C) is an RSU or OBU that
//! refreshes each vehicle's rolling feature window on every arriving BSM
//! and scores the refreshed snapshot. This crate turns that per-message,
//! per-vehicle loop into a line-rate data plane:
//!
//! - **Sharded state** ([`shard`]) — each vehicle's window ring and
//!   tier-0 [`vehigan_features::Suppression`] live in a worker [`Shard`]
//!   the server owns outright; a pseudonym is hashed to one shard by
//!   [`shard_for`], so a forked ingest hands each task its own
//!   `&mut Shard` — no lock anywhere — and per-vehicle message order is
//!   preserved. Shards never evict a vehicle with undrained windows.
//! - **One decision rule** ([`detector`]) — a [`TieredDetector`] decides
//!   every window: tier 0 (DESIGN.md §12) lets a vehicle whose kinematic
//!   monitors sit in-interval carry its last real gate score; the fused
//!   int8 ensemble gates the rest; windows over an
//!   [`EscalationPolicy::Threshold`] (see [`escalation_threshold`]) are
//!   re-scored by the full f32 k-of-m ensemble, and a flagged one becomes
//!   a [`vehigan_mbr::Mbr`] carrying its window as evidence.
//! - **Tiled scoring in place** ([`server`]) — [`StreamServer::tick`]
//!   admits the ready windows and hands them to the detector in tiles of
//!   [`SCORE_TILE`], each window read where it lies ([`WindowAt`]), so a
//!   tick copies no window.
//! - **Overload and fault resilience** (DESIGN.md §11) — ingest guards,
//!   captured worker panics, an [`AdmissionConfig`] budget that sheds the
//!   oldest backlog, a normal/degraded hysteresis machine that steps a gate
//!   down to gate-only scoring, and members benched by health probation.
//!   The crate's chaos tests drive every fault deterministically; the two
//!   that do not arrive as input go through a fault injector that exists
//!   in test builds only.
//!
//! Scoring is deterministic: shards are drained in index order, both
//! scoring backends are batch-row independent, and the member subset is
//! pinned at construction — so serve output is bitwise identical to a
//! serial reference that holds one [`WindowBuffer`] (and `Suppression`)
//! per vehicle and decides each window alone (`tests/determinism.rs`),
//! and a faulted server recovers to bitwise-identical scoring once its
//! faults clear (the in-crate `chaos` tests).
//!
//! How fast all of this runs is the perf ledger's to say (`benchmark/`):
//! `items_per_s`, `tick_p90_ms` against the 100 ms BSM interval,
//! `serve.shed_windows`, `serve.tier0_suppressed_frac` and the
//! served-vs-f32 `serve.auroc_drift`.
//!
//! [`WindowBuffer`]: vehigan_features::WindowBuffer

pub mod detector;
mod health;
pub mod server;
pub mod shard;

pub use detector::{TieredDetector, Tile};
pub use server::{
    escalation_threshold, AdmissionConfig, Decision, EscalationPolicy, IngestReport, ServeError,
    ServerConfig, ServerStats, StreamServer, SCORE_TILE,
};
pub use shard::{shard_for, PendingWindow, Shard, WindowAt};

#[cfg(test)]
mod chaos;
