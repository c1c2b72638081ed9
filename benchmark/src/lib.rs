//! # vehigan-benchmark — the repo's BSM → revocation perf ledger
//!
//! One seeded, repeatable procedure that times the whole path (ingest
//! guard → window build → tier 0 → tier 1 → tier 2 → `Mbr` → authority →
//! CRL delta) against the 100 ms beacon interval, checks the output, and
//! attributes the time to layers from outside the program. See
//! `README.md` for the workload, metric and interaction tables.

#![warn(missing_docs)]

pub mod alloc;
pub mod check;
pub mod detector;
pub mod drive;
pub mod flood;
pub mod gen;
pub mod host;
pub mod json;
pub mod metrics;
pub mod run;
pub mod serve;
pub mod stats;
pub mod timing;
pub mod trace;
pub mod workloads;
