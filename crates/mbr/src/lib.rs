//! # vehigan-mbr
//!
//! The misbehavior-reporting side of the V2X security architecture the
//! VehiGAN paper assumes around its detector (§I–II): when the MBDS on an
//! OBU/RSU flags a vehicle, it sends a misbehavior report ([`Mbr`]) with
//! evidence to the misbehavior authority ([`MisbehaviorAuthority`]), which
//! corroborates reports across independent observers and places convicted
//! credentials on the certificate revocation list
//! ([`CertificateRevocationList`]), isolating the attacker. The
//! [`PseudonymManager`] provides the SCMS linkage from transmitted
//! pseudonyms back to long-term identities; attach it with
//! [`MisbehaviorAuthority::with_linkage`] so conviction revokes *all* of
//! a vehicle's pseudonyms.
//!
//! The authority scales to fleet ingest by what it keeps, on one owner
//! and one ingest path: per-suspect evidence is a bounded decaying
//! accumulator ([`SuspectEvidence`]) with an exact reporter list of at
//! most [`EXACT_CAP`] entries ([`ReporterSet`]), a conviction takes
//! every linked pseudonym with it, and CRL mirrors sync incrementally
//! by sequence number ([`CrlDelta`]).
//! [`MisbehaviorAuthority::ingest_batch`] is one-by-one ingest of a
//! slice plus a summary.
//!
//! # Example
//!
//! See [`MisbehaviorAuthority`] and `examples/reporting_authority.rs` for
//! the end-to-end OBU → MBR → MA → CRL flow.

#![warn(missing_docs)]

mod authority;
mod crl;
mod evidence;
mod pseudonym;
mod report;
mod reporters;

pub use authority::{
    AuthorityPolicy, AuthorityStats, BatchReport, Conviction, IngestOutcome, MisbehaviorAuthority,
};
pub use crl::{CertificateRevocationList, CrlDelta, CrlOp, RevocationRecord};
pub use evidence::SuspectEvidence;
pub use pseudonym::{LongTermId, PseudonymManager};
pub use report::{InvalidMbrError, Mbr};
pub use reporters::{ReporterSet, EXACT_CAP};
