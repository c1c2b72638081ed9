//! Crash-safe persistence for zoo training runs.
//!
//! A grid run trains up to 60 WGANs; losing the whole run to one killed
//! process is not acceptable at production scale. The [`CheckpointStore`]
//! persists each finished zoo member to its own file — written atomically
//! (temp file + rename) with a CRC32-checksummed, versioned header — plus a
//! run **manifest** recording which members are done and which were
//! quarantined. An interrupted [`crate::ModelZoo::train_grid`] run resumes
//! exactly where it left off; corrupted files surface as typed
//! [`CheckpointError`]s instead of loading garbage into the scoring path.
//!
//! File layout (`<id>.ckpt` / `<key>.partial.ckpt`, little-endian):
//!
//! ```text
//! magic  "VZCK" | version u32 | payload_len u64 | crc32 u32 | payload
//! payload (v2):
//!          id string (u32 len + utf-8)
//!          history count u32, then per epoch: epoch u64 + 3×f32
//!          critic model bytes (u64 len + VGAN wire format)
//!          training-state flag u8
//!          [flag = 1] training state (u64 len + Wgan state blob)
//! ```
//!
//! The trailing training-state section is what distinguishes **v2** from
//! v1 (whose payload ended at the critic bytes): member checkpoints write
//! flag 0 — a deployed critic needs nothing more — while the
//! epoch-granular *partial* checkpoints ([`CheckpointStore::save_partial`])
//! write flag 1 with the complete [`crate::Wgan::training_state_bytes`]
//! blob (generator weights, both RMSProp caches, spectral-norm vectors,
//! and the mid-call RNG cursor), so a killed run resumes mid-member and
//! finishes **bitwise identical** to an uninterrupted one. v1 files still
//! load for inference via version dispatch; they carry no training state,
//! so they can never seed a resumed *training* run.
//!
//! The manifest (`manifest.tsv`) is a line-oriented text file, rewritten
//! atomically after every member completes:
//!
//! ```text
//! vehigan-zoo-manifest\tv1\t<grid fingerprint, hex>
//! done\t<config id>
//! quarantined\t<config id>\t<reason>
//! ```

use crate::config::{GridConfig, WganConfig};
use crate::wgan::{TrainStats, Wgan};
use std::fmt;
use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use vehigan_tensor::serialize::ModelFormatError;

/// Magic bytes identifying a VehiGAN zoo checkpoint file.
pub(crate) const CHECKPOINT_MAGIC: &[u8; 4] = b"VZCK";
/// Current checkpoint wire-format version (v2: optional trailing
/// training-state section).
pub(crate) const CHECKPOINT_VERSION: u32 = 2;
/// The original wire-format version (critic + history only). Still
/// readable for inference.
pub(crate) const CHECKPOINT_VERSION_V1: u32 = 1;

/// Error reading or writing a checkpoint or manifest.
#[derive(Debug)]
pub enum CheckpointError {
    /// Underlying I/O failure (open, read, write, rename).
    Io(io::Error),
    /// The magic bytes did not match `CHECKPOINT_MAGIC`.
    BadMagic,
    /// Unsupported checkpoint format version.
    BadVersion(u32),
    /// The file ended before the declared payload length.
    Truncated {
        /// Bytes the header declared.
        expected: usize,
        /// Bytes actually present.
        got: usize,
    },
    /// The payload checksum did not match the header (bit rot, torn
    /// write, tampering).
    ChecksumMismatch {
        /// CRC32 recorded in the header.
        expected: u32,
        /// CRC32 of the payload as read.
        got: u32,
    },
    /// Structural corruption inside a payload that passed the checksum
    /// (should not happen; indicates a writer bug).
    Corrupt(&'static str),
    /// The checkpoint belongs to a different configuration than requested.
    IdMismatch {
        /// Config id the caller asked for.
        expected: String,
        /// Config id stored in the file.
        found: String,
    },
    /// The embedded critic failed model-format validation (including the
    /// non-finite-weight rejection).
    Model(ModelFormatError),
    /// The manifest on disk belongs to a different hyperparameter grid.
    ManifestMismatch {
        /// Fingerprint of the grid being trained.
        expected: u64,
        /// Fingerprint recorded in the manifest.
        found: u64,
    },
    /// The manifest file is malformed.
    BadManifest(&'static str),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint i/o error: {e}"),
            CheckpointError::BadMagic => write!(f, "not a VehiGAN checkpoint (bad magic)"),
            CheckpointError::BadVersion(v) => {
                write!(f, "unsupported checkpoint version {v}")
            }
            CheckpointError::Truncated { expected, got } => {
                write!(f, "truncated checkpoint: expected {expected} payload bytes, got {got}")
            }
            CheckpointError::ChecksumMismatch { expected, got } => write!(
                f,
                "checkpoint checksum mismatch: header {expected:#010x}, payload {got:#010x}"
            ),
            CheckpointError::Corrupt(what) => write!(f, "corrupt checkpoint payload: {what}"),
            CheckpointError::IdMismatch { expected, found } => {
                write!(f, "checkpoint id mismatch: wanted `{expected}`, file holds `{found}`")
            }
            CheckpointError::Model(e) => write!(f, "checkpointed critic invalid: {e}"),
            CheckpointError::ManifestMismatch { expected, found } => write!(
                f,
                "manifest belongs to a different grid: expected {expected:#018x}, found {found:#018x}"
            ),
            CheckpointError::BadManifest(what) => write!(f, "malformed manifest: {what}"),
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::Io(e) => Some(e),
            CheckpointError::Model(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for CheckpointError {
    fn from(e: io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

impl From<ModelFormatError> for CheckpointError {
    fn from(e: ModelFormatError) -> Self {
        CheckpointError::Model(e)
    }
}

/// CRC32 (IEEE 802.3 polynomial, reflected) over a byte slice.
pub(crate) fn crc32(bytes: &[u8]) -> u32 {
    // Nibble-driven table: 16 entries, no build-time codegen needed.
    const TABLE: [u32; 16] = [
        0x0000_0000,
        0x1DB7_1064,
        0x3B6E_20C8,
        0x26D9_30AC,
        0x76DC_4190,
        0x6B6B_51F4,
        0x4DB2_6158,
        0x5005_713C,
        0xEDB8_8320,
        0xF00F_9344,
        0xD6D6_A3E8,
        0xCB61_B38C,
        0x9B64_C2B0,
        0x86D3_D2D4,
        0xA00A_E278,
        0xBDBD_F21C,
    ];
    let mut crc = !0u32;
    for &b in bytes {
        crc ^= b as u32;
        crc = (crc >> 4) ^ TABLE[(crc & 0xF) as usize];
        crc = (crc >> 4) ^ TABLE[(crc & 0xF) as usize];
    }
    !crc
}

/// Deterministic fingerprint of a hyperparameter grid (FNV-1a over the
/// expanded config ids), used to guard a manifest against being resumed
/// with a different grid.
pub(crate) fn grid_fingerprint(grid: &GridConfig) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for config in grid.expand() {
        for b in config.id().bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        h ^= b'|' as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// The run manifest: which members of a grid run are complete, and which
/// were quarantined (with their reasons).
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct Manifest {
    /// Fingerprint of the grid this run belongs to.
    pub(crate) fingerprint: u64,
    /// Config ids of members whose checkpoints are fully written.
    pub(crate) done: Vec<String>,
    /// Config ids quarantined in a previous (interrupted) run, with the
    /// structured reason rendered as text.
    pub(crate) quarantined: Vec<(String, String)>,
}

/// A directory of atomically-written, checksummed zoo-member checkpoints
/// plus the run manifest.
///
/// # Examples
///
/// ```no_run
/// use vehigan_core::{CheckpointStore, Wgan, WganConfig};
///
/// let store = CheckpointStore::open("/tmp/zoo-run").unwrap();
/// let config = WganConfig::default();
/// let wgan = Wgan::new(config);
/// store.save_member(&wgan).unwrap();
/// let restored = store.load_member(config).unwrap();
/// assert_eq!(restored.config().id(), config.id());
/// ```
#[derive(Debug)]
pub struct CheckpointStore {
    dir: PathBuf,
}

impl CheckpointStore {
    /// Opens (creating if needed) a checkpoint directory.
    ///
    /// # Errors
    ///
    /// Returns an error if the directory cannot be created.
    pub fn open(dir: impl AsRef<Path>) -> Result<Self, CheckpointError> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir)?;
        Ok(CheckpointStore { dir })
    }

    /// Path of the checkpoint file for a config id.
    pub fn member_path(&self, id: &str) -> PathBuf {
        self.dir.join(format!("{id}.ckpt"))
    }

    /// Persists one zoo member atomically: the payload is written to a
    /// `.tmp` sibling, flushed, then renamed over the final path, so a
    /// crash mid-write never leaves a half-written `.ckpt` behind.
    ///
    /// # Errors
    ///
    /// Returns an error on any I/O failure.
    pub fn save_member(&self, wgan: &Wgan) -> Result<(), CheckpointError> {
        let id = wgan.config().id();
        let file = frame_checkpoint(&build_payload(wgan, None)?);
        self.write_atomic(&self.member_path(&id), &file)
    }

    /// Path of the partial (mid-group) checkpoint file for a group key.
    pub fn partial_path(&self, key: &str) -> PathBuf {
        self.dir.join(format!("{key}.partial.ckpt"))
    }

    /// Whether a partial checkpoint exists for a group key.
    pub fn has_partial(&self, key: &str) -> bool {
        self.partial_path(key).exists()
    }

    /// Persists the full mid-training state of a group's shared run at an
    /// epoch boundary: critic + history (as in [`save_member`]) plus the
    /// complete [`Wgan::training_state_bytes`] blob, so
    /// [`load_partial`] can resume training bitwise-identically instead of
    /// retraining the group from scratch.
    ///
    /// The payload id is the run config's id (which embeds the seed); the
    /// file name is the caller's stable `key`.
    ///
    /// # Errors
    ///
    /// Returns an error on any I/O failure.
    ///
    /// [`save_member`]: CheckpointStore::save_member
    /// [`load_partial`]: CheckpointStore::load_partial
    pub fn save_partial(&self, key: &str, wgan: &Wgan) -> Result<(), CheckpointError> {
        let state = wgan.training_state_bytes();
        let file = frame_checkpoint(&build_payload(wgan, Some(&state))?);
        self.write_atomic(&self.partial_path(key), &file)
    }

    /// Removes a partial checkpoint (a no-op when none exists) — called
    /// once its group completes or is quarantined.
    ///
    /// # Errors
    ///
    /// Returns an error on I/O failure other than the file being absent.
    pub fn remove_partial(&self, key: &str) -> Result<(), CheckpointError> {
        match fs::remove_file(self.partial_path(key)) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(e.into()),
        }
    }

    /// Loads a partial checkpoint, rebuilding a **trainable** [`Wgan`]
    /// (generator, optimizer caches, spectral vectors, RNG cursor,
    /// history) for `config` — which must be the group's *run* config; a
    /// partial written under a different seed fails with
    /// [`CheckpointError::IdMismatch`].
    ///
    /// # Errors
    ///
    /// All of [`load_member`]'s corruption modes, plus
    /// [`CheckpointError::Corrupt`] for a checkpoint that carries no
    /// training state (e.g. a v1 file renamed into place).
    ///
    /// [`load_member`]: CheckpointStore::load_member
    pub fn load_partial(&self, key: &str, config: WganConfig) -> Result<Wgan, CheckpointError> {
        let bytes = fs::read(self.partial_path(key))?;
        let raw = parse_checkpoint(&bytes, &config.id())?;
        let state = raw
            .state
            .ok_or(CheckpointError::Corrupt("partial without training state"))?;
        let mut wgan = Wgan::resume_from_state(config, raw.critic, state)?;
        wgan.set_history(raw.history);
        Ok(wgan)
    }

    /// Loads and verifies the checkpoint for `config`, reconstructing an
    /// inference-ready [`Wgan`] (critic weights + training history; the
    /// generator is rebuilt untrained, as in
    /// [`Wgan::from_critic_bytes`]).
    ///
    /// # Errors
    ///
    /// Every corruption mode is a typed error: missing file / short reads
    /// ([`CheckpointError::Io`] / [`CheckpointError::Truncated`]), bit
    /// flips ([`CheckpointError::ChecksumMismatch`]), id mixups
    /// ([`CheckpointError::IdMismatch`]), and invalid or non-finite critic
    /// weights ([`CheckpointError::Model`]).
    pub fn load_member(&self, config: WganConfig) -> Result<Wgan, CheckpointError> {
        let id = config.id();
        let bytes = fs::read(self.member_path(&id))?;
        // Any training state in the file is ignored here: a loaded member
        // is inference-only, exactly as v1 members always were.
        let raw = parse_checkpoint(&bytes, &id)?;
        let mut wgan = Wgan::from_critic_bytes(config, raw.critic)?;
        wgan.set_history(raw.history);
        Ok(wgan)
    }

    /// Reads the run manifest, or `Ok(None)` when no run has started here.
    ///
    /// # Errors
    ///
    /// Returns an error on I/O failure or a malformed manifest.
    pub(crate) fn read_manifest(&self) -> Result<Option<Manifest>, CheckpointError> {
        let path = self.manifest_path();
        let text = match fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e.into()),
        };
        let mut lines = text.lines();
        let header = lines
            .next()
            .ok_or(CheckpointError::BadManifest("empty file"))?;
        let mut fields = header.split('\t');
        if fields.next() != Some("vehigan-zoo-manifest") || fields.next() != Some("v1") {
            return Err(CheckpointError::BadManifest("bad header"));
        }
        let fp_hex = fields
            .next()
            .ok_or(CheckpointError::BadManifest("missing fingerprint"))?;
        let fingerprint = u64::from_str_radix(fp_hex.trim_start_matches("0x"), 16)
            .map_err(|_| CheckpointError::BadManifest("unparseable fingerprint"))?;
        let mut manifest = Manifest {
            fingerprint,
            ..Manifest::default()
        };
        for line in lines {
            if line.is_empty() {
                continue;
            }
            let mut fields = line.split('\t');
            match fields.next() {
                Some("done") => {
                    let id = fields
                        .next()
                        .ok_or(CheckpointError::BadManifest("done without id"))?;
                    manifest.done.push(id.to_string());
                }
                Some("quarantined") => {
                    let id = fields
                        .next()
                        .ok_or(CheckpointError::BadManifest("quarantined without id"))?;
                    let reason = fields.next().unwrap_or("unknown");
                    manifest
                        .quarantined
                        .push((id.to_string(), reason.to_string()));
                }
                _ => return Err(CheckpointError::BadManifest("unknown record")),
            }
        }
        Ok(Some(manifest))
    }

    /// Atomically rewrites the run manifest.
    ///
    /// # Errors
    ///
    /// Returns an error on I/O failure.
    pub(crate) fn write_manifest(&self, manifest: &Manifest) -> Result<(), CheckpointError> {
        let mut out = format!("vehigan-zoo-manifest\tv1\t{:#018x}\n", manifest.fingerprint);
        for id in &manifest.done {
            out.push_str("done\t");
            out.push_str(id);
            out.push('\n');
        }
        for (id, reason) in &manifest.quarantined {
            out.push_str("quarantined\t");
            out.push_str(id);
            out.push('\t');
            // Reasons are free text; keep the format line-oriented.
            out.push_str(&reason.replace(['\t', '\n'], " "));
            out.push('\n');
        }
        self.write_atomic(&self.manifest_path(), out.as_bytes())
    }

    /// Path of the manifest file.
    pub(crate) fn manifest_path(&self) -> PathBuf {
        self.dir.join("manifest.tsv")
    }

    /// Temp-file + rename write. The rename is atomic on POSIX filesystems,
    /// so readers either see the old file or the complete new one.
    fn write_atomic(&self, path: &Path, bytes: &[u8]) -> Result<(), CheckpointError> {
        let tmp = path.with_extension("tmp");
        {
            let mut f = fs::File::create(&tmp)?;
            f.write_all(bytes)?;
            f.sync_all()?;
        }
        fs::rename(&tmp, path)?;
        // The rename reaches disk only when the *directory* is flushed:
        // fsyncing just the temp file leaves the new directory entry in
        // the page cache, so a crash here could roll back a checkpoint
        // (or manifest) this function already reported durable.
        let dir = path.parent().unwrap_or(Path::new("."));
        fs::File::open(dir)?.sync_all()?;
        Ok(())
    }
}

/// Parsed checkpoint payload, borrowing the critic / training-state
/// sections from the raw file bytes.
struct RawCheckpoint<'a> {
    history: Vec<TrainStats>,
    critic: &'a [u8],
    /// `Some` only for v2 files written with a training state
    /// ([`CheckpointStore::save_partial`]).
    state: Option<&'a [u8]>,
}

/// Serializes a checkpoint payload: id + history + critic, and — when
/// `state` is given — the v2 trailing training-state section.
fn build_payload(wgan: &Wgan, state: Option<&[u8]>) -> Result<Vec<u8>, CheckpointError> {
    let mut payload = Vec::new();
    write_str(&mut payload, &wgan.config().id())?;
    let history = wgan.history();
    payload.write_all(&(history.len() as u32).to_le_bytes())?;
    for s in history {
        payload.write_all(&(s.epoch as u64).to_le_bytes())?;
        payload.write_all(&s.wasserstein.to_le_bytes())?;
        payload.write_all(&s.critic_real.to_le_bytes())?;
        payload.write_all(&s.critic_fake.to_le_bytes())?;
    }
    let critic = wgan.critic_bytes();
    payload.write_all(&(critic.len() as u64).to_le_bytes())?;
    payload.write_all(&critic)?;
    match state {
        None => payload.push(0),
        Some(s) => {
            payload.push(1);
            payload.write_all(&(s.len() as u64).to_le_bytes())?;
            payload.write_all(s)?;
        }
    }
    Ok(payload)
}

/// Wraps a payload in the 20-byte checkpoint header (magic, current
/// version, length, CRC32).
fn frame_checkpoint(payload: &[u8]) -> Vec<u8> {
    let mut file = Vec::with_capacity(payload.len() + 20);
    file.extend_from_slice(CHECKPOINT_MAGIC);
    file.extend_from_slice(&CHECKPOINT_VERSION.to_le_bytes());
    file.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    file.extend_from_slice(&crc32(payload).to_le_bytes());
    file.extend_from_slice(payload);
    file
}

/// Validates the header (magic before length: a garbage non-checkpoint
/// file diagnoses as [`CheckpointError::BadMagic`] even when shorter than
/// a full header, as long as its available prefix already fails the magic
/// check) and parses the payload, dispatching on the format version.
fn parse_checkpoint<'a>(
    bytes: &'a [u8],
    expected_id: &str,
) -> Result<RawCheckpoint<'a>, CheckpointError> {
    let head = &bytes[..bytes.len().min(CHECKPOINT_MAGIC.len())];
    if head != &CHECKPOINT_MAGIC[..head.len()] {
        return Err(CheckpointError::BadMagic);
    }
    if bytes.len() < 20 {
        return Err(CheckpointError::Truncated {
            expected: 20,
            got: bytes.len(),
        });
    }
    let version = u32::from_le_bytes(bytes[4..8].try_into().expect("4 bytes"));
    if version != CHECKPOINT_VERSION_V1 && version != CHECKPOINT_VERSION {
        return Err(CheckpointError::BadVersion(version));
    }
    let payload_len = u64::from_le_bytes(bytes[8..16].try_into().expect("8 bytes")) as usize;
    let expected_crc = u32::from_le_bytes(bytes[16..20].try_into().expect("4 bytes"));
    let payload = &bytes[20..];
    if payload.len() != payload_len {
        return Err(CheckpointError::Truncated {
            expected: payload_len,
            got: payload.len(),
        });
    }
    let got_crc = crc32(payload);
    if got_crc != expected_crc {
        return Err(CheckpointError::ChecksumMismatch {
            expected: expected_crc,
            got: got_crc,
        });
    }

    let mut r = payload;
    let found = read_str(&mut r)?;
    if found != expected_id {
        return Err(CheckpointError::IdMismatch {
            expected: expected_id.to_string(),
            found,
        });
    }
    let n_epochs = read_u32(&mut r)? as usize;
    if n_epochs > 1 << 20 {
        return Err(CheckpointError::Corrupt("history too long"));
    }
    let mut history = Vec::with_capacity(n_epochs);
    for _ in 0..n_epochs {
        let epoch = read_u64(&mut r)? as usize;
        let wasserstein = read_f32(&mut r)?;
        let critic_real = read_f32(&mut r)?;
        let critic_fake = read_f32(&mut r)?;
        history.push(TrainStats {
            epoch,
            wasserstein,
            critic_real,
            critic_fake,
        });
    }
    let critic_len = read_u64(&mut r)? as usize;
    let (critic, state) = if version == CHECKPOINT_VERSION_V1 {
        // v1 payloads end at the critic bytes.
        if critic_len != r.len() {
            return Err(CheckpointError::Corrupt("critic length mismatch"));
        }
        (r, None)
    } else {
        if critic_len > r.len() {
            return Err(CheckpointError::Corrupt("critic length mismatch"));
        }
        let (critic, mut rest) = r.split_at(critic_len);
        let state = match read_exact_array::<1>(&mut rest)?[0] {
            0 => {
                if !rest.is_empty() {
                    return Err(CheckpointError::Corrupt("trailing payload bytes"));
                }
                None
            }
            1 => {
                let state_len = read_u64(&mut rest)? as usize;
                if state_len != rest.len() {
                    return Err(CheckpointError::Corrupt("training-state length mismatch"));
                }
                Some(rest)
            }
            _ => return Err(CheckpointError::Corrupt("bad training-state flag")),
        };
        (critic, state)
    };
    Ok(RawCheckpoint {
        history,
        critic,
        state,
    })
}

fn write_str(w: &mut impl Write, s: &str) -> io::Result<()> {
    w.write_all(&(s.len() as u32).to_le_bytes())?;
    w.write_all(s.as_bytes())
}

fn read_str(r: &mut &[u8]) -> Result<String, CheckpointError> {
    let len = read_u32(r)? as usize;
    if len > 1 << 16 {
        return Err(CheckpointError::Corrupt("string too long"));
    }
    if r.len() < len {
        return Err(CheckpointError::Corrupt("string past end of payload"));
    }
    let (head, rest) = r.split_at(len);
    let s = std::str::from_utf8(head)
        .map_err(|_| CheckpointError::Corrupt("invalid utf-8"))?
        .to_string();
    *r = rest;
    Ok(s)
}

fn read_exact_array<const N: usize>(r: &mut &[u8]) -> Result<[u8; N], CheckpointError> {
    if r.len() < N {
        return Err(CheckpointError::Corrupt("payload ended early"));
    }
    let (head, rest) = r.split_at(N);
    *r = rest;
    Ok(head.try_into().expect("split_at guarantees length"))
}

fn read_u32(r: &mut &[u8]) -> Result<u32, CheckpointError> {
    Ok(u32::from_le_bytes(read_exact_array::<4>(r)?))
}

fn read_u64(r: &mut &[u8]) -> Result<u64, CheckpointError> {
    Ok(u64::from_le_bytes(read_exact_array::<8>(r)?))
}

fn read_f32(r: &mut &[u8]) -> Result<f32, CheckpointError> {
    Ok(f32::from_le_bytes(read_exact_array::<4>(r)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn scratch_dir(tag: &str) -> PathBuf {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!(
            "vehigan-ckpt-test-{}-{tag}-{n}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn quick_wgan() -> Wgan {
        let config = WganConfig {
            noise_dim: 8,
            layers: 3,
            epochs: 1,
            batch_size: 16,
            n_critic: 2,
            ..WganConfig::default()
        };
        Wgan::new(config)
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE CRC32 check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn roundtrip_preserves_scores_and_history() {
        let dir = scratch_dir("roundtrip");
        let store = CheckpointStore::open(&dir).unwrap();
        let mut wgan = quick_wgan();
        let x = vehigan_tensor::init::rand_uniform(
            &[32, 10, 12, 1],
            -0.5,
            0.5,
            &mut vehigan_tensor::init::seeded_rng(0),
        );
        wgan.train(&x);
        store.save_member(&wgan).unwrap();
        let back = store.load_member(*wgan.config()).unwrap();
        assert_eq!(wgan.score_batch(&x), back.score_batch(&x));
        assert_eq!(wgan.history(), back.history());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncation_is_a_typed_error() {
        let dir = scratch_dir("trunc");
        let store = CheckpointStore::open(&dir).unwrap();
        let wgan = quick_wgan();
        store.save_member(&wgan).unwrap();
        let path = store.member_path(&wgan.config().id());
        let bytes = fs::read(&path).unwrap();
        for keep in [5, 19, bytes.len() / 2, bytes.len() - 1] {
            fs::write(&path, &bytes[..keep]).unwrap();
            let err = store.load_member(*wgan.config()).unwrap_err();
            assert!(
                matches!(err, CheckpointError::Truncated { .. }),
                "keep={keep}: got {err:?}"
            );
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn bit_flip_is_a_checksum_mismatch() {
        let dir = scratch_dir("flip");
        let store = CheckpointStore::open(&dir).unwrap();
        let wgan = quick_wgan();
        store.save_member(&wgan).unwrap();
        let path = store.member_path(&wgan.config().id());
        let mut bytes = fs::read(&path).unwrap();
        let mid = 20 + (bytes.len() - 20) / 2;
        bytes[mid] ^= 0x40;
        fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            store.load_member(*wgan.config()),
            Err(CheckpointError::ChecksumMismatch { .. })
        ));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_member_is_io_error() {
        let dir = scratch_dir("missing");
        let store = CheckpointStore::open(&dir).unwrap();
        assert!(matches!(
            store.load_member(*quick_wgan().config()),
            Err(CheckpointError::Io(_))
        ));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn manifest_roundtrip() {
        let dir = scratch_dir("manifest");
        let store = CheckpointStore::open(&dir).unwrap();
        assert_eq!(store.read_manifest().unwrap(), None);
        let manifest = Manifest {
            fingerprint: 0xDEAD_BEEF_1234_5678,
            done: vec!["z8-l4-e3-s0".into(), "z8-l4-e6-s0".into()],
            quarantined: vec![("z16-l4-e3-s1".into(), "diverged:\tnon-finite loss".into())],
        };
        store.write_manifest(&manifest).unwrap();
        let back = store.read_manifest().unwrap().unwrap();
        assert_eq!(back.fingerprint, manifest.fingerprint);
        assert_eq!(back.done, manifest.done);
        assert_eq!(back.quarantined.len(), 1);
        assert_eq!(back.quarantined[0].0, "z16-l4-e3-s1");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn grid_fingerprint_distinguishes_grids() {
        let a = grid_fingerprint(&GridConfig::tiny());
        let b = grid_fingerprint(&GridConfig::quick());
        assert_ne!(a, b);
        assert_eq!(a, grid_fingerprint(&GridConfig::tiny()));
    }
}
