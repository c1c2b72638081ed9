//! The VEHIGAN ensemble detector (§III-A.2, §III-F).
//!
//! From the top-*m* candidate critics, an inference deploys a subset of
//! *k ≤ m* of them, averages their critic outputs into an ensemble score
//! `s_ens(x) = −(1/k)·Σ D_i(x)`, and flags a vehicle when the score
//! exceeds the mean of the deployed members' thresholds. A random subset
//! per inference is what defeats single-surrogate adversarial transfer
//! (Fig 7a).
//!
//! [`VehiGan`] scores exactly the subset its caller names
//! ([`VehiGan::score_with_members`] and its twins); it draws none and
//! reports nothing. Which subset a deployment scores, which members sit
//! out after failing, and the report a flagged window becomes are the
//! server's (`vehigan_serve::TieredDetector`); the figures draw their own
//! subsets.
//!
//! Scoring is **degraded-tolerant**: a member that panics mid-score or
//! emits non-finite values is dropped from that inference (recorded in
//! [`EnsembleScore::dropped`]) rather than poisoning the ensemble mean.
//! Only when no deployed member survives does scoring return a typed
//! [`EnsembleError`].

use crate::lock;
use crate::wgan::Wgan;
use std::fmt;
use std::ops::Range;
use std::panic::{self, AssertUnwindSafe};
use std::sync::Mutex;
use vehigan_metrics::percentile;
use vehigan_tensor::forkjoin::{fork_join, workers_for};
use vehigan_tensor::{CriticScratch, Flat, Tensor, Windows, HEAD_ROWS};

/// Error constructing or scoring a [`VehiGan`] ensemble.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EnsembleError {
    /// The ensemble was given zero members.
    NoMembers,
    /// `k` outside `[1, m]`.
    InvalidK {
        /// The requested deployment size.
        k: usize,
        /// The number of candidate members.
        m: usize,
    },
    /// An explicit member index was out of bounds.
    MemberOutOfBounds {
        /// The offending index.
        index: usize,
        /// The number of candidate members.
        m: usize,
    },
    /// An explicit subset was empty.
    EmptySubset,
    /// An explicit subset named a member twice, which would weight it
    /// twice in the mean.
    DuplicateMember {
        /// The repeated index.
        index: usize,
    },
    /// Zoo training quarantined so many grid configurations that fewer
    /// than `deploy_k` remain to select ([`crate::Pipeline::run`]).
    InsufficientHealthy {
        /// Configurations the zoo trained.
        healthy: usize,
        /// Members needed per inference.
        k: usize,
    },
    /// Every deployed member failed to score (panic or non-finite output).
    AllMembersFailed {
        /// The member indices that were attempted.
        attempted: Vec<usize>,
    },
    /// Calibration found no finite anomaly scores on the benign set, so no
    /// threshold percentile exists.
    NoFiniteCalibrationScores {
        /// Config id of the member being calibrated.
        id: String,
    },
    /// Compiling the int8 backend failed (unsupported critic layer or
    /// non-finite weights).
    Int8Compile {
        /// The underlying compile error, rendered.
        reason: String,
    },
    /// An int8 scoring path was used before [`VehiGan::compile_int8`].
    Int8NotCompiled,
}

impl fmt::Display for EnsembleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EnsembleError::NoMembers => write!(f, "ensemble needs at least one member"),
            EnsembleError::InvalidK { k, m } => {
                write!(f, "k must be in [1, m={m}], got {k}")
            }
            EnsembleError::MemberOutOfBounds { index, m } => {
                write!(f, "member index {index} out of bounds (m={m})")
            }
            EnsembleError::EmptySubset => write!(f, "need at least one member to score"),
            EnsembleError::DuplicateMember { index } => {
                write!(f, "member {index} appears twice in the subset")
            }
            EnsembleError::InsufficientHealthy { healthy, k } => write!(
                f,
                "only {healthy} healthy members remain but k={k} are required"
            ),
            EnsembleError::AllMembersFailed { attempted } => write!(
                f,
                "all {} deployed members failed to produce finite scores",
                attempted.len()
            ),
            EnsembleError::NoFiniteCalibrationScores { id } => write!(
                f,
                "member {id} produced no finite scores on the calibration set"
            ),
            EnsembleError::Int8Compile { reason } => {
                write!(f, "int8 backend compilation failed: {reason}")
            }
            EnsembleError::Int8NotCompiled => {
                write!(f, "int8 backend not compiled — call compile_int8 first")
            }
        }
    }
}

impl std::error::Error for EnsembleError {}

/// A calibrated ensemble member: a trained critic plus its detection
/// threshold τ (p-th percentile of benign training scores).
pub struct CriticMember {
    /// Model identifier (from its config).
    pub(crate) id: String,
    /// The trained WGAN (critic used for scoring).
    pub wgan: Wgan,
    /// Detection threshold τ.
    pub threshold: f32,
    /// Pre-evaluation ADS (for reporting).
    pub(crate) ads: f64,
}

impl std::fmt::Debug for CriticMember {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "CriticMember({}, τ={:.4}, ADS={:.3})",
            self.id, self.threshold, self.ads
        )
    }
}

/// The percentile `p` of a member's benign training scores its threshold
/// sits at (§III-F; the paper sweeps 99–99.99).
const THRESHOLD_PERCENTILE: f64 = 99.0;

impl CriticMember {
    /// Calibrates a member's threshold at the 99th percentile
    /// (`THRESHOLD_PERCENTILE`) of its anomaly scores on benign training
    /// snapshots (§III-F).
    ///
    /// Non-finite scores (a degraded critic can emit NaN/Inf without
    /// failing outright) are excluded from the percentile, consistent with
    /// the NaN-robust pre-evaluation ranking.
    ///
    /// # Errors
    ///
    /// [`EnsembleError::NoFiniteCalibrationScores`] when no finite score
    /// remains to take a percentile of.
    ///
    /// # Panics
    ///
    /// Panics if `benign` is empty.
    pub fn calibrate(wgan: Wgan, ads: f64, benign: &Tensor) -> Result<Self, EnsembleError> {
        let mut scores = wgan.score_batch(benign);
        scores.retain(|s| s.is_finite());
        if scores.is_empty() {
            return Err(EnsembleError::NoFiniteCalibrationScores {
                id: wgan.config().id(),
            });
        }
        let threshold = percentile(&scores, THRESHOLD_PERCENTILE);
        Ok(CriticMember {
            id: wgan.config().id(),
            wgan,
            threshold,
            ads,
        })
    }
}

/// What one member costs the f32 path per window, for
/// [`workers_for`]: the fused walk measures 30–45 µs per window through a
/// `k = 5` subset on one core of the ledger host (41.5–43.4 µs for five
/// critics of depths 4 and 5, re-measured for the wake-cost policy,
/// EXPERIMENTS.md ISSUE 17), a fifth of it per member.
pub(crate) const F32_NS_PER_MEMBER_ROW: usize = 8_000;

/// The mutable half of one precision's scoring path, reused by every call
/// and built with the detector — so a warm call allocates nothing,
/// forked or not, and the buffers stay warm across servers and outside a
/// server's peak heap.
pub(crate) struct ForkState<S> {
    /// Most rows a task of a forked call takes.
    chunk_rows: usize,
    /// One scratch per thread of a call, each fitted to every member.
    workers: Vec<S>,
    /// Member scores of the current call: one block per chunk of windows
    /// (the last may be shorter), member-major inside a block.
    scores: Vec<f32>,
    /// Per block and member, whether the member scored it without
    /// panicking.
    scored: Vec<bool>,
}

impl<S> ForkState<S> {
    /// One worker per core a call can fork to, built now so the first
    /// server's first tile allocates none of it.
    pub(crate) fn new(chunk_rows: usize, new_worker: impl Fn() -> S) -> Self {
        let mut state = ForkState {
            chunk_rows,
            workers: Vec::new(),
            scores: Vec::new(),
            scored: Vec::new(),
        };
        state.grow_to(workers_for(usize::MAX), new_worker);
        state
    }

    /// Makes sure a call can run on `workers` threads.
    pub(crate) fn grow_to(&mut self, workers: usize, new_worker: impl Fn() -> S) {
        while self.workers.len() < workers {
            self.workers.push(new_worker());
        }
    }

    /// Heap bytes held by the workers' scratch (`scratch_bytes` of each)
    /// and the score buffers.
    pub(crate) fn bytes(&self, scratch_bytes: impl Fn(&S) -> usize) -> usize {
        self.workers.iter().map(scratch_bytes).sum::<usize>()
            + self.scores.capacity() * std::mem::size_of::<f32>()
            + self.scored.capacity()
    }
}

/// A `[n, …]` batch as its `n` contiguous windows.
pub(crate) fn flat_windows(x: &Tensor) -> Flat<'_> {
    Flat::new(x.as_slice(), x.shape()[1..].iter().product())
}

/// The result of one ensemble inference.
#[derive(Debug, Clone, PartialEq)]
pub struct EnsembleScore {
    /// Per-snapshot ensemble anomaly scores.
    pub scores: Vec<f32>,
    /// The ensemble threshold (mean of deployed members' τ).
    pub threshold: f32,
    /// Which members actually contributed to the score.
    pub members: Vec<usize>,
    /// Deployed members that failed (panicked or produced non-finite
    /// scores) and were excluded from the mean. Empty on a healthy run.
    pub dropped: Vec<usize>,
}

/// What reducing a subset's member scores yields besides the scores
/// themselves, which [`VehiGan::score_with_members_into`] and
/// [`VehiGan::score_with_members_int8_into`] write into the caller's
/// buffer.
#[derive(Debug, Clone, PartialEq)]
pub struct ScoreSummary {
    /// The ensemble threshold (mean of the surviving members' τ).
    pub threshold: f32,
    /// Deployed members that produced non-finite scores and were excluded
    /// from the mean. Empty (and unallocated) on a healthy run.
    pub dropped: Vec<usize>,
}

impl ScoreSummary {
    /// Joins the summary with its score vector; the contributing members
    /// are `indices` minus the dropped ones, in `indices` order.
    pub(crate) fn into_score(self, indices: &[usize], scores: Vec<f32>) -> EnsembleScore {
        let members = indices
            .iter()
            .copied()
            .filter(|i| !self.dropped.contains(i))
            .collect();
        EnsembleScore {
            scores,
            threshold: self.threshold,
            members,
            dropped: self.dropped,
        }
    }
}

/// The `VEHIGAN_m^k` detector.
///
/// # Examples
///
/// See [`crate::Pipeline`] for an end-to-end construction; unit
/// construction requires calibrated members.
pub struct VehiGan {
    members: Vec<CriticMember>,
    k: usize,
    /// The f32 path's buffers, behind one lock: calls take turns, the
    /// threads of one call run inside it.
    f32: Mutex<ForkState<CriticScratch>>,
    /// Compiled int8 sidecar ([`VehiGan::compile_int8`]); `None` until
    /// compiled, stale if member critics are mutated afterwards.
    int8: Option<crate::int8::Int8Backend>,
}

/// A scoring thread's scratch, grown to the deepest of `members`.
fn new_worker(members: &[CriticMember]) -> CriticScratch {
    let mut scratch = CriticScratch::new();
    for member in members {
        member.wgan.fit_scratch(&mut scratch);
    }
    scratch
}

impl std::fmt::Debug for VehiGan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "VehiGan(m={}, k={}{})",
            self.members.len(),
            self.k,
            if self.int8.is_some() { ", int8" } else { "" }
        )
    }
}

impl VehiGan {
    /// Creates a `VEHIGAN_m^k` from `m` calibrated members.
    ///
    /// # Errors
    ///
    /// [`EnsembleError::NoMembers`] if `members` is empty,
    /// [`EnsembleError::InvalidK`] if `k` is not in `[1, m]`.
    pub fn new(members: Vec<CriticMember>, k: usize) -> Result<Self, EnsembleError> {
        if members.is_empty() {
            return Err(EnsembleError::NoMembers);
        }
        if k < 1 || k > members.len() {
            return Err(EnsembleError::InvalidK {
                k,
                m: members.len(),
            });
        }
        // Whole head groups a task, so that no thread's dense head runs
        // part empty.
        let f32 = Mutex::new(ForkState::new(HEAD_ROWS, || new_worker(&members)));
        Ok(VehiGan {
            members,
            k,
            f32,
            int8: None,
        })
    }

    /// The number of candidate members `m`.
    pub fn m(&self) -> usize {
        self.members.len()
    }

    /// The number of members deployed per inference `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The calibrated members.
    pub fn members(&self) -> &[CriticMember] {
        &self.members
    }

    /// Mutable access to members (adversarial experiments need the
    /// critics' gradients).
    ///
    /// Mutating a member's critic weights leaves a compiled int8 backend
    /// stale; call [`VehiGan::compile_int8`] again afterwards.
    pub fn members_mut(&mut self) -> &mut [CriticMember] {
        &mut self.members
    }

    /// The compiled int8 backend, if [`VehiGan::compile_int8`] has run.
    pub fn int8_backend(&self) -> Option<&crate::int8::Int8Backend> {
        self.int8.as_ref()
    }

    pub(crate) fn set_int8_backend(&mut self, backend: crate::int8::Int8Backend) {
        self.int8 = Some(backend);
    }

    /// Scores snapshots with the member subset `indices`.
    ///
    /// Members are scored in parallel (see
    /// [`VehiGan::score_with_members_into`], which this wraps); the
    /// per-member results are reduced in `indices` order, so the output
    /// is bitwise identical to scoring the members serially.
    ///
    /// Failures are isolated per member: a panic while scoring, or a score
    /// vector containing NaN/Inf, drops that member from the reduction (its
    /// index is recorded in [`EnsembleScore::dropped`]) and the remaining
    /// members' mean is returned.
    ///
    /// # Errors
    ///
    /// [`EnsembleError::EmptySubset`] /
    /// [`EnsembleError::MemberOutOfBounds`] /
    /// [`EnsembleError::DuplicateMember`] on a bad subset,
    /// [`EnsembleError::AllMembersFailed`] when no member survives.
    pub fn score_with_members(
        &self,
        indices: &[usize],
        x: &Tensor,
    ) -> Result<EnsembleScore, EnsembleError> {
        let mut scores = vec![0.0f32; x.shape()[0]];
        let summary = self.score_with_members_into(indices, &flat_windows(x), &mut scores)?;
        Ok(summary.into_score(indices, scores))
    }

    /// [`VehiGan::score_with_members`] over windows read where they lie
    /// — the float twin of [`VehiGan::score_with_members_int8_into`]:
    /// `windows` in, each as two [`Pieces`](vehigan_tensor::Pieces) (a
    /// ring buffer's two runs of rows, or a contiguous window and
    /// nothing), one ensemble score per window written to `out`. The
    /// scores are bitwise those of the same floats in one contiguous
    /// batch through the `Tensor` entry point, wherever the pieces split
    /// a window, and nothing is copied or allocated on the way (once the
    /// score buffer has grown to the batch size; a dropped member or an
    /// error does allocate its index list), whether or not the call
    /// forks.
    ///
    /// The rows are shared out over up to [`workers_for`] threads, the
    /// caller among them, each on its own scratch; the reduction, the
    /// survivor set and τ come after the join, over the whole call, so
    /// scores, threshold and dropped members are bitwise the same for any
    /// worker count.
    ///
    /// # Errors
    ///
    /// Same as [`VehiGan::score_with_members`].
    ///
    /// # Panics
    ///
    /// Panics if `out` is not one score per window; a window that is not
    /// a snapshot of a member's configured shape fails that member.
    pub fn score_with_members_into(
        &self,
        indices: &[usize],
        windows: &(impl Windows + ?Sized),
        out: &mut [f32],
    ) -> Result<ScoreSummary, EnsembleError> {
        let workers = workers_for(out.len() * indices.len() * F32_NS_PER_MEMBER_ROW);
        self.score_f32_forked(indices, windows, out, workers)
    }

    /// Heap bytes held by the f32 path's scratch and score buffers.
    /// Stable across repeated calls of one shape — the invariant the
    /// no-allocation tests assert.
    pub fn scratch_bytes(&self) -> usize {
        lock(&self.f32).bytes(CriticScratch::bytes)
    }

    /// [`VehiGan::score_with_members_into`] on exactly `workers` threads
    /// (capped at one per task); the result does not depend on it.
    pub(crate) fn score_f32_forked(
        &self,
        indices: &[usize],
        windows: &(impl Windows + ?Sized),
        out: &mut [f32],
        workers: usize,
    ) -> Result<ScoreSummary, EnsembleError> {
        assert_eq!(
            out.len(),
            windows.count(),
            "output is not one score per window"
        );
        let mut state = lock(&self.f32);
        state.grow_to(workers, || new_worker(&self.members));
        let score = |scratch: &mut CriticScratch, member: usize, rows, out: &mut [f32]| {
            let wgan = &self.members[member].wgan;
            wgan.score_with(scratch, windows.pieces(rows), out);
        };
        self.score_forked(&mut state, workers, indices, out, score)
    }

    /// The one ensemble walk, shared by both precisions: `score(scratch,
    /// member, rows, scores)` runs once per member of `indices` and chunk
    /// `rows` of up to `state.chunk_rows` windows (the whole batch on one
    /// worker), as the tasks of one [`fork_join`] over `workers` threads,
    /// each on its own scratch of `state`; then the member rows are
    /// reduced over the whole call into `out`, one score per window — the
    /// windows `score` reads are its own to know. A task that panics or
    /// scores non-finite fails its member, never the call.
    ///
    /// A helper that was parked reaches its first task ≈ 50 µs after the
    /// caller has started (measured on the ledger host), one that is busy
    /// elsewhere never; with the rows in small chunks the caller simply
    /// scores more of them meanwhile, and whoever finishes last is at
    /// most one task behind.
    pub(crate) fn score_forked<S: Send>(
        &self,
        state: &mut ForkState<S>,
        workers: usize,
        indices: &[usize],
        out: &mut [f32],
        score: impl Fn(&mut S, usize, Range<usize>, &mut [f32]) + Sync,
    ) -> Result<ScoreSummary, EnsembleError> {
        self.check_subset(indices)?;
        let (k, n) = (indices.len(), out.len());
        let chunk = if workers == 1 {
            n.max(1)
        } else {
            // At least four tasks a worker while the rows last: the share
            // of a helper that joins late goes to the others a task at a
            // time, and whoever finishes last is one small task behind.
            let chunks = (4 * workers).div_ceil(k);
            (n / chunks).clamp(1, state.chunk_rows)
        };
        let workers = workers.clamp(1, n.div_ceil(chunk).max(1) * k);
        assert!(workers <= state.workers.len(), "state has too few workers");
        state.scores.clear();
        state.scores.resize(k * n, 0.0);
        state.scored.clear();
        state.scored.resize(k * n.div_ceil(chunk), false);
        let blocks = state.scores.chunks_mut(k * chunk);
        let tasks =
            blocks
                .zip(state.scored.chunks_mut(k))
                .enumerate()
                .flat_map(|(b, (block, scored))| {
                    let rows = block.chunks_mut(block.len() / k);
                    rows.zip(scored)
                        .zip(indices)
                        .map(move |((row, scored), &member)| (row, scored, member, b * chunk))
                });
        fork_join(
            &mut state.workers[..workers],
            tasks,
            |scratch, _, (row, scored, member, first)| {
                let rows = first..first + row.len();
                let run = AssertUnwindSafe(|| score(scratch, member, rows, row));
                *scored = panic::catch_unwind(run).is_ok();
            },
        );
        let (scores, scored) = (&state.scores, &state.scored);
        let per_member = (0..k).map(|pos| {
            // The member's row, block by block.
            let pieces = || {
                scores.chunks(k * chunk).map(move |block| {
                    let len = block.len() / k;
                    &block[pos * len..(pos + 1) * len]
                })
            };
            let alive = scored.iter().skip(pos).step_by(k).all(|&ok| ok)
                && pieces().all(|p| p.iter().all(|s| s.is_finite()));
            alive.then(pieces)
        });
        self.reduce_member_scores(indices, per_member, out)
    }

    /// Rejects an empty subset, an index past the last member and an
    /// index named twice.
    ///
    /// # Errors
    ///
    /// [`EnsembleError::EmptySubset`], [`EnsembleError::MemberOutOfBounds`]
    /// or [`EnsembleError::DuplicateMember`].
    pub fn check_subset(&self, indices: &[usize]) -> Result<(), EnsembleError> {
        if indices.is_empty() {
            return Err(EnsembleError::EmptySubset);
        }
        let m = self.members.len();
        for (pos, &index) in indices.iter().enumerate() {
            if index >= m {
                return Err(EnsembleError::MemberOutOfBounds { index, m });
            }
            if indices[..pos].contains(&index) {
                return Err(EnsembleError::DuplicateMember { index });
            }
        }
        Ok(())
    }

    /// Reduces per-member score rows (in `indices` order; `None` marks a
    /// failed member) into the ensemble mean written to `out`, dropping
    /// failed members — the shared tail of the float and int8 scoring
    /// paths. A member's row arrives as consecutive pieces (one per
    /// chunk the batch's rows were scored in); the sum runs member by
    /// member in `indices` order whatever the pieces, so the result is
    /// bitwise independent of how the rows were split.
    fn reduce_member_scores<'s, P>(
        &self,
        indices: &[usize],
        per_member: impl Iterator<Item = Option<P>>,
        out: &mut [f32],
    ) -> Result<ScoreSummary, EnsembleError>
    where
        P: Iterator<Item = &'s [f32]>,
    {
        out.fill(0.0);
        let mut tau = 0.0f32;
        let mut survivors = 0usize;
        let mut dropped = Vec::new();
        for (pieces, &i) in per_member.zip(indices) {
            let Some(pieces) = pieces else {
                dropped.push(i);
                continue;
            };
            let mut rest = &mut *out;
            for piece in pieces {
                assert!(
                    piece.len() <= rest.len(),
                    "member {i} scored a different batch"
                );
                let (acc, tail) = rest.split_at_mut(piece.len());
                for (acc, s) in acc.iter_mut().zip(piece) {
                    *acc += s;
                }
                rest = tail;
            }
            assert!(rest.is_empty(), "member {i} scored a different batch");
            tau += self.members[i].threshold;
            survivors += 1;
        }
        if survivors == 0 {
            return Err(EnsembleError::AllMembersFailed {
                attempted: indices.to_vec(),
            });
        }
        let k = survivors as f32;
        for s in out.iter_mut() {
            *s /= k;
        }
        Ok(ScoreSummary {
            threshold: tau / k,
            dropped,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::WganConfig;
    use vehigan_tensor::init::{rand_uniform, seeded_rng};

    fn benign(n: usize, seed: u64) -> Tensor {
        let mut rng = seeded_rng(seed);
        let base = rand_uniform(&[n, 1], -0.2, 0.2, &mut rng);
        let mut data = Vec::with_capacity(n * 120);
        for i in 0..n {
            for j in 0..120 {
                data.push(base.as_slice()[i] + 0.05 * (j as f32 * 0.4).cos());
            }
        }
        Tensor::from_vec(data, &[n, 10, 12, 1])
    }

    fn member(seed: u64, train: &Tensor) -> CriticMember {
        let config = WganConfig {
            noise_dim: 8,
            layers: 3,
            epochs: 2,
            batch_size: 32,
            n_critic: 1,
            seed,
            ..WganConfig::default()
        };
        let mut wgan = Wgan::new(config);
        wgan.train(train);
        CriticMember::calibrate(wgan, 0.9, train).unwrap()
    }

    fn ensemble(m: usize, k: usize) -> VehiGan {
        let train = benign(96, 0);
        let members: Vec<CriticMember> = (0..m as u64).map(|s| member(s, &train)).collect();
        VehiGan::new(members, k).unwrap()
    }

    /// Overwrites one weight of a member's critic with NaN.
    fn poison_member(v: &mut VehiGan, i: usize) {
        let critic = v.members_mut()[i].wgan.critic_mut();
        let mut params = critic.params_mut();
        params
            .first_mut()
            .expect("critic has params")
            .value
            .as_mut_slice()[0] = f32::NAN;
    }

    #[test]
    fn construction_validates_k() {
        let v = ensemble(3, 2);
        assert_eq!((v.m(), v.k()), (3, 2));
    }

    #[test]
    fn k_exceeding_m_is_a_typed_error() {
        let train = benign(96, 0);
        let members: Vec<CriticMember> = (0..2u64).map(|s| member(s, &train)).collect();
        assert_eq!(
            VehiGan::new(members, 3).unwrap_err(),
            EnsembleError::InvalidK { k: 3, m: 2 }
        );
        assert_eq!(
            VehiGan::new(Vec::new(), 1).unwrap_err(),
            EnsembleError::NoMembers
        );
    }

    #[test]
    fn full_ensemble_score_is_member_mean() {
        let mut v = ensemble(3, 3);
        let x = benign(5, 2);
        let all: Vec<usize> = (0..3).collect();
        let ens = v.score_with_members(&all, &x).unwrap();
        let mut expected = vec![0.0f32; 5];
        for i in 0..3 {
            let s = v.members_mut()[i].wgan.score_batch(&x);
            for (e, si) in expected.iter_mut().zip(&s) {
                *e += si / 3.0;
            }
        }
        for (a, b) in ens.scores.iter().zip(&expected) {
            assert!((a - b).abs() < 1e-5);
        }
    }

    #[test]
    fn parallel_scoring_is_identical_to_serial_order() {
        let v = ensemble(3, 3);
        let x = benign(6, 5);
        let all = [0usize, 1, 2];
        let par = v.score_with_members(&all, &x).unwrap();
        // Serial reference: accumulate member scores in `all` order.
        let mut sum = vec![0.0f32; 6];
        let mut tau = 0.0f32;
        for &i in &all {
            let s = v.members()[i].wgan.score_batch(&x);
            for (acc, si) in sum.iter_mut().zip(&s) {
                *acc += si;
            }
            tau += v.members()[i].threshold;
        }
        for s in &mut sum {
            *s /= 3.0;
        }
        assert_eq!(par.scores, sum, "parallel must equal serial bitwise");
        assert_eq!(par.threshold, tau / 3.0);
        assert!(par.dropped.is_empty());
    }

    #[test]
    fn ensemble_threshold_is_member_mean() {
        let v = ensemble(3, 3);
        let x = benign(2, 3);
        let ens = v.score_with_members(&[0, 1, 2], &x).unwrap();
        let expect: f32 = v.members().iter().map(|m| m.threshold).sum::<f32>() / 3.0;
        assert!((ens.threshold - expect).abs() < 1e-6);
    }

    #[test]
    fn benign_fpr_is_low_after_calibration() {
        let v = ensemble(3, 3);
        let x = benign(200, 4);
        let ens = v.score_with_members(&[0, 1, 2], &x).unwrap();
        let fpr = ens.scores.iter().filter(|&&s| s > ens.threshold).count() as f64 / 200.0;
        assert!(fpr < 0.1, "fpr={fpr}");
    }

    #[test]
    fn poisoned_member_is_dropped_not_averaged() {
        let mut v = ensemble(3, 3);
        let x = benign(5, 7);
        let clean = v.score_with_members(&[1, 2], &x).unwrap();
        poison_member(&mut v, 0);
        let ens = v.score_with_members(&[0, 1, 2], &x).unwrap();
        assert_eq!(ens.dropped, vec![0]);
        assert_eq!(ens.members, vec![1, 2]);
        // The degraded mean equals the healthy pair's mean — the NaN never
        // leaked into the reduction.
        assert_eq!(ens.scores, clean.scores);
        assert!(ens.scores.iter().all(|s| s.is_finite()));
    }

    #[test]
    fn all_members_failing_is_a_typed_error() {
        let mut v = ensemble(2, 2);
        let x = benign(3, 8);
        poison_member(&mut v, 0);
        poison_member(&mut v, 1);
        assert_eq!(
            v.score_with_members(&[0, 1], &x).unwrap_err(),
            EnsembleError::AllMembersFailed {
                attempted: vec![0, 1]
            }
        );
    }

    #[test]
    fn a_subset_naming_a_member_twice_is_a_typed_error() {
        // It used to score, weighting member 0 at 2/3 of the mean.
        let v = ensemble(2, 1);
        let x = benign(2, 9);
        for (subset, index) in [([0, 0, 1], 0), ([1, 0, 1], 1)] {
            assert_eq!(
                v.score_with_members(&subset, &x).unwrap_err(),
                EnsembleError::DuplicateMember { index }
            );
        }
    }

    #[test]
    fn out_of_bounds_subset_is_a_typed_error() {
        let v = ensemble(2, 1);
        let x = benign(2, 9);
        assert_eq!(
            v.score_with_members(&[5], &x).unwrap_err(),
            EnsembleError::MemberOutOfBounds { index: 5, m: 2 }
        );
        assert_eq!(
            v.score_with_members(&[], &x).unwrap_err(),
            EnsembleError::EmptySubset
        );
    }
}
