//! Int8 ensemble scoring backend for [`VehiGan`].
//!
//! [`VehiGan::compile_int8`] compiles every member's trained critic into
//! its own [`vehigan_lite::Int8Weights`] — members differ in depth, and
//! each one's calibration and walk depend on that member alone — and
//! [`VehiGan::score_with_members_int8`] then scores a deployed subset
//! through the same forked walk as the float path (DESIGN.md §10), with
//! the int8 critic in place of the float one.
//!
//! The backend is a **sidecar**: the float members stay authoritative
//! (thresholds, gradients for the adversarial experiments, quarantine
//! state all live on [`VehiGan`]); the int8 artifact is a compiled view
//! of their weights at `compile_int8` time. Mutating a member's critic
//! afterwards (e.g. adaptive attack fine-tuning) leaves the backend
//! stale — recompile it.
//!
//! Degraded-tolerance matches the float path: a member whose int8 scores
//! come back non-finite is dropped from the reduction and recorded in
//! [`EnsembleScore::dropped`]; only when every deployed member fails does
//! scoring return [`EnsembleError::AllMembersFailed`].

use crate::ensemble::{
    flat_windows, EnsembleError, EnsembleScore, ForkState, ScoreSummary, VehiGan,
};
use crate::lock;
use std::sync::Mutex;
use vehigan_lite::{Int8Weights, Scratch};
use vehigan_tensor::forkjoin::{fork_map, workers_for};
use vehigan_tensor::{Tensor, Windows};

/// What one member costs the gate per window, for [`workers_for`]: the
/// window-major walk measures 28–44 µs per window through a `k = 5`
/// subset on one core of the ledger host, 5.6–8.8 µs a member
/// (`lite.int8_ensemble.ns_per_window`: 27.8–30.5 µs in earlier ledger
/// runs, 32.0–43.8 µs in twelve traced `city_attack` runs with the host
/// in its slow state; EXPERIMENTS.md, "Windows are scored where they
/// lie"). The estimate stays at 4 µs: with two cores, any cost from 4 to
/// 8 µs a member makes `workers_for` fork a `k = 5` call from two windows
/// up and keep a one-window call on the caller, as 4 µs does. Above 8 µs
/// (half of those twelve runs, at most 8.8) a one-window call would fork
/// too, with shares at the break-even `MIN_SHARE_NS`.
const INT8_NS_PER_MEMBER_ROW: usize = 4_000;

/// Most rows a task of a forked call takes: four keep a member's packed
/// weights hot across a task (≈ 18 µs) and the queue's lock around 1 % of
/// the work.
const CHUNK_ROWS: usize = 4;

/// Every member's critic compiled to int8, indexed like the members.
pub struct Int8Backend {
    /// Shared read-only by every worker of a call.
    critics: Vec<Int8Weights>,
    /// The workers' buffers, behind one lock: calls take turns, the
    /// threads of one call run inside it.
    state: Mutex<ForkState<Scratch>>,
}

/// A scoring thread's scratch, fitted to every critic.
fn new_worker(critics: &[Int8Weights]) -> Scratch {
    let mut scratch = Scratch::new();
    for critic in critics {
        scratch.fit(critic);
    }
    scratch
}

impl std::fmt::Debug for Int8Backend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Int8Backend({} members, {} packed weight bytes)",
            self.members(),
            self.weight_bytes(),
        )
    }
}

impl Int8Backend {
    /// Number of compiled members.
    pub(crate) fn members(&self) -> usize {
        self.critics.len()
    }

    /// Total packed int8 weight bytes — the deployable artifact size,
    /// roughly 4× smaller than the float weights.
    pub fn weight_bytes(&self) -> usize {
        self.critics.iter().map(Int8Weights::weight_bytes).sum()
    }

    /// Heap bytes held by the workers' scratch and score buffers. Stable
    /// across repeated calls of one shape — the invariant the
    /// no-allocation tests assert.
    pub fn scratch_bytes(&self) -> usize {
        lock(&self.state).bytes(Scratch::bytes)
    }
}

impl VehiGan {
    /// Compiles every member's critic into the fused int8 backend,
    /// calibrating activation scales on `calibration` (benign training
    /// windows `[n, w, f, 1]`; a few hundred are plenty).
    ///
    /// # Errors
    ///
    /// [`EnsembleError::Int8Compile`] when a critic uses layers the int8
    /// path does not support or its weights are non-finite.
    ///
    /// # Panics
    ///
    /// Panics if `calibration` is empty or not rank 4.
    pub fn compile_int8(&mut self, calibration: &Tensor) -> Result<(), EnsembleError> {
        let shape = calibration.shape();
        assert!(
            shape.len() == 4 && shape[0] > 0,
            "calibration must be a non-empty [n, w, f, c] batch, got {shape:?}"
        );
        let input_shape = (shape[1], shape[2], shape[3]);
        // One member's compile is independent of the others' and reads
        // ≈ 30 ms on the ledger host (EXPERIMENTS.md, ISSUE 21).
        let critics = fork_map(self.members().iter(), 30_000_000, |m| {
            let snap = m.wgan.critic().save();
            Int8Weights::compile(&snap, input_shape, calibration.as_slice())
        })
        .into_iter()
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| EnsembleError::Int8Compile {
            reason: e.to_string(),
        })?;
        let state = Mutex::new(ForkState::new(CHUNK_ROWS, || new_worker(&critics)));
        self.set_int8_backend(Int8Backend { critics, state });
        Ok(())
    }

    /// Scores snapshots through the int8 backend with an explicit member
    /// subset — the int8 counterpart of [`VehiGan::score_with_members`],
    /// with identical subset validation, reduction order, and
    /// degraded-tolerance semantics.
    ///
    /// # Errors
    ///
    /// [`EnsembleError::Int8NotCompiled`] before [`VehiGan::compile_int8`];
    /// otherwise the same errors as [`VehiGan::score_with_members`].
    pub fn score_with_members_int8(
        &self,
        indices: &[usize],
        x: &Tensor,
    ) -> Result<EnsembleScore, EnsembleError> {
        let mut scores = vec![0.0f32; x.shape()[0]];
        let summary = self.score_with_members_int8_into(indices, &flat_windows(x), &mut scores)?;
        Ok(summary.into_score(indices, scores))
    }

    /// [`VehiGan::score_with_members_int8`] over windows read where they
    /// lie: `windows` in, each as two [`Pieces`](vehigan_tensor::Pieces)
    /// (a ring buffer's two runs of rows, or a contiguous window and
    /// nothing), one ensemble score per window written to `out` — bitwise
    /// the scores of the same floats in one contiguous batch through the
    /// `Tensor` entry point, wherever the pieces split a window. Nothing
    /// is copied or allocated on the way (once the backend's buffers have
    /// grown to the batch size; a dropped member or an error does
    /// allocate its index list), whether or not the call forks, which is
    /// what the serve plane's per-tile gate calls need: it scores each
    /// window in its vehicle's ring or its shard's spill buffer.
    ///
    /// The rows are shared out over up to [`workers_for`] threads, the
    /// caller among them; the reduction, the survivor set and τ come
    /// after the join, over the whole call, so scores, threshold and
    /// dropped members are bitwise the same for any worker count.
    ///
    /// # Errors
    ///
    /// Same as [`VehiGan::score_with_members_int8`].
    ///
    /// # Panics
    ///
    /// Panics if a window is not of the compiled input length or `out` is
    /// not one score per window.
    pub fn score_with_members_int8_into(
        &self,
        indices: &[usize],
        windows: &(impl Windows + ?Sized),
        out: &mut [f32],
    ) -> Result<ScoreSummary, EnsembleError> {
        let workers = workers_for(out.len() * indices.len() * INT8_NS_PER_MEMBER_ROW);
        self.score_int8_forked(indices, windows, out, workers)
    }

    /// [`VehiGan::score_with_members_int8_into`] on exactly `workers`
    /// threads (capped at one per task); the result does not depend on it.
    pub(crate) fn score_int8_forked(
        &self,
        indices: &[usize],
        windows: &(impl Windows + ?Sized),
        out: &mut [f32],
        workers: usize,
    ) -> Result<ScoreSummary, EnsembleError> {
        let backend = self.int8_backend().ok_or(EnsembleError::Int8NotCompiled)?;
        let n = windows.count();
        assert_eq!(out.len(), n, "output is not one score per window");
        let input_len = backend.critics[0].input_len();
        for (i, [older, newer]) in windows.pieces(0..n).enumerate() {
            assert_eq!(
                older.len() + newer.len(),
                input_len,
                "window {i} is not of the compiled input length {input_len}"
            );
        }
        let mut state = lock(&backend.state);
        state.grow_to(workers, || new_worker(&backend.critics));
        let score = |scratch: &mut Scratch, member: usize, rows, out: &mut [f32]| {
            backend.critics[member].score_into(scratch, windows.pieces(rows), out);
        };
        self.score_forked(&mut state, workers, indices, out, score)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::WganConfig;
    use crate::ensemble::CriticMember;
    use crate::wgan::Wgan;
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

    fn member(seed: u64, layers: usize, train: &Tensor) -> CriticMember {
        let config = WganConfig {
            noise_dim: 8,
            layers,
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

    /// Mixed-depth ensemble with the backend compiled, plus the benign
    /// training batch.
    fn compiled_ensemble() -> (VehiGan, Tensor) {
        let train = benign(96, 0);
        let members = vec![
            member(0, 3, &train),
            member(1, 4, &train),
            member(2, 3, &train),
        ];
        let mut v = VehiGan::new(members, 2).unwrap();
        v.compile_int8(&train).unwrap();
        (v, train)
    }

    #[test]
    fn scoring_before_compile_is_a_typed_error() {
        let train = benign(96, 0);
        let v = VehiGan::new(vec![member(0, 3, &train)], 1).unwrap();
        assert_eq!(
            v.score_with_members_int8(&[0], &train).unwrap_err(),
            EnsembleError::Int8NotCompiled
        );
    }

    #[test]
    fn mixed_depth_members_score_what_each_scores_alone() {
        let (v, train) = compiled_ensemble();
        let backend = v.int8_backend().unwrap();
        assert_eq!(backend.members(), 3);
        assert!(backend.weight_bytes() > 0);
        let text = format!("{backend:?}");
        assert!(text.contains("3 members"), "{text}");
        // A member's calibration and walk depend on that member alone:
        // compiled on its own it scores the same bits, whatever depths
        // sit beside it in the backend and share its workers' scratch.
        let x = Tensor::from_vec(mixed_windows(9, true), &[9, 10, 12, 1]);
        for (i, (seed, layers)) in [(0, 3), (1, 4), (2, 3)].into_iter().enumerate() {
            let mut alone = VehiGan::new(vec![member(seed, layers, &train)], 1).unwrap();
            alone.compile_int8(&train).unwrap();
            let want = alone.score_with_members_int8(&[0], &x).unwrap();
            let got = v.score_with_members_int8(&[i], &x).unwrap();
            assert_eq!(got.threshold, want.threshold);
            for (a, b) in got.scores.iter().zip(&want.scores) {
                assert_eq!(a.to_bits(), b.to_bits(), "member {i}");
            }
        }
    }

    #[test]
    fn int8_scores_track_the_float_path() {
        let (v, _train) = compiled_ensemble();
        let x = benign(24, 3);
        let all = [0usize, 1, 2];
        let f32_path = v.score_with_members(&all, &x).unwrap();
        let int8_path = v.score_with_members_int8(&all, &x).unwrap();
        assert_eq!(int8_path.members, f32_path.members);
        assert_eq!(int8_path.threshold, f32_path.threshold);
        assert!(int8_path.dropped.is_empty());
        // Same scale-invariant agreement bound as the lite crate: errors
        // small against the score spread of the batch.
        let lo = f32_path
            .scores
            .iter()
            .cloned()
            .fold(f32::INFINITY, f32::min);
        let hi = f32_path
            .scores
            .iter()
            .cloned()
            .fold(f32::NEG_INFINITY, f32::max);
        let tol = 0.05 * (hi - lo).max(1e-3);
        for (a, b) in int8_path.scores.iter().zip(&f32_path.scores) {
            assert!((a - b).abs() <= tol, "int8 {a} vs f32 {b} (tol {tol})");
        }
    }

    #[test]
    fn subset_scoring_spans_depths() {
        let (v, _train) = compiled_ensemble();
        let x = benign(6, 5);
        // Members 1 (depth 4) and 2 (depth 3) differ in depth; the
        // reduction must still follow `indices` order.
        let mixed = v.score_with_members_int8(&[1, 2], &x).unwrap();
        assert_eq!(mixed.members, vec![1, 2]);
        let single = v.score_with_members_int8(&[2], &x).unwrap();
        let other = v.score_with_members_int8(&[1], &x).unwrap();
        for i in 0..6 {
            let mean = (single.scores[i] + other.scores[i]) / 2.0;
            assert!((mixed.scores[i] - mean).abs() < 1e-6);
        }
    }

    #[test]
    fn int8_scoring_is_bitwise_deterministic() {
        let (v, _train) = compiled_ensemble();
        let x = benign(8, 9);
        let a = v.score_with_members_int8(&[0, 1, 2], &x).unwrap();
        let b = v.score_with_members_int8(&[0, 1, 2], &x).unwrap();
        assert_eq!(
            a.scores.iter().map(|s| s.to_bits()).collect::<Vec<_>>(),
            b.scores.iter().map(|s| s.to_bits()).collect::<Vec<_>>()
        );
    }

    /// `n` windows cycling through in-range, range-guard-tripping,
    /// all-zero and (with `nan`) NaN-bearing ones.
    fn mixed_windows(n: usize, nan: bool) -> Vec<f32> {
        let mut windows = benign(n, 17).as_slice().to_vec();
        for (i, w) in windows.chunks_exact_mut(120).enumerate() {
            match i % 4 {
                1 => w.iter_mut().for_each(|v| *v *= 40.0),
                2 => w.fill(0.0),
                3 if nan => w[60] = f32::NAN,
                _ => {}
            }
        }
        windows
    }

    /// The windows of `floats`, each cut into two pieces after a row that
    /// moves from window to window (none, some, all).
    fn cut(floats: &[f32]) -> Vec<vehigan_tensor::Pieces<'_>> {
        floats
            .chunks_exact(120)
            .enumerate()
            .map(|(i, w)| {
                let (older, newer) = w.split_at(i * 7 % 11 * 12);
                [older, newer]
            })
            .collect()
    }

    #[test]
    fn scores_are_bitwise_independent_of_worker_count_and_pieces() {
        type Forked = fn(
            &VehiGan,
            &[usize],
            &[vehigan_tensor::Pieces<'_>],
            &mut [f32],
            usize,
        ) -> Result<ScoreSummary, EnsembleError>;
        let (v, _train) = compiled_ensemble();
        let subset = [2usize, 0, 1];
        // The float path turns a NaN input into NaN scores from every
        // member; the int8 quantizer maps it to 0 and scores on.
        let backends: [(&str, Forked, bool); 2] = [
            (
                "int8",
                |v, s, w, o, k| v.score_int8_forked(s, w, o, k),
                true,
            ),
            ("f32", |v, s, w, o, k| v.score_f32_forked(s, w, o, k), false),
        ];
        for (name, forked, nan) in backends {
            for n in [1usize, 7, 37, 128] {
                let windows = mixed_windows(n, nan);
                let whole: Vec<_> = windows.chunks_exact(120).map(|w| [w, &[][..]]).collect();
                let run = |windows: &[vehigan_tensor::Pieces<'_>], workers: usize| {
                    let mut out = vec![0.0f32; n];
                    let summary = forked(&v, &subset, windows, &mut out, workers).unwrap();
                    let bits: Vec<u32> = out.iter().map(|s| s.to_bits()).collect();
                    (bits, summary.threshold.to_bits(), summary.dropped)
                };
                let serial = run(&whole, 1);
                assert!(serial.2.is_empty());
                for workers in [1usize, 2, 3, 8] {
                    assert_eq!(
                        run(&whole, workers),
                        serial,
                        "{name}, n = {n}, {workers} workers"
                    );
                    assert_eq!(
                        run(&cut(&windows), workers),
                        serial,
                        "{name}, n = {n}, {workers} workers, in two pieces"
                    );
                }
            }
        }
        // Every member failing is the same typed error however it is split.
        let windows = mixed_windows(8, true);
        for workers in [1usize, 2, 8] {
            let mut out = vec![0.0f32; 8];
            assert_eq!(
                v.score_f32_forked(&subset, &cut(&windows)[..], &mut out, workers),
                Err(EnsembleError::AllMembersFailed {
                    attempted: subset.to_vec()
                })
            );
        }
    }

    /// How [`walk`] fails a member inside the ensemble walk.
    #[derive(Debug, Clone, Copy)]
    enum Failure {
        /// Every task of the member panics.
        Panic,
        /// Every task of the member writes a NaN over its first score.
        Nan,
    }

    /// Score bits, τ bits and dropped members of one walk.
    type Walked = (Vec<u32>, u32, Vec<usize>);

    /// One [`VehiGan::score_forked`] call on `workers` threads with the
    /// int8 or the f32 backend's own scoring, in which the `failing`
    /// members fail as `how` through the walk's `score` closure.
    fn walk(
        v: &VehiGan,
        int8: bool,
        subset: &[usize],
        windows: &vehigan_tensor::Flat<'_>,
        workers: usize,
        (failing, how): (&[usize], Failure),
    ) -> Result<Walked, EnsembleError> {
        let fail = |member: usize, scores: &mut [f32]| {
            if failing.contains(&member) {
                match how {
                    Failure::Panic => panic!("member {member} fails"),
                    Failure::Nan => scores[0] = f32::NAN,
                }
            }
        };
        let mut out = vec![0.0f32; windows.count()];
        let summary = if int8 {
            let backend = v.int8_backend().unwrap();
            let fit = || new_worker(&backend.critics);
            let mut state = ForkState::new(CHUNK_ROWS, fit);
            state.grow_to(workers, fit);
            v.score_forked(&mut state, workers, subset, &mut out, |s, m, rows, out| {
                backend.critics[m].score_into(s, windows.pieces(rows), out);
                fail(m, out);
            })
        } else {
            let fit = || {
                let mut scratch = vehigan_tensor::CriticScratch::new();
                v.members()
                    .iter()
                    .for_each(|m| m.wgan.fit_scratch(&mut scratch));
                scratch
            };
            let mut state = ForkState::new(vehigan_tensor::HEAD_ROWS, fit);
            state.grow_to(workers, fit);
            v.score_forked(&mut state, workers, subset, &mut out, |s, m, rows, out| {
                v.members()[m].wgan.score_with(s, windows.pieces(rows), out);
                fail(m, out);
            })
        }?;
        let bits = out.iter().map(|s| s.to_bits()).collect();
        Ok((bits, summary.threshold.to_bits(), summary.dropped))
    }

    #[test]
    fn a_member_failing_inside_the_walk_scores_like_the_subset_without_it() {
        // The serve plane's test-only member poisoning leaves a poisoned
        // member out of the subset and reports it dropped; this is the
        // equivalence that makes it faithful, for both backends, both
        // ways a member really fails, and any worker count.
        let (v, _train) = compiled_ensemble();
        let subset = [2usize, 0, 1];
        for (int8, how) in [
            (true, Failure::Panic),
            (true, Failure::Nan),
            (false, Failure::Panic),
            (false, Failure::Nan),
        ] {
            for n in [1usize, 7, 37, 128] {
                // NaN inputs fail every float member; the int8 quantizer
                // maps them to 0 and scores on.
                let windows = mixed_windows(n, int8);
                let batch = &vehigan_tensor::Flat::new(&windows, 120);
                for &m in &subset {
                    let rest: Vec<usize> = subset.iter().copied().filter(|&i| i != m).collect();
                    let (bits, tau, dropped) = walk(&v, int8, &rest, batch, 1, (&[], how)).unwrap();
                    assert!(dropped.is_empty());
                    let want = (bits, tau, vec![m]);
                    for workers in [1usize, 2, 3, 8] {
                        let got = walk(&v, int8, &subset, batch, workers, (&[m], how));
                        assert_eq!(
                            got.as_ref(),
                            Ok(&want),
                            "int8 = {int8}, {how:?}, n = {n}, member {m}, {workers} workers"
                        );
                    }
                }
                for workers in [1usize, 2, 3, 8] {
                    assert_eq!(
                        walk(&v, int8, &subset, batch, workers, (&subset, how)),
                        Err(EnsembleError::AllMembersFailed {
                            attempted: subset.to_vec()
                        }),
                        "int8 = {int8}, {how:?}, n = {n}, {workers} workers"
                    );
                }
            }
        }
    }

    #[test]
    fn faulty_float_members_are_dropped_alike_for_any_worker_count() {
        // A member whose weights went NaN, and one that panics (its critic
        // is built for other windows), are confined to themselves — the
        // same way however the rows are split.
        let train = benign(96, 0);
        let other_shape = WganConfig {
            window: 8,
            layers: 3,
            ..WganConfig::default()
        };
        let members = vec![
            member(0, 3, &train),
            member(1, 4, &train),
            CriticMember {
                id: "other-shape".into(),
                wgan: Wgan::new(other_shape),
                threshold: 0.0,
                ads: 0.0,
            },
            member(2, 3, &train),
        ];
        let mut faulty = VehiGan::new(members, 2).unwrap();
        let weights = faulty.members_mut()[1].wgan.critic_mut();
        weights.params_mut()[0].value.as_mut_slice()[0] = f32::NAN;
        for n in [1usize, 7, 37, 128] {
            let windows = mixed_windows(n, false);
            let run = |workers: usize| {
                let mut out = vec![0.0f32; n];
                let summary = faulty
                    .score_f32_forked(&[3, 2, 1, 0], &cut(&windows)[..], &mut out, workers)
                    .unwrap();
                let bits: Vec<u32> = out.iter().map(|s| s.to_bits()).collect();
                (bits, summary.threshold.to_bits(), summary.dropped)
            };
            let serial = run(1);
            assert_eq!(serial.2, vec![2, 1]);
            for workers in [2usize, 3, 8] {
                assert_eq!(run(workers), serial, "n = {n}, {workers} workers");
            }
        }
    }

    #[test]
    fn bad_subsets_are_typed_errors() {
        let (v, _train) = compiled_ensemble();
        let x = benign(2, 13);
        assert_eq!(
            v.score_with_members_int8(&[], &x).unwrap_err(),
            EnsembleError::EmptySubset
        );
        assert_eq!(
            v.score_with_members_int8(&[7], &x).unwrap_err(),
            EnsembleError::MemberOutOfBounds { index: 7, m: 3 }
        );
        assert_eq!(
            v.score_with_members_int8(&[2, 1, 2], &x).unwrap_err(),
            EnsembleError::DuplicateMember { index: 2 }
        );
    }
}
