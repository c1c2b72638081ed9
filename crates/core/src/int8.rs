//! Int8 ensemble scoring backend for [`VehiGan`].
//!
//! [`VehiGan::compile_int8`] snapshots every member's trained critic into
//! [`vehigan_lite::Int8Ensemble`] fused scorers — one per critic
//! *topology group*, since zoo members differ only in depth — and
//! [`VehiGan::score_with_members_int8`] then runs each deployed subset
//! through one fused i8 GEMM per layer instead of `k` separate float
//! model walks.
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

use crate::ensemble::{EnsembleError, EnsembleScore, ScoreSummary, VehiGan};
use parking_lot::Mutex;
use vehigan_lite::Int8Ensemble;
use vehigan_tensor::Tensor;

/// Structural topology key of one critic: per-layer `(kind, usize_attrs)`,
/// weights excluded. Members with equal keys fuse into one scorer.
type TopologyKey = Vec<(String, Vec<(String, usize)>)>;

/// Compiled int8 scorers for a [`VehiGan`]'s members, grouped by critic
/// topology.
pub struct Int8Backend {
    /// The fused scorers and the per-call buffers, behind one lock: a
    /// scoring call needs every scorer's scratch mutably anyway.
    state: Mutex<State>,
    /// `member index → (group, local index within the group)`.
    member_map: Vec<(usize, usize)>,
    /// Flat snapshot length each scorer expects.
    input_len: usize,
}

/// The mutable half of [`Int8Backend`]. The three vectors are reused by
/// every scoring call, so a warm backend allocates nothing.
struct State {
    /// One fused scorer per topology group.
    groups: Vec<Int8Ensemble>,
    /// Group-local member indices of the subset being scored, group by
    /// group.
    locals: Vec<usize>,
    /// `rows[pos]`: which `n`-float row of `scores` holds the member at
    /// position `pos` of the caller's subset.
    rows: Vec<usize>,
    /// Member scores of the current call, grouped like `locals`.
    scores: Vec<f32>,
}

impl std::fmt::Debug for Int8Backend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Int8Backend({} members in {} topology groups, {} packed weight bytes)",
            self.member_map.len(),
            self.groups(),
            self.weight_bytes(),
        )
    }
}

impl Int8Backend {
    /// Number of compiled members.
    pub fn members(&self) -> usize {
        self.member_map.len()
    }

    /// Number of distinct critic topologies.
    pub fn groups(&self) -> usize {
        self.state.lock().groups.len()
    }

    /// Total packed int8 weight bytes — the deployable artifact size,
    /// roughly 4× smaller than the float weights.
    pub fn weight_bytes(&self) -> usize {
        let state = self.state.lock();
        state.groups.iter().map(Int8Ensemble::weight_bytes).sum()
    }
}

impl State {
    /// Scores `indices` on a flat batch into `self.scores`, one fused
    /// call per topology group; `self.rows` maps each position of
    /// `indices` to its row, so the caller can reduce in `indices` order
    /// — the float path's order — whatever the grouping.
    fn score(
        &mut self,
        member_map: &[(usize, usize)],
        indices: &[usize],
        windows: &[f32],
        n: usize,
    ) {
        self.rows.clear();
        self.rows.resize(indices.len(), 0);
        self.scores.clear();
        self.scores.resize(indices.len() * n, 0.0);
        let mut first = 0;
        for (g, group) in self.groups.iter_mut().enumerate() {
            self.locals.clear();
            for (pos, &i) in indices.iter().enumerate() {
                let (member_group, local) = member_map[i];
                if member_group == g {
                    self.rows[pos] = first + self.locals.len();
                    self.locals.push(local);
                }
            }
            let end = first + self.locals.len();
            group.score_subset_into(
                &self.locals,
                windows,
                n,
                &mut self.scores[first * n..end * n],
            );
            first = end;
        }
    }
}

impl VehiGan {
    /// Compiles every member's critic into the fused int8 backend,
    /// calibrating activation scales on `calibration` (benign training
    /// windows `[n, w, f, 1]`; a few hundred are plenty).
    ///
    /// Members are grouped by critic topology (zoo members differ only in
    /// depth) and each group becomes one fused
    /// [`vehigan_lite::Int8Ensemble`].
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
        let input_len = shape[1] * shape[2] * shape[3];

        let snaps: Vec<_> = self
            .members()
            .iter()
            .map(|m| m.wgan.critic().save())
            .collect();

        // Group members by structural topology: layer kinds plus integer
        // hyperparameters (depth, channels, kernel) — weights excluded.
        let keys: Vec<TopologyKey> = snaps
            .iter()
            .map(|s| {
                s.layers
                    .iter()
                    .map(|l| (l.kind.clone(), l.usize_attrs.clone()))
                    .collect()
            })
            .collect();
        let mut group_keys: Vec<&TopologyKey> = Vec::new();
        let mut group_members: Vec<Vec<usize>> = Vec::new();
        let mut member_map = vec![(0usize, 0usize); snaps.len()];
        for (i, key) in keys.iter().enumerate() {
            let g = match group_keys.iter().position(|k| *k == key) {
                Some(g) => g,
                None => {
                    group_keys.push(key);
                    group_members.push(Vec::new());
                    group_keys.len() - 1
                }
            };
            member_map[i] = (g, group_members[g].len());
            group_members[g].push(i);
        }

        let mut groups = Vec::with_capacity(group_members.len());
        for members in &group_members {
            let refs: Vec<_> = members.iter().map(|&i| &snaps[i]).collect();
            let fused =
                Int8Ensemble::compile(&refs, input_shape, calibration.as_slice()).map_err(|e| {
                    EnsembleError::Int8Compile {
                        reason: e.to_string(),
                    }
                })?;
            groups.push(fused);
        }
        self.set_int8_backend(Int8Backend {
            state: Mutex::new(State {
                groups,
                locals: Vec::new(),
                rows: Vec::new(),
                scores: Vec::new(),
            }),
            member_map,
            input_len,
        });
        Ok(())
    }

    /// Scores snapshots through the int8 backend with an explicit member
    /// subset — the fused counterpart of [`VehiGan::score_with_members`],
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
        let n = x.shape()[0];
        let mut scores = vec![0.0f32; n];
        let summary = self.score_with_members_int8_into(indices, x.as_slice(), n, &mut scores)?;
        Ok(summary.into_score(indices, scores))
    }

    /// [`VehiGan::score_with_members_int8`] over borrowed memory: `n`
    /// flat windows in, `n` ensemble scores written to `out` — bitwise
    /// the scores the `Tensor` entry point returns. Nothing is copied or
    /// allocated on the way (once the backend's buffers have grown to the
    /// batch size; a dropped member or an error does allocate its index
    /// list), which is what the serve plane's per-tile gate calls need.
    ///
    /// # Errors
    ///
    /// Same as [`VehiGan::score_with_members_int8`].
    ///
    /// # Panics
    ///
    /// Panics if `windows` is not `n` compiled-length snapshots or `out`
    /// is not `n` long.
    pub fn score_with_members_int8_into(
        &self,
        indices: &[usize],
        windows: &[f32],
        n: usize,
        out: &mut [f32],
    ) -> Result<ScoreSummary, EnsembleError> {
        let backend = self.int8_backend().ok_or(EnsembleError::Int8NotCompiled)?;
        self.check_subset(indices)?;
        assert_eq!(
            windows.len(),
            n * backend.input_len,
            "{} floats are not {n} windows of the compiled input length {}",
            windows.len(),
            backend.input_len
        );
        let mut state = backend.state.lock();
        state.score(&backend.member_map, indices, windows, n);
        let state = &*state;
        let per_member = indices.iter().zip(&state.rows).map(|(&i, &row)| {
            let scores = &state.scores[row * n..(row + 1) * n];
            // A chaos-poisoned member ([`VehiGan::chaos_poison_member`])
            // counts as having scored NaN: it takes the same exit as a
            // member whose scores really came back non-finite.
            (!self.member_poisoned(i) && scores.iter().all(|v| v.is_finite())).then_some(scores)
        });
        self.reduce_member_scores(indices, per_member, out)
    }

    /// Scores snapshots through the int8 backend with a fresh random
    /// subset of `k` healthy members — the fused counterpart of
    /// [`VehiGan::score_batch`].
    ///
    /// # Errors
    ///
    /// Same as [`VehiGan::sample_subset`] and
    /// [`VehiGan::score_with_members_int8`].
    pub fn score_batch_int8(&mut self, x: &Tensor) -> Result<EnsembleScore, EnsembleError> {
        let indices = self.sample_subset()?;
        self.score_with_members_int8(&indices, x)
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
        CriticMember::calibrate(wgan, 0.9, train, 99.0).unwrap()
    }

    /// Mixed-depth ensemble (two topology groups) with the backend
    /// compiled, plus the benign training batch.
    fn compiled_ensemble() -> (VehiGan, Tensor) {
        let train = benign(96, 0);
        let members = vec![
            member(0, 3, &train),
            member(1, 4, &train),
            member(2, 3, &train),
        ];
        let mut v = VehiGan::new(members, 2, 7).unwrap();
        v.compile_int8(&train).unwrap();
        (v, train)
    }

    #[test]
    fn scoring_before_compile_is_a_typed_error() {
        let train = benign(96, 0);
        let v = VehiGan::new(vec![member(0, 3, &train)], 1, 7).unwrap();
        assert_eq!(
            v.score_with_members_int8(&[0], &train).unwrap_err(),
            EnsembleError::Int8NotCompiled
        );
    }

    #[test]
    fn members_group_by_topology() {
        let (v, _train) = compiled_ensemble();
        let backend = v.int8_backend().unwrap();
        assert_eq!(backend.members(), 3);
        assert_eq!(backend.groups(), 2, "depths 3/4 are two topology groups");
        assert!(backend.weight_bytes() > 0);
        let text = format!("{backend:?}");
        assert!(text.contains("2 topology groups"), "{text}");
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
    fn subset_scoring_spans_topology_groups() {
        let (v, _train) = compiled_ensemble();
        let x = benign(6, 5);
        // Members 1 (depth 4) and 2 (depth 3) live in different groups;
        // the reduction must still follow `indices` order.
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

    #[test]
    fn score_batch_int8_samples_random_subsets() {
        let (mut v, _train) = compiled_ensemble();
        let x = benign(4, 11);
        let subsets: Vec<Vec<usize>> = (0..10)
            .map(|_| v.score_batch_int8(&x).unwrap().members)
            .collect();
        for s in &subsets {
            assert_eq!(s.len(), 2);
        }
        assert!(subsets.iter().any(|s| s != &subsets[0]));
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
    }
}
