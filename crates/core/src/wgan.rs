//! A single Wasserstein GAN: generator 𝒢, critic 𝒟, and the training loop
//! (§II-A, §III-D).
//!
//! Architectures mirror the paper's Keras models: 2-D CNNs with 2×2
//! kernels and LeakyReLU; the generator projects noise to a half-size
//! spatial seed, upsamples 2×, and convolves down to a single-channel
//! `w × f` snapshot with `tanh` output; the critic stacks `same`-padding
//! convolutions and ends in an unbounded scalar (no sigmoid — Wasserstein
//! critics regress realism).
//!
//! Lipschitz enforcement is selectable ([`LipschitzMode`]): WGAN-GP via a
//! finite-difference gradient penalty (default — drives `‖∇ₓD‖ → 1` at
//! the data, the property that makes WGAN critics sharp anomaly scorers),
//! the original WGAN *weight clipping* (Arjovsky et al. 2017), or
//! *spectral normalization* of the weight matrices. DESIGN.md records the
//! finite-difference construction: exact WGAN-GP needs second-order
//! backprop, but the penalty's parameter gradient reduces to a
//! directional derivative computable with two extra first-order passes.

use crate::config::{LipschitzMode, WganConfig};
use crate::lock;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::sync::Mutex;
use vehigan_tensor::init::{randn, seeded_rng};
use vehigan_tensor::layers::{Activation, Conv2D, Dense, Flatten, Padding, Reshape, UpSample2D};
use vehigan_tensor::optim::{Optimizer, RmsProp};
use vehigan_tensor::serialize::{ModelFormatError, ModelSnapshot};
use vehigan_tensor::{CriticScratch, Flat, Init, Pieces, Sequential, Tensor, Windows};

/// Rollback state captured at every healthy epoch boundary (in-memory, so
/// no wire-format validation gets in the way of snapshotting).
struct WganSnapshot {
    generator: ModelSnapshot,
    critic: ModelSnapshot,
    history: Vec<TrainStats>,
}

/// What a divergence sentinel observed when it tripped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DivergenceReason {
    /// A mini-batch produced a non-finite critic mean (Wasserstein loss
    /// term) — the classic WGAN blow-up.
    NonFiniteLoss,
    /// A network parameter went NaN/Inf (gradient explosion surfaces here
    /// after the optimizer step applies the bad update).
    NonFiniteWeights,
}

impl std::fmt::Display for DivergenceReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DivergenceReason::NonFiniteLoss => write!(f, "non-finite Wasserstein loss"),
            DivergenceReason::NonFiniteWeights => write!(f, "non-finite network weights"),
        }
    }
}

/// Unrecoverable training failure surfaced by the divergence sentinels.
#[derive(Debug, Clone, PartialEq)]
pub enum TrainError {
    /// Training diverged and every rollback + reseeded retry in the budget
    /// diverged again. The model is left at its last healthy state.
    Diverged {
        /// Epoch (within this call) at which the final attempt tripped.
        epoch: usize,
        /// Total attempts made (initial try + retries).
        attempts: usize,
        /// What the sentinel observed.
        reason: DivergenceReason,
    },
    /// The model was already poisoned (non-finite weights) before training
    /// started — nothing to roll back to.
    PoisonedAtEntry {
        /// What the sentinel observed.
        reason: DivergenceReason,
    },
}

impl std::fmt::Display for TrainError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TrainError::Diverged {
                epoch,
                attempts,
                reason,
            } => write!(
                f,
                "training diverged at epoch {epoch} after {attempts} attempts ({reason})"
            ),
            TrainError::PoisonedAtEntry { reason } => {
                write!(f, "model poisoned before training started ({reason})")
            }
        }
    }
}

impl std::error::Error for TrainError {}

/// Rollback + reseeded-retry cycles a sentinel-guarded training call may
/// spend before giving up with [`TrainError::Diverged`] (total attempts =
/// `MAX_TRAIN_RETRIES + 1`).
pub(crate) const MAX_TRAIN_RETRIES: usize = 2;

/// Outcome of a sentinel-guarded training call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TrainReport {
    /// Epochs successfully trained by this call.
    pub epochs: usize,
    /// Whether the epoch observer stopped the call early (see
    /// [`Wgan::train_epochs_resumable`]). Always `false` for
    /// `Wgan::train_epochs_checked`.
    pub stopped: bool,
}

/// Mid-call training position carried between resumable calls: the
/// batch/noise RNG stream and the sentinel attempt counter as of the last
/// healthy epoch boundary. `None` once a call runs to completion, so the
/// next call reseeds fresh exactly like an uninterrupted sequence of
/// calls.
#[derive(Debug, Clone)]
struct TrainCursor {
    rng: rand::rngs::StdRng,
    attempt: usize,
}

/// Per-epoch training statistics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainStats {
    /// Epoch index (0-based).
    pub(crate) epoch: usize,
    /// Estimated Wasserstein distance `mean D(real) − mean D(fake)`.
    pub(crate) wasserstein: f32,
    /// Mean critic output on real samples.
    pub(crate) critic_real: f32,
    /// Mean critic output on fake samples.
    pub(crate) critic_fake: f32,
}

/// Negative slope of every LeakyReLU in the critic and the generator.
const LEAKY_ALPHA: f32 = 0.2;

/// Weight-clipping bound `c` of [`LipschitzMode::Clip`]: every critic
/// parameter is clamped to `[-c, c]` after each critic update.
const CLIP: f32 = 0.03;

/// Channel width of critic conv layer `i` (8 → 16 → 32, capped).
fn critic_channels(i: usize) -> usize {
    (8 << i).min(32)
}

/// Builds the critic 𝒟 for a configuration.
pub fn build_critic(config: &WganConfig, rng: &mut rand::rngs::StdRng) -> Sequential {
    config.validate();
    let n_convs = config.layers - 1;
    let mut critic = Sequential::new();
    let mut cin = 1;
    for i in 0..n_convs {
        let cout = critic_channels(i);
        critic.push(Conv2D::new(
            cin,
            cout,
            (2, 2),
            Padding::Same,
            Init::HeUniform,
            rng,
        ));
        critic.push(Activation::leaky_relu(LEAKY_ALPHA));
        cin = cout;
    }
    critic.push(Flatten::new());
    critic.push(Dense::new(
        config.window * config.features * cin,
        1,
        Init::XavierUniform,
        rng,
    ));
    critic
}

/// Builds the generator 𝒢 for a configuration.
pub(crate) fn build_generator(config: &WganConfig, rng: &mut rand::rngs::StdRng) -> Sequential {
    config.validate();
    let (h2, w2) = (config.window / 2, config.features / 2);
    let seed_channels = 16;
    let mut g = Sequential::new();
    g.push(Dense::new(
        config.noise_dim,
        h2 * w2 * seed_channels,
        Init::HeUniform,
        rng,
    ));
    g.push(Activation::leaky_relu(LEAKY_ALPHA));
    g.push(Reshape::new(&[h2, w2, seed_channels]));
    g.push(UpSample2D::new(2, 2));
    // layers − 2 intermediate convs, then the output conv.
    for _ in 0..config.layers.saturating_sub(2) {
        g.push(Conv2D::new(
            seed_channels,
            seed_channels,
            (2, 2),
            Padding::Same,
            Init::HeUniform,
            rng,
        ));
        g.push(Activation::leaky_relu(LEAKY_ALPHA));
    }
    let mut out_conv = Conv2D::new(
        seed_channels,
        1,
        (2, 2),
        Padding::Same,
        Init::XavierUniform,
        rng,
    );
    if config.g_output_gain != 1.0 {
        use vehigan_tensor::layer::Layer;
        for p in out_conv.params_mut() {
            p.value.scale_in_place(config.g_output_gain);
        }
    }
    g.push(out_conv);
    g.push(Activation::tanh());
    g
}

/// One Wasserstein GAN instance.
///
/// # Examples
///
/// ```
/// use vehigan_core::{Wgan, WganConfig};
/// use vehigan_tensor::Tensor;
///
/// let config = WganConfig { epochs: 1, batch_size: 16, layers: 3, ..WganConfig::default() };
/// let mut wgan = Wgan::new(config);
/// let benign = Tensor::zeros(&[64, 10, 12, 1]);
/// wgan.train(&benign);
/// let scores = wgan.score_batch(&benign);
/// assert_eq!(scores.len(), 64);
/// ```
pub struct Wgan {
    config: WganConfig,
    generator: Sequential,
    critic: Sequential,
    opt_g: RmsProp,
    opt_d: RmsProp,
    history: Vec<TrainStats>,
    /// Power-iteration vectors for spectral normalization, one per
    /// critic weight matrix (empty until first use).
    sn_state: Vec<Vec<f32>>,
    /// Planes of the fused scoring walk for this critic, built with it:
    /// `score_batch` works through `&self`, so they sit behind a mutex.
    /// Ensemble scoring brings each thread's own
    /// ([`Wgan::score_with`]) and never takes it.
    scratch: Mutex<CriticScratch>,
    /// Scheduled divergences of this crate's tests: `(attempt, epoch)`
    /// pairs at which a critic weight is poisoned (see
    /// `Wgan::inject_training_fault`).
    #[cfg(test)]
    fault_plan: Vec<(usize, usize)>,
    /// Mid-call resume position (set while a resumable call is in flight,
    /// cleared when it completes). Serialized into the training state so a
    /// killed call continues its exact RNG stream.
    cursor: Option<TrainCursor>,
}

impl std::fmt::Debug for Wgan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Wgan({}, G={} params, D={} params, {} epochs trained)",
            self.config.id(),
            self.generator.num_params(),
            self.critic.num_params(),
            self.history.len()
        )
    }
}

impl Wgan {
    /// Creates an untrained WGAN with freshly initialized networks.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see
    /// `WganConfig::validate`).
    pub fn new(config: WganConfig) -> Self {
        config.validate();
        let mut rng = seeded_rng(config.seed);
        let generator = build_generator(&config, &mut rng);
        let critic = build_critic(&config, &mut rng);
        let opt_g = RmsProp::new(config.learning_rate);
        let opt_d = RmsProp::new(config.learning_rate);
        let scratch = fitted_scratch(&config, &critic)
            .expect("build_critic stacks only what the scoring walk runs");
        Wgan {
            config,
            generator,
            critic,
            opt_g,
            opt_d,
            history: Vec::new(),
            sn_state: Vec::new(),
            scratch,
            #[cfg(test)]
            fault_plan: Vec::new(),
            cursor: None,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &WganConfig {
        &self.config
    }

    /// The training history (one entry per trained epoch).
    pub fn history(&self) -> &[TrainStats] {
        &self.history
    }

    /// Attaches a training history (used when materializing checkpoints
    /// of a shared training run).
    pub(crate) fn set_history(&mut self, history: Vec<TrainStats>) {
        self.history = history;
    }

    /// Immutable access to the critic.
    pub fn critic(&self) -> &Sequential {
        &self.critic
    }

    /// Mutable access to the critic (needed for forward passes and input
    /// gradients).
    pub fn critic_mut(&mut self) -> &mut Sequential {
        &mut self.critic
    }

    /// Trains for `config.epochs` epochs on benign snapshots `[n, w, f, 1]`.
    ///
    /// Per mini-batch the critic takes one step (real up, fake down, the
    /// configured Lipschitz enforcement applied); every `n_critic` batches
    /// the generator takes one adversarial step through the critic.
    ///
    /// # Panics
    ///
    /// Panics if `x` does not match the configured snapshot shape or holds
    /// fewer than one batch, or if training diverges beyond the retry
    /// budget (`Wgan::train_epochs_checked` is the non-panicking variant).
    pub fn train(&mut self, x: &Tensor) {
        if let Err(e) = self.train_epochs_checked(x, self.config.epochs) {
            panic!("WGAN training failed: {e}");
        }
    }

    /// Sentinel-guarded training: trains `epochs` epochs, watching every
    /// epoch for divergence (non-finite Wasserstein loss terms per batch,
    /// non-finite weights after the optimizer steps — exploding gradients
    /// surface as the latter).
    ///
    /// On a tripped sentinel the model **rolls back** to its last healthy
    /// end-of-epoch snapshot (optimizer state resets; the snapshot carries
    /// weights and history) and retries with a **derived reseed** of the
    /// batch/noise RNG, up to [`MAX_TRAIN_RETRIES`] times. A run that stays
    /// healthy consumes the RNG identically to the unguarded loop, so
    /// sentinel-guarded training is bitwise identical to historical
    /// behavior whenever no rollback fires.
    ///
    /// # Errors
    ///
    /// [`TrainError::Diverged`] when the retry budget is exhausted (the
    /// model is left at its last healthy state);
    /// [`TrainError::PoisonedAtEntry`] when the weights are already
    /// non-finite on entry.
    ///
    /// # Panics
    ///
    /// Panics if `x` does not match the configured snapshot shape or holds
    /// fewer than one batch (programmer error, not a runtime fault).
    pub(crate) fn train_epochs_checked(
        &mut self,
        x: &Tensor,
        epochs: usize,
    ) -> Result<TrainReport, TrainError> {
        self.train_epochs_resumable(x, epochs, |_| true)
    }

    /// Sentinel-guarded training with an epoch-boundary observer, the
    /// primitive behind mid-member checkpoint/resume.
    ///
    /// `on_epoch` runs after **every** healthy epoch (rolled-back epochs
    /// never reach it) with the model in a consistent, serializable state —
    /// the zoo uses it to persist an epoch-granular partial checkpoint.
    /// Returning `false` stops the call early with `stopped = true` in the
    /// report; the model keeps its mid-call `TrainCursor` so a later
    /// resumable call (on this instance, or on one rebuilt via
    /// `Wgan::resume_from_state`) continues the exact RNG stream, making
    /// stop-and-continue bitwise identical to running straight through.
    /// When the call completes normally the cursor is cleared, so the next
    /// training call reseeds fresh exactly as `Wgan::train_epochs_checked`
    /// always has.
    ///
    /// # Errors
    ///
    /// Same contract as `Wgan::train_epochs_checked`.
    ///
    /// # Panics
    ///
    /// Panics if `x` does not match the configured snapshot shape or holds
    /// fewer than one batch (programmer error, not a runtime fault).
    pub fn train_epochs_resumable(
        &mut self,
        x: &Tensor,
        epochs: usize,
        mut on_epoch: impl FnMut(&Wgan) -> bool,
    ) -> Result<TrainReport, TrainError> {
        assert_eq!(
            &x.shape()[1..],
            &[self.config.window, self.config.features, 1],
            "training data shape {:?} does not match config ({}, {}, 1)",
            x.shape(),
            self.config.window,
            self.config.features,
        );
        let n = x.shape()[0];
        let b = self.config.batch_size.min(n);
        assert!(n >= b && b > 0, "need at least one batch of data");
        if let Some(reason) = self.health_violation() {
            return Err(TrainError::PoisonedAtEntry { reason });
        }
        // A pending cursor (restored from a partial checkpoint, or left by
        // an observer-stopped call) continues the in-flight RNG stream;
        // otherwise seed fresh — identical to historical behavior.
        let (mut rng, mut attempt) = match self.cursor.take() {
            Some(c) => (c.rng, c.attempt),
            None => (
                rand::rngs::StdRng::seed_from_u64(self.config.seed ^ 0x7264),
                0usize,
            ),
        };
        let mut snapshot = self.state_snapshot();
        // The gradient penalty's second critic lives as long as this call.
        let mut twin: Option<Sequential> = None;
        let mut done = 0usize;
        let mut stopped = false;

        while done < epochs {
            // Each epoch shuffles the identity permutation, so the batch
            // order is a pure function of the RNG stream position —
            // Fisher–Yates draws the same number of values either way, and
            // a resumed call (which restores the stream via the cursor)
            // produces exactly the permutation the uninterrupted call
            // would have.
            let mut indices: Vec<usize> = (0..n).collect();
            indices.shuffle(&mut rng);
            let mut w_sum = 0.0f32;
            let mut real_sum = 0.0f32;
            let mut fake_sum = 0.0f32;
            let mut n_batches = 0usize;
            let mut violation: Option<DivergenceReason> = None;
            for (batch_idx, chunk) in indices.chunks(b).enumerate() {
                if chunk.len() < 2 {
                    continue;
                }
                let real = x.take(chunk);
                let stats = self.critic_step(&real, &mut twin, &mut rng);
                // Cheap per-batch sentinel: the critic means are the
                // Wasserstein loss terms; a blow-up shows here first.
                if !stats.0.is_finite() || !stats.1.is_finite() {
                    violation = Some(DivergenceReason::NonFiniteLoss);
                    break;
                }
                w_sum += stats.0 - stats.1;
                real_sum += stats.0;
                fake_sum += stats.1;
                n_batches += 1;
                if (batch_idx + 1) % self.config.n_critic == 0 {
                    self.generator_step(chunk.len(), &mut rng);
                }
            }
            #[cfg(test)]
            self.fire_training_fault(attempt, done);
            if violation.is_none() {
                violation = self.health_violation();
            }
            match violation {
                None => {
                    let epoch = self.history.len();
                    let nb = n_batches.max(1) as f32;
                    self.history.push(TrainStats {
                        epoch,
                        wasserstein: w_sum / nb,
                        critic_real: real_sum / nb,
                        critic_fake: fake_sum / nb,
                    });
                    done += 1;
                    snapshot = self.state_snapshot();
                    // Expose the mid-call position before the observer runs
                    // so a partial saved from inside it carries the cursor.
                    // On the final epoch the cursor is `None`: a resume
                    // lands exactly at the fresh-reseed boundary of the
                    // next training call.
                    self.cursor = (done < epochs).then(|| TrainCursor {
                        rng: rng.clone(),
                        attempt,
                    });
                    if !on_epoch(self) {
                        stopped = true;
                        break;
                    }
                }
                Some(reason) => {
                    attempt += 1;
                    self.restore_snapshot(&snapshot);
                    if attempt > MAX_TRAIN_RETRIES {
                        // A dead call leaves no continuation point.
                        self.cursor = None;
                        return Err(TrainError::Diverged {
                            epoch: done,
                            attempts: attempt,
                            reason,
                        });
                    }
                    rng = rand::rngs::StdRng::seed_from_u64(
                        self.config.seed
                            ^ 0x7264
                            ^ (attempt as u64).wrapping_mul(0xD1B5_4A32_D192_ED03),
                    );
                }
            }
        }
        if !stopped {
            self.cursor = None;
        }
        Ok(TrainReport {
            epochs: done,
            stopped,
        })
    }

    /// First sentinel violation visible in the current parameters, if any.
    fn health_violation(&self) -> Option<DivergenceReason> {
        let finite = |model: &Sequential| {
            model
                .params()
                .iter()
                .all(|p| p.value.as_slice().iter().all(|v| v.is_finite()))
        };
        if finite(&self.critic) && finite(&self.generator) {
            None
        } else {
            Some(DivergenceReason::NonFiniteWeights)
        }
    }

    /// Captures the state a rollback restores: both networks plus the
    /// training history. In-memory snapshots skip the wire format's
    /// finite-value validation, so a poisoned model can still be
    /// snapshotted/restored while the sentinel decides what to do.
    fn state_snapshot(&self) -> WganSnapshot {
        WganSnapshot {
            generator: self.generator.save(),
            critic: self.critic.save(),
            history: self.history.clone(),
        }
    }

    /// Rolls the model back to a snapshot. Optimizer moments and spectral
    /// power-iteration vectors reset — the retry starts from clean
    /// optimizer state, which is part of what breaks the divergent
    /// trajectory.
    fn restore_snapshot(&mut self, snap: &WganSnapshot) {
        self.generator =
            Sequential::from_snapshot(&snap.generator).expect("rollback snapshot is self-made");
        self.critic =
            Sequential::from_snapshot(&snap.critic).expect("rollback snapshot is self-made");
        self.history = snap.history.clone();
        self.opt_g = RmsProp::new(self.config.learning_rate);
        self.opt_d = RmsProp::new(self.config.learning_rate);
        self.sn_state = Vec::new();
    }

    /// Schedules a training fault for tests: on attempt `attempt` (0 = the
    /// first try), after epoch-offset `epoch` of a
    /// [`Wgan::train_epochs_checked`] call, one critic weight is poisoned
    /// with NaN — deterministically simulating a divergence so rollback and
    /// reseeded-retry paths can be exercised.
    #[cfg(test)]
    pub(crate) fn inject_training_fault(&mut self, attempt: usize, epoch: usize) {
        self.fault_plan.push((attempt, epoch));
    }

    /// Poisons one critic weight, as if this epoch's updates had exploded,
    /// when a fault is scheduled for `(attempt, epoch)`. One-shot: a
    /// consumed fault does not re-fire in later incremental training calls.
    #[cfg(test)]
    fn fire_training_fault(&mut self, attempt: usize, epoch: usize) {
        if let Some(pos) = self
            .fault_plan
            .iter()
            .position(|&(a, e)| a == attempt && e == epoch)
        {
            self.fault_plan.remove(pos);
            if let Some(p) = self.critic.params_mut().first_mut() {
                p.value.as_mut_slice()[0] = f32::NAN;
            }
        }
    }

    /// One critic update; returns `(mean D(real), mean D(fake))`. The
    /// passes stop at the first layer's parameters: nobody reads the
    /// gradient w.r.t. a training batch.
    fn critic_step(
        &mut self,
        real: &Tensor,
        twin: &mut Option<Sequential>,
        rng: &mut rand::rngs::StdRng,
    ) -> (f32, f32) {
        let bsz = real.shape()[0];
        let z = randn(&[bsz, self.config.noise_dim], rng);
        let fake = self.generator.forward(&z);
        self.critic.zero_grad();
        // Maximize mean D(real) − mean D(fake) ⇒ minimize the negative.
        let out_real = self.critic.forward(real);
        let g = Tensor::full(out_real.shape(), -1.0 / bsz as f32);
        self.critic.backward_params(&g);
        let out_fake = self.critic.forward(&fake);
        let g = Tensor::full(out_fake.shape(), 1.0 / bsz as f32);
        self.critic.backward_params(&g);
        if let LipschitzMode::GradientPenalty { lambda } = self.config.lipschitz {
            self.accumulate_gradient_penalty(real, &fake, lambda, twin, rng);
        }
        self.opt_d.step(&mut self.critic.params_mut());
        match self.config.lipschitz {
            LipschitzMode::Clip => self.critic.clip_weights(CLIP),
            LipschitzMode::Spectral => self.spectral_normalize(rng),
            LipschitzMode::GradientPenalty { .. } => {}
        }
        (out_real.mean(), out_fake.mean())
    }

    /// Accumulates the WGAN-GP parameter gradients
    /// `∇_θ λ·mean_i (‖∇ₓD(x̂ᵢ)‖ − 1)²` into the critic's gradient
    /// buffers.
    ///
    /// The second-order term is evaluated by a finite-difference
    /// directional derivative: with `vᵢ = ∇ₓD(x̂ᵢ)/‖·‖`,
    /// `∇_θ ‖∇ₓD(x̂ᵢ)‖ ≈ ∇_θ [D(x̂ᵢ + h·vᵢ) − D(x̂ᵢ)] / h`, which needs
    /// only first-order backprop.
    ///
    /// `x̂` runs forward once, on `twin` — a second critic holding this
    /// step's weights, built by the first penalty of a training call and
    /// dropped with the call. Its input-only backward gives `∇ₓD(x̂)`; the
    /// critic then takes the probe term; and the `x̂` term is a second,
    /// parameter backward over the forward the twin still caches, adding
    /// into the critic's own accumulators, lent to the twin for that
    /// pass. Equal weights make equal caches, so every `grad +=` has the
    /// operands and the order of a critic that ran `x̂` forward again
    /// after the probe.
    fn accumulate_gradient_penalty(
        &mut self,
        real: &Tensor,
        fake: &Tensor,
        lambda: f32,
        twin: &mut Option<Sequential>,
        rng: &mut rand::rngs::StdRng,
    ) {
        use rand::Rng;
        let bsz = real.shape()[0];
        let elems: usize = real.shape()[1..].iter().product();
        // Random interpolates x̂ = α·real + (1 − α)·fake, α ~ U(0, 1).
        let mut x_hat = real.clone();
        let rows = x_hat.as_mut_slice().chunks_exact_mut(elems);
        for (row, fake_row) in rows.zip(fake.as_slice().chunks_exact(elems)) {
            let alpha: f32 = rng.gen_range(0.0..1.0);
            for (x, &f) in row.iter_mut().zip(fake_row) {
                *x = alpha * *x + (1.0 - alpha) * f;
            }
        }
        // Built from the in-memory snapshot: the wire format rejects
        // non-finite weights, and mid-divergence batches must reach the
        // sentinel, not panic here.
        let twin = twin.get_or_insert_with(|| {
            Sequential::from_snapshot(&self.critic.save())
                .expect("critic twin for gradient penalty")
        });
        for (t, c) in twin.params_mut().into_iter().zip(self.critic.params()) {
            t.value.as_mut_slice().copy_from_slice(c.value.as_slice());
        }
        let out = twin.forward(&x_hat);
        let grad_x = twin.backward_input(&Tensor::ones(out.shape()));

        // ∇_θ GP ≈ Σᵢ (cᵢ/h)·[∇_θ D(x̂ᵢ + h·vᵢ) − ∇_θ D(x̂ᵢ)]: per sample
        // the norm nᵢ, the penalty coefficient cᵢ = 2λ(nᵢ−1)/b, and the
        // probe point x̂ᵢ + h·vᵢ (v = unit gradient direction), which
        // takes x̂'s place — x̂ is not read again.
        let h = 1e-3f32;
        let mut g_plus = Tensor::zeros(&[bsz, 1]);
        let mut g_minus = Tensor::zeros(&[bsz, 1]);
        let mut x_probe = x_hat;
        let rows = x_probe.as_mut_slice().chunks_exact_mut(elems);
        for (i, (xp, gx)) in rows.zip(grad_x.as_slice().chunks_exact(elems)).enumerate() {
            let n = gx.iter().map(|v| v * v).sum::<f32>().sqrt().max(1e-8);
            let c = 2.0 * lambda * (n - 1.0) / bsz as f32;
            g_plus.as_mut_slice()[i] = c / h;
            g_minus.as_mut_slice()[i] = -c / h;
            let inv = h / n;
            for (x, &g) in xp.iter_mut().zip(gx) {
                *x += g * inv;
            }
        }
        let _ = self.critic.forward(&x_probe);
        self.critic.backward_params(&g_plus);
        swap_grads(&mut self.critic, twin);
        twin.backward_params(&g_minus);
        swap_grads(&mut self.critic, twin);
    }

    /// Rescales every critic weight matrix to spectral norm ≤ 1 using one
    /// power-iteration step (the iteration vectors persist across steps,
    /// so the estimate sharpens as training proceeds).
    fn spectral_normalize(&mut self, rng: &mut rand::rngs::StdRng) {
        use rand::Rng;
        let mut params = self.critic.params_mut();
        // Lazily initialize one u vector per 2-D parameter.
        let n_mats = params.iter().filter(|p| p.value.ndim() == 2).count();
        if self.sn_state.len() != n_mats {
            self.sn_state = params
                .iter()
                .filter(|p| p.value.ndim() == 2)
                .map(|p| {
                    let rows = p.value.shape()[0];
                    (0..rows).map(|_| rng.gen_range(-1.0f32..1.0)).collect()
                })
                .collect();
        }
        let mut mat_idx = 0;
        for p in params.iter_mut() {
            if p.value.ndim() != 2 {
                continue;
            }
            let (rows, cols) = (p.value.shape()[0], p.value.shape()[1]);
            let w = p.value.as_mut_slice();
            let u = &mut self.sn_state[mat_idx];
            mat_idx += 1;
            // v = normalize(Wᵀ u)
            let mut v = vec![0.0f32; cols];
            for r in 0..rows {
                let ur = u[r];
                if ur == 0.0 {
                    continue;
                }
                for c in 0..cols {
                    v[c] += w[r * cols + c] * ur;
                }
            }
            let vn = v.iter().map(|x| x * x).sum::<f32>().sqrt().max(1e-12);
            for x in &mut v {
                *x /= vn;
            }
            // u' = normalize(W v); σ = ‖W v‖
            let mut wu = vec![0.0f32; rows];
            for r in 0..rows {
                let mut acc = 0.0;
                for c in 0..cols {
                    acc += w[r * cols + c] * v[c];
                }
                wu[r] = acc;
            }
            let sigma = wu.iter().map(|x| x * x).sum::<f32>().sqrt().max(1e-12);
            for (ur, &x) in u.iter_mut().zip(&wu) {
                *ur = x / sigma;
            }
            // Only shrink: enforcing σ ≤ 1 rather than σ = 1 keeps
            // low-energy layers expressive.
            if sigma > 1.0 {
                let inv = 1.0 / sigma;
                for x in w.iter_mut() {
                    *x *= inv;
                }
            }
        }
    }

    /// One generator update through the critic, which only hands its
    /// input gradient on: its own accumulators are not touched.
    fn generator_step(&mut self, bsz: usize, rng: &mut rand::rngs::StdRng) {
        let z = randn(&[bsz, self.config.noise_dim], rng);
        let fake = self.generator.forward(&z);
        let out = self.critic.forward(&fake);
        // Maximize mean D(fake) ⇒ grad −1/b into the critic, then chain
        // into the generator via the critic's input gradient.
        let g = Tensor::full(out.shape(), -1.0 / bsz as f32);
        let grad_fake = self.critic.backward_input(&g);
        self.generator.zero_grad();
        self.generator.backward_params(&grad_fake);
        self.opt_g.step(&mut self.generator.params_mut());
    }

    /// Anomaly scores `s(x) = −D(x)` for snapshots `[n, w, f, 1]` (Eq. 5).
    ///
    /// Scoring is read-only: it runs the critic through
    /// [`Sequential::score_fused`] — bitwise what `forward` computes, on
    /// planes built with the model — so it needs only `&self` and
    /// allocates nothing beyond the returned `Vec` (use
    /// `Wgan::score_into` to avoid even that).
    pub fn score_batch(&self, x: &Tensor) -> Vec<f32> {
        let mut scores = vec![0.0f32; x.shape()[0]];
        self.score_into(x, &mut scores);
        scores
    }

    /// Zero-allocation scoring primitive: writes `s(x) = −D(x)` for each
    /// snapshot into `out`.
    ///
    /// # Panics
    ///
    /// Panics if `out.len()` differs from the batch size.
    pub(crate) fn score_into(&self, x: &Tensor, out: &mut [f32]) {
        assert_eq!(out.len(), x.shape()[0], "score_into output length mismatch");
        self.score_slice_into(x.as_slice(), out);
    }

    /// `Wgan::score_into` over borrowed memory: `windows` holds
    /// `out.len()` flat `window × features` snapshots.
    ///
    /// # Panics
    ///
    /// Panics if `windows` is not `out.len()` snapshots of the configured
    /// shape.
    pub fn score_slice_into(&self, windows: &[f32], out: &mut [f32]) {
        let windows = Flat::new(windows, self.config.window * self.config.features);
        let all = windows.pieces(0..windows.count());
        self.score_with(&mut lock(&self.scratch), all, out);
    }

    /// [`Wgan::score_slice_into`] over windows read where they lie, each
    /// as two [`Pieces`], on the caller's scratch — so any number of
    /// threads can score through one `&Wgan` at once.
    pub(crate) fn score_with<'w>(
        &self,
        scratch: &mut CriticScratch,
        windows: impl IntoIterator<Item = Pieces<'w>, IntoIter: ExactSizeIterator>,
        out: &mut [f32],
    ) {
        self.critic
            .score_fused(scratch, snapshot_shape(&self.config), windows, out);
        for s in out {
            *s = -*s;
        }
    }

    /// Grows `scratch` to what scoring this critic needs.
    pub(crate) fn fit_scratch(&self, scratch: &mut CriticScratch) {
        // A critic restructured through `critic_mut` fails when scored.
        let _ = scratch.fit(&self.critic, snapshot_shape(&self.config));
    }

    /// Serializes the critic (all a deployment needs) to bytes.
    pub fn critic_bytes(&self) -> Vec<u8> {
        self.critic.to_bytes()
    }

    /// Restores a critic-only WGAN for inference from serialized bytes.
    ///
    /// The generator is rebuilt untrained (scoring never touches it).
    ///
    /// # Errors
    ///
    /// Returns an error if the bytes are not a valid model file, or the
    /// model is not a critic the scoring walk runs on `config`'s windows
    /// ([`ModelFormatError::NotACritic`]).
    pub fn from_critic_bytes(config: WganConfig, bytes: &[u8]) -> Result<Self, ModelFormatError> {
        let critic = Sequential::from_bytes(bytes)?;
        let scratch = fitted_scratch(&config, &critic)?;
        let mut rng = seeded_rng(config.seed);
        let generator = build_generator(&config, &mut rng);
        Ok(Wgan {
            opt_g: RmsProp::new(config.learning_rate),
            opt_d: RmsProp::new(config.learning_rate),
            config,
            generator,
            critic,
            history: Vec::new(),
            sn_state: Vec::new(),
            scratch,
            #[cfg(test)]
            fault_plan: Vec::new(),
            cursor: None,
        })
    }

    /// Serializes everything training needs beyond the critic: generator
    /// weights, both RMSProp caches, spectral-norm power-iteration vectors,
    /// and (if a resumable call is in flight) the mid-call RNG/attempt
    /// cursor. Together with [`Wgan::critic_bytes`] and the history, this
    /// is the complete training state — restoring it via
    /// `Wgan::resume_from_state` and continuing is bitwise identical to
    /// never having stopped.
    ///
    /// Layout (all little-endian): `u32` state version; `u64`-prefixed
    /// generator model blob; `u64`-prefixed RMSProp state blob for the
    /// generator optimizer, then the critic optimizer; `u32` spectral
    /// vector count, each vector a `u32` length plus raw `f32`s; one
    /// cursor-presence byte, followed (when 1) by the 4×`u64` xoshiro256++
    /// state and a `u64` attempt counter.
    pub fn training_state_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&TRAINING_STATE_VERSION.to_le_bytes());
        let gen = self.generator.to_bytes();
        out.extend_from_slice(&(gen.len() as u64).to_le_bytes());
        out.extend_from_slice(&gen);
        for blob in [self.opt_g.state_bytes(), self.opt_d.state_bytes()] {
            out.extend_from_slice(&(blob.len() as u64).to_le_bytes());
            out.extend_from_slice(&blob);
        }
        out.extend_from_slice(&(self.sn_state.len() as u32).to_le_bytes());
        for v in &self.sn_state {
            out.extend_from_slice(&(v.len() as u32).to_le_bytes());
            for &x in v {
                out.extend_from_slice(&x.to_le_bytes());
            }
        }
        match &self.cursor {
            None => out.push(0),
            Some(c) => {
                out.push(1);
                for w in c.rng.state() {
                    out.extend_from_slice(&w.to_le_bytes());
                }
                out.extend_from_slice(&(c.attempt as u64).to_le_bytes());
            }
        }
        out
    }

    /// Rebuilds a fully trainable WGAN from a critic blob plus the
    /// training state written by [`Wgan::training_state_bytes`].
    ///
    /// Unlike [`Wgan::from_critic_bytes`] (inference-only: untrained
    /// generator, fresh optimizers), the restored instance continues
    /// training exactly where the serialized one stopped. The history is
    /// not part of the state — attach it separately as the checkpoint
    /// layer does.
    ///
    /// # Errors
    ///
    /// Any malformed, truncated, or trailing bytes, and optimizer caches
    /// whose tensor shapes do not match the restored networks, surface as
    /// [`ModelFormatError`].
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see
    /// [`WganConfig::validate`]).
    pub(crate) fn resume_from_state(
        config: WganConfig,
        critic_bytes: &[u8],
        state: &[u8],
    ) -> Result<Self, ModelFormatError> {
        config.validate();
        let critic = Sequential::from_bytes(critic_bytes)?;
        let mut r = state;
        if ts_read_u32(&mut r)? != TRAINING_STATE_VERSION {
            return Err(ModelFormatError::Corrupt("unknown training-state version"));
        }
        let gen_len = ts_read_u64(&mut r)? as usize;
        let generator = Sequential::from_bytes(ts_read_slice(&mut r, gen_len)?)?;
        let mut opt_g = RmsProp::new(config.learning_rate);
        let og_len = ts_read_u64(&mut r)? as usize;
        opt_g.restore_state(ts_read_slice(&mut r, og_len)?)?;
        let mut opt_d = RmsProp::new(config.learning_rate);
        let od_len = ts_read_u64(&mut r)? as usize;
        opt_d.restore_state(ts_read_slice(&mut r, od_len)?)?;
        let n_vecs = ts_read_u32(&mut r)? as usize;
        if n_vecs > 1 << 10 {
            return Err(ModelFormatError::Corrupt("too many spectral vectors"));
        }
        let mut sn_state = Vec::with_capacity(n_vecs);
        for _ in 0..n_vecs {
            let len = ts_read_u32(&mut r)? as usize;
            if len > 1 << 20 {
                return Err(ModelFormatError::Corrupt("spectral vector too long"));
            }
            let raw = ts_read_slice(&mut r, len * 4)?;
            let mut v = Vec::with_capacity(len);
            for chunk in raw.chunks_exact(4) {
                let x = f32::from_le_bytes(chunk.try_into().expect("chunk of 4"));
                if !x.is_finite() {
                    return Err(ModelFormatError::Corrupt("non-finite spectral state"));
                }
                v.push(x);
            }
            sn_state.push(v);
        }
        let cursor = match ts_read_slice(&mut r, 1)?[0] {
            0 => None,
            1 => {
                let mut s = [0u64; 4];
                for w in &mut s {
                    *w = ts_read_u64(&mut r)?;
                }
                let attempt = ts_read_u64(&mut r)? as usize;
                Some(TrainCursor {
                    rng: rand::rngs::StdRng::from_state(s),
                    attempt,
                })
            }
            _ => return Err(ModelFormatError::Corrupt("bad cursor flag")),
        };
        if !r.is_empty() {
            return Err(ModelFormatError::Corrupt("trailing training-state bytes"));
        }
        // A deserialized cache must drive the network it was saved with:
        // a count/shape mismatch would silently zip caches onto the wrong
        // parameters on the next step. Empty caches (never-stepped
        // optimizers) are valid.
        ts_check_cache(
            &opt_g,
            &generator,
            "generator optimizer cache shape mismatch",
        )?;
        ts_check_cache(&opt_d, &critic, "critic optimizer cache shape mismatch")?;
        let scratch = fitted_scratch(&config, &critic)?;
        Ok(Wgan {
            opt_g,
            opt_d,
            config,
            generator,
            critic,
            history: Vec::new(),
            sn_state,
            scratch,
            #[cfg(test)]
            fault_plan: Vec::new(),
            cursor,
        })
    }
}

/// Exchanges the gradient accumulators of two models of one architecture.
fn swap_grads(a: &mut Sequential, b: &mut Sequential) {
    for (p, q) in a.params_mut().into_iter().zip(b.params_mut()) {
        std::mem::swap(&mut p.grad, &mut q.grad);
    }
}

/// The scoring planes for `critic` on `config`'s windows — or why the
/// fused walk cannot run it.
fn fitted_scratch(
    config: &WganConfig,
    critic: &Sequential,
) -> Result<Mutex<CriticScratch>, ModelFormatError> {
    let mut scratch = CriticScratch::new();
    scratch.fit(critic, snapshot_shape(config))?;
    Ok(Mutex::new(scratch))
}

/// The `[h, w, c]` of one snapshot: `window × features`, one channel.
fn snapshot_shape(config: &WganConfig) -> (usize, usize, usize) {
    (config.window, config.features, 1)
}

/// Version tag of the [`Wgan::training_state_bytes`] encoding (independent
/// of the checkpoint container version).
const TRAINING_STATE_VERSION: u32 = 1;

fn ts_read_slice<'a>(r: &mut &'a [u8], n: usize) -> Result<&'a [u8], ModelFormatError> {
    if r.len() < n {
        return Err(ModelFormatError::Corrupt("training state truncated"));
    }
    let (head, tail) = r.split_at(n);
    *r = tail;
    Ok(head)
}

fn ts_read_u32(r: &mut &[u8]) -> Result<u32, ModelFormatError> {
    Ok(u32::from_le_bytes(
        ts_read_slice(r, 4)?.try_into().expect("slice of 4"),
    ))
}

fn ts_read_u64(r: &mut &[u8]) -> Result<u64, ModelFormatError> {
    Ok(u64::from_le_bytes(
        ts_read_slice(r, 8)?.try_into().expect("slice of 8"),
    ))
}

fn ts_check_cache(
    opt: &RmsProp,
    model: &Sequential,
    what: &'static str,
) -> Result<(), ModelFormatError> {
    let shapes = opt.cache_shapes();
    if shapes.is_empty() {
        return Ok(());
    }
    let params = model.params();
    if shapes.len() != params.len()
        || shapes
            .iter()
            .zip(&params)
            .any(|(s, p)| s.as_slice() != p.value.shape())
    {
        return Err(ModelFormatError::Corrupt(what));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use vehigan_tensor::init::rand_uniform;

    impl Wgan {
        /// Generates `n` fake snapshots from fresh noise.
        pub(crate) fn generate(&mut self, n: usize, rng: &mut rand::rngs::StdRng) -> Tensor {
            let z = randn(&[n, self.config.noise_dim], rng);
            self.generator.forward(&z)
        }
    }

    fn quick_config() -> WganConfig {
        WganConfig {
            noise_dim: 8,
            layers: 3,
            epochs: 2,
            batch_size: 32,
            n_critic: 2,
            ..WganConfig::default()
        }
    }

    /// Synthetic "benign" manifold: smooth low-amplitude snapshots.
    fn benign_snapshots(n: usize, seed: u64) -> Tensor {
        let mut rng = seeded_rng(seed);
        let base = rand_uniform(&[n, 1], -0.3, 0.3, &mut rng);
        let mut data = Vec::with_capacity(n * 120);
        for i in 0..n {
            let level = base.as_slice()[i];
            for j in 0..120 {
                data.push(level + 0.05 * ((j as f32) * 0.3).sin());
            }
        }
        Tensor::from_vec(data, &[n, 10, 12, 1])
    }

    /// The training steps as they stood before the passes learnt to skip
    /// what nobody reads — a critic cloned per penalty, `x̂` forward twice,
    /// full `backward` everywhere — kept verbatim as the oracle the
    /// steps above must match bit for bit.
    impl Wgan {
        /// One critic update; returns `(mean D(real), mean D(fake))`.
        fn critic_step_oracle(
            &mut self,
            real: &Tensor,
            rng: &mut rand::rngs::StdRng,
        ) -> (f32, f32) {
            let bsz = real.shape()[0];
            let z = randn(&[bsz, self.config.noise_dim], rng);
            let fake = self.generator.forward(&z);
            self.critic.zero_grad();
            // Maximize mean D(real) − mean D(fake) ⇒ minimize the negative.
            let out_real = self.critic.forward(real);
            let g = Tensor::full(out_real.shape(), -1.0 / bsz as f32);
            let _ = self.critic.backward(&g);
            let out_fake = self.critic.forward(&fake);
            let g = Tensor::full(out_fake.shape(), 1.0 / bsz as f32);
            let _ = self.critic.backward(&g);
            if let LipschitzMode::GradientPenalty { lambda } = self.config.lipschitz {
                self.accumulate_gradient_penalty_oracle(real, &fake, lambda, rng);
            }
            self.opt_d.step(&mut self.critic.params_mut());
            match self.config.lipschitz {
                LipschitzMode::Clip => self.critic.clip_weights(CLIP),
                LipschitzMode::Spectral => self.spectral_normalize(rng),
                LipschitzMode::GradientPenalty { .. } => {}
            }
            (out_real.mean(), out_fake.mean())
        }

        /// Accumulates the WGAN-GP parameter gradients
        /// `∇_θ λ·mean_i (‖∇ₓD(x̂ᵢ)‖ − 1)²` into the critic's gradient
        /// buffers.
        ///
        /// The second-order term is evaluated by a finite-difference
        /// directional derivative: with `vᵢ = ∇ₓD(x̂ᵢ)/‖·‖`,
        /// `∇_θ ‖∇ₓD(x̂ᵢ)‖ ≈ ∇_θ [D(x̂ᵢ + h·vᵢ) − D(x̂ᵢ)] / h`, which needs
        /// only first-order backprop.
        fn accumulate_gradient_penalty_oracle(
            &mut self,
            real: &Tensor,
            fake: &Tensor,
            lambda: f32,
            rng: &mut rand::rngs::StdRng,
        ) {
            use rand::Rng;
            let bsz = real.shape()[0];
            let elems: usize = real.shape()[1..].iter().product();
            // Random interpolates x̂ = α·real + (1 − α)·fake, α ~ U(0, 1).
            let mut x_hat = real.clone();
            {
                let xh = x_hat.as_mut_slice();
                let fk = fake.as_slice();
                for i in 0..bsz {
                    let alpha: f32 = rng.gen_range(0.0..1.0);
                    for j in 0..elems {
                        let idx = i * elems + j;
                        xh[idx] = alpha * xh[idx] + (1.0 - alpha) * fk[idx];
                    }
                }
            }
            // Input gradient per interpolate. This backward pollutes the
            // parameter-gradient buffers with ∇_θ ΣD(x̂), so run it on a
            // scratch clone of the critic. Cloned via the in-memory snapshot:
            // the wire format rejects non-finite weights, and mid-divergence
            // batches must reach the sentinel, not panic here.
            let mut scratch = Sequential::from_snapshot(&self.critic.save())
                .expect("critic clone for gradient penalty");
            let out = scratch.forward(&x_hat);
            let grad_x = scratch.backward(&Tensor::ones(out.shape()));

            // Per-sample norms nᵢ and penalty coefficients cᵢ = 2λ(nᵢ−1)/b.
            let gx = grad_x.as_slice();
            let mut coeffs = Vec::with_capacity(bsz);
            let mut norms = Vec::with_capacity(bsz);
            for i in 0..bsz {
                let row = &gx[i * elems..(i + 1) * elems];
                let n = row.iter().map(|v| v * v).sum::<f32>().sqrt().max(1e-8);
                norms.push(n);
                coeffs.push(2.0 * lambda * (n - 1.0) / bsz as f32);
            }
            // Probe points x̂ + h·v (v = unit gradient direction).
            let h = 1e-3f32;
            let mut x_probe = x_hat.clone();
            {
                let xp = x_probe.as_mut_slice();
                for (i, &norm) in norms.iter().enumerate() {
                    let inv = h / norm;
                    for j in 0..elems {
                        let idx = i * elems + j;
                        xp[idx] += gx[idx] * inv;
                    }
                }
            }
            // ∇_θ GP ≈ Σᵢ (cᵢ/h)·[∇_θ D(x̂ᵢ + h·vᵢ) − ∇_θ D(x̂ᵢ)].
            let mut g_plus = Tensor::zeros(&[bsz, 1]);
            let mut g_minus = Tensor::zeros(&[bsz, 1]);
            for (i, &c) in coeffs.iter().enumerate() {
                g_plus.as_mut_slice()[i] = c / h;
                g_minus.as_mut_slice()[i] = -c / h;
            }
            let _ = self.critic.forward(&x_probe);
            let _ = self.critic.backward(&g_plus);
            let _ = self.critic.forward(&x_hat);
            let _ = self.critic.backward(&g_minus);
        }

        /// One generator update through the critic.
        fn generator_step_oracle(&mut self, bsz: usize, rng: &mut rand::rngs::StdRng) {
            let z = randn(&[bsz, self.config.noise_dim], rng);
            let fake = self.generator.forward(&z);
            self.critic.zero_grad();
            let out = self.critic.forward(&fake);
            // Maximize mean D(fake) ⇒ grad −1/b into the critic, then chain
            // into the generator via the critic's input gradient.
            let g = Tensor::full(out.shape(), -1.0 / bsz as f32);
            let grad_fake = self.critic.backward(&g);
            self.generator.zero_grad();
            let _ = self.generator.backward(&grad_fake);
            self.opt_g.step(&mut self.generator.params_mut());
            // Critic grads from this pass are discarded by its next zero_grad.
        }
    }

    /// `steps` critic steps (a generator step after every `n_critic`-th)
    /// on batches of `x` whose last one is short, through the steps above
    /// and through the oracle: everything training leaves behind must be
    /// equal bit for bit.
    fn assert_steps_match_oracle(config: WganConfig, steps: usize) {
        let x = benign_snapshots(3 * config.batch_size + 5, 31);
        let rows: Vec<usize> = (0..x.shape()[0]).collect();
        let mut new = Wgan::new(config);
        let mut old = Wgan::new(config);
        let mut rng_new = seeded_rng(32);
        let mut rng_old = seeded_rng(32);
        let mut twin = None;
        for (step, chunk) in rows
            .chunks(config.batch_size)
            .cycle()
            .take(steps)
            .enumerate()
        {
            let real = x.take(chunk);
            let got = new.critic_step(&real, &mut twin, &mut rng_new);
            let want = old.critic_step_oracle(&real, &mut rng_old);
            assert_eq!(
                (got.0.to_bits(), got.1.to_bits()),
                (want.0.to_bits(), want.1.to_bits()),
                "critic means at step {step}"
            );
            if (step + 1) % config.n_critic == 0 {
                new.generator_step(chunk.len(), &mut rng_new);
                old.generator_step_oracle(chunk.len(), &mut rng_old);
            }
            // Critic weights; generator weights, both RMSProp caches and
            // the spectral vectors.
            assert_eq!(new.critic_bytes(), old.critic_bytes(), "step {step}");
            assert_eq!(
                new.training_state_bytes(),
                old.training_state_bytes(),
                "step {step}"
            );
        }
        assert_eq!(
            twin.is_some(),
            matches!(config.lipschitz, LipschitzMode::GradientPenalty { .. })
        );
    }

    #[test]
    fn training_steps_are_bitwise_the_full_backward_oracle() {
        for lipschitz in [
            LipschitzMode::Clip,
            LipschitzMode::Spectral,
            LipschitzMode::GradientPenalty { lambda: 10.0 },
        ] {
            for layers in [4, 5] {
                let config = WganConfig {
                    layers,
                    lipschitz,
                    batch_size: 16,
                    ..quick_config()
                };
                // Two rounds of the batches: the short one comes back.
                assert_steps_match_oracle(config, 8);
            }
        }
    }

    #[test]
    fn networks_have_declared_shapes() {
        let config = quick_config();
        let mut rng = seeded_rng(0);
        let g = build_generator(&config, &mut rng);
        let d = build_critic(&config, &mut rng);
        assert_eq!(g.output_shape(&[config.noise_dim]), vec![10, 12, 1]);
        assert_eq!(d.output_shape(&[10, 12, 1]), vec![1]);
    }

    #[test]
    fn layer_count_scales_critic_depth() {
        let mut rng = seeded_rng(0);
        let d6 = build_critic(
            &WganConfig {
                layers: 6,
                ..quick_config()
            },
            &mut rng,
        );
        let d8 = build_critic(
            &WganConfig {
                layers: 8,
                ..quick_config()
            },
            &mut rng,
        );
        let convs = |m: &Sequential| m.layer_names().iter().filter(|n| **n == "Conv2D").count();
        assert_eq!(convs(&d6), 5);
        assert_eq!(convs(&d8), 7);
    }

    #[test]
    fn generator_output_is_tanh_bounded() {
        let mut wgan = Wgan::new(quick_config());
        let mut rng = seeded_rng(1);
        let fake = wgan.generate(4, &mut rng);
        assert_eq!(fake.shape(), &[4, 10, 12, 1]);
        assert!(fake.max() <= 1.0 && fake.min() >= -1.0);
    }

    #[test]
    fn training_runs_and_records_history() {
        let mut wgan = Wgan::new(quick_config());
        let x = benign_snapshots(64, 2);
        wgan.train(&x);
        assert_eq!(wgan.history().len(), 2);
        for s in wgan.history() {
            assert!(s.wasserstein.is_finite());
        }
    }

    #[test]
    fn critic_weights_stay_clipped_after_training() {
        let mut wgan = Wgan::new(WganConfig {
            lipschitz: LipschitzMode::Clip,
            ..quick_config()
        });
        let x = benign_snapshots(64, 3);
        wgan.train(&x);
        for p in wgan.critic().params() {
            assert!(p.value.max() <= CLIP && p.value.min() >= -CLIP);
        }
    }

    #[test]
    fn spectral_mode_bounds_singular_values() {
        let mut wgan = Wgan::new(WganConfig {
            lipschitz: LipschitzMode::Spectral,
            ..quick_config()
        });
        let x = benign_snapshots(64, 3);
        wgan.train(&x);
        // Power-iterate each weight matrix to estimate sigma <= ~1.
        for p in wgan.critic().params() {
            if p.value.ndim() != 2 {
                continue;
            }
            let (rows, cols) = (p.value.shape()[0], p.value.shape()[1]);
            let w = p.value.as_slice();
            let mut u = vec![1.0f32; rows];
            let mut sigma = 0.0f32;
            for _ in 0..30 {
                let mut v = vec![0.0f32; cols];
                for r in 0..rows {
                    for c in 0..cols {
                        v[c] += w[r * cols + c] * u[r];
                    }
                }
                let vn = v.iter().map(|x| x * x).sum::<f32>().sqrt().max(1e-12);
                v.iter_mut().for_each(|x| *x /= vn);
                let mut wu = vec![0.0f32; rows];
                for r in 0..rows {
                    wu[r] = (0..cols).map(|c| w[r * cols + c] * v[c]).sum();
                }
                sigma = wu.iter().map(|x| x * x).sum::<f32>().sqrt();
                let un = sigma.max(1e-12);
                u = wu.iter().map(|x| x / un).collect();
            }
            assert!(sigma <= 1.2, "sigma {sigma} exceeds bound");
        }
    }

    #[test]
    fn gradient_penalty_tightens_input_gradients() {
        // After GP training the critic's gradient norm at data points
        // must sit near 1 (the defining property of WGAN-GP).
        let mut wgan = Wgan::new(WganConfig {
            epochs: 4,
            ..quick_config()
        });
        let x = benign_snapshots(128, 21);
        wgan.train(&x);
        let probe = benign_snapshots(16, 22);
        let out = wgan.critic_mut().forward(&probe);
        let grads = wgan.critic_mut().backward(&Tensor::ones(out.shape()));
        let elems: usize = probe.shape()[1..].iter().product();
        let mut mean_norm = 0.0f32;
        for i in 0..16 {
            let row = &grads.as_slice()[i * elems..(i + 1) * elems];
            mean_norm += row.iter().map(|v| v * v).sum::<f32>().sqrt() / 16.0;
        }
        assert!(
            (0.2..5.0).contains(&mean_norm),
            "GP should keep gradient norms near 1, got {mean_norm}"
        );
    }

    #[test]
    fn trained_critic_separates_benign_from_garbage() {
        let config = WganConfig {
            epochs: 6,
            ..quick_config()
        };
        let mut wgan = Wgan::new(config);
        let x = benign_snapshots(256, 4);
        wgan.train(&x);
        let benign_scores = wgan.score_batch(&benign_snapshots(32, 5));
        // Garbage: saturated random snapshots far off the manifold.
        let mut rng = seeded_rng(6);
        let garbage = rand_uniform(&[32, 10, 12, 1], -1.0, 1.0, &mut rng);
        let garbage_scores = wgan.score_batch(&garbage);
        let mean = |v: &[f32]| v.iter().sum::<f32>() / v.len() as f32;
        assert!(
            mean(&garbage_scores) > mean(&benign_scores),
            "garbage {} vs benign {}",
            mean(&garbage_scores),
            mean(&benign_scores)
        );
    }

    #[test]
    fn score_is_negative_critic_output() {
        let mut wgan = Wgan::new(quick_config());
        let x = benign_snapshots(8, 7);
        let out = wgan.critic_mut().forward(&x);
        let scores = wgan.score_batch(&x);
        for (s, o) in scores.iter().zip(out.as_slice()) {
            assert_eq!(*s, -o);
        }
    }

    #[test]
    fn a_model_that_is_not_a_critic_is_a_typed_error() {
        // The generator loads as a model but ends in a conv and a tanh.
        let wgan = Wgan::new(quick_config());
        let bytes = wgan.generator.to_bytes();
        assert!(matches!(
            Wgan::from_critic_bytes(quick_config(), &bytes),
            Err(ModelFormatError::NotACritic(_))
        ));
        // So does a critic built for other windows.
        let other = WganConfig {
            window: 8,
            ..quick_config()
        };
        assert!(matches!(
            Wgan::from_critic_bytes(other, &wgan.critic_bytes()),
            Err(ModelFormatError::NotACritic(_))
        ));
    }

    #[test]
    fn critic_serialization_roundtrip_preserves_scores() {
        let mut wgan = Wgan::new(quick_config());
        let x = benign_snapshots(64, 8);
        wgan.train(&x);
        let bytes = wgan.critic_bytes();
        let back = Wgan::from_critic_bytes(quick_config(), &bytes).unwrap();
        assert_eq!(wgan.score_batch(&x), back.score_batch(&x));
    }

    #[test]
    fn deterministic_training() {
        let x = benign_snapshots(64, 9);
        let mut a = Wgan::new(quick_config());
        let mut b = Wgan::new(quick_config());
        a.train(&x);
        b.train(&x);
        assert_eq!(a.score_batch(&x), b.score_batch(&x));
    }

    #[test]
    fn sentinel_rolls_back_and_retries_deterministically() {
        let x = benign_snapshots(64, 2);
        let mut faulty = Wgan::new(quick_config());
        faulty.inject_training_fault(0, 1); // first attempt trips after epoch 1
        let report = faulty
            .train_epochs_checked(&x, 2)
            .expect("fault is recoverable within the budget");
        assert_eq!(report.epochs, 2);
        assert_eq!(faulty.history().len(), 2);
        for s in faulty.history() {
            assert!(s.wasserstein.is_finite());
        }
        // The rollback + reseed path is itself deterministic.
        let mut again = Wgan::new(quick_config());
        again.inject_training_fault(0, 1);
        again.train_epochs_checked(&x, 2).unwrap();
        assert_eq!(faulty.score_batch(&x), again.score_batch(&x));
        // And the fault struck: the reseeded retry left the clean run's
        // trajectory.
        let mut clean = Wgan::new(quick_config());
        clean.train_epochs_checked(&x, 2).unwrap();
        assert_ne!(faulty.score_batch(&x), clean.score_batch(&x));
    }

    #[test]
    fn sentinel_gives_up_beyond_retry_budget() {
        let x = benign_snapshots(64, 2);
        let mut wgan = Wgan::new(quick_config());
        for attempt in 0..=3 {
            wgan.inject_training_fault(attempt, 0);
        }
        let err = wgan.train_epochs_checked(&x, 2).unwrap_err();
        assert!(
            matches!(
                err,
                TrainError::Diverged {
                    attempts: 3,
                    reason: DivergenceReason::NonFiniteWeights,
                    ..
                }
            ),
            "got {err:?}"
        );
        // The instance is rolled back to its last healthy state, not left
        // poisoned.
        assert!(wgan.score_batch(&x).iter().all(|s| s.is_finite()));
    }

    #[test]
    fn poisoned_model_rejected_at_entry() {
        let mut wgan = Wgan::new(quick_config());
        wgan.critic_mut().params_mut()[0].value.as_mut_slice()[0] = f32::NAN;
        let x = benign_snapshots(64, 2);
        assert!(matches!(
            wgan.train_epochs_checked(&x, 1),
            Err(TrainError::PoisonedAtEntry { .. })
        ));
    }

    #[test]
    fn recovered_training_still_separates_benign_from_garbage() {
        let mut wgan = Wgan::new(WganConfig {
            epochs: 6,
            ..quick_config()
        });
        wgan.inject_training_fault(0, 2);
        let x = benign_snapshots(256, 4);
        wgan.train_epochs_checked(&x, 6).unwrap();
        let benign_scores = wgan.score_batch(&benign_snapshots(32, 5));
        let mut rng = seeded_rng(6);
        let garbage = rand_uniform(&[32, 10, 12, 1], -1.0, 1.0, &mut rng);
        let garbage_scores = wgan.score_batch(&garbage);
        let mean = |v: &[f32]| v.iter().sum::<f32>() / v.len() as f32;
        assert!(mean(&garbage_scores) > mean(&benign_scores));
    }

    #[test]
    #[should_panic(expected = "does not match config")]
    fn wrong_shape_rejected() {
        let mut wgan = Wgan::new(quick_config());
        wgan.train(&Tensor::zeros(&[16, 8, 8, 1]));
    }
}
