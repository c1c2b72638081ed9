//! The model zoo: grid-search training, pre-evaluation, and top-*m*
//! candidate selection (§III-D, §III-E).
//!
//! Training sixty WGANs is the most expensive and the most fragile stage of
//! the pipeline, so [`ModelZoo::train_grid`] is built to survive the three
//! failure modes that actually occur at that scale: a single configuration
//! diverging (handled inside [`Wgan::train_epochs_checked`] by rollback +
//! reseeded retry, and **quarantined** here if the retry budget runs out), a
//! group's training task panicking (isolated with `catch_unwind`; only that
//! group's unfinished members are quarantined), and the whole process dying
//! (every finished member is persisted through a [`CheckpointStore`], so the
//! next run resumes from the manifest instead of restarting).

use crate::checkpoint::{grid_fingerprint, CheckpointError, CheckpointStore, Manifest};
use crate::config::{GridConfig, WganConfig};
use crate::ensemble::F32_NS_PER_MEMBER_ROW;
use crate::wgan::{TrainError, Wgan};
use crate::{into_inner, lock};
use std::fmt;
use std::panic::{self, AssertUnwindSafe};
use std::path::PathBuf;
#[cfg(test)]
use std::sync::atomic::AtomicBool;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use vehigan_features::WindowDataset;
use vehigan_metrics::auroc;
use vehigan_tensor::forkjoin::{fork_join, workers_for};
use vehigan_tensor::Tensor;
use vehigan_vasp::Attack;

/// Why a grid configuration was excluded from the zoo.
#[derive(Debug, Clone, PartialEq)]
pub enum QuarantineReason {
    /// Training diverged past the sentinel retry budget (or the model was
    /// poisoned at entry).
    Train(TrainError),
    /// The worker thread training this group panicked; the payload is the
    /// panic message.
    Panicked(String),
    /// Quarantined during a previous (interrupted) run; the reason is the
    /// text recorded in the manifest.
    Recorded(String),
}

impl fmt::Display for QuarantineReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QuarantineReason::Train(e) => write!(f, "{e}"),
            QuarantineReason::Panicked(msg) => write!(f, "worker panicked: {msg}"),
            QuarantineReason::Recorded(msg) => write!(f, "{msg}"),
        }
    }
}

/// A grid configuration excluded from the zoo, with the structured reason.
#[derive(Debug, Clone, PartialEq)]
pub struct QuarantineRecord {
    /// The excluded configuration.
    pub(crate) config: WganConfig,
    /// Position of the configuration in `GridConfig::expand` order.
    pub(crate) grid_index: usize,
    /// Why it was excluded.
    pub reason: QuarantineReason,
}

impl QuarantineRecord {
    /// The quarantined configuration's id string.
    pub fn id(&self) -> String {
        self.config.id()
    }
}

/// Error from fault-tolerant zoo training.
#[derive(Debug)]
pub enum ZooError {
    /// The hyperparameter grid expands to zero configurations.
    EmptyGrid,
    /// `threads == 0`.
    NoThreads,
    /// The checkpoint store failed (I/O, corruption, or a manifest from a
    /// different grid).
    Checkpoint(CheckpointError),
    /// Every configuration was quarantined — there is no zoo to return.
    AllQuarantined(Vec<QuarantineRecord>),
}

impl fmt::Display for ZooError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ZooError::EmptyGrid => write!(f, "empty hyperparameter grid"),
            ZooError::NoThreads => write!(f, "need at least one worker thread"),
            ZooError::Checkpoint(e) => write!(f, "checkpoint store: {e}"),
            ZooError::AllQuarantined(q) => {
                write!(f, "all {} grid configurations were quarantined", q.len())
            }
        }
    }
}

impl std::error::Error for ZooError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ZooError::Checkpoint(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CheckpointError> for ZooError {
    fn from(e: CheckpointError) -> Self {
        ZooError::Checkpoint(e)
    }
}

/// Callback this crate's tests run on each freshly constructed training
/// run.
#[cfg(test)]
pub(crate) type FaultHook = std::sync::Arc<dyn Fn(&mut Wgan) + Send + Sync>;

/// Where this crate's kill/resume tests stop a run, as if the process had
/// died there: what is on disk is all the next call sees.
#[cfg(test)]
#[derive(Clone, Copy, Debug)]
pub(crate) enum Kill {
    /// No group starts after the first `n` have.
    AfterGroups(usize),
    /// Training stops at the epoch boundary that completes the `n`th newly
    /// trained epoch of the run (possibly mid-member; the partial
    /// checkpoint written there carries the group into the next call).
    AfterEpochs(usize),
}

/// Options for [`ModelZoo::train_grid`].
#[derive(Clone, Default)]
pub struct ZooTrainOptions {
    /// Most groups trained at once (must be ≥ 1; [`ZooTrainOptions::new`]
    /// sets it). They run on the caller and the helpers of
    /// [`vehigan_tensor::forkjoin`], so more than the cores this process
    /// may run on changes nothing.
    pub(crate) threads: usize,
    /// When set, every finished member is checkpointed here and an
    /// interrupted run resumes from the directory's manifest.
    pub checkpoint_dir: Option<PathBuf>,
    /// Hook this crate's tests invoke on each freshly constructed training
    /// run (e.g. to schedule fault injection for a specific config).
    #[cfg(test)]
    pub(crate) fault_hook: Option<FaultHook>,
    /// Where this crate's kill/resume tests stop the run.
    #[cfg(test)]
    pub(crate) kill: Option<Kill>,
}

impl fmt::Debug for ZooTrainOptions {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ZooTrainOptions")
            .field("threads", &self.threads)
            .field("checkpoint_dir", &self.checkpoint_dir)
            .finish()
    }
}

impl ZooTrainOptions {
    /// Options with the given thread count and defaults elsewhere.
    pub fn new(threads: usize) -> Self {
        ZooTrainOptions {
            threads,
            ..ZooTrainOptions::default()
        }
    }
}

/// Outcome of a fault-tolerant [`ModelZoo::train_grid`] run.
#[derive(Debug)]
pub struct ZooTrainReport {
    /// The trained zoo (quarantined configurations excluded).
    pub zoo: ModelZoo,
    /// Configurations excluded from the zoo, with reasons.
    pub(crate) quarantined: Vec<QuarantineRecord>,
    /// Members restored from the checkpoint store instead of retrained.
    pub resumed: usize,
}

/// One trained zoo member with its pre-evaluation results.
pub struct ZooEntry {
    /// The trained WGAN.
    pub wgan: Wgan,
    /// Detection score (AUROC) per validation attack, filled by
    /// [`ModelZoo::pre_evaluate`].
    pub(crate) per_attack: Vec<(Attack, f64)>,
    /// Average discriminative score across validation attacks (Eq. 4).
    pub ads: f64,
}

impl std::fmt::Debug for ZooEntry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "ZooEntry({}, ADS={:.3})",
            self.wgan.config().id(),
            self.ads
        )
    }
}

/// A collection of grid-trained WGANs.
///
/// # Examples
///
/// ```no_run
/// use vehigan_core::{GridConfig, ModelZoo, ZooTrainOptions};
/// use vehigan_tensor::Tensor;
///
/// let train = Tensor::zeros(&[256, 10, 12, 1]);
/// let report = ModelZoo::train_grid(&GridConfig::tiny(), &train, &ZooTrainOptions::new(2))
///     .expect("some configuration trains");
/// assert!(report.zoo.len() <= GridConfig::tiny().len());
/// ```
pub struct ModelZoo {
    entries: Vec<ZooEntry>,
}

impl std::fmt::Debug for ModelZoo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ModelZoo({} entries)", self.entries.len())
    }
}

/// A training group: configurations differing only in epoch count share one
/// run, checkpointed at each requested epoch budget.
struct TrainGroup {
    base: WganConfig,
    /// `(grid index, epoch budget)`, sorted ascending by epochs.
    members: Vec<(usize, usize)>,
}

impl TrainGroup {
    /// The deterministic seed derived from the group's first grid entry
    /// (so checkpoints share one trajectory).
    fn derived_seed(&self) -> u64 {
        let run_seed = self
            .members
            .first()
            .map(|&(idx, _)| idx)
            .expect("nonempty group");
        self.base.seed ^ (run_seed as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
    }

    /// The seed-adjusted configuration the shared run actually trains
    /// with.
    fn run_config(&self) -> WganConfig {
        WganConfig {
            seed: self.derived_seed(),
            ..self.base
        }
    }

    /// The on-disk / in-zoo configuration of the member at `epochs`.
    fn member_config(&self, epochs: usize) -> WganConfig {
        WganConfig {
            epochs,
            seed: self.derived_seed(),
            ..self.base
        }
    }

    /// Stable on-disk key for the group's epoch-granular partial
    /// checkpoint: the id of its largest-budget member.
    fn partial_key(&self) -> String {
        let &(_, max_epochs) = self.members.last().expect("nonempty group");
        self.member_config(max_epochs).id()
    }
}

/// Splits a grid into training groups keyed by everything except the epoch
/// budget and seed.
fn group_grid(configs: &[WganConfig]) -> Vec<TrainGroup> {
    let mut groups: Vec<TrainGroup> = Vec::new();
    for (idx, config) in configs.iter().enumerate() {
        let key = WganConfig {
            epochs: 0,
            seed: 0,
            ..*config
        };
        match groups.iter_mut().find(|g| {
            WganConfig {
                epochs: 0,
                seed: 0,
                ..g.base
            } == key
        }) {
            Some(g) => g.members.push((idx, config.epochs)),
            None => groups.push(TrainGroup {
                base: *config,
                members: vec![(idx, config.epochs)],
            }),
        }
    }
    for g in &mut groups {
        g.members.sort_by_key(|&(_, epochs)| epochs);
    }
    groups
}

/// Renders a panic payload into a printable message.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// A [`Kill`] armed for one run.
#[cfg(test)]
struct KillSwitch {
    kill: Option<Kill>,
    /// Groups started or epochs trained, whichever the kill counts.
    counted: AtomicUsize,
    /// Set once the kill fires: no group starts any more and groups in
    /// flight stop at their next epoch boundary.
    fired: AtomicBool,
}

#[cfg(test)]
impl KillSwitch {
    fn new(kill: Option<Kill>) -> Self {
        KillSwitch {
            kill,
            counted: AtomicUsize::new(0),
            fired: AtomicBool::new(false),
        }
    }

    /// Whether a group about to start is left for the next call.
    fn leaves_group(&self) -> bool {
        if let Some(Kill::AfterGroups(n)) = self.kill {
            if self.counted.fetch_add(1, Ordering::SeqCst) >= n {
                self.fired.store(true, Ordering::SeqCst);
            }
        }
        self.fired.load(Ordering::SeqCst)
    }

    /// Counts a newly trained epoch; whether training stops at this
    /// boundary.
    fn stops_at_epoch(&self) -> bool {
        if let Some(Kill::AfterEpochs(n)) = self.kill {
            if self.counted.fetch_add(1, Ordering::SeqCst) + 1 >= n {
                self.fired.store(true, Ordering::SeqCst);
            }
        }
        self.fired.load(Ordering::SeqCst)
    }
}

/// Shared mutable state for the training tasks.
struct TrainShared<'a> {
    results: Mutex<Vec<(usize, Wgan)>>,
    quarantined: Mutex<Vec<QuarantineRecord>>,
    errors: Mutex<Vec<CheckpointError>>,
    manifest: Mutex<Manifest>,
    store: Option<&'a CheckpointStore>,
    /// Members restored from disk instead of retrained (pre-loaded fully
    /// accounted groups plus mid-group reloads after a partial resume).
    resumed: AtomicUsize,
    train: &'a Tensor,
    #[cfg(test)]
    fault_hook: Option<&'a FaultHook>,
    #[cfg(test)]
    kill: KillSwitch,
}

impl TrainShared<'_> {
    /// Records a finished member: into the results, the checkpoint store,
    /// and the manifest (in that order — the manifest only ever names
    /// members whose checkpoint rename has completed).
    fn commit_member(&self, idx: usize, checkpoint: Wgan) -> Result<(), CheckpointError> {
        let id = checkpoint.config().id();
        if let Some(store) = self.store {
            store.save_member(&checkpoint)?;
            let mut manifest = lock(&self.manifest);
            manifest.done.push(id);
            store.write_manifest(&manifest)?;
        }
        lock(&self.results).push((idx, checkpoint));
        Ok(())
    }

    /// Records a quarantined member in memory and in the manifest.
    fn quarantine(&self, record: QuarantineRecord) -> Result<(), CheckpointError> {
        if let Some(store) = self.store {
            let mut manifest = lock(&self.manifest);
            manifest
                .quarantined
                .push((record.id(), record.reason.to_string()));
            store.write_manifest(&manifest)?;
        }
        lock(&self.quarantined).push(record);
        Ok(())
    }

    /// Trains one group, committing each epoch checkpoint as it completes.
    /// Divergence past the retry budget quarantines the failing member and
    /// every later member of the group (they share the dead trajectory).
    ///
    /// With a checkpoint store, every healthy epoch boundary persists an
    /// epoch-granular **partial** checkpoint of the shared run (full
    /// training state: generator, optimizers, spectral vectors, RNG
    /// cursor), and a usable partial left by an interrupted run seeds this
    /// call — resuming mid-member instead of retraining the group, with a
    /// final model bitwise identical to the uninterrupted run.
    fn train_group(&self, group: &TrainGroup) -> Result<(), CheckpointError> {
        let run_config = group.run_config();
        let key = group.partial_key();
        // Member ids an interrupted run already committed: skipped below
        // (reloaded from disk) rather than re-committed.
        let done_ids: Vec<String> = match self.store {
            Some(_) => lock(&self.manifest).done.clone(),
            None => Vec::new(),
        };
        let mut wgan = self.store.and_then(|store| {
            if !store.has_partial(&key) {
                return None;
            }
            // A partial that fails to load (a stale run seed, corruption,
            // pre-v2 leftovers) is not an error — the group
            // deterministically retrains from scratch.
            let restored = store.load_partial(&key, run_config).ok()?;
            // Usable only if no uncommitted member budget lies *behind*
            // the restored epoch count — training can't rewind.
            let h = restored.history().len();
            let usable = group.members.iter().all(|&(_, epochs)| {
                epochs >= h || done_ids.contains(&group.member_config(epochs).id())
            });
            usable.then_some(restored)
        });
        let mut wgan = match wgan.take() {
            Some(w) => w,
            None => {
                #[cfg_attr(not(test), allow(unused_mut))]
                let mut fresh = Wgan::new(run_config);
                // Scheduled fault injections describe a from-scratch
                // trajectory; they never apply to a resumed one.
                #[cfg(test)]
                if let Some(hook) = self.fault_hook {
                    hook(&mut fresh);
                }
                fresh
            }
        };
        let mut trained = wgan.history().len();
        for (pos, &(idx, epochs)) in group.members.iter().enumerate() {
            let config = group.member_config(epochs);
            if epochs > trained {
                let mut save_err: Option<CheckpointError> = None;
                let outcome = wgan.train_epochs_resumable(self.train, epochs - trained, |w| {
                    if let Some(store) = self.store {
                        if let Err(e) = store.save_partial(&key, w) {
                            save_err = Some(e);
                            return false;
                        }
                    }
                    // A test kill stops here, after the partial is on
                    // disk.
                    #[cfg(test)]
                    if self.kill.stops_at_epoch() {
                        return false;
                    }
                    true
                });
                match outcome {
                    Ok(_report) => {
                        if let Some(e) = save_err {
                            return Err(e);
                        }
                        // Killed mid-member: the partial written at this
                        // boundary carries the rest of the group into the
                        // next call.
                        #[cfg(test)]
                        if _report.stopped {
                            return Ok(());
                        }
                        trained = wgan.history().len();
                    }
                    Err(err) => {
                        for &(q_idx, q_epochs) in &group.members[pos..] {
                            self.quarantine(QuarantineRecord {
                                config: group.member_config(q_epochs),
                                grid_index: q_idx,
                                reason: QuarantineReason::Train(err.clone()),
                            })?;
                        }
                        // The shared trajectory is dead; its partial must
                        // not seed anything.
                        if let Some(store) = self.store {
                            store.remove_partial(&key)?;
                        }
                        return Ok(());
                    }
                }
            }
            if done_ids.contains(&config.id()) {
                let store = self.store.expect("done ids imply a store");
                let reloaded = store.load_member(config)?;
                lock(&self.results).push((idx, reloaded));
                self.resumed.fetch_add(1, Ordering::SeqCst);
                continue;
            }
            let mut checkpoint = Wgan::from_critic_bytes(config, &wgan.critic_bytes())
                .map_err(CheckpointError::Model)?;
            checkpoint.set_history(wgan.history().to_vec());
            self.commit_member(idx, checkpoint)?;
        }
        if let Some(store) = self.store {
            store.remove_partial(&key)?;
        }
        Ok(())
    }

    /// One group's task: trains it, or records the checkpoint error that
    /// stopped it. A panic inside the group is caught and quarantines the
    /// group's unfinished members.
    fn run_group(&self, group: &TrainGroup) {
        #[cfg(test)]
        if self.kill.leaves_group() {
            return;
        }
        match panic::catch_unwind(AssertUnwindSafe(|| self.train_group(group))) {
            Ok(Ok(())) => {}
            Ok(Err(ckpt_err)) => lock(&self.errors).push(ckpt_err),
            Err(payload) => {
                let msg = panic_message(payload);
                let finished = lock(&self.results);
                let finished_idx: Vec<usize> = finished.iter().map(|&(idx, _)| idx).collect();
                drop(finished);
                for &(idx, epochs) in &group.members {
                    if finished_idx.contains(&idx) {
                        continue;
                    }
                    let record = QuarantineRecord {
                        config: group.member_config(epochs),
                        grid_index: idx,
                        reason: QuarantineReason::Panicked(msg.clone()),
                    };
                    if let Err(e) = self.quarantine(record) {
                        lock(&self.errors).push(e);
                        break;
                    }
                }
            }
        }
    }
}

impl ModelZoo {
    /// Trains every configuration of the grid on benign snapshots
    /// `[n, w, f, 1]`, using up to `options`' worker threads.
    ///
    /// Configurations differing **only in epoch count** are produced as
    /// checkpoints of a single training run (the paper's 60 instances are
    /// 15 architecture runs × 4 epoch checkpoints), so a 5×3×4 grid costs
    /// 15 trainings to the maximum epoch budget, not 60 from scratch.
    ///
    /// Each run is fully determined by its group's seed, so the zoo is
    /// reproducible regardless of thread scheduling. Training is
    /// fault-tolerant:
    ///
    /// - **quarantines** configurations whose training diverges past the
    ///   sentinel retry budget (or whose worker panics) instead of taking
    ///   the whole run down — the report lists each exclusion with a
    ///   structured [`QuarantineReason`];
    /// - **checkpoints** every finished member through a
    ///   [`CheckpointStore`] when `options.checkpoint_dir` is set, and
    ///   **resumes** from the store's manifest on the next call: fully
    ///   persisted groups are loaded instead of retrained, and a group
    ///   killed mid-member resumes from its epoch-granular partial
    ///   checkpoint (full training state: generator, optimizer caches,
    ///   spectral vectors, RNG cursor) at the last finished epoch — the
    ///   resumed model is **bitwise identical** to the uninterrupted run's.
    ///
    /// # Errors
    ///
    /// [`ZooError::EmptyGrid`] / [`ZooError::NoThreads`] on bad arguments,
    /// [`ZooError::Checkpoint`] if the store fails or holds a manifest for
    /// a different grid, and [`ZooError::AllQuarantined`] when no
    /// configuration survived.
    pub fn train_grid(
        grid: &GridConfig,
        train: &Tensor,
        options: &ZooTrainOptions,
    ) -> Result<ZooTrainReport, ZooError> {
        let configs = grid.expand();
        if configs.is_empty() {
            return Err(ZooError::EmptyGrid);
        }
        if options.threads == 0 {
            return Err(ZooError::NoThreads);
        }

        let store = match &options.checkpoint_dir {
            Some(dir) => Some(CheckpointStore::open(dir)?),
            None => None,
        };
        let fingerprint = grid_fingerprint(grid);

        // Resume bookkeeping: load the manifest (if any), verify it belongs
        // to this grid, and split groups into fully-accounted (loaded from
        // disk) and pending (retrained).
        let mut manifest = Manifest {
            fingerprint,
            ..Manifest::default()
        };
        if let Some(store) = &store {
            if let Some(found) = store.read_manifest()? {
                if found.fingerprint != fingerprint {
                    return Err(CheckpointError::ManifestMismatch {
                        expected: fingerprint,
                        found: found.fingerprint,
                    }
                    .into());
                }
                manifest = found;
            } else {
                store.write_manifest(&manifest)?;
            }
        }

        let mut pending: Vec<TrainGroup> = Vec::new();
        let mut preloaded: Vec<(usize, Wgan)> = Vec::new();
        let mut carried: Vec<QuarantineRecord> = Vec::new();
        for group in group_grid(&configs) {
            let accounted = store.is_some()
                && group.members.iter().all(|&(_, epochs)| {
                    let id = group.member_config(epochs).id();
                    manifest.done.contains(&id)
                        || manifest.quarantined.iter().any(|(q, _)| *q == id)
                });
            if !accounted {
                pending.push(group);
                continue;
            }
            let store = store.as_ref().expect("accounted implies store");
            // A crash between the group's last commit and its partial
            // cleanup can leave the (now useless) partial behind.
            store.remove_partial(&group.partial_key())?;
            for &(idx, epochs) in &group.members {
                let config = group.member_config(epochs);
                let id = config.id();
                if let Some((_, reason)) = manifest.quarantined.iter().find(|(q, _)| *q == id) {
                    carried.push(QuarantineRecord {
                        config,
                        grid_index: idx,
                        reason: QuarantineReason::Recorded(reason.clone()),
                    });
                } else {
                    preloaded.push((idx, store.load_member(config)?));
                }
            }
        }
        // The costliest groups (critic depth × epoch budget) run first: a
        // long group started last would leave the other threads idle for
        // its tail. The zoo does not depend on the order — each group is a
        // function of its own seed.
        pending.sort_by_key(|g| g.base.layers * g.members.last().map_or(0, |&(_, epochs)| epochs));
        let shared = TrainShared {
            resumed: AtomicUsize::new(preloaded.len()),
            results: Mutex::new(preloaded),
            quarantined: Mutex::new(carried),
            errors: Mutex::new(Vec::new()),
            manifest: Mutex::new(manifest),
            store: store.as_ref(),
            train,
            #[cfg(test)]
            fault_hook: options.fault_hook.as_ref(),
            #[cfg(test)]
            kill: KillSwitch::new(options.kill),
        };
        let mut threads = vec![(); options.threads];
        fork_join(&mut threads, pending.iter().rev(), |_, _, group| {
            shared.run_group(group)
        });

        if let Some(err) = into_inner(shared.errors).into_iter().next() {
            return Err(err.into());
        }
        // A test kill can stop a run before it commits anything; the next
        // call resumes it, so it is not a failure.
        #[cfg(test)]
        let killed = shared.kill.fired.into_inner();
        #[cfg(not(test))]
        let killed = false;
        let resumed = shared.resumed.into_inner();

        let mut trained = into_inner(shared.results);
        trained.sort_by_key(|(idx, _)| *idx);
        let mut quarantined = into_inner(shared.quarantined);
        quarantined.sort_by_key(|r| r.grid_index);
        if trained.is_empty() && !killed {
            return Err(ZooError::AllQuarantined(quarantined));
        }
        Ok(ZooTrainReport {
            zoo: ModelZoo {
                entries: trained
                    .into_iter()
                    .map(|(_, wgan)| ZooEntry {
                        wgan,
                        per_attack: Vec::new(),
                        ads: 0.0,
                    })
                    .collect(),
            },
            quarantined,
            resumed,
        })
    }

    /// Number of models.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the zoo is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The zoo entries.
    pub fn entries(&self) -> &[ZooEntry] {
        &self.entries
    }

    /// Mutable access to the entries (e.g. for scoring).
    pub fn entries_mut(&mut self) -> &mut [ZooEntry] {
        &mut self.entries
    }

    /// Pre-evaluates every model on labelled validation datasets: its
    /// detection score per attack is the AUROC (the paper's reported
    /// metric, §III-E), and ADS is the mean over attacks (Eq. 4).
    ///
    /// Entries are evaluated in parallel, one [`fork_join`] task each; each
    /// entry's result depends only on its own critic, so the outcome is
    /// identical to the serial loop regardless of scheduling. A panic while
    /// scoring one entry (e.g. a poisoned critic) is isolated: that entry's
    /// ADS is set to `-inf` so [`ModelZoo::top_m`] ranks it last, and every
    /// other entry evaluates normally.
    ///
    /// # Panics
    ///
    /// Panics if `validation` is empty or a dataset lacks either class.
    pub fn pre_evaluate(&mut self, validation: &[(Attack, WindowDataset)]) {
        assert!(
            !validation.is_empty(),
            "need at least one validation attack"
        );
        // Checked here, not left to the metric: inside the per-entry
        // `catch_unwind` its panic would only turn every ADS into −∞.
        for (attack, dataset) in validation {
            assert!(
                dataset.labels.contains(&true) && dataset.labels.contains(&false),
                "validation dataset {} lacks benign or malicious windows",
                attack.name()
            );
        }
        let evaluate = |entry: &mut ZooEntry| {
            let scored = panic::catch_unwind(AssertUnwindSafe(|| {
                let mut per_attack = Vec::with_capacity(validation.len());
                let mut sum = 0.0;
                for (attack, dataset) in validation {
                    let scores = entry.wgan.score_batch(&dataset.x);
                    let ds = auroc(&scores, &dataset.labels);
                    per_attack.push((*attack, ds));
                    sum += ds;
                }
                (per_attack, sum / validation.len() as f64)
            }));
            match scored {
                Ok((per_attack, ads)) => {
                    entry.per_attack = per_attack;
                    entry.ads = ads;
                }
                Err(_) => {
                    entry.per_attack = Vec::new();
                    entry.ads = f64::NEG_INFINITY;
                }
            }
        };
        let rows: usize = validation.iter().map(|(_, ds)| ds.len()).sum();
        let mut threads = vec![(); workers_for(self.len() * rows * F32_NS_PER_MEMBER_ROW)];
        fork_join(&mut threads, self.entries.iter_mut(), |_, _, entry| {
            evaluate(entry)
        });
    }

    /// Indices of the top-`m` models by ADS (descending). Requires a prior
    /// [`ModelZoo::pre_evaluate`]. Non-finite ADS values (a quarantine-worthy
    /// critic that slipped through, or a panicked evaluation) sort last
    /// rather than poisoning the comparison.
    ///
    /// # Panics
    ///
    /// Panics if `m` is zero or exceeds the zoo size.
    pub fn top_m(&self, m: usize) -> Vec<usize> {
        assert!(
            m >= 1 && m <= self.entries.len(),
            "m must be in [1, {}]",
            self.entries.len()
        );
        let sort_key = |ads: f64| if ads.is_nan() { f64::NEG_INFINITY } else { ads };
        let mut order: Vec<usize> = (0..self.entries.len()).collect();
        order.sort_by(|&a, &b| {
            sort_key(self.entries[b].ads)
                .partial_cmp(&sort_key(self.entries[a].ads))
                .expect("NaN mapped to -inf")
        });
        order.truncate(m);
        order
    }

    /// Removes and returns the models at `indices` (order preserved).
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds or duplicated.
    pub fn take_models(self, indices: &[usize]) -> Vec<ZooEntry> {
        let mut seen = vec![false; self.entries.len()];
        for &i in indices {
            assert!(i < seen.len(), "index {i} out of bounds");
            assert!(!seen[i], "duplicate index {i}");
            seen[i] = true;
        }
        let mut slots: Vec<Option<ZooEntry>> = self.entries.into_iter().map(Some).collect();
        indices
            .iter()
            .map(|&i| slots[i].take().expect("checked above"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::fs;
    use std::sync::atomic::AtomicU64;
    use std::sync::Arc;
    use std::thread::{self, ThreadId};
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

    fn synthetic_validation(seed: u64) -> Vec<(Attack, WindowDataset)> {
        // Benign windows + saturated-garbage "attack" windows.
        let mut rng = seeded_rng(seed);
        let b = benign(40, seed);
        let garbage = rand_uniform(&[40, 10, 12, 1], -1.0, 1.0, &mut rng);
        let mut data = b.as_slice().to_vec();
        data.extend_from_slice(garbage.as_slice());
        let x = Tensor::from_vec(data, &[80, 10, 12, 1]);
        let labels: Vec<bool> = (0..80).map(|i| i >= 40).collect();
        let vehicles = vec![vehigan_sim::VehicleId(0); 80];
        vec![(
            Attack::by_name("RandomSpeed").unwrap(),
            WindowDataset {
                x,
                labels,
                vehicles,
            },
        )]
    }

    /// The tiny grid trained on `threads` threads, without checkpoints.
    fn train_tiny(train: &Tensor, threads: usize) -> ModelZoo {
        let options = ZooTrainOptions::new(threads);
        ModelZoo::train_grid(&GridConfig::tiny(), train, &options)
            .unwrap()
            .zoo
    }

    fn tiny_zoo() -> ModelZoo {
        train_tiny(&benign(128, 0), 2)
    }

    #[test]
    fn trains_all_grid_points() {
        let zoo = tiny_zoo();
        let grid = GridConfig::tiny().expand();
        assert_eq!(zoo.len(), grid.len());
        // In grid order: each member has its grid point's architecture and
        // epoch budget (the seed is its training group's).
        let point = |c: &WganConfig| (c.noise_dim, c.layers, c.epochs);
        for (e, config) in zoo.entries().iter().zip(&grid) {
            assert!(!e.wgan.history().is_empty());
            assert_eq!(point(e.wgan.config()), point(config));
        }
    }

    #[test]
    fn parallel_training_is_deterministic() {
        let train = benign(128, 0);
        let mut a = train_tiny(&train, 1);
        let mut b = train_tiny(&train, 3);
        let probe = benign(8, 1);
        for (ea, eb) in a.entries_mut().iter_mut().zip(b.entries_mut()) {
            assert_eq!(ea.wgan.score_batch(&probe), eb.wgan.score_batch(&probe));
        }
    }

    #[test]
    fn pre_evaluation_fills_ads() {
        let mut zoo = tiny_zoo();
        zoo.pre_evaluate(&synthetic_validation(1));
        for e in zoo.entries() {
            assert_eq!(e.per_attack.len(), 1);
            assert!(e.ads >= 0.0 && e.ads <= 1.0);
        }
    }

    #[test]
    #[should_panic(expected = "lacks benign or malicious windows")]
    fn a_one_class_validation_set_is_refused() {
        // Its metric used to panic inside the per-entry catch_unwind: every
        // ADS became −∞ and top_m returned index order.
        let mut validation = synthetic_validation(1);
        validation[0].1.labels.fill(false);
        tiny_zoo().pre_evaluate(&validation);
    }

    #[test]
    fn top_m_is_sorted_by_ads() {
        let mut zoo = tiny_zoo();
        zoo.pre_evaluate(&synthetic_validation(2));
        let top = zoo.top_m(3);
        assert_eq!(top.len(), 3);
        for w in top.windows(2) {
            assert!(zoo.entries()[w[0]].ads >= zoo.entries()[w[1]].ads);
        }
    }

    #[test]
    fn top_m_tolerates_nan_ads() {
        let mut zoo = tiny_zoo();
        zoo.pre_evaluate(&synthetic_validation(2));
        zoo.entries_mut()[0].ads = f64::NAN;
        let top = zoo.top_m(zoo.len());
        // The NaN entry must sort last, not crash the comparator.
        assert_eq!(*top.last().unwrap(), 0);
    }

    #[test]
    fn take_models_preserves_order() {
        let mut zoo = tiny_zoo();
        zoo.pre_evaluate(&synthetic_validation(3));
        let top = zoo.top_m(2);
        let expect_ids: Vec<String> = top
            .iter()
            .map(|&i| zoo.entries()[i].wgan.config().id())
            .collect();
        let taken = zoo.take_models(&top);
        let got_ids: Vec<String> = taken.iter().map(|e| e.wgan.config().id()).collect();
        assert_eq!(expect_ids, got_ids);
    }

    #[test]
    #[should_panic(expected = "m must be in")]
    fn top_m_bounds_checked() {
        let zoo = tiny_zoo();
        let _ = zoo.top_m(zoo.len() + 1);
    }

    #[test]
    fn train_grid_rejects_bad_arguments() {
        let train = benign(32, 0);
        let empty = GridConfig {
            noise_dims: vec![],
            ..GridConfig::tiny()
        };
        assert!(matches!(
            ModelZoo::train_grid(&empty, &train, &ZooTrainOptions::new(2)),
            Err(ZooError::EmptyGrid)
        ));
        assert!(matches!(
            ModelZoo::train_grid(&GridConfig::tiny(), &train, &ZooTrainOptions::new(0)),
            Err(ZooError::NoThreads)
        ));
    }

    #[test]
    fn unrecoverable_divergence_quarantines_only_that_group() {
        let train = benign(64, 0);
        let mut options = ZooTrainOptions::new(2);
        // Poison every attempt of the noise_dim=8 run at its first epoch:
        // the sentinel budget runs dry and both of that group's epoch
        // checkpoints must be quarantined.
        options.fault_hook = Some(Arc::new(|wgan: &mut Wgan| {
            if wgan.config().noise_dim == 8 {
                for attempt in 0..8 {
                    wgan.inject_training_fault(attempt, 0);
                }
            }
        }));
        let report = ModelZoo::train_grid(&GridConfig::tiny(), &train, &options).unwrap();
        assert_eq!(report.quarantined.len(), 2);
        for q in &report.quarantined {
            assert_eq!(q.config.noise_dim, 8);
            // Every retry in the budget was spent before giving up.
            match &q.reason {
                QuarantineReason::Train(TrainError::Diverged { attempts, .. }) => {
                    assert_eq!(*attempts, crate::wgan::MAX_TRAIN_RETRIES + 1)
                }
                other => panic!("expected Diverged quarantine, got {other:?}"),
            }
        }
        assert_eq!(report.zoo.len(), GridConfig::tiny().len() - 2);
        for e in report.zoo.entries() {
            assert_eq!(e.wgan.config().noise_dim, 16);
        }
    }

    #[test]
    fn recoverable_divergence_rolls_back_and_keeps_the_member() {
        let train = benign(64, 0);
        let mut options = ZooTrainOptions::new(1);
        // One fault on the first attempt only: rollback + reseed recovers.
        options.fault_hook = Some(Arc::new(|wgan: &mut Wgan| {
            if wgan.config().noise_dim == 8 {
                wgan.inject_training_fault(0, 0);
            }
        }));
        let report = ModelZoo::train_grid(&GridConfig::tiny(), &train, &options).unwrap();
        assert!(report.quarantined.is_empty());
        assert_eq!(report.zoo.len(), GridConfig::tiny().len());
        // The fault struck: the rolled-back group retrained on a reseeded
        // trajectory, and only that group differs from a clean run.
        let clean = train_tiny(&train, 1);
        for (got, want) in report.zoo.entries().iter().zip(clean.entries()) {
            let struck = got.wgan.config().noise_dim == 8;
            assert_eq!(
                got.wgan.critic_bytes() != want.wgan.critic_bytes(),
                struck,
                "{}",
                got.wgan.config().id()
            );
        }
    }

    #[test]
    fn worker_panic_quarantines_group_and_spares_the_rest() {
        let train = benign(64, 0);
        let mut options = ZooTrainOptions::new(2);
        options.fault_hook = Some(Arc::new(|wgan: &mut Wgan| {
            if wgan.config().noise_dim == 8 {
                panic!("synthetic worker crash");
            }
        }));
        let report = ModelZoo::train_grid(&GridConfig::tiny(), &train, &options).unwrap();
        assert_eq!(report.quarantined.len(), 2);
        for q in &report.quarantined {
            match &q.reason {
                QuarantineReason::Panicked(msg) => {
                    assert!(msg.contains("synthetic worker crash"))
                }
                other => panic!("expected panic quarantine, got {other:?}"),
            }
        }
        assert_eq!(report.zoo.len(), GridConfig::tiny().len() - 2);
    }

    #[test]
    fn all_quarantined_is_a_typed_error() {
        let train = benign(64, 0);
        let mut options = ZooTrainOptions::new(1);
        options.fault_hook = Some(Arc::new(|_: &mut Wgan| panic!("everything burns")));
        match ModelZoo::train_grid(&GridConfig::tiny(), &train, &options) {
            Err(ZooError::AllQuarantined(q)) => {
                assert_eq!(q.len(), GridConfig::tiny().len())
            }
            other => panic!("expected AllQuarantined, got {other:?}"),
        }
    }

    fn scratch_dir(tag: &str) -> PathBuf {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("vehigan-ft-test-{}-{tag}-{n}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    /// ADS ranking of a zoo after pre-evaluation: `(config id, ADS)` in
    /// `top_m(len)` order.
    fn ads_ranking(mut zoo: ModelZoo) -> Vec<(String, f64)> {
        zoo.pre_evaluate(&synthetic_validation(11));
        let order = zoo.top_m(zoo.len());
        order
            .into_iter()
            .map(|i| {
                let e = &zoo.entries()[i];
                (e.wgan.config().id(), e.ads)
            })
            .collect()
    }

    /// `(config id, critic bytes, history)` of every member, in grid order.
    fn fingerprints(zoo: &ModelZoo) -> Vec<(String, Vec<u8>, Vec<crate::wgan::TrainStats>)> {
        zoo.entries()
            .iter()
            .map(|e| {
                let w = &e.wgan;
                (w.config().id(), w.critic_bytes(), w.history().to_vec())
            })
            .collect()
    }

    #[test]
    fn interrupted_grid_run_resumes_to_identical_ads_ranking() {
        let train = benign(96, 0);
        let grid = GridConfig::tiny();
        let dir = scratch_dir("resume");

        // Reference: one uninterrupted run on two threads, no
        // checkpointing.
        let reference = ModelZoo::train_grid(&grid, &train, &ZooTrainOptions::new(2))
            .unwrap()
            .zoo;
        let want_members = fingerprints(&reference);
        let want = ads_ranking(reference);

        // "Killed" run: stop after the first training group, leaving the
        // manifest naming only that group's members.
        let mut options = ZooTrainOptions::new(1);
        options.checkpoint_dir = Some(dir.clone());
        options.kill = Some(Kill::AfterGroups(1));
        let partial = ModelZoo::train_grid(&grid, &train, &options).unwrap();
        assert!(partial.zoo.len() < grid.len());

        // Resumed run: same directory, no kill. Finished members load from
        // disk; the rest train now.
        let mut options = ZooTrainOptions::new(1);
        options.checkpoint_dir = Some(dir.clone());
        let resumed = ModelZoo::train_grid(&grid, &train, &options).unwrap();
        assert_eq!(
            resumed.resumed,
            partial.zoo.len(),
            "persisted members must load, not retrain"
        );
        assert_eq!(resumed.zoo.len(), grid.len());

        // Every member bit for bit: critic bytes and history.
        let got_members = fingerprints(&resumed.zoo);
        for (g, w) in got_members.iter().zip(&want_members) {
            assert_eq!(g.0, w.0, "member id mismatch");
            assert_eq!(g.2, w.2, "history differs for {}", g.0);
            assert!(
                g.1 == w.1,
                "critic bytes differ for {} — resume is not bitwise identical",
                g.0
            );
        }

        // The acceptance bar: identical pre-evaluation ADS ranking.
        let got = ads_ranking(resumed.zoo);
        assert_eq!(
            got, want,
            "resumed zoo must rank identically to an uninterrupted run"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn manifest_from_a_different_grid_is_rejected() {
        let train = benign(96, 0);
        let dir = scratch_dir("gridswap");

        let mut options = ZooTrainOptions::new(1);
        options.checkpoint_dir = Some(dir.clone());
        options.kill = Some(Kill::AfterGroups(1));
        ModelZoo::train_grid(&GridConfig::tiny(), &train, &options).unwrap();

        // Same directory, different grid: typed mismatch, not silent reuse.
        let other = GridConfig {
            noise_dims: vec![4],
            ..GridConfig::tiny()
        };
        match ModelZoo::train_grid(&other, &train, &options) {
            Err(ZooError::Checkpoint(CheckpointError::ManifestMismatch { .. })) => {}
            other => panic!("expected ManifestMismatch, got {other:?}"),
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn zoo_kill_resume_matrix_is_bitwise_identical() {
        // Grid-level version of the mid-member guarantee: the epoch kill
        // lands mid-member / mid-group / at a group boundary, and the
        // resumed grid must be bitwise identical to an uninterrupted run.
        // GridConfig::tiny() trains 2 groups of 6 shared epochs each; the
        // kill sites cover: mid first member (1), between member budgets
        // (4), and inside the second group (7).
        let train = benign(64, 0);
        let grid = GridConfig::tiny();

        let reference = ModelZoo::train_grid(&grid, &train, &ZooTrainOptions::new(1))
            .unwrap()
            .zoo;

        for kill_after in [1usize, 4, 7] {
            let dir = scratch_dir("zookill");
            let mut options = ZooTrainOptions::new(1);
            options.checkpoint_dir = Some(dir.clone());
            options.kill = Some(Kill::AfterEpochs(kill_after));
            // Killed at epoch 1, the run has committed nothing: still `Ok`.
            let killed = ModelZoo::train_grid(&grid, &train, &options).unwrap();
            assert!(killed.zoo.len() < grid.len(), "kill_after={kill_after}");
            assert_eq!(killed.zoo.is_empty(), kill_after == 1);

            let mut options = ZooTrainOptions::new(1);
            options.checkpoint_dir = Some(dir.clone());
            let resumed = ModelZoo::train_grid(&grid, &train, &options).unwrap();
            assert_eq!(resumed.zoo.len(), grid.len());

            // Both zoos list their entries in grid order.
            for (g, w) in resumed.zoo.entries().iter().zip(reference.entries()) {
                assert_eq!(g.wgan.config().id(), w.wgan.config().id());
                assert_eq!(
                    g.wgan.history(),
                    w.wgan.history(),
                    "kill_after={kill_after}: history differs for {}",
                    g.wgan.config().id()
                );
                assert!(
                    g.wgan.critic_bytes() == w.wgan.critic_bytes(),
                    "kill_after={kill_after}: critic bytes differ for {} — resume is not bitwise identical",
                    g.wgan.config().id()
                );
            }
            let _ = fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn nan_injection_triggers_deterministic_rollback_and_retry() {
        let x = benign(48, 5);
        let config = WganConfig {
            noise_dim: 8,
            layers: 3,
            epochs: 3,
            batch_size: 16,
            n_critic: 1,
            seed: 77,
            ..WganConfig::default()
        };
        let run = |inject: bool| -> Vec<f32> {
            let mut wgan = Wgan::new(config);
            if inject {
                wgan.inject_training_fault(0, 1);
            }
            wgan.train_epochs_checked(&x, 3).unwrap();
            wgan.score_batch(&x)
        };
        let scores_a = run(true);
        let scores_b = run(true);
        assert_eq!(scores_a, scores_b, "recovery must be deterministic");
        for s in &scores_a {
            assert!(s.is_finite(), "recovered model must score finitely");
        }
        // The reseeded retry takes a different trajectory than a clean run.
        let clean = run(false);
        assert_ne!(clean, scores_a, "reseed must change the trajectory");
    }

    #[test]
    fn quarantine_survives_resume() {
        // A group that diverges unrecoverably is recorded in the manifest; a
        // resumed run carries the quarantine records instead of retraining the
        // doomed group.
        let train = benign(64, 0);
        let dir = scratch_dir("qresume");
        let mut options = ZooTrainOptions::new(1);
        options.checkpoint_dir = Some(dir.clone());
        options.fault_hook = Some(Arc::new(|wgan: &mut Wgan| {
            if wgan.config().noise_dim == 8 {
                for attempt in 0..8 {
                    wgan.inject_training_fault(attempt, 0);
                }
            }
        }));
        let first = ModelZoo::train_grid(&GridConfig::tiny(), &train, &options).unwrap();
        assert_eq!(first.quarantined.len(), 2);

        // Resume without the fault hook: the quarantine must come from the
        // manifest, not from re-diverging.
        let mut options = ZooTrainOptions::new(1);
        options.checkpoint_dir = Some(dir.clone());
        let second = ModelZoo::train_grid(&GridConfig::tiny(), &train, &options).unwrap();
        assert_eq!(second.quarantined.len(), 2);
        for q in &second.quarantined {
            assert!(
                matches!(q.reason, QuarantineReason::Recorded(_)),
                "expected manifest-carried quarantine, got {:?}",
                q.reason
            );
        }
        assert_eq!(second.resumed, second.zoo.len());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn zoo_training_runs_on_the_caller_and_the_pool() {
        let train: Vec<f32> = (0..64 * 120)
            .map(|i| (i as f32 * 0.37).sin() * 0.2)
            .collect();
        let train = Tensor::from_vec(train, &[64, 10, 12, 1]);
        // Who ran each group: its thread and that thread's name.
        let seen = Arc::new(Mutex::new(Vec::<(ThreadId, Option<String>)>::new()));
        let mut options = ZooTrainOptions::new(8);
        let record = Arc::clone(&seen);
        options.fault_hook = Some(Arc::new(move |_: &mut Wgan| {
            let me = thread::current();
            let entry = (me.id(), me.name().map(str::to_owned));
            record.lock().unwrap().push(entry);
        }));
        let report = ModelZoo::train_grid(&GridConfig::tiny(), &train, &options).unwrap();
        assert_eq!(report.zoo.len(), GridConfig::tiny().len());

        let caller = thread::current();
        let seen = seen.lock().unwrap();
        assert!(!seen.is_empty(), "the hook never ran");
        for (id, name) in seen.iter() {
            let pooled = name.as_deref().is_some_and(|n| n.starts_with("forkjoin-"));
            assert!(
                *id == caller.id() || pooled,
                "a group trained on {name:?}, neither the caller ({:?}) nor a pool helper",
                caller.name()
            );
        }
        let threads: HashSet<_> = seen.iter().map(|(id, _)| id).collect();
        let cores = thread::available_parallelism().map_or(1, |n| n.get());
        assert!(
            threads.len() <= cores,
            "{} threads trained on {cores} cores",
            threads.len()
        );
    }
}
