//! The served decision rule, in one place (DESIGN.md §10): a window's
//! tier-0 verdict, its int8 gate score against τ_esc, its f32 ensemble
//! score against τ, the report a flagged escalation becomes, and the
//! member subsets, minus the benched ones, that score it.
//!
//! [`StreamServer::tick`](crate::StreamServer::tick) feeds a
//! [`TieredDetector`] its admitted windows tile by tile, where they lie;
//! a serial caller feeds it one window at a time, and
//! `tests/determinism.rs` holds the two to each other bit for bit.
//! [`TieredDetector::admit`] opens each window's [`Decision`], deciding a
//! suppressed one on the score it carries; [`TieredDetector::decide`]
//! runs one [`Tile`] of screened windows through the f32 ensemble
//! (`Always`) or the int8 gate, naming the windows over τ_esc; once
//! every gate tile has passed, [`TieredDetector::escalate`] runs tier 2
//! over those in [`SCORE_TILE`] chunks.

use crate::health::MemberHealth;
use crate::server::{Decision, EscalationPolicy, ServeError, ServeMode, ServerConfig, SCORE_TILE};
use vehigan_core::VehiGan;
use vehigan_mbr::Mbr;
use vehigan_sim::VehicleId;
use vehigan_tensor::{Pieces, Windows};

/// Server ticks a member stays benched after returning non-finite
/// scores, before being reinstated into its pinned position.
const PROBATION_TICKS: u64 = 3;

/// Windows a scoring call reads where they lie, each filling one of the
/// caller's decisions.
pub trait Tile: Windows {
    /// The index, in the caller's decisions, of window `i`'s decision.
    fn decision(&self, i: usize) -> usize;
}

/// Windows in order, filling decisions in order.
impl Tile for [Pieces<'_>] {
    fn decision(&self, i: usize) -> usize {
        i
    }
}

/// `len` windows of a tile from `start`: one tier-2 scoring call.
struct Chunk<'t, T: ?Sized> {
    tile: &'t T,
    start: usize,
    len: usize,
}

impl<T: Tile + ?Sized> Windows for Chunk<'_, T> {
    fn count(&self) -> usize {
        self.len
    }

    fn window(&self, i: usize) -> Pieces<'_> {
        self.tile.window(self.start + i)
    }
}

impl<T: Tile + ?Sized> Tile for Chunk<'_, T> {
    fn decision(&self, i: usize) -> usize {
        self.tile.decision(self.start + i)
    }
}

/// The three-tier detector over a trained [`VehiGan`]: pinned member
/// subsets under serve-time health probation, the escalation policy and
/// the reports it emits.
pub struct TieredDetector<'a> {
    vehigan: &'a VehiGan,
    /// The pinned tier-2 and gate subsets.
    pub(crate) members: Vec<usize>,
    gate_members: Vec<usize>,
    /// This tick's: the pinned subsets minus the benched members.
    active: Vec<usize>,
    active_gate: Vec<usize>,
    policy: EscalationPolicy,
    /// Gate-only scoring this tick (a degraded server under a gate).
    gate_only: bool,
    /// τ of a suppressed decision, when tier 0 is armed (under a gate).
    pub(crate) tier0_tau: Option<f32>,
    pub(crate) reporter: Option<VehicleId>,
    pub(crate) health: MemberHealth,
    /// One scoring call's scores.
    scores: Vec<f32>,
    /// Members either tier dropped in any tile since the tick began.
    dropped: Vec<usize>,
    /// Reports emitted and not yet taken.
    pub(crate) reports: Vec<Mbr>,
    /// The faults the in-crate chaos tests inject.
    #[cfg(test)]
    pub(crate) faults: crate::chaos::FaultInjector,
}

impl<'a> TieredDetector<'a> {
    /// The detector `config` deploys over `vehigan`, for windows of
    /// `config.window` rows of `features` floats. Tier 0 is armed only
    /// under a gate: `Always` is the pure-f32 reference.
    ///
    /// # Errors
    ///
    /// [`ServeError::NanEscalationThreshold`],
    /// [`ServeError::Int8NotCompiled`] (a gate needs
    /// [`VehiGan::compile_int8`]), [`ServeError::BadMembers`] or
    /// [`ServeError::ShapeMismatch`].
    pub fn new(
        vehigan: &'a VehiGan,
        config: &ServerConfig,
        features: usize,
    ) -> Result<Self, ServeError> {
        let gated = match config.policy {
            EscalationPolicy::Threshold(t) if t.is_nan() => {
                return Err(ServeError::NanEscalationThreshold)
            }
            EscalationPolicy::Threshold(_) if vehigan.int8_backend().is_none() => {
                return Err(ServeError::Int8NotCompiled)
            }
            policy => policy != EscalationPolicy::Always,
        };
        let members = config
            .members
            .clone()
            .unwrap_or_else(|| (0..vehigan.k()).collect());
        let gate_members = config
            .gate_members
            .clone()
            .unwrap_or_else(|| members.clone());
        let configured = (config.window, features);
        let shape = |i: usize| {
            let critic = vehigan.members()[i].wgan.config();
            (critic.window, critic.features)
        };
        for subset in [&members, &gate_members] {
            vehigan
                .check_subset(subset)
                .map_err(ServeError::BadMembers)?;
            if let Some(&member) = subset.iter().find(|&&i| shape(i) != configured) {
                let critic = shape(member);
                return Err(ServeError::ShapeMismatch {
                    configured,
                    member,
                    critic,
                });
            }
        }
        Ok(TieredDetector {
            vehigan,
            active: members.clone(),
            active_gate: gate_members.clone(),
            members,
            gate_members,
            policy: config.policy,
            gate_only: false,
            tier0_tau: config.tier0.filter(|_| gated).map(|cal| cal.tau),
            reporter: config.reporter,
            health: MemberHealth::new(),
            scores: Vec::new(),
            dropped: Vec::new(),
            reports: Vec::new(),
            #[cfg(test)]
            faults: Default::default(),
        })
    }

    /// Opens tick `tick` in `mode`: expired probations are reinstated
    /// into their pinned positions, and benched members sit it out.
    pub(crate) fn begin(&mut self, tick: u64, mode: ServeMode) {
        self.health.release_expired(tick);
        self.health.active_into(&self.members, &mut self.active);
        self.health
            .active_into(&self.gate_members, &mut self.active_gate);
        self.gate_only = mode == ServeMode::Degraded;
        self.dropped.clear();
    }

    /// Closes tick `tick` once every tile has passed: the members a tile
    /// dropped are benched for the next few ticks.
    pub(crate) fn commit(&mut self, tick: u64) {
        self.dropped.sort_unstable();
        self.dropped.dedup();
        for &m in &self.dropped {
            self.health.bench(m, tick + PROBATION_TICKS);
        }
    }

    /// The decision of the window `vehicle` completed at `timestamp`: a
    /// carried tier-0 score decides it as suppressed, against the tier-0
    /// calibration's τ, while tier 0 is armed; any other window screens.
    pub fn admit(&self, vehicle: VehicleId, timestamp: f64, carried: Option<f32>) -> Decision {
        let mut d = Decision {
            vehicle,
            timestamp,
            score: 0.0,
            threshold: 0.0,
            escalated: false,
            flagged: false,
            suppressed: false,
        };
        if let Some((score, tau)) = carried.zip(self.tier0_tau) {
            (d.score, d.threshold) = (score, tau);
            (d.flagged, d.suppressed) = (score > tau, true);
        }
        d
    }

    /// Decides one tile of screened windows (at most [`SCORE_TILE`]) into
    /// `decisions`. Under `Always` the f32 ensemble decides each window
    /// and a flagged one is reported; under a gate each window takes its
    /// int8 gate score — flagged against the gate's τ only when scoring
    /// gate-only — and `escalate(i)` names each window `i` whose score
    /// crosses τ_esc, for [`TieredDetector::escalate`].
    ///
    /// # Errors
    ///
    /// [`ServeError::Score`] when every member fails on the tile.
    pub fn decide(
        &mut self,
        tile: &(impl Tile + ?Sized),
        decisions: &mut [Decision],
        mut escalate: impl FnMut(usize),
    ) -> Result<(), ServeError> {
        let EscalationPolicy::Threshold(tau_esc) = self.policy else {
            return self.confirm(tile, decisions);
        };
        let tau = self.score(tile, true)?;
        for (i, &score) in self.scores.iter().enumerate() {
            let d = &mut decisions[tile.decision(i)];
            (d.score, d.threshold) = (score, tau);
            d.flagged = self.gate_only && score > tau;
            if !self.gate_only && score > tau_esc {
                escalate(i);
            }
        }
        Ok(())
    }

    /// Tier 2 under a gate: the full f32 ensemble re-scores the windows
    /// [`TieredDetector::decide`] escalated, in [`SCORE_TILE`] chunks,
    /// and decides them in place of the gate; a flagged one is reported.
    ///
    /// # Errors
    ///
    /// [`ServeError::Score`] when every member fails on a chunk.
    pub fn escalate(
        &mut self,
        escalated: &(impl Tile + ?Sized),
        decisions: &mut [Decision],
    ) -> Result<(), ServeError> {
        for start in (0..escalated.count()).step_by(SCORE_TILE) {
            let len = SCORE_TILE.min(escalated.count() - start);
            let chunk = Chunk {
                tile: escalated,
                start,
                len,
            };
            self.confirm(&chunk, decisions)?;
        }
        Ok(())
    }

    /// Drains the misbehavior reports emitted since the last call, in
    /// decision order.
    pub fn take_reports(&mut self) -> Vec<Mbr> {
        std::mem::take(&mut self.reports)
    }

    /// Decides each window of `tile` on its f32 ensemble score, and turns
    /// a flagged one into a report under the reporter, carrying its
    /// window as evidence. The scaler clamps rows to [-1, 1], so a report
    /// passes `Mbr::validate`'s domain check.
    fn confirm(
        &mut self,
        tile: &(impl Tile + ?Sized),
        decisions: &mut [Decision],
    ) -> Result<(), ServeError> {
        let tau = self.score(tile, false)?;
        for (i, &score) in self.scores.iter().enumerate() {
            let d = &mut decisions[tile.decision(i)];
            (d.score, d.threshold) = (score, tau);
            (d.escalated, d.flagged) = (true, score > tau);
            if let Some(reporter) = self.reporter.filter(|&r| d.flagged && d.vehicle != r) {
                self.reports.push(Mbr {
                    reporter,
                    suspect: d.vehicle,
                    timestamp: d.timestamp,
                    score,
                    threshold: tau,
                    evidence: tile.window(i).concat(),
                });
            }
        }
        Ok(())
    }

    /// Scores one tile through one backend into `self.scores`, returning
    /// the τ of the members that survived *it*; those dropped for
    /// non-finite scores join `self.dropped`. Both backends are batch-row
    /// independent, so neither the tile a window shares nor where it lies
    /// can change its score. In a test build, the members the chaos
    /// tests' fault injector poisons leave the subset first.
    fn score(&mut self, tile: &(impl Tile + ?Sized), int8: bool) -> Result<f32, ServeError> {
        self.scores.clear();
        self.scores.resize(tile.count(), 0.0);
        let members = if int8 {
            &self.active_gate
        } else {
            &self.active
        };
        #[cfg(test)]
        let members = &self.faults.survivors(members, &mut self.dropped)?;
        let summary = if int8 {
            self.vehigan
                .score_with_members_int8_into(members, tile, &mut self.scores)
        } else {
            self.vehigan
                .score_with_members_into(members, tile, &mut self.scores)
        }
        .map_err(ServeError::Score)?;
        self.dropped.extend(summary.dropped);
        Ok(summary.threshold)
    }
}
