//! The served decision rule, replayed offline over a campaign dataset:
//! `Screened::dataset` runs every window through one [`TieredDetector`]
//! (`admit(.., None)`, `decide` on tiles of at most [`SCORE_TILE`]
//! windows cut from the dataset's tensor, then `escalate`) and keeps its
//! gate score; `Screened::serve` walks the traces in dataset (fleet)
//! order with one [`Suppression`] per trace, and at each window boundary
//! takes the carried score (`admit(.., Some(carried))`) or the screened
//! decision, recording its gate score. Both scoring backends are
//! batch-row independent, so at stride 1 these are a
//! [`StreamServer`](vehigan_serve::StreamServer)'s decisions bit for bit
//! (the unit test below). At a larger stride a trace's `Suppression`
//! steps once per dataset window, where the server completes a window on
//! every BSM.

use std::collections::HashMap;
use vehigan_features::Suppression;
use vehigan_serve::{Decision, EscalationPolicy, ServerConfig, TieredDetector, SCORE_TILE};
use vehigan_sim::{Bsm, VehicleId, VehicleTrace};
use vehigan_tensor::{Pieces, Tensor};

use crate::harness::Harness;

/// Maximum tolerated per-attack AUROC change of a served path against
/// its reference: the int8 gate and the gate+escalation mixture against
/// f32 (`quant`, absolute), and tier 0 against always-tier-1 (`tier0`,
/// signed — suppressing a benign false positive can only improve the
/// ranking, and an improvement must not trip the budget).
pub(crate) const AUROC_DELTA_BUDGET: f64 = 0.01;

/// A configuration over the harness's windows: `policy`, with `members`
/// pinned for both tiers and no tier 0.
pub(crate) fn config(
    harness: &Harness,
    policy: EscalationPolicy,
    members: Vec<usize>,
) -> ServerConfig {
    ServerConfig {
        window: harness.pipeline.config.window.window,
        policy,
        members: Some(members),
        ..ServerConfig::default()
    }
}

/// The detector `config` deploys over the harness's ensemble.
pub(crate) fn detector<'h>(harness: &'h Harness, config: &ServerConfig) -> TieredDetector<'h> {
    let width = harness.pipeline.scaler.width();
    TieredDetector::new(&harness.pipeline.vehigan, config, width).expect("detector builds")
}

/// A campaign dataset's traces in its window order: the fleet, each
/// attacker's trace in place of its benign one.
pub(crate) fn dataset_traces<'a>(
    fleet: &'a [VehicleTrace],
    attackers: &'a HashMap<usize, Vec<Bsm>>,
) -> Vec<&'a [Bsm]> {
    let trace =
        |(i, t): (usize, &'a VehicleTrace)| attackers.get(&i).map_or(&t.bsms[..], |b| &b[..]);
    fleet.iter().enumerate().map(trace).collect()
}

/// Walks a trace pair by pair, calling `step(prev, curr, completes)`,
/// where `completes` says that `curr` completes a dataset window: window
/// `k` (stride `s`) covers feature rows `[k·s, k·s + window)`, and row
/// `j` comes from messages `(j, j + 1)`, so it completes at message
/// `k·s + window`.
pub(crate) fn walk(
    bsms: &[Bsm],
    window: usize,
    stride: usize,
    mut step: impl FnMut(&Bsm, &Bsm, bool),
) {
    for (i, pair) in bsms.windows(2).enumerate() {
        let at = i + 1;
        let completes = at >= window && (at - window).is_multiple_of(stride);
        step(&pair[0], &pair[1], completes);
    }
}

/// A dataset's windows decided by the screening tiers alone — the int8
/// gate and, over τ_esc, the f32 ensemble; under `Always` the ensemble —
/// with each window's gate score (its decided score under `Always`).
#[derive(Debug, Clone)]
pub(crate) struct Screened {
    /// One decision per window, in dataset order.
    pub decisions: Vec<Decision>,
    /// Each window's gate score: what a screened window records.
    pub gate: Vec<f32>,
}

impl Screened {
    /// Screens the windows of `x`, none tied to a vehicle: each decision
    /// names vehicle 0 at time 0.
    pub(crate) fn windows(detector: &mut TieredDetector<'_>, x: &Tensor) -> Screened {
        let open = detector.admit(VehicleId(0), 0.0, None);
        Self::screen(detector, x, vec![open; x.shape()[0]])
    }

    /// Screens a campaign dataset: its windows `x`, which its `traces`
    /// complete at `stride`. Each decision names the pseudonym and
    /// timestamp of the message that completes its window.
    pub(crate) fn dataset(
        detector: &mut TieredDetector<'_>,
        traces: &[&[Bsm]],
        x: &Tensor,
        stride: usize,
    ) -> Screened {
        let mut decisions = Vec::with_capacity(x.shape()[0]);
        for bsms in traces {
            walk(bsms, x.shape()[1], stride, |_, curr, completes| {
                if completes {
                    decisions.push(detector.admit(curr.vehicle_id, curr.timestamp, None));
                }
            });
        }
        Self::screen(detector, x, decisions)
    }

    /// Decides the windows of `x` into their opened `decisions`, tile by
    /// tile, then runs tier 2 once over every window the gate escalated.
    fn screen(
        detector: &mut TieredDetector<'_>,
        x: &Tensor,
        mut decisions: Vec<Decision>,
    ) -> Screened {
        assert_eq!(decisions.len(), x.shape()[0], "misaligned windows");
        let len = x.shape()[1..].iter().product();
        let windows: Vec<Pieces<'_>> = x.as_slice().chunks(len).map(|w| [w, &[][..]]).collect();
        let mut escalated = Vec::new();
        for (t, tile) in windows.chunks(SCORE_TILE).enumerate() {
            let start = t * SCORE_TILE;
            let tile_decisions = &mut decisions[start..start + tile.len()];
            detector
                .decide(tile, tile_decisions, |i| escalated.push(start + i))
                .expect("a tile scores");
        }
        let gate = scores(&decisions);
        let picked: Vec<Pieces<'_>> = escalated.iter().map(|&i| windows[i]).collect();
        let mut confirmed: Vec<Decision> = escalated.iter().map(|&i| decisions[i]).collect();
        detector
            .escalate(&picked[..], &mut confirmed)
            .expect("tier 2 scores");
        for (&i, d) in escalated.iter().zip(confirmed) {
            decisions[i] = d;
        }
        Screened { decisions, gate }
    }

    /// The decisions the server makes under `config` on the dataset these
    /// windows came from (see [`Screened::dataset`]). With tier 0 armed —
    /// a calibration, under a gate — each trace steps one `Suppression`:
    /// a window it carries a score for is decided on that score by
    /// `detector` (built from `config`), any other takes its screened
    /// decision and records its gate score. Otherwise the screened
    /// decisions are the served ones.
    pub(crate) fn serve(
        &self,
        detector: &TieredDetector<'_>,
        config: &ServerConfig,
        traces: &[&[Bsm]],
        stride: usize,
    ) -> Vec<Decision> {
        let (Some(cal), EscalationPolicy::Threshold(_)) = (&config.tier0, config.policy) else {
            return self.decisions.clone();
        };
        let mut served = Vec::with_capacity(self.decisions.len());
        for bsms in traces {
            let mut suppression = Suppression::new(cal);
            walk(bsms, config.window, stride, |prev, curr, completes| {
                suppression.push(cal, prev, curr);
                if !completes {
                    return;
                }
                let i = served.len();
                served.push(match suppression.complete(cal) {
                    Some(carried) => detector.admit(curr.vehicle_id, curr.timestamp, Some(carried)),
                    None => {
                        suppression.record(self.gate[i]);
                        self.decisions[i]
                    }
                });
            });
        }
        assert_eq!(served.len(), self.decisions.len(), "misaligned traces");
        served
    }
}

/// The decided scores, in order.
pub(crate) fn scores(decisions: &[Decision]) -> Vec<f32> {
    decisions.iter().map(|d| d.score).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use vehigan_core::{Pipeline, PipelineConfig};
    use vehigan_features::{
        assemble_fragments, build_fragment, engineer_trace, Tier0Calibration, WindowConfig,
        WindowFragment,
    };
    use vehigan_serve::{escalation_threshold, StreamServer};
    use vehigan_tensor::init::seeded_rng;
    use vehigan_vasp::{inject, Attack, AttackParams, AttackPolicy};

    /// Every field of a decision, floats as bits.
    fn bits(d: &Decision) -> (u32, u64, u32, u32, bool, bool, bool) {
        (
            d.vehicle.0,
            d.timestamp.to_bits(),
            d.score.to_bits(),
            d.threshold.to_bits(),
            d.escalated,
            d.flagged,
            d.suppressed,
        )
    }

    /// At stride 1 the dataset's windows are the windows a server
    /// completes, one per BSM: the replay must decide each as a tier-0
    /// gated server does, every field bitwise, and without tier 0 its
    /// served decisions are the screened ones.
    #[test]
    fn the_replay_decides_like_a_tier0_gated_server_at_stride_1() {
        let mut p = Pipeline::run(PipelineConfig::tiny());
        p.compile_int8().expect("int8 backend compiles");
        let fleet = p.test_fleet();

        // The test fleet, vehicle 0 running a persistent position attack.
        let attack = Attack::by_name("RandomPosition").expect("attack exists");
        let persistent = AttackPolicy::Persistent;
        let params = AttackParams::default();
        let attacked = inject(&fleet[0], attack, persistent, &params, &mut seeded_rng(11));
        let attackers = HashMap::from([(0, attacked.trace.bsms.clone())]);
        let traces = dataset_traces(fleet, &attackers);
        let stride_1 = WindowConfig {
            stride: 1,
            ..p.config.window
        };
        let dataset =
            std::iter::once((&attacked.trace, true)).chain(fleet[1..].iter().map(|t| (t, false)));
        let fragments: Vec<WindowFragment> = dataset
            .filter_map(|(t, malicious)| engineer_trace(t, malicious, stride_1.representation))
            .map(|rows| build_fragment(&rows, stride_1, &p.scaler))
            .collect();
        let x = assemble_fragments(&fragments, stride_1).x;

        // A gate sending the top quarter of these windows on to tier 2,
        // and tier 0 carrying gate scores below the detection threshold.
        let members: Vec<usize> = (0..p.vehigan.k()).collect();
        let gate = p.vehigan.score_with_members_int8(&members, &x).unwrap();
        let tau_esc = escalation_threshold(&gate.scores, 75.0);
        let mut cal = Tier0Calibration::fit(p.train_fleet(), stride_1.window, 0.995).unwrap();
        let tau = members
            .iter()
            .map(|&i| p.vehigan.members()[i].threshold)
            .sum::<f32>()
            / members.len() as f32;
        cal.set_score_band(0.05, 0.1, tau);
        let config = ServerConfig {
            n_shards: 3,
            window: stride_1.window,
            policy: EscalationPolicy::Threshold(tau_esc),
            members: Some(members),
            tier0: Some(cal),
            ..ServerConfig::default()
        };

        let mut detector = TieredDetector::new(&p.vehigan, &config, p.scaler.width()).unwrap();
        let screened = Screened::dataset(&mut detector, &traces, &x, 1);
        let served = screened.serve(&detector, &config, &traces, 1);
        let count = |f: fn(&Decision) -> bool| served.iter().filter(|d| f(d)).count();
        assert!(count(|d| d.suppressed) > 0, "tier 0 suppressed nothing");
        assert!(count(|d| d.escalated) > 0, "nothing escalated");
        assert!(
            count(|d| !d.suppressed && !d.escalated) > 0,
            "the gate decided nothing"
        );

        // The server, fed the traces interleaved by timestamp in slices
        // that end before any vehicle's second BSM, one tick per slice:
        // every gate score is recorded before the vehicle's next window.
        let mut stream: Vec<Bsm> = traces.concat();
        stream.sort_by(|a, b| {
            a.timestamp
                .total_cmp(&b.timestamp)
                .then(a.vehicle_id.cmp(&b.vehicle_id))
        });
        let mut slices = vec![0];
        let mut in_slice = HashSet::new();
        for (i, bsm) in stream.iter().enumerate() {
            if !in_slice.insert(bsm.vehicle_id) {
                slices.push(i);
                in_slice = HashSet::from([bsm.vehicle_id]);
            }
        }
        slices.push(stream.len());
        let mut server = StreamServer::new(&p.vehigan, p.scaler.clone(), config.clone()).unwrap();
        let mut decided = HashMap::new();
        for slice in slices.windows(2).map(|r| &stream[r[0]..r[1]]) {
            server.ingest_batch(slice);
            for d in server.tick().unwrap() {
                let key = (d.vehicle, d.timestamp.to_bits());
                assert!(
                    decided.insert(key, bits(&d)).is_none(),
                    "{d:?} decided twice"
                );
            }
        }
        assert_eq!(
            decided.len(),
            served.len(),
            "the server decided other windows"
        );
        for d in &served {
            let key = (d.vehicle, d.timestamp.to_bits());
            assert_eq!(
                decided.get(&key),
                Some(&bits(d)),
                "diverged from the server"
            );
        }

        let ungated = ServerConfig {
            tier0: None,
            ..config
        };
        let unsuppressed = screened.serve(&detector, &ungated, &traces, 1);
        assert_eq!(unsuppressed, screened.decisions);
    }
}
