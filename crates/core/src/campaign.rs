//! Parallel, cache-aware evaluation data plane for the attack campaign.
//!
//! Evaluating the Table III catalog means building 35 labelled window
//! datasets over the same fleet. Only a `malicious_fraction` (paper: 25%)
//! of vehicles differ between any attack dataset and the benign one — the
//! other 75% of traces are byte-identical in all 36 datasets, yet the
//! monolithic path re-engineered, re-scaled, and re-windowed them 36
//! times. [`CampaignPlane`] computes each benign vehicle's scaled window
//! fragment **once**, then assembles every attack dataset by splicing
//! that attack's few attacker fragments over the shared benign cache —
//! in parallel across attacks, bitwise identical to the serial
//! [`build_windows`](vehigan_features::build_windows) path.
//!
//! [`score_matrix`] parallelizes the other campaign hot loop — every
//! ensemble member scoring every dataset — across members (scoring is
//! `&self` and per-member scratch is internal, so results are identical
//! to the serial nest regardless of scheduling).

use crate::ensemble::F32_NS_PER_MEMBER_ROW;
use crate::wgan::Wgan;
use vehigan_features::{
    assemble_fragments, build_fragment, engineer_trace, MinMaxScaler, WindowConfig, WindowDataset,
    WindowFragment,
};
use vehigan_sim::VehicleTrace;
use vehigan_tensor::forkjoin::fork_map;
use vehigan_vasp::{Attack, DatasetBuilder, DatasetConfig, LabeledTrace};

/// What building one vehicle's benign fragment (engineer, scale, window)
/// costs per BSM of its trace, for [`fork_map`]: 79–88 ns on one core of
/// the ledger host (4 × 40 s traces, stride 1 and 6).
const FRAGMENT_NS_PER_BSM: usize = 80;

/// What assembling one attack's dataset costs per BSM of the fleet, for
/// [`fork_map`]: the attackers' fragments built fresh and every window
/// copied once, 20–48 ns on one core of the ledger host (stride 6 and 1).
const ATTACK_NS_PER_FLEET_BSM: usize = 30;

/// BSMs across `fleet`.
fn bsms(fleet: &[VehicleTrace]) -> usize {
    fleet.iter().map(VehicleTrace::len).sum()
}

/// A reusable evaluation data plane over one fleet: the benign window
/// fragment of every vehicle, computed once and shared by every dataset
/// assembled from this plane.
///
/// # Examples
///
/// ```
/// use vehigan_core::CampaignPlane;
/// use vehigan_features::{fit_scaler, WindowConfig};
/// use vehigan_sim::{SimConfig, TrafficSimulator};
/// use vehigan_vasp::{Attack, DatasetBuilder, DatasetConfig};
///
/// let fleet = TrafficSimulator::new(SimConfig::quick_test()).run();
/// let config = WindowConfig::default();
/// let builder = DatasetBuilder::new(&fleet, DatasetConfig::default());
/// let scaler = fit_scaler(&builder.benign_dataset(), config.representation);
/// let plane = CampaignPlane::new(&fleet, DatasetConfig::default(), config, &scaler);
/// let campaign = plane.campaign(&Attack::catalog());
/// assert_eq!(campaign.len(), 35);
/// ```
pub struct CampaignPlane<'a> {
    fleet: &'a [VehicleTrace],
    dataset_config: DatasetConfig,
    window: WindowConfig,
    scaler: &'a MinMaxScaler,
    /// Benign fragment per fleet index; `None` when the trace is too
    /// short to yield a feature row.
    benign: Vec<Option<WindowFragment>>,
}

impl<'a> CampaignPlane<'a> {
    /// Builds the plane: engineers, scales, and windows every benign
    /// trace once (in parallel across vehicles).
    ///
    /// # Panics
    ///
    /// Panics if the scaler width does not match the representation or
    /// the fleet is empty.
    pub fn new(
        fleet: &'a [VehicleTrace],
        dataset_config: DatasetConfig,
        window: WindowConfig,
        scaler: &'a MinMaxScaler,
    ) -> Self {
        assert!(!fleet.is_empty(), "need at least one trace");
        let mean_bsms = bsms(fleet) / fleet.len();
        let benign = fork_map(fleet.iter(), mean_bsms * FRAGMENT_NS_PER_BSM, |trace| {
            let labeled = LabeledTrace {
                labels: vec![false; trace.len()],
                trace: trace.clone(),
                is_attacker: false,
            };
            engineer_trace(&labeled, window.representation)
                .map(|rows| build_fragment(&rows, window, scaler))
        });
        CampaignPlane {
            fleet,
            dataset_config,
            window,
            scaler,
            benign,
        }
    }

    /// The benign dataset's windows — assembled from the cached
    /// fragments, bitwise identical to
    /// `build_windows(&builder.benign_dataset(), …)`.
    pub fn benign_windows(&self) -> WindowDataset {
        assemble_fragments(self.benign.iter().flatten(), self.window)
    }

    /// One attack's labelled windows: the attacker fragments are built
    /// fresh (they differ per attack), every other vehicle reuses its
    /// cached benign fragment. Bitwise identical to
    /// `build_windows(&builder.attack_dataset(attack), …)`.
    pub(crate) fn attack_windows(&self, attack: Attack) -> WindowDataset {
        let builder = DatasetBuilder::new(self.fleet, self.dataset_config.clone());
        let attackers: Vec<(usize, Option<WindowFragment>)> = builder
            .attacker_traces(attack)
            .iter()
            .map(|(i, t)| {
                (
                    *i,
                    engineer_trace(t, self.window.representation)
                        .map(|rows| build_fragment(&rows, self.window, self.scaler)),
                )
            })
            .collect();
        let mut next_attacker = attackers.iter().peekable();
        let spliced = (0..self.fleet.len()).filter_map(|i| {
            if next_attacker.peek().is_some_and(|&&(j, _)| j == i) {
                next_attacker.next().expect("peeked").1.as_ref()
            } else {
                self.benign[i].as_ref()
            }
        });
        assemble_fragments(spliced, self.window)
    }

    /// Labelled windows for every attack, in catalog order, built in
    /// parallel across attacks. Element `i` is bitwise identical to
    /// `self.attack_windows(attacks[i])`.
    pub fn campaign(&self, attacks: &[Attack]) -> Vec<WindowDataset> {
        let ns_each = bsms(self.fleet) * ATTACK_NS_PER_FLEET_BSM;
        fork_map(attacks.iter(), ns_each, |&a| self.attack_windows(a))
    }
}

/// Scores every member on every dataset: `out[member][dataset]` are the
/// member's anomaly scores on that dataset. Members are scored in
/// parallel (each member's datasets stay serial so its internal scratch
/// is never contended); the result is identical to the serial nest.
pub fn score_matrix(members: &[&Wgan], datasets: &[&WindowDataset]) -> Vec<Vec<Vec<f32>>> {
    let rows: usize = datasets.iter().map(|ds| ds.len()).sum();
    fork_map(members.iter(), rows * F32_NS_PER_MEMBER_ROW, |m| {
        datasets.iter().map(|ds| m.score_batch(&ds.x)).collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::WganConfig;
    use vehigan_features::{build_windows, fit_scaler};
    use vehigan_sim::{SimConfig, TrafficSimulator};

    fn fleet() -> Vec<VehicleTrace> {
        TrafficSimulator::new(SimConfig {
            n_vehicles: 8,
            duration_s: 40.0,
            seed: 9,
            ..SimConfig::default()
        })
        .run()
    }

    fn setup() -> (Vec<VehicleTrace>, WindowConfig, MinMaxScaler) {
        let fleet = fleet();
        let config = WindowConfig {
            stride: 3,
            ..WindowConfig::default()
        };
        let builder = DatasetBuilder::new(&fleet, DatasetConfig::default());
        let scaler = fit_scaler(&builder.benign_dataset(), config.representation);
        (fleet, config, scaler)
    }

    fn assert_identical(a: &WindowDataset, b: &WindowDataset) {
        assert_eq!(a.x.shape(), b.x.shape());
        assert_eq!(a.x.as_slice(), b.x.as_slice(), "window bytes must match");
        assert_eq!(a.labels, b.labels);
        assert_eq!(a.vehicles, b.vehicles);
    }

    #[test]
    fn benign_windows_match_the_monolithic_build() {
        let (fleet, config, scaler) = setup();
        let plane = CampaignPlane::new(&fleet, DatasetConfig::default(), config, &scaler);
        let builder = DatasetBuilder::new(&fleet, DatasetConfig::default());
        let want = build_windows(&builder.benign_dataset(), config, &scaler);
        assert_identical(&plane.benign_windows(), &want);
    }

    #[test]
    fn attack_windows_match_the_monolithic_build() {
        let (fleet, config, scaler) = setup();
        let plane = CampaignPlane::new(&fleet, DatasetConfig::default(), config, &scaler);
        let builder = DatasetBuilder::new(&fleet, DatasetConfig::default());
        for name in ["RandomPosition", "HighSpeed", "OppositeHeading"] {
            let attack = Attack::by_name(name).unwrap();
            let want = build_windows(&builder.attack_dataset(attack), config, &scaler);
            assert_identical(&plane.attack_windows(attack), &want);
        }
    }

    #[test]
    fn parallel_campaign_matches_per_attack_assembly() {
        let (fleet, config, scaler) = setup();
        let plane = CampaignPlane::new(&fleet, DatasetConfig::default(), config, &scaler);
        let attacks: Vec<Attack> = Attack::catalog().into_iter().take(7).collect();
        let parallel = plane.campaign(&attacks);
        for (got, &attack) in parallel.iter().zip(&attacks) {
            assert_identical(got, &plane.attack_windows(attack));
        }
    }

    #[test]
    fn score_matrix_matches_the_serial_nest() {
        let (fleet, config, scaler) = setup();
        let plane = CampaignPlane::new(&fleet, DatasetConfig::default(), config, &scaler);
        let attacks: Vec<Attack> = Attack::catalog().into_iter().take(3).collect();
        let datasets = plane.campaign(&attacks);
        let refs: Vec<&WindowDataset> = datasets.iter().collect();

        let train = plane.benign_windows();
        let wgans: Vec<Wgan> = (0..2)
            .map(|i| {
                let mut w = Wgan::new(WganConfig {
                    noise_dim: 8,
                    layers: 3,
                    epochs: 1,
                    batch_size: 16,
                    n_critic: 1,
                    seed: i,
                    ..WganConfig::default()
                });
                w.train(&train.x);
                w
            })
            .collect();
        let members: Vec<&Wgan> = wgans.iter().collect();

        let got = score_matrix(&members, &refs);
        for (mi, member) in members.iter().enumerate() {
            for (di, ds) in refs.iter().enumerate() {
                assert_eq!(
                    got[mi][di],
                    member.score_batch(&ds.x),
                    "member {mi} dataset {di}"
                );
            }
        }
    }
}
