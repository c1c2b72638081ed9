//! Labelled misbehavior dataset assembly.
//!
//! Mirrors the paper's data generation (§IV-A): benign traces from the
//! traffic simulator plus, per attack, a copy of the fleet in which a
//! fraction of vehicles (paper: 25%) persistently transmit falsified BSMs.

use crate::attack::Attack;
use crate::inject::{inject, AttackParams, AttackPolicy};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use vehigan_sim::VehicleTrace;

/// Configuration for dataset assembly.
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetConfig {
    /// Fraction of vehicles that are attackers (paper: 0.25).
    pub(crate) malicious_fraction: f64,
    /// Seed for attacker selection and falsified-value sampling.
    pub(crate) seed: u64,
}

impl Default for DatasetConfig {
    fn default() -> Self {
        DatasetConfig {
            malicious_fraction: 0.25,
            seed: 0,
        }
    }
}

/// When an attacker transmits falsified messages: always, as in the
/// paper's dataset (§IV-A). Every attacker falsifies within
/// [`AttackParams::default`]'s value ranges.
const ATTACK_POLICY: AttackPolicy = AttackPolicy::Persistent;

/// One vehicle's labelled message stream.
#[derive(Debug, Clone, PartialEq)]
pub struct LabeledTrace {
    /// The messages as the MBDS receives them.
    pub trace: VehicleTrace,
    /// Per-message misbehavior ground truth.
    pub labels: Vec<bool>,
    /// Whether this vehicle is an attacker.
    pub is_attacker: bool,
}

/// A full labelled dataset for one scenario (benign or one attack type).
#[derive(Debug, Clone, PartialEq)]
pub struct MisbehaviorDataset {
    /// The attack applied, or `None` for the benign dataset.
    pub attack: Option<Attack>,
    /// Per-vehicle labelled traces.
    pub traces: Vec<LabeledTrace>,
}

/// Builds benign and per-attack datasets from a fleet of benign traces.
///
/// # Examples
///
/// ```
/// use vehigan_sim::{SimConfig, TrafficSimulator};
/// use vehigan_vasp::{Attack, DatasetBuilder, DatasetConfig};
///
/// let traces = TrafficSimulator::new(SimConfig::quick_test()).run();
/// let builder = DatasetBuilder::new(&traces, DatasetConfig::default());
/// let ds = builder.attack_dataset(Attack::by_name("HighSpeed").unwrap());
/// assert!(ds.traces.iter().any(|t| t.is_attacker));
/// ```
#[derive(Debug)]
pub struct DatasetBuilder<'a> {
    benign: &'a [VehicleTrace],
    config: DatasetConfig,
}

impl<'a> DatasetBuilder<'a> {
    /// Creates a builder over a benign fleet.
    ///
    /// # Panics
    ///
    /// Panics if the fleet is empty or the malicious fraction is outside
    /// `(0, 1)`.
    pub fn new(benign: &'a [VehicleTrace], config: DatasetConfig) -> Self {
        assert!(!benign.is_empty(), "need at least one benign trace");
        assert!(
            config.malicious_fraction > 0.0 && config.malicious_fraction < 1.0,
            "malicious fraction must be in (0, 1)"
        );
        DatasetBuilder { benign, config }
    }

    /// The fully benign dataset (labels all `false`).
    pub fn benign_dataset(&self) -> MisbehaviorDataset {
        MisbehaviorDataset {
            attack: None,
            traces: self
                .benign
                .iter()
                .map(|t| LabeledTrace {
                    labels: vec![false; t.len()],
                    trace: t.clone(),
                    is_attacker: false,
                })
                .collect(),
        }
    }

    /// Only the attacked traces of [`Self::attack_dataset`], keyed by
    /// fleet index and sorted by it.
    ///
    /// Drives the exact RNG stream `attack_dataset` uses (selection
    /// shuffle, then per-attacker injection in ascending fleet order), so
    /// splicing these traces over the benign fleet reproduces
    /// `attack_dataset` bit for bit. The campaign evaluation plane relies
    /// on this to rebuild only the ~25% attacker slice per attack while
    /// sharing the benign 75% across all 35 datasets.
    pub fn attacker_traces(&self, attack: Attack) -> Vec<(usize, LabeledTrace)> {
        let attack_salt = attack
            .name()
            .bytes()
            .fold(0u64, |h, b| h.wrapping_mul(31).wrapping_add(b as u64));
        let mut rng = StdRng::seed_from_u64(self.config.seed ^ attack_salt);
        let n = self.benign.len();
        let n_attackers = ((n as f64 * self.config.malicious_fraction).round() as usize)
            .clamp(1, n.saturating_sub(1).max(1));
        let mut indices: Vec<usize> = (0..n).collect();
        indices.shuffle(&mut rng);
        let mut attacker_indices: Vec<usize> = indices.into_iter().take(n_attackers).collect();
        // Injection must consume the RNG in ascending fleet order — the
        // stream contract the monolithic builder established.
        attacker_indices.sort_unstable();

        let params = AttackParams::default();
        attacker_indices
            .into_iter()
            .map(|i| {
                let attacked = inject(&self.benign[i], attack, ATTACK_POLICY, &params, &mut rng);
                (
                    i,
                    LabeledTrace {
                        trace: attacked.trace,
                        labels: attacked.labels,
                        is_attacker: true,
                    },
                )
            })
            .collect()
    }

    /// A dataset where a `malicious_fraction` of vehicles run `attack`.
    ///
    /// Attacker selection is deterministic in `(config.seed, attack)` so
    /// different attacks pick (mostly) different vehicle subsets, like
    /// separate VASP runs.
    pub fn attack_dataset(&self, attack: Attack) -> MisbehaviorDataset {
        let mut attackers = self.attacker_traces(attack).into_iter().peekable();
        let traces = self
            .benign
            .iter()
            .enumerate()
            .map(|(i, t)| {
                if attackers.peek().is_some_and(|&(j, _)| j == i) {
                    attackers.next().expect("peeked").1
                } else {
                    LabeledTrace {
                        labels: vec![false; t.len()],
                        trace: t.clone(),
                        is_attacker: false,
                    }
                }
            })
            .collect();
        MisbehaviorDataset {
            attack: Some(attack),
            traces,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vehigan_sim::{SimConfig, TrafficSimulator};

    fn num_attackers(ds: &MisbehaviorDataset) -> usize {
        ds.traces.iter().filter(|t| t.is_attacker).count()
    }

    fn fleet() -> Vec<VehicleTrace> {
        TrafficSimulator::new(SimConfig {
            n_vehicles: 8,
            duration_s: 40.0,
            seed: 5,
            ..SimConfig::default()
        })
        .run()
    }

    #[test]
    fn benign_dataset_has_no_positive_labels() {
        let traces = fleet();
        let ds = DatasetBuilder::new(&traces, DatasetConfig::default()).benign_dataset();
        assert!(ds.attack.is_none());
        assert!(ds.traces.iter().all(|t| t.labels.iter().all(|&l| !l)));
        assert_eq!(num_attackers(&ds), 0);
    }

    #[test]
    fn attacker_fraction_respected() {
        let traces = fleet();
        let ds = DatasetBuilder::new(&traces, DatasetConfig::default())
            .attack_dataset(Attack::by_name("RandomSpeed").unwrap());
        assert_eq!(num_attackers(&ds), 2); // 25% of 8
    }

    #[test]
    fn attacker_traces_are_labelled() {
        let traces = fleet();
        let ds = DatasetBuilder::new(&traces, DatasetConfig::default())
            .attack_dataset(Attack::by_name("HighSpeed").unwrap());
        for t in &ds.traces {
            if t.is_attacker {
                assert!(t.labels.iter().all(|&l| l)); // persistent policy
            } else {
                assert!(t.labels.iter().all(|&l| !l));
            }
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let traces = fleet();
        let attack = Attack::by_name("RandomHeading").unwrap();
        let a = DatasetBuilder::new(&traces, DatasetConfig::default()).attack_dataset(attack);
        let b = DatasetBuilder::new(&traces, DatasetConfig::default()).attack_dataset(attack);
        assert_eq!(a, b);
    }

    #[test]
    fn different_attacks_pick_different_attackers_sometimes() {
        let traces = fleet();
        let builder = DatasetBuilder::new(&traces, DatasetConfig::default());
        let sets: Vec<Vec<bool>> = Attack::catalog()
            .iter()
            .take(6)
            .map(|&a| {
                builder
                    .attack_dataset(a)
                    .traces
                    .iter()
                    .map(|t| t.is_attacker)
                    .collect()
            })
            .collect();
        assert!(sets.windows(2).any(|w| w[0] != w[1]));
    }

    #[test]
    fn attacker_traces_preserve_the_monolithic_rng_stream() {
        // Reimplements the pre-refactor attack_dataset (one RNG, shuffle
        // then inject-on-the-fly in fleet order) and checks the staged
        // attacker_traces/splice path reproduces it bit for bit.
        let traces = fleet();
        let config = DatasetConfig::default();
        let attack = Attack::by_name("RandomPosition").unwrap();
        let attack_salt = attack
            .name()
            .bytes()
            .fold(0u64, |h, b| h.wrapping_mul(31).wrapping_add(b as u64));
        let mut rng = StdRng::seed_from_u64(config.seed ^ attack_salt);
        let n = traces.len();
        let n_attackers = ((n as f64 * config.malicious_fraction).round() as usize)
            .clamp(1, n.saturating_sub(1).max(1));
        let mut indices: Vec<usize> = (0..n).collect();
        indices.shuffle(&mut rng);
        let attacker_set: std::collections::HashSet<usize> =
            indices.into_iter().take(n_attackers).collect();
        let expected: Vec<LabeledTrace> = traces
            .iter()
            .enumerate()
            .map(|(i, t)| {
                if attacker_set.contains(&i) {
                    let attacked =
                        inject(t, attack, ATTACK_POLICY, &AttackParams::default(), &mut rng);
                    LabeledTrace {
                        trace: attacked.trace,
                        labels: attacked.labels,
                        is_attacker: true,
                    }
                } else {
                    LabeledTrace {
                        labels: vec![false; t.len()],
                        trace: t.clone(),
                        is_attacker: false,
                    }
                }
            })
            .collect();

        let ds = DatasetBuilder::new(&traces, config.clone()).attack_dataset(attack);
        assert_eq!(ds.traces, expected);

        let staged = DatasetBuilder::new(&traces, config).attacker_traces(attack);
        assert_eq!(staged.len(), n_attackers);
        for (i, t) in &staged {
            assert_eq!(&expected[*i], t);
        }
    }
}
