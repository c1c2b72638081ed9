//! Attack dataset assembly.
//!
//! Mirrors the paper's data generation (§IV-A): benign traces from the
//! traffic simulator plus, per attack, a copy of the fleet in which a
//! fraction of vehicles (paper: 25%) persistently transmit falsified BSMs.
//! Ground truth is one bit per vehicle: whether [`DatasetBuilder::attacker_traces`]
//! names it.

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

/// Picks each attack's attackers from a fleet of benign traces and
/// falsifies their messages.
///
/// # Examples
///
/// ```
/// use vehigan_sim::{SimConfig, TrafficSimulator};
/// use vehigan_vasp::{Attack, DatasetBuilder, DatasetConfig};
///
/// let fleet = TrafficSimulator::new(SimConfig::quick_test()).run();
/// let builder = DatasetBuilder::new(&fleet, DatasetConfig::default());
/// let attackers = builder.attacker_traces(Attack::by_name("HighSpeed").unwrap());
/// assert!(!attackers.is_empty());
/// for (i, trace) in &attackers {
///     assert_eq!(trace.id, fleet[*i].id);
/// }
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

    /// The attacked traces of `attack`'s dataset, keyed by fleet index
    /// and sorted by it; every other vehicle of the dataset transmits its
    /// benign trace.
    ///
    /// A `malicious_fraction` of the fleet attacks. Which vehicles do is
    /// deterministic in `(config.seed, attack)`, so different attacks pick
    /// (mostly) different vehicle subsets, like separate VASP runs. One
    /// RNG shuffles the fleet, then injects each attacker in ascending
    /// fleet order.
    pub fn attacker_traces(&self, attack: Attack) -> Vec<(usize, VehicleTrace)> {
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
        attacker_indices.sort_unstable();

        let params = AttackParams::default();
        attacker_indices
            .into_iter()
            .map(|i| {
                let attacked = inject(&self.benign[i], attack, ATTACK_POLICY, &params, &mut rng);
                (i, attacked.trace)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vehigan_sim::{SimConfig, TrafficSimulator};

    fn fleet() -> Vec<VehicleTrace> {
        TrafficSimulator::new(SimConfig {
            n_vehicles: 8,
            duration_s: 40.0,
            seed: 5,
            ..SimConfig::default()
        })
        .run()
    }

    fn attacker_set(builder: &DatasetBuilder<'_>, attack: Attack) -> Vec<usize> {
        builder
            .attacker_traces(attack)
            .iter()
            .map(|(i, _)| *i)
            .collect()
    }

    #[test]
    fn attacker_fraction_respected() {
        let traces = fleet();
        let builder = DatasetBuilder::new(&traces, DatasetConfig::default());
        let attackers = attacker_set(&builder, Attack::by_name("RandomSpeed").unwrap());
        assert_eq!(attackers.len(), 2); // 25% of 8
    }

    #[test]
    fn attacker_traces_are_sorted_and_stand_in_for_their_vehicle() {
        let traces = fleet();
        let builder = DatasetBuilder::new(&traces, DatasetConfig::default());
        let attackers = builder.attacker_traces(Attack::by_name("HighSpeed").unwrap());
        assert!(attackers.windows(2).all(|w| w[0].0 < w[1].0));
        for (i, t) in &attackers {
            assert_eq!(t.id, traces[*i].id);
            assert_eq!(t.len(), traces[*i].len());
            assert_ne!(t, &traces[*i]);
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let traces = fleet();
        let attack = Attack::by_name("RandomHeading").unwrap();
        let a = DatasetBuilder::new(&traces, DatasetConfig::default()).attacker_traces(attack);
        let b = DatasetBuilder::new(&traces, DatasetConfig::default()).attacker_traces(attack);
        assert_eq!(a, b);
    }

    #[test]
    fn different_attacks_pick_different_attackers_sometimes() {
        let traces = fleet();
        let builder = DatasetBuilder::new(&traces, DatasetConfig::default());
        let sets: Vec<Vec<usize>> = Attack::catalog()
            .iter()
            .take(6)
            .map(|&a| attacker_set(&builder, a))
            .collect();
        assert!(sets.windows(2).any(|w| w[0] != w[1]));
    }

    #[test]
    fn attacker_traces_preserve_the_monolithic_rng_stream() {
        // The dataset's original RNG contract, written out: one RNG
        // shuffles the fleet, then falsifies each attacker on the fly in
        // fleet order. attacker_traces must reproduce it bit for bit.
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
        let expected: Vec<(usize, VehicleTrace)> = traces
            .iter()
            .enumerate()
            .filter(|(i, _)| attacker_set.contains(i))
            .map(|(i, t)| {
                let attacked = inject(t, attack, ATTACK_POLICY, &AttackParams::default(), &mut rng);
                (i, attacked.trace)
            })
            .collect();

        let staged = DatasetBuilder::new(&traces, config).attacker_traces(attack);
        assert_eq!(staged.len(), n_attackers);
        assert_eq!(staged, expected);
    }
}
