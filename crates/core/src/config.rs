//! WGAN hyperparameter configuration and the grid-search space (§III-D,
//! §IV-A.1).

/// How the critic's Lipschitz constraint is enforced.
///
/// The Wasserstein objective (Eq. 1) requires a 1-Lipschitz critic. The
/// original WGAN clips weights to `[-c, c]`; at small training budgets
/// clipping binarizes the weights (everything saturates at ±c), crippling
/// the critic. Spectral normalization divides each weight matrix by its
/// largest singular value (one power-iteration step per update) —
/// first-order only, so it fits this stack, and far better conditioned.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LipschitzMode {
    /// Original WGAN weight clipping to `[-0.03, 0.03]`.
    Clip,
    /// Spectral normalization of all weight matrices (σ ≤ 1).
    Spectral,
    /// WGAN-GP: a gradient penalty `λ(‖∇ₓD(x̂)‖ − 1)²` at real/fake
    /// interpolates, with the second-order parameter gradient computed by
    /// a finite-difference directional derivative (two extra first-order
    /// passes per critic step). Drives `‖∇ₓD‖ → 1` at the data, which is
    /// what gives WGAN critics their sharp, well-conditioned scores (and
    /// what the paper's FGSM attack magnitudes implicitly rely on).
    GradientPenalty {
        /// Penalty weight λ (Gulrajani et al. use 10).
        lambda: f32,
    },
}

/// Hyperparameters of a single WGAN instance.
///
/// Paper defaults (§IV-A.1): batch size 128, learning rate 1e-3, 2×2
/// kernels, LeakyReLU; noise dims {8, 16, 32, 48, 64}; layer counts
/// {6, 7, 8}; epochs {25, 50, 75, 100}.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WganConfig {
    /// Noise vector dimension `d` of the generator input.
    pub noise_dim: usize,
    /// Number of weight layers in the critic (convs + final dense).
    pub layers: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// RMSProp learning rate.
    pub learning_rate: f32,
    /// Lipschitz enforcement mode for the critic.
    pub lipschitz: LipschitzMode,
    /// Critic updates per generator update.
    pub n_critic: usize,
    /// Snapshot window length `w`.
    pub window: usize,
    /// Snapshot feature count `f`.
    pub features: usize,
    /// Post-init gain on the generator's output layer. Values > 1 widen
    /// the initial fake distribution so the critic sees fakes across the
    /// whole feature cube from the first step instead of a blob at the
    /// origin (which would teach it "large magnitude ⇒ real" and invert
    /// its ranking of saturated attack windows).
    pub g_output_gain: f32,
    /// RNG seed (weights, noise, batching).
    pub seed: u64,
}

impl Default for WganConfig {
    fn default() -> Self {
        WganConfig {
            noise_dim: 32,
            layers: 6,
            epochs: 25,
            batch_size: 128,
            learning_rate: 1e-4,
            lipschitz: LipschitzMode::GradientPenalty { lambda: 10.0 },
            n_critic: 3,
            window: 10,
            features: 12,
            g_output_gain: 4.0,
            seed: 0,
        }
    }
}

impl WganConfig {
    /// A deterministic human-readable identifier, e.g. `z32-l6-e25-s0`.
    pub fn id(&self) -> String {
        format!(
            "z{}-l{}-e{}-s{}",
            self.noise_dim, self.layers, self.epochs, self.seed
        )
    }

    /// Validates structural constraints.
    ///
    /// # Panics
    ///
    /// Panics if the window/feature sizes are not even (the generator
    /// upsamples a half-size seed) or the layer count is below 3.
    pub(crate) fn validate(&self) {
        assert!(self.layers >= 3, "critic needs at least 3 weight layers");
        assert!(
            self.window >= 2 && self.window.is_multiple_of(2),
            "window must be even and ≥ 2"
        );
        assert!(
            self.features >= 2 && self.features.is_multiple_of(2),
            "features must be even and ≥ 2"
        );
        assert!(self.noise_dim > 0, "noise dim must be positive");
        assert!(self.epochs > 0, "epochs must be positive");
        assert!(self.batch_size > 0, "batch size must be positive");
        assert!(self.n_critic > 0, "n_critic must be positive");
    }
}

/// The hyperparameter grid searched by the model zoo.
#[derive(Debug, Clone, PartialEq)]
pub struct GridConfig {
    /// Noise dimensions to sweep.
    pub noise_dims: Vec<usize>,
    /// Critic layer counts to sweep.
    pub layer_counts: Vec<usize>,
    /// Epoch counts to sweep.
    pub epoch_counts: Vec<usize>,
    /// Base configuration providing the remaining fields.
    pub base: WganConfig,
}

impl GridConfig {
    /// The paper's full grid: 5 × 3 × 4 = 60 WGAN instances.
    pub fn paper() -> Self {
        GridConfig {
            noise_dims: vec![8, 16, 32, 48, 64],
            layer_counts: vec![6, 7, 8],
            epoch_counts: vec![25, 50, 75, 100],
            base: WganConfig {
                batch_size: 128,
                n_critic: 5,
                ..WganConfig::default()
            },
        }
    }

    /// A CPU-friendly grid (18 instances from 6 shared training runs)
    /// preserving the sweep structure.
    pub fn quick() -> Self {
        GridConfig {
            noise_dims: vec![8, 16, 32],
            layer_counts: vec![4, 5],
            epoch_counts: vec![2, 4, 6],
            base: WganConfig {
                batch_size: 64,
                n_critic: 2,
                ..WganConfig::default()
            },
        }
    }

    /// A minimal grid (4 instances from 2 shared runs) for tests.
    pub fn tiny() -> Self {
        GridConfig {
            noise_dims: vec![8, 16],
            layer_counts: vec![4],
            epoch_counts: vec![3, 6],
            base: WganConfig {
                batch_size: 32,
                n_critic: 2,
                ..WganConfig::default()
            },
        }
    }

    /// Expands the grid into individual configurations, each with a
    /// distinct seed derived from its grid position.
    pub(crate) fn expand(&self) -> Vec<WganConfig> {
        let mut configs = Vec::new();
        for (i, &noise_dim) in self.noise_dims.iter().enumerate() {
            for (j, &layers) in self.layer_counts.iter().enumerate() {
                for (k, &epochs) in self.epoch_counts.iter().enumerate() {
                    let seed = self.base.seed
                        ^ ((i as u64) << 32 | (j as u64) << 16 | k as u64)
                            .wrapping_mul(0x9E37_79B9_7F4A_7C15);
                    configs.push(WganConfig {
                        noise_dim,
                        layers,
                        epochs,
                        seed,
                        ..self.base
                    });
                }
            }
        }
        configs
    }

    /// Number of configurations in the grid.
    pub fn len(&self) -> usize {
        self.noise_dims.len() * self.layer_counts.len() * self.epoch_counts.len()
    }

    /// Whether the grid is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn paper_grid_is_60_models() {
        let grid = GridConfig::paper();
        assert_eq!(grid.len(), 60);
        assert_eq!(grid.expand().len(), 60);
    }

    #[test]
    fn expanded_configs_are_unique() {
        let configs = GridConfig::paper().expand();
        let ids: HashSet<String> = configs.iter().map(WganConfig::id).collect();
        assert_eq!(ids.len(), 60);
        let seeds: HashSet<u64> = configs.iter().map(|c| c.seed).collect();
        assert_eq!(seeds.len(), 60);
    }

    #[test]
    fn quick_grid_is_18_models() {
        assert_eq!(GridConfig::quick().len(), 18);
    }

    #[test]
    fn expansion_respects_base() {
        let grid = GridConfig::quick();
        for c in grid.expand() {
            assert_eq!(c.batch_size, grid.base.batch_size);
            assert_eq!(c.window, 10);
            c.validate();
        }
    }

    #[test]
    fn paper_configs_validate() {
        for c in GridConfig::paper().expand() {
            c.validate();
        }
    }

    #[test]
    #[should_panic(expected = "at least 3 weight layers")]
    fn too_few_layers_rejected() {
        WganConfig {
            layers: 2,
            ..WganConfig::default()
        }
        .validate();
    }

    #[test]
    fn id_is_readable() {
        let c = WganConfig {
            noise_dim: 16,
            layers: 7,
            epochs: 50,
            seed: 3,
            ..WganConfig::default()
        };
        assert_eq!(c.id(), "z16-l7-e50-s3");
    }
}
