//! Autoencoder outlier detection (§IV-B.4, [30]).
//!
//! The paper's DL baseline: an autoencoder trained to reconstruct benign
//! snapshots; the anomaly score is the reconstruction error. Trained on
//! raw features it is `BaseAE`; on the engineered features it is `VehiAE`
//! (Table III).

use crate::detector::AnomalyDetector;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use vehigan_tensor::init::seeded_rng;
use vehigan_tensor::layers::{Activation, Dense};
use vehigan_tensor::optim::{Adam, Optimizer};
use vehigan_tensor::{Init, Sequential, Tensor};

/// Autoencoder training hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AeConfig {
    /// Bottleneck width.
    pub bottleneck: usize,
    /// Hidden layer width (encoder and decoder mirror each other).
    pub hidden: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Adam learning rate.
    pub learning_rate: f32,
    /// RNG seed (init + shuffling).
    pub seed: u64,
}

impl Default for AeConfig {
    fn default() -> Self {
        AeConfig {
            bottleneck: 16,
            hidden: 64,
            epochs: 20,
            batch_size: 64,
            learning_rate: 1e-3,
            seed: 0,
        }
    }
}

/// Autoencoder-based outlier detector (reconstruction error score).
#[derive(Debug)]
pub struct AeDetector {
    config: AeConfig,
    model: Option<Sequential>,
    input_dim: usize,
    /// Mean training loss per epoch (observability for experiments).
    pub loss_history: Vec<f32>,
}

impl AeDetector {
    /// Creates an unfitted detector.
    pub fn new(config: AeConfig) -> Self {
        AeDetector {
            config,
            model: None,
            input_dim: 0,
            loss_history: Vec::new(),
        }
    }

    fn build_model(&self, d: usize) -> Sequential {
        let mut rng = seeded_rng(self.config.seed);
        let h = self.config.hidden.min(d * 4).max(self.config.bottleneck);
        let mut m = Sequential::new();
        m.push(Dense::new(d, h, Init::HeUniform, &mut rng));
        m.push(Activation::leaky_relu(0.2));
        m.push(Dense::new(
            h,
            self.config.bottleneck,
            Init::HeUniform,
            &mut rng,
        ));
        m.push(Activation::leaky_relu(0.2));
        m.push(Dense::new(
            self.config.bottleneck,
            h,
            Init::HeUniform,
            &mut rng,
        ));
        m.push(Activation::leaky_relu(0.2));
        m.push(Dense::new(h, d, Init::XavierUniform, &mut rng));
        m
    }
}

impl Default for AeDetector {
    fn default() -> Self {
        AeDetector::new(AeConfig::default())
    }
}

impl AnomalyDetector for AeDetector {
    fn fit(&mut self, x: &Tensor) {
        assert_eq!(x.ndim(), 2, "expected [n, d] samples");
        let n = x.shape()[0];
        let d = x.shape()[1];
        assert!(n >= 2, "need at least 2 training samples");
        self.input_dim = d;
        let mut model = self.build_model(d);
        let mut opt = Adam::new(self.config.learning_rate);
        let mut shuffle_rng = rand::rngs::StdRng::seed_from_u64(self.config.seed ^ 0xAE);
        let mut indices: Vec<usize> = (0..n).collect();
        self.loss_history.clear();

        for _epoch in 0..self.config.epochs {
            indices.shuffle(&mut shuffle_rng);
            let mut epoch_loss = 0.0;
            let mut batches = 0;
            for chunk in indices.chunks(self.config.batch_size) {
                let batch = x.take(chunk);
                let out = model.forward(&batch);
                // MSE loss: L = mean((out − x)²); dL/dout = 2(out − x)/N.
                let diff = &out - &batch;
                let loss = diff.map(|v| v * v).mean();
                let grad = &diff * (2.0 / diff.len() as f32);
                model.zero_grad();
                model.backward_params(&grad);
                opt.step(&mut model.params_mut());
                epoch_loss += loss;
                batches += 1;
            }
            self.loss_history.push(epoch_loss / batches.max(1) as f32);
        }
        self.model = Some(model);
    }

    fn score_batch(&mut self, x: &Tensor) -> Vec<f32> {
        let model = self
            .model
            .as_mut()
            .expect("AeDetector::score_batch before fit");
        assert_eq!(x.shape()[1], self.input_dim, "input dim mismatch");
        let out = model.forward(x);
        let n = x.shape()[0];
        let d = self.input_dim;
        let xo = x.as_slice();
        let oo = out.as_slice();
        (0..n)
            .map(|i| {
                let mut mse = 0.0f32;
                for j in 0..d {
                    let e = oo[i * d + j] - xo[i * d + j];
                    mse += e * e;
                }
                mse / d as f32
            })
            .collect()
    }

    fn name(&self) -> &'static str {
        "AE"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Benign data on a 1-D manifold inside 4-D space.
    fn manifold_data(n: usize, seed: u64) -> Tensor {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut data = Vec::with_capacity(n * 4);
        for _ in 0..n {
            let t: f32 = rng.gen_range(-1.0..1.0);
            data.extend_from_slice(&[t, 0.5 * t, -t, 0.8 * t]);
        }
        Tensor::from_vec(data, &[n, 4])
    }

    fn quick_config() -> AeConfig {
        AeConfig {
            bottleneck: 2,
            hidden: 16,
            epochs: 60,
            batch_size: 32,
            learning_rate: 3e-3,
            seed: 1,
        }
    }

    #[test]
    fn training_loss_decreases() {
        let mut ae = AeDetector::new(quick_config());
        ae.fit(&manifold_data(256, 0));
        let first = ae.loss_history[0];
        let last = *ae.loss_history.last().unwrap();
        assert!(last < first * 0.5, "loss {first} → {last}");
    }

    #[test]
    fn off_manifold_scores_higher() {
        let mut ae = AeDetector::new(quick_config());
        ae.fit(&manifold_data(512, 2));
        let queries = Tensor::from_vec(
            vec![
                0.5, 0.25, -0.5, 0.4, // on-manifold
                0.5, -0.9, 0.5, -0.9, // off-manifold
            ],
            &[2, 4],
        );
        let s = ae.score_batch(&queries);
        assert!(s[1] > s[0] * 3.0, "{s:?}");
    }

    #[test]
    fn deterministic_per_seed() {
        let mut a = AeDetector::new(quick_config());
        let mut b = AeDetector::new(quick_config());
        let x = manifold_data(128, 3);
        a.fit(&x);
        b.fit(&x);
        let q = manifold_data(8, 4);
        assert_eq!(a.score_batch(&q), b.score_batch(&q));
    }

    #[test]
    #[should_panic(expected = "before fit")]
    fn score_before_fit_panics() {
        let mut ae = AeDetector::default();
        let _ = ae.score_batch(&Tensor::zeros(&[1, 4]));
    }

    #[test]
    #[should_panic(expected = "input dim mismatch")]
    fn dim_mismatch_panics() {
        let mut ae = AeDetector::new(quick_config());
        ae.fit(&manifold_data(64, 5));
        let _ = ae.score_batch(&Tensor::zeros(&[1, 7]));
    }
}
