//! Weight initializers and RNG helpers.
//!
//! All randomness in the VehiGAN stack flows through explicitly seeded
//! [`rand::rngs::StdRng`] values so experiments are reproducible.

use crate::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Strategy used to initialize layer weights.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Init {
    /// Xavier/Glorot uniform: `U(-a, a)` with `a = sqrt(6 / (fan_in + fan_out))`.
    ///
    /// Suited to tanh/linear activations (the generator output).
    XavierUniform,
    /// He/Kaiming uniform: `U(-a, a)` with `a = sqrt(6 / fan_in)`.
    ///
    /// Suited to (Leaky)ReLU activations (generator/critic hidden layers).
    HeUniform,
    /// All zeros (biases).
    Zeros,
}

impl Init {
    /// Samples a tensor of the given shape using `fan_in`/`fan_out`.
    pub(crate) fn sample(
        self,
        shape: &[usize],
        fan_in: usize,
        fan_out: usize,
        rng: &mut StdRng,
    ) -> Tensor {
        let n: usize = shape.iter().product();
        let data: Vec<f32> = match self {
            Init::XavierUniform => {
                let a = (6.0 / (fan_in + fan_out) as f32).sqrt();
                (0..n).map(|_| rng.gen_range(-a..=a)).collect()
            }
            Init::HeUniform => {
                let a = (6.0 / fan_in as f32).sqrt();
                (0..n).map(|_| rng.gen_range(-a..=a)).collect()
            }
            Init::Zeros => vec![0.0; n],
        };
        Tensor::from_vec(data, shape)
    }
}

/// Creates a deterministic RNG from a 64-bit seed.
///
/// # Examples
///
/// ```
/// use vehigan_tensor::init::seeded_rng;
/// use rand::Rng;
///
/// let mut a = seeded_rng(7);
/// let mut b = seeded_rng(7);
/// assert_eq!(a.gen::<u64>(), b.gen::<u64>());
/// ```
pub fn seeded_rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// Samples a standard-normal tensor (Box–Muller), used for WGAN noise `z`.
pub fn randn(shape: &[usize], rng: &mut StdRng) -> Tensor {
    let n: usize = shape.iter().product();
    let mut data = Vec::with_capacity(n);
    while data.len() < n {
        let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
        let u2: f32 = rng.gen_range(0.0..1.0);
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * std::f32::consts::PI * u2;
        data.push(r * theta.cos());
        if data.len() < n {
            data.push(r * theta.sin());
        }
    }
    Tensor::from_vec(data, shape)
}

/// Samples a uniform tensor in `[lo, hi)`.
pub fn rand_uniform(shape: &[usize], lo: f32, hi: f32, rng: &mut StdRng) -> Tensor {
    let n: usize = shape.iter().product();
    let data: Vec<f32> = (0..n).map(|_| rng.gen_range(lo..hi)).collect();
    Tensor::from_vec(data, shape)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_rng_is_deterministic() {
        let mut a = seeded_rng(42);
        let mut b = seeded_rng(42);
        let ta = randn(&[100], &mut a);
        let tb = randn(&[100], &mut b);
        assert_eq!(ta, tb);
    }

    #[test]
    fn randn_moments_are_plausible() {
        let mut rng = seeded_rng(1);
        let t = randn(&[10_000], &mut rng);
        assert!(t.mean().abs() < 0.05, "mean={}", t.mean());
        let var = t.map(|x| x * x).mean() - t.mean() * t.mean();
        assert!((var - 1.0).abs() < 0.1, "var={var}");
    }

    #[test]
    fn xavier_bounds() {
        let mut rng = seeded_rng(3);
        let t = Init::XavierUniform.sample(&[64, 64], 64, 64, &mut rng);
        let a = (6.0f32 / 128.0).sqrt();
        assert!(t.max() <= a && t.min() >= -a);
        assert!(t.max() > 0.0 && t.min() < 0.0);
    }

    #[test]
    fn he_bounds() {
        let mut rng = seeded_rng(3);
        let t = Init::HeUniform.sample(&[32, 32], 32, 32, &mut rng);
        let a = (6.0f32 / 32.0).sqrt();
        assert!(t.max() <= a && t.min() >= -a);
    }

    #[test]
    fn zeros_init() {
        let mut rng = seeded_rng(3);
        let t = Init::Zeros.sample(&[5], 5, 5, &mut rng);
        assert_eq!(t.sum(), 0.0);
    }

    #[test]
    fn rand_uniform_bounds() {
        let mut rng = seeded_rng(9);
        let t = rand_uniform(&[1000], -0.5, 0.5, &mut rng);
        assert!(t.min() >= -0.5 && t.max() < 0.5);
    }
}
