//! Property tests for the backward passes that compute only what their
//! caller reads: on random stacks of every layer kind, with ragged shapes
//! and ±0, ±∞ and NaN among the activations and gradients,
//!
//! - [`Sequential::backward_input`] returns what [`Sequential::backward`]
//!   returns, bit for bit, leaves every (non-zero) `Param::grad` as it
//!   found it, and can be repeated over one forward;
//! - [`Sequential::backward_params`] leaves the accumulators `backward`
//!   leaves — over a fresh forward, and over a forward an input-only pass
//!   has already walked.
//!
//! A model is rebuilt from its seed for every pass compared, so no pass
//! can lean on what another left in a layer.

use proptest::prelude::*;
use rand::Rng;
use vehigan_tensor::init::{randn, seeded_rng};
use vehigan_tensor::layers::{Activation, Conv2D, Dense, Flatten, Padding, UpSample2D};
use vehigan_tensor::{Init, Sequential, Tensor};

/// A random model and the shape of one input batch for it: a spatial
/// trunk of convolutions (both paddings, kernels 1..=3 a side),
/// activations and upsamplings on an `[n, h, w, c]` batch, then — most of
/// the time — a flatten and a dense head; or a plain MLP on `[n, d]`.
/// Deterministic in `seed`.
fn model(seed: u64) -> (Sequential, Vec<usize>) {
    let mut rng = seeded_rng(seed);
    let mut m = Sequential::new();
    let n = rng.gen_range(1..4usize);
    let activation = |rng: &mut rand::rngs::StdRng| match rng.gen_range(0..2) {
        0 => Activation::leaky_relu(0.2),
        _ => Activation::tanh(),
    };
    if rng.gen_range(0..5) == 0 {
        let (d, hidden) = (rng.gen_range(1..7usize), rng.gen_range(1..6usize));
        m.push(Dense::new(d, hidden, Init::HeUniform, &mut rng));
        m.push(activation(&mut rng));
        m.push(Dense::new(hidden, 2, Init::XavierUniform, &mut rng));
        return (m, vec![n, d]);
    }
    let (h0, w0, c0) = (
        rng.gen_range(1..6usize),
        rng.gen_range(1..6usize),
        rng.gen_range(1..4usize),
    );
    let (mut h, mut w, mut c) = (h0, w0, c0);
    for _ in 0..rng.gen_range(1..5) {
        match rng.gen_range(0..4) {
            0 | 1 => {
                let (kh, kw) = (rng.gen_range(1..4usize), rng.gen_range(1..4usize));
                let valid = h >= kh && w >= kw && rng.gen_range(0..2) == 0;
                let cout = rng.gen_range(1..5usize);
                let padding = if valid {
                    (h, w) = (h - kh + 1, w - kw + 1);
                    Padding::Valid
                } else {
                    Padding::Same
                };
                let conv = Conv2D::new(c, cout, (kh, kw), padding, Init::HeUniform, &mut rng);
                m.push(conv);
                c = cout;
            }
            2 => m.push(activation(&mut rng)),
            _ => {
                let (fy, fx) = (rng.gen_range(1..3usize), rng.gen_range(1..3usize));
                m.push(UpSample2D::new(fy, fx));
                (h, w) = (h * fy, w * fx);
            }
        }
    }
    if rng.gen_range(0..4) != 0 {
        m.push(Flatten::new());
        let out = rng.gen_range(1..4usize);
        m.push(Dense::new(h * w * c, out, Init::XavierUniform, &mut rng));
        if rng.gen_range(0..2) == 0 {
            m.push(activation(&mut rng));
        }
    }
    (m, vec![n, h0, w0, c0])
}

/// Normal draws, or — when `wild` — one in five replaced by ±0, ±∞ or NaN.
fn values(shape: &[usize], wild: bool, rng: &mut rand::rngs::StdRng) -> Tensor {
    let mut t = randn(shape, rng);
    if wild {
        for v in t.as_mut_slice() {
            *v = match rng.gen_range(0..25) {
                0 => 0.0,
                1 => -0.0,
                2 => f32::INFINITY,
                3 => f32::NEG_INFINITY,
                4 => f32::NAN,
                _ => *v,
            };
        }
    }
    t
}

/// Non-zero gradient accumulators, as a model mid-step has.
fn preset_grads(m: &mut Sequential) {
    for (i, p) in m.params_mut().into_iter().enumerate() {
        for (j, g) in p.grad.as_mut_slice().iter_mut().enumerate() {
            *g = (i as f32 + 0.37 * (j + 1) as f32).sin();
        }
    }
}

/// Bits, every NaN counted as one value.
fn bits(v: &[f32]) -> Vec<u32> {
    let canonical = |x: &f32| if x.is_nan() { 0x7fc0_0000 } else { x.to_bits() };
    v.iter().map(canonical).collect()
}

fn grad_bits(m: &Sequential) -> Vec<Vec<u32>> {
    m.params().iter().map(|p| bits(p.grad.as_slice())).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn each_pass_computes_its_half_of_backward(seed in 0u64..1_000_000, wild in any::<bool>()) {
        let (mut full, x_shape) = model(seed);
        let mut rng = seeded_rng(seed ^ 0x5eed);
        let x = values(&x_shape, wild, &mut rng);
        preset_grads(&mut full);
        let out = full.forward(&x);
        let grad_out = values(out.shape(), wild, &mut rng);
        let want_dx = full.backward(&grad_out);
        let want_grads = grad_bits(&full);

        // Input only: backward's return, no accumulator written, and the
        // forward still whole — for a second input-only pass and for a
        // parameter pass after it.
        let (mut m, _) = model(seed);
        preset_grads(&mut m);
        let untouched = grad_bits(&m);
        let _ = m.forward(&x);
        for _ in 0..2 {
            let dx = m.backward_input(&grad_out);
            prop_assert_eq!(dx.shape(), want_dx.shape());
            prop_assert_eq!(bits(dx.as_slice()), bits(want_dx.as_slice()));
            prop_assert_eq!(grad_bits(&m), untouched.clone());
        }
        m.backward_params(&grad_out);
        prop_assert_eq!(grad_bits(&m), want_grads.clone());

        // Parameters only, over a fresh forward.
        let (mut m, _) = model(seed);
        preset_grads(&mut m);
        let _ = m.forward(&x);
        m.backward_params(&grad_out);
        prop_assert_eq!(grad_bits(&m), want_grads);
    }
}
