//! The oracle for the served f32 scoring path: across random critic
//! stacks — 1–4 same-padded convolutions with kernels up to 3×3 and
//! channel counts on and off the vector widths (masked tails), some
//! without their LeakyReLU, then the dense head — and windows that are
//! ordinary, all-zero, huge or denormal, `Sequential::score_fused` must
//! return **bitwise** what `Sequential::forward` does on the dispatched
//! kernel leg. CI runs this file on the default leg and again under
//! `VEHIGAN_FORCE_PORTABLE=1`.

use proptest::prelude::*;
use vehigan_tensor::init::{rand_uniform, randn, seeded_rng};
use vehigan_tensor::layers::{Activation, Conv2D, Dense, Flatten, Padding};
use vehigan_tensor::{CriticScratch, Flat, Init, Sequential, Windows, HEAD_ROWS};

/// One convolution: `(cout, kh, kw, followed by a LeakyReLU)`.
type Conv = (usize, usize, usize, bool);

fn channels() -> impl Strategy<Value = usize> {
    prop_oneof![
        Just(1usize),
        Just(3usize),
        Just(8usize),
        Just(17usize),
        Just(32usize),
        Just(40usize)
    ]
}

fn conv() -> impl Strategy<Value = Conv> {
    (channels(), 1usize..4, 1usize..4, any::<bool>())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn fused_score_is_bitwise_forward(
        seed in any::<u64>(),
        (h, w, cin) in (1usize..7, 1usize..7, prop_oneof![Just(1usize), Just(3usize)]),
        convs in proptest::collection::vec(conv(), 1..5),
        n in prop_oneof![Just(1usize), Just(7usize), Just(HEAD_ROWS + 1), Just(2 * HEAD_ROWS + 5)],
    ) {
        let mut rng = seeded_rng(seed);
        let mut critic = Sequential::new();
        let mut c = cin;
        for &(cout, kh, kw, leaky) in &convs {
            critic.push(Conv2D::new(c, cout, (kh, kw), Padding::Same, Init::HeUniform, &mut rng));
            if leaky {
                critic.push(Activation::leaky_relu(0.2));
            }
            c = cout;
        }
        critic.push(Flatten::new());
        critic.push(Dense::new(h * w * c, 1, Init::XavierUniform, &mut rng));
        // Layers start with zero biases; give every one a real value.
        for p in critic.params_mut() {
            if p.value.ndim() == 1 {
                p.value = rand_uniform(p.value.shape(), -0.5, 0.5, &mut rng);
            }
        }

        let len = h * w * cin;
        let mut x = randn(&[n, h, w, cin], &mut rng);
        for (i, window) in x.as_mut_slice().chunks_exact_mut(len).enumerate() {
            let scale = match i % 5 {
                1 => 0.0,
                2 => 1e30,
                3 => -1e30,
                4 => 1e-42,
                _ => 1.0,
            };
            window.iter_mut().for_each(|v| *v *= scale);
        }

        let want = critic.forward(&x);
        let mut scratch = CriticScratch::new();
        let mut got = vec![0.0f32; n];
        let flat = Flat::new(x.as_slice(), len);
        critic.score_fused(&mut scratch, (h, w, cin), flat.pieces(0..n), &mut got);
        let bits = |v: &[f32]| v.iter().map(|s| s.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(
            bits(want.as_slice()), bits(&got),
            "{}×{}×{} through {:?}, {} windows", h, w, cin, convs, n
        );
        // A second model through the same scratch (other geometry in the
        // same plane slots) must not see the first one's leftovers.
        let mut other = Sequential::new();
        other.push(Conv2D::new(cin, 5, (3, 2), Padding::Same, Init::HeUniform, &mut rng));
        other.push(Activation::leaky_relu(0.1));
        other.push(Flatten::new());
        other.push(Dense::new(h * w * 5, 1, Init::XavierUniform, &mut rng));
        let want = other.forward(&x);
        other.score_fused(&mut scratch, (h, w, cin), flat.pieces(0..n), &mut got);
        prop_assert_eq!(bits(want.as_slice()), bits(&got), "second model, shared scratch");
    }
}
