//! Property-based tests for the blocked GEMM kernels (satellite of the
//! perf-core ISSUE): across random shapes — including the k=1 and n=1
//! edge cases — the blocked `gemm` and the transpose-free `gemm_nt` /
//! `gemm_tn` must agree with the naive reference kernel to ≤1e-4 relative
//! error, and the layers built on them must still pass gradcheck.
//!
//! Beyond the tolerance: whatever leg the process dispatches, each entry
//! point is held **bit for bit** to a scalar reference of its per-element
//! arithmetic (`gemm`: the leg's multiply-add chain; `gemm_tn`: the
//! unfused rank-1 sweep; `gemm_nt`: one `dot` per output) on shapes no
//! register block divides, accumulating into a non-zero `C`, with ±0, ±∞
//! and NaN among the operands.

use proptest::prelude::*;
use vehigan_tensor::gemm;
use vehigan_tensor::gradcheck::{finite_diff_grad, max_relative_error};
use vehigan_tensor::init::{randn, seeded_rng};
use vehigan_tensor::layer::Layer;
use vehigan_tensor::layers::{Conv2D, Dense, Padding};
use vehigan_tensor::{Init, Tensor};

fn buf(len: usize) -> impl Strategy<Value = Vec<f32>> {
    proptest::collection::vec(-2.0f32..2.0, len)
}

/// Shape strategy biased toward kernel edges: includes 1s (the k=1 / n=1
/// cases the ISSUE calls out) and sizes straddling the 4/8- and 6/16-wide
/// register tiles.
fn dim() -> impl Strategy<Value = usize> {
    prop_oneof![
        Just(1usize),
        1usize..8,
        Just(16usize),
        15usize..35,
        Just(64usize)
    ]
}

/// Ordinary operands, or — when `wild` — one in three replaced by what a
/// diverging run produces: ±0, ±Inf, NaN.
fn operand(len: usize, wild: bool) -> impl Strategy<Value = Vec<f32>> {
    let value = (-2.0f32..2.0, 0u8..15).prop_map(move |(v, pick)| match pick {
        _ if !wild => v,
        0 => 0.0,
        1 => -0.0,
        2 => f32::INFINITY,
        3 => f32::NEG_INFINITY,
        4 => f32::NAN,
        _ => v,
    });
    proptest::collection::vec(value, len)
}

/// Shapes no register block divides: every row-block height, column
/// counts on both sides of one and two 16-lane vectors, depths with every
/// `k % 8` tail and past one `KC = 256` panel, and empty dimensions.
fn ragged() -> impl Strategy<Value = (usize, usize, usize)> {
    let m = prop_oneof![0usize..30, Just(37usize)];
    let n = prop_oneof![
        Just(0usize),
        Just(1usize),
        Just(8usize),
        Just(15usize),
        Just(16usize),
        Just(17usize),
        Just(32usize),
        Just(33usize),
        2usize..40
    ];
    let k = prop_oneof![0usize..20, 24usize..41, Just(120usize), 257usize..300];
    (m, n, k)
}

/// Operands and a non-zero `C` to accumulate into, `wild` one time in two.
#[allow(clippy::type_complexity)]
fn product() -> impl Strategy<Value = (usize, usize, usize, Vec<f32>, Vec<f32>, Vec<f32>)> {
    (ragged(), any::<bool>()).prop_flat_map(|((m, n, k), wild)| {
        (
            Just(m),
            Just(n),
            Just(k),
            operand(m * k, wild),
            operand(k * n, wild),
            operand(m * n, wild),
        )
    })
}

/// The first element whose bits differ, every NaN counted as one value:
/// which payload an add of two NaNs keeps is the instruction's operand
/// order, not part of a leg's contract.
fn first_bit_difference(got: &[f32], want: &[f32]) -> Option<(usize, f32, f32)> {
    let bits = |x: f32| if x.is_nan() { 0x7fc0_0000 } else { x.to_bits() };
    (0..want.len())
        .find(|&i| bits(got[i]) != bits(want[i]))
        .map(|i| (i, got[i], want[i]))
}

fn rel_err(got: &[f32], want: &[f32]) -> f32 {
    got.iter()
        .zip(want)
        .map(|(g, w)| (g - w).abs() / w.abs().max(1.0))
        .fold(0.0f32, f32::max)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn blocked_gemm_matches_naive(
        (m, k, n, a, b) in (dim(), dim(), dim()).prop_flat_map(|(m, k, n)| {
            (Just(m), Just(k), Just(n), buf(m * k), buf(k * n))
        })
    ) {
        let mut want = vec![0.0f32; m * n];
        gemm::naive(m, k, n, &a, &b, &mut want);
        let mut got = vec![0.0f32; m * n];
        gemm::gemm(m, k, n, &a, &b, &mut got);
        prop_assert!(
            rel_err(&got, &want) <= 1e-4,
            "blocked vs naive diverged at ({m},{k},{n})"
        );
    }

    #[test]
    fn gemm_nt_matches_naive_on_pretransposed_operand(
        (m, k, n, a, bt) in (dim(), dim(), dim()).prop_flat_map(|(m, k, n)| {
            (Just(m), Just(k), Just(n), buf(m * k), buf(n * k))
        })
    ) {
        // Reference: materialize B = Bᵀᵀ, then naive.
        let mut b = vec![0.0f32; k * n];
        gemm::transpose_into(n, k, &bt, &mut b);
        let mut want = vec![0.0f32; m * n];
        gemm::naive(m, k, n, &a, &b, &mut want);
        let mut got = vec![0.0f32; m * n];
        gemm::gemm_nt(m, n, k, &a, &bt, &mut got);
        prop_assert!(
            rel_err(&got, &want) <= 1e-4,
            "gemm_nt vs naive diverged at ({m},{k},{n})"
        );
    }

    #[test]
    fn gemm_tn_matches_naive_on_pretransposed_operand(
        (m, k, n, at, b) in (dim(), dim(), dim()).prop_flat_map(|(m, k, n)| {
            (Just(m), Just(k), Just(n), buf(k * m), buf(k * n))
        })
    ) {
        let mut a = vec![0.0f32; k * m];
        gemm::transpose_into(k, m, &at, &mut a);
        let mut want = vec![0.0f32; m * n];
        gemm::naive(m, k, n, &a, &b, &mut want);
        let mut got = vec![0.0f32; m * n];
        gemm::gemm_tn(m, n, k, &at, &b, &mut got);
        // tn keeps the naive per-element reduction order exactly.
        prop_assert_eq!(got, want, "gemm_tn must be bitwise naive at ({},{},{})", m, k, n);
    }

    #[test]
    fn gemm_is_bitwise_its_legs_chain((m, n, k, a, b, c0) in product()) {
        // Per element one multiply-add per k-step in increasing k from the
        // value in C: fused on the vector legs, rounded twice on the
        // portable one — whatever the blocking, panels and masks.
        let fused = gemm::f32_leg() != "portable";
        let mut want = c0.clone();
        for i in 0..m {
            for j in 0..n {
                for kk in 0..k {
                    let (x, y, acc) = (a[i * k + kk], b[kk * n + j], want[i * n + j]);
                    want[i * n + j] = if fused { x.mul_add(y, acc) } else { x * y + acc };
                }
            }
        }
        let mut got = c0;
        gemm::gemm(m, k, n, &a, &b, &mut got);
        let diff = first_bit_difference(&got, &want);
        prop_assert!(diff.is_none(), "gemm at ({}, {}, {}): {:?}", m, k, n, diff);
    }

    #[test]
    fn gemm_tn_is_bitwise_the_rank_one_sweep((m, n, k, at, b, c0) in product()) {
        // One rounded multiply, then one add, per element per k-step in
        // increasing k, on every leg.
        let mut want = c0.clone();
        for kk in 0..k {
            for i in 0..m {
                for j in 0..n {
                    want[i * n + j] += at[kk * m + i] * b[kk * n + j];
                }
            }
        }
        let mut got = c0;
        gemm::gemm_tn(m, n, k, &at, &b, &mut got);
        let diff = first_bit_difference(&got, &want);
        prop_assert!(diff.is_none(), "gemm_tn at ({}, {}, {}): {:?}", m, n, k, diff);
    }

    #[test]
    fn gemm_nt_is_bitwise_one_dot_per_output((m, n, k, a, bt, c0) in product()) {
        let mut want = c0.clone();
        for i in 0..m {
            for j in 0..n {
                want[i * n + j] += gemm::dot(&a[i * k..(i + 1) * k], &bt[j * k..(j + 1) * k]);
            }
        }
        let mut got = c0;
        gemm::gemm_nt(m, n, k, &a, &bt, &mut got);
        let diff = first_bit_difference(&got, &want);
        prop_assert!(diff.is_none(), "gemm_nt at ({}, {}, {}): {:?}", m, n, k, diff);
    }

    #[test]
    fn transpose_roundtrips(
        (m, n, v) in (dim(), dim()).prop_flat_map(|(m, n)| (Just(m), Just(n), buf(m * n)))
    ) {
        let mut t = vec![0.0f32; m * n];
        gemm::transpose_into(m, n, &v, &mut t);
        let mut back = vec![0.0f32; m * n];
        gemm::transpose_into(n, m, &t, &mut back);
        prop_assert_eq!(back, v);
    }

    #[test]
    fn dense_gradcheck_on_transpose_free_backward(
        seed in 0u64..1000, batch in 1usize..5, out_dim in 1usize..4
    ) {
        // out_dim=1 exercises the gemm_tn n==1 axpy fast path.
        let mut rng = seeded_rng(seed);
        let mut d = Dense::new(6, out_dim, Init::XavierUniform, &mut rng);
        let x = randn(&[batch, 6], &mut rng);
        let _ = d.forward(&x);
        let analytic_dx = d.backward(&Tensor::ones(&[batch, out_dim]));
        let analytic_dw = d.params()[0].grad.clone();
        let snap = d.save();
        let numeric_dx = finite_diff_grad(|xx| {
            let mut d2 = Dense::from_snapshot(&snap).unwrap();
            d2.forward(xx).sum()
        }, &x, 1e-2);
        prop_assert!(max_relative_error(&analytic_dx, &numeric_dx) < 2e-2);
        let w0 = d.params()[0].value.clone();
        let numeric_dw = finite_diff_grad(|ww| {
            let mut d2 = Dense::from_snapshot(&snap).unwrap();
            d2.params_mut()[0].value = ww.clone();
            d2.forward(&x).sum()
        }, &w0, 1e-2);
        prop_assert!(max_relative_error(&analytic_dw, &numeric_dw) < 2e-2);
    }

    #[test]
    fn conv_gradcheck_on_transpose_free_backward(
        seed in 0u64..500, same in any::<bool>(), cout in 1usize..3
    ) {
        let mut rng = seeded_rng(seed);
        let padding = if same { Padding::Same } else { Padding::Valid };
        let mut conv = Conv2D::new(1, cout, (2, 2), padding, Init::HeUniform, &mut rng);
        let x = randn(&[1, 4, 4, 1], &mut rng);
        let y = conv.forward(&x);
        let analytic_dx = conv.backward(&Tensor::ones(y.shape()));
        let analytic_dw = conv.params()[0].grad.clone();
        let snap = conv.save();
        let numeric_dx = finite_diff_grad(|xx| {
            let mut c2 = Conv2D::from_snapshot(&snap).unwrap();
            c2.forward(xx).sum()
        }, &x, 1e-2);
        prop_assert!(max_relative_error(&analytic_dx, &numeric_dx) < 2e-2);
        let w0 = conv.params()[0].value.clone();
        let numeric_dw = finite_diff_grad(|ww| {
            let mut c2 = Conv2D::from_snapshot(&snap).unwrap();
            c2.params_mut()[0].value = ww.clone();
            c2.forward(&x).sum()
        }, &w0, 1e-2);
        prop_assert!(max_relative_error(&analytic_dw, &numeric_dw) < 2e-2);
    }
}
