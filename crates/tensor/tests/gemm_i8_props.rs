//! Property-based tests for the int8 GEMM kernel family (satellite of the
//! int8-backend ISSUE): across random shapes and values — including the
//! k=1 / n=1 edges and the ±127 saturation extremes — the dispatched
//! `gemm_i8` and every int8 leg this CPU supports (`gemm_i8_on`) must agree
//! **exactly** (i32 equality, not tolerance) with the naive i8×i8→i32
//! reference, and
//! the fused `gemm_i8_dequant` — the same micro-kernels reading
//! convolution patches in place and finishing in registers — must equal
//! the scalar dequantization of that reference bit for bit. Integer
//! accumulation is associative, so any mismatch is a packing or kernel
//! bug, never rounding. CI runs this file on the dispatched leg and again
//! under `VEHIGAN_FORCE_PORTABLE=1`.

use proptest::prelude::*;
use vehigan_tensor::gemm::{
    gemm_i8, gemm_i8_dequant, gemm_i8_on, i8_activation_bias, naive_i8, Dequant, Int8Leg, PackedI8,
    Patches,
};

fn buf_i8(len: usize) -> impl Strategy<Value = Vec<i8>> {
    proptest::collection::vec(any::<i8>(), len)
}

/// Shapes biased toward kernel edges: 1s, odd `k` (the padded-pair path),
/// and sizes straddling the 8-wide column strips and 4-row blocks.
fn dim() -> impl Strategy<Value = usize> {
    prop_oneof![
        Just(1usize),
        1usize..9,
        Just(8usize),
        Just(16usize),
        7usize..27,
        Just(33usize)
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn dispatched_kernel_is_exactly_naive(
        (m, k, n, a, b) in (dim(), dim(), dim()).prop_flat_map(|(m, k, n)| {
            (Just(m), Just(k), Just(n), buf_i8(m * k), buf_i8(k * n))
        })
    ) {
        let mut want = vec![0i32; m * n];
        naive_i8(m, k, n, &a, &b, &mut want);
        let packed = PackedI8::pack(k, n, &b);
        let mut got = vec![0i32; m * n];
        gemm_i8(m, &a, &packed, &mut got);
        prop_assert_eq!(got, want, "gemm_i8 must be exactly naive at ({},{},{})", m, k, n);
    }

    #[test]
    fn every_supported_leg_is_exactly_naive(
        (m, k, n, a, b) in (dim(), dim(), dim()).prop_flat_map(|(m, k, n)| {
            (Just(m), Just(k), Just(n), buf_i8(m * k), buf_i8(k * n))
        })
    ) {
        let mut want = vec![0i32; m * n];
        naive_i8(m, k, n, &a, &b, &mut want);
        let packed = PackedI8::pack(k, n, &b);
        for leg in Int8Leg::ALL.into_iter().filter(|leg| leg.supported()) {
            let mut got = vec![0i32; m * n];
            gemm_i8_on(leg, m, &a, &packed, &mut got);
            prop_assert_eq!(
                &got, &want, "{} must be exactly naive at ({},{},{})", leg.name(), m, k, n
            );
        }
    }

    #[test]
    fn dequant_over_conv_patches_is_exactly_scalar(
        ((h, w, cin, kh, kw, cout, alpha), plane, b) in
            (1usize..6, 1usize..8, 1usize..10, 1usize..4, 1usize..4, dim(), any::<bool>())
                .prop_flat_map(|shape| {
                    let (h, w, cin, kh, kw, cout, _) = shape;
                    let plane = (h + kh - 1) * (w + kw - 1) * cin;
                    (Just(shape), buf_i8(plane), buf_i8(kh * kw * cin * cout))
                })
    ) {
        // Patches of a padded `[h+kh−1, w+kw−1, cin]` plane: `kh` spans of
        // `kw·cin` bytes (whole pairs/quads or not), `(w+kw−1)·cin` apart.
        let (rows, span_len, row_stride) = (h * w, kw * cin, (w + kw - 1) * cin);
        let mut a = Vec::with_capacity(rows * kh * span_len);
        for r in 0..rows {
            for ky in 0..kh {
                let at = (r / w + ky) * row_stride + (r % w) * cin;
                a.extend_from_slice(&plane[at..at + span_len]);
            }
        }
        let mut acc = vec![0i32; rows * cout];
        naive_i8(rows, kh * span_len, cout, &a, &b, &mut acc);
        let mult: Vec<f32> = (0..cout).map(|j| 3e-3 * (1 + j % 5) as f32).collect();
        let bias: Vec<f32> = (0..cout).map(|j| j as f32 * 0.25 - 1.0).collect();
        let alpha = alpha.then_some(0.2f32);
        let want: Vec<f32> = acc.iter().enumerate().map(|(i, &v)| {
            let v = v as f32 * mult[i % cout] + bias[i % cout];
            match alpha {
                Some(alpha) if v <= 0.0 => alpha * v,
                _ => v,
            }
        }).collect();
        let want_max = want.iter().fold(0.0f32, |m, v| m.max(v.abs()));

        // Quad slack after the last span, as the kernel contract asks.
        let mut bytes: Vec<u8> = plane.iter().map(|&v| v as u8 ^ i8_activation_bias()).collect();
        bytes.extend([0u8; 3]);
        let packed = PackedI8::pack_spans(kh, span_len, cout, &b);
        let patches = Patches { width: w, row_stride, col_stride: cin };
        let epi = Dequant { mult: &mult, bias: &bias, alpha };
        let mut got = vec![f32::NAN; rows * cout];
        let got_max = gemm_i8_dequant(rows, &bytes, patches, &packed, epi, &mut got);
        prop_assert_eq!(
            got.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            want.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            "dequant diverged at {}x{}x{} k{}x{} -> {}", h, w, cin, kh, kw, cout
        );
        prop_assert_eq!(got_max.to_bits(), want_max.to_bits());
    }

    #[test]
    fn saturated_operands_accumulate_exactly(
        (m, k, n) in (1usize..5, 1usize..70, 1usize..10)
    ) {
        // All-(-128)·(-128) is the worst-case accumulator growth; exact
        // for any k within the documented 65534 bound.
        let a = vec![i8::MIN; m * k];
        let b = vec![i8::MIN; k * n];
        let packed = PackedI8::pack(k, n, &b);
        let mut got = vec![0i32; m * n];
        gemm_i8(m, &a, &packed, &mut got);
        prop_assert!(got.iter().all(|&v| v == (k as i32) * 128 * 128));
    }
}
