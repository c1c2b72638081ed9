//! The f32 forward sweep: [`gemm`] and [`gemm_f32_fused`], one register-
//! blocked sweep per [`F32Leg`] with two compile-time epilogues.

use super::*;

/// `C += A·B` for row-major `a` (`m×k`), `b` (`k×n`), `c` (`m×n`).
///
/// The fused forward sweep of [`gemm_f32_fused`] over `A`'s rows with the
/// accumulating epilogue; per output element the reduction runs in
/// strictly increasing `k` order from the value in `C` (see module docs
/// for the exact determinism guarantees: portable rounds twice per step,
/// the two vector legs fuse and agree bit for bit).
///
/// # Panics
///
/// Panics if any slice length disagrees with the stated dimensions.
pub fn gemm(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    check_dims("gemm", m, k, n, a, b, c);
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    let layer = FusedF32 {
        spans: 1,
        span_len: k,
        w: b,
        bias: &[],
        alpha: None,
    };
    let (rows, out) = (Patches::matrix(k), Patches::matrix(n));
    fused_sweep_on::<true>(F32Leg::dispatched(), m, a, rows, &layer, n, c, out);
}

/// The seed repository's i-k-j scalar triple loop, kept verbatim as the
/// reference kernel for property tests and benchmark baselines.
/// `C += A·B` for row-major `a` (`m×k`), `b` (`k×n`), `c` (`m×n`).
///
/// It skips a zero in `A`, so it equals the portable [`gemm`] bit for bit
/// on finite operands only: the sweep adds the `0·∞ = NaN` this loop never
/// forms, and turns a `−0.0` in `C` into `+0.0` by adding `+0.0` to it.
pub fn naive(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    check_dims("gemm", m, k, n, a, b, c);
    for i in 0..m {
        let a_row = &a[i * k..(i + 1) * k];
        let o_row = &mut c[i * n..(i + 1) * n];
        for (kk, &av) in a_row.iter().enumerate() {
            if av == 0.0 {
                continue;
            }
            let b_row = &b[kk * n..(kk + 1) * n];
            for (o, &bv) in o_row.iter_mut().zip(b_row) {
                *o += av * bv;
            }
        }
    }
}

/// One layer of the fused f32 forward sweep, as [`gemm_f32_fused`]
/// multiplies it: a `[spans · span_len, bias.len()]` row-major weight
/// matrix **where the layer stores it** (`Conv2D`'s `[kh·kw·cin, cout]` is
/// `kh` spans of `kw·cin`; `Dense`'s `[in, out]` is one span), its bias,
/// and the LeakyReLU slope that follows it, if one does.
#[derive(Debug, Clone, Copy)]
pub struct FusedF32<'a> {
    /// Spans per patch (kernel rows).
    pub spans: usize,
    /// Floats per span.
    pub span_len: usize,
    /// The weights, one row per shared-dimension step.
    pub w: &'a [f32],
    /// Per-column bias; its length is the column count.
    pub bias: &'a [f32],
    /// LeakyReLU slope applied to the biased sum, if any.
    pub alpha: Option<f32>,
}

/// `dst[out(r) + j] = act(Σ_k a[r][k]·w[k][j] + bias[j])` for `rows` rows
/// of f32 activations addressed by `patches` inside `plane` — the float
/// twin of [`gemm_i8_dequant`](super::gemm_i8_dequant), with the weights
/// read in place instead of packed. Row `r`'s `bias.len()` results go to `dst[out.offset(r)..]`
/// (`out.row_stride`/`col_stride` address the interior of the next
/// layer's padded plane, or `Patches::matrix(n)` a plain matrix).
///
/// Per output element the arithmetic is `0 → fused (or, on the portable
/// leg, separate) multiply-add over k ascending → + bias →
/// x ≥ 0 ? x : α·x`: exactly what [`gemm`] into a zeroed buffer followed
/// by a bias sweep and a LeakyReLU sweep computes on the same leg, so the
/// result is **bitwise** that — per leg, not across legs (FMA rounds
/// once, mul + add twice). The AVX2 and AVX-512 legs agree bit for bit.
///
/// # Panics
///
/// Panics if `w` is not `spans·span_len × bias.len()`, or `plane` / `dst`
/// are shorter than the elements `patches` / `out` address.
pub fn gemm_f32_fused(
    rows: usize,
    plane: &[f32],
    patches: Patches,
    layer: FusedF32<'_>,
    dst: &mut [f32],
    out: Patches,
) {
    let (leg, n) = (F32Leg::dispatched(), layer.bias.len());
    fused_sweep_on::<false>(leg, rows, plane, patches, &layer, n, dst, out);
}

/// The fused sweep over `n` columns on `leg`. Each finished register
/// block goes through one of two epilogues, fixed at compile time: with
/// `ACC` it is added into `dst` (the bias is not read — [`gemm`]), without
/// it is biased and activated like [`bias_act`] and stored
/// ([`gemm_f32_fused`]).
///
/// # Panics
///
/// Panics if `w` is not `spans·span_len × n`, `n` is not the bias length
/// of a biased sweep, `plane` / `dst` are shorter than the elements `p` /
/// `out` address, or this CPU cannot run `leg`.
#[allow(clippy::too_many_arguments)]
fn fused_sweep_on<const ACC: bool>(
    leg: F32Leg,
    rows: usize,
    plane: &[f32],
    p: Patches,
    l: &FusedF32<'_>,
    n: usize,
    dst: &mut [f32],
    out: Patches,
) {
    assert_eq!(
        l.w.len(),
        l.spans * l.span_len * n,
        "gemm_f32_fused: weights are not {}·{}×{n}",
        l.spans,
        l.span_len
    );
    assert!(ACC || l.bias.len() == n, "gemm_f32_fused: bias length");
    assert!(
        p.width > 0 && out.width > 0,
        "gemm_f32_fused: zero patch width"
    );
    assert!(
        plane.len() >= p.extent(rows, l.spans, l.span_len),
        "gemm_f32_fused: plane too short"
    );
    assert!(
        dst.len() >= out.extent(rows, 1, n),
        "gemm_f32_fused: output too short"
    );
    assert!(leg.supported(), "{leg:?} leg not supported here");
    if rows == 0 || n == 0 {
        return;
    }
    // SAFETY: the leg is supported; the asserts cover every element read.
    match leg {
        #[cfg(target_arch = "x86_64")]
        F32Leg::Avx2 => unsafe { fused_avx2::<ACC>(rows, plane, p, l, n, dst, out) },
        #[cfg(target_arch = "x86_64")]
        F32Leg::Avx512 => unsafe { fused_avx512::<ACC>(rows, plane, p, l, n, dst, out) },
        _ => fused_portable::<ACC>(rows, plane, p, l, n, dst, out),
    }
}

/// The scalar tail every leg's biased epilogue is defined by.
#[inline(always)]
fn bias_act(acc: f32, bias: f32, alpha: Option<f32>) -> f32 {
    let v = acc + bias;
    match alpha {
        Some(_) if v >= 0.0 => v,
        Some(alpha) => alpha * v,
        None => v,
    }
}

/// Portable [`fused_sweep_on`]: one row × sixteen columns at a time,
/// separate multiply and add.
fn fused_portable<const ACC: bool>(
    rows: usize,
    plane: &[f32],
    p: Patches,
    l: &FusedF32<'_>,
    n: usize,
    dst: &mut [f32],
    out: Patches,
) {
    const NR: usize = 16;
    for r in 0..rows {
        let (base, at) = (p.offset(r), out.offset(r));
        for js in (0..n).step_by(NR) {
            let width = NR.min(n - js);
            let c = &mut dst[at + js..][..width];
            let mut acc = [0.0f32; NR];
            if ACC {
                acc[..width].copy_from_slice(c);
            }
            for span in 0..l.spans {
                let a = &plane[base + span * p.row_stride..][..l.span_len];
                let w = &l.w[span * l.span_len * n + js..];
                for (t, &av) in a.iter().enumerate() {
                    let wr = &w[t * n..][..width];
                    // A whole strip has a length the compiler can see.
                    if let Ok(wr) = <&[f32; NR]>::try_from(wr) {
                        for (x, &wv) in acc.iter_mut().zip(wr) {
                            *x += av * wv;
                        }
                    } else {
                        for (x, &wv) in acc.iter_mut().zip(wr) {
                            *x += av * wv;
                        }
                    }
                }
            }
            if ACC {
                c.copy_from_slice(&acc[..width]);
            } else {
                let bias = &l.bias[js..js + width];
                for ((d, &x), &b) in c.iter_mut().zip(&acc).zip(bias) {
                    *d = bias_act(x, b, l.alpha);
                }
            }
        }
    }
}

/// Declares a vector leg of [`fused_sweep_on`]: row blocks × column blocks of
/// two vectors, or one for the last `$lanes` columns or fewer. In a
/// block, `R` patches share every weight load, and `R × S` accumulator
/// registers (`S` ≤ 2 vectors of columns) are the independent FMA chains
/// that hide the instruction's latency; a call of at most `$few` rows —
/// the dense head over a handful of windows — takes the smaller block, so
/// it does not pay for chains it cannot fill. The blocks are called by
/// name so that they inline into the sweep, where the full-vector masks
/// of a two-vector block fold to constants.
#[cfg(target_arch = "x86_64")]
macro_rules! fused_leg {
    ($(#[$doc:meta])* $name:ident, $block:ident, $features:literal, $lanes:expr, $rows:expr, $few:expr) => {
        $(#[$doc])*
        ///
        /// # Safety
        ///
        /// Callers must ensure the CPU supports the leg's features and
        /// the operands passed [`fused_sweep_on`]'s checks.
        #[target_feature(enable = $features)]
        unsafe fn $name<const ACC: bool>(
            rows: usize,
            plane: &[f32],
            p: Patches,
            l: &FusedF32<'_>,
            n: usize,
            dst: &mut [f32],
            out: Patches,
        ) {
            let few = rows <= $few;
            for r0 in (0..rows).step_by(if few { $few } else { $rows }) {
                for js in (0..n).step_by(2 * $lanes) {
                    match (few, n - js > $lanes) {
                        (false, true) => $block::<$rows, 2, ACC>(r0, rows, plane, p, l, n, js, dst, out),
                        (false, false) => $block::<$rows, 1, ACC>(r0, rows, plane, p, l, n, js, dst, out),
                        (true, true) => $block::<$few, 2, ACC>(r0, rows, plane, p, l, n, js, dst, out),
                        (true, false) => $block::<$few, 1, ACC>(r0, rows, plane, p, l, n, js, dst, out),
                    }
                }
            }
        }
    };
}

fused_leg!(
    /// AVX-512: twelve 512-bit rows × 2 leave room for the two weight
    /// vectors and a broadcast in 32 registers.
    fused_avx512, zmm_block, "avx512f", 16, 12, 8
);
fused_leg!(
    /// AVX2 + FMA: the AVX-512 leg at half the width, lane for lane the
    /// same operations — six 256-bit rows × 2 in 16 registers.
    fused_avx2, ymm_block, "avx2,fma", 8, 6, 4
);

/// One `R`-row × `S`-vector block of the AVX-512 leg: the accumulators
/// start from zero, or from `dst` with `ACC`; every `k`-step is `S`
/// (masked) weight loads straight from the layer's matrix and `R`
/// activation broadcasts feeding `R·S` `vfmadd231ps`; without `ACC` the
/// block is finished in registers — biased, blended (ordered ≥) — and
/// each is stored once. Rows past the last one recompute it and are not
/// stored.
///
/// # Safety
///
/// Callers must ensure the CPU supports AVX-512F, the operands passed
/// [`fused_sweep_on`]'s checks, `r0 < rows` and `js < n`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[inline]
#[allow(clippy::too_many_arguments)]
unsafe fn zmm_block<const R: usize, const S: usize, const ACC: bool>(
    r0: usize,
    rows: usize,
    plane: &[f32],
    p: Patches,
    l: &FusedF32<'_>,
    n: usize,
    js: usize,
    dst: &mut [f32],
    out: Patches,
) {
    use std::arch::x86_64::*;
    let live = R.min(rows - r0);
    let mut a = block_offsets::<R>(p, r0, live).map(|at| plane.as_ptr().add(at));
    let to = block_offsets::<R>(out, r0, live);
    let mut mask = [0; S];
    for (s, m) in mask.iter_mut().enumerate() {
        *m = lane_mask(16.min(n - js - 16 * s));
    }
    let mut acc = [[_mm512_setzero_ps(); S]; R];
    if ACC {
        for (row, &at) in acc.iter_mut().zip(&to) {
            for (s, v) in row.iter_mut().enumerate() {
                *v = _mm512_maskz_loadu_ps(mask[s], dst.as_ptr().add(at + js + 16 * s));
            }
        }
    }
    let mut w = l.w.as_ptr().add(js);
    for _ in 0..l.spans {
        for t in 0..l.span_len {
            let mut wv = [_mm512_setzero_ps(); S];
            for (s, v) in wv.iter_mut().enumerate() {
                *v = _mm512_maskz_loadu_ps(mask[s], w.add(16 * s));
            }
            for r in 0..R {
                let av = _mm512_set1_ps(*a[r].add(t));
                for s in 0..S {
                    acc[r][s] = _mm512_fmadd_ps(av, wv[s], acc[r][s]);
                }
            }
            w = w.add(n);
        }
        for ptr in &mut a {
            *ptr = ptr.add(p.row_stride);
        }
    }
    let zero = _mm512_setzero_ps();
    for s in 0..S {
        let col = js + 16 * s;
        let bias = if ACC {
            zero
        } else {
            _mm512_maskz_loadu_ps(mask[s], l.bias.as_ptr().add(col))
        };
        for (r, row) in acc.iter().enumerate().take(live) {
            let mut v = row[s];
            if !ACC {
                v = _mm512_add_ps(v, bias);
                if let Some(alpha) = l.alpha {
                    let leak = _mm512_mul_ps(_mm512_set1_ps(alpha), v);
                    v = _mm512_mask_mov_ps(leak, _mm512_cmp_ps_mask::<_CMP_GE_OQ>(v, zero), v);
                }
            }
            _mm512_mask_storeu_ps(dst.as_mut_ptr().add(to[r] + col), mask[s], v);
        }
    }
}

/// [`zmm_block`] on 256-bit registers; `vmaskmovps` takes its lane mask
/// as a vector, cut from a run of ones followed by zeros.
///
/// # Safety
///
/// Callers must ensure the CPU supports AVX2 and FMA, the operands
/// passed [`fused_sweep_on`]'s checks, `r0 < rows` and `js < n`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
#[inline]
#[allow(clippy::too_many_arguments)]
unsafe fn ymm_block<const R: usize, const S: usize, const ACC: bool>(
    r0: usize,
    rows: usize,
    plane: &[f32],
    p: Patches,
    l: &FusedF32<'_>,
    n: usize,
    js: usize,
    dst: &mut [f32],
    out: Patches,
) {
    use std::arch::x86_64::*;
    const LANES: [i32; 16] = [-1, -1, -1, -1, -1, -1, -1, -1, 0, 0, 0, 0, 0, 0, 0, 0];
    let live = R.min(rows - r0);
    let mut a = block_offsets::<R>(p, r0, live).map(|at| plane.as_ptr().add(at));
    let to = block_offsets::<R>(out, r0, live);
    let mut mask = [_mm256_setzero_si256(); S];
    for (s, m) in mask.iter_mut().enumerate() {
        let width = 8.min(n - js - 8 * s);
        *m = _mm256_loadu_si256(LANES.as_ptr().add(8 - width) as *const __m256i);
    }
    let mut acc = [[_mm256_setzero_ps(); S]; R];
    if ACC {
        for (row, &at) in acc.iter_mut().zip(&to) {
            for (s, v) in row.iter_mut().enumerate() {
                *v = _mm256_maskload_ps(dst.as_ptr().add(at + js + 8 * s), mask[s]);
            }
        }
    }
    let mut w = l.w.as_ptr().add(js);
    for _ in 0..l.spans {
        for t in 0..l.span_len {
            let mut wv = [_mm256_setzero_ps(); S];
            for (s, v) in wv.iter_mut().enumerate() {
                *v = _mm256_maskload_ps(w.add(8 * s), mask[s]);
            }
            for r in 0..R {
                let av = _mm256_set1_ps(*a[r].add(t));
                for s in 0..S {
                    acc[r][s] = _mm256_fmadd_ps(av, wv[s], acc[r][s]);
                }
            }
            w = w.add(n);
        }
        for ptr in &mut a {
            *ptr = ptr.add(p.row_stride);
        }
    }
    let zero = _mm256_setzero_ps();
    for s in 0..S {
        let col = js + 8 * s;
        let bias = if ACC {
            zero
        } else {
            _mm256_maskload_ps(l.bias.as_ptr().add(col), mask[s])
        };
        for (r, row) in acc.iter().enumerate().take(live) {
            let mut v = row[s];
            if !ACC {
                v = _mm256_add_ps(v, bias);
                if let Some(alpha) = l.alpha {
                    let leak = _mm256_mul_ps(_mm256_set1_ps(alpha), v);
                    v = _mm256_blendv_ps(leak, v, _mm256_cmp_ps::<_CMP_GE_OQ>(v, zero));
                }
            }
            _mm256_maskstore_ps(dst.as_mut_ptr().add(to[r] + col), mask[s], v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::testing::{bits, bits_nan_folded, fill, fill_special, max_rel_err};
    use super::*;

    /// The portable leg of [`gemm`]: the accumulating portable sweep.
    fn portable(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
        let l = FusedF32 {
            spans: 1,
            span_len: k,
            w: b,
            bias: &[],
            alpha: None,
        };
        let (rows, out) = (Patches::matrix(k), Patches::matrix(n));
        fused_sweep_on::<true>(F32Leg::Portable, m, a, rows, &l, n, c, out);
    }

    const SHAPES: &[(usize, usize, usize)] = &[
        (1, 1, 1),
        (2, 3, 2),
        (5, 7, 9),
        (1, 120, 1),
        (128, 120, 64),
        (65, 257, 17), // k past one 256-deep panel
        (6, 512, 16),
    ];

    #[test]
    fn portable_kernel_is_bitwise_identical_to_naive() {
        for &(m, k, n) in SHAPES {
            let a = fill(m as u64 * 31 + k as u64, m * k);
            let b = fill(n as u64 * 17 + 3, k * n);
            let mut c_naive = vec![0.0f32; m * n];
            let mut c_blocked = vec![0.0f32; m * n];
            naive(m, k, n, &a, &b, &mut c_naive);
            portable(m, k, n, &a, &b, &mut c_blocked);
            assert_eq!(c_naive, c_blocked, "shape {m}×{k}×{n}");
        }
    }

    #[test]
    fn dispatched_kernel_matches_naive_within_tolerance() {
        // The AVX2 path fuses multiply-adds; 1e-4 rel is the contract.
        for &(m, k, n) in SHAPES {
            let a = fill(m as u64 + 7, m * k);
            let b = fill(n as u64 + 11, k * n);
            let mut c_naive = vec![0.0f32; m * n];
            let mut c_fast = vec![0.0f32; m * n];
            naive(m, k, n, &a, &b, &mut c_naive);
            gemm(m, k, n, &a, &b, &mut c_fast);
            let err = max_rel_err(&c_naive, &c_fast);
            assert!(err < 1e-4, "shape {m}×{k}×{n}: rel err {err}");
        }
    }

    #[test]
    fn dispatched_kernel_is_deterministic_run_to_run() {
        let (m, k, n) = (65, 257, 17);
        let a = fill(21, m * k);
        let b = fill(22, k * n);
        let mut c1 = vec![0.0f32; m * n];
        let mut c2 = vec![0.0f32; m * n];
        gemm(m, k, n, &a, &b, &mut c1);
        gemm(m, k, n, &a, &b, &mut c2);
        assert_eq!(c1, c2);
    }

    #[test]
    fn kernels_accumulate_rather_than_overwrite() {
        let (m, k, n) = (3, 4, 2);
        let a = fill(7, m * k);
        let b = fill(8, k * n);
        let mut once = vec![0.0f32; m * n];
        gemm(m, k, n, &a, &b, &mut once);
        let mut twice = vec![0.0f32; m * n];
        gemm(m, k, n, &a, &b, &mut twice);
        gemm(m, k, n, &a, &b, &mut twice);
        for (o, t) in once.iter().zip(&twice) {
            assert!((2.0 * o - t).abs() < 1e-5);
        }
    }

    #[test]
    fn zero_dims_are_noops() {
        let mut c: Vec<f32> = Vec::new();
        gemm(0, 4, 3, &[], &fill(1, 12), &mut c);
        let mut c2 = vec![1.0f32; 6];
        gemm(2, 0, 3, &[], &[], &mut c2);
        assert_eq!(c2, vec![1.0; 6]); // k = 0 adds nothing
    }

    #[test]
    #[should_panic(expected = "gemm: lhs length")]
    fn dimension_mismatch_panics() {
        let mut c = vec![0.0f32; 4];
        gemm(2, 3, 2, &[0.0; 5], &[0.0; 6], &mut c);
    }

    /// [`fused_sweep_on`] by the book, per element: `0 → madd over k
    /// ascending → + bias → x ≥ 0 ? x : α·x`, or with `ACC` `C → madd over
    /// k ascending`.
    #[allow(clippy::too_many_arguments)]
    fn fused_reference<const ACC: bool>(
        rows: usize,
        plane: &[f32],
        p: Patches,
        l: &FusedF32<'_>,
        n: usize,
        dst: &mut [f32],
        out: Patches,
        madd: fn(f32, f32, f32) -> f32,
    ) {
        for r in 0..rows {
            for j in 0..n {
                let at = out.offset(r) + j;
                let mut acc = if ACC { dst[at] } else { 0.0 };
                for k in 0..l.spans * l.span_len {
                    let a = plane[p.offset(r) + k / l.span_len * p.row_stride + k % l.span_len];
                    acc = madd(a, l.w[k * n + j], acc);
                }
                dst[at] = if ACC {
                    acc
                } else {
                    bias_act(acc, l.bias[j], l.alpha)
                };
            }
        }
    }

    /// Runs the sweep (`ACC` or not) on every leg this CPU has, over a
    /// copy of `c0` from `origin` on, and holds each leg to its scalar
    /// reference — `a·b + c` portable, `f32::mul_add` on the two vector
    /// legs, which therefore agree.
    #[allow(clippy::too_many_arguments)]
    fn check_fused_legs<const ACC: bool>(
        rows: usize,
        plane: &[f32],
        p: Patches,
        l: &FusedF32<'_>,
        n: usize,
        c0: &[f32],
        origin: usize,
        out: Patches,
        what: &str,
    ) {
        let run = |leg: &dyn Fn(&mut [f32])| {
            let mut dst = c0.to_vec();
            leg(&mut dst[origin..]);
            bits_nan_folded(&dst)
        };
        for leg in F32Leg::ALL.into_iter().filter(|leg| leg.supported()) {
            let madd: fn(f32, f32, f32) -> f32 = match leg {
                F32Leg::Portable => |a: f32, b: f32, c: f32| a * b + c,
                F32Leg::Avx2 | F32Leg::Avx512 => f32::mul_add,
            };
            let want = run(&|d| fused_reference::<ACC>(rows, plane, p, l, n, d, out, madd));
            let got = run(&|d| fused_sweep_on::<ACC>(leg, rows, plane, p, l, n, d, out));
            assert_eq!(want, got, "{} {what}", leg.name());
        }
    }

    #[test]
    fn fused_f32_legs_match_their_references() {
        // (h, w, cin, kh, kw, cout): the critic's layers, masked column
        // tails on both vector widths, a ragged last row block, the dense
        // head's few-rows block and a 1×1 plane — biased, and accumulated
        // into a C holding ±0, ±∞ and NaN.
        for &(h, w, cin, kh, kw, cout) in &[
            (10usize, 12usize, 1usize, 2usize, 2usize, 8usize),
            (10, 12, 8, 2, 2, 16),
            (10, 12, 16, 2, 2, 32),
            (5, 7, 3, 3, 2, 17),
            (4, 5, 2, 1, 3, 40),
            (3, 3, 5, 2, 1, 1),
            (1, 7, 64, 1, 1, 1),
            (1, 1, 9, 1, 1, 3),
        ] {
            let (spans, span_len, rows) = (kh, kw * cin, h * w);
            let p = Patches {
                width: w,
                row_stride: (w + kw - 1) * cin,
                col_stride: cin,
            };
            let mut plane = fill(h as u64 * 7 + cout as u64, (h + kh - 1) * p.row_stride);
            // Values a range-tripping window, an idle one and a flushed
            // one would leave behind.
            for (i, v) in plane.iter_mut().enumerate() {
                match i % 11 {
                    3 => *v *= 1e30,
                    5 => *v = 0.0,
                    7 => *v *= 1e-41,
                    _ => {}
                }
            }
            let weights = fill(cout as u64 * 13 + 1, spans * span_len * cout);
            let bias = fill(cin as u64 + 5, cout);
            // Straight rows, and the interior of a wider, bordered plane.
            let outs = [
                (0, Patches::matrix(cout)),
                (
                    (w + 2) * cout + cout,
                    Patches {
                        width: w,
                        row_stride: (w + 2) * cout,
                        col_stride: cout,
                    },
                ),
            ];
            for (origin, out) in outs {
                let len = origin + out.extent(rows, 1, cout);
                for alpha in [None, Some(0.2f32)] {
                    let l = FusedF32 {
                        spans,
                        span_len,
                        w: &weights,
                        bias: &bias,
                        alpha,
                    };
                    let what = format!("{h}×{w}×{cin}→{cout}, k {kh}×{kw}, {alpha:?}");
                    let zeros = vec![0.0f32; len];
                    check_fused_legs::<false>(
                        rows, &plane, p, &l, cout, &zeros, origin, out, &what,
                    );
                    if alpha.is_none() {
                        let c0 = fill_special(rows as u64 + cout as u64, len);
                        let what = format!("accumulate {what}");
                        check_fused_legs::<true>(
                            rows, &plane, p, &l, cout, &c0, origin, out, &what,
                        );
                    }
                }
            }
        }
        // The accumulating epilogue as `gemm` runs it: plain rows, every
        // row-block height of both vector legs and ragged last blocks,
        // columns on both sides of one and two vectors, k across a
        // 256-deep panel, ±0, ±∞ and NaN in A, B and C.
        let widths = [1usize, 7, 8, 9, 16, 17, 32, 33, 40];
        let depths = [1usize, 5, 64, 256, 257, 300];
        for (i, m) in (1usize..=13).chain([25, 37]).enumerate() {
            for (j, &n) in widths.iter().enumerate() {
                let k = depths[(i + 3 * j) % depths.len()];
                let seed = (i * widths.len() + j) as u64 * 3 + 1;
                let (a, b) = (fill_special(seed, m * k), fill_special(seed + 1, k * n));
                let c0 = fill_special(seed + 2, m * n);
                let l = FusedF32 {
                    spans: 1,
                    span_len: k,
                    w: &b,
                    bias: &[],
                    alpha: None,
                };
                let (rows, out) = (Patches::matrix(k), Patches::matrix(n));
                let what = format!("gemm m {m}, k {k}, n {n}");
                check_fused_legs::<true>(m, &a, rows, &l, n, &c0, 0, out, &what);
            }
        }
    }

    #[test]
    fn naive_is_the_portable_kernel_on_finite_operands_only() {
        // `naive` skips a zero in `A`: the NaN of 0·∞ never reaches `C`,
        // and a −0.0 accumulator is not turned into +0.0 by adding +0.0.
        let (mut skipped, mut swept) = ([-0.0f32, 1.0], [-0.0f32, 1.0]);
        naive(1, 1, 2, &[0.0], &[1.0, f32::INFINITY], &mut skipped);
        portable(1, 1, 2, &[0.0], &[1.0, f32::INFINITY], &mut swept);
        assert_eq!(bits(&skipped), bits(&[-0.0, 1.0]));
        assert!(swept[0].to_bits() == 0 && swept[1].is_nan());
    }

    #[test]
    #[should_panic(expected = "gemm_f32_fused: plane too short")]
    fn fused_f32_rejects_a_short_plane() {
        let l = FusedF32 {
            spans: 2,
            span_len: 2,
            w: &[1.0; 4],
            bias: &[0.0],
            alpha: None,
        };
        let p = Patches {
            width: 2,
            row_stride: 3,
            col_stride: 1,
        };
        // Two pixels of a 2×3 plane need all six floats.
        gemm_f32_fused(2, &[0.0; 5], p, l, &mut [0.0; 2], Patches::matrix(1));
    }
}
