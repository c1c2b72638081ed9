//! The f32 backward products [`gemm_tn`] (`dW`) and [`gemm_nt`] (`dX`),
//! and [`dot`], whose arithmetic every leg of [`gemm_nt`] performs.

use super::*;

/// Depth of one panel of [`gemm_tn`]'s AVX-512 sweep (keeps the panel's
/// rows of `B` L1-resident).
#[cfg(target_arch = "x86_64")]
const KC: usize = 256;

/// Rows of `C` below which [`gemm_nt`] stays on the body's one [`dot`] per
/// output: the AVX-512 leg gathers `B` into strips first, which a product
/// of a few rows does not repay (EXPERIMENTS.md "Training at vector
/// width": break-even between 4 and 8 rows).
#[cfg(target_arch = "x86_64")]
const NT_FEW: usize = 8;

#[cfg(target_arch = "x86_64")]
thread_local! {
    /// Reusable buffer for the `B` strips of [`gemm_nt`]'s AVX-512 leg —
    /// it grows once per thread, so steady-state calls allocate nothing.
    static PACK: std::cell::RefCell<Vec<f32>> = const { std::cell::RefCell::new(Vec::new()) };
}

/// One `R`-row × `S`-vector block of [`gemm_tn_avx512`]'s `C` held in
/// registers across `kc` steps of the shared dimension: every step is `S`
/// (masked) loads of a row of `B` and `R` broadcasts of `A` feeding `R·S`
/// `vmulps` then `vaddps` (the portable body rounds the product before it
/// adds). Element `(r, kk)` of the block's slice of `A` is at
/// `a[r + kk·m]`.
///
/// # Safety
///
/// Callers must ensure the CPU supports AVX-512F, `1 ≤ w`, and that the
/// `R × kc` elements of `a` so addressed, `kc` rows of `min(w, 16·S)`
/// floats at `b` (stride `n`) and `R` such rows at `c` (stride `n`) are
/// inside their allocations.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[inline]
unsafe fn madd_block<const R: usize, const S: usize>(
    kc: usize,
    w: usize,
    a: *const f32,
    m: usize,
    b: *const f32,
    n: usize,
    c: *mut f32,
) {
    use std::arch::x86_64::*;
    let mut mask = [0; S];
    for (s, lanes) in mask.iter_mut().enumerate() {
        *lanes = lane_mask(16.min(w - 16 * s));
    }
    let mut acc = [[_mm512_setzero_ps(); S]; R];
    for (r, block_row) in acc.iter_mut().enumerate() {
        for (s, v) in block_row.iter_mut().enumerate() {
            *v = _mm512_maskz_loadu_ps(mask[s], c.add(r * n + 16 * s));
        }
    }
    for kk in 0..kc {
        let mut bv = [_mm512_setzero_ps(); S];
        for (s, v) in bv.iter_mut().enumerate() {
            *v = _mm512_maskz_loadu_ps(mask[s], b.add(kk * n + 16 * s));
        }
        for (r, block_row) in acc.iter_mut().enumerate() {
            let av = _mm512_set1_ps(*a.add(r + kk * m));
            for (x, &bv) in block_row.iter_mut().zip(&bv) {
                *x = _mm512_add_ps(*x, _mm512_mul_ps(av, bv));
            }
        }
    }
    for (r, block_row) in acc.iter().enumerate() {
        for (s, &v) in block_row.iter().enumerate() {
            _mm512_mask_storeu_ps(c.add(r * n + 16 * s), mask[s], v);
        }
    }
}

/// `C += A·Bᵀ` for row-major `a` (`m×k`), `b` (`n×k`), `c` (`m×n`).
///
/// The transpose-free input-gradient kernel: `dX = dY·Wᵀ` calls this with
/// `W` as stored (`[in, out]` order) instead of materializing `Wᵀ`. Both
/// operands are read row-contiguously, so it is a pure dot-product sweep.
/// Every leg performs the fixed eight-lane reduction of [`dot`] per output
/// — deterministic and machine-independent.
///
/// # Panics
///
/// Panics if any slice length disagrees with the stated dimensions.
pub fn gemm_nt(m: usize, n: usize, k: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    gemm_nt_on(F32Leg::dispatched(), m, n, k, a, b, c);
}

/// [`gemm_nt`] on `leg`; the AVX-512 leg leaves a product of fewer than
/// [`NT_FEW`] rows to the AVX2 body, the portable source at vector width.
fn gemm_nt_on(leg: F32Leg, m: usize, n: usize, k: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    assert_eq!(a.len(), m * k, "gemm_nt: lhs length {} != {m}×{k}", a.len());
    assert_eq!(b.len(), n * k, "gemm_nt: rhs length {} != {n}×{k}", b.len());
    assert_eq!(c.len(), m * n, "gemm_nt: out length {} != {m}×{n}", c.len());
    assert!(leg.supported(), "{leg:?} leg not supported here");
    // SAFETY: the leg is supported (AVX-512 includes AVX2 + FMA), the
    // slices have the stated sizes, and the gather's offsets `j·k` fit i32.
    match leg {
        #[cfg(target_arch = "x86_64")]
        F32Leg::Avx512 if m >= NT_FEW && k <= i32::MAX as usize / 16 => {
            PACK.with(|p| unsafe { gemm_nt_avx512(m, n, k, a, b, c, &mut p.borrow_mut()) })
        }
        #[cfg(target_arch = "x86_64")]
        F32Leg::Avx2 | F32Leg::Avx512 => unsafe { gemm_nt_avx2(m, n, k, a, b, c) },
        _ => gemm_nt_body(m, n, k, a, b, c),
    }
}

#[inline(always)]
fn gemm_nt_body(m: usize, n: usize, k: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    for i in 0..m {
        let ar = &a[i * k..(i + 1) * k];
        let cr = &mut c[i * n..(i + 1) * n];
        for (j, cv) in cr.iter_mut().enumerate() {
            *cv += dot(ar, &b[j * k..(j + 1) * k]);
        }
    }
}

/// # Safety
///
/// Callers must ensure the CPU supports AVX2 and FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn gemm_nt_avx2(m: usize, n: usize, k: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    gemm_nt_body(m, n, k, a, b, c)
}

/// AVX-512 [`gemm_nt`]: sixteen outputs of a row of `C` per vector, each of
/// [`dot`]'s eight lanes a register of its own, so the partial sums, the
/// reduction tree and the tail are all vertical operations and every
/// output is [`dot`]'s operations in [`dot`]'s order — the same bits as
/// [`gemm_nt_body`]. A `k`-step needs `B[j..j + 16][t]` side by side, so
/// `B` is first gathered into `bt` as 16-column strips of `k` such rows
/// (zero-padded past `n`); that costs `n·k` moves against `m·n·k`
/// multiply-adds, which is why [`gemm_nt`] sends a product of a few rows
/// to the body instead.
///
/// # Safety
///
/// Callers must ensure the CPU supports AVX-512F, that `a`, `b` and `c`
/// hold `m·k`, `n·k` and `m·n` elements, and `16·k ≤ i32::MAX`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn gemm_nt_avx512(
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    bt: &mut Vec<f32>,
) {
    use std::arch::x86_64::*;
    let strips = n.div_ceil(16);
    if bt.len() < strips * k * 16 {
        bt.resize(strips * k * 16, 0.0);
    }
    let lane = _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15);
    let from = _mm512_mullo_epi32(lane, _mm512_set1_epi32(k as i32));
    for s in 0..strips {
        let mask = lane_mask(16.min(n - 16 * s));
        for t in 0..k {
            let column = b.as_ptr().add(16 * s * k + t);
            let row = _mm512_mask_i32gather_ps::<4>(_mm512_setzero_ps(), mask, from, column);
            _mm512_storeu_ps(bt.as_mut_ptr().add((s * k + t) * 16), row);
        }
    }
    let mut i0 = 0;
    while i0 < m {
        let rows = (m - i0).min(3);
        for s in 0..strips {
            let (ap, bp) = (a.as_ptr().add(i0 * k), bt.as_ptr().add(s * k * 16));
            let cp = c.as_mut_ptr().add(i0 * n + 16 * s);
            match rows {
                3 => dot_block::<3>(n - 16 * s, n, k, ap, bp, cp),
                2 => dot_block::<2>(n - 16 * s, n, k, ap, bp, cp),
                _ => dot_block::<1>(n - 16 * s, n, k, ap, bp, cp),
            }
        }
        i0 += rows;
    }
}

/// `R` rows × `min(w, 16)` columns of [`gemm_nt_avx512`]: accumulator
/// `[r][l]` is lane `l` of [`dot`] for the sixteen outputs of row `r` — per
/// 8-chunk of `k` one multiply, rounded, then one add — and a row of the
/// strip `bt` is loaded once for the `R` rows it meets. Then, per row,
/// [`dot`]'s tree `((l0+l4)+(l2+l6)) + ((l1+l5)+(l3+l7))`, the `k % 8` tail
/// summed from zero in order, and `C += tree + tail`.
///
/// # Safety
///
/// Callers must ensure the CPU supports AVX-512F, `1 ≤ w`, and that `R`
/// rows of `k` floats at `a`, `16·k` floats at `bt` and `R` rows of
/// `min(w, 16)` floats at `c` (stride `n`) are inside their allocations.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[inline]
unsafe fn dot_block<const R: usize>(
    w: usize,
    n: usize,
    k: usize,
    a: *const f32,
    bt: *const f32,
    c: *mut f32,
) {
    use std::arch::x86_64::*;
    let mut acc = [[_mm512_setzero_ps(); 8]; R];
    let whole = k - k % 8;
    for t0 in (0..whole).step_by(8) {
        for l in 0..8 {
            let bv = _mm512_loadu_ps(bt.add((t0 + l) * 16));
            for (r, lanes) in acc.iter_mut().enumerate() {
                let av = _mm512_set1_ps(*a.add(r * k + t0 + l));
                lanes[l] = _mm512_add_ps(lanes[l], _mm512_mul_ps(av, bv));
            }
        }
    }
    let mut tail = [_mm512_setzero_ps(); R];
    for t in whole..k {
        let bv = _mm512_loadu_ps(bt.add(t * 16));
        for (r, sum) in tail.iter_mut().enumerate() {
            let av = _mm512_set1_ps(*a.add(r * k + t));
            *sum = _mm512_add_ps(*sum, _mm512_mul_ps(av, bv));
        }
    }
    let mask = lane_mask(16.min(w));
    for (r, (l, &tail)) in acc.iter().zip(&tail).enumerate() {
        let s0 = _mm512_add_ps(_mm512_add_ps(l[0], l[4]), _mm512_add_ps(l[2], l[6]));
        let s1 = _mm512_add_ps(_mm512_add_ps(l[1], l[5]), _mm512_add_ps(l[3], l[7]));
        let dot = _mm512_add_ps(_mm512_add_ps(s0, s1), tail);
        let at = c.add(r * n);
        let sum = _mm512_add_ps(_mm512_maskz_loadu_ps(mask, at), dot);
        _mm512_mask_storeu_ps(at, mask, sum);
    }
}

/// Eight-lane dot product with a fixed reduction tree: deterministic and
/// identical on every ISA, but associated differently from a scalar left
/// fold (lane partials are combined pairwise at the end).
#[inline]
pub fn dot(x: &[f32], y: &[f32]) -> f32 {
    const L: usize = 8;
    let mut lanes = [0.0f32; L];
    let mut xc = x.chunks_exact(L);
    let mut yc = y.chunks_exact(L);
    for (xv, yv) in (&mut xc).zip(&mut yc) {
        for (l, lane) in lanes.iter_mut().enumerate() {
            *lane += xv[l] * yv[l];
        }
    }
    let mut tail = 0.0f32;
    for (xv, yv) in xc.remainder().iter().zip(yc.remainder()) {
        tail += xv * yv;
    }
    let s0 = (lanes[0] + lanes[4]) + (lanes[2] + lanes[6]);
    let s1 = (lanes[1] + lanes[5]) + (lanes[3] + lanes[7]);
    (s0 + s1) + tail
}

/// `C += Aᵀ·B` for row-major `a` (`k×m`), `b` (`k×n`), `c` (`m×n`).
///
/// The transpose-free weight-gradient kernel: `dW += Xᵀ·dY` calls this
/// with the activations/im2col matrix as stored, accumulating straight
/// into the gradient buffer — no transposed copy, no temporary product.
/// Exactly one unfused multiply-add per output element per `k`-step, in
/// strictly increasing `k`, on every leg: bitwise identical to
/// `a.transpose().matmul(b)` on the portable one.
///
/// # Panics
///
/// Panics if any slice length disagrees with the stated dimensions.
pub fn gemm_tn(m: usize, n: usize, k: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    gemm_tn_on(F32Leg::dispatched(), m, n, k, a, b, c);
}

/// [`gemm_tn`] on `leg`; the AVX-512 leg leaves the `n = 1` head to the
/// AVX2 body, the portable source at vector width.
fn gemm_tn_on(leg: F32Leg, m: usize, n: usize, k: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    assert_eq!(a.len(), k * m, "gemm_tn: lhs length {} != {k}×{m}", a.len());
    assert_eq!(b.len(), k * n, "gemm_tn: rhs length {} != {k}×{n}", b.len());
    assert_eq!(c.len(), m * n, "gemm_tn: out length {} != {m}×{n}", c.len());
    assert!(leg.supported(), "{leg:?} leg not supported here");
    // SAFETY: the leg is supported (AVX-512 includes AVX2 + FMA) and the
    // slices have the stated sizes.
    match leg {
        #[cfg(target_arch = "x86_64")]
        F32Leg::Avx512 if n > 1 => unsafe { gemm_tn_avx512(m, n, k, a, b, c) },
        #[cfg(target_arch = "x86_64")]
        F32Leg::Avx2 | F32Leg::Avx512 => unsafe { gemm_tn_avx2(m, n, k, a, b, c) },
        _ => gemm_tn_body(m, n, k, a, b, c),
    }
}

#[inline(always)]
fn gemm_tn_body(m: usize, n: usize, k: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    for kk in 0..k {
        let ar = &a[kk * m..(kk + 1) * m];
        let br = &b[kk * n..(kk + 1) * n];
        if n == 1 {
            // Critic head: dW is a column vector — a straight axpy.
            let bv = br[0];
            for (cv, &av) in c.iter_mut().zip(ar) {
                *cv += av * bv;
            }
        } else {
            for (i, &av) in ar.iter().enumerate() {
                let cr = &mut c[i * n..(i + 1) * n];
                for (cv, &bv) in cr.iter_mut().zip(br) {
                    *cv += av * bv;
                }
            }
        }
    }
}

/// # Safety
///
/// Callers must ensure the CPU supports AVX2 and FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn gemm_tn_avx2(m: usize, n: usize, k: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    gemm_tn_body(m, n, k, a, b, c)
}

/// AVX-512 [`gemm_tn`]: a block of `C` stays in registers across the `k`
/// sweep that the rank-1 loop of [`gemm_tn_body`] makes through memory.
/// Per element still one multiply, rounded, then one add per `k`-step in
/// increasing `k` from the value in `C` — the same bits. Per `KC`-deep
/// panel of the shared dimension, rows go greedily in [`madd_block`]s of
/// 12, 8, 4, 2 and 1 (every block is whole, so no row is computed and
/// thrown away), columns in pairs of vectors with one masked vector for
/// the last 16 or fewer. The single-column head is not routed here: its
/// update is an axpy along `C`, which the body already does at vector
/// width.
///
/// # Safety
///
/// Callers must ensure the CPU supports AVX-512F and that `a`, `b` and `c`
/// hold `k·m`, `k·n` and `m·n` elements.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn gemm_tn_avx512(m: usize, n: usize, k: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    for kb in (0..k).step_by(KC) {
        let kc = KC.min(k - kb);
        let mut i0 = 0;
        while i0 < m {
            let rows = match m - i0 {
                12.. => 12,
                8.. => 8,
                4.. => 4,
                left => left.min(2),
            };
            for js in (0..n).step_by(32) {
                let w = n - js;
                let ap = a.as_ptr().add(i0 + kb * m);
                let bp = b.as_ptr().add(kb * n + js);
                let cp = c.as_mut_ptr().add(i0 * n + js);
                macro_rules! block {
                    ($r:literal) => {
                        if w > 16 {
                            madd_block::<$r, 2>(kc, w, ap, m, bp, n, cp)
                        } else {
                            madd_block::<$r, 1>(kc, w, ap, m, bp, n, cp)
                        }
                    };
                }
                match rows {
                    12 => block!(12),
                    8 => block!(8),
                    4 => block!(4),
                    2 => block!(2),
                    _ => block!(1),
                }
            }
            i0 += rows;
        }
    }
}

/// Blocked out-of-place transpose: `dst[j·m + i] = src[i·n + j]` in 32×32
/// tiles so reads and writes both stay cache-resident.
///
/// # Panics
///
/// Panics if `src`/`dst` lengths differ from `m·n`.
pub fn transpose_into(m: usize, n: usize, src: &[f32], dst: &mut [f32]) {
    assert_eq!(
        src.len(),
        m * n,
        "transpose: src length {} != {m}×{n}",
        src.len()
    );
    assert_eq!(
        dst.len(),
        m * n,
        "transpose: dst length {} != {m}×{n}",
        dst.len()
    );
    const TILE: usize = 32;
    for it in (0..m).step_by(TILE) {
        let ih = TILE.min(m - it);
        for jt in (0..n).step_by(TILE) {
            let jw = TILE.min(n - jt);
            for i in it..it + ih {
                for j in jt..jt + jw {
                    dst[j * m + i] = src[i * n + j];
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::naive;
    use super::super::testing::{bits_nan_folded, fill, fill_special, max_rel_err};
    use super::*;

    #[test]
    fn nt_matches_naive_on_pretransposed_operand() {
        for &(m, k, n) in &[(9, 33, 5), (1, 1, 1), (4, 1, 7), (16, 64, 1)] {
            let a = fill(3, m * k);
            let bt = fill(4, n * k); // B stored as [n, k]
            let mut b = vec![0.0f32; k * n];
            transpose_into(n, k, &bt, &mut b);
            let mut c_ref = vec![0.0f32; m * n];
            naive(m, k, n, &a, &b, &mut c_ref);
            let mut c_nt = vec![0.0f32; m * n];
            gemm_nt(m, n, k, &a, &bt, &mut c_nt);
            assert!(max_rel_err(&c_ref, &c_nt) < 1e-4, "shape {m}×{k}×{n}");
        }
    }

    #[test]
    fn tn_is_bitwise_identical_to_transpose_then_naive() {
        for &(m, k, n) in &[(13, 21, 6), (1, 1, 1), (120, 128, 1), (3, 1, 3)] {
            let at = fill(5, k * m); // A stored as [k, m]
            let b = fill(6, k * n);
            let mut a = vec![0.0f32; m * k];
            transpose_into(k, m, &at, &mut a);
            let mut c_ref = vec![0.0f32; m * n];
            // One multiply-add per element per k-step, increasing k: the
            // naive kernel's order exactly (zero-skip only drops ±0 terms).
            naive(m, k, n, &a, &b, &mut c_ref);
            let mut c_tn = vec![0.0f32; m * n];
            gemm_tn(m, n, k, &at, &b, &mut c_tn);
            assert_eq!(c_ref, c_tn, "shape {m}×{k}×{n}");
        }
    }

    #[test]
    fn transpose_tiles_roundtrip() {
        let (m, n) = (45, 70); // straddles the 32-tile boundary
        let src = fill(9, m * n);
        let mut t = vec![0.0f32; m * n];
        let mut back = vec![0.0f32; m * n];
        transpose_into(m, n, &src, &mut t);
        transpose_into(n, m, &t, &mut back);
        assert_eq!(src, back);
    }

    #[test]
    fn dot_matches_scalar_fold_within_tolerance() {
        for len in [0, 1, 7, 8, 9, 64, 120, 121] {
            let x = fill(10 + len as u64, len);
            let y = fill(20 + len as u64, len);
            let scalar: f32 = x.iter().zip(&y).map(|(a, b)| a * b).sum();
            let fast = dot(&x, &y);
            assert!(
                (scalar - fast).abs() <= 1e-4 * scalar.abs().max(1.0),
                "len {len}: {scalar} vs {fast}"
            );
        }
    }

    #[test]
    fn training_f32_legs_match_the_bodies_they_replace() {
        // Every row-block height and both strip widths with ragged edges,
        // the critic's layer shapes, k across a 256-deep panel, zero
        // dimensions.
        let dims = [0usize, 1, 2, 3, 5, 8, 13, 27];
        let widths = [0usize, 1, 4, 8, 15, 16, 17, 32, 33, 50];
        let depths = [0usize, 1, 4, 7, 8, 9, 31, 32, 120, 293];
        let mut shapes = vec![(128, 32, 64), (64, 16, 40), (4, 8, 240), (25, 128, 32)];
        for (i, &m) in dims.iter().enumerate() {
            for (j, &n) in widths.iter().enumerate() {
                shapes.push((m, n, depths[(i + 3 * j) % depths.len()]));
            }
        }
        for (case, &(m, n, k)) in shapes.iter().enumerate() {
            for special in [false, true] {
                let gen = if special { fill_special } else { fill };
                let seed = case as u64 * 3 + 1;
                let (x, y, c0) = (gen(seed, m * k), gen(seed + 1, k * n), gen(seed + 2, m * n));
                let run = |leg: &dyn Fn(&mut [f32])| {
                    let mut c = c0.clone();
                    leg(&mut c);
                    bits_nan_folded(&c)
                };
                let what = format!("m {m}, n {n}, k {k}, special {special}");
                // The portable bodies, and every leg this CPU has.
                let tn = run(&|c| gemm_tn_body(m, n, k, &x, &y, c));
                let nt = run(&|c| gemm_nt_body(m, n, k, &x, &y, c));
                for leg in F32Leg::ALL.into_iter().filter(|leg| leg.supported()) {
                    let got = run(&|c| gemm_tn_on(leg, m, n, k, &x, &y, c));
                    assert_eq!(tn, got, "gemm_tn {}: {what}", leg.name());
                    let got = run(&|c| gemm_nt_on(leg, m, n, k, &x, &y, c));
                    assert_eq!(nt, got, "gemm_nt {}: {what}", leg.name());
                }
            }
        }
    }
}
