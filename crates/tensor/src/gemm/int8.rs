//! The int8 sweep behind [`gemm_i8`] and [`gemm_i8_dequant`]: portable,
//! AVX2 and VNNI micro-kernels; the tile leg is the child module `amx`.

use super::*;
use std::cell::RefCell;

pub(super) mod amx;

/// Columns per packed int8 strip: one 256-bit `madd` accumulator's worth
/// of i32 lanes.
pub(crate) const NR_I8: usize = 8;

/// Columns per packed VNNI strip: one 512-bit `vpdpbusd` accumulator's
/// worth of i32 lanes.
pub(crate) const NR_VNNI: usize = 16;

/// Rows per AVX2 micro-kernel pass: 4 rows × 2 strips fill eight of the
/// sixteen YMM registers with accumulators.
#[cfg(target_arch = "x86_64")]
const MR_AVX2: usize = 4;

/// Rows per VNNI micro-kernel pass: 8 rows × 2 strips are sixteen
/// independent `vpdpbusd` chains — enough to cover the instruction's
/// latency on both ports — and every packed-`B` load feeds eight rows.
const MR_VNNI: usize = 8;

/// Bytes the `n = 1` dot product consumes per step.
const DOT_CHUNK: usize = 64;

/// A weight matrix packed for the int8 micro-kernels.
///
/// The source is a row-major `k × n` i8 matrix (`k` = shared dimension,
/// `n` = output channels). Packing splits the columns into `NR_I8`-wide
/// strips and interleaves the shared dimension in pairs: strip `s`,
/// pair `p` stores `[b[2p][j], b[2p+1][j]]` for each column `j` of the
/// strip — sixteen i8 values, exactly one `cvtepi8_epi16` +
/// `madd_epi16` step. The shared dimension is `spans` runs of `span_len`
/// rows; pairs (and the VNNI mirror's quads) never straddle two spans.
/// Ragged edges (odd `span_len`, `n` not a multiple of `NR_I8`) are
/// zero-padded, which is exact for integer accumulation.
///
/// Packing happens **once** per weight matrix (at quantized-model compile
/// time); every inference call then reads the packed form directly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackedI8 {
    k: usize,
    n: usize,
    spans: usize,
    span_len: usize,
    /// `[n_strips][spans · span_pairs][NR_I8 · 2]`, pair-interleaved as
    /// above.
    data: Vec<i8>,
    /// `[n_strips16][spans · span_quads][NR_VNNI · 4]`, quad-interleaved:
    /// strip `s`, quad `q` stores `[b[4q][j], …, b[4q+3][j]]` for each of
    /// the strip's 16 columns — one 512-bit `vpdpbusd` step. A runtime
    /// acceleration mirror of `data` (not counted as artifact bytes);
    /// zero-padded at ragged edges, exact for integer math.
    quad: Vec<i8>,
    /// `[n_strips16][spans][16][NR_VNNI · 4]`: `quad` again with every
    /// (strip, span) zero-padded to 16 quad rows — a quad row is already a
    /// `tdpbusd` B-tile row, so each 1 KiB chunk loads as one tile. Only
    /// for shapes the AMX leg takes (see `tile_mirror`), empty otherwise;
    /// like `quad`, a runtime mirror that is not artifact bytes.
    tile: Vec<i8>,
    /// Per-column sums `Σ_k b[k][j]`: the exact correction for running
    /// `vpdpbusd`'s unsigned×signed form on biased activations
    /// (`Σ(a+128)·b = Σa·b + 128·S_j`).
    col_sums: Vec<i32>,
    /// The matrix itself in plain `k` order, zero-padded to a whole
    /// [`DOT_CHUNK`], when it is a single unspanned column: such a
    /// product is a dot per row, and a strip layout would stream 16× the
    /// bytes for one useful lane. Empty otherwise.
    column: Vec<i8>,
}

impl PackedI8 {
    /// Packs a row-major `k × n` i8 matrix.
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != k·n`.
    pub fn pack(k: usize, n: usize, b: &[i8]) -> PackedI8 {
        PackedI8::pack_spans(1, k, n, b)
    }

    /// Packs a row-major `(spans · span_len) × n` i8 matrix whose shared
    /// dimension the left operand supplies as `spans` separate runs of
    /// `span_len` bytes (see [`Patches`]) — a `[ky][kx·cin]` convolution
    /// kernel is `kh` spans of `kw·cin`.
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != spans·span_len·n`.
    pub fn pack_spans(spans: usize, span_len: usize, n: usize, b: &[i8]) -> PackedI8 {
        let k = spans * span_len;
        assert_eq!(b.len(), k * n, "pack: matrix length {} != {k}×{n}", b.len());
        let mut packed = PackedI8 {
            k,
            n,
            spans,
            span_len,
            data: Vec::new(),
            quad: Vec::new(),
            tile: Vec::new(),
            col_sums: vec![0i32; n],
            column: Vec::new(),
        };
        packed.data = packed.interleave(b, 2, NR_I8);
        packed.quad = packed.interleave(b, 4, NR_VNNI);
        packed.tile = packed.tile_mirror();
        for row in b.chunks_exact(n.max(1)) {
            for (s, &v) in packed.col_sums.iter_mut().zip(row) {
                *s += v as i32;
            }
        }
        if packed.is_column() {
            packed.column = b.to_vec();
            packed.column.resize(k.div_ceil(DOT_CHUNK) * DOT_CHUNK, 0);
        }
        packed
    }

    /// `[n.div_ceil(nr)][spans · span_len.div_ceil(group)][nr · group]`:
    /// `group` consecutive rows of one span side by side per column.
    fn interleave(&self, b: &[i8], group: usize, nr: usize) -> Vec<i8> {
        let per_span = self.span_len.div_ceil(group);
        let n_strips = self.n.div_ceil(nr);
        let mut out = vec![0i8; n_strips * self.spans * per_span * nr * group];
        for s in 0..n_strips {
            let js = s * nr;
            let width = nr.min(self.n - js);
            for span in 0..self.spans {
                for g in 0..per_span {
                    let base = ((s * self.spans + span) * per_span + g) * nr * group;
                    for t in 0..group.min(self.span_len - g * group) {
                        let row = span * self.span_len + g * group + t;
                        for j in 0..width {
                            out[base + group * j + t] = b[row * self.n + js + j];
                        }
                    }
                }
            }
        }
        out
    }

    /// The B tiles of the AMX leg, for the shapes it is worth on: at most
    /// two spans and two strips (four resident tiles), spans of 16 to 64
    /// bytes (a shorter one — the critic's layer 0, `k = 4` — is faster on
    /// VNNI; a longer one does not fit a tile row), not a dot-product
    /// column.
    fn tile_mirror(&self) -> Vec<i8> {
        let strips = self.n.div_ceil(NR_VNNI);
        let fits = !self.is_column()
            && (1..=2).contains(&self.spans)
            && (1..=2).contains(&strips)
            && (16..=amx::TILE_ROW_BYTES).contains(&self.span_len);
        if !fits {
            return Vec::new();
        }
        let span = self.span_len.div_ceil(4) * NR_VNNI * 4;
        let mut out = vec![0i8; strips * self.spans * amx::TILE_BYTES];
        for (src, dst) in self
            .quad
            .chunks_exact(span)
            .zip(out.chunks_exact_mut(amx::TILE_BYTES))
        {
            dst[..span].copy_from_slice(src);
        }
        out
    }

    /// Bytes held by the packed representation.
    pub fn packed_bytes(&self) -> usize {
        self.data.len()
    }

    /// Whether products against this matrix take the dot-product path.
    fn is_column(&self) -> bool {
        self.n == 1 && self.spans == 1
    }

    /// Bytes of one span as the kernels read it: padded to a whole quad,
    /// the widest group any leg loads.
    fn span_bytes(&self) -> usize {
        self.span_len.div_ceil(4) * 4
    }
}

/// The XOR mask quantized activations must carry for [`gemm_i8_dequant`]:
/// the dispatched leg's `Int8Leg::activation_bias`. Padding bytes of a
/// plane hold the mask itself — a biased zero.
pub fn i8_activation_bias() -> u8 {
    Int8Leg::dispatched().activation_bias()
}

/// Per-column dequantization applied to a finished accumulator block:
/// `acc as f32 · mult[j] + bias[j]`, then select-form LeakyReLU
/// (`v > 0 ? v : α·v`) when `alpha` is set.
#[derive(Debug, Clone, Copy)]
pub struct Dequant<'a> {
    /// Per-column multipliers (activation scale × weight scale).
    pub mult: &'a [f32],
    /// Per-column float bias.
    pub bias: &'a [f32],
    /// LeakyReLU slope, if the layer has a fused activation.
    pub alpha: Option<f32>,
}

/// What a micro-kernel does with a finished register block.
enum Sink<'a> {
    /// `c[row·n + j] += acc` — the plain GEMM contract.
    Accumulate(&'a mut [i32]),
    /// `dst[row·n + j] = dequant(acc)`, remembering the largest `|dst|`
    /// written (NaN skipped, like an ordered-compare scan).
    Dequant {
        epi: Dequant<'a>,
        dst: &'a mut [f32],
        max_abs: f32,
    },
}

impl Sink<'_> {
    /// Finishes exact accumulators for columns `j0..j0 + acc.len()` of
    /// `row`. The scalar body every leg's result is defined by.
    #[inline(always)]
    fn finish(&mut self, n: usize, row: usize, j0: usize, acc: &[i32]) {
        let at = row * n + j0;
        match self {
            Sink::Accumulate(c) => {
                for (cv, &a) in c[at..at + acc.len()].iter_mut().zip(acc) {
                    *cv += a;
                }
            }
            Sink::Dequant { epi, dst, max_abs } => {
                let cols = j0..j0 + acc.len();
                let params = epi.mult[cols.clone()].iter().zip(&epi.bias[cols]);
                for ((d, &a), (&mu, &b)) in dst[at..at + acc.len()].iter_mut().zip(acc).zip(params)
                {
                    let v = a as f32 * mu + b;
                    // Select-form LeakyReLU — a single blend per lane;
                    // the max+min form costs two maxnum NaN-checked ops.
                    let v = match epi.alpha {
                        Some(alpha) => {
                            if v > 0.0 {
                                v
                            } else {
                                alpha * v
                            }
                        }
                        None => v,
                    };
                    *d = v;
                    // Ordered compare, not `f32::max`: NaN never wins.
                    let mag = v.abs();
                    if mag > *max_abs {
                        *max_abs = mag;
                    }
                }
            }
        }
    }

    /// Folds a vector leg's lane-wise max tracker into the scalar one.
    fn fold_max(&mut self, lanes_max: f32) {
        if let Sink::Dequant { max_abs, .. } = self {
            if lanes_max > *max_abs {
                *max_abs = lanes_max;
            }
        }
    }

    /// Finishes `R` rows of one VNNI strip straight from the (exact)
    /// accumulator registers: either adds into `C` or dequantizes with
    /// exactly the scalar sequence of [`Sink::finish`] per lane — convert,
    /// multiply, add (separate, not FMA: the scalar body rounds twice),
    /// ordered-greater blend — so the result is bitwise identical, ±0 and
    /// NaN included. `max` tracks `|v|` per lane, row `r` in tracker
    /// `r % M`: one tracker is a 4-cycle `vmaxps` chain per row, which the
    /// VNNI product hides and the tile leg (no vector work between its
    /// rows) spreads over four. Every tracker is the *second* operand,
    /// which `vmaxps` returns when the first is NaN — the scalar compare's
    /// skip — so none ever holds a NaN.
    ///
    /// # Safety
    ///
    /// Callers must ensure the CPU supports AVX-512F, rows `r0..r0 + R`
    /// exist in the sink, and `strip` is a valid strip index of `b`.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f")]
    #[inline]
    unsafe fn finish_zmm<const R: usize, const M: usize>(
        &mut self,
        b: &PackedI8,
        r0: usize,
        strip: usize,
        acc: &[std::arch::x86_64::__m512i; R],
        max: &mut [std::arch::x86_64::__m512; M],
    ) {
        use std::arch::x86_64::*;
        let n = b.n;
        let js = strip * NR_VNNI;
        let width = NR_VNNI.min(n - js);
        let mask = lane_mask(width);
        match self {
            Sink::Accumulate(c) => {
                debug_assert!((r0 + R) * n <= c.len());
                for (r, accr) in acc.iter().enumerate() {
                    let cp = c.as_mut_ptr().add((r0 + r) * n + js);
                    let cv = _mm512_maskz_loadu_epi32(mask, cp);
                    let sum = _mm512_add_epi32(cv, *accr);
                    _mm512_mask_storeu_epi32(cp, mask, sum);
                }
            }
            Sink::Dequant { epi, dst, .. } => {
                debug_assert!((r0 + R) * n <= dst.len());
                let mv = _mm512_maskz_loadu_ps(mask, epi.mult.as_ptr().add(js));
                let bv = _mm512_maskz_loadu_ps(mask, epi.bias.as_ptr().add(js));
                let zero = _mm512_setzero_ps();
                for (r, accr) in acc.iter().enumerate() {
                    let v = _mm512_add_ps(_mm512_mul_ps(_mm512_cvtepi32_ps(*accr), mv), bv);
                    let v = match epi.alpha {
                        Some(alpha) => {
                            let leak = _mm512_mul_ps(v, _mm512_set1_ps(alpha));
                            let pos = _mm512_cmp_ps_mask::<_CMP_GT_OQ>(v, zero);
                            _mm512_mask_mov_ps(leak, pos, v)
                        }
                        None => v,
                    };
                    _mm512_mask_storeu_ps(dst.as_mut_ptr().add((r0 + r) * n + js), mask, v);
                    let max = &mut max[r % M];
                    *max = _mm512_mask_max_ps(*max, mask, _mm512_abs_ps(v), *max);
                }
            }
        }
    }
}

/// Reinterprets unbiased activation bytes as the i8 values they encode.
fn as_i8(bytes: &[u8]) -> &[i8] {
    // SAFETY: u8 and i8 have identical size, alignment and validity.
    unsafe { std::slice::from_raw_parts(bytes.as_ptr().cast::<i8>(), bytes.len()) }
}

/// `C += A·B` for row-major i8 `a` (`m×k`) against a pre-packed `b`,
/// accumulating into i32 `c` (`m×n`): [`gemm_i8_on`] the dispatched leg.
///
/// # Panics
///
/// Panics if `a`/`c` lengths disagree with `m` and the packed dimensions.
pub fn gemm_i8(m: usize, a: &[i8], b: &PackedI8, c: &mut [i32]) {
    gemm_i8_on(Int8Leg::dispatched(), m, a, b, c);
}

/// [`gemm_i8`] on `leg`: each block of eight rows is XORed with the leg's
/// activation bias into a quad-padded scratch and swept like
/// [`gemm_i8_dequant`], with the accumulating epilogue. Every leg produces
/// **bitwise-identical** i32 accumulators (`k ≤ 65534`, see module docs).
///
/// # Panics
///
/// Panics if `a`/`c` lengths disagree with `m` and the packed dimensions,
/// or this CPU cannot run `leg`.
pub fn gemm_i8_on(leg: Int8Leg, m: usize, a: &[i8], b: &PackedI8, c: &mut [i32]) {
    check_dims_i8(m, a, b, c);
    if m == 0 || b.n == 0 || b.k == 0 {
        return;
    }
    // Reused biased scratch: one row block per live call.
    thread_local! {
        static BIASED: RefCell<Vec<u8>> = const { RefCell::new(Vec::new()) };
    }
    BIASED.with(|cell| {
        let mut biased = cell.take();
        let (k, n, stride, bias) = (b.k, b.n, b.span_bytes(), leg.activation_bias());
        // Pad bytes keep a biased zero and meet the packed `B`'s zeros.
        biased.clear();
        biased.resize(MR_VNNI * stride, bias);
        for r0 in (0..m).step_by(MR_VNNI) {
            let h = MR_VNNI.min(m - r0);
            for (row, dst) in a[r0 * k..(r0 + h) * k]
                .chunks_exact(k)
                .zip(biased.chunks_exact_mut(stride))
            {
                for (d, &v) in dst.iter_mut().zip(row) {
                    *d = v as u8 ^ bias;
                }
            }
            let mut sink = Sink::Accumulate(&mut c[r0 * n..(r0 + h) * n]);
            sweep_on(leg, h, &biased, Patches::matrix(stride), b, &mut sink);
        }
        cell.replace(biased);
    });
}

fn check_dims_i8(m: usize, a: &[i8], b: &PackedI8, c: &[i32]) {
    // The patch sweeps address `a` by `Patches::matrix(k)`, which only
    // describes a matrix whose shared dimension is one span.
    assert_eq!(b.spans, 1, "gemm_i8: rhs was packed in spans");
    assert_eq!(
        a.len(),
        m * b.k,
        "gemm_i8: lhs length {} != {m}×{}",
        a.len(),
        b.k
    );
    assert_eq!(
        c.len(),
        m * b.n,
        "gemm_i8: out length {} != {m}×{}",
        c.len(),
        b.n
    );
}

/// The fused layer product: `dst[r·n + j] = dequant(Σ_k a[r][k]·b[k][j])`
/// for `rows` rows of quantized activations addressed by `patches` inside
/// `plane`, returning the largest `|dst|` written (0 when every output is
/// zero or NaN) — the next layer's range-guard input, tracked in the
/// epilogue so nothing rescans `dst`.
///
/// `plane` holds activations quantized to `[-127, 127]` and XORed with
/// [`i8_activation_bias`]; the sweep runs on the dispatched [`Int8Leg`].
/// The accumulators are exact and the epilogue performs one IEEE multiply
/// and one add per element on every leg, so `dst` is bitwise identical
/// across the portable, AVX2, VNNI and AMX kernels. The AMX leg is taken
/// when the calling thread holds a [`TileSession`](super::TileSession)
/// opened for `patches.width` and the shape fits (module docs); it reads
/// 64 bytes from the start of every span, so a plane with fewer readable
/// bytes than that after its last patch is multiplied on the VNNI leg
/// instead — never read out of bounds, never refused.
///
/// # Panics
///
/// Panics if `epi`/`dst` lengths disagree with `rows` and `b.n()`, or
/// `plane` is shorter than the bytes `patches` addresses — whole quads:
/// the last span of the last row must have `span_len` rounded up to a
/// multiple of 4 readable bytes (their values beyond `span_len` are
/// multiplied by zero weights).
pub fn gemm_i8_dequant(
    rows: usize,
    plane: &[u8],
    patches: Patches,
    b: &PackedI8,
    epi: Dequant<'_>,
    dst: &mut [f32],
) -> f32 {
    assert_eq!(epi.mult.len(), b.n, "gemm_i8_dequant: mult length");
    assert_eq!(epi.bias.len(), b.n, "gemm_i8_dequant: bias length");
    assert_eq!(dst.len(), rows * b.n, "gemm_i8_dequant: out length");
    assert!(patches.width > 0, "gemm_i8_dequant: zero patch width");
    let mut sink = Sink::Dequant {
        epi,
        dst,
        max_abs: 0.0,
    };
    sweep_on(Int8Leg::dispatched(), rows, plane, patches, b, &mut sink);
    let Sink::Dequant { max_abs, .. } = sink else {
        unreachable!("sink was built as Dequant above")
    };
    max_abs
}

/// Runs `leg`'s micro-kernel sweep over a plane whose bytes carry the
/// leg's activation bias and cover `rows` quad-padded patches. The AMX leg
/// is the VNNI leg wherever [`amx::tiles_fit`] says no.
fn sweep_on(leg: Int8Leg, rows: usize, a: &[u8], p: Patches, b: &PackedI8, sink: &mut Sink<'_>) {
    let quads = p.extent(rows, b.spans, b.span_bytes());
    assert!(a.len() >= quads, "int8 plane too short");
    assert!(leg.supported(), "{leg:?} leg not supported here");
    // SAFETY: the leg is supported and the plane covers every byte a sweep
    // reads; the tile arm also has `tiles_fit`.
    match leg {
        #[cfg(target_arch = "x86_64")]
        Int8Leg::Avx2 => unsafe { sweep_avx2(rows, as_i8(a), p, b, sink) },
        #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
        Int8Leg::Amx if amx::tiles_fit(rows, a.len(), p, b) => unsafe {
            amx::sweep(rows, a, p, b, sink)
        },
        #[cfg(target_arch = "x86_64")]
        Int8Leg::Vnni | Int8Leg::Amx => unsafe { sweep_vnni(rows, a, p, b, sink) },
        _ => sweep_portable(rows, as_i8(a), p, b, sink),
    }
}

/// Scalar i8·i8 dot product (the AVX2 and portable `n = 1` path).
fn dot_i8(a: &[i8], b: &[i8]) -> i32 {
    a.iter().zip(b).map(|(&x, &y)| x as i32 * y as i32).sum()
}

/// Portable micro-kernel sweep: one row × one [`NR_I8`] strip at a time
/// over the pair-interleaved layout.
fn sweep_portable(rows: usize, a: &[i8], p: Patches, b: &PackedI8, sink: &mut Sink<'_>) {
    let n = b.n;
    if b.is_column() {
        for r in 0..rows {
            let row = &a[p.offset(r)..][..b.k];
            sink.finish(n, r, 0, &[dot_i8(row, &b.column)]);
        }
        return;
    }
    let pairs = b.span_len.div_ceil(2);
    let strip_len = b.spans * pairs * NR_I8 * 2;
    for r in 0..rows {
        let base = p.offset(r);
        for s in 0..n.div_ceil(NR_I8) {
            let strip = &b.data[s * strip_len..][..strip_len];
            let mut acc = [0i32; NR_I8];
            for span in 0..b.spans {
                let arow = &a[base + span * p.row_stride..][..b.span_len];
                let bspan = &strip[span * pairs * NR_I8 * 2..][..pairs * NR_I8 * 2];
                for (pi, pb) in bspan.chunks_exact(NR_I8 * 2).enumerate() {
                    let a0 = arow[2 * pi] as i32;
                    let a1 = arow.get(2 * pi + 1).map_or(0, |&v| v as i32);
                    for (j, cell) in acc.iter_mut().enumerate() {
                        *cell += a0 * pb[2 * j] as i32 + a1 * pb[2 * j + 1] as i32;
                    }
                }
            }
            let js = s * NR_I8;
            sink.finish(n, r, js, &acc[..NR_I8.min(n - js)]);
        }
    }
}

/// Sign-extends one span of i8 activations into pair-interleaved i16
/// values viewed as one i32 per pair: `dst[p] = (a[2p+1] ⊔ a[2p])`, with
/// an implicit zero for the dangling element of an odd length. This is
/// the exact operand layout `madd_epi16` wants broadcast across its
/// lanes, built once per row instead of reconstructed per strip × per
/// pair.
///
/// # Safety
///
/// Callers must ensure the CPU supports AVX2 and `dst.len() == row.len().div_ceil(2)`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn extend_row_pairs(row: &[i8], dst: &mut [i32]) {
    use std::arch::x86_64::*;
    let k = row.len();
    debug_assert_eq!(dst.len(), k.div_ceil(2));
    let mut j = 0;
    let mut p = 0;
    while j + 16 <= k {
        // 16 i8 → 16 i16 = 8 sign-extended pairs in one shot.
        let v = _mm_loadu_si128(row.as_ptr().add(j) as *const __m128i);
        let w = _mm256_cvtepi8_epi16(v);
        _mm256_storeu_si256(dst.as_mut_ptr().add(p) as *mut __m256i, w);
        j += 16;
        p += 8;
    }
    while j + 2 <= k {
        let a0 = row[j] as i16 as u16 as u32;
        let a1 = row[j + 1] as i16 as u16 as u32;
        dst[p] = ((a1 << 16) | a0) as i32;
        j += 2;
        p += 1;
    }
    if j < k {
        dst[p] = (row[j] as i16 as u16) as i32;
    }
}

/// AVX2 micro-kernel sweep: per row block the patches are sign-extended
/// once into pair-interleaved i16 ([`extend_row_pairs`], span by span, so
/// a patch scattered over `kh` plane rows becomes one contiguous run),
/// then each inner step is a single broadcast load + `madd_epi16` +
/// `add_epi32` against the pre-packed weight strips — two strips at a
/// time so every activation broadcast feeds sixteen output columns. The
/// row count is a const generic, so short blocks do exactly their own
/// work instead of a padded 4-row pass. Exact integer arithmetic ⇒
/// bitwise identical to the portable kernel.
///
/// # Safety
///
/// Callers must ensure the CPU supports AVX2 and `a` covers
/// the patch extent `sweep_on` checks (span tails excepted: this leg reads exactly
/// `span_len` bytes per span).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn sweep_avx2(rows: usize, a: &[i8], p: Patches, b: &PackedI8, sink: &mut Sink<'_>) {
    if b.is_column() {
        for r in 0..rows {
            let row = &a[p.offset(r)..][..b.k];
            sink.finish(b.n, r, 0, &[dot_i8(row, &b.column)]);
        }
        return;
    }
    // Reused pair-extension scratch: one row block per live call.
    thread_local! {
        static A16: RefCell<Vec<i32>> = const { RefCell::new(Vec::new()) };
    }
    A16.with(|cell| {
        let mut a16 = cell.take();
        let k_pairs = b.spans * b.span_len.div_ceil(2);
        if a16.len() < MR_AVX2 * k_pairs {
            a16.resize(MR_AVX2 * k_pairs, 0);
        }
        let mut r0 = 0;
        while r0 < rows {
            let h = MR_AVX2.min(rows - r0);
            match h {
                4 => avx2_block::<4>(r0, a, p, b, sink, &mut a16),
                3 => avx2_block::<3>(r0, a, p, b, sink, &mut a16),
                2 => avx2_block::<2>(r0, a, p, b, sink, &mut a16),
                _ => avx2_block::<1>(r0, a, p, b, sink, &mut a16),
            }
            r0 += h;
        }
        cell.replace(a16);
    });
}

/// One `R`-row block of the AVX2 sweep (`R ≤` [`MR_AVX2`]).
///
/// # Safety
///
/// Callers must ensure the CPU supports AVX2, rows `r0..r0 + R` exist,
/// and `a16.len() ≥ R · spans · span_len.div_ceil(2)`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn avx2_block<const R: usize>(
    r0: usize,
    a: &[i8],
    p: Patches,
    b: &PackedI8,
    sink: &mut Sink<'_>,
    a16: &mut [i32],
) {
    use std::arch::x86_64::*;
    let n = b.n;
    let pairs = b.span_len.div_ceil(2);
    let k_pairs = b.spans * pairs;
    let n_strips = n.div_ceil(NR_I8);
    for (r, base) in block_offsets::<R>(p, r0, R).into_iter().enumerate() {
        for span in 0..b.spans {
            extend_row_pairs(
                &a[base + span * p.row_stride..][..b.span_len],
                &mut a16[r * k_pairs + span * pairs..][..pairs],
            );
        }
    }
    let mut s = 0;
    // Two-strip main kernel: R rows × 16 columns per pass.
    while s + 2 <= n_strips {
        let strip0 = b.data.as_ptr().add(s * k_pairs * NR_I8 * 2);
        let strip1 = b.data.as_ptr().add((s + 1) * k_pairs * NR_I8 * 2);
        let mut acc0 = [_mm256_setzero_si256(); R];
        let mut acc1 = [_mm256_setzero_si256(); R];
        for q in 0..k_pairs {
            let b0 =
                _mm256_cvtepi8_epi16(_mm_loadu_si128(strip0.add(q * NR_I8 * 2) as *const __m128i));
            let b1 =
                _mm256_cvtepi8_epi16(_mm_loadu_si128(strip1.add(q * NR_I8 * 2) as *const __m128i));
            for r in 0..R {
                let ap = _mm256_set1_epi32(*a16.get_unchecked(r * k_pairs + q));
                acc0[r] = _mm256_add_epi32(acc0[r], _mm256_madd_epi16(ap, b0));
                acc1[r] = _mm256_add_epi32(acc1[r], _mm256_madd_epi16(ap, b1));
            }
        }
        finish_ymm(sink, n, r0, s, &acc0);
        finish_ymm(sink, n, r0, s + 1, &acc1);
        s += 2;
    }
    if s < n_strips {
        let strip = b.data.as_ptr().add(s * k_pairs * NR_I8 * 2);
        let mut acc = [_mm256_setzero_si256(); R];
        for q in 0..k_pairs {
            let bv =
                _mm256_cvtepi8_epi16(_mm_loadu_si128(strip.add(q * NR_I8 * 2) as *const __m128i));
            for (r, accr) in acc.iter_mut().enumerate() {
                let ap = _mm256_set1_epi32(*a16.get_unchecked(r * k_pairs + q));
                *accr = _mm256_add_epi32(*accr, _mm256_madd_epi16(ap, bv));
            }
        }
        finish_ymm(sink, n, r0, s, &acc);
    }
}

/// Hands `R` rows of one AVX2 strip to [`Sink::finish`], clipping to the
/// ragged strip width at the matrix edge.
///
/// # Safety
///
/// Callers must ensure the CPU supports AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn finish_ymm<const R: usize>(
    sink: &mut Sink<'_>,
    n: usize,
    r0: usize,
    s: usize,
    acc: &[std::arch::x86_64::__m256i; R],
) {
    use std::arch::x86_64::*;
    let js = s * NR_I8;
    let mut lanes = [0i32; NR_I8];
    for (r, accr) in acc.iter().enumerate() {
        _mm256_storeu_si256(lanes.as_mut_ptr() as *mut __m256i, *accr);
        sink.finish(n, r0 + r, js, &lanes[..NR_I8.min(n - js)]);
    }
}

/// AVX-512 VNNI micro-kernel sweep over biased (`a + 128`) activations
/// read in place. Each inner step is one `vpdpbusd` — sixteen output
/// columns × four `k`-steps per instruction — whose left operand is a
/// 4-byte broadcast straight from the plane. The four 16-bit products are
/// summed into the i32 lane without saturation, so the whole path is
/// exact integer arithmetic ⇒ bitwise identical to the portable kernel.
///
/// # Safety
///
/// Callers must ensure the CPU supports AVX-512F and AVX-512 VNNI, `a`
/// covers the patch extent `sweep_on` checks, and the sink holds `rows` rows.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512vnni")]
unsafe fn sweep_vnni(rows: usize, a: &[u8], p: Patches, b: &PackedI8, sink: &mut Sink<'_>) {
    use std::arch::x86_64::*;
    debug_assert!(a.len() >= p.extent(rows, b.spans, b.span_bytes()));
    if b.is_column() {
        let corr = b.col_sums[0] << 7;
        for r in 0..rows {
            let dot = dot_vnni(&a[p.offset(r)..][..b.k], &b.column);
            sink.finish(b.n, r, 0, &[dot - corr]);
        }
        return;
    }
    let mut max = [_mm512_setzero_ps()];
    let mut r0 = 0;
    while r0 < rows {
        let left = rows - r0;
        let h = if left >= MR_VNNI {
            vnni_block::<MR_VNNI>(r0, a, p, b, sink, &mut max);
            MR_VNNI
        } else if left >= 4 {
            vnni_block::<4>(r0, a, p, b, sink, &mut max);
            4
        } else if left >= 2 {
            vnni_block::<2>(r0, a, p, b, sink, &mut max);
            2
        } else {
            vnni_block::<1>(r0, a, p, b, sink, &mut max);
            1
        };
        r0 += h;
    }
    sink.fold_max(_mm512_reduce_max_ps(max[0]));
}

/// `Σ a[i]·b[i]` over biased u8 `a` and a [`DOT_CHUNK`]-padded i8 column,
/// 64 products per `vpdpbusd` on four independent accumulators. The
/// ragged tail goes through a zeroed stack copy (zero × zero padding).
///
/// # Safety
///
/// Callers must ensure the CPU supports AVX-512F and AVX-512 VNNI and
/// `col.len() == a.len()` rounded up to a multiple of [`DOT_CHUNK`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512vnni")]
unsafe fn dot_vnni(a: &[u8], col: &[i8]) -> i32 {
    use std::arch::x86_64::*;
    debug_assert_eq!(col.len(), a.len().div_ceil(DOT_CHUNK) * DOT_CHUNK);
    let mut acc = [_mm512_setzero_si512(); 4];
    let (chunks, tail) = a.as_chunks::<DOT_CHUNK>();
    for (i, chunk) in chunks.iter().enumerate() {
        let av = _mm512_loadu_si512(chunk.as_ptr() as *const __m512i);
        let bv = _mm512_loadu_si512(col.as_ptr().add(i * DOT_CHUNK) as *const __m512i);
        acc[i % 4] = _mm512_dpbusd_epi32(acc[i % 4], av, bv);
    }
    if !tail.is_empty() {
        let mut last = [0u8; DOT_CHUNK];
        last[..tail.len()].copy_from_slice(tail);
        let av = _mm512_loadu_si512(last.as_ptr() as *const __m512i);
        let bv = _mm512_loadu_si512(col.as_ptr().add(chunks.len() * DOT_CHUNK) as *const __m512i);
        acc[0] = _mm512_dpbusd_epi32(acc[0], av, bv);
    }
    let sum = _mm512_add_epi32(
        _mm512_add_epi32(acc[0], acc[1]),
        _mm512_add_epi32(acc[2], acc[3]),
    );
    _mm512_reduce_add_epi32(sum)
}

/// One `R`-row block of the VNNI sweep (`R ≤` [`MR_VNNI`]) across every
/// strip. Strips go in pairs: both share one broadcast of each activation
/// quad, and the `2·R` independent `vpdpbusd` chains hide the
/// instruction's latency.
///
/// # Safety
///
/// As [`sweep_vnni`], with rows `r0..r0 + R` in range.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512vnni")]
unsafe fn vnni_block<const R: usize>(
    r0: usize,
    a: &[u8],
    p: Patches,
    b: &PackedI8,
    sink: &mut Sink<'_>,
    max: &mut [std::arch::x86_64::__m512; 1],
) {
    let base = block_offsets::<R>(p, r0, R).map(|at| a.as_ptr().add(at));
    let n_strips = b.n.div_ceil(NR_VNNI);
    let mut s = 0;
    while s + 2 <= n_strips {
        let acc = vnni_strips::<R, 2>(&base, p.row_stride, b, s);
        sink.finish_zmm(b, r0, s, &acc[0], max);
        sink.finish_zmm(b, r0, s + 1, &acc[1], max);
        s += 2;
    }
    if s < n_strips {
        let acc = vnni_strips::<R, 1>(&base, p.row_stride, b, s);
        sink.finish_zmm(b, r0, s, &acc[0], max);
    }
}

/// Where the accumulators of `strip`'s 16 columns start on the legs that
/// multiply biased (`a + 128`) activations: `−128·S_j`, zero past column
/// `n`.
///
/// # Safety
///
/// Callers must ensure the CPU supports AVX-512F and `strip` is a VNNI
/// strip of `b`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[inline]
unsafe fn unbiased_start(b: &PackedI8, strip: usize) -> std::arch::x86_64::__m512i {
    use std::arch::x86_64::*;
    let js = strip * NR_VNNI;
    let live = lane_mask(NR_VNNI.min(b.n - js));
    let sums = _mm512_maskz_loadu_epi32(live, b.col_sums.as_ptr().add(js));
    _mm512_sub_epi32(_mm512_setzero_si512(), _mm512_slli_epi32::<7>(sums))
}

/// The `vpdpbusd` core: `R` patches × `S` adjacent strips, returning the
/// exact accumulators `[strip][row]`. Each starts at `−128·S_j` rather
/// than zero, which undoes the activations' u8 bias
/// (`Σ(a+128)·b − 128·S_j = Σ a·b`; i32 wrap-around on the way is
/// harmless, the final value is in range) without an epilogue subtract.
///
/// # Safety
///
/// As [`sweep_vnni`]: every `base[r]` must have `spans` spans of
/// [`PackedI8::span_bytes`] readable bytes `row_stride` apart, and strips
/// `s..s + S` must exist.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512vnni")]
#[inline]
unsafe fn vnni_strips<const R: usize, const S: usize>(
    base: &[*const u8; R],
    row_stride: usize,
    b: &PackedI8,
    s: usize,
) -> [[std::arch::x86_64::__m512i; R]; S] {
    use std::arch::x86_64::*;
    const STEP: usize = NR_VNNI * 4;
    let quads = b.span_len.div_ceil(4);
    let strip_len = b.spans * quads * STEP;
    let strip0 = b.quad.as_ptr().add(s * strip_len);
    let mut acc = [[_mm512_setzero_si512(); R]; S];
    for (t, rows) in acc.iter_mut().enumerate() {
        *rows = [unbiased_start(b, s + t); R];
    }
    for span in 0..b.spans {
        for q in 0..quads {
            let step = (span * quads + q) * STEP;
            let mut bv = [_mm512_setzero_si512(); S];
            for (t, v) in bv.iter_mut().enumerate() {
                *v = _mm512_loadu_si512(strip0.add(t * strip_len + step) as *const __m512i);
            }
            for r in 0..R {
                let quad = base[r].add(span * row_stride + 4 * q) as *const i32;
                let av = _mm512_set1_epi32(quad.read_unaligned());
                for t in 0..S {
                    acc[t][r] = _mm512_dpbusd_epi32(acc[t][r], av, bv[t]);
                }
            }
        }
    }
    acc
}

/// Reference i8 GEMM: the naive i-k-j triple loop over unpacked operands,
/// `C += A·B` with i32 accumulation. Ground truth for the int8 property
/// tests (both optimized kernels must equal it **bitwise**).
pub fn naive_i8(m: usize, k: usize, n: usize, a: &[i8], b: &[i8], c: &mut [i32]) {
    check_dims("naive_i8", m, k, n, a, b, c);
    for i in 0..m {
        for kk in 0..k {
            let av = a[i * k + kk] as i32;
            if av == 0 {
                continue;
            }
            let b_row = &b[kk * n..(kk + 1) * n];
            let o_row = &mut c[i * n..(i + 1) * n];
            for (o, &bv) in o_row.iter_mut().zip(b_row) {
                *o += av * bv as i32;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::testing::{bits, fill_i8, tile_session_or_skip};
    use super::amx::TileSession;
    use super::*;

    const I8_SHAPES: &[(usize, usize, usize)] = &[
        (1, 1, 1),
        (2, 3, 2),
        (5, 7, 9),     // odd k, ragged strip
        (4, 8, 8),     // exact tile
        (120, 4, 32),  // layer-1 conv im2col shape
        (13, 128, 17), // deep-conv shape, ragged everything
        (3, 3840, 1),  // final dense shape (k = 120·32)
    ];

    #[test]
    fn packed_i8_kernels_match_naive_bitwise() {
        for &(m, k, n) in I8_SHAPES {
            let a = fill_i8(m as u64 * 131 + k as u64, m * k);
            let b = fill_i8(n as u64 * 17 + 5, k * n);
            let packed = PackedI8::pack(k, n, &b);
            let mut c_naive = vec![0i32; m * n];
            naive_i8(m, k, n, &a, &b, &mut c_naive);
            for leg in Int8Leg::ALL.into_iter().filter(|leg| leg.supported()) {
                let mut c = vec![0i32; m * n];
                gemm_i8_on(leg, m, &a, &packed, &mut c);
                assert_eq!(c_naive, c, "{}, shape {m}×{k}×{n}", leg.name());
            }
        }
    }

    #[test]
    fn i8_kernels_accumulate() {
        let (m, k, n) = (3, 5, 4);
        let a = fill_i8(1, m * k);
        let b = fill_i8(2, k * n);
        let packed = PackedI8::pack(k, n, &b);
        let mut once = vec![0i32; m * n];
        gemm_i8(m, &a, &packed, &mut once);
        let mut twice = vec![0i32; m * n];
        gemm_i8(m, &a, &packed, &mut twice);
        gemm_i8(m, &a, &packed, &mut twice);
        for (o, t) in once.iter().zip(&twice) {
            assert_eq!(2 * o, *t);
        }
    }

    /// Gathers the patches `p` addresses out of a plane of unbiased i8
    /// bytes into the row-major matrix a plain GEMM would take.
    fn gather(plane: &[i8], rows: usize, p: Patches, spans: usize, span_len: usize) -> Vec<i8> {
        let mut a = Vec::with_capacity(rows * spans * span_len);
        for r in 0..rows {
            for s in 0..spans {
                a.extend_from_slice(&plane[p.offset(r) + s * p.row_stride..][..span_len]);
            }
        }
        a
    }

    /// `gemm_i8_dequant`'s result by the book: `naive_i8` over gathered
    /// patches of an unbiased plane, finished by the scalar epilogue.
    fn dequant_by_the_book(
        plane: &[i8],
        rows: usize,
        p: Patches,
        (spans, span_len, cout): (usize, usize, usize),
        bmat: &[i8],
        epi: Dequant<'_>,
    ) -> (Vec<f32>, f32) {
        let mut acc = vec![0i32; rows * cout];
        let a = gather(plane, rows, p, spans, span_len);
        naive_i8(rows, spans * span_len, cout, &a, bmat, &mut acc);
        let mut want = vec![0.0f32; rows * cout];
        let mut sink = Sink::Dequant {
            epi,
            dst: &mut want,
            max_abs: 0.0,
        };
        for r in 0..rows {
            sink.finish(cout, r, 0, &acc[r * cout..(r + 1) * cout]);
        }
        let Sink::Dequant { max_abs, .. } = sink else {
            unreachable!()
        };
        (want, max_abs)
    }

    #[test]
    fn dequant_over_patches_matches_naive_on_every_leg() {
        // (h, w, cin, kh, kw, cout, tiles): the critic's layer shapes plus
        // ragged spans (kw·cin not a multiple of 2 or 4) and odd column
        // counts; `tiles` marks the shapes the AMX leg takes — widths 4,
        // 12 and 16, one and two spans of 16 to 64 bytes, ragged strips —
        // the others it must leave to VNNI (k = 4, three spans, three
        // strips, 17 patches a row, a 65-byte span, a column).
        for &(h, w, cin, kh, kw, cout, tiles) in &[
            (10usize, 12usize, 1usize, 2usize, 2usize, 8usize, false),
            (10, 12, 8, 2, 2, 16, true),
            (10, 12, 16, 2, 2, 32, true),
            (10, 12, 32, 2, 2, 32, true),
            (3, 4, 8, 2, 2, 9, true),
            (2, 16, 16, 1, 2, 17, true),
            (5, 16, 32, 2, 2, 31, true),
            (3, 4, 9, 1, 2, 16, true),
            (4, 5, 8, 3, 2, 16, false),
            (3, 12, 8, 2, 2, 33, false),
            (2, 17, 8, 2, 2, 16, false),
            (2, 4, 13, 1, 5, 8, false),
            (3, 5, 3, 2, 3, 5, false),
            (4, 3, 1, 3, 1, 17, false),
            (1, 1, 37, 1, 1, 1, false),
            (1, 1, 130, 1, 1, 3, false),
        ] {
            let (ph, pw) = (h + kh - 1, w + kw - 1);
            let (spans, span_len) = (kh, kw * cin);
            let p = Patches {
                width: w,
                row_stride: pw * cin,
                col_stride: cin,
            };
            // A whole tile row of slack past the last patch.
            let plane = fill_i8(h as u64 * 7 + cin as u64, ph * pw * cin + 64);
            let bmat = fill_i8(cout as u64 * 13 + 1, spans * span_len * cout);
            let packed = PackedI8::pack_spans(spans, span_len, cout, &bmat);
            let rows = h * w;

            let mult: Vec<f32> = (0..cout).map(|j| 0.01 + j as f32 * 1e-3).collect();
            let bias: Vec<f32> = (0..cout).map(|j| j as f32 - 2.5).collect();
            for alpha in [None, Some(0.2f32)] {
                let epi = Dequant {
                    mult: &mult,
                    bias: &bias,
                    alpha,
                };
                let what = format!("{h}×{w}×{cin}→{cout}, k {kh}×{kw}");
                let (want, want_max) =
                    dequant_by_the_book(&plane, rows, p, (spans, span_len, cout), &bmat, epi);

                // Every leg this CPU has, over the plane biased its way.
                // The AMX leg runs inside a session, where it takes the
                // tiles for exactly the shapes marked above.
                for leg in Int8Leg::ALL.into_iter().filter(|leg| leg.supported()) {
                    let biased: Vec<u8> = plane
                        .iter()
                        .map(|&v| v as u8 ^ leg.activation_bias())
                        .collect();
                    let session = match leg {
                        Int8Leg::Amx => tile_session_or_skip(w.clamp(4, 16)),
                        _ => None,
                    };
                    let before = session.as_ref().map_or(0, TileSession::sweeps);
                    let mut got = vec![0.0f32; rows * cout];
                    let mut sink = Sink::Dequant {
                        epi,
                        dst: &mut got,
                        max_abs: 0.0,
                    };
                    sweep_on(leg, rows, &biased, p, &packed, &mut sink);
                    let Sink::Dequant { max_abs, .. } = sink else {
                        unreachable!()
                    };
                    let what = format!("{} {what}", leg.name());
                    assert_eq!(bits(&want), bits(&got), "{what}");
                    assert_eq!(want_max.to_bits(), max_abs.to_bits(), "max {what}");
                    if let Some(session) = session {
                        assert_eq!(session.sweeps() - before, tiles as u32, "tiles {what}");
                    }
                }
            }
        }
    }

    #[test]
    fn a_plane_without_tile_slack_takes_the_vnni_leg_and_scores_the_same() {
        // The critic's 16 → 32 layer over a plane with quad slack only:
        // the last tile row would read 29 bytes past the end, so inside a
        // session the dispatcher must stay on VNNI — same bits, no tiles.
        let (h, w, cin, cout) = (10usize, 12usize, 16usize, 32usize);
        let p = Patches {
            width: w,
            row_stride: (w + 1) * cin,
            col_stride: cin,
        };
        let bmat = fill_i8(3, 4 * cin * cout);
        let packed = PackedI8::pack_spans(2, 2 * cin, cout, &bmat);
        let mult = vec![0.02f32; cout];
        let bias = vec![-0.5f32; cout];
        let epi = Dequant {
            mult: &mult,
            bias: &bias,
            alpha: Some(0.2),
        };
        let plane = fill_i8(9, (h + 1) * p.row_stride + 64);
        let biased: Vec<u8> = plane
            .iter()
            .map(|&v| v as u8 ^ i8_activation_bias())
            .collect();
        let tight = &biased[..biased.len() - 61];
        let (want, want_max) =
            dequant_by_the_book(&plane, h * w, p, (2, 2 * cin, cout), &bmat, epi);
        let Some(session) = tile_session_or_skip(w) else {
            return;
        };
        for (plane, tiles) in [(&biased[..], 1), (tight, 0)] {
            let before = session.sweeps();
            let mut got = vec![0.0f32; h * w * cout];
            let got_max = gemm_i8_dequant(h * w, plane, p, &packed, epi, &mut got);
            assert_eq!(session.sweeps() - before, tiles, "slack {}", plane.len());
            assert_eq!(bits(&want), bits(&got), "slack {}", plane.len());
            assert_eq!(want_max.to_bits(), got_max.to_bits());
        }
    }

    #[test]
    fn two_threads_with_their_own_sessions_score_what_one_thread_scores() {
        // Two windows of the critic's 32 → 32 layer: serially without a
        // session, then one window per thread, both sessions open at once.
        let (h, w, cin, cout) = (10usize, 12usize, 32usize, 32usize);
        let p = Patches {
            width: w,
            row_stride: (w + 1) * cin,
            col_stride: cin,
        };
        let bmat = fill_i8(5, 4 * cin * cout);
        let packed = PackedI8::pack_spans(2, 2 * cin, cout, &bmat);
        let mult = vec![0.01f32; cout];
        let bias = vec![0.25f32; cout];
        let epi = Dequant {
            mult: &mult,
            bias: &bias,
            alpha: Some(0.2),
        };
        let planes: Vec<Vec<u8>> = (0..2)
            .map(|i| {
                fill_i8(11 + i, (h + 1) * p.row_stride + 64)
                    .iter()
                    .map(|&v| v as u8 ^ i8_activation_bias())
                    .collect()
            })
            .collect();
        let score = |plane: &[u8]| {
            let mut out = vec![0.0f32; h * w * cout];
            let max = gemm_i8_dequant(h * w, plane, p, &packed, epi, &mut out);
            (bits(&out), max.to_bits())
        };
        let serial: Vec<_> = planes.iter().map(|plane| score(plane)).collect();
        let both_open = std::sync::Barrier::new(2);
        let forked: Vec<_> = std::thread::scope(|scope| {
            let handles: Vec<_> = planes
                .iter()
                .map(|plane| {
                    scope.spawn(|| {
                        let session = TileSession::open(w);
                        both_open.wait();
                        let scored = score(plane);
                        both_open.wait();
                        (scored, session.sweeps())
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let tiles = tile_session_or_skip(w).is_some() as u32;
        for ((scored, sweeps), want) in forked.iter().zip(&serial) {
            assert_eq!(scored, want);
            assert_eq!(
                *sweeps, tiles,
                "each thread ran its product on its own tiles"
            );
        }
    }

    #[test]
    #[should_panic(expected = "int8 plane too short")]
    fn dequant_rejects_a_plane_without_quad_slack() {
        // span_len 2 reads a whole quad: the last patch needs 2 spare bytes.
        let packed = PackedI8::pack_spans(2, 2, 1, &[1; 4]);
        let p = Patches {
            width: 2,
            row_stride: 3,
            col_stride: 1,
        };
        let epi = Dequant {
            mult: &[1.0],
            bias: &[0.0],
            alpha: None,
        };
        gemm_i8_dequant(2, &[0u8; 6], p, &packed, epi, &mut [0.0; 2]);
    }

    #[test]
    fn i8_saturation_extremes_are_exact() {
        // ±128/±127 everywhere at the documented overflow bound shape.
        let (m, k, n) = (2, 256, 9);
        let a: Vec<i8> = (0..m * k)
            .map(|i| if i % 2 == 0 { -128 } else { 127 })
            .collect();
        let b: Vec<i8> = (0..k * n)
            .map(|i| if i % 3 == 0 { 127 } else { -128 })
            .collect();
        let packed = PackedI8::pack(k, n, &b);
        let mut c_ref = vec![0i32; m * n];
        let mut c_fast = vec![0i32; m * n];
        naive_i8(m, k, n, &a, &b, &mut c_ref);
        gemm_i8(m, &a, &packed, &mut c_fast);
        assert_eq!(c_ref, c_fast);
    }

    #[test]
    #[should_panic(expected = "gemm_i8: lhs length")]
    fn i8_dimension_mismatch_panics() {
        let packed = PackedI8::pack(3, 2, &[0; 6]);
        let mut c = vec![0i32; 4];
        gemm_i8(2, &[0; 5], &packed, &mut c);
    }
}
