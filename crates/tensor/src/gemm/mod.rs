//! Cache-blocked, register-tiled GEMM kernels: f32 and int8.
//!
//! Every experiment in the VehiGAN stack — WGAN training, ensemble
//! scoring, FGSM attacks — bottoms out in one of three matrix products:
//!
//! - `C += A·B`   ([`gemm`]): layer forward passes (input/im2col × weights);
//! - `C += Aᵀ·B`  ([`gemm_tn`]): weight gradients `dW = Xᵀ·dY` without
//!   materializing `Xᵀ`;
//! - `C += A·Bᵀ`  ([`gemm_nt`]): input gradients `dX = dY·Wᵀ` without
//!   materializing `Wᵀ`.
//!
//! # Dispatch
//!
//! One table picks every kernel: `F32Leg` (portable, AVX2+FMA, AVX-512F)
//! for the f32 products and [`Int8Leg`] (portable, AVX2, AVX-512 VNNI, AMX
//! tiles) for the int8 sweep. A leg says whether this CPU can run it; the
//! process runs the best supported one, decided once ([`f32_leg`] and
//! [`int8_leg`] name it), or the portable one when `VEHIGAN_FORCE_PORTABLE`
//! is set (to any value, before first use). Each product is one safe
//! function of a leg whose `match` holds the only `unsafe` call into a
//! kernel: the public entry points pass the dispatched leg, the unit tests
//! every supported one.
//!
//! # Kernel layout
//!
//! The source is split by product: the table (`dispatch.rs`), the f32
//! forward sweep (`forward.rs`), the f32 backward products
//! (`backward.rs`), the int8 sweep (`int8.rs`) and its tile leg
//! (`int8/amx.rs`). [`gemm`] is the fused forward sweep of
//! [`gemm_f32_fused`] (see "Fused f32 forward sweep" below) over a plain
//! row-major `A`, with the epilogue that adds each finished register block
//! into `C`, so training and scoring run one f32 forward per leg. On the
//! portable and AVX2 legs [`gemm_tn`] is a rank-1 sweep through memory and
//! [`gemm_nt`] one eight-lane [`dot`] per output; their AVX-512 legs keep a
//! block of `C` in registers (each kernel's doc has its blocking). Only
//! [`gemm_nt`]'s AVX-512 leg repacks an f32 operand — `B` into 16-column
//! strips on every call of at least 8 rows; the int8 family packs once
//! per weight matrix ([`PackedI8`]).
//!
//! # Determinism
//!
//! For every kernel the reduction over `k` runs in strictly increasing
//! order *per output element*: an accumulator starts from `C` (or from
//! zero, for the biased epilogue) and a panelled sweep stores it back to
//! `C` and reloads it between panels (a round trip that rounds nothing),
//! so the association matches the naive i-k-j triple loop. Consequences:
//!
//! - the portable [`gemm`] is **bitwise identical** to [`naive`] *on finite
//!   operands*: [`naive`] skips a zero in `A`, so it never forms the NaN of
//!   `0·∞` or `0·NaN`, and leaves a `−0.0` in `C` alone where the sweep's
//!   `−0.0 + 0.0` makes it `+0.0`;
//! - the AVX2 and AVX-512 legs of [`gemm`] fuse each multiply-add (one
//!   rounding instead of two), so they differ from [`naive`] by ≤ 1e-4
//!   relative error, and **agree with each other bit for bit**: per
//!   element both run the same `fma(a[i][k], b[k][j], acc)` chain from the
//!   value in `C`, whatever the blocking;
//! - [`gemm_tn`] performs exactly one rounded multiply and one add per
//!   output element per `k`-step with no fusion on every leg — in memory or
//!   in a register — so it is bitwise identical to
//!   `a.transpose().matmul(b)` on the portable leg, and the same bits on
//!   every ISA;
//! - [`gemm_nt`] is, on every leg, [`dot`]'s arithmetic per output: eight
//!   partial sums each fed one rounded multiply and one add per 8-chunk,
//!   the tree `((l0+l4)+(l2+l6)) + ((l1+l5)+(l3+l7))`, the `k % 8` tail
//!   summed from zero in order, `c += tree + tail`. Machine-independent
//!   and deterministic, but associated differently from the scalar loop
//!   (property tests bound the difference at ≤ 1e-4);
//! - a process never switches legs mid-run (dispatch is decided once), and
//!   a host with AVX-512 trains the bits a host with AVX2 trains: "bitwise
//!   the leg it replaces" is pinned by unit tests that run every supported
//!   leg of the table against its scalar reference or the body under it, and by
//!   property tests that hold the dispatched entry points to scalar
//!   references on ragged shapes with ±0, ±∞ and NaN operands. NaNs
//!   compare as NaNs there: which payload an add of two NaNs keeps is the
//!   instruction's operand order, which no leg promises.
//!
//! The three products *accumulate* into `C` (`beta = 1`); callers that
//! want a plain product must zero `C` first. This is what lets
//! `Dense::backward` add `dW` straight into the gradient buffer.
//!
//! # Fused f32 forward sweep
//!
//! [`gemm_f32_fused`] is the float twin of the int8 family's
//! [`gemm_i8_dequant`] below: it reads convolution patches in place from a
//! zero-bordered f32 plane ([`Patches`]) — or the rows of a plain matrix —
//! reads the weights where the layer stores them (`[k, cout]` row-major is
//! already a strip layout: row `k`'s `cout` floats are one or two vector
//! loads), and finishes each register block before it touches memory, by
//! one of two epilogues fixed at compile time:
//!
//! - *bias*: `+ bias[j]`, then LeakyReLU when the layer has one — scoring,
//!   and the `Conv2D` / `Dense` training forward, which call
//!   [`gemm_f32_fused`] over their im2col or input matrix;
//! - *accumulate*: `+=` into `C` — [`gemm`].
//!
//! Per output element the sweep is one multiply-add per `k`-step in
//! increasing `k` (fused on the two vector legs, rounded twice on the
//! portable one) from zero or from `C`, so a biased forward is bitwise
//! what [`gemm`] into a zeroed buffer and a bias sweep compute on the same
//! leg, and the AVX2 and AVX-512 legs agree bit for bit.
//!
//! # Int8 kernels
//!
//! Next to the f32 family lives an `i8×i8→i32` inference family used by
//! the quantized backend in `vehigan-lite`:
//!
//! - [`PackedI8`] — a weight matrix packed **once** (at model-compile
//!   time) into `NR`-column strips with the shared dimension interleaved
//!   in `k`-pairs, the exact layout `_mm256_madd_epi16` consumes, plus a
//!   `k`-quad mirror in `NR_VNNI`-column strips (with per-column sums)
//!   for the AVX-512 VNNI kernel. The shared dimension may be cut into
//!   equal **spans** ([`PackedI8::pack_spans`]), each padded to a whole
//!   pair/quad, so a convolution patch — `kh` separate `kw·cin`-byte runs
//!   of a padded activation plane — is multiplied where it lies;
//! - [`Patches`] — where the rows of a left operand live: a plain
//!   row-major matrix, or the patches of a same-padded convolution read
//!   straight out of the padded plane (no im2col copy);
//! - one micro-kernel sweep per ISA — portable, AVX2 (`cvtepi8_epi16`
//!   widening + `madd_epi16` pair-dot, 4 rows × 2 strips) and AVX-512
//!   VNNI (`vpdpbusd`, one 4-deep dot per lane per instruction, 8 rows ×
//!   2 strips = 16 independent accumulators) — whose register block is
//!   finished in place by one of two epilogues: [`gemm_i8`] adds the i32
//!   block into `C`; [`gemm_i8_dequant`] turns it into the next layer's
//!   f32 activations (`acc · mult[j] + bias[j]`, optional LeakyReLU) and
//!   tracks their max-abs, so the accumulators never touch memory;
//! - a fourth leg under the VNNI one, for [`gemm_i8_dequant`]'s
//!   convolution products only: inside a [`TileSession`] on a host with
//!   AMX, one plane row of 4 to 16 patches is one `tdpbusd` tile block,
//!   its A tiles loaded in place from the padded plane and its finished C
//!   tiles handed to the VNNI leg's epilogue. Shapes the tiles do not fit,
//!   the `n = 1` heads and plain [`gemm_i8`] stay on VNNI;
//! - `vpdpbusd` takes *unsigned* left operands, so on the VNNI and AMX
//!   legs activations carry a +128 bias (`Int8Leg::activation_bias`;
//!   [`i8_activation_bias`] for the dispatched leg, an XOR with
//!   `0x80` applied once when they are quantized) and every accumulator
//!   starts at the exact correction `−128·Σ_k b[k][j]`, taken from the
//!   packed per-column sums;
//! - a single-column `B` (the critic's dense head) is a dot product, not
//!   a strip sweep: it is kept in plain `k` order and multiplied 64 bytes
//!   per step.
//!
//! Integer accumulation is exact, so **portable, AVX2, VNNI and AMX int8
//! kernels produce bitwise-identical i32 accumulators** on every ISA —
//! stronger than the f32 contract, and the property the int8 backend's
//! determinism rests on. (`tdpbusd` is `vpdpbusd` per tile element: four
//! zero-extended `u8` × sign-extended `i8` products added into an i32
//! lane without saturation; it sees the same biased bytes and the same
//! `−128·S_j` start, and the zero-padded tile rows add zeros.) The
//! dequantizing epilogue performs the same IEEE operations lane for lane
//! on every leg (convert, multiply, add, ordered-greater select) — the
//! tile leg runs the VNNI leg's own — so its f32 results are bitwise
//! identical too. Exactness requires the accumulator not to overflow:
//! with operands in `[-128, 127]` any `k ≤ 65534` is safe (`k/2`
//! pair-sums of magnitude ≤ 2·128² against an i32; the VNNI and AMX
//! paths' biased `u8×i8` quad-dots stay within the same bound), far above
//! any critic shape in this stack. The tile leg's `asm!` and its safety
//! argument are in `int8/amx.rs`.

/// Where the rows of a left operand live inside a plane, in elements
/// (bytes for the int8 kernels, floats for [`gemm_f32_fused`]).
///
/// Row `r`'s span `s` starts at element
/// `(r / width + s)·row_stride + (r % width)·col_stride`. For a
/// same-padded convolution over a padded `[h + kh − 1, w + kw − 1, cin]`
/// plane that is `width = w`, `row_stride = (w + kw − 1)·cin`,
/// `col_stride = cin`: output pixel `(y, x)` reads `kh` spans of `kw·cin`
/// elements, one per kernel row, exactly where the plane holds them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Patches {
    /// Rows of the left operand per plane row.
    pub width: usize,
    /// Elements between plane rows, and between a row's successive spans.
    pub row_stride: usize,
    /// Elements between horizontally adjacent rows of the left operand.
    pub col_stride: usize,
}

impl Patches {
    /// A plain row-major matrix with `k` elements per row.
    pub fn matrix(k: usize) -> Patches {
        Patches {
            width: 1,
            row_stride: k,
            col_stride: 0,
        }
    }

    /// Where row `r` starts (its first span, for a left operand).
    pub(crate) fn offset(&self, r: usize) -> usize {
        (r / self.width) * self.row_stride + (r % self.width) * self.col_stride
    }

    /// One past the last element a sweep of `rows` rows of `spans` spans
    /// touches when it reads `span_len` elements of each. Every kernel leg
    /// stays below it; the int8 vector legs read whole quads, so they pass
    /// [`PackedI8::span_bytes`] rather than the span length.
    fn extent(&self, rows: usize, spans: usize, span_len: usize) -> usize {
        if rows == 0 || spans == 0 {
            return 0;
        }
        let last = rows - 1;
        (last / self.width + spans - 1) * self.row_stride
            + last.min(self.width - 1) * self.col_stride
            + span_len
    }
}

/// Panics unless `a`, `b` and `c` hold `m×k`, `k×n` and `m×n` elements.
fn check_dims<T, U>(what: &str, m: usize, k: usize, n: usize, a: &[T], b: &[T], c: &[U]) {
    assert_eq!(a.len(), m * k, "{what}: lhs length {} != {m}×{k}", a.len());
    assert_eq!(b.len(), k * n, "{what}: rhs length {} != {k}×{n}", b.len());
    assert_eq!(c.len(), m * n, "{what}: out length {} != {m}×{n}", c.len());
}

/// The AVX-512 write mask selecting the first `width ≤ 16` lanes.
#[cfg(target_arch = "x86_64")]
fn lane_mask(width: usize) -> std::arch::x86_64::__mmask16 {
    ((1u32 << width) - 1) as u16
}

/// Where rows `r0..r0 + R` of a block start under `p`, stepping `(y, x)`
/// instead of dividing per row. Rows from `live` on repeat the last live
/// one: the block recomputes it and stores nothing for them.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
fn block_offsets<const R: usize>(p: Patches, r0: usize, live: usize) -> [usize; R] {
    let (mut x, mut at) = (r0 % p.width, p.offset(r0));
    std::array::from_fn(|r| {
        let here = at;
        if r + 1 < live {
            (x, at) = (x + 1, at + p.col_stride);
            if x == p.width {
                (x, at) = (0, at + p.row_stride - p.width * p.col_stride);
            }
        }
        here
    })
}

mod backward;
mod dispatch;
mod forward;
mod int8;

pub use backward::{dot, gemm_nt, gemm_tn, transpose_into};
use dispatch::F32Leg;
pub use dispatch::{avx512_available, f32_leg, int8_leg, Int8Leg};
pub use forward::{gemm, gemm_f32_fused, naive, FusedF32};
pub use int8::amx::TileSession;
pub use int8::{
    gemm_i8, gemm_i8_dequant, gemm_i8_on, i8_activation_bias, naive_i8, Dequant, PackedI8,
};

/// Operand generators and comparisons shared by the kernel unit tests.
#[cfg(test)]
mod testing {
    /// Deterministic pseudo-random fill (no external deps).
    pub(super) fn fill(seed: u64, len: usize) -> Vec<f32> {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        (0..len)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                ((state >> 40) as f32 / (1u64 << 24) as f32) * 2.0 - 1.0
            })
            .collect()
    }

    /// `fill` with the values a diverging run leaves behind sprinkled in:
    /// ±0, ±Inf, NaN, a denormal and a huge one.
    pub(super) fn fill_special(seed: u64, len: usize) -> Vec<f32> {
        let mut v = fill(seed, len);
        for (i, x) in v.iter_mut().enumerate() {
            match (i as u64 + seed) % 23 {
                2 => *x = 0.0,
                5 => *x = -0.0,
                7 => *x = f32::INFINITY,
                11 => *x = f32::NEG_INFINITY,
                13 => *x = f32::NAN,
                17 => *x *= 1e-41,
                19 => *x *= 1e30,
                _ => {}
            }
        }
        v
    }

    /// Deterministic i8 fill covering the full value range.
    pub(super) fn fill_i8(seed: u64, len: usize) -> Vec<i8> {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        (0..len)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 40) as i8
            })
            .collect()
    }

    pub(super) fn max_rel_err(a: &[f32], b: &[f32]) -> f32 {
        a.iter()
            .zip(b)
            .map(|(&x, &y)| (x - y).abs() / x.abs().max(y.abs()).max(1.0))
            .fold(0.0, f32::max)
    }

    pub(super) fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Bit patterns with every NaN mapped to one: which payload survives
    /// an add of two NaNs is the instruction's operand order, which no leg
    /// promises.
    pub(super) fn bits_nan_folded(v: &[f32]) -> Vec<u32> {
        v.iter()
            .map(|x| if x.is_nan() { 0x7fc0_0000 } else { x.to_bits() })
            .collect()
    }

    /// Opens a tile session for `width`, or says why the tile half of a
    /// test does not run here.
    pub(super) fn tile_session_or_skip(width: usize) -> Option<super::TileSession> {
        let session = super::TileSession::open(width);
        if !session.is_active() {
            println!("tile leg not available — skipped");
        }
        session.is_active().then_some(session)
    }
}
