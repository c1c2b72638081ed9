//! The int8 critic: one compiled scorer per critic, and the thin
//! ensemble of them.
//!
//! [`Int8Weights::compile`] turns one trained critic into a packed int8
//! artifact that scores **window-major**: one window at a time walks
//! every layer back to back over a few kilobytes of [`Scratch`] that never
//! leave L1, instead of pushing a whole batch through one layer at a
//! time. [`Int8Ensemble`] is a `Vec` of them, of any mix of depths, over
//! one scratch:
//!
//! - **per-channel symmetric weight quantization** — each output channel
//!   of every conv kernel / dense matrix gets its own scale
//!   ([`crate::quant::PerChannelQuantized`]);
//! - **range-guarded activation scales** — per layer, a floor scale is
//!   calibrated from representative windows pushed through the
//!   dequantized float reference; at runtime each window whose
//!   activations exceed the calibrated range widens its own scale
//!   (`max(calibrated, window_max/127)`) instead of clipping, so
//!   out-of-distribution inputs — the attack windows the detector
//!   exists for — keep their score ranking. A window's scale depends
//!   only on that window, so scores are batch-independent;
//! - **packed weights** — a critic's weights are packed once at compile
//!   time into the [`vehigan_tensor::gemm::PackedI8`] strip layout, so
//!   inference never repacks;
//! - **direct convolution on a padded plane** — a layer's input is
//!   quantized straight into a zero-bordered
//!   `[h + kh − 1, w + kw − 1, cin]` byte plane, where an output pixel's
//!   patch is `kh` contiguous `kw·cin`-byte spans the micro-kernel reads
//!   in place ([`vehigan_tensor::gemm::Patches`]) — no im2col copy. A
//!   dense layer is the 1×1 convolution over a 1×1 image: its plane has
//!   no border and its one patch is the whole input;
//! - **register-resident epilogue** —
//!   [`vehigan_tensor::gemm::gemm_i8_dequant`] finishes each accumulator
//!   block as the next layer's f32 activations (dequantize, bias,
//!   LeakyReLU) and tracks their max-abs while they are still in
//!   registers, so there is no i32 accumulator buffer, no zeroing pass
//!   and no separate range scan.
//!
//! # Determinism
//!
//! The i8×i8→i32 accumulation is exact integer arithmetic, bitwise
//! identical between the portable, AVX2, VNNI and AMX kernels (the last
//! runs a critic's wider conv layers on tiles inside the one
//! [`TileSession`] each [`Int8Weights::score_into`] call opens, where the
//! host has them); the quantize and dequantize / bias / activation stages
//! perform the same IEEE operations lane for lane on every ISA. **Given
//! equal calibrated scales**, the int8 scoring pipeline is therefore
//! bitwise reproducible across machines and kernel legs. The scales
//! themselves are not: they come out of [`Int8Weights::compile`]'s float
//! reference walk, which runs on the dispatched [`gemm_f32_fused`] (fused
//! multiply-add on AVX2 hosts, separate multiply and add on the portable
//! leg), so two hosts can compile slightly different `in_scale`s — and
//! then score differently — from the same snapshots. Ship the compiled
//! artifact, not the recipe, when scores must match across machines.

use crate::quant::{activation_scale, quantize_biased, PerChannelQuantized, QuantError};
use std::fmt;
use vehigan_tensor::gemm::{
    gemm_f32_fused, gemm_i8_dequant, i8_activation_bias, Dequant, FusedF32, PackedI8, Patches,
    TileSession,
};
use vehigan_tensor::serialize::{ModelFormatError, ModelSnapshot};
use vehigan_tensor::windows::scatter_rows;
use vehigan_tensor::{Flat, Pieces, Windows};

/// Error compiling a model into an int8 critic.
#[derive(Debug)]
pub enum CompileError {
    /// The model contains a layer the int8 walk does not support.
    UnsupportedLayer(String),
    /// The model format itself was invalid.
    Format(ModelFormatError),
    /// The model topology is not a critic (must end in a scalar).
    NotACritic(&'static str),
    /// Quantization failed (non-finite weights or calibration
    /// activations).
    Quant(QuantError),
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::UnsupportedLayer(k) => write!(f, "unsupported layer kind `{k}`"),
            CompileError::Format(e) => write!(f, "invalid model: {e}"),
            CompileError::NotACritic(why) => write!(f, "model is not a critic: {why}"),
            CompileError::Quant(e) => write!(f, "weight quantization failed: {e}"),
        }
    }
}

impl std::error::Error for CompileError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CompileError::Format(e) => Some(e),
            CompileError::Quant(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ModelFormatError> for CompileError {
    fn from(e: ModelFormatError) -> Self {
        CompileError::Format(e)
    }
}

impl From<QuantError> for CompileError {
    fn from(e: QuantError) -> Self {
        CompileError::Quant(e)
    }
}

/// One fused op of a compiled critic: a same-padded convolution
/// `[h, w, cin] → [h, w, cout]` with its quantized parameters. A dense
/// layer `in → out` is the op with `h = w = kh = kw = 1` and `cin = in`
/// (its `[in, out]` weights are exactly that kernel, no transpose needed).
struct FusedOp {
    h: usize,
    w: usize,
    cin: usize,
    cout: usize,
    kh: usize,
    kw: usize,
    /// Packed int8 weights `[kh·kw·cin, cout]`, `kh` spans of `kw·cin`.
    pack: PackedI8,
    /// Per-output-channel weight scales.
    w_scales: Vec<f32>,
    /// Float bias (never quantized — it adds once per output, not per
    /// `k`-step, so f32 costs nothing and loses nothing).
    bias: Vec<f32>,
    /// Fused LeakyReLU slope, if the next source layer was one.
    alpha: Option<f32>,
    /// Calibrated floor scale for this op's *input* activations (the
    /// runtime range guard may widen it per window, never narrow it).
    in_scale: f32,
}

impl FusedOp {
    /// Output length per input snapshot.
    fn out_len(&self) -> usize {
        self.h * self.w * self.cout
    }

    /// Input length per input snapshot.
    fn in_len(&self) -> usize {
        self.h * self.w * self.cin
    }

    /// GEMM rows per snapshot: one per output pixel.
    fn rows(&self) -> usize {
        self.h * self.w
    }

    /// Elements between the rows of the padded input plane.
    fn row_stride(&self) -> usize {
        (self.w + self.kw - 1) * self.cin
    }

    /// Where the GEMM rows live in this op's padded input plane.
    fn patches(&self) -> Patches {
        Patches {
            width: self.w,
            row_stride: self.row_stride(),
            col_stride: self.cin,
        }
    }

    /// What a plane must be laid out for to serve this op.
    fn geometry(&self) -> [usize; 5] {
        [self.h, self.w, self.cin, self.kh, self.kw]
    }

    /// Elements of this op's padded input plane.
    fn plane_len(&self) -> usize {
        (self.h + self.kh - 1) * self.row_stride()
    }

    /// Copies one snapshot's activations, given as two pieces, into the
    /// interior of a padded plane, row by row through `put` (Keras-style
    /// same padding: the smaller half of `k − 1` goes on top and on the
    /// left).
    fn fill_interior<T>(&self, src: Pieces<'_>, plane: &mut [T], put: impl Fn(&[f32], &mut [T])) {
        let (row, stride) = (self.w * self.cin, self.row_stride());
        let origin = (self.kh - 1) / 2 * stride + (self.kw - 1) / 2 * self.cin;
        scatter_rows(src, self.in_len(), row, |y| origin + y * stride, plane, put);
    }

    /// The float reference of this op on its dequantized weights `deq`,
    /// over every window of `act`: the f32 scoring kernel reading each
    /// window from a zero-bordered float plane, the mirror of the int8
    /// one. Calibration only.
    fn float_reference(&self, deq: &[f32], act: &[f32]) -> Vec<f32> {
        let layer = FusedF32 {
            spans: self.kh,
            span_len: self.kw * self.cin,
            w: deq,
            bias: &self.bias,
            alpha: self.alpha,
        };
        let n = act.len() / self.in_len();
        let mut out = vec![0.0f32; n * self.out_len()];
        let mut plane = vec![0.0f32; self.plane_len()];
        let to = Patches::matrix(self.cout);
        let windows = act.chunks_exact(self.in_len());
        for (window, dst) in windows.zip(out.chunks_exact_mut(self.out_len())) {
            self.fill_interior([window, &[]], &mut plane, |src, dst| {
                dst.copy_from_slice(src)
            });
            gemm_f32_fused(self.rows(), &plane, self.patches(), layer, dst, to);
        }
        out
    }
}

/// Largest `|v|` of a window, NaN skipped.
fn max_abs(values: &[f32]) -> f32 {
    // Sixteen parallel max lanes: a single fold is a serial dependency
    // chain the compiler can't vectorize. Max is order-independent, so
    // the result is bit-exact.
    let (chunks, tail) = values.as_chunks::<16>();
    let mut lanes = [0.0f32; 16];
    for ch in chunks {
        for (l, &v) in lanes.iter_mut().zip(ch) {
            // `if a > l` instead of `f32::max`: the plain ordered compare
            // + select vectorizes to vmaxps; maxnum's NaN bookkeeping
            // does not. Identical result: NaN compares false, so NaN
            // lanes are skipped exactly like maxnum.
            let a = v.abs();
            if a > *l {
                *l = a;
            }
        }
    }
    let mut max_abs = 0.0f32;
    for &v in tail.iter().chain(&lanes) {
        let a = v.abs();
        if a > max_abs {
            max_abs = a;
        }
    }
    max_abs
}

/// Bytes past a plane's last element that the widest kernel leg may read:
/// an AMX tile row is 64 bytes from the start of a span, and the shortest
/// span that leg takes is 16 bytes (the VNNI leg's whole last quad needs
/// 3). A plane with less still scores the same bits, on VNNI.
const TILE_SLACK: usize = 64 - 16;

/// One scoring thread's buffers: a quantized input plane per op position,
/// two activation maps and a multiplier row — a few kilobytes that stay
/// L1-resident. It grows to the largest critic it has been
/// [fitted](Scratch::fit) to and never shrinks, so critics of different
/// depths share one scratch and a warm one allocates nothing. Any number
/// of threads may score through one shared [`Int8Weights`], each with its
/// own.
#[derive(Default)]
pub struct Scratch {
    /// Per op position, the geometry the plane is laid out for and the
    /// plane: every byte outside the interior is the biased zero, so the
    /// same-padding border is in place for as long as the geometry holds
    /// (quantization only ever rewrites the interior).
    planes: Vec<([usize; 5], Vec<u8>)>,
    /// f32 activations of the current window, ping-pong.
    act: [Vec<f32>; 2],
    /// Per-channel dequantization multipliers for the current op.
    mult: Vec<f32>,
}

impl Scratch {
    /// An empty scratch; [`Scratch::fit`] sizes it.
    pub fn new() -> Self {
        Self::default()
    }

    /// Lays the scratch out for `critic`, growing what is too small.
    /// Scoring does this itself; fit a scratch beforehand to every critic
    /// it will serve and scoring never allocates. A plane is rewritten
    /// only where the critic last scored had another geometry at that
    /// position.
    pub fn fit(&mut self, critic: &Int8Weights) {
        for (i, op) in critic.ops.iter().enumerate() {
            if i == self.planes.len() {
                self.planes.push(([0; 5], Vec::new()));
            }
            let (geometry, plane) = &mut self.planes[i];
            if *geometry != op.geometry() {
                *geometry = op.geometry();
                plane.clear();
                plane.resize(op.plane_len() + TILE_SLACK, i8_activation_bias());
            }
            for act in &mut self.act {
                if act.len() < op.out_len() {
                    act.resize(op.out_len(), 0.0);
                }
            }
            if self.mult.len() < op.cout {
                self.mult.resize(op.cout, 0.0);
            }
        }
    }

    /// Heap bytes this scratch holds — constant once fitted.
    pub fn bytes(&self) -> usize {
        let planes: usize = self.planes.iter().map(|(_, p)| p.capacity()).sum();
        let floats = self.act[0].capacity() + self.act[1].capacity() + self.mult.capacity();
        planes + floats * std::mem::size_of::<f32>()
    }
}

/// One critic compiled to int8: packed weights, scales and biases, read
/// only. Scoring takes a caller-owned [`Scratch`], so threads can share
/// one `Int8Weights` and score disjoint rows of a batch at once.
pub struct Int8Weights {
    ops: Vec<FusedOp>,
    input_len: usize,
}

impl Int8Weights {
    /// Compiles one critic snapshot over `[h, w, c]` windows, calibrating
    /// each op's activation floor scale on `calibration` (flat
    /// `n × h·w·c` representative windows, at least one) pushed through
    /// the dequantized float reference.
    ///
    /// # Errors
    ///
    /// [`CompileError::UnsupportedLayer`] for layers beyond
    /// Conv2D(same)/LeakyReLU/Flatten/Dense, [`CompileError::NotACritic`]
    /// when shapes do not chain or the output is not a scalar,
    /// [`CompileError::Quant`] when weights or calibration activations
    /// are non-finite.
    ///
    /// # Panics
    ///
    /// Panics if `calibration` is empty or not a whole number of windows.
    pub fn compile(
        snap: &ModelSnapshot,
        input_shape: (usize, usize, usize),
        calibration: &[f32],
    ) -> Result<Self, CompileError> {
        let (mut h, mut w, mut c) = input_shape;
        let input_len = h * w * c;
        assert!(
            !calibration.is_empty() && calibration.len().is_multiple_of(input_len),
            "calibration must be a non-empty whole number of windows"
        );
        let mut act = calibration.to_vec();
        let mut flattened = false;
        let mut ops: Vec<FusedOp> = Vec::new();
        let mut layers = snap.layers.iter().peekable();
        while let Some(layer) = layers.next() {
            let (cin, cout, kh, kw) = match layer.kind.as_str() {
                "Conv2D" => {
                    if layer.usize_attr("padding")? != 0 {
                        return Err(CompileError::UnsupportedLayer(
                            "Conv2D(valid) — int8 critics use same padding".into(),
                        ));
                    }
                    let cin = layer.usize_attr("cin")?;
                    if cin != c {
                        return Err(CompileError::NotACritic("conv channel mismatch"));
                    }
                    let (kh, kw) = (layer.usize_attr("kh")?, layer.usize_attr("kw")?);
                    (cin, layer.usize_attr("cout")?, kh, kw)
                }
                "Flatten" => {
                    flattened = true;
                    continue;
                }
                "Dense" => {
                    if !flattened && (h != 1 || w != 1) {
                        return Err(CompileError::NotACritic("dense before flatten"));
                    }
                    let in_dim = layer.usize_attr("in_dim")?;
                    if in_dim != h * w * c {
                        return Err(CompileError::NotACritic("dense input size mismatch"));
                    }
                    (h, w) = (1, 1);
                    (in_dim, layer.usize_attr("out_dim")?, 1, 1)
                }
                other => return Err(CompileError::UnsupportedLayer(other.to_string())),
            };
            let alpha = layers
                .next_if(|next| next.kind == "LeakyReLU")
                .map(|next| next.f32_attr("alpha"))
                .transpose()?;
            let raw = layer.tensor("w")?.as_slice();
            let q = PerChannelQuantized::quantize(kh * kw * cin, cout, raw)?;
            let deq = q.dequantize();
            let op = FusedOp {
                h,
                w,
                cin,
                cout,
                kh,
                kw,
                pack: PackedI8::pack_spans(kh, kw * cin, cout, &q.values),
                bias: layer.tensor("b")?.as_slice().to_vec(),
                alpha,
                in_scale: activation_scale(&act)?,
                w_scales: q.scales,
            };
            act = op.float_reference(&deq, &act);
            ops.push(op);
            c = cout;
        }
        if h * w * c != 1 {
            return Err(CompileError::NotACritic("output is not a scalar"));
        }
        // A 1×1×1 input passes the scalar check with nothing to score.
        if ops.is_empty() {
            return Err(CompileError::NotACritic("no weight layers"));
        }
        Ok(Int8Weights { ops, input_len })
    }

    /// Number of fused ops (layers after activation fusion).
    pub(crate) fn num_ops(&self) -> usize {
        self.ops.len()
    }

    /// Compiled input length per snapshot.
    pub fn input_len(&self) -> usize {
        self.input_len
    }

    /// Packed int8 weight bytes (the deployable artifact size).
    pub fn weight_bytes(&self) -> usize {
        self.ops.iter().map(|op| op.pack.packed_bytes()).sum()
    }

    /// Anomaly scores `s(x) = −D(x)` of `out.len()` snapshots, each read
    /// where it lies as two [`Pieces`]. Every window runs all layers back
    /// to back (see the module docs) and its score depends on its floats
    /// alone — not on where its pieces split it — so any split of a
    /// batch's rows over threads (one `scratch` each) scores bitwise what
    /// one call over the whole batch does.
    ///
    /// # Panics
    ///
    /// Panics if `windows` is not `out.len()` compiled-length snapshots.
    pub fn score_into<'w>(
        &self,
        scratch: &mut Scratch,
        windows: impl IntoIterator<Item = Pieces<'w>, IntoIter: ExactSizeIterator>,
        out: &mut [f32],
    ) {
        let windows = windows.into_iter();
        assert_eq!(windows.len(), out.len(), "windows length mismatch");
        scratch.fit(self);
        // One tile session for the whole call, on whichever thread runs it
        // (a fork-join task opens its own here): every conv plane of a
        // critic is `w` patches wide. Released on return.
        let _tiles = TileSession::open(self.ops[0].w);
        for (window, o) in windows.zip(out) {
            *o = -self.infer_window(scratch, window);
        }
        #[cfg(test)]
        tests::TILE_SWEEPS.set(tests::TILE_SWEEPS.get() + _tiles.sweeps());
    }

    /// Raw critic output `D(x)` on one window: every layer back to back.
    /// Per layer: the range guard widens the calibrated floor scale to the
    /// window's own max-abs (out-of-distribution inputs — attacks! — widen
    /// their step instead of clipping; the scale depends only on this
    /// window, so scores are independent of the rest of the batch), the
    /// activations are quantized into the op's plane, and one fused
    /// product writes the next activations and reports their max-abs.
    fn infer_window(&self, scratch: &mut Scratch, window: Pieces<'_>) -> f32 {
        let [cur, nxt] = &mut scratch.act;
        let (mut cur, mut nxt) = (cur, nxt);
        // Both maxima skip NaN, so the larger is the whole window's.
        let mut range = max_abs(window[0]).max(max_abs(window[1]));
        let bias = i8_activation_bias();
        for (oi, op) in self.ops.iter().enumerate() {
            let src = if oi == 0 {
                window
            } else {
                [&cur[..op.in_len()], &[]]
            };
            let eff = op.in_scale.max(range / 127.0);
            let inv = 1.0 / eff;
            let plane = &mut scratch.planes[oi].1;
            op.fill_interior(src, plane, |src, dst| quantize_biased(src, inv, bias, dst));
            let mult = &mut scratch.mult[..op.cout];
            for (mu, &ws) in mult.iter_mut().zip(&op.w_scales) {
                *mu = eff * ws;
            }
            let epi = Dequant {
                mult,
                bias: &op.bias,
                alpha: op.alpha,
            };
            let dst = &mut nxt[..op.out_len()];
            range = gemm_i8_dequant(op.rows(), plane, op.patches(), &op.pack, epi, dst);
            std::mem::swap(&mut cur, &mut nxt);
        }
        // The final op produced the critic's one scalar.
        cur[0]
    }
}

/// Critics compiled to int8, of any mix of depths, over one [`Scratch`]
/// fitted to all of them.
///
/// # Examples
///
/// ```
/// use vehigan_tensor::{Sequential, Init, init::seeded_rng};
/// use vehigan_tensor::layers::{Conv2D, Padding, Activation, Flatten, Dense};
/// use vehigan_lite::Int8Ensemble;
///
/// let mut members = Vec::new();
/// for seed in 0..3u64 {
///     let mut rng = seeded_rng(seed);
///     let mut critic = Sequential::new();
///     critic.push(Conv2D::new(1, 8, (2, 2), Padding::Same, Init::HeUniform, &mut rng));
///     critic.push(Activation::leaky_relu(0.2));
///     critic.push(Flatten::new());
///     critic.push(Dense::new(10 * 12 * 8, 1, Init::XavierUniform, &mut rng));
///     members.push(critic.save());
/// }
/// let snaps: Vec<&_> = members.iter().collect();
/// let calibration = vec![0.1f32; 4 * 120]; // 4 representative windows
/// let mut fused = Int8Ensemble::compile(&snaps, (10, 12, 1), &calibration)?;
/// let window = vec![0.0f32; 120];
/// let mut scores = vec![0.0f32; 3];
/// fused.score_subset_into(&[0, 1, 2], &window, 1, &mut scores);
/// assert!(scores.iter().all(|s| s.is_finite()));
/// # Ok::<(), vehigan_lite::CompileError>(())
/// ```
pub struct Int8Ensemble {
    critics: Vec<Int8Weights>,
    scratch: Scratch,
}

impl fmt::Debug for Int8Ensemble {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Int8Ensemble({} members, {} fused ops, {} packed weight bytes)",
            self.critics.len(),
            self.critics.iter().map(Int8Weights::num_ops).sum::<usize>(),
            self.weight_bytes(),
        )
    }
}

impl Int8Ensemble {
    /// Compiles each critic snapshot with [`Int8Weights::compile`] on the
    /// same `calibration` windows.
    ///
    /// # Errors
    ///
    /// Whatever [`Int8Weights::compile`] rejects, for the first member
    /// that fails.
    ///
    /// # Panics
    ///
    /// Panics if `snaps` or `calibration` is empty, or `calibration` is
    /// not a whole number of windows.
    pub fn compile(
        snaps: &[&ModelSnapshot],
        input_shape: (usize, usize, usize),
        calibration: &[f32],
    ) -> Result<Self, CompileError> {
        assert!(!snaps.is_empty(), "need at least one member");
        let critics = snaps
            .iter()
            .map(|snap| Int8Weights::compile(snap, input_shape, calibration))
            .collect::<Result<Vec<_>, _>>()?;
        let mut scratch = Scratch::new();
        for critic in &critics {
            scratch.fit(critic);
        }
        Ok(Int8Ensemble { critics, scratch })
    }

    /// Total packed int8 weight bytes across all members.
    pub(crate) fn weight_bytes(&self) -> usize {
        self.critics.iter().map(Int8Weights::weight_bytes).sum()
    }

    /// Anomaly scores `s(x) = −D(x)` for a batch through a member subset.
    ///
    /// `windows` holds `n` flat snapshots; `out` receives member-major
    /// results: `out[s·n + i]` is subset member `s`'s score on snapshot
    /// `i`. Members go one after another so each one's packed weights
    /// stay cache-hot across the batch.
    ///
    /// # Panics
    ///
    /// Panics on length mismatches or an out-of-range member index.
    pub fn score_subset_into(
        &mut self,
        subset: &[usize],
        windows: &[f32],
        n: usize,
        out: &mut [f32],
    ) {
        assert_eq!(out.len(), subset.len() * n, "output length mismatch");
        let len = self.critics[0].input_len;
        assert_eq!(windows.len(), n * len, "windows length mismatch");
        let windows = Flat::new(windows, len);
        for (s, &g) in subset.iter().enumerate() {
            assert!(g < self.critics.len(), "member {g} out of range");
            let out = &mut out[s * n..(s + 1) * n];
            self.critics[g].score_into(&mut self.scratch, windows.pieces(0..n), out);
        }
    }

    /// Convenience: anomaly scores for all members, member-major.
    pub fn score_all(&mut self, windows: &[f32], n: usize) -> Vec<f32> {
        let subset: Vec<usize> = (0..self.critics.len()).collect();
        let mut out = vec![0.0f32; subset.len() * n];
        self.score_subset_into(&subset, windows, n, &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vehigan_tensor::init::seeded_rng;
    use vehigan_tensor::layers::{Activation, Conv2D, Dense, Flatten, Padding};
    use vehigan_tensor::{Init, Sequential, Tensor};

    const H: usize = 10;
    const W: usize = 12;

    thread_local! {
        /// Layer products the calling thread's `score_into` calls ran on
        /// the AMX tile leg, as their sessions counted them.
        pub(super) static TILE_SWEEPS: std::cell::Cell<u32> = const { std::cell::Cell::new(0) };
    }

    /// Runs `scoring` and, where the host has the tile leg, asserts that
    /// some layer product in it ran there — so an oracle that passes has
    /// tried the tiles, not only the VNNI leg under them.
    fn assert_takes_the_tile_leg(scoring: impl FnOnce()) {
        let before = TILE_SWEEPS.get();
        scoring();
        if vehigan_tensor::gemm::int8_leg() == "amx" {
            assert!(TILE_SWEEPS.get() > before, "no product took the tile leg");
        } else {
            println!("tile leg not available — skipped");
        }
    }

    fn build_critic(depth: usize, seed: u64) -> Sequential {
        let mut rng = seeded_rng(seed);
        let mut m = Sequential::new();
        let mut cin = 1;
        for i in 0..depth - 1 {
            let cout = (8usize << i).min(32);
            m.push(Conv2D::new(
                cin,
                cout,
                (2, 2),
                Padding::Same,
                Init::HeUniform,
                &mut rng,
            ));
            m.push(Activation::leaky_relu(0.2));
            cin = cout;
        }
        m.push(Flatten::new());
        m.push(Dense::new(H * W * cin, 1, Init::XavierUniform, &mut rng));
        m
    }

    fn random_windows(n: usize, seed: u64) -> Vec<f32> {
        use rand::Rng;
        let mut rng = seeded_rng(seed);
        (0..n * H * W).map(|_| rng.gen_range(-1.0..1.0)).collect()
    }

    fn compile_fused(
        depth: usize,
        members: usize,
        calibration: &[f32],
    ) -> (Int8Ensemble, Vec<Sequential>) {
        let floats: Vec<Sequential> = (0..members as u64)
            .map(|s| build_critic(depth, 100 + s))
            .collect();
        let snaps: Vec<_> = floats.iter().map(|m| m.save()).collect();
        let refs: Vec<&_> = snaps.iter().collect();
        let fused = Int8Ensemble::compile(&refs, (H, W, 1), calibration).unwrap();
        (fused, floats)
    }

    #[test]
    fn fused_scores_track_float_reference() {
        let calibration = random_windows(16, 7);
        let (mut fused, mut floats) = compile_fused(4, 3, &calibration);
        let n = 8;
        let windows = random_windows(n, 11);
        let scores = fused.score_all(&windows, n);
        for (g, float) in floats.iter_mut().enumerate() {
            let x = Tensor::from_vec(windows.clone(), &[n, H, W, 1]);
            let d = float.forward(&x);
            for i in 0..n {
                let want = -d.as_slice()[i];
                let got = scores[g * n + i];
                let tol = 0.05 * want.abs().max(1.0);
                assert!(
                    (want - got).abs() <= tol,
                    "member {g} snapshot {i}: int8 {got} vs f32 {want}"
                );
            }
        }
    }

    #[test]
    fn subset_scoring_is_bitwise_consistent_with_full_run() {
        let calibration = random_windows(8, 3);
        let (mut fused, _floats) = compile_fused(5, 4, &calibration);
        let n = 3;
        let windows = random_windows(n, 21);
        let all = fused.score_all(&windows, n);
        // Every subset, in any order, reproduces the full run bitwise.
        for subset in [&[2usize][..], &[3, 0], &[1, 3, 2]] {
            let mut out = vec![0.0f32; subset.len() * n];
            fused.score_subset_into(subset, &windows, n, &mut out);
            for (s, &g) in subset.iter().enumerate() {
                for i in 0..n {
                    assert_eq!(
                        out[s * n + i].to_bits(),
                        all[g * n + i].to_bits(),
                        "subset {subset:?} member {g} snapshot {i}"
                    );
                }
            }
        }
    }

    #[test]
    fn repeated_runs_are_bitwise_deterministic() {
        let calibration = random_windows(8, 5);
        let (mut fused, _floats) = compile_fused(4, 2, &calibration);
        let windows = random_windows(4, 9);
        let a = fused.score_all(&windows, 4);
        let b = fused.score_all(&windows, 4);
        assert_eq!(bits(&a), bits(&b));
    }

    /// The bits of a score vector.
    fn bits(scores: &[f32]) -> Vec<u32> {
        scores.iter().map(|s| s.to_bits()).collect()
    }

    #[test]
    fn mixed_depths_score_what_each_depth_scores_alone() {
        // Depth 3 and depth 4 disagree on the plane at position 2 (a
        // dense row against a padded conv plane), so every switch between
        // them on the shared scratch rewrites that plane — border included.
        let calibration = random_windows(8, 1);
        let depths = [3usize, 4, 3, 4];
        let snaps: Vec<ModelSnapshot> = depths
            .iter()
            .zip(0u64..)
            .map(|(&depth, seed)| build_critic(depth, 40 + seed).save())
            .collect();
        let refs: Vec<&ModelSnapshot> = snaps.iter().collect();
        let mut mixed = Int8Ensemble::compile(&refs, (H, W, 1), &calibration).unwrap();
        let n = 5;
        // Range-guard-tripping windows in between: they fill the planes
        // with saturated bytes a stale border would show.
        let mut windows = random_windows(n, 23);
        windows[H * W..2 * H * W]
            .iter_mut()
            .for_each(|v| *v *= 40.0);
        let alone: Vec<Vec<f32>> = refs
            .iter()
            .map(|&snap| {
                let mut one = Int8Ensemble::compile(&[snap], (H, W, 1), &calibration).unwrap();
                one.score_all(&windows, n)
            })
            .collect();
        assert_takes_the_tile_leg(|| {
            for subset in [&[0usize, 1, 2, 3][..], &[3, 0, 1], &[1, 1, 2, 3, 0, 3]] {
                let mut out = vec![0.0f32; subset.len() * n];
                mixed.score_subset_into(subset, &windows, n, &mut out);
                for (scores, &g) in out.chunks_exact(n).zip(subset) {
                    assert_eq!(
                        bits(scores),
                        bits(&alone[g]),
                        "subset {subset:?} member {g}"
                    );
                }
            }
        });
    }

    #[test]
    fn unsupported_layers_and_non_scalar_outputs_are_rejected() {
        use vehigan_tensor::layers::Reshape;
        let mut rng = seeded_rng(7);
        let compile = |m: &Sequential, shape: (usize, usize, usize)| {
            let calibration = vec![0.1f32; 2 * shape.0 * shape.1 * shape.2];
            Int8Ensemble::compile(&[&m.save()], shape, &calibration).unwrap_err()
        };
        // A generator: dense then reshape.
        let mut generator = Sequential::new();
        generator.push(Dense::new(8, 60, Init::HeUniform, &mut rng));
        generator.push(Reshape::new(&[5, 6, 2]));
        let err = compile(&generator, (1, 1, 8));
        assert!(matches!(err, CompileError::UnsupportedLayer(_)), "{err}");
        assert!(err.to_string().contains("Reshape"), "{err}");
        // A critic body without its scalar head.
        let mut headless = Sequential::new();
        headless.push(Dense::new(8, 60, Init::HeUniform, &mut rng));
        let err = compile(&headless, (1, 1, 8));
        assert!(matches!(err, CompileError::NotACritic(_)), "{err}");
        // Valid padding has no int8 plane.
        let mut valid = Sequential::new();
        valid.push(Conv2D::new(
            1,
            4,
            (2, 2),
            Padding::Valid,
            Init::HeUniform,
            &mut rng,
        ));
        let err = compile(&valid, (H, W, 1));
        assert!(matches!(err, CompileError::UnsupportedLayer(_)), "{err}");
        // A scalar input with nothing to multiply it by: the output "is a
        // scalar", but there is no critic to score.
        let mut hollow = Sequential::new();
        for layers in 0..2 {
            let err = compile(&hollow, (1, 1, 1));
            assert!(
                matches!(err, CompileError::NotACritic("no weight layers")),
                "{layers} layers: {err}"
            );
            hollow.push(Flatten::new());
        }
    }

    #[test]
    #[should_panic(expected = "windows length mismatch")]
    fn wrong_input_length_panics() {
        let calibration = random_windows(4, 2);
        let (mut fused, _floats) = compile_fused(3, 1, &calibration);
        fused.score_all(&[0.0; 64], 1);
    }

    #[test]
    fn batch_and_single_snapshot_agree() {
        let calibration = random_windows(8, 13);
        let (mut fused, _floats) = compile_fused(4, 2, &calibration);
        let n = 5;
        let windows = random_windows(n, 17);
        let batch = fused.score_all(&windows, n);
        for i in 0..n {
            let one = &windows[i * H * W..(i + 1) * H * W];
            let scores = fused.score_all(one, 1);
            for g in 0..2 {
                assert_eq!(
                    scores[g].to_bits(),
                    batch[g * n + i].to_bits(),
                    "member {g} snapshot {i}"
                );
            }
        }
    }

    #[test]
    fn debug_reports_artifact_size() {
        let calibration = random_windows(4, 2);
        let (fused, _floats) = compile_fused(4, 2, &calibration);
        // Activations are absorbed: 3 convs + 1 dense = 4 ops a member.
        let text = format!("{fused:?}");
        assert!(text.contains("2 members, 8 fused ops"), "{text}");
        assert!(fused.weight_bytes() > 0);
    }

    // ---- Bitwise oracle for the fused window walk -------------------
    //
    // A layer-major scalar walk over unpacked operands: quantize, gather
    // the same-padded patches, `naive_i8`, dequantize. It shares only
    // `quantize_activations` and the weight quantizer with the fused
    // path, so plane geometry, span packing, the micro-kernels and the
    // register epilogue are all on trial.

    use crate::quant::quantize_activations;
    use proptest::prelude::*;
    use vehigan_tensor::gemm::naive_i8;

    /// The pre-fusion scalar dequantize loop, kept as the reference.
    fn dequant_window_portable(
        acc: &[i32],
        mult: &[f32],
        bias: &[f32],
        alpha: Option<f32>,
        dst: &mut [f32],
    ) {
        let cout = mult.len();
        for (row_acc, row_dst) in acc.chunks_exact(cout).zip(dst.chunks_exact_mut(cout)) {
            for ((d, &a), (&mu, &b)) in row_dst.iter_mut().zip(row_acc).zip(mult.iter().zip(bias)) {
                let v = a as f32 * mu + b;
                *d = match alpha {
                    Some(alpha) => {
                        if v > 0.0 {
                            v
                        } else {
                            alpha * v
                        }
                    }
                    None => v,
                };
            }
        }
    }

    fn reference_infer(
        fused: &Int8Ensemble,
        snap: &ModelSnapshot,
        g: usize,
        (h, w): (usize, usize),
        window: &[f32],
    ) -> f32 {
        let mut act = window.to_vec();
        let mut ops = fused.critics[g].ops.iter();
        for (li, layer) in snap.layers.iter().enumerate() {
            let conv = match layer.kind.as_str() {
                "Conv2D" => true,
                "Dense" => false,
                _ => continue,
            };
            let attr = |name: &'static str| layer.usize_attr(name).unwrap();
            let (kh, kw, cin, cout, rows) = if conv {
                (attr("kh"), attr("kw"), attr("cin"), attr("cout"), h * w)
            } else {
                (1, 1, attr("in_dim"), attr("out_dim"), 1)
            };
            let kk = kh * kw * cin;
            let m = ops.next().unwrap();
            let mut range = 0.0f32;
            for v in &act {
                if v.abs() > range {
                    range = v.abs();
                }
            }
            let eff = m.in_scale.max(range / 127.0);
            let mut q = vec![0i8; act.len()];
            quantize_activations(&act, eff, &mut q);
            let mut a = vec![0i8; rows * kk];
            let (hh, ww) = if conv { (h, w) } else { (1, 1) };
            for (pixel, patch) in a.chunks_exact_mut(kk).enumerate() {
                for (tap, dst) in patch.chunks_exact_mut(cin).enumerate() {
                    let iy = (pixel / ww + tap / kw).wrapping_sub((kh - 1) / 2);
                    let ix = (pixel % ww + tap % kw).wrapping_sub((kw - 1) / 2);
                    if iy < hh && ix < ww {
                        dst.copy_from_slice(&q[(iy * ww + ix) * cin..][..cin]);
                    }
                }
            }
            let wq = PerChannelQuantized::quantize(kk, cout, layer.tensor("w").unwrap().as_slice())
                .unwrap();
            let mut acc = vec![0i32; rows * cout];
            naive_i8(rows, kk, cout, &a, &wq.values, &mut acc);
            let mult: Vec<f32> = wq.scales.iter().map(|&ws| eff * ws).collect();
            let alpha = snap
                .layers
                .get(li + 1)
                .filter(|l| l.kind == "LeakyReLU")
                .map(|l| l.f32_attr("alpha").unwrap());
            act = vec![0.0; rows * cout];
            dequant_window_portable(&acc, &mult, &m.bias, alpha, &mut act);
        }
        act[0]
    }

    /// A random same-padded conv stack + dense head over `[h, w, c]`.
    fn random_critic(
        rng: &mut rand::rngs::StdRng,
        (h, w, c): (usize, usize, usize),
        convs: &[(usize, usize, usize)],
    ) -> Sequential {
        let mut m = Sequential::new();
        let mut cin = c;
        for &(cout, kh, kw) in convs {
            m.push(Conv2D::new(
                cin,
                cout,
                (kh, kw),
                Padding::Same,
                Init::HeUniform,
                rng,
            ));
            m.push(Activation::leaky_relu(0.2));
            cin = cout;
        }
        m.push(Flatten::new());
        m.push(Dense::new(h * w * cin, 1, Init::XavierUniform, rng));
        m
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        // Run by `fused_walk_is_bitwise_the_scalar_reference` below.
        fn fused_walk_cases(
            seed in any::<u64>(),
            (h, w, c) in (1usize..6, 1usize..7, 1usize..4),
            // (cout, kh, kw): odd widths, spans that are not whole pairs
            // or quads (kw·cin ∈ {1, 2, 3, 5, 6, 7, 9, …}), both paddings.
            convs in proptest::collection::vec((1usize..20, 1usize..4, 1usize..4), 1..4),
            members in 1usize..4,
            kinds in proptest::collection::vec(0u8..4, 1..5),
        ) {
            use rand::Rng;
            let mut rng = seeded_rng(seed);
            let snaps: Vec<ModelSnapshot> = (0..members)
                .map(|_| random_critic(&mut rng, (h, w, c), &convs).save())
                .collect();
            let refs: Vec<&ModelSnapshot> = snaps.iter().collect();
            let len = h * w * c;
            let calibration: Vec<f32> = (0..4 * len).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let mut fused = Int8Ensemble::compile(&refs, (h, w, c), &calibration).unwrap();

            // In-range, range-guard-tripping, all-zero and NaN-bearing.
            let n = kinds.len();
            let mut windows: Vec<f32> = Vec::with_capacity(n * len);
            for &kind in &kinds {
                let amp = [1.0f32, 40.0, 0.0, 1.0][kind as usize];
                let at = windows.len();
                windows.extend((0..len).map(|_| amp * rng.gen_range(-1.0f32..1.0)));
                if kind == 3 {
                    windows[at + len / 2] = f32::NAN;
                }
            }
            let subset: Vec<usize> = (0..members).rev().collect();
            let mut got = vec![0.0f32; members * n];
            fused.score_subset_into(&subset, &windows, n, &mut got);
            // Each window cut into two pieces anywhere, the range guard's
            // maximum in either one, scores the same bits.
            let cut: Vec<Pieces<'_>> = windows
                .chunks_exact(len)
                .enumerate()
                .map(|(i, w)| {
                    let (older, newer) = w.split_at((i * 7 + len / 3) % (len + 1));
                    [older, newer]
                })
                .collect();
            let mut scratch = Scratch::new();
            let mut pieces = vec![0.0f32; n];
            for (s, &g) in subset.iter().enumerate() {
                fused.critics[g].score_into(&mut scratch, cut.iter().copied(), &mut pieces);
                for (i, window) in windows.chunks_exact(len).enumerate() {
                    let want = -reference_infer(&fused, &snaps[g], g, (h, w), window);
                    prop_assert_eq!(
                        got[s * n + i].to_bits(), want.to_bits(),
                        "member {} window {} (kind {}): fused {} vs reference {}",
                        g, i, kinds[i], got[s * n + i], want
                    );
                    prop_assert_eq!(
                        pieces[i].to_bits(), want.to_bits(),
                        "member {} window {} in two pieces", g, i
                    );
                }
            }
        }
    }

    #[test]
    fn fused_walk_is_bitwise_the_scalar_reference() {
        // Widths 4–6 with a 16-byte-or-longer span in a later layer are
        // tile blocks; the rest of the cases stay on VNNI.
        assert_takes_the_tile_leg(fused_walk_cases);
    }
}
