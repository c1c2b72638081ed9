//! The fused int8 multi-member inference backend.
//!
//! [`Int8Ensemble`] compiles `m` same-topology critics into one packed
//! int8 artifact and scores any sampled subset of them **window-major**:
//! one window at a time walks every layer of a member back to back over a
//! few kilobytes of scratch that never leave L1, instead of pushing a
//! whole batch through one layer at a time:
//!
//! - **per-channel symmetric weight quantization** — each output channel
//!   of every conv kernel / dense matrix gets its own scale
//!   ([`crate::quant::PerChannelQuantized`]);
//! - **range-guarded activation scales** — per member and per layer, a
//!   floor scale is calibrated from representative windows pushed through
//!   the dequantized float reference; at runtime each window whose
//!   activations exceed the calibrated range widens its own scale
//!   (`max(calibrated, window_max/127)`) instead of clipping, so
//!   out-of-distribution inputs — the attack windows the detector
//!   exists for — keep their score ranking. A window's scale depends
//!   only on that window, so scores are batch-independent;
//! - **packed multi-member weights** — every member's weights are packed
//!   once at compile time into the [`vehigan_tensor::gemm::PackedI8`]
//!   strip layout, so inference never repacks;
//! - **direct convolution on a padded plane** — a layer's input is
//!   quantized straight into a zero-bordered
//!   `[h + kh − 1, w + kw − 1, cin]` byte plane, where an output pixel's
//!   patch is `kh` contiguous `kw·cin`-byte spans the micro-kernel reads
//!   in place ([`vehigan_tensor::gemm::Patches`]) — no im2col copy;
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
//! identical between the portable, AVX2 and VNNI kernels; the quantize
//! and dequantize / bias / activation stages perform the same IEEE
//! operations lane for lane on every ISA. **Given equal calibrated
//! scales**, the int8 scoring pipeline is therefore bitwise reproducible
//! across machines and kernel legs. The scales themselves are not: they
//! come out of [`Int8Ensemble::compile`]'s float reference walk, which
//! runs on the dispatched [`gemm_f32_fused`] (fused multiply-add on AVX2
//! hosts, separate multiply and add on the portable leg), so two hosts can
//! compile slightly different `in_scale`s — and then score differently —
//! from the same snapshots. Ship the compiled artifact, not the recipe,
//! when scores must match across machines.

use crate::critic::CompileError;
use crate::quant::{activation_scale, quantize_biased, PerChannelQuantized};
use vehigan_tensor::gemm::{
    gemm_f32_fused, gemm_i8_dequant, i8_activation_bias, Dequant, FusedF32, PackedI8, Patches,
};
use vehigan_tensor::serialize::ModelSnapshot;

/// One member's quantized parameters for one fused op.
struct OpMember {
    /// Packed int8 weights `[kk, cout]` / `[in, out]`.
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
    /// Dequantized weights, kept only between parsing and calibration.
    deq: Vec<f32>,
}

/// One fused op shared by all members (topology is identical; only the
/// per-member parameters differ).
enum FusedOp {
    /// Same-padding conv `[h, w, cin] → [h, w, cout]`.
    Conv {
        h: usize,
        w: usize,
        cin: usize,
        cout: usize,
        kh: usize,
        kw: usize,
        pad_top: usize,
        pad_left: usize,
        members: Vec<OpMember>,
    },
    /// Dense `in → out` (weights stay `[in, out]` — exactly the GEMM
    /// orientation, no transpose needed).
    Dense {
        in_dim: usize,
        out_dim: usize,
        members: Vec<OpMember>,
    },
}

impl FusedOp {
    fn members(&self) -> &[OpMember] {
        match self {
            FusedOp::Conv { members, .. } | FusedOp::Dense { members, .. } => members,
        }
    }

    fn members_mut(&mut self) -> &mut Vec<OpMember> {
        match self {
            FusedOp::Conv { members, .. } | FusedOp::Dense { members, .. } => members,
        }
    }

    /// Output length per input snapshot.
    fn out_len(&self) -> usize {
        match self {
            FusedOp::Conv { h, w, cout, .. } => h * w * cout,
            FusedOp::Dense { out_dim, .. } => *out_dim,
        }
    }

    /// Input length per input snapshot.
    fn in_len(&self) -> usize {
        match self {
            FusedOp::Conv { h, w, cin, .. } => h * w * cin,
            FusedOp::Dense { in_dim, .. } => *in_dim,
        }
    }

    /// GEMM shared dimension.
    fn kk(&self) -> usize {
        match self {
            FusedOp::Conv { kh, kw, cin, .. } => kh * kw * cin,
            FusedOp::Dense { in_dim, .. } => *in_dim,
        }
    }

    /// GEMM rows per snapshot: one per output pixel, one per dense layer.
    fn rows(&self) -> usize {
        match self {
            FusedOp::Conv { h, w, .. } => h * w,
            FusedOp::Dense { .. } => 1,
        }
    }

    /// Where the GEMM rows live in this op's quantized input plane: the
    /// patches of the padded conv plane, or the one flat dense row.
    fn patches(&self) -> Patches {
        match self {
            FusedOp::Conv { w, cin, kw, .. } => Patches {
                width: *w,
                row_stride: (w + kw - 1) * cin,
                col_stride: *cin,
            },
            FusedOp::Dense { in_dim, .. } => Patches::matrix(*in_dim),
        }
    }

    /// A fresh input plane for this op: every byte the biased zero, so
    /// the same-padding border is in place once and for all (quantization
    /// only ever rewrites the interior), plus the slack that lets the
    /// kernels read the last span as whole quads.
    fn new_plane(&self) -> Vec<u8> {
        vec![i8_activation_bias(); self.plane_len()]
    }

    /// Byte length of this op's input plane, quad slack included.
    fn plane_len(&self) -> usize {
        const QUAD_SLACK: usize = 3;
        let len = match self {
            FusedOp::Conv {
                h, w, cin, kh, kw, ..
            } => (h + kh - 1) * (w + kw - 1) * cin,
            FusedOp::Dense { in_dim, .. } => *in_dim,
        };
        len + QUAD_SLACK
    }

    /// Quantizes one snapshot's activations into this op's plane.
    fn quantize_into(&self, src: &[f32], inv: f32, plane: &mut [u8]) {
        let bias = i8_activation_bias();
        match self {
            FusedOp::Conv {
                h,
                w,
                cin,
                kw,
                pad_top,
                pad_left,
                ..
            } => {
                let (row, stride) = (w * cin, (w + kw - 1) * cin);
                for (y, src_row) in src.chunks_exact(row).enumerate().take(*h) {
                    let at = (y + pad_top) * stride + pad_left * cin;
                    quantize_biased(src_row, inv, bias, &mut plane[at..at + row]);
                }
            }
            FusedOp::Dense { in_dim, .. } => quantize_biased(src, inv, bias, &mut plane[..*in_dim]),
        }
    }

    /// Structural fingerprint for topology equality across members.
    fn signature(&self) -> (usize, usize, usize, usize, usize, usize) {
        match self {
            FusedOp::Conv {
                h,
                w,
                cin,
                cout,
                kh,
                kw,
                ..
            } => (*h, *w, *cin, *cout, *kh, *kw),
            FusedOp::Dense {
                in_dim, out_dim, ..
            } => (0, 0, *in_dim, *out_dim, 0, 0),
        }
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

/// One window's runtime buffers, sized once from the op list — scoring
/// allocates nothing, and the whole set (two activation maps, one byte
/// plane per op, a multiplier row) stays L1-resident. One per scoring
/// thread: [`Int8Weights::new_scratch`] makes them, and any number of
/// threads may score through one shared [`Int8Weights`], each with its
/// own.
pub struct Scratch {
    /// Quantized input plane per op ([`FusedOp::new_plane`]).
    planes: Vec<Vec<u8>>,
    /// f32 activations of the current window, ping-pong.
    act: [Vec<f32>; 2],
    /// Per-channel dequantization multipliers for the current op.
    mult: Vec<f32>,
}

impl Scratch {
    fn for_ops(ops: &[FusedOp]) -> Scratch {
        let widest = ops.iter().map(FusedOp::out_len).max().unwrap_or(0);
        let channels = ops.iter().map(|op| op.out_len() / op.rows()).max();
        Scratch {
            planes: ops.iter().map(FusedOp::new_plane).collect(),
            act: [vec![0.0; widest], vec![0.0; widest]],
            mult: vec![0.0; channels.unwrap_or(0)],
        }
    }

    /// Whether this scratch was sized for `ops` (plane by plane).
    fn fits(&self, ops: &[FusedOp]) -> bool {
        self.planes.len() == ops.len()
            && ops
                .iter()
                .zip(&self.planes)
                .all(|(op, plane)| plane.len() == op.plane_len())
    }

    /// Heap bytes this scratch holds — fixed from the moment it is made.
    pub fn bytes(&self) -> usize {
        let planes: usize = self.planes.iter().map(Vec::capacity).sum();
        let floats = self.act[0].capacity() + self.act[1].capacity() + self.mult.capacity();
        planes + floats * std::mem::size_of::<f32>()
    }
}

/// Raw critic output `D(x)` of member `g` on one window: every layer back
/// to back. Per layer: the range guard widens the calibrated floor scale
/// to the window's own max-abs (out-of-distribution inputs — attacks! —
/// widen their step instead of clipping; the scale depends only on this
/// window and member, so scores are independent of the rest of the
/// batch), the activations are quantized into the op's plane, and one
/// fused product writes the next activations and reports their max-abs.
fn infer_window(ops: &[FusedOp], g: usize, scratch: &mut Scratch, window: &[f32]) -> f32 {
    let [cur, nxt] = &mut scratch.act;
    let (mut cur, mut nxt) = (cur, nxt);
    let mut range = max_abs(window);
    for (oi, op) in ops.iter().enumerate() {
        let m = &op.members()[g];
        let src = if oi == 0 { window } else { &cur[..op.in_len()] };
        let eff = m.in_scale.max(range / 127.0);
        let plane = &mut scratch.planes[oi];
        op.quantize_into(src, 1.0 / eff, plane);
        let mult = &mut scratch.mult[..m.w_scales.len()];
        for (mu, &ws) in mult.iter_mut().zip(&m.w_scales) {
            *mu = eff * ws;
        }
        let epi = Dequant {
            mult,
            bias: &m.bias,
            alpha: m.alpha,
        };
        let dst = &mut nxt[..op.out_len()];
        range = gemm_i8_dequant(op.rows(), plane, op.patches(), &m.pack, epi, dst);
        std::mem::swap(&mut cur, &mut nxt);
    }
    // The final op produced the critic's one scalar.
    cur[0]
}

/// A compiled fused int8 multi-member ensemble scorer.
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
    weights: Int8Weights,
    scratch: Scratch,
}

/// The read-only half of a compiled [`Int8Ensemble`]: packed weights,
/// scales and biases of every member. Scoring through it takes a
/// caller-owned [`Scratch`], so threads can share one `Int8Weights` and
/// score disjoint rows of a batch at once.
pub struct Int8Weights {
    ops: Vec<FusedOp>,
    members: usize,
    input_len: usize,
}

impl std::fmt::Debug for Int8Ensemble {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Int8Ensemble({} members, {} fused ops, input {} floats, {} packed weight bytes)",
            self.weights.members,
            self.weights.ops.len(),
            self.weights.input_len,
            self.weights.weight_bytes(),
        )
    }
}

/// Parses one member snapshot into per-op quantized parameters, checking
/// the same topology constraints as `LiteCritic`.
fn parse_member(
    snap: &ModelSnapshot,
    input_shape: (usize, usize, usize),
) -> Result<Vec<FusedOp>, CompileError> {
    let (h, w, mut c) = input_shape;
    let mut flat = h * w * c;
    let mut flattened = false;
    let mut ops: Vec<FusedOp> = Vec::new();
    let mut i = 0;
    while i < snap.layers.len() {
        let layer = &snap.layers[i];
        let fused_next = snap
            .layers
            .get(i + 1)
            .filter(|l| l.kind == "LeakyReLU")
            .map(|l| l.f32_attr("alpha"))
            .transpose()?;
        match layer.kind.as_str() {
            "Conv2D" => {
                let cin = layer.usize_attr("cin")?;
                let cout = layer.usize_attr("cout")?;
                let kh = layer.usize_attr("kh")?;
                let kw = layer.usize_attr("kw")?;
                let padding = layer.usize_attr("padding")?;
                if padding != 0 {
                    return Err(CompileError::UnsupportedLayer(
                        "Conv2D(valid) — int8 critics use same padding".into(),
                    ));
                }
                if cin != c {
                    return Err(CompileError::NotACritic("conv channel mismatch"));
                }
                let raw = layer.tensor("w")?.as_slice();
                let q = PerChannelQuantized::quantize(kh * kw * cin, cout, raw)?;
                let deq = q.dequantize();
                let member = OpMember {
                    pack: PackedI8::pack_spans(kh, kw * cin, cout, &q.values),
                    w_scales: q.scales,
                    bias: layer.tensor("b")?.as_slice().to_vec(),
                    alpha: fused_next,
                    in_scale: 1.0,
                    deq,
                };
                if fused_next.is_some() {
                    i += 1;
                }
                ops.push(FusedOp::Conv {
                    h,
                    w,
                    cin,
                    cout,
                    kh,
                    kw,
                    pad_top: (kh - 1) / 2,
                    pad_left: (kw - 1) / 2,
                    members: vec![member],
                });
                c = cout;
                flat = h * w * c;
            }
            "Flatten" => {
                flattened = true;
            }
            "Dense" => {
                if !flattened && (h != 1 || w != 1) {
                    return Err(CompileError::NotACritic("dense before flatten"));
                }
                let in_dim = layer.usize_attr("in_dim")?;
                let out_dim = layer.usize_attr("out_dim")?;
                if in_dim != flat {
                    return Err(CompileError::NotACritic("dense input size mismatch"));
                }
                let raw = layer.tensor("w")?.as_slice();
                let q = PerChannelQuantized::quantize(in_dim, out_dim, raw)?;
                let deq = q.dequantize();
                let member = OpMember {
                    pack: PackedI8::pack(in_dim, out_dim, &q.values),
                    w_scales: q.scales,
                    bias: layer.tensor("b")?.as_slice().to_vec(),
                    alpha: fused_next,
                    in_scale: 1.0,
                    deq,
                };
                if fused_next.is_some() {
                    i += 1;
                }
                ops.push(FusedOp::Dense {
                    in_dim,
                    out_dim,
                    members: vec![member],
                });
                flat = out_dim;
                c = out_dim;
                flattened = true;
            }
            other => return Err(CompileError::UnsupportedLayer(other.to_string())),
        }
        i += 1;
    }
    if flat != 1 {
        return Err(CompileError::NotACritic("output is not a scalar"));
    }
    Ok(ops)
}

impl Int8Ensemble {
    /// Compiles same-topology critic snapshots into the fused int8
    /// representation, calibrating activation scales on `calibration`
    /// (flat `n × h·w·c` representative windows, at least one).
    ///
    /// # Errors
    ///
    /// Everything [`crate::LiteCritic::compile`] rejects, plus
    /// [`CompileError::NotACritic`] when members disagree on topology and
    /// [`CompileError::Quant`] when weights or calibration activations
    /// are non-finite.
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
        let input_len = input_shape.0 * input_shape.1 * input_shape.2;
        assert!(
            !calibration.is_empty() && calibration.len().is_multiple_of(input_len),
            "calibration must be a non-empty whole number of windows"
        );

        // Parse every member and merge into the fused per-op layout.
        let mut ops = parse_member(snaps[0], input_shape)?;
        for snap in &snaps[1..] {
            let member_ops = parse_member(snap, input_shape)?;
            if member_ops.len() != ops.len()
                || member_ops
                    .iter()
                    .zip(&ops)
                    .any(|(a, b)| a.signature() != b.signature())
            {
                return Err(CompileError::NotACritic(
                    "members disagree on topology — fuse per topology group",
                ));
            }
            for (fused, mut single) in ops.iter_mut().zip(member_ops) {
                fused.members_mut().append(single.members_mut());
            }
        }

        let mut weights = Int8Weights {
            ops,
            members: snaps.len(),
            input_len,
        };
        weights.calibrate(calibration)?;
        // Calibration done — drop the dequantized float copies.
        for op in &mut weights.ops {
            for m in op.members_mut() {
                m.deq = Vec::new();
                m.deq.shrink_to_fit();
            }
        }
        let scratch = weights.new_scratch();
        Ok(Int8Ensemble { weights, scratch })
    }

    /// The shareable weights alone, for callers that hand each scoring
    /// thread its own [`Int8Weights::new_scratch`].
    pub fn into_weights(self) -> Int8Weights {
        self.weights
    }

    /// Anomaly scores `s(x) = −D(x)` for a batch through a member subset
    /// on this ensemble's own scratch — see
    /// [`Int8Weights::score_subset_into`].
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
        self.weights
            .score_subset_into(&mut self.scratch, subset, windows, n, out);
    }

    /// Convenience: anomaly scores for all members, member-major.
    pub fn score_all(&mut self, windows: &[f32], n: usize) -> Vec<f32> {
        let subset: Vec<usize> = (0..self.weights.members).collect();
        let mut out = vec![0.0f32; subset.len() * n];
        self.score_subset_into(&subset, windows, n, &mut out);
        out
    }
}

impl Int8Weights {
    /// Runs the dequantized float reference over the calibration windows,
    /// recording each member's per-layer input activation *floor* scale
    /// (the runtime range guard widens it for out-of-range windows). The
    /// reference is the f32 scoring kernel on the dequantized weights: a
    /// conv reads each window from a zero-bordered float plane, the
    /// mirror of the int8 one.
    fn calibrate(&mut self, calibration: &[f32]) -> Result<(), CompileError> {
        let n = calibration.len() / self.input_len;
        for g in 0..self.members {
            let mut act = calibration.to_vec();
            for oi in 0..self.ops.len() {
                let scale = activation_scale(&act)?;
                let op = &self.ops[oi];
                let m = &op.members()[g];
                let mut layer = FusedF32 {
                    spans: 1,
                    span_len: op.kk(),
                    w: &m.deq,
                    bias: &m.bias,
                    alpha: m.alpha,
                };
                let mut out = vec![0.0f32; n * op.out_len()];
                let to = Patches::matrix(m.bias.len());
                match op {
                    FusedOp::Conv {
                        h,
                        w,
                        cin,
                        kh,
                        kw,
                        pad_top,
                        pad_left,
                        ..
                    } => {
                        (layer.spans, layer.span_len) = (*kh, kw * cin);
                        let (row, stride) = (w * cin, (w + kw - 1) * cin);
                        let mut plane = vec![0.0f32; (h + kh - 1) * stride];
                        let windows = act.chunks_exact(op.in_len());
                        for (window, dst) in windows.zip(out.chunks_exact_mut(op.out_len())) {
                            for (y, line) in window.chunks_exact(row).enumerate() {
                                let at = (y + pad_top) * stride + pad_left * cin;
                                plane[at..at + row].copy_from_slice(line);
                            }
                            gemm_f32_fused(op.rows(), &plane, op.patches(), layer, dst, to);
                        }
                    }
                    FusedOp::Dense { .. } => {
                        gemm_f32_fused(n, &act, op.patches(), layer, &mut out, to);
                    }
                }
                self.ops[oi].members_mut()[g].in_scale = scale;
                act = out;
            }
        }
        Ok(())
    }

    /// Number of compiled members.
    pub fn members(&self) -> usize {
        self.members
    }

    /// Number of fused ops (layers after activation fusion).
    pub fn num_ops(&self) -> usize {
        self.ops.len()
    }

    /// Compiled input length per snapshot.
    pub fn input_len(&self) -> usize {
        self.input_len
    }

    /// Total packed int8 weight bytes across all members (the deployable
    /// artifact size).
    pub fn weight_bytes(&self) -> usize {
        self.ops
            .iter()
            .flat_map(|op| op.members().iter().map(|m| m.pack.packed_bytes()))
            .sum()
    }

    /// A scratch sized for these weights; give each scoring thread one.
    pub fn new_scratch(&self) -> Scratch {
        Scratch::for_ops(&self.ops)
    }

    /// Anomaly scores `s(x) = −D(x)` for a batch through a member subset.
    ///
    /// `windows` holds `n` flat snapshots; `out` receives member-major
    /// results: `out[s·n + i]` is subset member `s`'s score on snapshot
    /// `i`. Members go one after another so each one's packed weights
    /// stay cache-hot across the batch; within a member every window
    /// runs all layers back to back (see the module docs). A window's
    /// score depends on that window and member alone, so any split of a
    /// batch's rows over threads (one `scratch` each) scores bitwise what
    /// one call over the whole batch does.
    ///
    /// # Panics
    ///
    /// Panics on length mismatches, an out-of-range member index, or a
    /// `scratch` made for other weights.
    pub fn score_subset_into(
        &self,
        scratch: &mut Scratch,
        subset: &[usize],
        windows: &[f32],
        n: usize,
        out: &mut [f32],
    ) {
        assert_eq!(windows.len(), n * self.input_len, "windows length mismatch");
        assert_eq!(out.len(), subset.len() * n, "output length mismatch");
        assert!(scratch.fits(&self.ops), "scratch made for other weights");
        for &g in subset {
            assert!(g < self.members, "member {g} out of range");
        }
        if n == 0 {
            return;
        }
        for (&g, member_out) in subset.iter().zip(out.chunks_exact_mut(n)) {
            for (window, o) in windows.chunks_exact(self.input_len).zip(member_out) {
                *o = -infer_window(&self.ops, g, scratch, window);
            }
        }
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
        assert_eq!(
            a.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            b.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn topology_mismatch_is_rejected() {
        let a = build_critic(4, 1).save();
        let b = build_critic(5, 2).save();
        let calibration = random_windows(4, 1);
        let err = Int8Ensemble::compile(&[&a, &b], (H, W, 1), &calibration).unwrap_err();
        assert!(matches!(err, CompileError::NotACritic(_)), "{err}");
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
        let text = format!("{fused:?}");
        assert!(text.contains("2 members"), "{text}");
        assert!(fused.weights.weight_bytes() > 0);
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
        let mut ops = fused.weights.ops.iter();
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
            let m = &ops.next().unwrap().members()[g];
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

        #[test]
        fn fused_walk_is_bitwise_the_scalar_reference(
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
            for (s, &g) in subset.iter().enumerate() {
                for (i, window) in windows.chunks_exact(len).enumerate() {
                    let want = -reference_infer(&fused, &snaps[g], g, (h, w), window);
                    prop_assert_eq!(
                        got[s * n + i].to_bits(), want.to_bits(),
                        "member {} window {} (kind {}): fused {} vs reference {}",
                        g, i, kinds[i], got[s * n + i], want
                    );
                }
            }
        }
    }
}
