//! The compiled lightweight critic: fused, quantized, allocation-free
//! single-snapshot inference.
//!
//! This is the TensorFlow-Lite substitute of Fig 8b. Compilation performs
//! the optimizations an OBU deployment converter would:
//!
//! - **int8 weight quantization** (per-tensor symmetric) — compute uses
//!   the dequantized values, so scores carry exactly the quantization
//!   error of the int8 representation;
//! - **weight re-layout** — conv kernels are stored `[oc][ky][kw·ic]` and
//!   dense weights `[out][in]`, turning every inner loop into a
//!   contiguous dot product;
//! - **op fusion** — conv + LeakyReLU execute as one kernel;
//! - **static arenas** — per-inference scoring allocates nothing.

use crate::quant::{QuantError, QuantizedWeights};
use std::fmt;
use vehigan_tensor::serialize::{ModelFormatError, ModelSnapshot};
use vehigan_tensor::Sequential;

/// Error compiling a model into a lite critic.
#[derive(Debug)]
pub enum CompileError {
    /// The model contains a layer the lite runtime does not support.
    UnsupportedLayer(String),
    /// The model format itself was invalid.
    Format(ModelFormatError),
    /// The model topology is not a critic (must end in a scalar).
    NotACritic(&'static str),
    /// Weight quantization failed (non-finite weights).
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

/// Fused activation applied inside a kernel.
#[derive(Debug, Clone, Copy, PartialEq)]
enum FusedActivation {
    None,
    LeakyRelu(f32),
}

impl FusedActivation {
    #[inline]
    fn apply(self, x: f32) -> f32 {
        match self {
            FusedActivation::None => x,
            FusedActivation::LeakyRelu(alpha) => {
                if x >= 0.0 {
                    x
                } else {
                    alpha * x
                }
            }
        }
    }
}

/// One compiled op.
enum LiteOp {
    /// Same-padding conv `[h, w, cin] → [h, w, cout]`, fused activation.
    /// `kernels` keeps the `[ky·kw·ic, oc]` layout so the inner loop
    /// accumulates across the contiguous `oc` lane (SIMD-friendly
    /// independent adds).
    Conv {
        h: usize,
        w: usize,
        cin: usize,
        cout: usize,
        kh: usize,
        kw: usize,
        pad_top: usize,
        pad_left: usize,
        kernels: Vec<f32>,
        bias: Vec<f32>,
        activation: FusedActivation,
        /// int8 master copy (the deployable artifact; `kernels` is its
        /// dequantization).
        quantized: QuantizedWeights,
    },
    /// Dense `in → out`, weights `[out][in]` (transposed), fused
    /// activation.
    Dense {
        in_dim: usize,
        out_dim: usize,
        weights: Vec<f32>,
        bias: Vec<f32>,
        activation: FusedActivation,
        quantized: QuantizedWeights,
    },
}

impl LiteOp {
    fn out_len(&self) -> usize {
        match self {
            LiteOp::Conv { h, w, cout, .. } => h * w * cout,
            LiteOp::Dense { out_dim, .. } => *out_dim,
        }
    }
}

/// Dot product with 8 independent accumulators so the float reduction
/// vectorizes (a plain `acc += x·y` loop is a serial dependency chain the
/// compiler must not reorder).
#[inline]
fn dot(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = [0.0f32; 8];
    let chunks = a.len() / 8;
    for i in 0..chunks {
        let ai = &a[i * 8..i * 8 + 8];
        let bi = &b[i * 8..i * 8 + 8];
        for j in 0..8 {
            acc[j] += ai[j] * bi[j];
        }
    }
    let mut sum: f32 = acc.iter().sum();
    for i in chunks * 8..a.len() {
        sum += a[i] * b[i];
    }
    sum
}

/// `out[j] += a · w[j]` over a contiguous lane (vectorizable).
#[inline]
fn axpy(out: &mut [f32], a: f32, w: &[f32]) {
    debug_assert_eq!(out.len(), w.len());
    for (o, &wv) in out.iter_mut().zip(w) {
        *o += a * wv;
    }
}

/// A compiled lightweight critic.
///
/// # Examples
///
/// ```
/// use vehigan_tensor::{Sequential, Init, init::seeded_rng};
/// use vehigan_tensor::layers::{Conv2D, Padding, Activation, Flatten, Dense};
/// use vehigan_lite::LiteCritic;
///
/// let mut rng = seeded_rng(0);
/// let mut critic = Sequential::new();
/// critic.push(Conv2D::new(1, 8, (2, 2), Padding::Same, Init::HeUniform, &mut rng));
/// critic.push(Activation::leaky_relu(0.2));
/// critic.push(Flatten::new());
/// critic.push(Dense::new(10 * 12 * 8, 1, Init::XavierUniform, &mut rng));
///
/// let mut lite = LiteCritic::compile(&critic, (10, 12, 1))?;
/// let window = vec![0.0f32; 120];
/// let score = lite.score(&window); // anomaly score −D(x)
/// assert!(score.is_finite());
/// # Ok::<(), vehigan_lite::CompileError>(())
/// ```
pub struct LiteCritic {
    ops: Vec<LiteOp>,
    input_len: usize,
    arena_a: Vec<f32>,
    arena_b: Vec<f32>,
}

impl fmt::Debug for LiteCritic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "LiteCritic({} fused ops, input {} floats, arena {} floats, {} int8 weight bytes)",
            self.ops.len(),
            self.input_len,
            self.arena_a.len(),
            self.weight_bytes(),
        )
    }
}

impl LiteCritic {
    /// Compiles a float critic into the lite representation.
    ///
    /// `input_shape` is the snapshot shape `(h, w, c)` (e.g. `(10, 12, 1)`).
    ///
    /// # Errors
    ///
    /// Returns an error if the model uses layers beyond
    /// Conv2D(same)/LeakyReLU/Flatten/Dense or does not end in a scalar.
    pub fn compile(
        model: &Sequential,
        input_shape: (usize, usize, usize),
    ) -> Result<Self, CompileError> {
        Self::compile_snapshot(&model.save(), input_shape)
    }

    /// Compiles from a serialized snapshot (the deployment path: trained
    /// critics arrive at the OBU as model files).
    ///
    /// # Errors
    ///
    /// See [`LiteCritic::compile`].
    pub fn compile_snapshot(
        snap: &ModelSnapshot,
        input_shape: (usize, usize, usize),
    ) -> Result<Self, CompileError> {
        let (h, w, mut c) = input_shape;
        let mut flat = h * w * c;
        let mut flattened = false;
        let mut ops: Vec<LiteOp> = Vec::new();
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
                            "Conv2D(valid) — lite critics use same padding".into(),
                        ));
                    }
                    if cin != c {
                        return Err(CompileError::NotACritic("conv channel mismatch"));
                    }
                    // Source layout [ky·kw·ic, oc] is kept: inference
                    // accumulates across the contiguous `oc` lane.
                    let raw = layer.tensor("w")?.as_slice();
                    let quantized = QuantizedWeights::quantize(raw)?;
                    let kernels = quantized.dequantize();
                    let bias = layer.tensor("b")?.as_slice().to_vec();
                    let activation = match fused_next {
                        Some(alpha) => {
                            i += 1;
                            FusedActivation::LeakyRelu(alpha)
                        }
                        None => FusedActivation::None,
                    };
                    ops.push(LiteOp::Conv {
                        h,
                        w,
                        cin,
                        cout,
                        kh,
                        kw,
                        pad_top: (kh - 1) / 2,
                        pad_left: (kw - 1) / 2,
                        kernels,
                        bias,
                        activation,
                        quantized,
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
                    let quantized = QuantizedWeights::quantize(raw)?;
                    let deq = quantized.dequantize();
                    // Transpose [in, out] → [out][in].
                    let mut weights = vec![0.0f32; in_dim * out_dim];
                    for r in 0..in_dim {
                        for j in 0..out_dim {
                            weights[j * in_dim + r] = deq[r * out_dim + j];
                        }
                    }
                    let bias = layer.tensor("b")?.as_slice().to_vec();
                    let activation = match fused_next {
                        Some(alpha) => {
                            i += 1;
                            FusedActivation::LeakyRelu(alpha)
                        }
                        None => FusedActivation::None,
                    };
                    ops.push(LiteOp::Dense {
                        in_dim,
                        out_dim,
                        weights,
                        bias,
                        activation,
                        quantized,
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
        let arena = ops
            .iter()
            .map(LiteOp::out_len)
            .max()
            .unwrap_or(1)
            .max(input_shape.0 * input_shape.1 * input_shape.2);
        Ok(LiteCritic {
            ops,
            input_len: input_shape.0 * input_shape.1 * input_shape.2,
            arena_a: vec![0.0; arena],
            arena_b: vec![0.0; arena],
        })
    }

    /// Number of compiled (fused) ops.
    pub fn num_ops(&self) -> usize {
        self.ops.len()
    }

    /// Size of the int8 weight representation in bytes (the deployable
    /// artifact — Fig 8b's "lightweight" models are also smaller).
    pub fn weight_bytes(&self) -> usize {
        self.ops
            .iter()
            .map(|op| match op {
                LiteOp::Conv { quantized, .. } | LiteOp::Dense { quantized, .. } => {
                    quantized.values.len()
                }
            })
            .sum()
    }

    /// Raw critic output `D(x)` for one flat snapshot (row-major
    /// `h × w × c`). Allocation-free after compilation.
    ///
    /// # Panics
    ///
    /// Panics if `window.len()` differs from the compiled input size.
    pub fn infer(&mut self, window: &[f32]) -> f32 {
        assert_eq!(window.len(), self.input_len, "input length mismatch");
        self.arena_a[..window.len()].copy_from_slice(window);
        let mut src_is_a = true;
        for op in &self.ops {
            let (src, dst) = if src_is_a {
                (&self.arena_a[..], &mut self.arena_b)
            } else {
                (&self.arena_b[..], &mut self.arena_a)
            };
            match op {
                LiteOp::Conv {
                    h,
                    w,
                    cin,
                    cout,
                    kh,
                    kw,
                    pad_top,
                    pad_left,
                    kernels,
                    bias,
                    activation,
                    ..
                } => {
                    let (h, w, cin, cout, kh, kw) = (*h, *w, *cin, *cout, *kh, *kw);
                    for oy in 0..h {
                        let ky_lo = pad_top.saturating_sub(oy);
                        let ky_hi = kh.min(h + pad_top - oy);
                        for ox in 0..w {
                            let kx_lo = pad_left.saturating_sub(ox);
                            let kx_hi = kw.min(w + pad_left - ox);
                            let out_base = (oy * w + ox) * cout;
                            let out_row = &mut dst[out_base..out_base + cout];
                            out_row.copy_from_slice(bias);
                            for ky in ky_lo..ky_hi {
                                let iy = oy + ky - pad_top;
                                for kx in kx_lo..kx_hi {
                                    let ix = ox + kx - pad_left;
                                    let in_off = (iy * w + ix) * cin;
                                    let w_base = (ky * kw + kx) * cin * cout;
                                    for ic in 0..cin {
                                        let a = src[in_off + ic];
                                        let w_off = w_base + ic * cout;
                                        axpy(out_row, a, &kernels[w_off..w_off + cout]);
                                    }
                                }
                            }
                            for v in out_row.iter_mut() {
                                *v = activation.apply(*v);
                            }
                        }
                    }
                }
                LiteOp::Dense {
                    in_dim,
                    out_dim,
                    weights,
                    bias,
                    activation,
                    ..
                } => {
                    for j in 0..*out_dim {
                        let row = &weights[j * in_dim..(j + 1) * in_dim];
                        let acc = bias[j] + dot(&src[..*in_dim], row);
                        dst[j] = activation.apply(acc);
                    }
                }
            }
            src_is_a = !src_is_a;
        }
        if src_is_a {
            self.arena_a[0]
        } else {
            self.arena_b[0]
        }
    }

    /// Anomaly score `s(x) = −D(x)` for one flat snapshot.
    ///
    /// # Panics
    ///
    /// Panics if `window.len()` differs from the compiled input size.
    pub fn score(&mut self, window: &[f32]) -> f32 {
        -self.infer(window)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vehigan_tensor::init::{rand_uniform, seeded_rng};
    use vehigan_tensor::layers::{Activation, Conv2D, Dense, Flatten, Padding};
    use vehigan_tensor::{Init, Tensor};

    fn sample_critic(seed: u64, convs: usize) -> Sequential {
        let mut rng = seeded_rng(seed);
        let mut m = Sequential::new();
        let mut cin = 1;
        for i in 0..convs {
            let cout = (8 << i).min(32);
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
        m.push(Dense::new(10 * 12 * cin, 1, Init::XavierUniform, &mut rng));
        m
    }

    #[test]
    fn compiles_and_fuses() {
        let critic = sample_critic(0, 3);
        let lite = LiteCritic::compile(&critic, (10, 12, 1)).unwrap();
        // 3 fused convs + 1 dense = 4 ops (activations absorbed).
        assert_eq!(lite.num_ops(), 4);
        assert!(lite.weight_bytes() > 0);
    }

    #[test]
    fn lite_matches_float_critic_closely() {
        let mut critic = sample_critic(1, 2);
        let mut lite = LiteCritic::compile(&critic, (10, 12, 1)).unwrap();
        let mut rng = seeded_rng(2);
        for _ in 0..10 {
            let x = rand_uniform(&[1, 10, 12, 1], -1.0, 1.0, &mut rng);
            let float_out = critic.forward(&x).as_slice()[0];
            let lite_out = lite.infer(x.as_slice());
            let denom = float_out.abs().max(1.0);
            assert!(
                (float_out - lite_out).abs() / denom < 0.05,
                "float {float_out} vs lite {lite_out}"
            );
        }
    }

    #[test]
    fn lite_with_3x3_kernels_matches_float() {
        // 3×3 same-padding exercises the top/left padding path
        // (pad_top = 1), unlike the paper's 2×2 kernels.
        let mut rng = seeded_rng(31);
        let mut critic = Sequential::new();
        critic.push(Conv2D::new(
            1,
            4,
            (3, 3),
            Padding::Same,
            Init::HeUniform,
            &mut rng,
        ));
        critic.push(Activation::leaky_relu(0.2));
        critic.push(Flatten::new());
        critic.push(Dense::new(10 * 12 * 4, 1, Init::XavierUniform, &mut rng));
        let mut lite = LiteCritic::compile(&critic, (10, 12, 1)).unwrap();
        let x = rand_uniform(&[1, 10, 12, 1], -1.0, 1.0, &mut rng);
        let float_out = critic.forward(&x).as_slice()[0];
        let lite_out = lite.infer(x.as_slice());
        assert!(
            (float_out - lite_out).abs() / float_out.abs().max(1.0) < 0.05,
            "float {float_out} vs lite {lite_out}"
        );
    }

    #[test]
    fn lite_preserves_score_ordering() {
        // Quantization must not reorder scores across a meaningful gap —
        // the property that keeps AUROC intact (Fig 8's implicit claim).
        let mut critic = sample_critic(3, 3);
        let mut lite = LiteCritic::compile(&critic, (10, 12, 1)).unwrap();
        let mut rng = seeded_rng(4);
        let xs: Vec<Tensor> = (0..20)
            .map(|_| rand_uniform(&[1, 10, 12, 1], -1.0, 1.0, &mut rng))
            .collect();
        let float_scores: Vec<f32> = xs
            .iter()
            .map(|x| -critic.forward(x).as_slice()[0])
            .collect();
        let lite_scores: Vec<f32> = xs.iter().map(|x| lite.score(x.as_slice())).collect();
        let mut agree = 0;
        let mut pairs = 0;
        for i in 0..20 {
            for j in 0..20 {
                if float_scores[i] > float_scores[j] + 0.05 {
                    pairs += 1;
                    if lite_scores[i] > lite_scores[j] {
                        agree += 1;
                    }
                }
            }
        }
        assert!(pairs > 0);
        assert_eq!(
            agree,
            pairs,
            "quantization reordered {}/{pairs} pairs",
            pairs - agree
        );
    }

    #[test]
    fn score_is_negative_infer() {
        let critic = sample_critic(5, 1);
        let mut lite = LiteCritic::compile(&critic, (10, 12, 1)).unwrap();
        let x = vec![0.1f32; 120];
        assert_eq!(lite.score(&x), -lite.infer(&x));
    }

    #[test]
    fn compile_from_snapshot_bytes() {
        let critic = sample_critic(6, 2);
        let bytes = critic.to_bytes();
        let snap = ModelSnapshot::from_bytes(&bytes).unwrap();
        let mut lite = LiteCritic::compile_snapshot(&snap, (10, 12, 1)).unwrap();
        assert!(lite.infer(&vec![0.0; 120]).is_finite());
    }

    #[test]
    fn rejects_generator_topologies() {
        let mut rng = seeded_rng(7);
        let mut g = Sequential::new();
        g.push(Dense::new(8, 60, Init::HeUniform, &mut rng));
        g.push(vehigan_tensor::layers::Reshape::new(&[5, 6, 2]));
        let err = LiteCritic::compile(&g, (1, 1, 8));
        assert!(matches!(
            err,
            Err(CompileError::UnsupportedLayer(_)) | Err(CompileError::NotACritic(_))
        ));
    }

    #[test]
    #[should_panic(expected = "input length mismatch")]
    fn wrong_input_length_panics() {
        let critic = sample_critic(8, 1);
        let mut lite = LiteCritic::compile(&critic, (10, 12, 1)).unwrap();
        let _ = lite.infer(&[0.0; 64]);
    }

    #[test]
    fn error_display_is_informative() {
        let e = CompileError::UnsupportedLayer("Tanh".into());
        assert!(e.to_string().contains("Tanh"));
    }
}
