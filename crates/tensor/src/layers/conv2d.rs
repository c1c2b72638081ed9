//! 2-D convolution layer (NHWC, stride 1) via im2col.
//!
//! The VehiGAN discriminator and generator are 2-D CNNs over `w × f` BSM
//! snapshots (window length × feature count) with 2×2 kernels and LeakyReLU
//! activations (paper §IV-A.1). Snapshots are laid out `[batch, height,
//! width, channels]` with `height = w` (time) and `width = f` (features).

use crate::gemm::{gemm_f32_fused, FusedF32, Patches};
use crate::layer::{FusedView, Layer, Param};
use crate::serialize::LayerSnapshot;
use crate::{Init, Tensor};
use rand::rngs::StdRng;

/// Spatial padding mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Padding {
    /// Zero-pad so the output spatial size equals the input size.
    Same,
    /// No padding; output shrinks by `kernel − 1`.
    Valid,
}

impl Padding {
    fn tag(self) -> usize {
        match self {
            Padding::Same => 0,
            Padding::Valid => 1,
        }
    }

    fn from_tag(tag: usize) -> Result<Self, crate::serialize::ModelFormatError> {
        match tag {
            0 => Ok(Padding::Same),
            1 => Ok(Padding::Valid),
            _ => Err(crate::serialize::ModelFormatError::Corrupt(
                "bad padding tag",
            )),
        }
    }
}

/// A stride-1 2-D convolution over NHWC tensors.
///
/// Weights are stored as a `[kh·kw·cin, cout]` matrix so both passes reduce
/// to matrix multiplication against the im2col expansion of the input.
///
/// # Examples
///
/// ```
/// use vehigan_tensor::{layers::{Conv2D, Padding}, layer::Layer, Tensor, Init, init::seeded_rng};
///
/// let mut rng = seeded_rng(0);
/// let mut conv = Conv2D::new(1, 8, (2, 2), Padding::Same, Init::HeUniform, &mut rng);
/// let x = Tensor::zeros(&[4, 10, 12, 1]); // batch of 10×12 single-channel snapshots
/// assert_eq!(conv.forward(&x).shape(), &[4, 10, 12, 8]);
/// ```
#[derive(Debug)]
pub struct Conv2D {
    cin: usize,
    cout: usize,
    kh: usize,
    kw: usize,
    padding: Padding,
    w: Param,
    b: Param,
    cached_input_shape: Option<[usize; 4]>,
    cached_cols: Vec<f32>,
    cached_out: Option<Vec<f32>>,
}

impl Conv2D {
    /// Creates a convolution with `kernel = (kh, kw)` and the given padding.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    pub fn new(
        cin: usize,
        cout: usize,
        kernel: (usize, usize),
        padding: Padding,
        init: Init,
        rng: &mut StdRng,
    ) -> Self {
        let (kh, kw) = kernel;
        assert!(
            cin > 0 && cout > 0 && kh > 0 && kw > 0,
            "conv dims must be nonzero"
        );
        let fan_in = kh * kw * cin;
        let fan_out = kh * kw * cout;
        let w = init.sample(&[fan_in, cout], fan_in, fan_out, rng);
        Conv2D {
            cin,
            cout,
            kh,
            kw,
            padding,
            w: Param::new(w),
            b: Param::new(Tensor::zeros(&[cout])),
            cached_input_shape: None,
            cached_cols: Vec::new(),
            cached_out: None,
        }
    }

    /// Reconstructs a convolution from a snapshot.
    ///
    /// # Errors
    ///
    /// Returns an error if required fields are missing or the padding tag is
    /// invalid.
    pub fn from_snapshot(snap: &LayerSnapshot) -> Result<Self, crate::serialize::ModelFormatError> {
        let cin = snap.usize_attr("cin")?;
        let cout = snap.usize_attr("cout")?;
        let kh = snap.usize_attr("kh")?;
        let kw = snap.usize_attr("kw")?;
        let padding = Padding::from_tag(snap.usize_attr("padding")?)?;
        let w = snap.tensor("w")?.clone();
        let b = snap.tensor("b")?.clone();
        Ok(Conv2D {
            cin,
            cout,
            kh,
            kw,
            padding,
            w: Param::new(w),
            b: Param::new(b),
            cached_input_shape: None,
            cached_cols: Vec::new(),
            cached_out: None,
        })
    }

    fn pad_offsets(&self) -> (usize, usize) {
        match self.padding {
            // Keras-style SAME for stride 1: pad_total = k − 1, extra on the
            // bottom/right; top/left gets floor((k − 1) / 2).
            Padding::Same => ((self.kh - 1) / 2, (self.kw - 1) / 2),
            Padding::Valid => (0, 0),
        }
    }

    fn out_spatial(&self, h: usize, w: usize) -> (usize, usize) {
        match self.padding {
            Padding::Same => (h, w),
            Padding::Valid => {
                assert!(
                    h >= self.kh && w >= self.kw,
                    "valid conv: input {h}×{w} smaller than kernel {}×{}",
                    self.kh,
                    self.kw
                );
                (h - self.kh + 1, w - self.kw + 1)
            }
        }
    }

    /// Calls `span(col_offset, input_offset, len)` for every run of im2col
    /// elements that is contiguous in both buffers: for one output
    /// pixel and one kernel row `ky`, the `kx` taps that fall inside the
    /// input are side by side in the im2col row (`[ky][kx][c]`) and in the
    /// input row (`[ix][c]`), so they move as one `len = taps·c` span.
    /// Pixels go in `(n, oy, ox)` order and `ky` ascending within a pixel —
    /// the order the per-tap loops this replaces visited, which is the
    /// order `col2im` adds in.
    fn for_each_span(
        &self,
        (n, h, w, c): (usize, usize, usize, usize),
        mut span: impl FnMut(usize, usize, usize),
    ) {
        let (ho, wo) = self.out_spatial(h, w);
        let (pt, pl) = self.pad_offsets();
        let cols_w = self.kh * self.kw * c;
        let mut row = 0usize;
        for ni in 0..n {
            for oy in 0..ho {
                // Kernel rows whose input row `oy + ky − pt` exists.
                let (ky0, ky1) = (pt.saturating_sub(oy), self.kh.min(h + pt - oy));
                for ox in 0..wo {
                    // Likewise the taps of a kernel row.
                    let (kx0, kx1) = (pl.saturating_sub(ox), self.kw.min(w + pl - ox));
                    for ky in ky0..ky1 {
                        span(
                            row * cols_w + (ky * self.kw + kx0) * c,
                            ((ni * h + oy + ky - pt) * w + ox + kx0 - pl) * c,
                            (kx1 - kx0) * c,
                        );
                    }
                    row += 1;
                }
            }
        }
    }

    /// Expands the NHWC windows `data` (`dims`) into their im2col matrix
    /// `[n·ho·wo, kh·kw·cin]`, overwriting all of `cols`, which must be
    /// exactly that long: the spans arrive in increasing column offset, so
    /// what lies between two of them is padding and is zeroed here rather
    /// than by a fill of the whole buffer first.
    fn im2col_into(&self, data: &[f32], dims: (usize, usize, usize, usize), cols: &mut [f32]) {
        let mut filled = 0usize;
        self.for_each_span(dims, |col, src, len| {
            if filled < col {
                cols[filled..col].fill(0.0);
            }
            cols[col..col + len].copy_from_slice(&data[src..src + len]);
            filled = col + len;
        });
        cols[filled..].fill(0.0);
    }

    /// Scatter-adds the column gradients `g` of `n` windows into their
    /// input-shaped gradients `grad`, which the caller has zeroed.
    fn col2im(&self, g: &[f32], dims: (usize, usize, usize, usize), grad: &mut [f32]) {
        self.for_each_span(dims, |col, dst, len| {
            for (acc, &v) in grad[dst..dst + len].iter_mut().zip(&g[col..col + len]) {
                *acc += v;
            }
        });
    }
}

/// Most im2col rows [`Conv2D`] expands and multiplies (forward), or forms
/// of `dY · Wᵀ` and scatters (input gradient), at once: a training batch
/// of the paper's 10 × 12 windows is one block, and an attack's hundreds
/// of windows go through the products in cache-sized pieces.
const BLOCK_ROWS: usize = 2048;

fn dims4(t: &Tensor) -> (usize, usize, usize, usize) {
    assert_eq!(
        t.ndim(),
        4,
        "conv expects NHWC 4-D input, got {:?}",
        t.shape()
    );
    let s = t.shape();
    (s[0], s[1], s[2], s[3])
}

impl Layer for Conv2D {
    fn forward(&mut self, input: &Tensor) -> Tensor {
        let (n, h, w, c) = dims4(input);
        assert_eq!(c, self.cin, "conv cin {} vs input channels {c}", self.cin);
        let (ho, wo) = self.out_spatial(h, w);
        let rows = n * ho * wo;
        let cols_w = self.kh * self.kw * c;
        // Both buffers are reused across steps once shapes settle and are
        // overwritten whole: the im2col matrix, and the output, served from
        // the reclaim cache (see `Layer::reclaim`) — the fused sweep writes
        // `patch · W + b` over whatever it held.
        let mut cols = std::mem::take(&mut self.cached_cols);
        cols.resize(rows * cols_w, 0.0);
        let mut out = self.cached_out.take().unwrap_or_default();
        out.resize(rows * self.cout, 0.0);
        // A block of whole windows at a time, so the product reads the
        // patches it has just expanded while they are in cache; rows are
        // independent, so the blocks are the one call.
        let block = (BLOCK_ROWS / (ho * wo)).max(1);
        let layer = FusedF32 {
            spans: 1,
            span_len: cols_w,
            w: self.w.value.as_slice(),
            bias: self.b.value.as_slice(),
            alpha: None,
        };
        let blocks = input.as_slice().chunks(block * h * w * c);
        let buffers = cols
            .chunks_mut(block * ho * wo * cols_w)
            .zip(out.chunks_mut(block * ho * wo * self.cout));
        for (x, (cols, out)) in blocks.zip(buffers) {
            let n = x.len() / (h * w * c);
            self.im2col_into(x, (n, h, w, c), cols);
            let (a, to) = (Patches::matrix(cols_w), Patches::matrix(self.cout));
            gemm_f32_fused(n * ho * wo, cols, a, layer, out, to);
        }
        self.cached_input_shape = Some([n, h, w, c]);
        self.cached_cols = cols;
        Tensor::from_vec(out, &[n, ho, wo, self.cout])
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        self.backward_params(grad_out);
        self.backward_input(grad_out)
    }

    fn backward_params(&mut self, grad_out: &Tensor) {
        assert!(
            self.cached_input_shape.is_some(),
            "Conv2D::backward called before forward"
        );
        // grad_out is contiguous row-major, so its data already *is* the
        // [rows, cout] matrix — no reshape copy needed.
        let g = grad_out.as_slice();
        // dW += colsᵀ · dY, accumulated straight into w.grad (gemm_tn is
        // bitwise identical to the historical transpose-then-matmul).
        crate::gemm::gemm_tn(
            self.kh * self.kw * self.cin,
            self.cout,
            g.len() / self.cout,
            &self.cached_cols,
            g,
            self.w.grad.as_mut_slice(),
        );
        let gb = self.b.grad.as_mut_slice();
        for row in g.chunks_exact(self.cout) {
            for (acc, &v) in gb.iter_mut().zip(row) {
                *acc += v;
            }
        }
    }

    fn backward_input(&mut self, grad_out: &Tensor) -> Tensor {
        thread_local! {
            static GRAD_COLS: std::cell::RefCell<Vec<f32>> =
                const { std::cell::RefCell::new(Vec::new()) };
        }
        let [n, h, w, c] = self
            .cached_input_shape
            .expect("Conv2D::backward called before forward");
        let (ho, wo) = self.out_spatial(h, w);
        let cols_w = self.kh * self.kw * self.cin;
        let mut grad = vec![0.0f32; n * h * w * c];
        // grad_cols = dY · Wᵀ goes through a scratch of this thread's — not
        // the im2col buffer, which stays for a parameter pass — a block of
        // whole windows at a time: the product's rows are independent and
        // col2im's windows are, so the blocks are the one call, and every
        // layer of a walk finds the same few hundred kilobytes warm.
        let block = (BLOCK_ROWS / (ho * wo)).max(1);
        let blocks = grad_out.as_slice().chunks(block * ho * wo * self.cout);
        GRAD_COLS.with_borrow_mut(|grad_cols| {
            for (g, grad) in blocks.zip(grad.chunks_mut(block * h * w * c)) {
                let rows = g.len() / self.cout;
                // The GEMM accumulates, so from zero.
                grad_cols.clear();
                grad_cols.resize(rows * cols_w, 0.0);
                let weights = self.w.value.as_slice();
                crate::gemm::gemm_nt(rows, cols_w, self.cout, g, weights, grad_cols);
                self.col2im(grad_cols, (rows / (ho * wo), h, w, c), grad);
            }
        });
        Tensor::from_vec(grad, &[n, h, w, c])
    }

    fn reclaim(&mut self, output: Tensor) {
        self.cached_out = Some(output.into_vec());
    }

    fn fused_view(&self) -> Option<FusedView<'_>> {
        (self.padding == Padding::Same).then(|| FusedView::Conv {
            cin: self.cin,
            kh: self.kh,
            kw: self.kw,
            w: self.w.value.as_slice(),
            b: self.b.value.as_slice(),
        })
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.w, &mut self.b]
    }

    fn params(&self) -> Vec<&Param> {
        vec![&self.w, &self.b]
    }

    fn name(&self) -> &'static str {
        "Conv2D"
    }

    fn output_shape(&self, input_shape: &[usize]) -> Vec<usize> {
        assert_eq!(input_shape.len(), 3, "conv input shape must be [h, w, c]");
        assert_eq!(input_shape[2], self.cin, "conv cin mismatch");
        let (ho, wo) = self.out_spatial(input_shape[0], input_shape[1]);
        vec![ho, wo, self.cout]
    }

    fn save(&self) -> LayerSnapshot {
        LayerSnapshot::new("Conv2D")
            .with_usize("cin", self.cin)
            .with_usize("cout", self.cout)
            .with_usize("kh", self.kh)
            .with_usize("kw", self.kw)
            .with_usize("padding", self.padding.tag())
            .with_tensor("w", self.w.value.clone())
            .with_tensor("b", self.b.value.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::{finite_diff_grad, max_relative_error};
    use crate::init::{randn, seeded_rng};

    fn run_conv(conv_w: &Tensor, conv_b: &Tensor, layer_proto: &Conv2D, x: &Tensor) -> f32 {
        // Re-runs the conv as a pure function of x for gradient checking.
        let mut rng = seeded_rng(0);
        let mut conv = Conv2D::new(
            layer_proto.cin,
            layer_proto.cout,
            (layer_proto.kh, layer_proto.kw),
            layer_proto.padding,
            Init::Zeros,
            &mut rng,
        );
        conv.w.value = conv_w.clone();
        conv.b.value = conv_b.clone();
        conv.forward(x).sum()
    }

    #[test]
    fn same_padding_preserves_spatial_dims() {
        let mut rng = seeded_rng(0);
        let mut conv = Conv2D::new(1, 3, (2, 2), Padding::Same, Init::HeUniform, &mut rng);
        let x = randn(&[2, 10, 12, 1], &mut rng);
        let y = conv.forward(&x);
        assert_eq!(y.shape(), &[2, 10, 12, 3]);
    }

    #[test]
    fn valid_padding_shrinks() {
        let mut rng = seeded_rng(0);
        let mut conv = Conv2D::new(2, 4, (3, 3), Padding::Valid, Init::HeUniform, &mut rng);
        let x = randn(&[1, 8, 8, 2], &mut rng);
        let y = conv.forward(&x);
        assert_eq!(y.shape(), &[1, 6, 6, 4]);
    }

    #[test]
    fn identity_kernel_reproduces_input() {
        // 1×1 kernel with identity weights must be a per-channel passthrough.
        let mut rng = seeded_rng(0);
        let mut conv = Conv2D::new(1, 1, (1, 1), Padding::Same, Init::Zeros, &mut rng);
        conv.w.value = Tensor::from_vec(vec![1.0], &[1, 1]);
        let x = randn(&[1, 4, 5, 1], &mut rng);
        let y = conv.forward(&x);
        assert_eq!(y.as_slice(), x.as_slice());
    }

    #[test]
    fn known_2x2_valid_convolution() {
        let mut rng = seeded_rng(0);
        let mut conv = Conv2D::new(1, 1, (2, 2), Padding::Valid, Init::Zeros, &mut rng);
        conv.w.value = Tensor::from_vec(vec![1.0, 1.0, 1.0, 1.0], &[4, 1]);
        let x = Tensor::from_vec(
            vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0],
            &[1, 3, 3, 1],
        );
        // 2×2 box filter over a 3×3 ramp.
        let y = conv.forward(&x);
        assert_eq!(y.shape(), &[1, 2, 2, 1]);
        assert_eq!(y.as_slice(), &[12.0, 16.0, 24.0, 28.0]);
    }

    #[test]
    fn input_gradient_matches_finite_differences_same() {
        let mut rng = seeded_rng(7);
        let mut conv = Conv2D::new(2, 3, (2, 2), Padding::Same, Init::HeUniform, &mut rng);
        let x = randn(&[2, 4, 5, 2], &mut rng);
        let _ = conv.forward(&x);
        let analytic = conv.backward(&Tensor::ones(&[2, 4, 5, 3]));
        let w = conv.w.value.clone();
        let b = conv.b.value.clone();
        let numeric = finite_diff_grad(|xx| run_conv(&w, &b, &conv, xx), &x, 1e-2);
        assert!(max_relative_error(&analytic, &numeric) < 2e-2);
    }

    #[test]
    fn input_gradient_matches_finite_differences_valid() {
        let mut rng = seeded_rng(8);
        let mut conv = Conv2D::new(1, 2, (3, 2), Padding::Valid, Init::HeUniform, &mut rng);
        let x = randn(&[1, 6, 6, 1], &mut rng);
        let _ = conv.forward(&x);
        let analytic = conv.backward(&Tensor::ones(&[1, 4, 5, 2]));
        let w = conv.w.value.clone();
        let b = conv.b.value.clone();
        let numeric = finite_diff_grad(|xx| run_conv(&w, &b, &conv, xx), &x, 1e-2);
        assert!(max_relative_error(&analytic, &numeric) < 2e-2);
    }

    #[test]
    fn weight_gradient_matches_finite_differences() {
        let mut rng = seeded_rng(9);
        let mut conv = Conv2D::new(1, 2, (2, 2), Padding::Same, Init::HeUniform, &mut rng);
        let x = randn(&[2, 3, 4, 1], &mut rng);
        let _ = conv.forward(&x);
        let _ = conv.backward(&Tensor::ones(&[2, 3, 4, 2]));
        let analytic = conv.w.grad.clone();
        let b = conv.b.value.clone();
        let x2 = x.clone();
        let proto_cin = conv.cin;
        let proto_cout = conv.cout;
        let numeric = finite_diff_grad(
            |ww| {
                let mut rng = seeded_rng(0);
                let mut c = Conv2D::new(
                    proto_cin,
                    proto_cout,
                    (2, 2),
                    Padding::Same,
                    Init::Zeros,
                    &mut rng,
                );
                c.w.value = ww.clone();
                c.b.value = b.clone();
                c.forward(&x2).sum()
            },
            &conv.w.value,
            1e-2,
        );
        assert!(max_relative_error(&analytic, &numeric) < 2e-2);
    }

    #[test]
    fn bias_gradient_is_output_count() {
        let mut rng = seeded_rng(10);
        let mut conv = Conv2D::new(1, 2, (2, 2), Padding::Same, Init::HeUniform, &mut rng);
        let x = randn(&[3, 4, 4, 1], &mut rng);
        let _ = conv.forward(&x);
        let _ = conv.backward(&Tensor::ones(&[3, 4, 4, 2]));
        // d/db of sum over 3·4·4 outputs per channel.
        assert_eq!(conv.b.grad.as_slice(), &[48.0, 48.0]);
    }

    #[test]
    fn snapshot_roundtrip() {
        let mut rng = seeded_rng(11);
        let conv = Conv2D::new(3, 5, (2, 2), Padding::Valid, Init::HeUniform, &mut rng);
        let snap = conv.save();
        let back = Conv2D::from_snapshot(&snap).unwrap();
        assert_eq!(back.w.value, conv.w.value);
        assert_eq!(back.padding, Padding::Valid);
        assert_eq!(back.cout, 5);
    }

    #[test]
    fn reclaimed_output_buffer_changes_nothing() {
        // forward → reclaim → forward must be bitwise identical to a fresh
        // forward: the cached buffer is pure allocation reuse.
        let mut rng = seeded_rng(21);
        let mut conv = Conv2D::new(2, 3, (2, 2), Padding::Same, Init::HeUniform, &mut rng);
        let x = randn(&[2, 5, 6, 2], &mut rng);
        let first = conv.forward(&x);
        let reference = first.clone();
        conv.reclaim(first);
        let second = conv.forward(&x);
        assert_eq!(second, reference);
        // A shape change mid-stream must also be handled (buffer regrown).
        let y = randn(&[1, 7, 4, 2], &mut rng);
        assert_eq!(conv.forward(&y).shape(), &[1, 7, 4, 3]);
    }

    /// The per-tap walk `for_each_span` replaced: one `c`-element move per
    /// `(pixel, ky, kx)` that lands inside the input, as
    /// `tap(col_offset, input_offset)`.
    fn for_each_tap(
        conv: &Conv2D,
        (n, h, w, c): (usize, usize, usize, usize),
        mut tap: impl FnMut(usize, usize),
    ) {
        let (ho, wo) = conv.out_spatial(h, w);
        let (pt, pl) = conv.pad_offsets();
        let mut row = 0usize;
        for ni in 0..n {
            for oy in 0..ho {
                for ox in 0..wo {
                    for ky in 0..conv.kh {
                        let iy = oy as isize + ky as isize - pt as isize;
                        if iy < 0 || iy >= h as isize {
                            continue;
                        }
                        for kx in 0..conv.kw {
                            let ix = ox as isize + kx as isize - pl as isize;
                            if ix < 0 || ix >= w as isize {
                                continue;
                            }
                            tap(
                                (row * conv.kh * conv.kw + ky * conv.kw + kx) * c,
                                ((ni * h + iy as usize) * w + ix as usize) * c,
                            );
                        }
                    }
                    row += 1;
                }
            }
        }
    }

    #[test]
    fn span_moves_are_bitwise_the_per_tap_moves() {
        // Every kernel up to 3×3: SAME pads the smaller half of `k − 1` on
        // top and on the left, so spans are clipped on any of four sides
        // and whole kernel rows fall outside; VALID clips nothing.
        let kernels = (1..=3).flat_map(|kh| (1..=3).map(move |kw| (kh, kw)));
        for ((kh, kw), padding) in kernels.flat_map(|k| [(k, Padding::Same), (k, Padding::Valid)]) {
            let what = format!("{kh}×{kw} {padding:?}");
            let mut rng = seeded_rng(31);
            let conv = Conv2D::new(3, 2, (kh, kw), padding, Init::HeUniform, &mut rng);
            let dims = (2, 5, 4, 3);
            let x = randn(&[2, 5, 4, 3], &mut rng);
            let (ho, wo) = conv.out_spatial(5, 4);
            let cols_len = 2 * ho * wo * kh * kw * 3;

            // A dirty buffer: im2col writes its padding zeros itself.
            let mut cols = vec![f32::NAN; cols_len];
            conv.im2col_into(x.as_slice(), dims, &mut cols);
            let mut by_tap = vec![0.0f32; cols_len];
            for_each_tap(&conv, dims, |col, src| {
                by_tap[col..col + 3].copy_from_slice(&x.as_slice()[src..src + 3]);
            });
            assert_eq!(cols, by_tap, "im2col {what}");

            // Overlapping patches add into one input element several
            // times: the sums agree only if the order does.
            let g = randn(&[2 * ho * wo, kh * kw * 3], &mut rng);
            let mut grad = vec![0.0f32; x.as_slice().len()];
            conv.col2im(g.as_slice(), dims, &mut grad);
            let mut by_tap = vec![0.0f32; x.as_slice().len()];
            for_each_tap(&conv, dims, |col, dst| {
                for ci in 0..3 {
                    by_tap[dst + ci] += g.as_slice()[col + ci];
                }
            });
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&grad), bits(&by_tap), "col2im {what}");
        }
    }

    #[test]
    fn blocked_passes_are_the_one_call() {
        // 250 windows of 4 × 5 pixels: three blocks of BLOCK_ROWS, the last
        // one short. The oracle expands, multiplies and scatters the whole
        // batch at once, tap by tap.
        let mut rng = seeded_rng(41);
        let mut conv = Conv2D::new(3, 4, (2, 2), Padding::Same, Init::HeUniform, &mut rng);
        conv.b.value = randn(&[4], &mut rng);
        let dims = (250, 4, 5, 3);
        let x = randn(&[250, 4, 5, 3], &mut rng);
        let rows = 250 * 4 * 5;
        assert!(rows > 2 * BLOCK_ROWS);
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let weights = conv.w.value.as_slice().to_vec();

        let y = conv.forward(&x);
        let mut cols = vec![0.0f32; rows * 12];
        for_each_tap(&conv, dims, |col, src| {
            cols[col..col + 3].copy_from_slice(&x.as_slice()[src..src + 3]);
        });
        let mut want = vec![0.0f32; rows * 4];
        crate::gemm::gemm(rows, 12, 4, &cols, &weights, &mut want);
        for row in want.chunks_exact_mut(4) {
            for (o, &b) in row.iter_mut().zip(conv.b.value.as_slice()) {
                *o += b;
            }
        }
        assert_eq!(bits(y.as_slice()), bits(&want), "forward");

        let g = randn(y.shape(), &mut rng);
        let got = conv.backward_input(&g);
        let mut grad_cols = vec![0.0f32; rows * 12];
        crate::gemm::gemm_nt(rows, 12, 4, g.as_slice(), &weights, &mut grad_cols);
        let mut want = vec![0.0f32; x.len()];
        for_each_tap(&conv, dims, |col, dst| {
            for ci in 0..3 {
                want[dst + ci] += grad_cols[col + ci];
            }
        });
        assert_eq!(bits(got.as_slice()), bits(&want), "input gradient");
    }

    #[test]
    fn output_shape_matches_forward() {
        let mut rng = seeded_rng(12);
        let mut conv = Conv2D::new(2, 7, (2, 2), Padding::Same, Init::HeUniform, &mut rng);
        let declared = conv.output_shape(&[10, 12, 2]);
        let x = randn(&[1, 10, 12, 2], &mut rng);
        let y = conv.forward(&x);
        assert_eq!(&y.shape()[1..], declared.as_slice());
    }
}
