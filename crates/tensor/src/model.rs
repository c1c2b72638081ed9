//! The [`Sequential`] model container.

use crate::gemm::{gemm_f32_fused, FusedF32, Patches};
use crate::layer::{FusedView, Layer, Param};
use crate::layers::{Activation, Conv2D, Dense, Flatten, Reshape, UpSample2D};
use crate::serialize::{ModelFormatError, ModelSnapshot};
use crate::windows::{scatter_rows, Pieces};
use crate::Tensor;

/// Windows [`Sequential::score_fused`] carries to the dense head at once:
/// the head is one sequential multiply-add chain per window, and a
/// register block of this many rows is what overlaps them. Callers that
/// split a batch keep the head full by cutting at multiples of it.
pub const HEAD_ROWS: usize = 12;

/// One convolution of a critic as the fused walk runs it, LeakyReLU
/// folded in.
#[derive(Debug, Clone, Copy)]
struct ConvStep {
    /// Index of the convolution in the model.
    layer: usize,
    h: usize,
    w: usize,
    cin: usize,
    cout: usize,
    kh: usize,
    kw: usize,
    alpha: Option<f32>,
}

impl ConvStep {
    /// What decides the layout of this step's zero-bordered
    /// `[h + kh − 1, w + kw − 1, cin]` input plane.
    fn geometry(&self) -> [usize; 5] {
        [self.h, self.w, self.cin, self.kh, self.kw]
    }

    fn row_stride(&self) -> usize {
        (self.w + self.kw - 1) * self.cin
    }

    fn plane_len(&self) -> usize {
        (self.h + self.kh - 1) * self.row_stride()
    }

    /// Where pixels lie in the plane: the patches from its first element,
    /// the pixels themselves from [`ConvStep::origin`].
    fn patches(&self) -> Patches {
        Patches {
            width: self.w,
            row_stride: self.row_stride(),
            col_stride: self.cin,
        }
    }

    /// First interior element (Keras-style same padding: the smaller half
    /// of `k − 1` goes on top and on the left).
    fn origin(&self) -> usize {
        (self.kh - 1) / 2 * self.row_stride() + (self.kw - 1) / 2 * self.cin
    }
}

/// One scoring thread's buffers for [`Sequential::score_fused`]: a
/// zero-bordered input plane per convolution (the walk only ever writes
/// interiors, so a border is zeroed once per geometry) and the dense
/// head's [`HEAD_ROWS`] input rows. It grows to the largest model it has
/// been [fitted](CriticScratch::fit) to and never shrinks, so models of
/// different depths share one scratch.
#[derive(Debug, Default)]
pub struct CriticScratch {
    /// The model last fitted, step by step.
    convs: Vec<ConvStep>,
    /// Per conv position, the geometry its plane is laid out for.
    planes: Vec<([usize; 5], Vec<f32>)>,
    head: Vec<f32>,
    /// Index of the dense head in the model last fitted.
    head_layer: usize,
}

impl CriticScratch {
    /// An empty scratch; [`CriticScratch::fit`] sizes it.
    pub fn new() -> Self {
        Self::default()
    }

    /// Lays the scratch out for `critic` on `[h, w, c]` windows, growing
    /// what is too small — nothing, when it was fitted to this critic (or
    /// a deeper one over the same layers) before.
    ///
    /// # Errors
    ///
    /// [`ModelFormatError::NotACritic`] unless `critic` is same-padded
    /// convolutions, each optionally followed by a LeakyReLU, then an
    /// optional flatten and one dense layer with a single output.
    pub fn fit(
        &mut self,
        critic: &Sequential,
        (h, w, mut c): (usize, usize, usize),
    ) -> Result<(), ModelFormatError> {
        if h * w * c == 0 {
            return Err(ModelFormatError::NotACritic(format!(
                "empty input {h}×{w}×{c}"
            )));
        }
        let view = |i: usize| critic.layers.get(i).and_then(|l| l.fused_view());
        let refuse = |i: usize| {
            let what = critic
                .layers
                .get(i)
                .map_or("a missing dense head", |l| l.name());
            ModelFormatError::NotACritic(format!("layer {i}: {what}"))
        };
        self.convs.clear();
        let mut i = 0;
        while let Some(FusedView::Conv { cin, kh, kw, b, .. }) = view(i) {
            if cin != c {
                return Err(refuse(i));
            }
            let mut step = ConvStep {
                layer: i,
                h,
                w,
                cin,
                cout: b.len(),
                kh,
                kw,
                alpha: None,
            };
            i += 1;
            if let Some(FusedView::LeakyRelu(alpha)) = view(i) {
                step.alpha = Some(alpha);
                i += 1;
            }
            c = step.cout;
            self.convs.push(step);
        }
        if let Some(FusedView::Flatten) = view(i) {
            i += 1;
        }
        match view(i) {
            Some(FusedView::Dense { w: weights, b })
                if b.len() == 1 && weights.len() == h * w * c && i + 1 == critic.len() => {}
            _ => return Err(refuse(i)),
        }
        self.head_layer = i;
        for (j, step) in self.convs.iter().enumerate() {
            match self.planes.get_mut(j) {
                Some((geometry, _)) if *geometry == step.geometry() => {}
                Some((geometry, plane)) => {
                    *geometry = step.geometry();
                    plane.clear();
                    plane.resize(step.plane_len(), 0.0);
                }
                None => self
                    .planes
                    .push((step.geometry(), vec![0.0; step.plane_len()])),
            }
        }
        if self.head.len() < HEAD_ROWS * h * w * c {
            self.head.resize(HEAD_ROWS * h * w * c, 0.0);
        }
        Ok(())
    }

    /// Heap bytes held — constant across calls once fitted.
    pub fn bytes(&self) -> usize {
        let planes: usize = self.planes.iter().map(|(_, p)| p.capacity()).sum();
        (planes + self.head.capacity()) * std::mem::size_of::<f32>()
            + self.convs.capacity() * std::mem::size_of::<ConvStep>()
    }
}

/// An ordered stack of layers trained end-to-end.
///
/// Both VehiGAN networks — the generator 𝒢 (noise → fake snapshot) and the
/// discriminator/critic 𝒟 (snapshot → realism score) — are `Sequential`
/// models.
///
/// # Examples
///
/// ```
/// use vehigan_tensor::{Sequential, layers::{Dense, Activation}, Init, Tensor, init::seeded_rng};
///
/// let mut rng = seeded_rng(0);
/// let mut model = Sequential::new();
/// model.push(Dense::new(4, 8, Init::HeUniform, &mut rng));
/// model.push(Activation::leaky_relu(0.2));
/// model.push(Dense::new(8, 1, Init::XavierUniform, &mut rng));
/// let y = model.forward(&Tensor::zeros(&[2, 4]));
/// assert_eq!(y.shape(), &[2, 1]);
/// ```
#[derive(Default)]
pub struct Sequential {
    layers: Vec<Box<dyn Layer>>,
}

impl std::fmt::Debug for Sequential {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let names: Vec<&str> = self.layers.iter().map(|l| l.name()).collect();
        write!(
            f,
            "Sequential({} layers: {:?}, {} params)",
            self.layers.len(),
            names,
            self.num_params()
        )
    }
}

impl Sequential {
    /// Creates an empty model.
    pub fn new() -> Self {
        Sequential { layers: Vec::new() }
    }

    /// Appends a layer.
    pub fn push(&mut self, layer: impl Layer + 'static) {
        self.layers.push(Box::new(layer));
    }

    /// Appends a boxed layer (used by the deserializer).
    pub(crate) fn push_boxed(&mut self, layer: Box<dyn Layer>) {
        self.layers.push(layer);
    }

    /// Number of layers.
    pub(crate) fn len(&self) -> usize {
        self.layers.len()
    }

    /// Layer names in forward order.
    pub fn layer_names(&self) -> Vec<&'static str> {
        self.layers.iter().map(|l| l.name()).collect()
    }

    /// Runs the forward pass, caching activations for `backward`.
    ///
    /// Once a layer's output has been consumed by the next layer it is dead;
    /// it is handed back to the producing layer via [`Layer::reclaim`] so
    /// buffer-caching layers (e.g. [`Conv2D`]) run allocation-free across
    /// training steps.
    pub fn forward(&mut self, input: &Tensor) -> Tensor {
        let mut x: Option<Tensor> = None;
        for i in 0..self.layers.len() {
            let y = self.layers[i].forward(x.as_ref().unwrap_or(input));
            if let Some(dead) = x.replace(y) {
                self.layers[i - 1].reclaim(dead);
            }
        }
        x.unwrap_or_else(|| input.clone())
    }

    /// Critic outputs `D(x)` for `out.len()` `[h, w, c]` windows, each
    /// read where it lies as two [`Pieces`], through `&self` and bitwise
    /// what [`Sequential::forward`] returns on the same kernel leg — the
    /// scoring path. Each window is copied row by row into the first
    /// zero-bordered plane of `scratch` and walks every layer back to
    /// back over its few kilobytes of planes ([`gemm_f32_fused`] reads
    /// conv patches and weights in place and finishes bias and LeakyReLU
    /// in registers); the dense head, one strictly sequential
    /// multiply-add chain per window, runs once per [`HEAD_ROWS`]
    /// windows so that their chains overlap. A window's output depends on
    /// its floats alone — not on where its pieces split it, nor on the
    /// rest of the batch — so any split of a batch scores what one call
    /// does. Allocates nothing once `scratch` fits.
    ///
    /// # Panics
    ///
    /// Panics if [`CriticScratch::fit`] rejects the model, or `windows`
    /// is not `out.len()` windows of `input`'s shape.
    pub fn score_fused<'w>(
        &self,
        scratch: &mut CriticScratch,
        input: (usize, usize, usize),
        windows: impl IntoIterator<Item = Pieces<'w>, IntoIter: ExactSizeIterator>,
        out: &mut [f32],
    ) {
        if let Err(e) = scratch.fit(self, input) {
            panic!("score_fused: {e}");
        }
        let len = input.0 * input.1 * input.2;
        let mut windows = windows.into_iter();
        assert_eq!(
            windows.len(),
            out.len(),
            "{} windows of {input:?} for {} scores",
            windows.len(),
            out.len()
        );
        let CriticScratch {
            convs,
            planes,
            head,
            head_layer,
        } = scratch;
        let Some(FusedView::Dense { w, b }) = self.layers[*head_layer].fused_view() else {
            unreachable!("fit found the dense head here")
        };
        let in_dim = w.len();
        let dense = FusedF32 {
            spans: 1,
            span_len: in_dim,
            w,
            bias: b,
            alpha: None,
        };
        for scores in out.chunks_mut(HEAD_ROWS) {
            let group = windows.by_ref().take(scores.len());
            for (window, row) in group.zip(head.chunks_exact_mut(in_dim)) {
                // The network input goes where the first layer reads it.
                let (dst, to) = match (convs.first(), planes.first_mut()) {
                    (Some(first), Some((_, plane))) => {
                        (&mut plane[first.origin()..], first.patches())
                    }
                    _ => (&mut *row, Patches::matrix(input.2)),
                };
                let line = input.1 * input.2;
                let start = |y| to.offset(y * input.1);
                scatter_rows(window, len, line, start, dst, |src, dst| {
                    dst.copy_from_slice(src)
                });
                for (j, step) in convs.iter().enumerate() {
                    let Some(FusedView::Conv { w, b, .. }) = self.layers[step.layer].fused_view()
                    else {
                        unreachable!("fit found a convolution here")
                    };
                    let layer = FusedF32 {
                        spans: step.kh,
                        span_len: step.kw * step.cin,
                        w,
                        bias: b,
                        alpha: step.alpha,
                    };
                    let (src, rest) = planes[j..].split_first_mut().expect("one plane per conv");
                    let (dst, to) = match (convs.get(j + 1), rest.first_mut()) {
                        (Some(next), Some((_, plane))) => {
                            (&mut plane[next.origin()..], next.patches())
                        }
                        _ => (&mut *row, Patches::matrix(step.cout)),
                    };
                    gemm_f32_fused(step.h * step.w, &src.1, step.patches(), layer, dst, to);
                }
            }
            let rows = Patches::matrix(in_dim);
            gemm_f32_fused(scores.len(), head, rows, dense, scores, Patches::matrix(1));
        }
    }

    /// Back-propagates `grad_out` through all layers, accumulating parameter
    /// gradients, and returns the gradient w.r.t. the model input.
    ///
    /// # Panics
    ///
    /// Panics if called before `forward`.
    pub fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        self.backward_through(0, grad_out, |layer, g| layer.backward(g))
    }

    /// The gradient w.r.t. the model input alone — what
    /// [`Sequential::backward`] returns, bit for bit — through every
    /// layer's [`Layer::backward_input`]: no parameter gradient is computed
    /// or touched and the forward caches stay as they are, so the same
    /// forward can still serve a parameter backward afterwards.
    ///
    /// # Panics
    ///
    /// Panics if called before `forward`.
    pub fn backward_input(&mut self, grad_out: &Tensor) -> Tensor {
        self.backward_through(0, grad_out, |layer, g| layer.backward_input(g))
    }

    /// Accumulates every parameter gradient [`Sequential::backward`]
    /// accumulates and stops there: the first layer runs
    /// [`Layer::backward_params`], so the gradient w.r.t. the model input —
    /// which a training step on data drops — is never formed.
    ///
    /// # Panics
    ///
    /// Panics if called before `forward`.
    pub fn backward_params(&mut self, grad_out: &Tensor) {
        let g = self.backward_through(1, grad_out, |layer, g| layer.backward(g));
        if let Some(first) = self.layers.first_mut() {
            first.backward_params(&g);
        }
    }

    /// Carries `grad_out` from the last layer down to layer `from`.
    fn backward_through(
        &mut self,
        from: usize,
        grad_out: &Tensor,
        step: impl Fn(&mut dyn Layer, &Tensor) -> Tensor,
    ) -> Tensor {
        let mut g: Option<Tensor> = None;
        for layer in self.layers.iter_mut().skip(from).rev() {
            g = Some(step(layer.as_mut(), g.as_ref().unwrap_or(grad_out)));
        }
        g.unwrap_or_else(|| grad_out.clone())
    }

    /// Zeroes all parameter gradients.
    pub fn zero_grad(&mut self) {
        for layer in &mut self.layers {
            for p in layer.params_mut() {
                p.zero_grad();
            }
        }
    }

    /// Mutable access to every trainable parameter, in layer order.
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        self.layers
            .iter_mut()
            .flat_map(|l| l.params_mut())
            .collect()
    }

    /// Immutable access to every trainable parameter, in layer order.
    pub fn params(&self) -> Vec<&Param> {
        self.layers.iter().flat_map(|l| l.params()).collect()
    }

    /// Total number of scalar parameters.
    pub fn num_params(&self) -> usize {
        self.layers
            .iter()
            .flat_map(|l| l.params())
            .map(|p| p.value.len())
            .sum()
    }

    /// Clamps every weight into `[-c, c]` — WGAN weight clipping, which
    /// enforces the critic's Lipschitz constraint (Arjovsky et al. 2017).
    pub fn clip_weights(&mut self, c: f32) {
        assert!(c > 0.0, "clip bound must be positive");
        for layer in &mut self.layers {
            for p in layer.params_mut() {
                for v in p.value.as_mut_slice() {
                    *v = v.clamp(-c, c);
                }
            }
        }
    }

    /// Declared output shape (excluding batch) for an input shape
    /// (excluding batch). Validates layer compatibility.
    ///
    /// # Panics
    ///
    /// Panics if any adjacent pair of layers disagrees on shapes.
    pub fn output_shape(&self, input_shape: &[usize]) -> Vec<usize> {
        let mut shape = input_shape.to_vec();
        for layer in &self.layers {
            shape = layer.output_shape(&shape);
        }
        shape
    }

    /// Serializes the whole model.
    pub fn save(&self) -> ModelSnapshot {
        ModelSnapshot {
            layers: self.layers.iter().map(|l| l.save()).collect(),
        }
    }

    /// Reconstructs a model from a snapshot.
    ///
    /// # Errors
    ///
    /// Returns an error on an unknown layer kind or missing fields.
    pub fn from_snapshot(snap: &ModelSnapshot) -> Result<Self, ModelFormatError> {
        let mut model = Sequential::new();
        for layer in &snap.layers {
            let boxed: Box<dyn Layer> = match layer.kind.as_str() {
                "Dense" => Box::new(Dense::from_snapshot(layer)?),
                "Conv2D" => Box::new(Conv2D::from_snapshot(layer)?),
                "UpSample2D" => Box::new(UpSample2D::from_snapshot(layer)?),
                "Flatten" => Box::new(Flatten::from_snapshot(layer)?),
                "Reshape" => Box::new(Reshape::from_snapshot(layer)?),
                "LeakyReLU" | "ReLU" | "Tanh" | "Sigmoid" => {
                    Box::new(Activation::from_snapshot(layer)?)
                }
                other => return Err(ModelFormatError::UnknownLayer(other.to_string())),
            };
            model.push_boxed(boxed);
        }
        Ok(model)
    }

    /// Serializes to bytes (convenience over [`Sequential::save`]).
    pub fn to_bytes(&self) -> Vec<u8> {
        self.save().to_bytes()
    }

    /// Deserializes from bytes.
    ///
    /// # Errors
    ///
    /// Returns an error on bad magic, version, or unknown layers.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, ModelFormatError> {
        Self::from_snapshot(&ModelSnapshot::from_bytes(bytes)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `∂(mean of outputs)/∂input` through [`Sequential::backward_input`].
    fn input_gradient(m: &mut Sequential, input: &Tensor) -> Tensor {
        let out = m.forward(input);
        let grad_out = Tensor::full(out.shape(), 1.0 / out.len() as f32);
        m.backward_input(&grad_out)
    }
    use crate::gradcheck::{finite_diff_grad, max_relative_error};
    use crate::init::{randn, seeded_rng};
    use crate::layers::Padding;
    use crate::windows::{Flat, Windows};
    use crate::Init;

    fn small_mlp(seed: u64) -> Sequential {
        let mut rng = seeded_rng(seed);
        let mut m = Sequential::new();
        m.push(Dense::new(6, 8, Init::HeUniform, &mut rng));
        m.push(Activation::leaky_relu(0.2));
        m.push(Dense::new(8, 1, Init::XavierUniform, &mut rng));
        m
    }

    #[test]
    fn forward_shapes() {
        let mut m = small_mlp(0);
        let y = m.forward(&Tensor::zeros(&[3, 6]));
        assert_eq!(y.shape(), &[3, 1]);
        assert_eq!(m.output_shape(&[6]), vec![1]);
    }

    #[test]
    fn num_params_counts_all() {
        let m = small_mlp(0);
        assert_eq!(m.num_params(), 6 * 8 + 8 + 8 + 1);
    }

    #[test]
    fn input_gradient_matches_finite_differences() {
        let mut m = small_mlp(1);
        let mut rng = seeded_rng(5);
        let x = randn(&[1, 6], &mut rng);
        let analytic = input_gradient(&mut m, &x);
        let snap = m.save();
        let numeric = finite_diff_grad(
            |xx| {
                let mut m2 = Sequential::from_snapshot(&snap).unwrap();
                m2.forward(xx).mean()
            },
            &x,
            1e-2,
        );
        assert!(max_relative_error(&analytic, &numeric) < 2e-2);
    }

    #[test]
    fn conv_pipeline_gradcheck() {
        // A miniature critic: conv → leaky → flatten → dense(1). Seed 3:
        // under the vendored RNG, seed 2 draws an activation input within
        // finite-difference eps of the LeakyReLU kink, which inflates the
        // numeric gradient error past tolerance.
        let mut rng = seeded_rng(3);
        let mut m = Sequential::new();
        m.push(Conv2D::new(
            1,
            2,
            (2, 2),
            Padding::Same,
            Init::HeUniform,
            &mut rng,
        ));
        m.push(Activation::leaky_relu(0.2));
        m.push(Flatten::new());
        m.push(Dense::new(4 * 4 * 2, 1, Init::XavierUniform, &mut rng));
        let x = randn(&[1, 4, 4, 1], &mut rng);
        let analytic = input_gradient(&mut m, &x);
        let snap = m.save();
        let numeric = finite_diff_grad(
            |xx| {
                let mut m2 = Sequential::from_snapshot(&snap).unwrap();
                m2.forward(xx).mean()
            },
            &x,
            1e-2,
        );
        let e = max_relative_error(&analytic, &numeric);
        assert!(e < 2e-2, "err={e}");
    }

    #[test]
    fn clip_weights_bounds_everything() {
        let mut m = small_mlp(3);
        for p in m.params_mut() {
            p.value.scale_in_place(100.0);
        }
        m.clip_weights(0.05);
        for p in m.params() {
            assert!(p.value.max() <= 0.05 && p.value.min() >= -0.05);
        }
    }

    #[test]
    fn zero_grad_resets() {
        let mut m = small_mlp(4);
        let x = Tensor::ones(&[2, 6]);
        let _ = m.forward(&x);
        let _ = m.backward(&Tensor::ones(&[2, 1]));
        assert!(m.params().iter().any(|p| p.grad.norm() > 0.0));
        m.zero_grad();
        assert!(m.params().iter().all(|p| p.grad.norm() == 0.0));
    }

    #[test]
    fn serialization_preserves_predictions() {
        let mut m = small_mlp(6);
        let mut rng = seeded_rng(7);
        let x = randn(&[4, 6], &mut rng);
        let y1 = m.forward(&x);
        let bytes = m.to_bytes();
        let mut m2 = Sequential::from_bytes(&bytes).unwrap();
        let y2 = m2.forward(&x);
        assert_eq!(y1, y2);
    }

    #[test]
    fn generator_shaped_model_builds() {
        // noise(8) → dense(5·6·4) → reshape → upsample(2,2) → conv same →
        // tanh single channel: the paper's G topology in miniature.
        let mut rng = seeded_rng(8);
        let mut g = Sequential::new();
        g.push(Dense::new(8, 5 * 6 * 4, Init::HeUniform, &mut rng));
        g.push(Activation::leaky_relu(0.2));
        g.push(Reshape::new(&[5, 6, 4]));
        g.push(UpSample2D::new(2, 2));
        g.push(Conv2D::new(
            4,
            1,
            (2, 2),
            Padding::Same,
            Init::XavierUniform,
            &mut rng,
        ));
        g.push(Activation::tanh());
        assert_eq!(g.output_shape(&[8]), vec![10, 12, 1]);
        let z = randn(&[2, 8], &mut rng);
        let fake = g.forward(&z);
        assert_eq!(fake.shape(), &[2, 10, 12, 1]);
        assert!(fake.max() <= 1.0 && fake.min() >= -1.0);
    }

    fn small_critic(seed: u64) -> Sequential {
        let mut rng = seeded_rng(seed);
        let mut m = Sequential::new();
        m.push(Conv2D::new(
            1,
            2,
            (2, 2),
            Padding::Same,
            Init::HeUniform,
            &mut rng,
        ));
        m.push(Activation::leaky_relu(0.2));
        m.push(Flatten::new());
        m.push(Dense::new(4 * 4 * 2, 1, Init::XavierUniform, &mut rng));
        m
    }

    #[test]
    fn fused_score_is_bitwise_forward() {
        let mut m = small_critic(13);
        let mut rng = seeded_rng(14);
        // More windows than one head group, and not a multiple of it.
        let n = 2 * HEAD_ROWS + 3;
        let x = randn(&[n, 4, 4, 1], &mut rng);
        let want = m.forward(&x);
        let mut scratch = CriticScratch::new();
        let mut got = vec![0.0f32; n];
        let flat = Flat::new(x.as_slice(), 16);
        m.score_fused(&mut scratch, (4, 4, 1), flat.pieces(0..n), &mut got);
        let bits = |v: &[f32]| v.iter().map(|s| s.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(want.as_slice()), bits(&got));
        // Any split of the batch scores the same.
        let mut split = vec![0.0f32; n];
        for (i, out) in split.chunks_mut(5).enumerate() {
            let rows = 5 * i..5 * i + out.len();
            m.score_fused(&mut scratch, (4, 4, 1), flat.pieces(rows), out);
        }
        assert_eq!(bits(&got), bits(&split));
        // So does every window cut into two pieces, at a row or anywhere.
        let cut: Vec<_> = x
            .as_slice()
            .chunks_exact(16)
            .enumerate()
            .map(|(i, w)| {
                let (older, newer) = w.split_at(i % 17);
                [older, newer]
            })
            .collect();
        let mut pieces = vec![0.0f32; n];
        m.score_fused(&mut scratch, (4, 4, 1), cut, &mut pieces);
        assert_eq!(bits(&got), bits(&pieces));
    }

    #[test]
    fn warm_scoring_allocates_nothing() {
        let m = small_critic(15);
        let mut rng = seeded_rng(16);
        let x = randn(&[3, 4, 4, 1], &mut rng);
        let mut scratch = CriticScratch::new();
        scratch.fit(&m, (4, 4, 1)).unwrap();
        let settled = scratch.bytes();
        assert!(settled > 0);
        let mut out = [0.0f32; 3];
        let flat = Flat::new(x.as_slice(), 16);
        for _ in 0..10 {
            m.score_fused(&mut scratch, (4, 4, 1), flat.pieces(0..3), &mut out);
            assert_eq!(scratch.bytes(), settled, "a fitted scratch must not grow");
        }
    }

    #[test]
    fn stacks_the_walk_cannot_run_are_typed_errors() {
        let mut rng = seeded_rng(19);
        let mut scratch = CriticScratch::new();
        let refused = |m: &Sequential, scratch: &mut CriticScratch| {
            matches!(
                scratch.fit(m, (4, 4, 1)),
                Err(ModelFormatError::NotACritic(_))
            )
        };
        // Valid padding, a tanh, a hidden dense layer, no head at all.
        let mut valid = Sequential::new();
        valid.push(Conv2D::new(
            1,
            2,
            (2, 2),
            Padding::Valid,
            Init::HeUniform,
            &mut rng,
        ));
        valid.push(Flatten::new());
        valid.push(Dense::new(3 * 3 * 2, 1, Init::XavierUniform, &mut rng));
        assert!(refused(&valid, &mut scratch));
        let mut tanh = small_critic(20);
        tanh.push(Activation::tanh());
        assert!(refused(&tanh, &mut scratch));
        assert!(refused(&small_mlp(21), &mut scratch));
        assert!(refused(&Sequential::new(), &mut scratch));
        // A refusal leaves the scratch usable.
        assert!(scratch.fit(&small_critic(22), (4, 4, 1)).is_ok());
    }

    #[test]
    fn repeated_forward_with_reclaim_is_bitwise_stable() {
        // Sequential::forward recycles dead intermediates into their
        // producing layers; results must not depend on that reuse.
        let mut m = small_critic(17);
        let mut rng = seeded_rng(18);
        let x = randn(&[3, 4, 4, 1], &mut rng);
        let first = m.forward(&x);
        for _ in 0..3 {
            assert_eq!(
                m.forward(&x),
                first,
                "reclaimed buffers must not leak state"
            );
        }
    }

    #[test]
    fn debug_format_is_nonempty() {
        let m = small_mlp(9);
        let s = format!("{m:?}");
        assert!(s.contains("Sequential") && s.contains("Dense"));
    }
}
