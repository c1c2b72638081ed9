//! Post-training int8 quantization: per-channel weight scales plus
//! activation-scale calibration.
//!
//! Both are **symmetric** (zero-point 0): WGAN critics regress an
//! unbounded scalar from Lipschitz-constrained weights, so the weight
//! distributions are centered and narrow, and symmetric quantization
//! keeps zero exactly representable — padding and ReLU-dead activations
//! stay exact through the int8 pipeline.
//!
//! Non-finite inputs are **rejected with a typed error** rather than
//! silently mapped to 0 (a NaN slips straight past an `f32::max` fold,
//! and `as i8` saturates NaN to 0) — the same poisoned-model policy as
//! `ModelFormatError::NonFinite` in `vehigan_tensor::serialize`.

use std::fmt;

/// Error quantizing weights or calibrating activations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuantError {
    /// A value to quantize or calibrate was NaN/Inf. Mirrors
    /// `ModelFormatError::NonFinite`: a poisoned tensor must never be
    /// folded into a deployable artifact.
    NonFinite {
        /// Flat element index of the first offending value.
        index: usize,
    },
    /// A per-channel matrix's length was not `rows × channels`.
    ShapeMismatch {
        /// Length actually received.
        len: usize,
        /// Rows expected.
        rows: usize,
        /// Channels expected.
        channels: usize,
    },
}

impl fmt::Display for QuantError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QuantError::NonFinite { index } => {
                write!(f, "non-finite value at element {index} (poisoned weights)")
            }
            QuantError::ShapeMismatch {
                len,
                rows,
                channels,
            } => write!(f, "matrix length {len} != {rows}×{channels}"),
        }
    }
}

impl std::error::Error for QuantError {}

/// Returns the index of the first non-finite value, if any.
fn check_finite(values: &[f32]) -> Result<(), QuantError> {
    match values.iter().position(|v| !v.is_finite()) {
        Some(index) => Err(QuantError::NonFinite { index }),
        None => Ok(()),
    }
}

/// Symmetric scale for a value range: `max_abs / 127`, or 1.0 for an
/// all-zero range (anything dequantizes to 0).
fn symmetric_scale(max_abs: f32) -> f32 {
    if max_abs == 0.0 {
        1.0
    } else {
        max_abs / 127.0
    }
}

#[inline]
fn quantize_one(w: f32, scale: f32) -> i8 {
    (w / scale).round().clamp(-127.0, 127.0) as i8
}

/// An int8-quantized weight matrix with **per-channel** symmetric scales.
///
/// The source is a row-major `rows × channels` matrix where the channel
/// axis is the *output* dimension — `[ky·kw·ic, oc]` conv kernels and
/// `[in, out]` dense weights as the tensor stack stores them. Each output
/// channel gets its own scale, so one wide-ranged channel no longer
/// inflates the quantization step of every other channel.
#[derive(Debug, Clone, PartialEq)]
pub struct PerChannelQuantized {
    /// Quantized values in `[-127, 127]`, same row-major layout as input.
    pub values: Vec<i8>,
    /// Per-channel dequantization scales (`channels` entries):
    /// `w[r][c] ≈ values[r][c] · scales[c]`.
    pub scales: Vec<f32>,
    /// Row count (the shared/GEMM dimension).
    pub rows: usize,
    /// Channel count (the output dimension).
    pub channels: usize,
}

impl PerChannelQuantized {
    /// Quantizes a row-major `rows × channels` float matrix with one
    /// symmetric scale per channel (column).
    ///
    /// # Errors
    ///
    /// [`QuantError::NonFinite`] if any weight is NaN/Inf,
    /// [`QuantError::ShapeMismatch`] if `weights.len() != rows ·
    /// channels`.
    pub fn quantize(rows: usize, channels: usize, weights: &[f32]) -> Result<Self, QuantError> {
        if weights.len() != rows * channels {
            return Err(QuantError::ShapeMismatch {
                len: weights.len(),
                rows,
                channels,
            });
        }
        check_finite(weights)?;
        let mut max_abs = vec![0.0f32; channels];
        for row in weights.chunks_exact(channels.max(1)) {
            for (m, &w) in max_abs.iter_mut().zip(row) {
                *m = m.max(w.abs());
            }
        }
        let scales: Vec<f32> = max_abs.into_iter().map(symmetric_scale).collect();
        let values = weights
            .chunks_exact(channels.max(1))
            .flat_map(|row| {
                row.iter()
                    .zip(&scales)
                    .map(|(&w, &s)| quantize_one(w, s))
                    .collect::<Vec<i8>>()
            })
            .collect();
        Ok(PerChannelQuantized {
            values,
            scales,
            rows,
            channels,
        })
    }

    /// Dequantizes back to floats (row-major, original layout).
    pub fn dequantize(&self) -> Vec<f32> {
        self.values
            .chunks_exact(self.channels.max(1))
            .flat_map(|row| {
                row.iter()
                    .zip(&self.scales)
                    .map(|(&q, &s)| q as f32 * s)
                    .collect::<Vec<f32>>()
            })
            .collect()
    }

    /// Worst-case absolute quantization error for one channel.
    pub fn channel_max_error(&self, channel: usize) -> f32 {
        self.scales[channel] / 2.0
    }
}

/// Calibrates a symmetric int8 activation scale from observed values:
/// `max |x| / 127`, with 1.0 for an all-zero sample (the choice is
/// irrelevant — everything quantizes to 0).
///
/// Calibration runs over representative f32 activations (e.g. benign
/// training windows pushed through the float critic). The result is a
/// floor, not a clip: at inference time a window whose activations exceed
/// the calibrated range widens its own scale to `max |x| / 127`
/// (`Int8Weights`' range guard), so nothing finite saturates.
///
/// # Errors
///
/// [`QuantError::NonFinite`] if any observed value is NaN/Inf.
pub fn activation_scale(observed: &[f32]) -> Result<f32, QuantError> {
    check_finite(observed)?;
    let max_abs = observed.iter().fold(0.0f32, |m, &v| m.max(v.abs()));
    Ok(symmetric_scale(max_abs))
}

/// Quantizes activations with a calibrated scale, saturating at ±127.
/// Symmetric with zero-point 0, so exact zeros stay exact (padding!).
///
/// Hot path: multiplies by the reciprocal scale and rounds half away
/// from zero via truncation (`x + copysign(0.5, x)`). NaN inputs map to
/// 0 through an explicit ordered compare so the float→int conversion
/// can use `to_int_unchecked` — Rust's saturating `as i32` cast carries
/// NaN/range fixups that keep LLVM from vectorizing the narrowing loop,
/// and `f32::round` would be a libm call per element.
///
/// # Panics
///
/// Panics if `values` and `out` differ in length.
pub fn quantize_activations(values: &[f32], scale: f32, out: &mut [i8]) {
    // SAFETY: i8 and u8 have identical size, alignment and validity, and
    // the exclusive borrow of `out` moves into the reinterpreted slice.
    let out = unsafe { std::slice::from_raw_parts_mut(out.as_mut_ptr().cast::<u8>(), out.len()) };
    quantize_biased(values, 1.0 / scale, 0, out);
}

/// [`quantize_activations`] given the reciprocal scale, with every output
/// byte XORed with `bias` — `vehigan_tensor::gemm::i8_activation_bias`,
/// so the quantized plane is already in the form the dispatched int8
/// kernel multiplies and nothing re-biases it per row block.
pub(crate) fn quantize_biased(values: &[f32], inv: f32, bias: u8, out: &mut [u8]) {
    // The vector body stores through raw pointers sized by `values`.
    assert_eq!(values.len(), out.len(), "quantize: length mismatch");
    #[cfg(target_arch = "x86_64")]
    if vehigan_tensor::gemm::avx512_available() {
        // SAFETY: guarded by cached runtime detection of avx512f; lengths
        // checked above.
        unsafe { quantize_biased_avx512(values, inv, bias, out) };
        return;
    }
    quantize_biased_portable(values, inv, bias, out);
}

/// Portable scalar body of [`quantize_biased`].
fn quantize_biased_portable(values: &[f32], inv: f32, bias: u8, out: &mut [u8]) {
    for (o, &v) in out.iter_mut().zip(values) {
        let x = (v * inv).clamp(-127.0, 127.0);
        let x = x + 0.5f32.copysign(x);
        let x = if x.is_nan() { 0.0 } else { x };
        // SAFETY: `x` is NaN-free (previous line) and clamped to
        // [-127.5, 127.5], well inside i32 range.
        *o = unsafe { x.to_int_unchecked::<i32>() as u8 } ^ bias;
    }
}

/// AVX-512 mirror of the scalar quantizer, **bitwise identical** on every
/// input including NaN, ±Inf and the ±x.5 rounding boundaries, in nine
/// vector µops per 16 floats (the int8 gate is bound by the two 512-bit
/// ALU ports, and every layer's activations pass through here):
///
/// - clamp is `vmaxps`/`vminps` with the bound as *first* operand: both
///   return their second operand when either is NaN, so NaN passes
///   through exactly like `f32::clamp`;
/// - `copysign(0.5, x)` is one `vpternlogd` (`half | (x & sign_bit)`);
/// - NaN → 0 costs nothing: `vcvttps2dq` turns NaN into `0x8000_0000`,
///   whose low byte — all the narrowing store keeps — is 0; every other
///   lane is in [-127.5, 127.5] and truncates like `to_int_unchecked`;
/// - the bias XOR is applied to the i32 lanes (only the low byte
///   survives the wrapping narrow, `as u8`).
///
/// The ragged tail runs the same lanes under a mask: the 12-float rows
/// of a one-channel plane never see a scalar loop.
///
/// # Safety
///
/// Callers must ensure the CPU supports AVX-512F and
/// `values.len() == out.len()`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn quantize_biased_avx512(values: &[f32], inv: f32, bias: u8, out: &mut [u8]) {
    use std::arch::x86_64::*;
    /// `vpternlogd` truth table of `a | (b & c)`.
    const A_OR_B_AND_C: i32 = 0xF8;
    let n = values.len();
    let vinv = _mm512_set1_ps(inv);
    let lo = _mm512_set1_ps(-127.0);
    let hi = _mm512_set1_ps(127.0);
    let half = _mm512_castps_si512(_mm512_set1_ps(0.5));
    let sign_bit = _mm512_castps_si512(_mm512_set1_ps(-0.0));
    let vbias = _mm512_set1_epi32(bias as i32);
    let mut i = 0;
    while i < n {
        let width = (n - i).min(16);
        let mask = ((1u32 << width) - 1) as __mmask16;
        let t = _mm512_mul_ps(_mm512_maskz_loadu_ps(mask, values.as_ptr().add(i)), vinv);
        let t = _mm512_min_ps(hi, _mm512_max_ps(lo, t));
        let signed_half = _mm512_castsi512_ps(_mm512_ternarylogic_epi32::<A_OR_B_AND_C>(
            half,
            _mm512_castps_si512(t),
            sign_bit,
        ));
        let q = _mm512_cvttps_epi32(_mm512_add_ps(t, signed_half));
        let q = _mm512_xor_si512(q, vbias);
        _mm512_mask_cvtepi32_storeu_epi8(out.as_mut_ptr().add(i) as *mut i8, mask, q);
        i += 16;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extreme_value_maps_to_127_and_zeros_are_stable() {
        let q = PerChannelQuantized::quantize(3, 2, &[0.5, 0.0, -0.25, 0.0, 0.0, 0.0]).unwrap();
        assert_eq!(q.values, [127, 0, -64, 0, 0, 0]);
        // An all-zero channel gets scale 1.0: anything dequantizes to 0.
        assert_eq!(q.scales[1], 1.0);
        assert!(q.dequantize().iter().skip(1).step_by(2).all(|&v| v == 0.0));
    }

    #[test]
    fn clipped_wgan_weights_quantize_finely() {
        // WGAN critics clip weights to ±c, so the quantization step is
        // c/127 — tiny relative to the weight range. This is why int8
        // preserves critic score ordering so well.
        let c = 0.03f32;
        let w: Vec<f32> = (0..50).map(|i| (i as f32 / 49.0) * 2.0 * c - c).collect();
        let q = PerChannelQuantized::quantize(50, 1, &w).unwrap();
        assert!(q.channel_max_error(0) < 0.00013);
    }

    #[test]
    fn non_finite_weights_are_rejected_with_index() {
        // A plain fold would silently map NaN → 0 (`f32::max` skips NaN,
        // `as i8` saturates); it is a typed error.
        assert_eq!(
            PerChannelQuantized::quantize(3, 1, &[0.1, f32::NAN, 0.2]),
            Err(QuantError::NonFinite { index: 1 })
        );
        assert_eq!(
            PerChannelQuantized::quantize(1, 2, &[0.0, f32::NEG_INFINITY]),
            Err(QuantError::NonFinite { index: 1 })
        );
        assert_eq!(
            activation_scale(&[1.0, f32::NAN]),
            Err(QuantError::NonFinite { index: 1 })
        );
    }

    #[test]
    #[cfg(target_arch = "x86_64")]
    fn simd_quantize_matches_portable_bitwise() {
        if !std::arch::is_x86_feature_detected!("avx512f") {
            return;
        }
        // Edge soup: rounding boundaries (±x.5 after scaling), clamp
        // saturation, NaN/Inf, ±0, denormals, and a dense random sweep —
        // the SIMD path must match the scalar path on every one.
        let mut values = vec![
            0.0,
            -0.0,
            0.5,
            -0.5,
            1.5,
            -1.5,
            126.5,
            -126.5,
            127.0,
            -127.0,
            500.0,
            -500.0,
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::MIN_POSITIVE / 2.0,
        ];
        for i in 0..1000 {
            values.push(((i as f32 * 0.7311).sin() * 200.0) + (i % 7) as f32 * 0.25);
        }
        for &scale in &[1.0f32, 0.037, 2.5] {
            let inv = 1.0 / scale;
            // Every tail length the masked last step can see, both biases.
            for (len, bias) in
                (values.len() - 17..=values.len()).zip([0u8, 0x80].into_iter().cycle())
            {
                let mut scalar = vec![0u8; len];
                let mut simd = vec![0u8; len];
                quantize_biased_portable(&values[..len], inv, bias, &mut scalar);
                // SAFETY: avx512f presence checked above; equal lengths.
                unsafe { quantize_biased_avx512(&values[..len], inv, bias, &mut simd) };
                assert_eq!(scalar, simd, "scale {scale} len {len} bias {bias}");
            }
        }
    }

    #[test]
    fn bias_is_an_xor_on_the_unbiased_byte() {
        let values = [0.0, 1.0, -1.0, 0.3, f32::NAN];
        let mut plain = [0i8; 5];
        let scale = 1.0 / 127.0;
        quantize_activations(&values, scale, &mut plain);
        let mut biased = [0u8; 5];
        quantize_biased(&values, 1.0 / scale, 0x80, &mut biased);
        for (p, b) in plain.iter().zip(biased) {
            assert_eq!(*p as u8 ^ 0x80, b);
        }
    }

    #[test]
    fn per_channel_isolates_wide_channels() {
        // Channel 1 has 100× the range of channel 0; one shared scale
        // would burn channel 0's precision, per-channel keeps both fine.
        let w = [0.01f32, 1.0, -0.005, 0.5, 0.0075, -1.0];
        let q = PerChannelQuantized::quantize(3, 2, &w).unwrap();
        assert!(q.channel_max_error(0) < 1e-4);
        let back = q.dequantize();
        for (orig, deq) in w.iter().zip(&back) {
            let ch = if (orig.abs() - 1.0).abs() < 0.51 {
                1
            } else {
                0
            };
            assert!((orig - deq).abs() <= q.channel_max_error(ch) + 1e-9);
        }
    }

    #[test]
    fn per_channel_shape_mismatch_is_typed() {
        assert_eq!(
            PerChannelQuantized::quantize(2, 3, &[0.0; 5]),
            Err(QuantError::ShapeMismatch {
                len: 5,
                rows: 2,
                channels: 3
            })
        );
    }

    #[test]
    fn activation_scale_covers_range() {
        let s = activation_scale(&[-0.6, 0.2, 0.5]).unwrap();
        assert!((s - 0.6 / 127.0).abs() < 1e-9);
        assert_eq!(activation_scale(&[]).unwrap(), 1.0);
        assert_eq!(activation_scale(&[0.0, 0.0]).unwrap(), 1.0);
    }

    #[test]
    fn activation_quantization_saturates() {
        let mut out = [0i8; 4];
        quantize_activations(&[0.0, 1.0, -1.0, 10.0], 1.0 / 127.0, &mut out);
        assert_eq!(out, [0, 127, -127, 127]);
    }

    #[test]
    fn error_display_is_informative() {
        assert!(QuantError::NonFinite { index: 3 }
            .to_string()
            .contains("element 3"));
        assert!(QuantError::ShapeMismatch {
            len: 5,
            rows: 2,
            channels: 3
        }
        .to_string()
        .contains("5"));
    }
}
