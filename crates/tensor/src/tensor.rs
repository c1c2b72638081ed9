//! Dense row-major `f32` tensors with shape checking.
//!
//! [`Tensor`] is the value type threaded through every layer, optimizer and
//! model in the VehiGAN stack. It is deliberately small: a shape vector plus
//! a flat `Vec<f32>` in row-major order. All binary operations validate
//! shapes and panic with a descriptive message on mismatch — shape errors
//! are programming bugs, not recoverable conditions.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub};

/// A dense row-major tensor of `f32` values.
///
/// # Examples
///
/// ```
/// use vehigan_tensor::Tensor;
///
/// let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
/// assert_eq!(t.shape(), &[2, 2]);
/// assert_eq!(t.get(&[1, 0]), 3.0);
/// ```
#[derive(PartialEq)]
pub struct Tensor {
    shape: Vec<usize>,
    data: Vec<f32>,
}

impl Clone for Tensor {
    fn clone(&self) -> Self {
        Tensor {
            shape: self.shape.clone(),
            data: self.data.clone(),
        }
    }

    /// Clones into an existing tensor, reusing its heap allocations when
    /// capacity allows. Layer activation caches call this every training
    /// step, so steady-state forward passes stop churning the allocator.
    fn clone_from(&mut self, source: &Self) {
        self.shape.clone_from(&source.shape);
        self.data.clone_from(&source.data);
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.data.len() <= 16 {
            write!(f, "Tensor{:?} {:?}", self.shape, self.data)
        } else {
            write!(
                f,
                "Tensor{:?} [{} elements, first={:?}...]",
                self.shape,
                self.data.len(),
                &self.data[..4.min(self.data.len())]
            )
        }
    }
}

impl Tensor {
    /// Creates a tensor of zeros with the given shape.
    ///
    /// # Examples
    ///
    /// ```
    /// use vehigan_tensor::Tensor;
    /// let z = Tensor::zeros(&[3, 4]);
    /// assert_eq!(z.len(), 12);
    /// ```
    pub fn zeros(shape: &[usize]) -> Self {
        let n: usize = shape.iter().product();
        Tensor {
            shape: shape.to_vec(),
            data: vec![0.0; n],
        }
    }

    /// Creates a tensor filled with `value`.
    pub fn full(shape: &[usize], value: f32) -> Self {
        let n: usize = shape.iter().product();
        Tensor {
            shape: shape.to_vec(),
            data: vec![value; n],
        }
    }

    /// Creates a tensor of ones with the given shape.
    pub fn ones(shape: &[usize]) -> Self {
        Self::full(shape, 1.0)
    }

    /// Creates a tensor from a flat vector and a shape.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` does not equal the product of `shape`.
    pub fn from_vec(data: Vec<f32>, shape: &[usize]) -> Self {
        let n: usize = shape.iter().product();
        assert_eq!(
            data.len(),
            n,
            "data length {} does not match shape {:?} (= {n})",
            data.len(),
            shape
        );
        Tensor {
            shape: shape.to_vec(),
            data,
        }
    }

    /// The shape of the tensor.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Number of dimensions.
    pub fn ndim(&self) -> usize {
        self.shape.len()
    }

    /// Immutable view of the underlying flat data.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying flat data.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor and returns the flat data.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    fn flat_index(&self, idx: &[usize]) -> usize {
        debug_assert_eq!(idx.len(), self.shape.len(), "index rank mismatch");
        let mut flat = 0;
        for (i, (&ix, &dim)) in idx.iter().zip(&self.shape).enumerate() {
            debug_assert!(
                ix < dim,
                "index {ix} out of bounds for dim {i} (size {dim})"
            );
            flat = flat * dim + ix;
        }
        flat
    }

    /// Element at a multi-dimensional index.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if the index rank or bounds are invalid.
    pub fn get(&self, idx: &[usize]) -> f32 {
        self.data[self.flat_index(idx)]
    }

    /// Returns a reshaped copy sharing the same data order.
    ///
    /// # Panics
    ///
    /// Panics if the new shape has a different element count.
    pub fn reshape(&self, shape: &[usize]) -> Tensor {
        let n: usize = shape.iter().product();
        assert_eq!(
            n,
            self.data.len(),
            "cannot reshape {:?} ({} elems) to {:?} ({n} elems)",
            self.shape,
            self.data.len(),
            shape
        );
        Tensor {
            shape: shape.to_vec(),
            data: self.data.clone(),
        }
    }

    /// Applies `f` to every element, returning a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor {
            shape: self.shape.clone(),
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Applies `f` to every element in place.
    pub fn map_in_place(&mut self, f: impl Fn(f32) -> f32) {
        for x in &mut self.data {
            *x = f(*x);
        }
    }

    /// Element-wise combination of two equally-shaped tensors.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub(crate) fn zip_map(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
        self.assert_same_shape(other, "zip_map");
        Tensor {
            shape: self.shape.clone(),
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(&a, &b)| f(a, b))
                .collect(),
        }
    }

    fn assert_same_shape(&self, other: &Tensor, op: &str) {
        assert_eq!(
            self.shape, other.shape,
            "{op}: shape mismatch {:?} vs {:?}",
            self.shape, other.shape
        );
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements (0.0 for an empty tensor).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Maximum element (−∞ for an empty tensor).
    pub fn max(&self) -> f32 {
        self.data.iter().copied().fold(f32::NEG_INFINITY, f32::max)
    }

    /// Minimum element (+∞ for an empty tensor).
    pub fn min(&self) -> f32 {
        self.data.iter().copied().fold(f32::INFINITY, f32::min)
    }

    /// Element-wise sign (−1, 0, or 1), as used by FGSM perturbations.
    pub fn sign(&self) -> Tensor {
        self.map(|x| {
            if x > 0.0 {
                1.0
            } else if x < 0.0 {
                -1.0
            } else {
                0.0
            }
        })
    }

    /// Clamps every element into `[lo, hi]`.
    pub fn clamp(&self, lo: f32, hi: f32) -> Tensor {
        self.map(|x| x.clamp(lo, hi))
    }

    /// Scales all elements by `s` in place.
    pub fn scale_in_place(&mut self, s: f32) {
        for x in &mut self.data {
            *x *= s;
        }
    }

    /// Adds `other * alpha` into `self` (axpy).
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn add_scaled(&mut self, other: &Tensor, alpha: f32) {
        self.assert_same_shape(other, "add_scaled");
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += alpha * b;
        }
    }

    /// Fills the tensor with zeros.
    pub(crate) fn fill_zero(&mut self) {
        self.data.iter_mut().for_each(|x| *x = 0.0);
    }

    /// Matrix multiplication of two 2-D tensors: `(m×k) · (k×n) = (m×n)`.
    ///
    /// Backed by the blocked, register-tiled kernel in [`crate::gemm`];
    /// per output element the reduction runs in strictly increasing `k`
    /// order, matching the historical naive loop's association.
    ///
    /// # Panics
    ///
    /// Panics if either operand is not 2-D or the inner dimensions differ.
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        assert_eq!(
            self.ndim(),
            2,
            "matmul lhs must be 2-D, got {:?}",
            self.shape
        );
        assert_eq!(
            other.ndim(),
            2,
            "matmul rhs must be 2-D, got {:?}",
            other.shape
        );
        let (m, k) = (self.shape[0], self.shape[1]);
        let (k2, n) = (other.shape[0], other.shape[1]);
        assert_eq!(
            k, k2,
            "matmul inner dims: {:?} · {:?}",
            self.shape, other.shape
        );
        let mut out = vec![0.0f32; m * n];
        crate::gemm::gemm(m, k, n, &self.data, &other.data, &mut out);
        Tensor {
            shape: vec![m, n],
            data: out,
        }
    }

    /// `self · otherᵀ` without materializing the transpose: `self` is
    /// `(m×k)`, `other` is `(n×k)`, the result is `(m×n)`.
    ///
    /// This is the backward-pass primitive `dX = dY · Wᵀ` with `W` read in
    /// its stored layout.
    ///
    /// # Panics
    ///
    /// Panics if either operand is not 2-D or the shared dimensions differ.
    pub(crate) fn matmul_nt(&self, other: &Tensor) -> Tensor {
        assert_eq!(
            self.ndim(),
            2,
            "matmul_nt lhs must be 2-D, got {:?}",
            self.shape
        );
        assert_eq!(
            other.ndim(),
            2,
            "matmul_nt rhs must be 2-D, got {:?}",
            other.shape
        );
        let (m, k) = (self.shape[0], self.shape[1]);
        let (n, k2) = (other.shape[0], other.shape[1]);
        assert_eq!(
            k, k2,
            "matmul_nt shared dims: {:?} · {:?}ᵀ",
            self.shape, other.shape
        );
        let mut out = vec![0.0f32; m * n];
        crate::gemm::gemm_nt(m, n, k, &self.data, &other.data, &mut out);
        Tensor {
            shape: vec![m, n],
            data: out,
        }
    }

    /// Transpose of a 2-D tensor, in 32×32 cache tiles.
    ///
    /// The hot paths (layer backward passes) no longer transpose at all —
    /// see `Tensor::matmul_nt` — but serialization and tests still want a
    /// materialized transpose.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not 2-D.
    pub fn transpose(&self) -> Tensor {
        assert_eq!(
            self.ndim(),
            2,
            "transpose requires 2-D, got {:?}",
            self.shape
        );
        let (m, n) = (self.shape[0], self.shape[1]);
        let mut out = vec![0.0f32; m * n];
        crate::gemm::transpose_into(m, n, &self.data, &mut out);
        Tensor {
            shape: vec![n, m],
            data: out,
        }
    }

    /// Selects rows of the leading axis by index, returning a new tensor.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn take(&self, indices: &[usize]) -> Tensor {
        let n = self.shape[0];
        let inner: usize = self.shape[1..].iter().product::<usize>().max(1);
        let mut data = Vec::with_capacity(indices.len() * inner);
        for &i in indices {
            assert!(i < n, "take index {i} out of bounds ({n})");
            data.extend_from_slice(&self.data[i * inner..(i + 1) * inner]);
        }
        let mut shape = vec![indices.len()];
        shape.extend_from_slice(&self.shape[1..]);
        Tensor { shape, data }
    }
}

impl Add<&Tensor> for &Tensor {
    type Output = Tensor;
    fn add(self, rhs: &Tensor) -> Tensor {
        self.zip_map(rhs, |a, b| a + b)
    }
}

impl Sub<&Tensor> for &Tensor {
    type Output = Tensor;
    fn sub(self, rhs: &Tensor) -> Tensor {
        self.zip_map(rhs, |a, b| a - b)
    }
}

impl Mul<&Tensor> for &Tensor {
    type Output = Tensor;
    fn mul(self, rhs: &Tensor) -> Tensor {
        self.zip_map(rhs, |a, b| a * b)
    }
}

impl Div<&Tensor> for &Tensor {
    type Output = Tensor;
    fn div(self, rhs: &Tensor) -> Tensor {
        self.zip_map(rhs, |a, b| a / b)
    }
}

impl Mul<f32> for &Tensor {
    type Output = Tensor;
    fn mul(self, rhs: f32) -> Tensor {
        self.map(|x| x * rhs)
    }
}

impl Add<f32> for &Tensor {
    type Output = Tensor;
    fn add(self, rhs: f32) -> Tensor {
        self.map(|x| x + rhs)
    }
}

impl Neg for &Tensor {
    type Output = Tensor;
    fn neg(self) -> Tensor {
        self.map(|x| -x)
    }
}

impl AddAssign<&Tensor> for Tensor {
    fn add_assign(&mut self, rhs: &Tensor) {
        self.add_scaled(rhs, 1.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Tensor {
        /// Creates a 1-D tensor from a slice.
        pub(crate) fn from_slice(data: &[f32]) -> Self {
            Tensor {
                shape: vec![data.len()],
                data: data.to_vec(),
            }
        }

        /// Sets the element at a multi-dimensional index.
        pub(crate) fn set(&mut self, idx: &[usize], value: f32) {
            let i = self.flat_index(idx);
            self.data[i] = value;
        }

        /// L2 norm of the flattened tensor.
        pub(crate) fn norm(&self) -> f32 {
            self.data.iter().map(|x| x * x).sum::<f32>().sqrt()
        }
    }

    /// A 2-D tensor from equal-length rows.
    fn from_rows(rows: &[Vec<f32>]) -> Tensor {
        let data: Vec<f32> = rows.concat();
        Tensor::from_vec(data, &[rows.len(), rows[0].len()])
    }

    #[test]
    fn zeros_and_shape() {
        let t = Tensor::zeros(&[2, 3, 4]);
        assert_eq!(t.shape(), &[2, 3, 4]);
        assert_eq!(t.len(), 24);
        assert_eq!(t.sum(), 0.0);
        assert!(!t.is_empty());
    }

    #[test]
    fn from_vec_roundtrip() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        assert_eq!(t.get(&[0, 0]), 1.0);
        assert_eq!(t.get(&[1, 2]), 6.0);
        assert_eq!(t.into_vec(), vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
    }

    #[test]
    #[should_panic(expected = "does not match shape")]
    fn from_vec_bad_shape_panics() {
        let _ = Tensor::from_vec(vec![1.0, 2.0], &[3]);
    }

    #[test]
    fn set_get() {
        let mut t = Tensor::zeros(&[3, 3]);
        t.set(&[1, 1], 5.0);
        assert_eq!(t.get(&[1, 1]), 5.0);
        assert_eq!(t.sum(), 5.0);
    }

    #[test]
    fn matmul_identity() {
        let a = from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let i = from_rows(&[vec![1.0, 0.0], vec![0.0, 1.0]]);
        assert_eq!(a.matmul(&i), a);
    }

    #[test]
    fn matmul_known_values() {
        let a = from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
        let b = from_rows(&[vec![7.0, 8.0], vec![9.0, 10.0], vec![11.0, 12.0]]);
        let c = a.matmul(&b);
        assert_eq!(c.shape(), &[2, 2]);
        assert_eq!(c.as_slice(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    #[should_panic(expected = "matmul inner dims")]
    fn matmul_dim_mismatch_panics() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[2, 3]);
        let _ = a.matmul(&b);
    }

    #[test]
    fn matmul_nt_equals_explicit_transpose() {
        let a = from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
        let b = from_rows(&[vec![1.0, 0.5, -1.0], vec![2.0, -2.0, 0.0]]);
        let fast = a.matmul_nt(&b);
        let reference = a.matmul(&b.transpose());
        assert_eq!(fast.shape(), &[2, 2]);
        for (f, r) in fast.as_slice().iter().zip(reference.as_slice()) {
            assert!((f - r).abs() < 1e-5);
        }
    }

    #[test]
    fn clone_from_reuses_allocation() {
        let src = Tensor::from_slice(&[1.0, 2.0, 3.0, 4.0]);
        let mut dst = Tensor::zeros(&[4]);
        let cap = dst.data.capacity();
        dst.clone_from(&src);
        assert_eq!(dst, src);
        assert_eq!(dst.data.capacity(), cap);
    }

    #[test]
    fn transpose_involution() {
        let a = from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
        let att = a.transpose().transpose();
        assert_eq!(att, a);
        assert_eq!(a.transpose().shape(), &[3, 2]);
        assert_eq!(a.transpose().get(&[2, 1]), 6.0);
    }

    #[test]
    fn elementwise_arithmetic() {
        let a = Tensor::from_slice(&[1.0, 2.0, 3.0]);
        let b = Tensor::from_slice(&[4.0, 5.0, 6.0]);
        assert_eq!((&a + &b).as_slice(), &[5.0, 7.0, 9.0]);
        assert_eq!((&b - &a).as_slice(), &[3.0, 3.0, 3.0]);
        assert_eq!((&a * &b).as_slice(), &[4.0, 10.0, 18.0]);
        assert_eq!((&b / &a).as_slice(), &[4.0, 2.5, 2.0]);
        assert_eq!((&a * 2.0).as_slice(), &[2.0, 4.0, 6.0]);
        assert_eq!((-&a).as_slice(), &[-1.0, -2.0, -3.0]);
    }

    #[test]
    fn sign_matches_fgsm_semantics() {
        let t = Tensor::from_slice(&[-3.0, 0.0, 0.5]);
        assert_eq!(t.sign().as_slice(), &[-1.0, 0.0, 1.0]);
    }

    #[test]
    fn reductions() {
        let t = Tensor::from_slice(&[1.0, -2.0, 3.0, -4.0]);
        assert_eq!(t.sum(), -2.0);
        assert_eq!(t.mean(), -0.5);
        assert_eq!(t.max(), 3.0);
        assert_eq!(t.min(), -4.0);
        assert!((t.norm() - 30.0f32.sqrt()).abs() < 1e-6);
    }

    #[test]
    fn take_selects_rows() {
        let t = from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]]);
        let picked = t.take(&[2, 0]);
        assert_eq!(picked.shape(), &[2, 2]);
        assert_eq!(picked.as_slice(), &[5.0, 6.0, 1.0, 2.0]);
    }

    #[test]
    fn reshape_preserves_order() {
        let t = Tensor::from_slice(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let r = t.reshape(&[2, 3]);
        assert_eq!(r.get(&[1, 0]), 4.0);
    }

    #[test]
    fn clamp_bounds() {
        let t = Tensor::from_slice(&[-2.0, 0.5, 2.0]);
        assert_eq!(t.clamp(-1.0, 1.0).as_slice(), &[-1.0, 0.5, 1.0]);
    }

    #[test]
    fn add_scaled_axpy() {
        let mut a = Tensor::from_slice(&[1.0, 1.0]);
        let b = Tensor::from_slice(&[2.0, 4.0]);
        a.add_scaled(&b, 0.5);
        assert_eq!(a.as_slice(), &[2.0, 3.0]);
    }
}
