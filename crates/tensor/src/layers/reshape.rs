//! Shape-manipulation layers: [`Flatten`] and [`Reshape`].

use crate::layer::{FusedView, Layer, Param};
use crate::serialize::LayerSnapshot;
use crate::Tensor;

/// Flattens all non-batch dimensions: `[N, d1, …, dk] → [N, d1·…·dk]`.
#[derive(Debug, Default)]
pub struct Flatten {
    cached_shape: Option<Vec<usize>>,
}

impl Flatten {
    /// Creates a flatten layer.
    pub fn new() -> Self {
        Flatten::default()
    }

    /// Reconstructs from a snapshot.
    pub(crate) fn from_snapshot(
        _snap: &LayerSnapshot,
    ) -> Result<Self, crate::serialize::ModelFormatError> {
        Ok(Flatten::new())
    }
}

impl Layer for Flatten {
    fn forward(&mut self, input: &Tensor) -> Tensor {
        self.cached_shape = Some(input.shape().to_vec());
        let batch = input.shape()[0];
        let rest: usize = input.shape()[1..].iter().product();
        input.reshape(&[batch, rest])
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let shape = self
            .cached_shape
            .as_ref()
            .expect("Flatten::backward called before forward");
        grad_out.reshape(shape)
    }

    fn fused_view(&self) -> Option<FusedView<'_>> {
        Some(FusedView::Flatten)
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        Vec::new()
    }

    fn params(&self) -> Vec<&Param> {
        Vec::new()
    }

    fn name(&self) -> &'static str {
        "Flatten"
    }

    fn output_shape(&self, input_shape: &[usize]) -> Vec<usize> {
        vec![input_shape.iter().product()]
    }

    fn save(&self) -> LayerSnapshot {
        LayerSnapshot::new("Flatten")
    }
}

/// Reshapes the non-batch dimensions to a fixed target shape.
///
/// Used by the WGAN generator to turn a dense projection into a spatial
/// `[h, w, c]` seed for upsampling.
#[derive(Debug)]
pub struct Reshape {
    target: Vec<usize>,
    cached_shape: Option<Vec<usize>>,
}

impl Reshape {
    /// Creates a reshape layer targeting the given non-batch shape.
    pub fn new(target: &[usize]) -> Self {
        Reshape {
            target: target.to_vec(),
            cached_shape: None,
        }
    }

    /// Reconstructs from a snapshot.
    ///
    /// # Errors
    ///
    /// Returns an error if the rank attribute or dims are missing.
    pub(crate) fn from_snapshot(
        snap: &LayerSnapshot,
    ) -> Result<Self, crate::serialize::ModelFormatError> {
        let rank = snap.usize_attr("rank")?;
        let mut target = Vec::with_capacity(rank);
        for i in 0..rank {
            let key: &'static str = match i {
                0 => "d0",
                1 => "d1",
                2 => "d2",
                3 => "d3",
                _ => {
                    return Err(crate::serialize::ModelFormatError::Corrupt(
                        "reshape rank > 4",
                    ))
                }
            };
            target.push(snap.usize_attr(key)?);
        }
        Ok(Reshape::new(&target))
    }
}

impl Layer for Reshape {
    fn forward(&mut self, input: &Tensor) -> Tensor {
        self.cached_shape = Some(input.shape().to_vec());
        let mut shape = vec![input.shape()[0]];
        shape.extend_from_slice(&self.target);
        input.reshape(&shape)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let shape = self
            .cached_shape
            .as_ref()
            .expect("Reshape::backward called before forward");
        grad_out.reshape(shape)
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        Vec::new()
    }

    fn params(&self) -> Vec<&Param> {
        Vec::new()
    }

    fn name(&self) -> &'static str {
        "Reshape"
    }

    fn output_shape(&self, input_shape: &[usize]) -> Vec<usize> {
        let n_in: usize = input_shape.iter().product();
        let n_out: usize = self.target.iter().product();
        assert_eq!(n_in, n_out, "Reshape {input_shape:?} -> {:?}", self.target);
        self.target.clone()
    }

    fn save(&self) -> LayerSnapshot {
        let mut snap = LayerSnapshot::new("Reshape").with_usize("rank", self.target.len());
        for (i, &d) in self.target.iter().enumerate() {
            let key = match i {
                0 => "d0",
                1 => "d1",
                2 => "d2",
                3 => "d3",
                _ => panic!("reshape rank > 4 unsupported"),
            };
            snap = snap.with_usize(key, d);
        }
        snap
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flatten_roundtrip() {
        let mut f = Flatten::new();
        let x = Tensor::from_vec((0..24).map(|i| i as f32).collect(), &[2, 3, 4]);
        let y = f.forward(&x);
        assert_eq!(y.shape(), &[2, 12]);
        let back = f.backward(&y);
        assert_eq!(back, x);
    }

    #[test]
    fn reshape_roundtrip() {
        let mut r = Reshape::new(&[3, 2, 1]);
        let x = Tensor::from_vec((0..12).map(|i| i as f32).collect(), &[2, 6]);
        let y = r.forward(&x);
        assert_eq!(y.shape(), &[2, 3, 2, 1]);
        let back = r.backward(&y);
        assert_eq!(back, x);
    }

    #[test]
    fn reshape_snapshot_roundtrip() {
        let r = Reshape::new(&[5, 6, 2]);
        let snap = r.save();
        let r2 = Reshape::from_snapshot(&snap).unwrap();
        assert_eq!(r2.target, vec![5, 6, 2]);
    }

    #[test]
    fn output_shapes() {
        let f = Flatten::new();
        assert_eq!(f.output_shape(&[3, 4, 2]), vec![24]);
        let r = Reshape::new(&[4, 6]);
        assert_eq!(r.output_shape(&[24]), vec![4, 6]);
    }

    #[test]
    #[should_panic(expected = "Reshape")]
    fn reshape_bad_count_panics() {
        let r = Reshape::new(&[4, 6]);
        let _ = r.output_shape(&[23]);
    }
}
