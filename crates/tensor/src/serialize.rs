//! Flat binary model serialization.
//!
//! VehiGAN trains a zoo of up to 60 WGANs offline (training phase) and ships
//! only the selected critics to the OBU/RSU (testing phase). This module
//! provides the wire format for that hand-off: a small self-describing
//! binary layout (`VGAN` magic + version + layer snapshots) with no
//! third-party dependencies.

use crate::Tensor;
use std::fmt;
use std::io::{self, Read, Write};

/// Magic bytes identifying a VehiGAN model file.
pub(crate) const MAGIC: &[u8; 4] = b"VGAN";
/// Current wire-format version.
pub(crate) const VERSION: u32 = 1;

/// Error parsing or writing a serialized model.
#[derive(Debug)]
pub enum ModelFormatError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The magic bytes did not match `MAGIC`.
    BadMagic,
    /// Unsupported wire-format version.
    BadVersion(u32),
    /// A layer kind string was not recognized by the loader.
    UnknownLayer(String),
    /// A required attribute or tensor was missing.
    MissingField(&'static str),
    /// Structural corruption (lengths, shapes, UTF-8).
    Corrupt(&'static str),
    /// The model loaded, but is not a stack the fused scoring walk runs
    /// ([`crate::CriticScratch::fit`] names the offending layer).
    NotACritic(String),
    /// A tensor held a non-finite (NaN/Inf) value — a poisoned model that
    /// must never be loaded into a scoring path.
    NonFinite {
        /// Flat element index of the first offending value.
        index: usize,
    },
}

impl fmt::Display for ModelFormatError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelFormatError::Io(e) => write!(f, "i/o error: {e}"),
            ModelFormatError::BadMagic => write!(f, "not a VehiGAN model file (bad magic)"),
            ModelFormatError::BadVersion(v) => write!(f, "unsupported model format version {v}"),
            ModelFormatError::UnknownLayer(k) => write!(f, "unknown layer kind `{k}`"),
            ModelFormatError::MissingField(k) => write!(f, "missing field `{k}`"),
            ModelFormatError::Corrupt(what) => write!(f, "corrupt model file: {what}"),
            ModelFormatError::NotACritic(what) => {
                write!(f, "not a critic the scoring walk runs ({what})")
            }
            ModelFormatError::NonFinite { index } => {
                write!(
                    f,
                    "non-finite tensor value at element {index} (poisoned model)"
                )
            }
        }
    }
}

impl std::error::Error for ModelFormatError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ModelFormatError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for ModelFormatError {
    fn from(e: io::Error) -> Self {
        ModelFormatError::Io(e)
    }
}

/// A serializable snapshot of one layer: kind + scalar attributes + weight
/// tensors.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerSnapshot {
    /// Layer kind tag, e.g. `"Dense"`, `"Conv2D"`.
    pub kind: String,
    /// Integer hyperparameters (`in_dim`, `kernel`, …) by name.
    pub usize_attrs: Vec<(String, usize)>,
    /// Float hyperparameters (`alpha`, …) by name.
    pub f32_attrs: Vec<(String, f32)>,
    /// Weight tensors by name.
    pub tensors: Vec<(String, Tensor)>,
}

impl LayerSnapshot {
    /// Creates an empty snapshot of the given kind.
    pub(crate) fn new(kind: &str) -> Self {
        LayerSnapshot {
            kind: kind.to_string(),
            usize_attrs: Vec::new(),
            f32_attrs: Vec::new(),
            tensors: Vec::new(),
        }
    }

    /// Adds an integer attribute (builder style).
    pub(crate) fn with_usize(mut self, key: &str, v: usize) -> Self {
        self.usize_attrs.push((key.to_string(), v));
        self
    }

    /// Adds a float attribute (builder style).
    pub(crate) fn with_f32(mut self, key: &str, v: f32) -> Self {
        self.f32_attrs.push((key.to_string(), v));
        self
    }

    /// Adds a named tensor (builder style).
    pub(crate) fn with_tensor(mut self, key: &str, t: Tensor) -> Self {
        self.tensors.push((key.to_string(), t));
        self
    }

    /// Looks up an integer attribute.
    pub fn usize_attr(&self, key: &'static str) -> Result<usize, ModelFormatError> {
        self.usize_attrs
            .iter()
            .find(|(k, _)| k == key)
            .map(|&(_, v)| v)
            .ok_or(ModelFormatError::MissingField(key))
    }

    /// Looks up a float attribute.
    pub fn f32_attr(&self, key: &'static str) -> Result<f32, ModelFormatError> {
        self.f32_attrs
            .iter()
            .find(|(k, _)| k == key)
            .map(|&(_, v)| v)
            .ok_or(ModelFormatError::MissingField(key))
    }

    /// Looks up a named tensor.
    pub fn tensor(&self, key: &'static str) -> Result<&Tensor, ModelFormatError> {
        self.tensors
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, t)| t)
            .ok_or(ModelFormatError::MissingField(key))
    }
}

/// A serializable snapshot of a whole model (ordered layer snapshots).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ModelSnapshot {
    /// Layer snapshots in forward order.
    pub layers: Vec<LayerSnapshot>,
}

fn write_str(w: &mut impl Write, s: &str) -> io::Result<()> {
    w.write_all(&(s.len() as u32).to_le_bytes())?;
    w.write_all(s.as_bytes())
}

fn read_str(r: &mut impl Read) -> Result<String, ModelFormatError> {
    let mut len4 = [0u8; 4];
    r.read_exact(&mut len4)?;
    let len = u32::from_le_bytes(len4) as usize;
    if len > 1 << 20 {
        return Err(ModelFormatError::Corrupt("string too long"));
    }
    let mut buf = vec![0u8; len];
    r.read_exact(&mut buf)?;
    String::from_utf8(buf).map_err(|_| ModelFormatError::Corrupt("invalid utf-8"))
}

/// Writes one tensor (u32 rank, u64 dims, f32 LE values) to `w`.
///
/// Exposed so higher layers (optimizer/checkpoint state) can reuse the exact
/// model wire encoding; round-trips bitwise with [`read_tensor`].
pub(crate) fn write_tensor(w: &mut impl Write, t: &Tensor) -> io::Result<()> {
    w.write_all(&(t.shape().len() as u32).to_le_bytes())?;
    for &d in t.shape() {
        w.write_all(&(d as u64).to_le_bytes())?;
    }
    for &v in t.as_slice() {
        w.write_all(&v.to_le_bytes())?;
    }
    Ok(())
}

/// Reads one tensor written by [`write_tensor`], rejecting non-finite
/// values, ranks above 8, and element counts above `1 << 28`.
pub(crate) fn read_tensor(r: &mut impl Read) -> Result<Tensor, ModelFormatError> {
    let mut len4 = [0u8; 4];
    r.read_exact(&mut len4)?;
    let ndim = u32::from_le_bytes(len4) as usize;
    if ndim > 8 {
        return Err(ModelFormatError::Corrupt("tensor rank too large"));
    }
    let mut shape = Vec::with_capacity(ndim);
    for _ in 0..ndim {
        let mut d8 = [0u8; 8];
        r.read_exact(&mut d8)?;
        shape.push(u64::from_le_bytes(d8) as usize);
    }
    let n: usize = shape.iter().product();
    if n > 1 << 28 {
        return Err(ModelFormatError::Corrupt("tensor too large"));
    }
    let mut data = Vec::with_capacity(n);
    let mut f4 = [0u8; 4];
    for i in 0..n {
        r.read_exact(&mut f4)?;
        let v = f32::from_le_bytes(f4);
        // A NaN/Inf weight silently corrupts every downstream score; a
        // diverged trainer or a bit flip must surface as a typed error.
        if !v.is_finite() {
            return Err(ModelFormatError::NonFinite { index: i });
        }
        data.push(v);
    }
    Ok(Tensor::from_vec(data, &shape))
}

impl ModelSnapshot {
    /// Writes the snapshot in the flat binary format.
    ///
    /// # Errors
    ///
    /// Returns an error if the underlying writer fails.
    pub(crate) fn write_to(&self, w: &mut impl Write) -> Result<(), ModelFormatError> {
        w.write_all(MAGIC)?;
        w.write_all(&VERSION.to_le_bytes())?;
        w.write_all(&(self.layers.len() as u32).to_le_bytes())?;
        for layer in &self.layers {
            write_str(w, &layer.kind)?;
            w.write_all(&(layer.usize_attrs.len() as u32).to_le_bytes())?;
            for (k, v) in &layer.usize_attrs {
                write_str(w, k)?;
                w.write_all(&(*v as u64).to_le_bytes())?;
            }
            w.write_all(&(layer.f32_attrs.len() as u32).to_le_bytes())?;
            for (k, v) in &layer.f32_attrs {
                write_str(w, k)?;
                w.write_all(&v.to_le_bytes())?;
            }
            w.write_all(&(layer.tensors.len() as u32).to_le_bytes())?;
            for (k, t) in &layer.tensors {
                write_str(w, k)?;
                write_tensor(w, t)?;
            }
        }
        Ok(())
    }

    /// Reads a snapshot from the flat binary format.
    ///
    /// # Errors
    ///
    /// Returns an error on I/O failure, bad magic/version, or corruption.
    pub(crate) fn read_from(r: &mut impl Read) -> Result<Self, ModelFormatError> {
        let mut magic = [0u8; 4];
        r.read_exact(&mut magic)?;
        if &magic != MAGIC {
            return Err(ModelFormatError::BadMagic);
        }
        let mut v4 = [0u8; 4];
        r.read_exact(&mut v4)?;
        let version = u32::from_le_bytes(v4);
        if version != VERSION {
            return Err(ModelFormatError::BadVersion(version));
        }
        let mut n4 = [0u8; 4];
        r.read_exact(&mut n4)?;
        let n_layers = u32::from_le_bytes(n4) as usize;
        if n_layers > 4096 {
            return Err(ModelFormatError::Corrupt("too many layers"));
        }
        let mut layers = Vec::with_capacity(n_layers);
        for _ in 0..n_layers {
            let kind = read_str(r)?;
            let mut snap = LayerSnapshot::new(&kind);
            r.read_exact(&mut n4)?;
            for _ in 0..u32::from_le_bytes(n4) {
                let k = read_str(r)?;
                let mut v8 = [0u8; 8];
                r.read_exact(&mut v8)?;
                snap.usize_attrs.push((k, u64::from_le_bytes(v8) as usize));
            }
            r.read_exact(&mut n4)?;
            for _ in 0..u32::from_le_bytes(n4) {
                let k = read_str(r)?;
                let mut f4 = [0u8; 4];
                r.read_exact(&mut f4)?;
                snap.f32_attrs.push((k, f32::from_le_bytes(f4)));
            }
            r.read_exact(&mut n4)?;
            for _ in 0..u32::from_le_bytes(n4) {
                let k = read_str(r)?;
                let t = read_tensor(r)?;
                snap.tensors.push((k, t));
            }
            layers.push(snap);
        }
        Ok(ModelSnapshot { layers })
    }

    /// Serializes to an in-memory byte vector.
    pub(crate) fn to_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        self.write_to(&mut buf)
            .expect("writing to a Vec cannot fail");
        buf
    }

    /// Deserializes from an in-memory byte slice.
    ///
    /// # Errors
    ///
    /// Returns an error on bad magic/version or corruption.
    pub fn from_bytes(mut bytes: &[u8]) -> Result<Self, ModelFormatError> {
        Self::read_from(&mut bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_snapshot() -> ModelSnapshot {
        ModelSnapshot {
            layers: vec![
                LayerSnapshot::new("Dense")
                    .with_usize("in_dim", 4)
                    .with_usize("out_dim", 2)
                    .with_tensor("w", Tensor::from_vec(vec![0.5; 8], &[4, 2]))
                    .with_tensor("b", Tensor::zeros(&[2])),
                LayerSnapshot::new("LeakyReLU").with_f32("alpha", 0.2),
            ],
        }
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let snap = sample_snapshot();
        let bytes = snap.to_bytes();
        let back = ModelSnapshot::from_bytes(&bytes).unwrap();
        assert_eq!(snap, back);
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = sample_snapshot().to_bytes();
        bytes[0] = b'X';
        assert!(matches!(
            ModelSnapshot::from_bytes(&bytes),
            Err(ModelFormatError::BadMagic)
        ));
    }

    #[test]
    fn bad_version_rejected() {
        let mut bytes = sample_snapshot().to_bytes();
        bytes[4] = 99;
        assert!(matches!(
            ModelSnapshot::from_bytes(&bytes),
            Err(ModelFormatError::BadVersion(99))
        ));
    }

    #[test]
    fn truncated_file_is_io_error() {
        let bytes = sample_snapshot().to_bytes();
        let truncated = &bytes[..bytes.len() / 2];
        assert!(matches!(
            ModelSnapshot::from_bytes(truncated),
            Err(ModelFormatError::Io(_))
        ));
    }

    #[test]
    fn non_finite_tensor_values_rejected() {
        for poison in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            let snap = ModelSnapshot {
                layers: vec![LayerSnapshot::new("Dense")
                    .with_tensor("w", Tensor::from_vec(vec![0.5, poison, 0.25], &[3]))],
            };
            // Serialize through the raw writer (to_bytes works on any value);
            // deserialization must refuse to load the poisoned weight.
            let bytes = snap.to_bytes();
            assert!(matches!(
                ModelSnapshot::from_bytes(&bytes),
                Err(ModelFormatError::NonFinite { index: 1 })
            ));
        }
    }

    #[test]
    fn attr_lookup() {
        let snap = sample_snapshot();
        assert_eq!(snap.layers[0].usize_attr("in_dim").unwrap(), 4);
        assert!(snap.layers[0].usize_attr("missing").is_err());
        assert_eq!(snap.layers[1].f32_attr("alpha").unwrap(), 0.2);
        assert_eq!(snap.layers[0].tensor("b").unwrap().len(), 2);
    }

    #[test]
    fn error_display_is_lowercase_and_informative() {
        let msg = ModelFormatError::UnknownLayer("Foo".into()).to_string();
        assert!(msg.contains("Foo"));
        assert!(msg.starts_with(char::is_lowercase));
    }
}
