//! Tensor metadata: shapes, element types, and roles.
//!
//! The execution graph stores only metadata, never data — exactly what the
//! paper's observer captures and what the performance model needs. The
//! `batch_dim` annotation is what makes the *resize* transformation (change
//! the batch size of a captured graph) a pure metadata rewrite.

use serde::{Deserialize, Serialize};

/// Element type of a tensor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DType {
    /// 32-bit float (all weights/activations in the paper's benchmarks).
    F32,
    /// 64-bit integer (embedding indices and offsets).
    I64,
}

impl DType {
    /// Size of one element in bytes.
    pub fn size_bytes(self) -> u64 {
        match self {
            DType::F32 => 4,
            DType::I64 => 8,
        }
    }
}

/// Role of a tensor in the training iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TensorKind {
    /// Learned parameter: unaffected by batch-size changes.
    Weight,
    /// Activation / gradient: carries the batch dimension.
    Activation,
    /// Integer index stream (sparse feature input).
    Index,
}

/// Opaque handle to a tensor inside a [`crate::Graph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct TensorId(pub usize);

/// Shape, dtype, and role metadata of one tensor.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct TensorMeta {
    /// Dimensions, outermost first.
    pub shape: Vec<u64>,
    /// Element type.
    pub dtype: DType,
    /// Role (weight / activation / index).
    pub kind: TensorKind,
    /// Which dimension is the batch dimension, if any. Only tensors with a
    /// batch dimension are rescaled by the *resize* transformation.
    pub batch_dim: Option<usize>,
}

impl TensorMeta {
    /// A new FP32 activation tensor (no batch dimension annotated yet).
    pub fn activation(shape: &[u64]) -> Self {
        TensorMeta {
            shape: shape.to_vec(),
            dtype: DType::F32,
            kind: TensorKind::Activation,
            batch_dim: None,
        }
    }

    /// A new FP32 weight tensor.
    pub fn weight(shape: &[u64]) -> Self {
        TensorMeta {
            shape: shape.to_vec(),
            dtype: DType::F32,
            kind: TensorKind::Weight,
            batch_dim: None,
        }
    }

    /// A new I64 index tensor.
    pub fn index(shape: &[u64]) -> Self {
        TensorMeta {
            shape: shape.to_vec(),
            dtype: DType::I64,
            kind: TensorKind::Index,
            batch_dim: None,
        }
    }

    /// Annotates the batch dimension (builder style).
    ///
    /// # Panics
    /// Panics if `dim` is out of range for the shape.
    pub fn with_batch_dim(mut self, dim: usize) -> Self {
        assert!(
            dim < self.shape.len(),
            "batch_dim {dim} out of range for shape {:?}",
            self.shape
        );
        self.batch_dim = Some(dim);
        self
    }

    /// Number of elements.
    pub fn numel(&self) -> u64 {
        self.shape.iter().product()
    }

    /// Total size in bytes.
    pub fn bytes(&self) -> u64 {
        self.numel() * self.dtype.size_bytes()
    }

    /// Size of the batch dimension, if annotated.
    pub fn batch_size(&self) -> Option<u64> {
        self.batch_dim.map(|d| self.shape[d])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numel_and_bytes() {
        let t = TensorMeta::activation(&[64, 128]);
        assert_eq!(t.numel(), 8192);
        assert_eq!(t.bytes(), 32_768);
        let i = TensorMeta::index(&[64, 10]);
        assert_eq!(i.bytes(), 64 * 10 * 8);
    }

    #[test]
    fn scalar_tensor_numel_is_one() {
        let t = TensorMeta::activation(&[]);
        assert_eq!(t.numel(), 1);
    }

    #[test]
    fn batch_dim_annotation() {
        let t = TensorMeta::activation(&[2, 64, 16]).with_batch_dim(1);
        assert_eq!(t.batch_size(), Some(64));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn batch_dim_out_of_range_panics() {
        TensorMeta::activation(&[4]).with_batch_dim(3);
    }

    #[test]
    fn serde_roundtrip() {
        let t = TensorMeta::weight(&[100, 64]);
        let s = serde_json::to_string(&t).unwrap();
        assert_eq!(serde_json::from_str::<TensorMeta>(&s).unwrap(), t);
    }
}
