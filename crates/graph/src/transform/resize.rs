//! The *resize* transformation: change the batch size of a captured graph.
//!
//! The paper: "it is straightforward to change metadata of tensor shapes of
//! selected ops and their parent and child nodes in the graph for resize".
//! Because every batch-carrying tensor is annotated with its batch
//! dimension, resizing is a pure metadata rewrite — no node surgery needed.

use crate::graph::Graph;
use crate::tensor::TensorId;
use crate::transform::TransformError;

/// Rescales every batch-annotated tensor of `graph` to `new_batch`.
///
/// Returns the previous batch size.
///
/// # Errors
/// * [`TransformError::NothingToTransform`] if no tensor carries a batch
///   dimension;
/// * [`TransformError::Precondition`] if batch-annotated tensors disagree on
///   the current batch size (a malformed graph) or `new_batch` is zero.
pub fn resize_batch(graph: &mut Graph, new_batch: u64) -> Result<u64, TransformError> {
    if new_batch == 0 {
        return Err(TransformError::Precondition(
            "batch size must be positive".into(),
        ));
    }
    let mut old: Option<u64> = None;
    for (_, t) in graph.tensors() {
        if let Some(b) = t.batch_size() {
            match old {
                None => old = Some(b),
                Some(prev) if prev != b => {
                    return Err(TransformError::Precondition(format!(
                        "inconsistent batch sizes in graph: {prev} vs {b}"
                    )));
                }
                _ => {}
            }
        }
    }
    let old = old.ok_or_else(|| {
        TransformError::NothingToTransform("no tensor carries a batch dimension".into())
    })?;

    // The first `tensor_mut` copies a shared tensor table; the node table
    // stays shared.
    for i in 0..graph.tensor_count() {
        if let Some(dim) = graph.tensor(TensorId(i)).batch_dim {
            graph.tensor_mut(TensorId(i)).shape[dim] = new_batch;
        }
    }
    Ok(old)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::OpKind;
    use crate::tensor::TensorMeta;

    fn graph_with_batch(b: u64) -> Graph {
        let mut g = Graph::new("t");
        let x = g.add_tensor(TensorMeta::activation(&[b, 64]).with_batch_dim(0));
        let w = g.add_tensor(TensorMeta::weight(&[128, 64]));
        let bias = g.add_tensor(TensorMeta::weight(&[128]));
        let y = g.add_tensor(TensorMeta::activation(&[b, 128]).with_batch_dim(0));
        g.add_op(OpKind::AddMm, vec![x, w, bias], vec![y]);
        g
    }

    #[test]
    fn resize_rescales_activations_not_weights() {
        let mut g = graph_with_batch(256);
        let old = resize_batch(&mut g, 1024).unwrap();
        assert_eq!(old, 256);
        assert_eq!(g.tensor(crate::TensorId(0)).shape, vec![1024, 64]);
        assert_eq!(g.tensor(crate::TensorId(1)).shape, vec![128, 64]); // weight untouched
        assert_eq!(g.tensor(crate::TensorId(3)).shape, vec![1024, 128]);
        assert!(g.validate().is_ok());
    }

    #[test]
    fn resize_changes_lowered_kernels() {
        let mut g = graph_with_batch(256);
        let before = crate::lower::kernels(&g, &g.nodes()[0].clone());
        resize_batch(&mut g, 512).unwrap();
        let after = crate::lower::kernels(&g, &g.nodes()[0].clone());
        assert_ne!(before, after);
    }

    #[test]
    fn zero_batch_rejected() {
        let mut g = graph_with_batch(256);
        assert!(matches!(
            resize_batch(&mut g, 0),
            Err(TransformError::Precondition(_))
        ));
    }

    #[test]
    fn graph_without_batch_dims_rejected() {
        let mut g = Graph::new("t");
        g.add_tensor(TensorMeta::weight(&[4, 4]));
        assert!(matches!(
            resize_batch(&mut g, 8),
            Err(TransformError::NothingToTransform(_))
        ));
    }

    #[test]
    fn inconsistent_batches_rejected() {
        let mut g = Graph::new("t");
        g.add_tensor(TensorMeta::activation(&[8, 4]).with_batch_dim(0));
        g.add_tensor(TensorMeta::activation(&[16, 4]).with_batch_dim(0));
        assert!(matches!(
            resize_batch(&mut g, 8),
            Err(TransformError::Precondition(_))
        ));
    }

    #[test]
    fn resize_is_idempotent_at_same_batch() {
        let mut g = graph_with_batch(128);
        resize_batch(&mut g, 128).unwrap();
        assert_eq!(g.tensor(crate::TensorId(0)).shape, vec![128, 64]);
    }
}
