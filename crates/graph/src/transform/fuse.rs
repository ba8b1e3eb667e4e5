//! The *fuse* transformation: separate embedding-bag ops → one batched
//! embedding op (Fig. 11 of the paper).
//!
//! Left side of Fig. 11: `T` individual `embedding_bag` ops, each with its
//! own host overheads, feeding a `cat`. Right side: one fused
//! `batched_embedding` op producing the concatenated output directly. The
//! fusion removes `T − 1` op overheads plus the whole `cat`, and replaces
//! `T` small kernels with one large one — the speedup the performance model
//! is asked to predict without running anything.

use crate::graph::{Graph, Node, NodeId};
use crate::op::OpKind;
use crate::tensor::TensorMeta;
use crate::transform::TransformError;

/// What a call to [`fuse_embedding_bags`] did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FusionReport {
    /// Number of forward `embedding_bag` ops fused away.
    pub forward_bags_fused: usize,
    /// Number of backward ops fused away.
    pub backward_bags_fused: usize,
    /// Whether the downstream `cat` op was absorbed.
    pub cat_removed: bool,
    /// Whether the upstream `CatBackward` op was absorbed.
    pub cat_backward_removed: bool,
}

fn mean_u64(vals: &[u64]) -> u64 {
    (vals.iter().sum::<u64>() as f64 / vals.len() as f64)
        .round()
        .max(1.0) as u64
}

/// Fuses all `EmbeddingBag` ops that feed a common `Cat` into one
/// `BatchedEmbedding` op, and (if present) the matching
/// `EmbeddingBagBackward` group fed by a common `CatBackward` into one
/// `BatchedEmbeddingBackward`.
///
/// Per-table row counts and lookup counts may differ; the fused op uses
/// their means, exactly as the paper's performance model does for the
/// MLPerf model's non-constant table sizes.
///
/// # Errors
/// * [`TransformError::NothingToTransform`] if fewer than two forward bags
///   exist;
/// * [`TransformError::Precondition`] if the bags do not share one `Cat`
///   consumer or disagree on embedding dimension / batch size.
pub fn fuse_embedding_bags(graph: &mut Graph) -> Result<FusionReport, TransformError> {
    let fwd_ids: Vec<NodeId> = graph
        .nodes()
        .iter()
        .filter(|n| n.op == OpKind::EmbeddingBag)
        .map(|n| n.id)
        .collect();
    if fwd_ids.len() < 2 {
        return Err(TransformError::NothingToTransform(format!(
            "found {} embedding_bag op(s); need at least 2",
            fwd_ids.len()
        )));
    }

    // --- Forward group: all bags must feed one Cat. ---
    let mut cat_id: Option<NodeId> = None;
    for &id in &fwd_ids {
        let out = graph.node(id).expect("fwd id valid").outputs[0];
        let consumers = graph.consumers(out);
        let cat = consumers
            .iter()
            .find(|&&c| {
                matches!(
                    graph.node(c).expect("consumer valid").op,
                    OpKind::Cat { .. }
                )
            })
            .copied()
            .ok_or_else(|| {
                TransformError::Precondition("an embedding_bag output does not feed a cat".into())
            })?;
        match cat_id {
            None => cat_id = Some(cat),
            Some(prev) if prev != cat => {
                return Err(TransformError::Precondition(
                    "embedding_bag ops feed different cat ops".into(),
                ));
            }
            _ => {}
        }
    }
    let cat_id = cat_id.expect("at least two bags checked");

    // Collect per-table parameters.
    let mut e_rows = Vec::new();
    let mut lookups = Vec::new();
    let mut dims = Vec::new();
    let mut batches = Vec::new();
    for &id in &fwd_ids {
        let n = graph.node(id).expect("valid").clone();
        let w = graph.tensor(n.inputs[0]);
        let idx = graph.tensor(n.inputs[1]);
        if w.shape.len() != 2 || idx.shape.len() != 2 {
            return Err(TransformError::Precondition(format!(
                "embedding_bag `{}` has unexpected ranks",
                n.name
            )));
        }
        e_rows.push(w.shape[0]);
        dims.push(w.shape[1]);
        batches.push(idx.shape[0]);
        lookups.push(idx.shape[1]);
    }
    if dims.windows(2).any(|w| w[0] != w[1]) {
        return Err(TransformError::Precondition(
            "embedding dims differ across tables".into(),
        ));
    }
    if batches.windows(2).any(|w| w[0] != w[1]) {
        return Err(TransformError::Precondition(
            "batch sizes differ across tables".into(),
        ));
    }
    let (t, d, b) = (fwd_ids.len() as u64, dims[0], batches[0]);
    let e_avg = mean_u64(&e_rows);
    let l_avg = mean_u64(&lookups);

    let cat_out = graph.node(cat_id).expect("cat valid").outputs[0];

    // --- Backward group (optional): bags' backward fed by one CatBackward. ---
    let bwd_ids: Vec<NodeId> = graph
        .nodes()
        .iter()
        .filter(|n| n.op == OpKind::EmbeddingBagBackward)
        .map(|n| n.id)
        .collect();
    let mut cat_bwd_id: Option<NodeId> = None;
    if bwd_ids.len() == fwd_ids.len() {
        let mut common: Option<NodeId> = None;
        let mut ok = true;
        for &id in &bwd_ids {
            let n = graph.node(id).expect("valid");
            let grad_in = n.inputs[0];
            match graph.producer(grad_in) {
                Some(p)
                    if matches!(
                        graph.node(p).expect("producer valid").op,
                        OpKind::CatBackward { .. }
                    ) =>
                {
                    if common.is_none() {
                        common = Some(p);
                    } else if common != Some(p) {
                        ok = false;
                    }
                }
                _ => ok = false,
            }
        }
        if ok {
            cat_bwd_id = common;
        }
    }

    // --- Rebuild the node list. ---
    let fused_w = graph.add_tensor(TensorMeta::weight(&[t, e_avg, d]));
    let fused_idx = graph.add_tensor({
        let mut m = TensorMeta::index(&[t, b, l_avg]);
        m.batch_dim = Some(1);
        m
    });

    let mut fused_bwd_grad: Option<(crate::TensorId, crate::TensorId)> = None;
    if let Some(cb) = cat_bwd_id {
        let grad_src = graph.node(cb).expect("valid").inputs[0];
        fused_bwd_grad = Some((grad_src, fused_idx));
    }

    let skip_fwd: Vec<NodeId> = fwd_ids.iter().copied().chain([cat_id]).collect();
    let skip_bwd: Vec<NodeId> = if cat_bwd_id.is_some() {
        bwd_ids.iter().copied().chain(cat_bwd_id).collect()
    } else {
        Vec::new()
    };

    let first_fwd = fwd_ids.iter().map(|id| id.0).min().expect("non-empty");
    let first_bwd = skip_bwd.iter().map(|id| id.0).min();

    let old_nodes: Vec<Node> = graph.nodes().to_vec();
    let mut new_nodes: Vec<Node> = Vec::with_capacity(old_nodes.len());
    let mut fwd_count = 0usize;
    let mut bwd_count = 0usize;
    for n in old_nodes {
        if n.id.0 == first_fwd {
            // Insert the fused forward op where the first bag ran; it
            // produces the cat's output tensor directly (Fig. 11 right).
            new_nodes.push(Node {
                id: NodeId(0), // re-indexed by set_nodes
                uid: 0,        // assigned by set_nodes
                name: "batched_embedding".into(),
                op: OpKind::BatchedEmbedding,
                inputs: vec![fused_w, fused_idx],
                outputs: vec![cat_out],
                stream: 0,
            });
        }
        if Some(n.id.0) == first_bwd {
            let (grad_src, idx) = fused_bwd_grad.expect("first_bwd implies fused grad");
            new_nodes.push(Node {
                id: NodeId(0),
                uid: 0,
                name: "batched_embedding_backward".into(),
                op: OpKind::BatchedEmbeddingBackward,
                inputs: vec![fused_w, idx, grad_src],
                outputs: vec![],
                stream: 0,
            });
        }
        if skip_fwd.contains(&n.id) {
            fwd_count += usize::from(n.op == OpKind::EmbeddingBag);
            continue;
        }
        if skip_bwd.contains(&n.id) {
            bwd_count += usize::from(n.op == OpKind::EmbeddingBagBackward);
            continue;
        }
        new_nodes.push(n);
    }
    graph.set_nodes(new_nodes);

    // BatchedEmbedding reads the fused weights (t, e, d) but lowering only
    // needs e; validation keeps the graph structurally sound.
    graph
        .validate()
        .map_err(|e| TransformError::DependencyViolation(e.to_string()))?;

    Ok(FusionReport {
        forward_bags_fused: fwd_count,
        backward_bags_fused: bwd_count,
        cat_removed: true,
        cat_backward_removed: cat_bwd_id.is_some(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower;

    /// Builds: T embedding bags -> cat -> relu, plus the backward chain
    /// relu_bwd -> cat_bwd -> T bag backwards.
    fn bags_graph(t: usize, b: u64, e: u64, l: u64, d: u64) -> Graph {
        let mut g = Graph::new("bags");
        let mut outs = Vec::new();
        let mut weights = Vec::new();
        let mut idxs = Vec::new();
        for i in 0..t {
            let w = g.add_tensor(TensorMeta::weight(&[e, d]));
            let idx = g.add_tensor(TensorMeta::index(&[b, l]).with_batch_dim(0));
            let o = g.add_tensor(TensorMeta::activation(&[b, d]).with_batch_dim(0));
            g.add_node(
                format!("embedding_bag_{i}"),
                OpKind::EmbeddingBag,
                vec![w, idx],
                vec![o],
            );
            outs.push(o);
            weights.push(w);
            idxs.push(idx);
        }
        let cat_out = g.add_tensor(TensorMeta::activation(&[b, t as u64 * d]).with_batch_dim(0));
        g.add_op(OpKind::Cat { dim: 1 }, outs.clone(), vec![cat_out]);
        let act = g.add_tensor(TensorMeta::activation(&[b, t as u64 * d]).with_batch_dim(0));
        g.add_op(OpKind::Relu, vec![cat_out], vec![act]);

        // Backward.
        let grad_act = g.add_tensor(TensorMeta::activation(&[b, t as u64 * d]).with_batch_dim(0));
        let grad_cat = g.add_tensor(TensorMeta::activation(&[b, t as u64 * d]).with_batch_dim(0));
        g.add_op(OpKind::ReluBackward, vec![grad_act], vec![grad_cat]);
        let mut grad_slices = Vec::new();
        for _ in 0..t {
            let s = g.add_tensor(TensorMeta::activation(&[b, d]).with_batch_dim(0));
            grad_slices.push(s);
        }
        g.add_op(
            OpKind::CatBackward { dim: 1 },
            vec![grad_cat],
            grad_slices.clone(),
        );
        for i in 0..t {
            g.add_node(
                format!("embedding_bag_backward_{i}"),
                OpKind::EmbeddingBagBackward,
                vec![grad_slices[i], weights[i], idxs[i]],
                vec![],
            );
        }
        g
    }

    #[test]
    fn fuse_replaces_bags_and_cat() {
        let mut g = bags_graph(8, 512, 10_000, 10, 64);
        let before_nodes = g.node_count();
        let report = fuse_embedding_bags(&mut g).unwrap();
        assert_eq!(report.forward_bags_fused, 8);
        assert_eq!(report.backward_bags_fused, 8);
        assert!(report.cat_removed && report.cat_backward_removed);
        // 8 bags + cat -> 1 fused ; 8 bwd + cat_bwd -> 1 fused.
        assert_eq!(g.node_count(), before_nodes - 8 - 8);
        assert!(g.validate().is_ok());
    }

    #[test]
    fn fused_graph_lowers_to_batched_kernels() {
        let mut g = bags_graph(4, 256, 50_000, 5, 32);
        fuse_embedding_bags(&mut g).unwrap();
        let fused = g
            .nodes()
            .iter()
            .find(|n| n.op == OpKind::BatchedEmbedding)
            .expect("fused node present");
        let ks = lower::kernels(&g, fused);
        assert_eq!(
            ks,
            vec![dlperf_gpusim::KernelSpec::embedding_forward(
                256, 50_000, 4, 5, 32
            )]
        );
    }

    #[test]
    fn single_bag_not_fusable() {
        let mut g = bags_graph(1, 64, 100, 2, 8);
        assert!(matches!(
            fuse_embedding_bags(&mut g),
            Err(TransformError::NothingToTransform(_))
        ));
    }

    #[test]
    fn uneven_tables_use_mean_sizes() {
        // Two tables with different row counts; mean should be used.
        let mut g = Graph::new("uneven");
        let mut outs = Vec::new();
        for e in [100u64, 300] {
            let w = g.add_tensor(TensorMeta::weight(&[e, 16]));
            let idx = g.add_tensor(TensorMeta::index(&[32, 4]).with_batch_dim(0));
            let o = g.add_tensor(TensorMeta::activation(&[32, 16]).with_batch_dim(0));
            g.add_op(OpKind::EmbeddingBag, vec![w, idx], vec![o]);
            outs.push(o);
        }
        let cat_out = g.add_tensor(TensorMeta::activation(&[32, 32]).with_batch_dim(0));
        g.add_op(OpKind::Cat { dim: 1 }, outs, vec![cat_out]);
        fuse_embedding_bags(&mut g).unwrap();
        let fused = g
            .nodes()
            .iter()
            .find(|n| n.op == OpKind::BatchedEmbedding)
            .unwrap();
        let w = g.tensor(fused.inputs[0]);
        assert_eq!(w.shape, vec![2, 200, 16]);
    }

    #[test]
    fn dim_mismatch_rejected() {
        let mut g = Graph::new("mismatch");
        let mut outs = Vec::new();
        for d in [16u64, 32] {
            let w = g.add_tensor(TensorMeta::weight(&[100, d]));
            let idx = g.add_tensor(TensorMeta::index(&[32, 4]).with_batch_dim(0));
            let o = g.add_tensor(TensorMeta::activation(&[32, d]).with_batch_dim(0));
            g.add_op(OpKind::EmbeddingBag, vec![w, idx], vec![o]);
            outs.push(o);
        }
        let cat_out = g.add_tensor(TensorMeta::activation(&[32, 48]).with_batch_dim(0));
        g.add_op(OpKind::Cat { dim: 1 }, outs, vec![cat_out]);
        assert!(matches!(
            fuse_embedding_bags(&mut g),
            Err(TransformError::Precondition(_))
        ));
    }
}
