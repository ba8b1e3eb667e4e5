//! Cheap, non-mutating legality predicates over the transform catalog.
//!
//! The optimization-search layer (`dlperf-core`'s `search` module) must
//! enumerate *legal* moves without paying clone-and-try for every
//! candidate it considers. Each predicate here answers "would the
//! corresponding transform succeed — and actually change the graph?" by
//! running the same precondition checks the transform runs, against an
//! immutable graph. The transforms stay the source of truth; each
//! predicate mirrors the precondition section of its transform and the
//! tests below pin the two against each other.

use crate::graph::{Graph, GraphIndex};
use crate::op::OpKind;

/// Whether [`super::fuse_embedding_bags`] would succeed: at least two
/// `EmbeddingBag` ops, every bag's output feeding one common `Cat`, and
/// the tables agreeing on embedding dimension and batch size.
pub fn can_fuse_embedding_bags(graph: &Graph) -> bool {
    let fwd: Vec<_> = graph
        .nodes()
        .iter()
        .filter(|n| n.op == OpKind::EmbeddingBag)
        .map(|n| n.id)
        .collect();
    if fwd.len() < 2 {
        return false;
    }
    let mut cat_id = None;
    for &id in &fwd {
        let Ok(n) = graph.node(id) else { return false };
        let out = n.outputs[0];
        let cat = graph
            .consumers(out)
            .iter()
            .find(|&&c| matches!(graph.node(c).map(|n| &n.op), Ok(OpKind::Cat { .. })))
            .copied();
        match (cat, cat_id) {
            (None, _) => return false,
            (Some(c), None) => cat_id = Some(c),
            (Some(c), Some(prev)) if c != prev => return false,
            _ => {}
        }
    }
    let mut dims = Vec::new();
    let mut batches = Vec::new();
    for &id in &fwd {
        let n = graph.node(id).expect("fwd id valid");
        let w = graph.tensor(n.inputs[0]);
        let idx = graph.tensor(n.inputs[1]);
        if w.shape.len() != 2 || idx.shape.len() != 2 {
            return false;
        }
        dims.push(w.shape[1]);
        batches.push(idx.shape[0]);
    }
    dims.windows(2).all(|w| w[0] == w[1]) && batches.windows(2).all(|w| w[0] == w[1])
}

/// Whether hoisting the node at `position` via [`super::hoist_earliest`]
/// would actually move it: some slot strictly earlier than its current
/// one sits after all of its producers.
///
/// Producers come from the graph's cached [`GraphIndex`], which keeps a
/// tensor's first producer like [`Graph::producer`], so the answer is the
/// transform's on every graph, valid or not.
pub fn can_hoist(graph: &Graph, position: usize) -> bool {
    position < graph.node_count() && moves_on_hoist(graph, &graph.index(), position)
}

/// Positions whose hoist would move the node, ascending — the
/// deterministic enumeration order the search layer relies on. One index
/// lookup per input, so O(nodes + edges) once the index is built.
pub fn hoistable_nodes(graph: &Graph) -> Vec<usize> {
    let index = graph.index();
    (0..graph.node_count())
        .filter(|&i| moves_on_hoist(graph, &index, i))
        .collect()
}

/// [`can_hoist`] for an in-range `position`: the earliest legal slot,
/// right after the last producer of any input, lies before the node.
fn moves_on_hoist(graph: &Graph, index: &GraphIndex, position: usize) -> bool {
    let node = graph.nodes()[position].id;
    let earliest = graph.nodes()[node.0]
        .inputs
        .iter()
        .filter_map(|&t| index.producer(t))
        .map(|p| p.0 + 1)
        .max()
        .unwrap_or(0);
    earliest < node.0
}

/// Whether [`super::resize_batch`] to `new_batch` would succeed *and*
/// change something: positive target, a consistent batch annotation to
/// rewrite, and a target different from the current batch.
pub fn can_resize_batch(graph: &Graph, new_batch: u64) -> bool {
    if new_batch == 0 {
        return false;
    }
    let mut old = None;
    for (_, t) in graph.tensors() {
        if let Some(b) = t.batch_size() {
            match old {
                None => old = Some(b),
                Some(prev) if prev != b => return false,
                _ => {}
            }
        }
    }
    old.is_some_and(|b| b != new_batch)
}

/// Whether [`super::replace_op`] at `position` would succeed (the node
/// exists). Swapping an op for itself is legal but pointless; callers
/// generating moves should also compare ops.
pub fn can_replace_op(graph: &Graph, position: usize) -> bool {
    position < graph.node_count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tensor::TensorMeta;
    use crate::transform::{fuse_embedding_bags, hoist_earliest, resize_batch};

    /// T embedding bags feeding one cat.
    fn bags_graph(t: usize) -> Graph {
        let mut g = Graph::new("bags");
        let mut outs = Vec::new();
        for _ in 0..t {
            let w = g.add_tensor(TensorMeta::weight(&[1000, 16]));
            let idx = g.add_tensor(TensorMeta::index(&[32, 4]).with_batch_dim(0));
            let out = g.add_tensor(TensorMeta::activation(&[32, 16]).with_batch_dim(0));
            g.add_op(OpKind::EmbeddingBag, vec![w, idx], vec![out]);
            outs.push(out);
        }
        let cat = g.add_tensor(TensorMeta::activation(&[32, 16 * t as u64]).with_batch_dim(0));
        g.add_op(OpKind::Cat { dim: 1 }, outs, vec![cat]);
        g
    }

    #[test]
    fn fuse_predicate_matches_transform() {
        for t in [1usize, 2, 4] {
            let g = bags_graph(t);
            let legal = can_fuse_embedding_bags(&g);
            let did = fuse_embedding_bags(&mut g.clone()).is_ok();
            assert_eq!(
                legal, did,
                "fuse predicate disagrees with transform at t={t}"
            );
        }
    }

    #[test]
    fn hoist_predicate_matches_transform_motion() {
        let mut g = Graph::new("hoist");
        let in0 = g.add_tensor(TensorMeta::activation(&[8]));
        let a = g.add_tensor(TensorMeta::activation(&[8]));
        let b = g.add_tensor(TensorMeta::activation(&[8]));
        let in1 = g.add_tensor(TensorMeta::activation(&[8]));
        let c = g.add_tensor(TensorMeta::activation(&[8]));
        g.add_op(OpKind::Relu, vec![in0], vec![a]);
        g.add_op(OpKind::Relu, vec![a], vec![b]);
        g.add_op(OpKind::Sigmoid, vec![in1], vec![c]);
        for pos in 0..g.node_count() {
            let legal = can_hoist(&g, pos);
            let mut probe = g.clone();
            let id = probe.nodes()[pos].id;
            let before = probe.nodes().to_vec();
            let _ = hoist_earliest(&mut probe, id);
            let moved = probe.nodes() != &before[..];
            assert_eq!(legal, moved, "hoist predicate disagrees at position {pos}");
        }
        assert_eq!(hoistable_nodes(&g), vec![2]);
    }

    #[test]
    fn hoist_predicate_reads_the_first_of_two_producers() {
        // Tensor b has two producers (node 0 and node 2); node 3 consumes
        // it. The scan's first producer puts node 3's earliest slot at 1.
        let mut g = Graph::new("two producers");
        let a = g.add_tensor(TensorMeta::activation(&[8]));
        let b = g.add_tensor(TensorMeta::activation(&[8]));
        let c = g.add_tensor(TensorMeta::activation(&[8]));
        let d = g.add_tensor(TensorMeta::activation(&[8]));
        g.add_op(OpKind::Relu, vec![a], vec![b]);
        g.add_op(OpKind::Relu, vec![a], vec![c]);
        g.add_op(OpKind::Sigmoid, vec![a], vec![b]);
        g.add_op(OpKind::Relu, vec![b], vec![d]);
        assert!(g.validate().is_err(), "two producers of one tensor");
        for pos in 0..g.node_count() {
            let earliest = g
                .predecessors(g.nodes()[pos].id)
                .iter()
                .map(|p| p.0 + 1)
                .max()
                .unwrap_or(0);
            assert_eq!(can_hoist(&g, pos), earliest < pos, "position {pos}");
        }
        assert_eq!(hoistable_nodes(&g), vec![1, 2, 3]);
    }

    #[test]
    fn resize_predicate_matches_transform() {
        let g = bags_graph(2);
        assert!(can_resize_batch(&g, 64));
        assert!(resize_batch(&mut g.clone(), 64).is_ok());
        // Same batch: transform succeeds but is a no-op — predicate says no.
        assert!(!can_resize_batch(&g, 32));
        assert!(!can_resize_batch(&g, 0));
        let empty = Graph::new("empty");
        assert!(!can_resize_batch(&empty, 64));
    }

    #[test]
    fn replace_predicate_is_bounds_check() {
        let g = bags_graph(2);
        assert!(can_replace_op(&g, 0));
        assert!(!can_replace_op(&g, g.node_count()));
    }
}
