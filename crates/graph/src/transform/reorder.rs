//! The *reorder* transformation: move an op earlier or later in execution
//! order without violating data dependencies.
//!
//! Eager execution order determines when each op's kernels are *enqueued*;
//! hoisting an independent, device-heavy op (e.g. the embedding lookup)
//! ahead of host-heavy ops lets its kernels overlap their overheads. The
//! paper lists reordering among the optimizations its execution graph can
//! evaluate ("operator fusion, reordering, and parallelization").

use crate::graph::{Graph, Node, NodeId};
use crate::transform::TransformError;

/// Moves the node at `from` so that it executes at position `to` (indices
/// into the current execution order), shifting everything in between.
///
/// # Errors
/// * [`TransformError::Precondition`] if either index is out of range;
/// * [`TransformError::DependencyViolation`] if the move would execute a
///   consumer before its producer.
pub fn move_node(graph: &mut Graph, from: NodeId, to: usize) -> Result<(), TransformError> {
    let n = graph.node_count();
    if from.0 >= n || to >= n {
        return Err(TransformError::Precondition(format!(
            "positions out of range: from {} to {to} with {n} nodes",
            from.0
        )));
    }
    if from.0 == to {
        return Ok(());
    }
    let mut nodes: Vec<Node> = graph.nodes().to_vec();
    let moved = nodes.remove(from.0);
    nodes.insert(to, moved);
    let old = graph.clone();
    graph.set_nodes(nodes);
    if let Err(e) = graph.validate() {
        *graph = old;
        return Err(TransformError::DependencyViolation(e.to_string()));
    }
    Ok(())
}

/// Hoists `node` as early as its data dependencies allow, returning its new
/// position.
///
/// # Errors
/// [`TransformError::Precondition`] if the node does not exist.
pub fn hoist_earliest(graph: &mut Graph, node: NodeId) -> Result<usize, TransformError> {
    if node.0 >= graph.node_count() {
        return Err(TransformError::Precondition(format!(
            "no such node {}",
            node.0
        )));
    }
    // Earliest legal slot: right after the last producer of any input.
    let preds = graph.predecessors(node);
    let earliest = preds.iter().map(|p| p.0 + 1).max().unwrap_or(0);
    if earliest < node.0 {
        move_node(graph, node, earliest)?;
    }
    Ok(earliest.min(node.0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::OpKind;
    use crate::tensor::TensorMeta;

    /// in0 -> a -> b; in1 -> c (independent); c placed last.
    fn graph() -> (Graph, Vec<NodeId>) {
        let mut g = Graph::new("reorder");
        let in0 = g.add_tensor(TensorMeta::activation(&[8]));
        let a = g.add_tensor(TensorMeta::activation(&[8]));
        let b = g.add_tensor(TensorMeta::activation(&[8]));
        let in1 = g.add_tensor(TensorMeta::activation(&[8]));
        let c = g.add_tensor(TensorMeta::activation(&[8]));
        let n0 = g.add_op(OpKind::Relu, vec![in0], vec![a]);
        let n1 = g.add_op(OpKind::Relu, vec![a], vec![b]);
        let n2 = g.add_op(OpKind::Sigmoid, vec![in1], vec![c]);
        (g, vec![n0, n1, n2])
    }

    #[test]
    fn independent_node_hoists_to_front() {
        let (mut g, ids) = graph();
        let pos = hoist_earliest(&mut g, ids[2]).unwrap();
        assert_eq!(pos, 0);
        assert_eq!(g.nodes()[0].op, OpKind::Sigmoid);
        assert!(g.validate().is_ok());
    }

    #[test]
    fn dependent_move_rejected_and_rolled_back() {
        let (mut g, ids) = graph();
        let before = g.nodes().to_vec();
        // Moving n1 (consumer of a) before n0 (producer) must fail...
        let r = move_node(&mut g, ids[1], 0);
        assert!(matches!(r, Err(TransformError::DependencyViolation(_))));
        // ...and leave the graph untouched.
        assert_eq!(g.nodes(), &before[..]);
    }

    #[test]
    fn hoist_respects_producers() {
        let (mut g, ids) = graph();
        // n1 depends on n0: earliest slot is 1 (its current position).
        let pos = hoist_earliest(&mut g, ids[1]).unwrap();
        assert_eq!(pos, 1);
    }

    #[test]
    fn out_of_range_rejected() {
        let (mut g, _) = graph();
        assert!(matches!(
            move_node(&mut g, NodeId(99), 0),
            Err(TransformError::Precondition(_))
        ));
    }

    #[test]
    fn noop_move_is_ok() {
        let (mut g, ids) = graph();
        move_node(&mut g, ids[1], 1).unwrap();
        assert!(g.validate().is_ok());
    }
}
