//! Node-level surgery: *insert*, *remove*, and *replace* transformations.

use crate::graph::{Graph, Node, NodeId};
use crate::op::OpKind;
use crate::tensor::TensorId;
use crate::transform::TransformError;

/// Replaces the operator of `node` (keeping its tensors), e.g. swapping an
/// activation function or substituting a custom fused op.
///
/// # Errors
/// [`TransformError::Precondition`] if the node does not exist.
pub fn replace_op(
    graph: &mut Graph,
    node: NodeId,
    op: OpKind,
    name: impl Into<String>,
) -> Result<(), TransformError> {
    let n = graph
        .node_mut(node)
        .map_err(|e| TransformError::Precondition(e.to_string()))?;
    n.op = op;
    n.name = name.into();
    Ok(())
}

/// Inserts a new node immediately after `after` in execution order.
///
/// # Errors
/// * [`TransformError::Precondition`] if `after` does not exist;
/// * [`TransformError::DependencyViolation`] if the resulting graph fails
///   validation (e.g. the new node consumes a tensor produced later).
pub fn insert_after(
    graph: &mut Graph,
    after: NodeId,
    name: impl Into<String>,
    op: OpKind,
    inputs: Vec<TensorId>,
    outputs: Vec<TensorId>,
) -> Result<NodeId, TransformError> {
    if graph.node(after).is_err() {
        return Err(TransformError::Precondition(format!(
            "no such node {}",
            after.0
        )));
    }
    let mut nodes: Vec<Node> = graph.nodes().to_vec();
    let new = Node {
        id: NodeId(0),
        uid: 0,
        name: name.into(),
        op,
        inputs,
        outputs,
        stream: 0,
    };
    nodes.insert(after.0 + 1, new);
    graph.set_nodes(nodes);
    graph
        .validate()
        .map_err(|e| TransformError::DependencyViolation(e.to_string()))?;
    Ok(NodeId(after.0 + 1))
}

/// Removes a node whose single output is rewired to its single input: every
/// consumer of the output consumes the input instead. This is how a no-op
/// (e.g. a dropout disabled at inference, or an identity copy) is removed.
///
/// # Errors
/// * [`TransformError::Precondition`] if the node does not exist or does not
///   have exactly one input and one output;
/// * [`TransformError::DependencyViolation`] if removal breaks validation.
pub fn remove_node_rewire(graph: &mut Graph, node: NodeId) -> Result<(), TransformError> {
    let n = graph
        .node(node)
        .map_err(|e| TransformError::Precondition(e.to_string()))?
        .clone();
    if n.inputs.len() != 1 || n.outputs.len() != 1 {
        return Err(TransformError::Precondition(format!(
            "node `{}` has {} inputs / {} outputs; rewire removal needs exactly 1/1",
            n.name,
            n.inputs.len(),
            n.outputs.len()
        )));
    }
    let (src, dst) = (n.inputs[0], n.outputs[0]);
    let mut nodes: Vec<Node> = graph.nodes().to_vec();
    nodes.remove(node.0);
    for m in &mut nodes {
        for t in &mut m.inputs {
            if *t == dst {
                *t = src;
            }
        }
    }
    graph.set_nodes(nodes);
    graph
        .validate()
        .map_err(|e| TransformError::DependencyViolation(e.to_string()))?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tensor::TensorMeta;

    fn chain() -> (Graph, Vec<NodeId>, Vec<TensorId>) {
        let mut g = Graph::new("chain");
        let a = g.add_tensor(TensorMeta::activation(&[8, 8]));
        let b = g.add_tensor(TensorMeta::activation(&[8, 8]));
        let c = g.add_tensor(TensorMeta::activation(&[8, 8]));
        let n0 = g.add_op(OpKind::Relu, vec![a], vec![b]);
        let n1 = g.add_op(OpKind::Sigmoid, vec![b], vec![c]);
        (g, vec![n0, n1], vec![a, b, c])
    }

    #[test]
    fn replace_swaps_kind() {
        let (mut g, ids, _) = chain();
        replace_op(&mut g, ids[0], OpKind::Gelu, "aten::gelu").unwrap();
        assert_eq!(g.nodes()[0].op, OpKind::Gelu);
        assert!(g.validate().is_ok());
    }

    #[test]
    fn insert_after_keeps_order_valid() {
        let (mut g, ids, ts) = chain();
        let d = g.add_tensor(TensorMeta::activation(&[8, 8]));
        let new = insert_after(
            &mut g,
            ids[0],
            "aten::dropout",
            OpKind::Dropout,
            vec![ts[1]],
            vec![d],
        )
        .unwrap();
        assert_eq!(new, NodeId(1));
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.nodes()[1].op, OpKind::Dropout);
        assert!(g.validate().is_ok());
    }

    #[test]
    fn insert_with_future_input_rejected() {
        let (mut g, ids, ts) = chain();
        // Inserting after node 0 a node that consumes node 1's output.
        let d = g.add_tensor(TensorMeta::activation(&[8, 8]));
        let r = insert_after(&mut g, ids[0], "bad", OpKind::Relu, vec![ts[2]], vec![d]);
        assert!(matches!(r, Err(TransformError::DependencyViolation(_))));
    }

    #[test]
    fn remove_rewires_consumers() {
        let (mut g, ids, ts) = chain();
        remove_node_rewire(&mut g, ids[0]).unwrap();
        assert_eq!(g.node_count(), 1);
        // The sigmoid now consumes the original input tensor.
        assert_eq!(g.nodes()[0].inputs, vec![ts[0]]);
        assert!(g.validate().is_ok());
    }

    #[test]
    fn remove_multi_io_rejected() {
        let mut g = Graph::new("multi");
        let a = g.add_tensor(TensorMeta::activation(&[4]));
        let b = g.add_tensor(TensorMeta::activation(&[4]));
        let c = g.add_tensor(TensorMeta::activation(&[8]));
        let n = g.add_op(OpKind::Cat { dim: 0 }, vec![a, b], vec![c]);
        assert!(matches!(
            remove_node_rewire(&mut g, n),
            Err(TransformError::Precondition(_))
        ));
    }
}
