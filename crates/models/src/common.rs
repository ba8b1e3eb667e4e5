//! Shared building blocks for model-graph construction.

use dlperf_graph::{Graph, OpKind, TensorId, TensorMeta};

/// Tracks MLP layer tensors so the backward pass can be emitted after the
/// forward pass completes, mirroring autograd's tape.
#[derive(Debug, Clone)]
pub struct MlpTape {
    /// `(input, weight, bias, pre-activation output)` per layer.
    pub layers: Vec<(TensorId, TensorId, TensorId, TensorId)>,
    /// Post-activation output of the MLP.
    pub output: TensorId,
    /// Whether each layer was followed by a ReLU.
    pub relu: Vec<bool>,
}

/// Appends a forward MLP (AddMm + ReLU per hidden layer; the last layer's
/// activation is controlled by `final_relu`) and returns its tape.
///
/// `sizes[0]` is the input feature dimension, as in the DLRM repository's
/// `arch-mlp-bot` convention.
///
/// # Panics
/// Panics if `sizes` has fewer than two entries.
pub fn mlp_forward(
    graph: &mut Graph,
    prefix: &str,
    input: TensorId,
    batch: u64,
    sizes: &[u64],
    final_relu: bool,
) -> MlpTape {
    assert!(
        sizes.len() >= 2,
        "an MLP needs at least input and output sizes"
    );
    let mut x = input;
    let mut layers = Vec::new();
    let mut relu_flags = Vec::new();
    for (i, pair) in sizes.windows(2).enumerate() {
        let (inf, outf) = (pair[0], pair[1]);
        let w = graph.add_tensor(TensorMeta::weight(&[outf, inf]));
        let b = graph.add_tensor(TensorMeta::weight(&[outf]));
        // `linear` transposes the weight first — a host-only view op that
        // appears in real traces and contributes overheads.
        let wt = graph.add_tensor(TensorMeta::weight(&[outf, inf]));
        graph.add_node(
            format!("{prefix}::t_{i}"),
            OpKind::Reshape,
            vec![w],
            vec![wt],
        );
        let y = graph.add_tensor(TensorMeta::activation(&[batch, outf]).with_batch_dim(0));
        graph.add_node(
            format!("{prefix}::addmm_{i}"),
            OpKind::AddMm,
            vec![x, wt, b],
            vec![y],
        );
        layers.push((x, wt, b, y));
        let is_last = i + 2 == sizes.len();
        let with_relu = !is_last || final_relu;
        relu_flags.push(with_relu);
        x = if with_relu {
            let a = graph.add_tensor(TensorMeta::activation(&[batch, outf]).with_batch_dim(0));
            graph.add_node(
                format!("{prefix}::relu_{i}"),
                OpKind::Relu,
                vec![y],
                vec![a],
            );
            a
        } else {
            y
        };
    }
    MlpTape {
        layers,
        output: x,
        relu: relu_flags,
    }
}

/// Appends the backward pass of a taped MLP, consuming `grad_out` (the
/// gradient of the MLP output) and returning the gradient of its input.
/// Weight-gradient tensors are appended to `param_grads` for the optimizer.
pub fn mlp_backward(
    graph: &mut Graph,
    prefix: &str,
    tape: &MlpTape,
    batch: u64,
    grad_out: TensorId,
    param_grads: &mut Vec<TensorId>,
) -> TensorId {
    let mut grad = grad_out;
    for (i, ((x, w, _b, y), with_relu)) in
        tape.layers.iter().zip(tape.relu.iter()).enumerate().rev()
    {
        if *with_relu {
            let y_meta = graph.tensor(*y).clone();
            let g = graph.add_tensor(y_meta);
            graph.add_node(
                format!("{prefix}::relu_backward_{i}"),
                OpKind::ReluBackward,
                vec![grad, *y],
                vec![g],
            );
            grad = g;
        }
        let x_shape = graph.tensor(*x).shape.clone();
        let w_shape = graph.tensor(*w).shape.clone();
        let gx = graph.add_tensor(TensorMeta::activation(&x_shape).with_batch_dim(0));
        let gw = graph.add_tensor(TensorMeta::weight(&w_shape));
        graph.add_node(
            format!("{prefix}::addmm_backward_{i}"),
            OpKind::AddMmBackward,
            vec![grad, *x, *w],
            vec![gx, gw],
        );
        param_grads.push(gw);
        // Bias gradient: a `sum` reduction over the batch, as autograd emits.
        let gb = graph.add_tensor(TensorMeta::weight(&[w_shape[0]]));
        graph.add_node(
            format!("{prefix}::sum_bias_{i}"),
            OpKind::Sum,
            vec![grad],
            vec![gb],
        );
        param_grads.push(gb);
        grad = gx;
    }
    let _ = batch;
    grad
}

/// Inserts `per_device_op` host-only accessory ops (`aten::view`-style)
/// before every op that launches kernels, modelling the dispatcher-op swarm
/// (`empty`, `view`, `as_strided`, `expand`, ...) visible in real eager-mode
/// traces. These ops launch nothing but pay T1/T5 overheads, which is what
/// makes DLRM's host side as slow as the paper measures.
pub fn add_host_accessories(graph: &mut Graph, per_device_op: usize) {
    if per_device_op == 0 {
        return;
    }
    let old_nodes: Vec<dlperf_graph::Node> = graph.nodes().to_vec();
    let mut new_nodes: Vec<dlperf_graph::Node> = Vec::with_capacity(old_nodes.len() * 2);
    let mut extra_tensors: Vec<(usize, TensorId)> = Vec::new();
    // First create the accessory output tensors (cannot mutate nodes while
    // borrowing tensors, so collect first).
    for node in &old_nodes {
        if node.op.has_device_work() && !node.inputs.is_empty() {
            for _ in 0..per_device_op {
                let meta = graph.tensor(node.inputs[0]).clone();
                let view = graph.add_tensor(meta);
                extra_tensors.push((node.id.0, view));
            }
        }
    }
    let mut iter = extra_tensors.into_iter().peekable();
    for node in old_nodes {
        while iter.peek().is_some_and(|(idx, _)| *idx == node.id.0) {
            let (_, view) = iter.next().expect("peeked");
            new_nodes.push(dlperf_graph::Node {
                id: dlperf_graph::NodeId(0),
                uid: 0,
                name: "aten::view".into(),
                op: OpKind::Reshape,
                inputs: vec![node.inputs[0]],
                outputs: vec![view],
                stream: 0,
            });
        }
        new_nodes.push(node);
    }
    graph.set_nodes(new_nodes);
    debug_assert_eq!(graph.validate(), Ok(()));
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlperf_graph::lower;

    #[test]
    fn mlp_forward_backward_roundtrip_is_valid() {
        let mut g = Graph::new("mlp");
        let x = g.add_tensor(TensorMeta::activation(&[32, 16]).with_batch_dim(0));
        let tape = mlp_forward(&mut g, "bot", x, 32, &[16, 64, 8], true);
        let gout_meta = g.tensor(tape.output).clone();
        let gout = g.add_tensor(gout_meta);
        // Mark the loss-side gradient as an external input for this test.
        let mut grads = Vec::new();
        mlp_backward(&mut g, "bot", &tape, 32, gout, &mut grads);
        assert!(g.validate().is_ok());
        assert_eq!(grads.len(), 4); // 2 weight grads + 2 bias grads
                                    // fwd: 2 t + 2 addmm + 2 relu; bwd: 2 relu_bwd + 2 addmm_bwd + 2 sum.
        assert_eq!(g.node_count(), 12);
        assert!(lower::lower_graph(&g).is_ok());
    }

    #[test]
    #[should_panic(expected = "at least input and output")]
    fn mlp_needs_two_sizes() {
        let mut g = Graph::new("bad");
        let x = g.add_tensor(TensorMeta::activation(&[4, 4]).with_batch_dim(0));
        mlp_forward(&mut g, "m", x, 4, &[4], true);
    }
}
