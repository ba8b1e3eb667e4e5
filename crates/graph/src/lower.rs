//! Lowering of operators to the GPU kernels they launch.
//!
//! This is the mapping that lets ops sharing kernel types share performance
//! models (the paper's microbenchmark-cost-saving observation): `addmm`,
//! `bmm`, and both their backwards all lower to [`KernelSpec::Gemm`];
//! `embedding_bag` and the fused batched embedding both lower to the
//! embedding-lookup kernels; and every trivial op lowers to a generic
//! element-wise kernel.

use dlperf_gpusim::KernelSpec;

use crate::graph::{Graph, Node};
use crate::op::OpKind;
use crate::tensor::TensorMeta;

/// Errors raised when an op's tensor shapes do not match its kind.
///
/// Serializable so resilient-analysis reports that carry lower failures
/// can ride inside runtime checkpoints.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct LowerError {
    /// Name of the offending node.
    pub node: String,
    /// What was wrong.
    pub reason: String,
}

impl std::fmt::Display for LowerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "cannot lower op `{}`: {}", self.node, self.reason)
    }
}

impl std::error::Error for LowerError {}

fn err(node: &Node, reason: impl Into<String>) -> LowerError {
    LowerError {
        node: node.name.clone(),
        reason: reason.into(),
    }
}

fn input<'g>(graph: &'g Graph, node: &Node, i: usize) -> Result<&'g TensorMeta, LowerError> {
    let &t = node
        .inputs
        .get(i)
        .ok_or_else(|| err(node, format!("missing input {i}")))?;
    graph.try_tensor(t).ok_or_else(|| {
        err(
            node,
            format!("input {i} references a tensor not in this graph"),
        )
    })
}

fn output<'g>(graph: &'g Graph, node: &Node, i: usize) -> Result<&'g TensorMeta, LowerError> {
    let &t = node
        .outputs
        .get(i)
        .ok_or_else(|| err(node, format!("missing output {i}")))?;
    graph.try_tensor(t).ok_or_else(|| {
        err(
            node,
            format!("output {i} references a tensor not in this graph"),
        )
    })
}

fn dims<const N: usize>(t: &TensorMeta, node: &Node) -> Result<[u64; N], LowerError> {
    if t.shape.len() != N {
        return Err(err(
            node,
            format!("expected rank-{N} tensor, got shape {:?}", t.shape),
        ));
    }
    let mut out = [0u64; N];
    out.copy_from_slice(&t.shape);
    Ok(out)
}

/// An element-wise kernel over `elems` elements.
fn ew(elems: u64, flops: f64, bytes: f64) -> KernelSpec {
    KernelSpec::Elementwise {
        elems: elems.max(1),
        flops_per_elem: flops,
        bytes_per_elem: bytes,
    }
}

/// Lowers `node` to the kernels it launches, in launch order.
///
/// Host-only ops (`reshape`, `AddBackward0`) lower to an empty list.
///
/// # Errors
/// Returns [`LowerError`] if the node's tensor shapes are inconsistent with
/// its [`OpKind`] (for instance after a malformed manual graph edit).
pub fn try_kernels(graph: &Graph, node: &Node) -> Result<Vec<KernelSpec>, LowerError> {
    // One allocation per kernel-launching op, none for a host-only one:
    // room for the two kernels a backward op launches, so lowering never
    // regrows it.
    let mut out = Vec::with_capacity(if node.op.has_device_work() { 2 } else { 0 });
    try_kernels_into(graph, node, &mut out)?;
    Ok(out)
}

/// Appends the kernels `node` launches, in launch order, to `out` — the
/// walk lowers every node straight into its reusable spec buffer this way,
/// so a warm walk allocates nothing for lowering. On error `out` is
/// truncated back to its length at entry, so a failed node leaves no
/// partial kernels behind.
///
/// # Errors
/// As [`try_kernels`].
pub fn try_kernels_into(
    graph: &Graph,
    node: &Node,
    out: &mut Vec<KernelSpec>,
) -> Result<(), LowerError> {
    let start = out.len();
    let lowered = lower_into(graph, node, out);
    if lowered.is_err() {
        out.truncate(start);
    }
    lowered
}

fn lower_into(graph: &Graph, node: &Node, out: &mut Vec<KernelSpec>) -> Result<(), LowerError> {
    match node.op {
        OpKind::AddMm => {
            let [b, kdim] = dims(input(graph, node, 0)?, node)?;
            let [n, k2] = dims(input(graph, node, 1)?, node)?;
            if kdim != k2 {
                return Err(err(
                    node,
                    format!("addmm inner dims differ: {kdim} vs {k2}"),
                ));
            }
            out.push(KernelSpec::gemm(b, n, kdim));
        }
        OpKind::AddMmBackward => {
            // inputs: grad_out (b, n), x (b, k), w (n, k) -> dgrad + wgrad.
            let [b, n] = dims(input(graph, node, 0)?, node)?;
            let [b2, kdim] = dims(input(graph, node, 1)?, node)?;
            if b != b2 {
                return Err(err(
                    node,
                    format!("addmm backward batch dims differ: {b} vs {b2}"),
                ));
            }
            out.extend([KernelSpec::gemm(b, kdim, n), KernelSpec::gemm(n, kdim, b)]);
        }
        OpKind::Bmm => {
            let [batch, m, kdim] = dims(input(graph, node, 0)?, node)?;
            let [batch2, k2, n] = dims(input(graph, node, 1)?, node)?;
            if batch != batch2 || kdim != k2 {
                return Err(err(node, "bmm operand shapes incompatible"));
            }
            out.push(KernelSpec::bmm(batch, m, n, kdim));
        }
        OpKind::BmmBackward => {
            // inputs: grad_out (batch, m, n), a (batch, m, k), b (batch, k, n).
            let [batch, m, n] = dims(input(graph, node, 0)?, node)?;
            let [_, _, kdim] = dims(input(graph, node, 1)?, node)?;
            out.extend([
                KernelSpec::bmm(batch, m, kdim, n),
                KernelSpec::bmm(batch, kdim, n, m),
            ]);
        }
        OpKind::EmbeddingBag => {
            // inputs: weight (e, d), indices (b, l).
            let [e, d] = dims(input(graph, node, 0)?, node)?;
            let [b, l] = dims(input(graph, node, 1)?, node)?;
            out.push(KernelSpec::embedding_forward(b, e, 1, l, d));
        }
        OpKind::EmbeddingBagBackward => {
            // inputs: grad (b, d), weight (e, d), indices (b, l).
            let [e, d] = dims(input(graph, node, 1)?, node)?;
            let [b, l] = dims(input(graph, node, 2)?, node)?;
            out.push(KernelSpec::embedding_backward(b, e, 1, l, d));
        }
        OpKind::BatchedEmbedding | OpKind::BatchedEmbeddingBackward => {
            let [t, e, d] = dims(input(graph, node, 0)?, node)?;
            let [t2, b, l] = dims(input(graph, node, 1)?, node)?;
            if t != t2 {
                return Err(err(node, format!("table counts differ: {t} vs {t2}")));
            }
            out.push(if node.op == OpKind::BatchedEmbedding {
                KernelSpec::embedding_forward(b, e, t, l, d)
            } else {
                KernelSpec::embedding_backward(b, e, t, l, d)
            });
        }
        OpKind::Cat { .. } => {
            let bytes = output(graph, node, 0)?.bytes();
            out.push(KernelSpec::Concat { bytes });
        }
        OpKind::CatBackward { .. } => {
            let bytes = input(graph, node, 0)?.bytes();
            out.push(KernelSpec::Concat { bytes });
        }
        OpKind::Relu => out.push(ew(output(graph, node, 0)?.numel(), 1.0, 8.0)),
        OpKind::ReluBackward => out.push(ew(output(graph, node, 0)?.numel(), 1.0, 12.0)),
        OpKind::Sigmoid => out.push(ew(output(graph, node, 0)?.numel(), 4.0, 8.0)),
        OpKind::SigmoidBackward => out.push(ew(output(graph, node, 0)?.numel(), 3.0, 12.0)),
        OpKind::MseLoss => out.push(ew(input(graph, node, 0)?.numel(), 3.0, 8.0)),
        OpKind::MseLossBackward => out.push(ew(output(graph, node, 0)?.numel(), 2.0, 12.0)),
        OpKind::Transpose => {
            let t = input(graph, node, 0)?;
            let (batch, rows, cols) = match t.shape.as_slice() {
                [r, c] => (1, *r, *c),
                [b, r, c] => (*b, *r, *c),
                other => {
                    return Err(err(
                        node,
                        format!("transpose needs rank 2/3, got {other:?}"),
                    ))
                }
            };
            out.push(KernelSpec::Transpose { batch, rows, cols });
        }
        OpKind::Tril => {
            let [b, n, n2] = dims(input(graph, node, 0)?, node)?;
            if n != n2 {
                return Err(err(node, "tril input must be square"));
            }
            out.push(KernelSpec::TrilForward { batch: b, n });
        }
        OpKind::TrilBackward => {
            let [b, n, n2] = dims(output(graph, node, 0)?, node)?;
            if n != n2 {
                return Err(err(node, "tril backward output must be square"));
            }
            out.push(KernelSpec::TrilBackward { batch: b, n });
        }
        OpKind::To { kind } => {
            let bytes = input(graph, node, 0)?.bytes();
            out.push(KernelSpec::Memcpy { bytes, kind });
        }
        OpKind::Conv2d { stride, pad } => {
            let [b, c, h, w] = dims(input(graph, node, 0)?, node)?;
            let [c_out, c2, kh, kw] = dims(input(graph, node, 1)?, node)?;
            if c != c2 {
                return Err(err(node, format!("conv channel mismatch: {c} vs {c2}")));
            }
            out.push(KernelSpec::Conv2d {
                batch: b,
                c_in: c,
                h,
                w,
                c_out,
                kh,
                kw,
                stride,
                pad,
            });
        }
        OpKind::Conv2dBackward { stride, pad } => {
            // inputs: grad_out, x (b, c, h, w), w (c_out, c, kh, kw).
            let [b, c, h, w] = dims(input(graph, node, 1)?, node)?;
            let [c_out, _, kh, kw] = dims(input(graph, node, 2)?, node)?;
            let k = KernelSpec::Conv2d {
                batch: b,
                c_in: c,
                h,
                w,
                c_out,
                kh,
                kw,
                stride,
                pad,
            };
            out.extend([k.clone(), k]);
        }
        OpKind::BatchNorm => out.push(ew(output(graph, node, 0)?.numel(), 4.0, 16.0)),
        OpKind::BatchNormBackward => out.push(ew(output(graph, node, 0)?.numel(), 5.0, 16.0)),
        OpKind::MaxPool { k, .. } => {
            let elems = output(graph, node, 0)?.numel();
            out.push(ew(elems, (k * k) as f64, 4.0 + 4.0 * (k * k) as f64 / 2.0));
        }
        OpKind::MaxPoolBackward => out.push(ew(output(graph, node, 0)?.numel(), 1.0, 12.0)),
        OpKind::AvgPool => out.push(ew(input(graph, node, 0)?.numel(), 1.0, 5.0)),
        OpKind::Add => out.push(ew(output(graph, node, 0)?.numel(), 1.0, 12.0)),
        OpKind::Softmax => out.push(ew(output(graph, node, 0)?.numel(), 10.0, 16.0)),
        OpKind::SoftmaxBackward => out.push(ew(output(graph, node, 0)?.numel(), 8.0, 16.0)),
        OpKind::LayerNorm => out.push(ew(output(graph, node, 0)?.numel(), 8.0, 16.0)),
        OpKind::LayerNormBackward => out.push(ew(output(graph, node, 0)?.numel(), 10.0, 20.0)),
        OpKind::Gelu => out.push(ew(output(graph, node, 0)?.numel(), 12.0, 8.0)),
        OpKind::GeluBackward => out.push(ew(output(graph, node, 0)?.numel(), 14.0, 12.0)),
        OpKind::Dropout => out.push(ew(output(graph, node, 0)?.numel(), 2.0, 12.0)),
        OpKind::DropoutBackward => out.push(ew(output(graph, node, 0)?.numel(), 1.0, 12.0)),
        OpKind::Sum => out.push(ew(input(graph, node, 0)?.numel(), 1.0, 4.2)),
        OpKind::OptimizerStep => {
            // One element-wise SGD update kernel per parameter tensor, as in
            // the paper's observation that the optimizer is "dominated by a
            // series of element-wise kernels".
            for &t in &node.inputs {
                let meta = graph.try_tensor(t).ok_or_else(|| {
                    err(
                        node,
                        "optimizer parameter references a tensor not in this graph",
                    )
                })?;
                out.push(ew(meta.numel(), 2.0, 12.0));
            }
        }
        OpKind::Reshape | OpKind::AddBackward => {}
    }
    Ok(())
}

/// Lowers `node`, panicking on malformed shapes.
///
/// # Panics
/// Panics if [`try_kernels`] would return an error. Use [`try_kernels`] when
/// lowering graphs that may have been hand-edited.
pub fn kernels(graph: &Graph, node: &Node) -> Vec<KernelSpec> {
    try_kernels(graph, node).unwrap_or_else(|e| panic!("{e}"))
}

/// Lowers every node of `graph`, returning `(node index, kernels)` pairs.
pub fn lower_graph(graph: &Graph) -> Result<Vec<(usize, Vec<KernelSpec>)>, LowerError> {
    // Lowered into one reused buffer and copied out at exact size.
    let mut buf = Vec::new();
    graph
        .nodes()
        .iter()
        .enumerate()
        .map(|(i, n)| {
            buf.clear();
            try_kernels_into(graph, n, &mut buf)?;
            Ok((i, buf.clone()))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tensor::TensorMeta;
    use dlperf_gpusim::KernelFamily;

    #[test]
    fn addmm_lowers_to_one_gemm_and_backward_to_two() {
        let mut g = Graph::new("t");
        let x = g.add_tensor(TensorMeta::activation(&[32, 64]));
        let w = g.add_tensor(TensorMeta::weight(&[128, 64]));
        let bias = g.add_tensor(TensorMeta::weight(&[128]));
        let y = g.add_tensor(TensorMeta::activation(&[32, 128]));
        let fwd = g.add_op(OpKind::AddMm, vec![x, w, bias], vec![y]);

        let gy = g.add_tensor(TensorMeta::activation(&[32, 128]));
        let gx = g.add_tensor(TensorMeta::activation(&[32, 64]));
        let gw = g.add_tensor(TensorMeta::weight(&[128, 64]));
        let bwd = g.add_op(OpKind::AddMmBackward, vec![gy, x, w], vec![gx, gw]);

        let fk = kernels(&g, g.node(fwd).unwrap());
        assert_eq!(fk, vec![KernelSpec::gemm(32, 128, 64)]);
        let bk = kernels(&g, g.node(bwd).unwrap());
        assert_eq!(bk.len(), 2);
        assert!(bk.iter().all(|k| k.family() == KernelFamily::Gemm));
    }

    #[test]
    fn batched_embedding_shapes() {
        let mut g = Graph::new("t");
        let w = g.add_tensor(TensorMeta::weight(&[8, 100_000, 64]));
        let idx = g.add_tensor(TensorMeta::index(&[8, 2048, 10]).with_batch_dim(1));
        let out = g.add_tensor(TensorMeta::activation(&[2048, 8 * 64]).with_batch_dim(0));
        let n = g.add_op(OpKind::BatchedEmbedding, vec![w, idx], vec![out]);
        let k = kernels(&g, g.node(n).unwrap());
        assert_eq!(
            k,
            vec![KernelSpec::embedding_forward(2048, 100_000, 8, 10, 64)]
        );
    }

    #[test]
    fn host_only_ops_lower_to_nothing() {
        let mut g = Graph::new("t");
        let a = g.add_tensor(TensorMeta::activation(&[4, 4]));
        let b = g.add_tensor(TensorMeta::activation(&[16]));
        let n = g.add_op(OpKind::Reshape, vec![a], vec![b]);
        assert!(kernels(&g, g.node(n).unwrap()).is_empty());
    }

    #[test]
    fn optimizer_step_one_kernel_per_param() {
        let mut g = Graph::new("t");
        let p1 = g.add_tensor(TensorMeta::weight(&[128, 64]));
        let p2 = g.add_tensor(TensorMeta::weight(&[128]));
        let p3 = g.add_tensor(TensorMeta::weight(&[10, 128]));
        let n = g.add_op(OpKind::OptimizerStep, vec![p1, p2, p3], vec![]);
        assert_eq!(kernels(&g, g.node(n).unwrap()).len(), 3);
    }

    #[test]
    fn shape_mismatch_reported() {
        let mut g = Graph::new("t");
        let x = g.add_tensor(TensorMeta::activation(&[32, 64]));
        let w = g.add_tensor(TensorMeta::weight(&[128, 32])); // wrong inner dim
        let bias = g.add_tensor(TensorMeta::weight(&[128]));
        let y = g.add_tensor(TensorMeta::activation(&[32, 128]));
        let n = g.add_op(OpKind::AddMm, vec![x, w, bias], vec![y]);
        let e = try_kernels(&g, g.node(n).unwrap()).unwrap_err();
        assert!(e.reason.contains("inner dims"));
    }

    #[test]
    fn transpose_rank2_and_rank3() {
        let mut g = Graph::new("t");
        let a2 = g.add_tensor(TensorMeta::activation(&[64, 32]));
        let o2 = g.add_tensor(TensorMeta::activation(&[32, 64]));
        let n2 = g.add_op(OpKind::Transpose, vec![a2], vec![o2]);
        assert_eq!(
            kernels(&g, g.node(n2).unwrap()),
            vec![KernelSpec::Transpose {
                batch: 1,
                rows: 64,
                cols: 32
            }]
        );
        let a3 = g.add_tensor(TensorMeta::activation(&[8, 64, 32]));
        let o3 = g.add_tensor(TensorMeta::activation(&[8, 32, 64]));
        let n3 = g.add_op(OpKind::Transpose, vec![a3], vec![o3]);
        assert_eq!(
            kernels(&g, g.node(n3).unwrap()),
            vec![KernelSpec::Transpose {
                batch: 8,
                rows: 64,
                cols: 32
            }]
        );
    }

    #[test]
    fn out_of_range_tensor_id_is_a_typed_error_not_a_panic() {
        use crate::tensor::TensorId;
        let mut g = Graph::new("t");
        let a = g.add_tensor(TensorMeta::activation(&[4, 4]));
        let b = g.add_tensor(TensorMeta::activation(&[4, 4]));
        let n = g.add_op(OpKind::Relu, vec![a], vec![b]);
        assert!(g.try_tensor(TensorId(99)).is_none());
        // Forge a node referencing a tensor from "another graph".
        let mut node = g.node(n).unwrap().clone();
        node.inputs = vec![TensorId(99)];
        node.outputs = vec![TensorId(99)];
        let e = try_kernels(&g, &node).unwrap_err();
        assert!(
            e.reason.contains("not in this graph"),
            "reason: {}",
            e.reason
        );
        // The optimizer path is equally guarded.
        let mut opt = Graph::new("o");
        let p = opt.add_tensor(TensorMeta::weight(&[8]));
        let on = opt.add_op(OpKind::OptimizerStep, vec![p], vec![]);
        let mut node = opt.node(on).unwrap().clone();
        node.inputs = vec![TensorId(42)];
        let e = try_kernels(&opt, &node).unwrap_err();
        assert!(
            e.reason.contains("not in this graph"),
            "reason: {}",
            e.reason
        );
    }

    #[test]
    fn lowering_into_appends_and_a_failed_node_leaves_no_partial_kernels() {
        use crate::tensor::TensorId;
        let mut g = Graph::new("t");
        let p1 = g.add_tensor(TensorMeta::weight(&[128, 64]));
        let p2 = g.add_tensor(TensorMeta::weight(&[128]));
        let ok = g.add_op(OpKind::OptimizerStep, vec![p1, p2], vec![]);
        let ok = g.node(ok).unwrap().clone();

        let mut out = vec![KernelSpec::gemm(1, 2, 3)];
        try_kernels_into(&g, &ok, &mut out).unwrap();
        assert_eq!(
            out[0],
            KernelSpec::gemm(1, 2, 3),
            "existing contents are kept"
        );
        assert_eq!(out[1..], try_kernels(&g, &ok).unwrap()[..]);

        // The first parameter lowers, the second does not: the kernel
        // already pushed for the first must be rolled back.
        let mut bad = ok;
        bad.inputs = vec![p1, TensorId(99)];
        let before = out.clone();
        assert!(try_kernels_into(&g, &bad, &mut out).is_err());
        assert_eq!(out, before);
    }

    #[test]
    fn lower_graph_covers_all_nodes() {
        let mut g = Graph::new("t");
        let a = g.add_tensor(TensorMeta::activation(&[4, 4]));
        let b = g.add_tensor(TensorMeta::activation(&[4, 4]));
        let c = g.add_tensor(TensorMeta::activation(&[4, 4]));
        g.add_op(OpKind::Relu, vec![a], vec![b]);
        g.add_op(OpKind::Sigmoid, vec![b], vec![c]);
        let lowered = lower_graph(&g).unwrap();
        assert_eq!(lowered.len(), 2);
        assert_eq!(lowered[0].1.len(), 1);
    }
}
