//! Graph summary statistics: the at-a-glance workload characterization the
//! CLI's `inspect` view and the examples print.

use std::collections::HashMap;

use crate::graph::Graph;
use crate::lower;

/// Aggregate statistics of one execution graph.
#[derive(Debug, Clone, PartialEq)]
pub struct GraphStats {
    /// Total ops.
    pub node_count: usize,
    /// Ops that launch at least one kernel.
    pub device_op_count: usize,
    /// Total kernels launched.
    pub kernel_count: usize,
    /// Total floating-point operations per iteration.
    pub total_flops: f64,
    /// Total memory traffic per iteration (bytes).
    pub total_bytes: f64,
    /// Op count per op-type key, descending.
    pub op_histogram: Vec<(String, usize)>,
}

impl GraphStats {
    /// Arithmetic intensity (FLOP per byte) of the whole iteration.
    pub fn arithmetic_intensity(&self) -> f64 {
        if self.total_bytes > 0.0 {
            self.total_flops / self.total_bytes
        } else {
            0.0
        }
    }
}

/// Computes summary statistics of `graph`.
///
/// # Errors
/// Returns a lowering error if the graph is malformed.
pub fn summarize(graph: &Graph) -> Result<GraphStats, lower::LowerError> {
    let mut kernel_count = 0usize;
    let mut device_op_count = 0usize;
    let (mut flops, mut bytes) = (0.0f64, 0.0f64);
    let mut hist: HashMap<String, usize> = HashMap::new();
    let mut kernels = Vec::new();
    for node in graph.nodes() {
        *hist.entry(node.op.overhead_key().to_string()).or_insert(0) += 1;
        kernels.clear();
        lower::try_kernels_into(graph, node, &mut kernels)?;
        if !kernels.is_empty() {
            device_op_count += 1;
        }
        kernel_count += kernels.len();
        for k in &kernels {
            flops += k.flops();
            bytes += k.bytes();
        }
    }
    let mut op_histogram: Vec<(String, usize)> = hist.into_iter().collect();
    op_histogram.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    Ok(GraphStats {
        node_count: graph.node_count(),
        device_op_count,
        kernel_count,
        total_flops: flops,
        total_bytes: bytes,
        op_histogram,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::OpKind;
    use crate::tensor::TensorMeta;

    fn toy() -> Graph {
        let mut g = Graph::new("toy");
        let x = g.add_tensor(TensorMeta::activation(&[64, 32]));
        let w = g.add_tensor(TensorMeta::weight(&[16, 32]));
        let bias = g.add_tensor(TensorMeta::weight(&[16]));
        let y = g.add_tensor(TensorMeta::activation(&[64, 16]));
        let z = g.add_tensor(TensorMeta::activation(&[64, 16]));
        let v = g.add_tensor(TensorMeta::activation(&[1024]));
        g.add_op(OpKind::AddMm, vec![x, w, bias], vec![y]);
        g.add_op(OpKind::Relu, vec![y], vec![z]);
        g.add_op(OpKind::Reshape, vec![z], vec![v]);
        g
    }

    #[test]
    fn counts_and_flops() {
        let s = summarize(&toy()).unwrap();
        assert_eq!(s.node_count, 3);
        assert_eq!(s.device_op_count, 2); // reshape is host-only
        assert_eq!(s.kernel_count, 2);
        // GEMM flops 2*64*16*32 + relu 1024.
        assert_eq!(s.total_flops, 2.0 * 64.0 * 16.0 * 32.0 + 1024.0);
        assert!(s.arithmetic_intensity() > 0.0);
    }

    #[test]
    fn histogram_sorted_desc() {
        let s = summarize(&toy()).unwrap();
        assert_eq!(s.op_histogram.len(), 3);
        for w in s.op_histogram.windows(2) {
            assert!(w[0].1 >= w[1].1);
        }
    }
}
