//! Device-memory footprint estimation.
//!
//! The paper motivates performance models that predict "speed, memory
//! usage, etc." and itself had to shrink *DLRM_MLPerf*'s sparse feature
//! size from 128 to 32 so the model fit into the TITAN Xp's and P100's
//! memory. This module answers that question from the execution graph
//! alone: weights are resident for the whole iteration, activations live
//! from their producer to their last consumer, and the peak of the
//! resulting occupancy curve is the device-memory requirement.

use crate::graph::Graph;
use crate::tensor::{TensorId, TensorKind};

/// A memory-usage report for one training iteration.
#[derive(Debug, Clone, PartialEq)]
pub struct MemoryReport {
    /// Bytes of parameters (resident for the whole iteration).
    pub weight_bytes: u64,
    /// Peak bytes of live activations/gradients/indices.
    pub peak_activation_bytes: u64,
    /// Index of the node at which the activation peak occurs.
    pub peak_node: usize,
    /// Per-node live activation bytes (occupancy curve).
    pub occupancy: Vec<u64>,
}

impl MemoryReport {
    /// Total peak device memory: weights + peak activations.
    pub fn peak_bytes(&self) -> u64 {
        self.weight_bytes + self.peak_activation_bytes
    }

    /// Whether the iteration fits a device with the given memory capacity,
    /// leaving `reserve_frac` (e.g. 0.1) for the allocator and framework.
    pub fn fits(&self, capacity_bytes: u64, reserve_frac: f64) -> bool {
        (self.peak_bytes() as f64) <= capacity_bytes as f64 * (1.0 - reserve_frac)
    }
}

/// Estimates the device-memory footprint of one training iteration.
///
/// Weight tensors count once each (they are the model parameters);
/// activation and index tensors are counted while live — from the node that
/// produces them (or node 0 for external inputs) to their last consumer.
pub fn estimate(graph: &Graph) -> MemoryReport {
    let n = graph.node_count();
    let tensors = graph.tensor_count();
    let mut weight_bytes = 0u64;

    // Tensors produced by view ops (`reshape`/`t`/...) alias their input's
    // storage and allocate nothing. Tensors no node produces are external
    // inputs.
    let mut is_alias = vec![false; tensors];
    let mut produced = vec![false; tensors];
    for node in graph.nodes() {
        for &t in &node.outputs {
            produced[t.0] = true;
            if node.op == crate::op::OpKind::Reshape {
                is_alias[t.0] = true;
            }
        }
    }

    for (id, meta) in graph.tensors() {
        if meta.kind == TensorKind::Weight && !is_alias[id.0] {
            weight_bytes += meta.bytes();
        }
    }
    // Live range per tensor, indexed by `TensorId`; `UNUSED` marks weights,
    // aliases and tensors no node touches.
    const UNUSED: usize = usize::MAX;
    let mut first_use = vec![UNUSED; tensors];
    let mut last_use = vec![0usize; tensors];
    for (pos, node) in graph.nodes().iter().enumerate() {
        for &t in node.inputs.iter().chain(node.outputs.iter()) {
            if graph.tensor(t).kind == TensorKind::Weight || is_alias[t.0] {
                continue;
            }
            if first_use[t.0] == UNUSED {
                first_use[t.0] = pos;
            }
            last_use[t.0] = pos;
        }
    }
    // External (non-produced) activations are live from the start.
    for (start, &produced) in first_use.iter_mut().zip(&produced) {
        if *start != UNUSED && !produced {
            *start = 0;
        }
    }

    // Sweep: +bytes at first use, -bytes after last use. Exact integer
    // sums, so the order tensors are visited in cannot change the curve.
    let mut delta = vec![0i128; n + 1];
    for (t, (&start, &end)) in first_use.iter().zip(&last_use).enumerate() {
        if start == UNUSED {
            continue;
        }
        let bytes = graph.tensor(TensorId(t)).bytes() as i128;
        delta[start] += bytes;
        delta[end + 1] -= bytes;
    }
    let mut occupancy = Vec::with_capacity(n);
    let mut live: i128 = 0;
    let (mut peak, mut peak_node) = (0i128, 0usize);
    for (pos, d) in delta.iter().take(n).enumerate() {
        live += d;
        occupancy.push(live as u64);
        if live > peak {
            peak = live;
            peak_node = pos;
        }
    }

    MemoryReport {
        weight_bytes,
        peak_activation_bytes: peak as u64,
        peak_node,
        occupancy,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::OpKind;
    use crate::tensor::TensorMeta;

    #[test]
    fn chain_occupancy_counts_live_tensors() {
        // a -> relu -> b -> relu -> c : at node 1, a is dead, b+c live? No:
        // a(16B) lives through node 0; b lives 0..1; c lives 1.
        let mut g = Graph::new("chain");
        let a = g.add_tensor(TensorMeta::activation(&[4])); // 16 B
        let b = g.add_tensor(TensorMeta::activation(&[4]));
        let c = g.add_tensor(TensorMeta::activation(&[4]));
        g.add_op(OpKind::Relu, vec![a], vec![b]);
        g.add_op(OpKind::Relu, vec![b], vec![c]);
        let r = estimate(&g);
        assert_eq!(r.weight_bytes, 0);
        assert_eq!(r.occupancy, vec![32, 32]); // (a+b) then (b+c)
        assert_eq!(r.peak_activation_bytes, 32);
    }

    #[test]
    fn weights_always_resident() {
        let mut g = Graph::new("w");
        let x = g.add_tensor(TensorMeta::activation(&[8, 4]));
        let w = g.add_tensor(TensorMeta::weight(&[16, 4])); // 256 B
        let bias = g.add_tensor(TensorMeta::weight(&[16])); // 64 B
        let y = g.add_tensor(TensorMeta::activation(&[8, 16]));
        g.add_op(OpKind::AddMm, vec![x, w, bias], vec![y]);
        let r = estimate(&g);
        assert_eq!(r.weight_bytes, 320);
        assert_eq!(r.peak_bytes(), 320 + 128 + 512);
    }

    #[test]
    fn fits_respects_reserve() {
        let mut g = Graph::new("f");
        let w = g.add_tensor(TensorMeta::weight(&[1024])); // 4096 B
        let x = g.add_tensor(TensorMeta::activation(&[256])); // 1024 B
        let y = g.add_tensor(TensorMeta::activation(&[256]));
        g.add_op(OpKind::Relu, vec![x], vec![y]);
        let _ = w;
        let r = estimate(&g);
        assert!(r.fits(8192, 0.1));
        assert!(!r.fits(6144, 0.1)); // 6144*0.9 = 5529 < 6144 bytes peak
    }

    #[test]
    fn peak_node_is_argmax() {
        let mut g = Graph::new("peak");
        let a = g.add_tensor(TensorMeta::activation(&[1024])); // big
        let b = g.add_tensor(TensorMeta::activation(&[1024]));
        let c = g.add_tensor(TensorMeta::activation(&[2])); // small
        g.add_op(OpKind::Relu, vec![a], vec![b]);
        g.add_op(OpKind::Sum, vec![b], vec![c]);
        let r = estimate(&g);
        assert_eq!(r.peak_node, 0);
    }
}
