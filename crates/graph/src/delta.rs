//! Structural diffing between execution graphs.
//!
//! Incremental re-prediction (see `dlperf-core`) needs to know which nodes
//! of a mutated graph still contribute *bitwise identical* per-node cost
//! terms to the Algorithm-1 walk. That is a purely structural question:
//! a node's lowered kernels and overhead bundle are functions of its op,
//! stream, and the metadata of the tensors it touches. We hash exactly
//! those into a per-node *signature* and diff signature sequences.
//!
//! The hasher is [`WordHasher`], implemented here rather than taken from
//! [`std::collections::hash_map::RandomState`] because signatures must be
//! deterministic: they are compared across graphs and cached across calls,
//! so a per-process random seed would be useless (and `SipHash` keys are
//! randomized). It mixes one 64-bit word per step, the same mix as the
//! kernel memo key's hash, because [`crate::GraphIndex::build`] hashes
//! every node of every fresh graph (each search candidate, each sharded
//! segment). Determinism is only required *within* a process — the
//! signatures never persist — so the hash function may change as long as
//! equal structure still hashes equal.

use std::hash::{Hash, Hasher};

use crate::graph::{Graph, Node};

/// A fixed-seed, word-wise 64-bit [`Hasher`] for structural signatures:
/// an Fx-style rotate–xor–multiply step per integer written, then the
/// murmur3 `fmix64` finalizer in [`Hasher::finish`] so every output bit
/// depends on every input bit. Byte strings are folded eight bytes per
/// step after their length.
#[derive(Debug, Clone)]
pub struct WordHasher(u64);

/// The multiplier of each step.
const K: u64 = 0x9e37_79b9_7f4a_7c15;

impl Default for WordHasher {
    fn default() -> Self {
        // A nonzero start, so leading zero words still move the state.
        WordHasher(0x243f_6a88_85a3_08d3)
    }
}

impl WordHasher {
    #[inline]
    fn word(&mut self, w: u64) {
        self.0 = (self.0.rotate_left(5) ^ w).wrapping_mul(K);
    }
}

impl Hasher for WordHasher {
    fn finish(&self) -> u64 {
        let mut h = self.0;
        h ^= h >> 33;
        h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^= h >> 33;
        h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
        h ^ (h >> 33)
    }

    fn write(&mut self, bytes: &[u8]) {
        self.word(bytes.len() as u64);
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.word(u64::from_le_bytes(c.try_into().expect("an 8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut last = [0u8; 8];
            last[..rest.len()].copy_from_slice(rest);
            self.word(u64::from_le_bytes(last));
        }
    }

    fn write_u8(&mut self, i: u8) {
        self.word(u64::from(i));
    }

    fn write_u16(&mut self, i: u16) {
        self.word(u64::from(i));
    }

    fn write_u32(&mut self, i: u32) {
        self.word(u64::from(i));
    }

    fn write_u64(&mut self, i: u64) {
        self.word(i);
    }

    fn write_usize(&mut self, i: usize) {
        self.word(i as u64);
    }
}

/// The structural signature of one node: everything Algorithm 1 reads when
/// pricing it. Two nodes with equal signatures lower to the same kernels,
/// draw the same overhead bundle, and read/write the same tensor slots —
/// so they step the walk identically given identical incoming state.
pub fn node_signature(graph: &Graph, node: &Node) -> u64 {
    let mut h = WordHasher::default();
    node.op.hash(&mut h);
    node.stream.hash(&mut h);
    node.inputs.len().hash(&mut h);
    for t in &node.inputs {
        t.hash(&mut h);
        graph.tensor(*t).hash(&mut h);
    }
    node.outputs.len().hash(&mut h);
    for t in &node.outputs {
        t.hash(&mut h);
        graph.tensor(*t).hash(&mut h);
    }
    h.finish()
}

/// Longest common prefix and suffix of two signature sequences, with the
/// suffix clamped so the two regions never overlap on either side.
pub fn common_affix(base: &[u64], new: &[u64]) -> (usize, usize) {
    let min = base.len().min(new.len());
    let mut prefix = 0;
    while prefix < min && base[prefix] == new[prefix] {
        prefix += 1;
    }
    let mut suffix = 0;
    while suffix < min - prefix && base[base.len() - 1 - suffix] == new[new.len() - 1 - suffix] {
        suffix += 1;
    }
    (prefix, suffix)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::NodeId;
    use crate::op::OpKind;
    use crate::tensor::TensorMeta;

    fn chain(n: usize) -> Graph {
        let mut g = Graph::new("chain");
        let mut prev = g.add_tensor(TensorMeta::activation(&[8, 8]).with_batch_dim(0));
        for _ in 0..n {
            let next = g.add_tensor(TensorMeta::activation(&[8, 8]).with_batch_dim(0));
            g.add_op(OpKind::Relu, vec![prev], vec![next]);
            prev = next;
        }
        g
    }

    /// The clean prefix and suffix of `new` against `base`, as incremental
    /// re-prediction computes them.
    fn affix(base: &Graph, new: &Graph) -> (usize, usize) {
        common_affix(base.index().signatures(), new.index().signatures())
    }

    #[test]
    fn identical_graphs_diff_clean() {
        let a = chain(6);
        let b = a.clone();
        assert_eq!(affix(&a, &b), (6, 0));
    }

    #[test]
    fn single_op_replacement_dirties_one_node() {
        let a = chain(6);
        let mut b = a.clone();
        b.node_mut(NodeId(3)).unwrap().op = OpKind::Sigmoid;
        assert_eq!(affix(&a, &b), (3, 2));
    }

    #[test]
    fn tensor_meta_edit_dirties_its_toucher_via_tensor_mut() {
        let a = chain(5);
        let mut b = a.clone();
        // Editing the meta of the chain's 3rd intermediate tensor dirties
        // its producer (node 2) and consumer (node 3).
        *b.tensor_mut(crate::tensor::TensorId(3)) =
            TensorMeta::activation(&[16, 8]).with_batch_dim(0);
        assert_eq!(affix(&a, &b), (2, 1));
    }

    #[test]
    fn uids_survive_set_nodes_reorder() {
        let mut g = Graph::new("two-streams");
        let a = g.add_tensor(TensorMeta::activation(&[4]));
        let b = g.add_tensor(TensorMeta::activation(&[4]));
        let c = g.add_tensor(TensorMeta::activation(&[4]));
        g.add_op(OpKind::Relu, vec![a], vec![b]);
        g.add_op(OpKind::Sigmoid, vec![a], vec![c]);
        let uids: Vec<u64> = g.nodes().iter().map(|n| n.uid).collect();
        // Swap the two (independent) nodes.
        let mut nodes = g.nodes().to_vec();
        nodes.swap(0, 1);
        g.set_nodes(nodes);
        assert!(g.validate().is_ok());
        let after: Vec<u64> = g.nodes().iter().map(|n| n.uid).collect();
        assert_eq!(
            after,
            vec![uids[1], uids[0]],
            "uids must travel with their nodes"
        );
        // Ids are positions again.
        assert_eq!(g.nodes()[0].id, NodeId(0));
    }

    #[test]
    fn fresh_nodes_get_uids_in_set_nodes() {
        let mut g = chain(2);
        let x = g.add_tensor(TensorMeta::activation(&[8, 8]).with_batch_dim(0));
        let mut nodes = g.nodes().to_vec();
        let last_out = nodes.last().unwrap().outputs[0];
        nodes.push(Node {
            id: NodeId(0),
            uid: 0,
            name: "tail".into(),
            op: OpKind::Relu,
            inputs: vec![last_out],
            outputs: vec![x],
            stream: 0,
        });
        g.set_nodes(nodes);
        let uids: Vec<u64> = g.nodes().iter().map(|n| n.uid).collect();
        assert!(
            uids.iter().all(|&u| u != 0),
            "every installed node gets a uid: {uids:?}"
        );
        let mut sorted = uids.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), uids.len(), "uids must be unique: {uids:?}");
    }

    #[test]
    fn common_affix_clamps_overlap() {
        // All-equal sequences: suffix must not double-count the prefix.
        let s = [1u64, 2, 3];
        assert_eq!(common_affix(&s, &s), (3, 0));
        // Insertion in the middle of repeated values.
        let a = [7u64, 7, 7];
        let b = [7u64, 7, 7, 7];
        let (p, s) = common_affix(&a, &b);
        assert!(p + s <= 3, "affix regions may not overlap: ({p}, {s})");
    }

    #[test]
    fn signatures_are_cached_and_invalidated() {
        let mut g = chain(4);
        let first = g.index();
        let again = g.index();
        assert!(
            Arc::ptr_eq(&first, &again),
            "index must be cached between reads"
        );
        g.node_mut(NodeId(0)).unwrap().op = OpKind::Sigmoid;
        let rebuilt = g.index();
        assert!(
            !Arc::ptr_eq(&first, &rebuilt),
            "mutation must drop the cache"
        );
        assert_ne!(first.signatures()[0], rebuilt.signatures()[0]);
        assert_eq!(first.signatures()[1..], rebuilt.signatures()[1..]);
    }

    use std::sync::Arc;

    #[test]
    fn index_producer_matches_scan() {
        let g = chain(5);
        let idx = g.index();
        for (t, _) in g.tensors() {
            assert_eq!(idx.producer(t), g.producer(t));
        }
    }

    #[test]
    fn json_roundtrip_assigns_uids_to_legacy_graphs() {
        let g = chain(3);
        // Zero out uids in the export to simulate a pre-uid graph file
        // (serde's `default` fills the same zeros for absent fields).
        let legacy: String = g
            .to_json()
            .lines()
            .map(|l| {
                let indent = l.len() - l.trim_start().len();
                if l.trim_start().starts_with("\"uid\":") {
                    format!("{}\"uid\": 0,", &l[..indent])
                } else if l.trim_start().starts_with("\"next_uid\":") {
                    format!("{}\"next_uid\": 0", &l[..indent])
                } else {
                    l.to_string()
                }
            })
            .collect::<Vec<_>>()
            .join("\n");
        let back = Graph::from_json(&legacy).unwrap();
        assert!(back.nodes().iter().all(|n| n.uid != 0));
    }
}
