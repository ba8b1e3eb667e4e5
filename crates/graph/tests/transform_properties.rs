//! Property-based tests: graph transformations preserve validity on
//! randomly generated graphs.

use dlperf_graph::transform::{remove_node_rewire, replace_op, resize_batch};
use dlperf_graph::{Graph, NodeId, OpKind, TensorMeta};
use proptest::prelude::*;

/// A random valid chain of unary element-wise ops with a batch dimension.
fn chain_strategy() -> impl Strategy<Value = Graph> {
    (
        1u64..512,
        1usize..20,
        proptest::collection::vec(0usize..3, 1..20),
    )
        .prop_map(|(batch, width_pow, kinds)| {
            let width = 1u64 << width_pow;
            let mut g = Graph::new("prop-chain");
            let mut x = g.add_tensor(TensorMeta::activation(&[batch, width]).with_batch_dim(0));
            for k in kinds {
                let op = match k {
                    0 => OpKind::Relu,
                    1 => OpKind::Sigmoid,
                    _ => OpKind::Gelu,
                };
                let y = g.add_tensor(TensorMeta::activation(&[batch, width]).with_batch_dim(0));
                g.add_op(op, vec![x], vec![y]);
                x = y;
            }
            g
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn resize_preserves_validity_and_lowering(g in chain_strategy(), b in 1u64..8192) {
        let mut g = g;
        resize_batch(&mut g, b).unwrap();
        prop_assert!(g.validate().is_ok());
        prop_assert!(dlperf_graph::lower::lower_graph(&g).is_ok());
        // Every batch-annotated tensor now has the new batch size.
        for (_, t) in g.tensors() {
            if let Some(bs) = t.batch_size() {
                prop_assert_eq!(bs, b);
            }
        }
    }

    #[test]
    fn replace_preserves_validity(g in chain_strategy(), idx in 0usize..20) {
        let mut g = g;
        let n = g.node_count();
        let target = NodeId(idx % n);
        replace_op(&mut g, target, OpKind::Relu, "aten::relu").unwrap();
        prop_assert!(g.validate().is_ok());
    }

    #[test]
    fn remove_rewire_preserves_validity(g in chain_strategy(), idx in 0usize..20) {
        let mut g = g;
        let n = g.node_count();
        let target = NodeId(idx % n);
        remove_node_rewire(&mut g, target).unwrap();
        prop_assert!(g.validate().is_ok());
        prop_assert_eq!(g.node_count(), n - 1);
        prop_assert!(dlperf_graph::lower::lower_graph(&g).is_ok());
    }

    #[test]
    fn json_round_trip_any_chain(g in chain_strategy()) {
        let back = Graph::from_json(&g.to_json()).unwrap();
        prop_assert_eq!(back.node_count(), g.node_count());
        prop_assert_eq!(back.tensor_count(), g.tensor_count());
        for (a, b) in g.nodes().iter().zip(back.nodes()) {
            prop_assert_eq!(a.op, b.op);
        }
    }

    #[test]
    fn memory_estimate_never_negative_and_bounded(g in chain_strategy()) {
        let r = dlperf_graph::memory::estimate(&g);
        let total_bytes: u64 = g.tensors().map(|(_, t)| t.bytes()).sum();
        prop_assert!(r.peak_bytes() <= total_bytes);
        prop_assert_eq!(r.occupancy.len(), g.node_count());
    }
}
