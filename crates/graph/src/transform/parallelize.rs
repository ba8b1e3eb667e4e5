//! The *parallelize* transformation: assign independent branches to
//! different GPU streams.
//!
//! The paper: "assign ops in parallel branches with no data dependency to
//! different GPU streams for *parallel* ... This can only be performed with
//! our support of data dependencies between ops". Stream assignments are
//! stored on the nodes; the execution engine and the E2E predictor both
//! honour them.

use std::collections::HashSet;

use crate::graph::{Graph, NodeId};
use crate::transform::TransformError;

/// Computes the set of ancestor node indices for every node.
fn ancestor_sets(graph: &Graph) -> Vec<HashSet<usize>> {
    let n = graph.node_count();
    let mut anc: Vec<HashSet<usize>> = vec![HashSet::new(); n];
    for (i, node) in graph.nodes().iter().enumerate() {
        for pred in graph.predecessors(node.id) {
            let p = pred.0;
            if p < i {
                let pa: Vec<usize> = anc[p].iter().copied().collect();
                anc[i].insert(p);
                anc[i].extend(pa);
            }
        }
    }
    anc
}

/// Groups the `candidates` into maximal sets of mutually *dependent* nodes
/// (connected through ancestor/descendant relations); different groups are
/// pairwise independent and can run on different streams.
pub fn independent_groups(graph: &Graph, candidates: &[NodeId]) -> Vec<Vec<NodeId>> {
    let anc = ancestor_sets(graph);
    let related = |a: NodeId, b: NodeId| anc[a.0].contains(&b.0) || anc[b.0].contains(&a.0);

    let mut groups: Vec<Vec<NodeId>> = Vec::new();
    for &c in candidates {
        // Union-find style: merge into every group containing a related node.
        let mut hit: Vec<usize> = groups
            .iter()
            .enumerate()
            .filter(|(_, grp)| grp.iter().any(|&g| related(g, c)))
            .map(|(i, _)| i)
            .collect();
        match hit.len() {
            0 => groups.push(vec![c]),
            1 => groups[hit[0]].push(c),
            _ => {
                hit.sort_unstable();
                let mut merged = vec![c];
                for &i in hit.iter().rev() {
                    merged.extend(groups.remove(i));
                }
                merged.sort();
                groups.push(merged);
            }
        }
    }
    groups
}

/// Assigns each group of nodes to its own stream (1, 2, ...), keeping
/// everything else on the default stream 0.
///
/// # Errors
/// * [`TransformError::Precondition`] if `groups` is empty or any group is
///   empty;
/// * [`TransformError::DependencyViolation`] if two different groups are
///   data-dependent (running them concurrently would be incorrect).
pub fn parallelize(graph: &mut Graph, groups: &[Vec<NodeId>]) -> Result<(), TransformError> {
    if groups.is_empty() || groups.iter().any(Vec::is_empty) {
        return Err(TransformError::Precondition(
            "groups must be non-empty".into(),
        ));
    }
    let anc = ancestor_sets(graph);
    for (i, ga) in groups.iter().enumerate() {
        for gb in groups.iter().skip(i + 1) {
            for &a in ga {
                for &b in gb {
                    if anc[a.0].contains(&b.0) || anc[b.0].contains(&a.0) {
                        return Err(TransformError::DependencyViolation(format!(
                            "node {} and node {} are data-dependent but in different groups",
                            a.0, b.0
                        )));
                    }
                }
            }
        }
    }
    for (stream_minus_1, grp) in groups.iter().enumerate() {
        for &id in grp {
            graph
                .node_mut(id)
                .map_err(|e| TransformError::Precondition(e.to_string()))?
                .stream = stream_minus_1 + 1;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::OpKind;
    use crate::tensor::TensorMeta;

    /// Two independent chains a->b and c->d joined by a cat.
    fn diamond() -> (Graph, Vec<NodeId>) {
        let mut g = Graph::new("diamond");
        let x = g.add_tensor(TensorMeta::activation(&[8, 8]));
        let a1 = g.add_tensor(TensorMeta::activation(&[8, 8]));
        let a2 = g.add_tensor(TensorMeta::activation(&[8, 8]));
        let b1 = g.add_tensor(TensorMeta::activation(&[8, 8]));
        let b2 = g.add_tensor(TensorMeta::activation(&[8, 8]));
        let out = g.add_tensor(TensorMeta::activation(&[8, 16]));
        let y = g.add_tensor(TensorMeta::activation(&[8, 8]));
        let n0 = g.add_op(OpKind::Relu, vec![x], vec![a1]);
        let n1 = g.add_op(OpKind::Sigmoid, vec![a1], vec![a2]);
        let n2 = g.add_op(OpKind::Relu, vec![y], vec![b1]);
        let n3 = g.add_op(OpKind::Sigmoid, vec![b1], vec![b2]);
        let n4 = g.add_op(OpKind::Cat { dim: 1 }, vec![a2, b2], vec![out]);
        (g, vec![n0, n1, n2, n3, n4])
    }

    #[test]
    fn independent_groups_split_branches() {
        let (g, ids) = diamond();
        let groups = independent_groups(&g, &ids[0..4]);
        assert_eq!(groups.len(), 2);
        let sizes: Vec<usize> = groups.iter().map(Vec::len).collect();
        assert_eq!(sizes, vec![2, 2]);
    }

    #[test]
    fn parallelize_assigns_streams() {
        let (mut g, ids) = diamond();
        let groups = vec![vec![ids[0], ids[1]], vec![ids[2], ids[3]]];
        parallelize(&mut g, &groups).unwrap();
        assert_eq!(g.nodes()[ids[0].0].stream, 1);
        assert_eq!(g.nodes()[ids[2].0].stream, 2);
        assert_eq!(g.nodes()[ids[4].0].stream, 0); // cat stays on default
    }

    #[test]
    fn dependent_groups_rejected() {
        let (mut g, ids) = diamond();
        // n0 -> n1 are dependent; splitting them across groups must fail.
        let groups = vec![vec![ids[0]], vec![ids[1]]];
        assert!(matches!(
            parallelize(&mut g, &groups),
            Err(TransformError::DependencyViolation(_))
        ));
    }

    #[test]
    fn empty_groups_rejected() {
        let (mut g, _) = diamond();
        assert!(matches!(
            parallelize(&mut g, &[]),
            Err(TransformError::Precondition(_))
        ));
        assert!(matches!(
            parallelize(&mut g, &[vec![]]),
            Err(TransformError::Precondition(_))
        ));
    }

    #[test]
    fn join_node_groups_with_both_branches() {
        let (g, ids) = diamond();
        // Including the cat (depends on both chains) merges everything.
        let groups = independent_groups(&g, &ids);
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0].len(), 5);
    }
}
