//! The execution graph: operators connected through tensors.
//!
//! Nodes are stored in *execution order* — the order the framework's
//! dispatcher ran them, which is what the observer captures. Validation
//! checks that this order is consistent with the data dependencies (every
//! input is either a graph input or produced by an earlier node) and that
//! each tensor has at most one producer.

use serde::{Deserialize, Serialize};
use std::sync::{Arc, OnceLock};

use crate::op::OpKind;
use crate::tensor::{TensorId, TensorMeta};

/// Opaque handle to a node inside a [`Graph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct NodeId(pub usize);

/// One executed operator.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Node {
    /// Handle of this node in its graph.
    pub id: NodeId,
    /// Stable identity: unlike [`Node::id`] (which is a *position* and is
    /// re-indexed whenever a transformation rebuilds the execution order),
    /// the uid survives reorder/insert/fuse and lets diffing tools track a
    /// node across graph mutations. `0` means "not yet assigned" — the
    /// graph assigns a fresh nonzero uid when such a node is installed via
    /// [`Graph::set_nodes`].
    #[serde(default)]
    pub uid: u64,
    /// Human-readable name (defaults to the op's overhead key).
    pub name: String,
    /// Operator kind.
    pub op: OpKind,
    /// Input tensors, in positional order.
    pub inputs: Vec<TensorId>,
    /// Output tensors.
    pub outputs: Vec<TensorId>,
    /// CUDA stream this op's kernels are enqueued on (0 = default stream).
    /// Set by the *parallelize* transformation.
    pub stream: usize,
}

/// Errors raised by graph construction and validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// A node references a tensor id that does not exist.
    TensorOutOfRange { node: usize, tensor: usize },
    /// Two nodes both claim to produce the same tensor.
    MultipleProducers {
        tensor: usize,
        first: usize,
        second: usize,
    },
    /// A node consumes a tensor produced by a *later* node.
    UseBeforeDef {
        node: usize,
        tensor: usize,
        producer: usize,
    },
    /// A node lists the same tensor as both input and output.
    InPlaceAlias { node: usize, tensor: usize },
    /// The requested node does not exist.
    NoSuchNode { node: usize },
    /// A node's id is not its position in execution order (only a decoded
    /// graph can carry one: every mutator re-indexes ids to positions).
    NodeIdMismatch { position: usize, id: usize },
}

impl std::fmt::Display for GraphError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GraphError::TensorOutOfRange { node, tensor } => {
                write!(f, "node {node} references unknown tensor {tensor}")
            }
            GraphError::MultipleProducers {
                tensor,
                first,
                second,
            } => {
                write!(
                    f,
                    "tensor {tensor} produced by both node {first} and node {second}"
                )
            }
            GraphError::UseBeforeDef {
                node,
                tensor,
                producer,
            } => {
                write!(
                    f,
                    "node {node} uses tensor {tensor} before its producer {producer} runs"
                )
            }
            GraphError::InPlaceAlias { node, tensor } => {
                write!(
                    f,
                    "node {node} aliases tensor {tensor} as both input and output"
                )
            }
            GraphError::NoSuchNode { node } => write!(f, "no such node {node}"),
            GraphError::NodeIdMismatch { position, id } => {
                write!(f, "node at position {position} carries id {id}")
            }
        }
    }
}

impl std::error::Error for GraphError {}

/// Derived read-only views of a graph, built lazily by [`Graph::index`]
/// and cached until the next structural mutation: a producer map (O(1)
/// per query instead of a node scan) and a structural signature per node.
/// The signatures are what incremental re-prediction diffs: two nodes with
/// equal signatures contribute identical per-node cost terms to the
/// Algorithm-1 walk. Every fresh graph (each search candidate, each
/// sharded segment) builds one, so it holds only what a reader uses.
#[derive(Debug)]
pub struct GraphIndex {
    producer: Vec<Option<NodeId>>,
    signatures: Vec<u64>,
}

impl GraphIndex {
    /// Builds the views from scratch; [`Graph::index`] caches the result.
    /// A tensor's producer is its first producer in execution order, the
    /// same rule as [`Graph::producer`], so the two agree even on a graph
    /// that [`Graph::validate`] rejects for multiple producers.
    pub fn build(g: &Graph) -> Self {
        let mut producer = vec![None; g.tensors.len()];
        let mut signatures = Vec::with_capacity(g.nodes.len());
        for n in g.nodes.iter() {
            for t in &n.outputs {
                producer[t.0].get_or_insert(n.id);
            }
            signatures.push(crate::delta::node_signature(g, n));
        }
        GraphIndex {
            producer,
            signatures,
        }
    }

    /// The node producing `tensor`, if any (graph inputs have none).
    pub fn producer(&self, tensor: TensorId) -> Option<NodeId> {
        self.producer.get(tensor.0).copied().flatten()
    }

    /// Per-node structural signatures, in execution order. Position `i`
    /// covers node `i`'s op, stream, and input/output tensor handles plus
    /// their metadata — everything that feeds its Algorithm-1 cost terms.
    pub fn signatures(&self) -> &[u64] {
        &self.signatures
    }
}

/// An execution graph: tensors plus operators in execution order.
///
/// The tensor and node tables are shared copy-on-write: `clone` copies
/// only the name and bumps two reference counts, and the first mutation of
/// a table a clone still shares copies that table alone. A transform that
/// rewrites tensor metadata (a batch resize) therefore leaves the node
/// table shared with the graph it was cloned from, and the original never
/// sees a clone's edits.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Graph {
    /// Workload name (e.g. `"DLRM_default"`).
    pub name: String,
    tensors: Arc<Vec<TensorMeta>>,
    nodes: Arc<Vec<Node>>,
    /// Highest node uid handed out so far (uids start at 1; 0 = unset).
    #[serde(default)]
    next_uid: u64,
    /// Lazily built derived views; dropped on every structural mutation.
    #[serde(skip)]
    index: OnceLock<Arc<GraphIndex>>,
}

impl Graph {
    /// Creates an empty graph.
    pub fn new(name: impl Into<String>) -> Self {
        Graph {
            name: name.into(),
            tensors: Arc::default(),
            nodes: Arc::default(),
            next_uid: 0,
            index: OnceLock::new(),
        }
    }

    /// Hands out the next node uid.
    fn fresh_uid(&mut self) -> u64 {
        self.next_uid += 1;
        self.next_uid
    }

    /// The cached derived views (producers, node signatures),
    /// built on first use after any structural mutation.
    pub fn index(&self) -> Arc<GraphIndex> {
        self.index
            .get_or_init(|| Arc::new(GraphIndex::build(self)))
            .clone()
    }

    /// Adds a tensor and returns its handle.
    pub fn add_tensor(&mut self, meta: TensorMeta) -> TensorId {
        self.index.take();
        Arc::make_mut(&mut self.tensors).push(meta);
        TensorId(self.tensors.len() - 1)
    }

    /// Appends a node at the end of the execution order.
    ///
    /// # Panics
    /// Panics if any referenced tensor id is out of range; structural
    /// problems beyond that are reported by [`Graph::validate`].
    pub fn add_node(
        &mut self,
        name: impl Into<String>,
        op: OpKind,
        inputs: Vec<TensorId>,
        outputs: Vec<TensorId>,
    ) -> NodeId {
        for t in inputs.iter().chain(outputs.iter()) {
            assert!(t.0 < self.tensors.len(), "tensor id {} out of range", t.0);
        }
        self.index.take();
        let id = NodeId(self.nodes.len());
        let uid = self.fresh_uid();
        Arc::make_mut(&mut self.nodes).push(Node {
            id,
            uid,
            name: name.into(),
            op,
            inputs,
            outputs,
            stream: 0,
        });
        id
    }

    /// Appends a node named after its op kind.
    pub fn add_op(&mut self, op: OpKind, inputs: Vec<TensorId>, outputs: Vec<TensorId>) -> NodeId {
        self.add_node(op.overhead_key().to_string(), op, inputs, outputs)
    }

    /// Tensor metadata by handle.
    ///
    /// # Panics
    /// Panics if the handle came from a different graph and is out of range.
    pub fn tensor(&self, id: TensorId) -> &TensorMeta {
        &self.tensors[id.0]
    }

    /// Tensor metadata by handle, without panicking: `None` if the handle
    /// does not belong to this graph. The untrusted-input safe twin of
    /// [`Graph::tensor`] — callers add their own context (e.g. the
    /// referencing node) to the failure.
    pub fn try_tensor(&self, id: TensorId) -> Option<&TensorMeta> {
        self.tensors.get(id.0)
    }

    /// Mutable tensor metadata by handle. Invalidates the cached
    /// [`GraphIndex`]: node signatures cover tensor metadata, so editing a
    /// meta (e.g. a batch resize) changes the signatures of every node
    /// touching that tensor.
    pub fn tensor_mut(&mut self, id: TensorId) -> &mut TensorMeta {
        self.index.take();
        &mut Arc::make_mut(&mut self.tensors)[id.0]
    }

    /// All tensors with their handles.
    pub fn tensors(&self) -> impl Iterator<Item = (TensorId, &TensorMeta)> {
        self.tensors
            .iter()
            .enumerate()
            .map(|(i, t)| (TensorId(i), t))
    }

    /// Number of tensors.
    pub fn tensor_count(&self) -> usize {
        self.tensors.len()
    }

    /// Nodes in execution order.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Node by handle.
    pub fn node(&self, id: NodeId) -> Result<&Node, GraphError> {
        self.nodes
            .get(id.0)
            .ok_or(GraphError::NoSuchNode { node: id.0 })
    }

    /// Mutable node by handle.
    pub fn node_mut(&mut self, id: NodeId) -> Result<&mut Node, GraphError> {
        if id.0 >= self.nodes.len() {
            return Err(GraphError::NoSuchNode { node: id.0 });
        }
        self.index.take();
        Ok(&mut Arc::make_mut(&mut self.nodes)[id.0])
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// The node that produces `tensor`, if any (graph inputs have none).
    pub fn producer(&self, tensor: TensorId) -> Option<NodeId> {
        self.nodes
            .iter()
            .find(|n| n.outputs.contains(&tensor))
            .map(|n| n.id)
    }

    /// All nodes that consume `tensor`.
    pub fn consumers(&self, tensor: TensorId) -> Vec<NodeId> {
        self.nodes
            .iter()
            .filter(|n| n.inputs.contains(&tensor))
            .map(|n| n.id)
            .collect()
    }

    /// Tensors not produced by any node (the graph's external inputs:
    /// training data, weights).
    pub fn external_inputs(&self) -> Vec<TensorId> {
        let mut produced = vec![false; self.tensors.len()];
        for n in self.nodes.iter() {
            for t in &n.outputs {
                produced[t.0] = true;
            }
        }
        (0..self.tensors.len())
            .filter(|&i| !produced[i])
            .map(TensorId)
            .collect()
    }

    /// Replaces the node list (used by transformations that rebuild
    /// execution order). Re-indexes node ids to match positions; existing
    /// uids are preserved (they are the identity that survives a rebuild)
    /// and freshly constructed nodes with `uid == 0` get new ones.
    pub fn set_nodes(&mut self, mut nodes: Vec<Node>) {
        self.index.take();
        self.next_uid = nodes.iter().map(|n| n.uid).fold(self.next_uid, u64::max);
        for (i, n) in nodes.iter_mut().enumerate() {
            n.id = NodeId(i);
            if n.uid == 0 {
                self.next_uid += 1;
                n.uid = self.next_uid;
            }
        }
        self.nodes = Arc::new(nodes);
    }

    /// Direct data-dependency predecessors of `node` (producers of its
    /// inputs), deduplicated.
    pub fn predecessors(&self, node: NodeId) -> Vec<NodeId> {
        let mut preds: Vec<NodeId> = self.nodes[node.0]
            .inputs
            .iter()
            .filter_map(|&t| self.producer(t))
            .collect();
        preds.sort();
        preds.dedup();
        preds
    }

    /// Checks structural invariants; see [`GraphError`] for the cases.
    ///
    /// The first pass checks each node alone and records each tensor's
    /// producer by position in a dense table; every tensor id is
    /// range-checked before it indexes the table. Use-before-def needs the
    /// whole table, so a second pass reports it, after every other error.
    pub fn validate(&self) -> Result<(), GraphError> {
        let mut producer: Vec<Option<usize>> = vec![None; self.tensors.len()];
        for (pos, n) in self.nodes.iter().enumerate() {
            if n.id.0 != pos {
                return Err(GraphError::NodeIdMismatch {
                    position: pos,
                    id: n.id.0,
                });
            }
            for t in n.inputs.iter().chain(n.outputs.iter()) {
                if t.0 >= self.tensors.len() {
                    return Err(GraphError::TensorOutOfRange {
                        node: pos,
                        tensor: t.0,
                    });
                }
            }
            if let Some(t) = n.inputs.iter().find(|t| n.outputs.contains(t)) {
                return Err(GraphError::InPlaceAlias {
                    node: pos,
                    tensor: t.0,
                });
            }
            for t in &n.outputs {
                if let Some(first) = producer[t.0] {
                    return Err(GraphError::MultipleProducers {
                        tensor: t.0,
                        first,
                        second: pos,
                    });
                }
                producer[t.0] = Some(pos);
            }
        }
        for (pos, n) in self.nodes.iter().enumerate() {
            for t in &n.inputs {
                if let Some(p) = producer[t.0].filter(|&p| p >= pos) {
                    return Err(GraphError::UseBeforeDef {
                        node: pos,
                        tensor: t.0,
                        producer: p,
                    });
                }
            }
        }
        Ok(())
    }

    /// Serializes the graph to pretty JSON (the paper exports captured
    /// execution graphs as JSON files).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("graph serialization cannot fail")
    }

    /// Deserializes a graph from JSON and validates it. Graphs exported
    /// before node uids existed deserialize with `uid == 0` everywhere;
    /// those nodes get fresh uids here so diffing works on any input.
    pub fn from_json(s: &str) -> Result<Self, Box<dyn std::error::Error>> {
        let mut g: Graph = serde_json::from_str(s)?;
        g.validate()?;
        g.next_uid = g.nodes.iter().map(|n| n.uid).fold(g.next_uid, u64::max);
        // A freshly decoded table is unshared, so `make_mut` copies nothing.
        for n in Arc::make_mut(&mut g.nodes)
            .iter_mut()
            .filter(|n| n.uid == 0)
        {
            g.next_uid += 1;
            n.uid = g.next_uid;
        }
        Ok(g)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tensor::TensorMeta;

    fn linear_graph() -> Graph {
        let mut g = Graph::new("test");
        let x = g.add_tensor(TensorMeta::activation(&[8, 4]).with_batch_dim(0));
        let w = g.add_tensor(TensorMeta::weight(&[16, 4]));
        let b = g.add_tensor(TensorMeta::weight(&[16]));
        let y = g.add_tensor(TensorMeta::activation(&[8, 16]).with_batch_dim(0));
        let z = g.add_tensor(TensorMeta::activation(&[8, 16]).with_batch_dim(0));
        g.add_op(OpKind::AddMm, vec![x, w, b], vec![y]);
        g.add_op(OpKind::Relu, vec![y], vec![z]);
        g
    }

    #[test]
    fn valid_graph_passes() {
        assert_eq!(linear_graph().validate(), Ok(()));
    }

    #[test]
    fn producers_and_consumers() {
        let g = linear_graph();
        assert_eq!(g.producer(TensorId(3)), Some(NodeId(0)));
        assert_eq!(g.producer(TensorId(0)), None);
        assert_eq!(g.consumers(TensorId(3)), vec![NodeId(1)]);
        assert_eq!(
            g.external_inputs(),
            vec![TensorId(0), TensorId(1), TensorId(2)]
        );
    }

    #[test]
    fn use_before_def_detected() {
        let mut g = Graph::new("bad");
        let a = g.add_tensor(TensorMeta::activation(&[4]));
        let b = g.add_tensor(TensorMeta::activation(&[4]));
        // Node 0 consumes b, which node 1 produces.
        g.add_op(OpKind::Relu, vec![b], vec![a]);
        let c = g.add_tensor(TensorMeta::activation(&[4]));
        g.add_op(OpKind::Relu, vec![c], vec![b]);
        assert!(matches!(g.validate(), Err(GraphError::UseBeforeDef { .. })));
    }

    #[test]
    fn multiple_producers_detected() {
        let mut g = Graph::new("bad");
        let a = g.add_tensor(TensorMeta::activation(&[4]));
        let b = g.add_tensor(TensorMeta::activation(&[4]));
        g.add_op(OpKind::Relu, vec![a], vec![b]);
        g.add_op(OpKind::Sigmoid, vec![a], vec![b]);
        assert!(matches!(
            g.validate(),
            Err(GraphError::MultipleProducers { .. })
        ));
    }

    #[test]
    fn inplace_alias_detected() {
        let mut g = Graph::new("bad");
        let a = g.add_tensor(TensorMeta::activation(&[4]));
        g.add_op(OpKind::Relu, vec![a], vec![a]);
        assert!(matches!(g.validate(), Err(GraphError::InPlaceAlias { .. })));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn dangling_tensor_panics_at_add() {
        let mut g = Graph::new("bad");
        g.add_op(OpKind::Relu, vec![TensorId(0)], vec![]);
    }

    #[test]
    fn json_roundtrip() {
        let g = linear_graph();
        let s = g.to_json();
        let back = Graph::from_json(&s).unwrap();
        assert_eq!(back.node_count(), g.node_count());
        assert_eq!(back.tensor_count(), g.tensor_count());
        assert_eq!(back.nodes()[0].op, OpKind::AddMm);
    }

    /// `linear_graph()`'s JSON with the given keys dropped from the graph
    /// object and from every node.
    fn json_without(graph_key: &str, node_key: &str) -> String {
        let mut v = serde_json::to_value(&linear_graph());
        let serde_json::Value::Obj(entries) = &mut v else {
            panic!("graph is an object")
        };
        entries.retain(|(k, _)| k != graph_key);
        let nodes = entries.iter_mut().find(|(k, _)| k == "nodes");
        if let Some((_, serde_json::Value::Arr(nodes))) = nodes {
            for node in nodes {
                if let serde_json::Value::Obj(fields) = node {
                    fields.retain(|(k, _)| k != node_key);
                }
            }
        }
        serde_json::to_string(&v).unwrap()
    }

    #[test]
    fn missing_node_uid_decodes_to_default() {
        let json = json_without("", "uid");
        assert!(!json.contains("\"uid\""), "{json}");
        let g: Graph = serde_json::from_str(&json).unwrap();
        assert!(g.nodes().iter().all(|n| n.uid == 0));
        assert_eq!(g.next_uid, 2);
    }

    #[test]
    fn missing_next_uid_decodes_to_default() {
        let json = json_without("next_uid", "");
        assert!(!json.contains("next_uid"), "{json}");
        let g: Graph = serde_json::from_str(&json).unwrap();
        assert_eq!(g.next_uid, 0);
        assert_eq!(g.nodes()[1].uid, 2);
        // `from_json` restores the counter from the node uids.
        assert_eq!(Graph::from_json(&json).unwrap().next_uid, 2);
    }

    /// A graph of `tensors` activations and one Relu per `(id, inputs,
    /// outputs)`, installed as given: ids, ranges and dependencies are not
    /// checked, so the graph can break every rule `validate` knows.
    fn raw_graph(tensors: usize, nodes: &[(usize, &[usize], &[usize])]) -> Graph {
        let mut g = Graph::new("raw");
        for _ in 0..tensors {
            g.add_tensor(TensorMeta::activation(&[4]));
        }
        let ids = |ts: &[usize]| ts.iter().map(|&t| TensorId(t)).collect();
        let nodes = nodes
            .iter()
            .map(|&(id, inputs, outputs)| Node {
                id: NodeId(id),
                uid: 0,
                name: "relu".into(),
                op: OpKind::Relu,
                inputs: ids(inputs),
                outputs: ids(outputs),
                stream: 0,
            })
            .collect();
        g.nodes = Arc::new(nodes);
        g
    }

    #[test]
    fn validate_errors_are_frozen() {
        // Frozen from the hash-map implementation of `validate`: one graph
        // per error it reports, plus graphs that pin which error wins when
        // a graph breaks several rules.
        use GraphError::*;
        let cases: [(Graph, Result<(), GraphError>); 11] = [
            (raw_graph(3, &[(0, &[0], &[1]), (1, &[1], &[2])]), Ok(())),
            (
                raw_graph(3, &[(0, &[0], &[1]), (5, &[1], &[2])]),
                Err(NodeIdMismatch { position: 1, id: 5 }),
            ),
            (
                raw_graph(3, &[(0, &[0], &[1]), (1, &[1, 7], &[2])]),
                Err(TensorOutOfRange { node: 1, tensor: 7 }),
            ),
            (
                raw_graph(3, &[(0, &[0], &[1]), (1, &[1], &[9])]),
                Err(TensorOutOfRange { node: 1, tensor: 9 }),
            ),
            (
                raw_graph(3, &[(0, &[0], &[1]), (1, &[2, 1], &[1])]),
                Err(InPlaceAlias { node: 1, tensor: 1 }),
            ),
            (
                raw_graph(3, &[(0, &[2], &[1]), (1, &[0], &[2])]),
                Err(UseBeforeDef {
                    node: 0,
                    tensor: 2,
                    producer: 1,
                }),
            ),
            (
                raw_graph(
                    5,
                    &[
                        (0, &[0], &[1]),
                        (1, &[1, 4], &[2]),
                        (2, &[2, 4], &[3]),
                        (3, &[0], &[4]),
                    ],
                ),
                Err(UseBeforeDef {
                    node: 1,
                    tensor: 4,
                    producer: 3,
                }),
            ),
            (
                raw_graph(2, &[(0, &[0], &[1]), (1, &[0], &[1])]),
                Err(MultipleProducers {
                    tensor: 1,
                    first: 0,
                    second: 1,
                }),
            ),
            (
                raw_graph(2, &[(0, &[0], &[1, 1])]),
                Err(MultipleProducers {
                    tensor: 1,
                    first: 0,
                    second: 0,
                }),
            ),
            (
                // A use-before-def at node 0 loses to a second producer at
                // node 2: use-before-def is reported after every other error.
                raw_graph(3, &[(0, &[2], &[1]), (1, &[0], &[2]), (2, &[0], &[2])]),
                Err(MultipleProducers {
                    tensor: 2,
                    first: 1,
                    second: 2,
                }),
            ),
            (
                // The first failing node decides, whatever its error.
                raw_graph(3, &[(0, &[0], &[0]), (3, &[0], &[1])]),
                Err(InPlaceAlias { node: 0, tensor: 0 }),
            ),
        ];
        for (i, (graph, want)) in cases.iter().enumerate() {
            assert_eq!(&graph.validate(), want, "case {i}");
        }
    }

    #[test]
    fn index_keeps_the_first_of_two_producers_like_the_scan() {
        let mut g = Graph::new("two producers");
        let a = g.add_tensor(TensorMeta::activation(&[4]));
        let b = g.add_tensor(TensorMeta::activation(&[4]));
        let c = g.add_tensor(TensorMeta::activation(&[4]));
        g.add_op(OpKind::Relu, vec![a], vec![b]);
        g.add_op(OpKind::Sigmoid, vec![a], vec![b]);
        g.add_op(OpKind::Relu, vec![b], vec![c]);
        assert!(matches!(
            g.validate(),
            Err(GraphError::MultipleProducers { .. })
        ));
        assert_eq!(g.producer(b), Some(NodeId(0)));
        assert_eq!(g.index().producer(b), g.producer(b));
        assert_eq!(g.predecessors(NodeId(2)), vec![NodeId(0)]);
    }

    #[test]
    fn predecessors_deduplicated() {
        let mut g = Graph::new("dup");
        let a = g.add_tensor(TensorMeta::activation(&[4, 4]));
        let b = g.add_tensor(TensorMeta::activation(&[4, 4]));
        let c = g.add_tensor(TensorMeta::activation(&[4, 8]));
        g.add_op(OpKind::Relu, vec![a], vec![b]);
        let n = g.add_op(OpKind::Cat { dim: 1 }, vec![b, b], vec![c]);
        assert_eq!(g.predecessors(n), vec![NodeId(0)]);
    }
}
