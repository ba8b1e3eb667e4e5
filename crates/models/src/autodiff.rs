//! A mini autograd tape for building backward passes.
//!
//! The CV and NLP model builders record each forward op on a [`Tape`]; a
//! single call to [`Tape::backward`] then emits the whole backward subgraph
//! in reverse order with correct gradient accumulation at fan-out points —
//! exactly the structure PyTorch's autograd produces and the paper's
//! execution-graph observer captures.

use std::collections::HashMap;

use dlperf_graph::{Graph, OpKind, TensorId, TensorMeta};

/// One recorded forward operation.
#[derive(Debug, Clone)]
enum Rec {
    /// Unary op: backward is `op_bwd(grad_y, extra...) -> grad_x`.
    Unary {
        op_bwd: OpKind,
        name: String,
        x: TensorId,
        y: TensorId,
        extra: Vec<TensorId>,
    },
    /// Fully connected: `AddMmBackward(grad_y, x, w) -> (grad_x, grad_w)`.
    Linear {
        x: TensorId,
        w: TensorId,
        y: TensorId,
    },
    /// Convolution: `Conv2dBackward(grad_y, x, w) -> (grad_x, grad_w)`.
    Conv {
        x: TensorId,
        w: TensorId,
        y: TensorId,
        stride: u64,
        pad: u64,
    },
    /// Residual add: gradient passes through to both operands.
    Add {
        a: TensorId,
        b: TensorId,
        y: TensorId,
    },
    /// Concatenation: backward splits the gradient.
    Cat {
        xs: Vec<TensorId>,
        y: TensorId,
        dim: usize,
    },
    /// Batched matmul: `BmmBackward(grad_y, a, b) -> (grad_a, grad_b)`.
    Bmm {
        a: TensorId,
        b: TensorId,
        y: TensorId,
    },
    /// View change: gradient reshapes back, no kernels.
    Reshape { x: TensorId, y: TensorId },
}

/// Records forward ops and emits the matching backward subgraph.
#[derive(Debug, Default)]
pub struct Tape {
    records: Vec<Rec>,
}

impl Tape {
    /// An empty tape.
    pub fn new() -> Self {
        Tape::default()
    }

    fn grad_like(graph: &mut Graph, t: TensorId) -> TensorId {
        let meta = graph.tensor(t).clone();
        graph.add_tensor(TensorMeta {
            kind: dlperf_graph::TensorKind::Activation,
            ..meta
        })
    }

    /// Records a unary op `name(x) -> y` whose backward op is `op_bwd`,
    /// receiving `grad_y` plus `extra` saved tensors.
    #[allow(clippy::too_many_arguments)]
    pub fn unary(
        &mut self,
        graph: &mut Graph,
        name: &str,
        op_fwd: OpKind,
        op_bwd: OpKind,
        x: TensorId,
        y: TensorId,
        extra: Vec<TensorId>,
    ) {
        graph.add_node(name.to_string(), op_fwd, vec![x], vec![y]);
        self.records.push(Rec::Unary {
            op_bwd,
            name: name.to_string(),
            x,
            y,
            extra,
        });
    }

    /// Records `addmm(x, w, b) -> y`.
    pub fn linear(
        &mut self,
        graph: &mut Graph,
        name: &str,
        x: TensorId,
        w: TensorId,
        bias: TensorId,
        y: TensorId,
    ) {
        graph.add_node(name.to_string(), OpKind::AddMm, vec![x, w, bias], vec![y]);
        self.records.push(Rec::Linear { x, w, y });
    }

    /// Records `conv2d(x, w) -> y`.
    #[allow(clippy::too_many_arguments)]
    pub fn conv(
        &mut self,
        graph: &mut Graph,
        name: &str,
        x: TensorId,
        w: TensorId,
        y: TensorId,
        stride: u64,
        pad: u64,
    ) {
        graph.add_node(
            name.to_string(),
            OpKind::Conv2d { stride, pad },
            vec![x, w],
            vec![y],
        );
        self.records.push(Rec::Conv {
            x,
            w,
            y,
            stride,
            pad,
        });
    }

    /// Records `add(a, b) -> y` (residual connection).
    pub fn add(&mut self, graph: &mut Graph, name: &str, a: TensorId, b: TensorId, y: TensorId) {
        graph.add_node(name.to_string(), OpKind::Add, vec![a, b], vec![y]);
        self.records.push(Rec::Add { a, b, y });
    }

    /// Records `cat(xs) -> y` along `dim`.
    pub fn cat(
        &mut self,
        graph: &mut Graph,
        name: &str,
        xs: Vec<TensorId>,
        y: TensorId,
        dim: usize,
    ) {
        graph.add_node(name.to_string(), OpKind::Cat { dim }, xs.clone(), vec![y]);
        self.records.push(Rec::Cat { xs, y, dim });
    }

    /// Records `bmm(a, b) -> y`.
    pub fn bmm(&mut self, graph: &mut Graph, name: &str, a: TensorId, b: TensorId, y: TensorId) {
        graph.add_node(name.to_string(), OpKind::Bmm, vec![a, b], vec![y]);
        self.records.push(Rec::Bmm { a, b, y });
    }

    /// Records a host-only view change `reshape(x) -> y`.
    pub fn reshape(&mut self, graph: &mut Graph, name: &str, x: TensorId, y: TensorId) {
        graph.add_node(name.to_string(), OpKind::Reshape, vec![x], vec![y]);
        self.records.push(Rec::Reshape { x, y });
    }

    /// Emits the backward subgraph. `seed` maps the loss-side tensor to its
    /// gradient (usually the prediction's gradient from the loss backward).
    /// Weight gradients are appended to `param_grads`. Returns the map from
    /// forward tensors to their gradient tensors.
    pub fn backward(
        self,
        graph: &mut Graph,
        seed: (TensorId, TensorId),
        param_grads: &mut Vec<TensorId>,
    ) -> HashMap<TensorId, TensorId> {
        let mut grads: HashMap<TensorId, TensorId> = HashMap::new();
        grads.insert(seed.0, seed.1);

        fn accumulate(
            graph: &mut Graph,
            grads: &mut HashMap<TensorId, TensorId>,
            t: TensorId,
            g: TensorId,
        ) {
            if let Some(&existing) = grads.get(&t) {
                let sum = Tape::grad_like(graph, t);
                graph.add_node(
                    "grad::accumulate",
                    OpKind::Add,
                    vec![existing, g],
                    vec![sum],
                );
                grads.insert(t, sum);
            } else {
                grads.insert(t, g);
            }
        }

        for rec in self.records.into_iter().rev() {
            match rec {
                Rec::Unary {
                    op_bwd,
                    name,
                    x,
                    y,
                    extra,
                } => {
                    let Some(&gy) = grads.get(&y) else { continue };
                    let gx = Self::grad_like(graph, x);
                    let mut inputs = vec![gy];
                    inputs.extend(extra);
                    graph.add_node(format!("{name}_backward"), op_bwd, inputs, vec![gx]);
                    accumulate(graph, &mut grads, x, gx);
                }
                Rec::Linear { x, w, y } => {
                    let Some(&gy) = grads.get(&y) else { continue };
                    let gx = Self::grad_like(graph, x);
                    let gw = Self::grad_like(graph, w);
                    graph.add_node(
                        "addmm_backward",
                        OpKind::AddMmBackward,
                        vec![gy, x, w],
                        vec![gx, gw],
                    );
                    param_grads.push(gw);
                    accumulate(graph, &mut grads, x, gx);
                }
                Rec::Conv {
                    x,
                    w,
                    y,
                    stride,
                    pad,
                } => {
                    let Some(&gy) = grads.get(&y) else { continue };
                    let gx = Self::grad_like(graph, x);
                    let gw = Self::grad_like(graph, w);
                    graph.add_node(
                        "conv2d_backward",
                        OpKind::Conv2dBackward { stride, pad },
                        vec![gy, x, w],
                        vec![gx, gw],
                    );
                    param_grads.push(gw);
                    accumulate(graph, &mut grads, x, gx);
                }
                Rec::Add { a, b, y } => {
                    let Some(&gy) = grads.get(&y) else { continue };
                    let ga = Self::grad_like(graph, a);
                    let gb = Self::grad_like(graph, b);
                    graph.add_node("add_backward", OpKind::AddBackward, vec![gy], vec![ga, gb]);
                    accumulate(graph, &mut grads, a, ga);
                    accumulate(graph, &mut grads, b, gb);
                }
                Rec::Cat { xs, y, dim } => {
                    let Some(&gy) = grads.get(&y) else { continue };
                    let gxs: Vec<TensorId> =
                        xs.iter().map(|&x| Self::grad_like(graph, x)).collect();
                    graph.add_node(
                        "cat_backward",
                        OpKind::CatBackward { dim },
                        vec![gy],
                        gxs.clone(),
                    );
                    for (x, gx) in xs.into_iter().zip(gxs) {
                        accumulate(graph, &mut grads, x, gx);
                    }
                }
                Rec::Bmm { a, b, y } => {
                    let Some(&gy) = grads.get(&y) else { continue };
                    let ga = Self::grad_like(graph, a);
                    let gb = Self::grad_like(graph, b);
                    graph.add_node(
                        "bmm_backward",
                        OpKind::BmmBackward,
                        vec![gy, a, b],
                        vec![ga, gb],
                    );
                    accumulate(graph, &mut grads, a, ga);
                    accumulate(graph, &mut grads, b, gb);
                }
                Rec::Reshape { x, y } => {
                    let Some(&gy) = grads.get(&y) else { continue };
                    let gx = Self::grad_like(graph, x);
                    graph.add_node("reshape_backward", OpKind::Reshape, vec![gy], vec![gx]);
                    accumulate(graph, &mut grads, x, gx);
                }
            }
        }
        grads
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlperf_graph::lower;

    #[test]
    fn residual_block_accumulates_gradients() {
        // x -> relu -> y ; add(x, y) -> z ; grad must accumulate at x.
        let mut g = Graph::new("res");
        let mut tape = Tape::new();
        let x = g.add_tensor(TensorMeta::activation(&[4, 8]).with_batch_dim(0));
        let y = g.add_tensor(TensorMeta::activation(&[4, 8]).with_batch_dim(0));
        tape.unary(
            &mut g,
            "relu",
            OpKind::Relu,
            OpKind::ReluBackward,
            x,
            y,
            vec![y],
        );
        let z = g.add_tensor(TensorMeta::activation(&[4, 8]).with_batch_dim(0));
        tape.add(&mut g, "residual", x, y, z);

        let gz = g.add_tensor(TensorMeta::activation(&[4, 8]).with_batch_dim(0));
        let mut params = Vec::new();
        let grads = tape.backward(&mut g, (z, gz), &mut params);
        assert!(g.validate().is_ok());
        assert!(grads.contains_key(&x));
        // One grad::accumulate node must exist (x receives two gradients).
        assert_eq!(
            g.nodes()
                .iter()
                .filter(|n| n.name == "grad::accumulate")
                .count(),
            1
        );
        assert!(lower::lower_graph(&g).is_ok());
    }

    #[test]
    fn linear_chain_produces_param_grads() {
        let mut g = Graph::new("lin");
        let mut tape = Tape::new();
        let x = g.add_tensor(TensorMeta::activation(&[8, 4]).with_batch_dim(0));
        let w = g.add_tensor(TensorMeta::weight(&[16, 4]));
        let bias = g.add_tensor(TensorMeta::weight(&[16]));
        let y = g.add_tensor(TensorMeta::activation(&[8, 16]).with_batch_dim(0));
        tape.linear(&mut g, "fc", x, w, bias, y);
        let gy = g.add_tensor(TensorMeta::activation(&[8, 16]).with_batch_dim(0));
        let mut params = Vec::new();
        tape.backward(&mut g, (y, gy), &mut params);
        assert_eq!(params.len(), 1);
        assert!(g.validate().is_ok());
    }

    #[test]
    fn cat_backward_splits() {
        let mut g = Graph::new("cat");
        let mut tape = Tape::new();
        let a = g.add_tensor(TensorMeta::activation(&[4, 2]).with_batch_dim(0));
        let b = g.add_tensor(TensorMeta::activation(&[4, 3]).with_batch_dim(0));
        let y = g.add_tensor(TensorMeta::activation(&[4, 5]).with_batch_dim(0));
        tape.cat(&mut g, "cat", vec![a, b], y, 1);
        let gy = g.add_tensor(TensorMeta::activation(&[4, 5]).with_batch_dim(0));
        let mut params = Vec::new();
        let grads = tape.backward(&mut g, (y, gy), &mut params);
        assert_eq!(g.tensor(grads[&a]).shape, vec![4, 2]);
        assert_eq!(g.tensor(grads[&b]).shape, vec![4, 3]);
    }

    #[test]
    fn unreached_records_skipped() {
        // An op whose output gradient never materializes is skipped.
        let mut g = Graph::new("skip");
        let mut tape = Tape::new();
        let a = g.add_tensor(TensorMeta::activation(&[4]));
        let b = g.add_tensor(TensorMeta::activation(&[4]));
        tape.unary(
            &mut g,
            "side",
            OpKind::Relu,
            OpKind::ReluBackward,
            a,
            b,
            vec![b],
        );
        let c = g.add_tensor(TensorMeta::activation(&[4]));
        let d = g.add_tensor(TensorMeta::activation(&[4]));
        tape.unary(
            &mut g,
            "main",
            OpKind::Sigmoid,
            OpKind::SigmoidBackward,
            c,
            d,
            vec![d],
        );
        let gd = g.add_tensor(TensorMeta::activation(&[4]));
        let mut params = Vec::new();
        let grads = tape.backward(&mut g, (d, gd), &mut params);
        assert!(grads.contains_key(&c));
        assert!(!grads.contains_key(&a));
    }
}
