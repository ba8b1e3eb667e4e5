//! # dlperf-graph
//!
//! The execution-graph intermediate representation at the heart of the
//! paper's prediction pipeline.
//!
//! The paper instruments PyTorch with an *execution graph observer* that
//! records every operator executed in a training iteration together with its
//! input/output tensors — i.e. full data dependencies, which trace-only
//! approaches such as Daydream lack. This crate is the Rust equivalent of
//! that captured artifact:
//!
//! * [`Graph`] — operators ([`Node`]) connected through tensors
//!   ([`TensorMeta`]), with validation and topological iteration;
//! * [`lower`] — lowering of each operator to the GPU kernels it launches
//!   (the mapping that lets ops like `addmm` and `AddmmBackward` share one
//!   GEMM kernel performance model);
//! * [`transform`] — the co-design mutations from §V of the paper:
//!   *resize*, *fuse* (embedding bags → batched embedding), *replace*,
//!   *insert*/*remove*, and *parallelize* (multi-stream assignment).
//!
//! Graphs serialize to JSON with `serde`, mirroring the paper's exported
//! execution-graph files.
//!
//! ## Example
//!
//! ```
//! use dlperf_graph::{Graph, OpKind, TensorKind, TensorMeta};
//!
//! let mut g = Graph::new("tiny-mlp");
//! let x = g.add_tensor(TensorMeta::activation(&[64, 128]).with_batch_dim(0));
//! let w = g.add_tensor(TensorMeta::weight(&[256, 128]));
//! let b = g.add_tensor(TensorMeta::weight(&[256]));
//! let y = g.add_tensor(TensorMeta::activation(&[64, 256]).with_batch_dim(0));
//! g.add_node("aten::addmm", OpKind::AddMm, vec![x, w, b], vec![y]);
//! assert!(g.validate().is_ok());
//! ```

pub mod delta;
pub mod graph;
pub mod lower;
pub mod memory;
pub mod op;
pub mod stats;
pub mod tensor;
pub mod transform;

pub use delta::{common_affix, node_signature};
pub use graph::{Graph, GraphError, GraphIndex, Node, NodeId};
pub use op::OpKind;
pub use tensor::{DType, TensorId, TensorKind, TensorMeta};
