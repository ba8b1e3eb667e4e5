//! Communication-collective vocabulary (the multi-GPU extension of §V-B).
//!
//! The paper names kernel performance models for `all_to_all` and
//! `all_reduce` as the missing piece for distributed-training prediction.
//! This module names the collectives ([`CollectiveKind`]) and one
//! invocation ([`CollectiveSpec`]). They are priced elsewhere: the ground
//! truth is the step-by-step link-graph oracle
//! ([`crate::interconnect::LinkGraph::simulate`]), and the prediction is
//! the α–β `CommModel` in `dlperf-distrib`.

use serde::{Deserialize, Serialize};

/// Which collective operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CollectiveKind {
    /// Ring all-reduce (gradient synchronization in data parallelism).
    AllReduce,
    /// Pairwise all-to-all (embedding-output exchange in model parallelism).
    AllToAll,
    /// Ring all-gather.
    AllGather,
}

impl std::fmt::Display for CollectiveKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            CollectiveKind::AllReduce => "all_reduce",
            CollectiveKind::AllToAll => "all_to_all",
            CollectiveKind::AllGather => "all_gather",
        };
        f.write_str(s)
    }
}

/// One collective invocation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CollectiveSpec {
    /// Operation.
    pub kind: CollectiveKind,
    /// Payload bytes held by each rank before the collective.
    pub bytes_per_rank: u64,
    /// Number of participating GPUs.
    pub world: u32,
}
