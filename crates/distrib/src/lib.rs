//! # dlperf-distrib
//!
//! Multi-GPU DLRM training performance modeling — the extension the paper
//! names as work in progress (§V-B: "the extension of this work to
//! (distributed) multi-GPU platforms also requires kernel performance
//! models of communication collectives (e.g., all_to_all, all_reduce)").
//!
//! The modeled scheme is DLRM's canonical **hybrid parallelism**:
//!
//! * embedding tables are **model-parallel** — sharded across GPUs by a
//!   [`ShardingPlan`]; each rank looks up its own tables for the *full*
//!   batch and exchanges outputs with an `all_to_all`;
//! * the MLPs are **data-parallel** — every rank processes `B / world`
//!   samples and synchronizes gradients with an `all_reduce`.
//!
//! One training iteration is four compute segments separated by three
//! collectives:
//!
//! ```text
//! S1: input copies + bottom MLP (B/w) + embedding fwd (B, local tables)
//! C1: all_to_all (embedding outputs)
//! S2: interaction + top MLP + loss + their backwards (B/w)
//! C2: all_to_all (embedding gradients)
//! S3: embedding bwd (B, local tables) + bottom MLP bwd (B/w)
//! C3: all_reduce (MLP gradients)
//! S4: optimizer step
//! ```
//!
//! [`engine::MultiGpuEngine`] measures this timeline on the simulated
//! cluster (per-rank discrete-event execution, barrier at each collective);
//! [`predictor::DistributedPredictor`] prices it from the execution graphs
//! plus the collective performance model — never running anything, so
//! embedding-sharding plans can be compared offline (the paper's
//! load-balancing use case, end to end).
//!
//! Every distributed price goes through one method,
//! [`DistributedPredictor::price`]: it borrows one device of a
//! [`dlperf_core::Evaluator`], prices each segment with
//! [`dlperf_core::Evaluator::price`] on that device's memo cache, and
//! takes the topology, incremental baselines and walk scratch from its
//! caller. [`sweep::sweep_shardings`] fans it out over a scenario matrix
//! with the evaluator's scratch pool; [`search::DistribAxis`] plugs it
//! into the optimization search.

pub mod builder;
pub mod comms;
pub mod engine;
pub mod plan;
pub mod predictor;
pub mod search;
pub mod sweep;
pub mod topology;

pub use builder::{DistributedDlrm, ParallelismStrategy};
pub use comms::{CollectiveEstimate, CommModel};
pub use engine::{DistributedRunResult, MultiGpuEngine};
pub use plan::{imbalance, ShardingPlan};
pub use predictor::{DistributedPrediction, DistributedPredictor};
pub use search::{DistribAxis, DistribMove};
pub use sweep::{
    enumerate_matrix, enumerate_plans, sweep_shardings, ShardingResult, ShardingScenario,
    ShardingSweepOutcome,
};
pub use topology::{Topology, TopologyShape};

/// Errors raised by distributed-model construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DistribError {
    /// The batch size is not divisible by the world size.
    BatchNotDivisible { batch: u64, world: usize },
    /// The sharding plan does not match the table count or world size.
    PlanMismatch(String),
}

impl std::fmt::Display for DistribError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DistribError::BatchNotDivisible { batch, world } => {
                write!(f, "batch {batch} not divisible by world {world}")
            }
            DistribError::PlanMismatch(s) => write!(f, "sharding plan mismatch: {s}"),
        }
    }
}

impl std::error::Error for DistribError {}
