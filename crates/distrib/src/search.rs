//! The distrib crate's contribution to the unified optimization search:
//! sharding-rebalance and parallelism-strategy moves, plus the scorer
//! that prices them through [`DistributedPredictor`].
//!
//! `dlperf-core`'s `search` module owns the beam loop and the graph /
//! device axes; this module plugs in the multi-GPU axis as the search's
//! "extra" type parameter. A [`DistribMove`] is one point of that axis —
//! a `(strategy, plan)` pair — and [`DistribAxis`] implements both hooks:
//!
//! * [`MoveGenerator`]: from a single-GPU candidate it seeds one
//!   round-robin plan per configured `(world, strategy)` cell; from a
//!   distributed candidate it emits single-table rebalances of the
//!   current plan (capped, deterministic order) and strategy switches on
//!   the same plan.
//! * [`ExtraScorer`]: builds the [`DistributedDlrm`] job and prices it
//!   with [`DistributedPredictor::price`], memoized through the
//!   predictor's evaluator cache (hits are bitwise identical to misses,
//!   so caching is invisible to the ranking — the same contract as
//!   everywhere else).
//!
//! Only `ResizeBatch` graph mutations compose with this axis (the
//! distributed job is rebuilt from its [`DlrmConfig`], so single-graph
//! rewrites like fusion have no distributed counterpart yet); the
//! generator therefore only expands from candidates whose mutation list
//! is batch-only, and the scorer rejects anything else defensively.

use dlperf_core::predictor::WalkScratch;
use dlperf_core::{Candidate, ExtraScorer, GraphMutation, MoveGenerator};
use dlperf_graph::Graph;
use dlperf_models::DlrmConfig;

use crate::builder::{DistributedDlrm, ParallelismStrategy};
use crate::plan::ShardingPlan;
use crate::predictor::DistributedPredictor;

/// One move on the multi-GPU axis: run the job under `strategy` with
/// tables sharded by `plan`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct DistribMove {
    /// The parallelism strategy to run under.
    pub strategy: ParallelismStrategy,
    /// The embedding-table sharding plan.
    pub plan: ShardingPlan,
}

impl std::fmt::Display for DistribMove {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} x {}", self.strategy, self.plan)
    }
}

/// Rebalance neighbors emitted per expansion; the cap keeps the branching
/// factor of wide plans bounded.
const MAX_REBALANCES: usize = 8;

/// The multi-GPU axis of the unified search space.
pub struct DistribAxis<'p> {
    config: DlrmConfig,
    predictor: DistributedPredictor<'p>,
    worlds: Vec<usize>,
    strategies: Vec<ParallelismStrategy>,
}

impl<'p> DistribAxis<'p> {
    /// An axis over `worlds` × `strategies` for the DLRM described by
    /// `config`, priced by `predictor`.
    pub fn new(
        config: DlrmConfig,
        predictor: DistributedPredictor<'p>,
        worlds: Vec<usize>,
        strategies: Vec<ParallelismStrategy>,
    ) -> Self {
        DistribAxis {
            config,
            predictor,
            worlds,
            strategies,
        }
    }

    /// Whether this axis can represent a candidate's mutation list: only
    /// batch resizes translate to the distributed job builder.
    fn composes_with(mutations: &[GraphMutation]) -> bool {
        mutations
            .iter()
            .all(|m| matches!(m, GraphMutation::ResizeBatch(_)))
    }

    /// The candidate's effective batch size under this axis.
    fn batch_of(&self, mutations: &[GraphMutation]) -> u64 {
        mutations
            .iter()
            .rev()
            .find_map(|m| match m {
                GraphMutation::ResizeBatch(b) => Some(*b),
                _ => None,
            })
            .unwrap_or(self.config.batch_size)
    }
}

impl MoveGenerator<DistribMove> for DistribAxis<'_> {
    fn expand(&self, _graph: &Graph, cand: &Candidate<DistribMove>) -> Vec<Candidate<DistribMove>> {
        if !Self::composes_with(&cand.mutations) {
            return Vec::new();
        }
        let tables = self.config.rows_per_table.len();
        let batch = self.batch_of(&cand.mutations);
        let mut out = Vec::new();
        let mut child = |m: DistribMove| {
            let mut c = cand.clone();
            c.extra = Some(m);
            out.push(c);
        };
        match &cand.extra {
            None => {
                // Seed moves: one round-robin plan per (world, strategy)
                // cell whose world divides the batch.
                for &w in &self.worlds {
                    if w == 0 || tables < w || !batch.is_multiple_of(w as u64) {
                        continue;
                    }
                    for &s in &self.strategies {
                        child(DistribMove {
                            strategy: s,
                            plan: ShardingPlan::round_robin(tables, w),
                        });
                    }
                }
            }
            Some(cur) => {
                // Rebalance the current plan one table at a time…
                for plan in cur.plan.rebalance_moves().into_iter().take(MAX_REBALANCES) {
                    child(DistribMove {
                        strategy: cur.strategy,
                        plan,
                    });
                }
                // …and switch strategies on the same plan.
                for &s in &self.strategies {
                    if s != cur.strategy {
                        child(DistribMove {
                            strategy: s,
                            plan: cur.plan.clone(),
                        });
                    }
                }
            }
        }
        out
    }
}

impl ExtraScorer<DistribMove> for DistribAxis<'_> {
    fn price(
        &self,
        mutations: &[GraphMutation],
        extra: &DistribMove,
        scratch: &mut WalkScratch,
    ) -> Result<f64, String> {
        if !Self::composes_with(mutations) {
            return Err("distributed axis only composes with batch resizes".into());
        }
        let mut config = self.config.clone();
        config.batch_size = self.batch_of(mutations);
        let job = DistributedDlrm::new(config, extra.plan.clone())
            .map_err(|e| e.to_string())?
            .with_strategy(extra.strategy);
        self.predictor
            .price(&job, None, &[], scratch)
            .map(|(p, _)| p.e2e_us)
            .map_err(|e| format!("lowering failed: {e}"))
    }
}
