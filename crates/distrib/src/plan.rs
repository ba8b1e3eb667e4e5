//! Embedding-table sharding plans, and the §V-A load-balancing schemes
//! that build them: round-robin, longest-processing-time by row count, and
//! longest-processing-time by predicted embedding-kernel time.

use dlperf_gpusim::KernelSpec;
use dlperf_kernels::ModelRegistry;
use serde::{Deserialize, Serialize};

use crate::DistribError;

/// An assignment of embedding tables to GPUs: `assignment[table] = rank`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ShardingPlan {
    assignment: Vec<usize>,
    world: usize,
}

impl ShardingPlan {
    /// Creates a plan, validating that every rank index is in range.
    ///
    /// # Errors
    /// Returns [`DistribError::PlanMismatch`] if a rank is out of range or
    /// the plan is empty.
    pub fn new(assignment: Vec<usize>, world: usize) -> Result<Self, DistribError> {
        check_shape(assignment.len(), world)?;
        if let Some(&bad) = assignment.iter().find(|&&r| r >= world) {
            return Err(DistribError::PlanMismatch(format!(
                "rank {bad} out of range for world {world}"
            )));
        }
        Ok(ShardingPlan { assignment, world })
    }

    /// Round-robin plan over `tables` tables.
    pub fn round_robin(tables: usize, world: usize) -> Self {
        ShardingPlan {
            assignment: (0..tables).map(|i| i % world).collect(),
            world,
        }
    }

    /// Greedy longest-processing-time plan balancing tables by row count:
    /// tables in descending row order each go to the least-loaded rank.
    ///
    /// # Errors
    /// [`DistribError::PlanMismatch`] if `world` is zero or `tables` is
    /// empty.
    pub fn greedy_lpt(tables: &[u64], world: usize) -> Result<Self, DistribError> {
        // Row counts and their sums stay exact in f64 below 2^53.
        let rows: Vec<f64> = tables.iter().map(|&r| r as f64).collect();
        Self::lpt(&rows, world)
    }

    /// Model-driven LPT: balances tables by their predicted embedding
    /// kernel time (forward + backward) rather than raw row count. This is
    /// the paper's load-balancing use case: per-warp lookup traffic is
    /// dominated by `B·L·D` regardless of table size, so balancing by rows
    /// (as [`ShardingPlan::greedy_lpt`] does) can be badly off; balancing
    /// by predicted time cannot.
    ///
    /// # Errors
    /// [`DistribError::PlanMismatch`] if `world` is zero or `tables` is
    /// empty.
    ///
    /// # Panics
    /// Panics if `registry` has no embedding kernel models.
    pub fn greedy_by_predicted_cost(
        registry: &ModelRegistry,
        tables: &[u64],
        world: usize,
        batch: u64,
        lookups: u64,
        dim: u64,
    ) -> Result<Self, DistribError> {
        let costs: Vec<f64> = tables
            .iter()
            .map(|&rows| embedding_us(registry, batch, rows, 1, lookups, dim))
            .collect();
        Self::lpt(&costs, world)
    }

    /// Assigns tables in descending weight order (ties by index), each to
    /// the least-loaded rank (ties to the lowest rank).
    fn lpt(weights: &[f64], world: usize) -> Result<Self, DistribError> {
        check_shape(weights.len(), world)?;
        let mut order: Vec<usize> = (0..weights.len()).collect();
        order.sort_by(|&a, &b| weights[b].total_cmp(&weights[a]));
        let mut load = vec![0.0f64; world];
        let mut assignment = vec![0usize; weights.len()];
        for i in order {
            let rank = (0..world)
                .min_by(|&a, &b| load[a].total_cmp(&load[b]))
                .expect("world > 0");
            assignment[i] = rank;
            load[rank] += weights[i];
        }
        Ok(ShardingPlan { assignment, world })
    }

    /// Number of participating GPUs.
    pub fn world(&self) -> usize {
        self.world
    }

    /// Number of tables covered.
    pub fn table_count(&self) -> usize {
        self.assignment.len()
    }

    /// Indices of the tables owned by `rank`.
    pub fn tables_of(&self, rank: usize) -> Vec<usize> {
        self.assignment
            .iter()
            .enumerate()
            .filter(|(_, &r)| r == rank)
            .map(|(i, _)| i)
            .collect()
    }

    /// The raw assignment.
    pub fn assignment(&self) -> &[usize] {
        &self.assignment
    }

    /// Predicted per-rank embedding time (forward + backward, µs) of the
    /// tables with `tables[t]` rows, priced as one batched lookup over the
    /// rank's tables at their mean row count. Ranks with no tables cost
    /// zero.
    ///
    /// # Errors
    /// [`DistribError::PlanMismatch`] if `tables` does not have one entry
    /// per table of the plan.
    ///
    /// # Panics
    /// Panics if `registry` has no embedding kernel models.
    pub fn shard_costs(
        &self,
        registry: &ModelRegistry,
        tables: &[u64],
        batch: u64,
        lookups: u64,
        dim: u64,
    ) -> Result<Vec<f64>, DistribError> {
        if tables.len() != self.assignment.len() {
            return Err(DistribError::PlanMismatch(format!(
                "{} row counts for a plan of {} tables",
                tables.len(),
                self.assignment.len()
            )));
        }
        Ok((0..self.world)
            .map(|rank| {
                let mine = self.tables_of(rank);
                if mine.is_empty() {
                    return 0.0;
                }
                let t = mine.len() as u64;
                let rows: u64 = mine.iter().map(|&i| tables[i]).sum();
                let e_avg = (rows as f64 / t as f64).round().max(1.0) as u64;
                embedding_us(registry, batch, e_avg, t, lookups, dim)
            })
            .collect())
    }

    /// Rebalance neighbors of this plan: every plan reachable by
    /// reassigning exactly one table to a different rank, enumerated in a
    /// deterministic order (table-major, then target rank ascending).
    /// This is the sharding move set the optimization-search layer
    /// expands.
    pub fn rebalance_moves(&self) -> Vec<ShardingPlan> {
        let mut out = Vec::new();
        for table in 0..self.assignment.len() {
            for rank in 0..self.world {
                if rank == self.assignment[table] {
                    continue;
                }
                let mut a = self.assignment.clone();
                a[table] = rank;
                out.push(ShardingPlan {
                    assignment: a,
                    world: self.world,
                });
            }
        }
        out
    }
}

/// Rejects a plan over no tables or no ranks.
fn check_shape(tables: usize, world: usize) -> Result<(), DistribError> {
    if world == 0 || tables == 0 {
        return Err(DistribError::PlanMismatch(
            "empty plan or zero world".into(),
        ));
    }
    Ok(())
}

/// Predicted forward + backward time (µs) of one embedding lookup over
/// `tables` tables of `rows` rows each.
fn embedding_us(
    registry: &ModelRegistry,
    batch: u64,
    rows: u64,
    tables: u64,
    lookups: u64,
    dim: u64,
) -> f64 {
    let fwd = KernelSpec::embedding_forward(batch, rows, tables, lookups, dim);
    let bwd = KernelSpec::embedding_backward(batch, rows, tables, lookups, dim);
    registry
        .try_predict(&fwd)
        .expect("registry covers embedding kernels")
        + registry
            .try_predict(&bwd)
            .expect("registry covers embedding kernels")
}

/// Load imbalance of per-rank costs: `max / mean` (1.0 = perfectly
/// balanced).
///
/// # Panics
/// Panics if `costs` is empty or all-zero.
pub fn imbalance(costs: &[f64]) -> f64 {
    assert!(!costs.is_empty(), "no costs to compare");
    let mean = costs.iter().sum::<f64>() / costs.len() as f64;
    assert!(mean > 0.0, "all shards idle");
    costs.iter().copied().fold(0.0f64, f64::max) / mean
}

impl std::fmt::Display for ShardingPlan {
    /// Renders per-rank table counts plus the assignment, e.g.
    /// `shard[w4: 7/7/6/6; t0->r0 t1->r1 ..]` truncated past 8 tables —
    /// compact enough for report lines, precise enough to reproduce.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut counts = vec![0usize; self.world];
        for &r in &self.assignment {
            counts[r] += 1;
        }
        let loads: Vec<String> = counts.iter().map(|c| c.to_string()).collect();
        write!(f, "shard[w{}: {}", self.world, loads.join("/"))?;
        let shown = self.assignment.len().min(8);
        write!(f, ";")?;
        for (t, &r) in self.assignment.iter().take(shown).enumerate() {
            write!(f, " t{t}->r{r}")?;
        }
        if self.assignment.len() > shown {
            write!(f, " .. ({} tables)", self.assignment.len())?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlperf_gpusim::DeviceSpec;
    use dlperf_kernels::CalibrationEffort;
    use dlperf_models::criteo::KAGGLE_TABLE_ROWS;

    #[test]
    fn round_robin_partitions() {
        let p = ShardingPlan::round_robin(26, 4);
        let total: usize = (0..4).map(|r| p.tables_of(r).len()).sum();
        assert_eq!(total, 26);
        assert_eq!(p.tables_of(0), vec![0, 4, 8, 12, 16, 20, 24]);
    }

    #[test]
    fn out_of_range_rank_rejected() {
        assert!(matches!(
            ShardingPlan::new(vec![0, 5], 4),
            Err(DistribError::PlanMismatch(_))
        ));
    }

    #[test]
    fn empty_plan_rejected() {
        assert!(ShardingPlan::new(vec![], 4).is_err());
        assert!(ShardingPlan::new(vec![0], 0).is_err());
        assert!(ShardingPlan::greedy_lpt(&[], 4).is_err());
        assert!(ShardingPlan::greedy_lpt(&[1, 2], 0).is_err());
    }

    #[test]
    fn lpt_plan_is_a_partition() {
        let p = ShardingPlan::greedy_lpt(&KAGGLE_TABLE_ROWS, 8).unwrap();
        assert_eq!(p.table_count(), 26);
        // Each rank gets at least one table (26 tables over 8 ranks).
        for r in 0..8 {
            assert!(!p.tables_of(r).is_empty(), "rank {r} left empty");
        }
    }

    #[test]
    fn cost_driven_sharding_beats_naive_schemes_on_criteo() {
        // The §V-A load-balancing use case: balancing by predicted kernel
        // time beats both balancing by raw row count and round-robin.
        let registry = ModelRegistry::calibrate(&DeviceSpec::v100(), CalibrationEffort::Quick, 17);
        let tables = KAGGLE_TABLE_ROWS;
        let eval =
            |p: ShardingPlan| imbalance(&p.shard_costs(&registry, &tables, 2048, 1, 32).unwrap());
        let by_cost = ShardingPlan::greedy_by_predicted_cost(&registry, &tables, 4, 2048, 1, 32);
        let by_cost = eval(by_cost.unwrap());
        let by_rows = eval(ShardingPlan::greedy_lpt(&tables, 4).unwrap());
        let rr = eval(ShardingPlan::round_robin(tables.len(), 4));
        assert!(
            by_cost <= rr && by_cost <= by_rows,
            "cost-driven {by_cost:.3} vs rows-LPT {by_rows:.3} vs round-robin {rr:.3}"
        );
        let short = ShardingPlan::round_robin(3, 2).shard_costs(&registry, &tables, 2048, 1, 32);
        assert!(matches!(short, Err(DistribError::PlanMismatch(_))));
    }
}
