//! Per-rank segment-graph construction for hybrid-parallel DLRM.

use dlperf_gpusim::{CollectiveKind, CollectiveSpec, MemcpyKind};
use dlperf_graph::{Graph, OpKind, TensorMeta};
use dlperf_models::common::{mlp_backward, mlp_forward};
use dlperf_models::DlrmConfig;

use crate::plan::ShardingPlan;
use crate::DistribError;

/// How the DLRM job is split across the cluster. The paper's canonical
/// scheme is [`ParallelismStrategy::Hybrid`]; the other strategies exist
/// so sweeps can rank alternatives on the same topology and show *why*
/// hybrid wins (or loses, on bandwidth-starved fabrics).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum ParallelismStrategy {
    /// Model-parallel embeddings + data-parallel MLPs (DLRM canonical):
    /// two all-to-alls on embedding outputs, one all-reduce on MLP grads.
    Hybrid,
    /// Everything replicated: no all-to-all, but the all-reduce carries
    /// MLP *and* embedding-output gradients.
    DataParallel,
    /// Everything sharded, full batch everywhere: all-to-alls but no
    /// gradient all-reduce (each rank owns its parameters outright).
    ModelParallel,
    /// Stage-partitioned pipeline: per-boundary activation transfers
    /// (modeled as all-gathers) and a pipeline-bubble compute inflation
    /// of `(2w−1)/w`, no gradient all-reduce.
    PipelineParallel,
}

impl ParallelismStrategy {
    /// Every strategy, in canonical sweep order.
    pub const ALL: [ParallelismStrategy; 4] = [
        ParallelismStrategy::Hybrid,
        ParallelismStrategy::DataParallel,
        ParallelismStrategy::ModelParallel,
        ParallelismStrategy::PipelineParallel,
    ];

    /// Parses a sweep-axis name (`hybrid`/`dp`/`mp`/`pp`, plus the long
    /// spellings); `None` for anything unrecognized so callers can fall
    /// back degraded-not-wrong.
    pub fn from_name(name: &str) -> Option<Self> {
        match name.to_ascii_lowercase().as_str() {
            "hybrid" => Some(ParallelismStrategy::Hybrid),
            "dp" | "data" | "data_parallel" | "data-parallel" => {
                Some(ParallelismStrategy::DataParallel)
            }
            "mp" | "model" | "model_parallel" | "model-parallel" => {
                Some(ParallelismStrategy::ModelParallel)
            }
            "pp" | "pipeline" | "pipeline_parallel" | "pipeline-parallel" => {
                Some(ParallelismStrategy::PipelineParallel)
            }
            _ => None,
        }
    }
}

impl std::fmt::Display for ParallelismStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            ParallelismStrategy::Hybrid => "hybrid",
            ParallelismStrategy::DataParallel => "dp",
            ParallelismStrategy::ModelParallel => "mp",
            ParallelismStrategy::PipelineParallel => "pp",
        })
    }
}

/// A distributed DLRM training job: configuration + world + sharding +
/// parallelism strategy (hybrid unless overridden).
#[derive(Debug, Clone)]
pub struct DistributedDlrm {
    config: DlrmConfig,
    plan: ShardingPlan,
    strategy: ParallelismStrategy,
}

impl DistributedDlrm {
    /// Creates the distributed job description (hybrid parallelism).
    ///
    /// # Errors
    /// * [`DistribError::BatchNotDivisible`] if the global batch cannot be
    ///   split evenly across ranks;
    /// * [`DistribError::PlanMismatch`] if the plan does not cover exactly
    ///   the config's tables.
    pub fn new(config: DlrmConfig, plan: ShardingPlan) -> Result<Self, DistribError> {
        if !config.batch_size.is_multiple_of(plan.world() as u64) {
            return Err(DistribError::BatchNotDivisible {
                batch: config.batch_size,
                world: plan.world(),
            });
        }
        if plan.table_count() != config.rows_per_table.len() {
            return Err(DistribError::PlanMismatch(format!(
                "plan covers {} tables, config has {}",
                plan.table_count(),
                config.rows_per_table.len()
            )));
        }
        Ok(DistributedDlrm {
            config,
            plan,
            strategy: ParallelismStrategy::Hybrid,
        })
    }

    /// Rebinds the job to a different parallelism strategy.
    pub fn with_strategy(mut self, strategy: ParallelismStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// The active parallelism strategy.
    pub fn strategy(&self) -> ParallelismStrategy {
        self.strategy
    }

    /// Compute-time inflation of the strategy: 1 except for pipeline
    /// parallelism, whose fill/drain bubble stretches every segment by
    /// `(2w−1)/w` (w stages, one microbatch in flight per stage).
    pub fn compute_inflation(&self) -> f64 {
        match self.strategy {
            ParallelismStrategy::PipelineParallel => {
                let w = self.world() as f64;
                (2.0 * w - 1.0) / w
            }
            _ => 1.0,
        }
    }

    /// The model configuration.
    pub fn config(&self) -> &DlrmConfig {
        &self.config
    }

    /// The sharding plan.
    pub fn plan(&self) -> &ShardingPlan {
        &self.plan
    }

    /// World size.
    pub fn world(&self) -> usize {
        self.plan.world()
    }

    /// Per-rank local batch size.
    pub fn local_batch(&self) -> u64 {
        self.config.batch_size / self.world() as u64
    }

    /// Row counts of the tables owned by `rank`.
    pub fn rank_rows(&self, rank: usize) -> Vec<u64> {
        self.plan
            .tables_of(rank)
            .into_iter()
            .map(|i| self.config.rows_per_table[i])
            .collect()
    }

    /// Total dense (MLP) parameter bytes, the all-reduce payload.
    pub fn mlp_param_bytes(&self) -> u64 {
        let mlp =
            |sizes: &[u64]| -> u64 { sizes.windows(2).map(|p| p[0] * p[1] + p[1]).sum::<u64>() };
        let n_int = self.config.num_tables() + 1;
        let tri = n_int * (n_int - 1) / 2;
        let mut top = vec![self.config.embedding_dim + tri];
        top.extend_from_slice(&self.config.top_mlp);
        4 * (mlp(&self.config.bottom_mlp) + mlp(&top))
    }

    /// The three collectives of one iteration under the active strategy,
    /// sized by the *largest* rank payload (the straggler bounds a
    /// collective). Slots a strategy leaves unused carry zero bytes so
    /// the timeline shape — and every downstream prediction layout —
    /// stays fixed at `[C1, C2, C3]`.
    pub fn collectives(&self) -> [CollectiveSpec; 3] {
        let (b, d) = (self.config.batch_size, self.config.embedding_dim);
        let max_tables = (0..self.world())
            .map(|r| self.rank_rows(r).len() as u64)
            .max()
            .unwrap_or(0);
        let a2a_bytes = b * max_tables * d * 4;
        let world = self.world() as u32;
        let b_local = self.local_batch();
        let t_total = self.config.num_tables();
        let (c1, c2, c3) = match self.strategy {
            ParallelismStrategy::Hybrid => (
                (CollectiveKind::AllToAll, a2a_bytes),
                (CollectiveKind::AllToAll, a2a_bytes),
                (CollectiveKind::AllReduce, self.mlp_param_bytes()),
            ),
            // Replicated tables: no exchange on the forward/backward
            // boundaries, one fat gradient all-reduce (MLP params plus the
            // dense embedding-output gradients).
            ParallelismStrategy::DataParallel => (
                (CollectiveKind::AllToAll, 0),
                (CollectiveKind::AllToAll, 0),
                (
                    CollectiveKind::AllReduce,
                    self.mlp_param_bytes() + b_local * t_total * d * 4,
                ),
            ),
            // Fully sharded: the all-to-alls remain, nothing is replicated
            // so there is no gradient synchronization.
            ParallelismStrategy::ModelParallel => (
                (CollectiveKind::AllToAll, a2a_bytes),
                (CollectiveKind::AllToAll, a2a_bytes),
                (CollectiveKind::AllReduce, 0),
            ),
            // Stage boundaries move one activation tensor forward and its
            // gradient backward; modeled as all-gathers of the per-stage
            // activation slice.
            ParallelismStrategy::PipelineParallel => (
                (CollectiveKind::AllGather, b_local * d * 4),
                (CollectiveKind::AllGather, b_local * d * 4),
                (CollectiveKind::AllReduce, 0),
            ),
        };
        [
            CollectiveSpec {
                kind: c1.0,
                bytes_per_rank: c1.1,
                world,
            },
            CollectiveSpec {
                kind: c2.0,
                bytes_per_rank: c2.1,
                world,
            },
            CollectiveSpec {
                kind: c3.0,
                bytes_per_rank: c3.1,
                world,
            },
        ]
    }

    /// Builds `rank`'s four compute-segment graphs (S1–S4 of the iteration
    /// timeline) under the active strategy: hybrid runs MLPs on the local
    /// batch and embeddings on the full batch over the plan's tables;
    /// data/pipeline parallelism run *everything* on the local batch over
    /// *all* tables; model parallelism runs the full batch over the plan's
    /// tables. Cross-segment tensors appear as external inputs of later
    /// segments; only shapes matter for prediction and simulation.
    ///
    /// # Panics
    /// Panics if `rank >= world`.
    pub fn segments(&self, rank: usize) -> [Graph; 4] {
        assert!(rank < self.world(), "rank {rank} out of range");
        let cfg = &self.config;
        let b = cfg.batch_size;
        let b_local = match self.strategy {
            ParallelismStrategy::ModelParallel => b,
            _ => self.local_batch(),
        };
        let b_emb = match self.strategy {
            ParallelismStrategy::Hybrid | ParallelismStrategy::ModelParallel => b,
            _ => b_local,
        };
        let d = cfg.embedding_dim;
        let l = cfg.lookups_per_table;
        let t_total = cfg.num_tables();
        let n_int = t_total + 1;
        let tri = n_int * (n_int - 1) / 2;
        let rows = match self.strategy {
            ParallelismStrategy::Hybrid | ParallelismStrategy::ModelParallel => {
                self.rank_rows(rank)
            }
            _ => self.config.rows_per_table.clone(),
        };
        let t_local = rows.len() as u64;
        let avg_rows = if rows.is_empty() {
            1
        } else {
            (rows.iter().sum::<u64>() as f64 / rows.len() as f64)
                .round()
                .max(1.0) as u64
        };

        // ---- S1: inputs, bottom MLP fwd (local batch), embedding fwd (full batch, local tables).
        let mut s1 = Graph::new(format!("{}::rank{rank}::s1", cfg.name));
        let dense_cpu =
            s1.add_tensor(TensorMeta::activation(&[b_local, cfg.bottom_mlp[0]]).with_batch_dim(0));
        let dense =
            s1.add_tensor(TensorMeta::activation(&[b_local, cfg.bottom_mlp[0]]).with_batch_dim(0));
        s1.add_node(
            "input::to_dense",
            OpKind::To {
                kind: MemcpyKind::HostToDevice,
            },
            vec![dense_cpu],
            vec![dense],
        );
        mlp_forward(&mut s1, "bot", dense, b_local, &cfg.bottom_mlp, true);
        if t_local > 0 {
            let idx_cpu = s1.add_tensor(TensorMeta::index(&[t_local, b_emb, l]));
            let idx = s1.add_tensor(TensorMeta::index(&[t_local, b_emb, l]));
            s1.add_node(
                "input::to_indices",
                OpKind::To {
                    kind: MemcpyKind::HostToDevice,
                },
                vec![idx_cpu],
                vec![idx],
            );
            let w = s1.add_tensor(TensorMeta::weight(&[t_local, avg_rows, d]));
            let out = s1.add_tensor(TensorMeta::activation(&[b_emb, t_local * d]));
            s1.add_node(
                "emb::batched_embedding",
                OpKind::BatchedEmbedding,
                vec![w, idx],
                vec![out],
            );
        }

        // ---- S2: interaction + top MLP + loss, forward and backward (local batch).
        let mut s2 = Graph::new(format!("{}::rank{rank}::s2", cfg.name));
        let bot_out = s2.add_tensor(TensorMeta::activation(&[b_local, d]).with_batch_dim(0));
        let emb_all =
            s2.add_tensor(TensorMeta::activation(&[b_local, t_total * d]).with_batch_dim(0));
        let labels = s2.add_tensor(TensorMeta::activation(&[b_local, 1]).with_batch_dim(0));
        let cat_all =
            s2.add_tensor(TensorMeta::activation(&[b_local, n_int * d]).with_batch_dim(0));
        s2.add_node(
            "int::cat",
            OpKind::Cat { dim: 1 },
            vec![bot_out, emb_all],
            vec![cat_all],
        );
        let t3 = s2.add_tensor(TensorMeta::activation(&[b_local, n_int, d]).with_batch_dim(0));
        s2.add_node("int::reshape", OpKind::Reshape, vec![cat_all], vec![t3]);
        let t3t = s2.add_tensor(TensorMeta::activation(&[b_local, d, n_int]).with_batch_dim(0));
        s2.add_node("int::transpose", OpKind::Transpose, vec![t3], vec![t3t]);
        let z = s2.add_tensor(TensorMeta::activation(&[b_local, n_int, n_int]).with_batch_dim(0));
        s2.add_node("int::bmm", OpKind::Bmm, vec![t3, t3t], vec![z]);
        let zflat = s2.add_tensor(TensorMeta::activation(&[b_local, tri]).with_batch_dim(0));
        s2.add_node("int::tril", OpKind::Tril, vec![z], vec![zflat]);
        let top_in = s2.add_tensor(TensorMeta::activation(&[b_local, d + tri]).with_batch_dim(0));
        s2.add_node(
            "int::cat_out",
            OpKind::Cat { dim: 1 },
            vec![bot_out, zflat],
            vec![top_in],
        );
        let mut top_sizes = vec![d + tri];
        top_sizes.extend_from_slice(&cfg.top_mlp);
        let top = mlp_forward(&mut s2, "top", top_in, b_local, &top_sizes, false);
        let pred = s2.add_tensor(TensorMeta::activation(&[b_local, 1]).with_batch_dim(0));
        s2.add_node(
            "loss::sigmoid",
            OpKind::Sigmoid,
            vec![top.output],
            vec![pred],
        );
        let loss = s2.add_tensor(TensorMeta::activation(&[]));
        s2.add_node(
            "loss::mse_loss",
            OpKind::MseLoss,
            vec![pred, labels],
            vec![loss],
        );
        let g_pred = s2.add_tensor(TensorMeta::activation(&[b_local, 1]).with_batch_dim(0));
        s2.add_node(
            "loss::mse_loss_backward",
            OpKind::MseLossBackward,
            vec![loss, pred, labels],
            vec![g_pred],
        );
        let g_top_out = s2.add_tensor(TensorMeta::activation(&[b_local, 1]).with_batch_dim(0));
        s2.add_node(
            "loss::sigmoid_backward",
            OpKind::SigmoidBackward,
            vec![g_pred, pred],
            vec![g_top_out],
        );
        let mut s2_grads = Vec::new();
        let g_top_in = mlp_backward(&mut s2, "top", &top, b_local, g_top_out, &mut s2_grads);
        let g_bot_direct = s2.add_tensor(TensorMeta::activation(&[b_local, d]).with_batch_dim(0));
        let g_zflat = s2.add_tensor(TensorMeta::activation(&[b_local, tri]).with_batch_dim(0));
        s2.add_node(
            "int::cat_out_backward",
            OpKind::CatBackward { dim: 1 },
            vec![g_top_in],
            vec![g_bot_direct, g_zflat],
        );
        let g_z = s2.add_tensor(TensorMeta::activation(&[b_local, n_int, n_int]).with_batch_dim(0));
        s2.add_node(
            "int::tril_backward",
            OpKind::TrilBackward,
            vec![g_zflat],
            vec![g_z],
        );
        let g_t3 = s2.add_tensor(TensorMeta::activation(&[b_local, n_int, d]).with_batch_dim(0));
        let g_t3t = s2.add_tensor(TensorMeta::activation(&[b_local, d, n_int]).with_batch_dim(0));
        s2.add_node(
            "int::bmm_backward",
            OpKind::BmmBackward,
            vec![g_z, t3, t3t],
            vec![g_t3, g_t3t],
        );
        let g_bot_from_int = s2.add_tensor(TensorMeta::activation(&[b_local, d]).with_batch_dim(0));
        let g_emb =
            s2.add_tensor(TensorMeta::activation(&[b_local, t_total * d]).with_batch_dim(0));
        s2.add_node(
            "int::cat_backward",
            OpKind::CatBackward { dim: 1 },
            vec![g_t3],
            vec![g_bot_from_int, g_emb],
        );
        let g_bot = s2.add_tensor(TensorMeta::activation(&[b_local, d]).with_batch_dim(0));
        s2.add_node(
            "int::add_bot_grads",
            OpKind::Add,
            vec![g_bot_direct, g_bot_from_int],
            vec![g_bot],
        );
        let _ = g_t3t;

        // ---- S3: embedding bwd (full batch, local tables) + bottom MLP bwd.
        let mut s3 = Graph::new(format!("{}::rank{rank}::s3", cfg.name));
        if t_local > 0 {
            let w = s3.add_tensor(TensorMeta::weight(&[t_local, avg_rows, d]));
            let idx = s3.add_tensor(TensorMeta::index(&[t_local, b_emb, l]));
            let g_local = s3.add_tensor(TensorMeta::activation(&[b_emb, t_local * d]));
            s3.add_node(
                "emb::batched_embedding_backward",
                OpKind::BatchedEmbeddingBackward,
                vec![w, idx, g_local],
                vec![],
            );
        }
        // Bottom backward: rebuild the tape shapes and emit its backward.
        let bot_in =
            s3.add_tensor(TensorMeta::activation(&[b_local, cfg.bottom_mlp[0]]).with_batch_dim(0));
        let bot_tape = mlp_forward(
            &mut s3,
            "bot_shadow",
            bot_in,
            b_local,
            &cfg.bottom_mlp,
            true,
        );
        let g_bot = s3.add_tensor(TensorMeta::activation(&[b_local, d]).with_batch_dim(0));
        let mut s3_grads = Vec::new();
        mlp_backward(&mut s3, "bot", &bot_tape, b_local, g_bot, &mut s3_grads);
        // Drop the shadow forward nodes: keep only backward + embedding ops.
        let keep: Vec<_> = s3
            .nodes()
            .iter()
            .filter(|n| !n.name.starts_with("bot_shadow"))
            .cloned()
            .collect();
        s3.set_nodes(keep);

        // ---- S4: optimizer over all dense parameter gradients.
        let mut s4 = Graph::new(format!("{}::rank{rank}::s4", cfg.name));
        let mut opt_inputs = Vec::new();
        let mlp_layers = |sizes: &[u64]| sizes.windows(2).map(|p| (p[1], p[0])).collect::<Vec<_>>();
        for (outf, inf) in mlp_layers(&cfg.bottom_mlp)
            .into_iter()
            .chain(mlp_layers(&top_sizes))
        {
            opt_inputs.push(s4.add_tensor(TensorMeta::weight(&[outf, inf])));
            opt_inputs.push(s4.add_tensor(TensorMeta::weight(&[outf])));
        }
        s4.add_node("optimizer::step", OpKind::OptimizerStep, opt_inputs, vec![]);

        for g in [&mut s1, &mut s2, &mut s3, &mut s4] {
            dlperf_models::common::add_host_accessories(g, cfg.host_accessory_ops);
            debug_assert_eq!(g.validate(), Ok(()));
        }
        [s1, s2, s3, s4]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlperf_graph::lower;

    fn job(world: usize) -> DistributedDlrm {
        let cfg = DlrmConfig::default_config(2048);
        let plan = ShardingPlan::round_robin(cfg.rows_per_table.len(), world);
        DistributedDlrm::new(cfg, plan).unwrap()
    }

    #[test]
    fn segments_build_and_lower_for_all_ranks() {
        let j = job(4);
        for rank in 0..4 {
            for seg in j.segments(rank) {
                assert!(seg.validate().is_ok(), "{} invalid", seg.name);
                assert!(
                    lower::lower_graph(&seg).is_ok(),
                    "{} fails to lower",
                    seg.name
                );
            }
        }
    }

    #[test]
    fn local_batch_and_tables_split() {
        let j = job(4);
        assert_eq!(j.local_batch(), 512);
        assert_eq!(j.rank_rows(0).len(), 2);
        let total: usize = (0..4).map(|r| j.rank_rows(r).len()).sum();
        assert_eq!(total, 8);
    }

    #[test]
    fn collectives_sized_by_straggler() {
        let cfg = DlrmConfig::default_config(1024);
        // Skewed plan: rank 0 owns 7 tables, rank 1 owns 1.
        let plan = ShardingPlan::new(vec![0, 0, 0, 0, 0, 0, 0, 1], 2).unwrap();
        let j = DistributedDlrm::new(cfg, plan).unwrap();
        let [a2a, _, ar] = j.collectives();
        assert_eq!(a2a.bytes_per_rank, 1024 * 7 * 64 * 4);
        assert_eq!(ar.kind, dlperf_gpusim::CollectiveKind::AllReduce);
        assert_eq!(ar.bytes_per_rank, j.mlp_param_bytes());
    }

    #[test]
    fn strategies_shape_the_collectives() {
        let j = job(4);
        let dp = j.clone().with_strategy(ParallelismStrategy::DataParallel);
        let [c1, c2, c3] = dp.collectives();
        assert_eq!((c1.bytes_per_rank, c2.bytes_per_rank), (0, 0));
        assert!(
            c3.bytes_per_rank > dp.mlp_param_bytes(),
            "DP all-reduce carries emb grads too"
        );
        let mp = j.clone().with_strategy(ParallelismStrategy::ModelParallel);
        let [m1, _, m3] = mp.collectives();
        assert!(m1.bytes_per_rank > 0);
        assert_eq!(m3.bytes_per_rank, 0, "MP owns its parameters outright");
        let pp = j
            .clone()
            .with_strategy(ParallelismStrategy::PipelineParallel);
        let [p1, _, p3] = pp.collectives();
        assert_eq!(p1.kind, CollectiveKind::AllGather);
        assert_eq!(p3.bytes_per_rank, 0);
        assert!((pp.compute_inflation() - 7.0 / 4.0).abs() < 1e-12);
        assert_eq!(j.compute_inflation(), 1.0);
    }

    #[test]
    fn strategy_segments_build_and_lower_for_all_ranks() {
        for strategy in ParallelismStrategy::ALL {
            let j = job(2).with_strategy(strategy);
            for rank in 0..2 {
                for seg in j.segments(rank) {
                    assert!(seg.validate().is_ok(), "{strategy}: {} invalid", seg.name);
                    assert!(
                        lower::lower_graph(&seg).is_ok(),
                        "{strategy}: {} fails",
                        seg.name
                    );
                }
            }
        }
    }

    #[test]
    fn strategy_names_round_trip() {
        for s in ParallelismStrategy::ALL {
            assert_eq!(ParallelismStrategy::from_name(&s.to_string()), Some(s));
        }
        assert_eq!(
            ParallelismStrategy::from_name("Data-Parallel"),
            Some(ParallelismStrategy::DataParallel)
        );
        assert_eq!(ParallelismStrategy::from_name("warp"), None);
    }

    #[test]
    fn indivisible_batch_rejected() {
        let cfg = DlrmConfig::default_config(1000);
        let plan = ShardingPlan::round_robin(8, 3);
        assert!(matches!(
            DistributedDlrm::new(cfg, plan),
            Err(DistribError::BatchNotDivisible { .. })
        ));
    }

    #[test]
    fn plan_table_mismatch_rejected() {
        let cfg = DlrmConfig::default_config(1024); // 8 tables
        let plan = ShardingPlan::round_robin(10, 2);
        assert!(matches!(
            DistributedDlrm::new(cfg, plan),
            Err(DistribError::PlanMismatch(_))
        ));
    }

    #[test]
    fn rank_without_tables_still_has_valid_segments() {
        let cfg = DlrmConfig::default_config(512);
        // All 8 tables on rank 0; rank 1 computes only MLPs.
        let plan = ShardingPlan::new(vec![0; 8], 2).unwrap();
        let j = DistributedDlrm::new(cfg, plan).unwrap();
        let segs = j.segments(1);
        for seg in &segs {
            assert!(seg.validate().is_ok());
        }
        // No embedding op on rank 1's S1.
        assert!(!segs[0]
            .nodes()
            .iter()
            .any(|n| n.op == OpKind::BatchedEmbedding));
    }
}
