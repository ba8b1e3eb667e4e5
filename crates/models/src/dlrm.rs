//! DLRM training-iteration graphs.
//!
//! Builds the full per-batch execution graph of DLRM training — host-to-
//! device input copies, bottom MLP, (optionally batched) embedding lookups,
//! dot feature interaction (cat → reshape → transpose → bmm → tril → cat),
//! top MLP, sigmoid, MSE loss, the whole backward pass, and the optimizer
//! step — with the three open-source configurations of Table III.

use dlperf_gpusim::MemcpyKind;
use dlperf_graph::{Graph, OpKind, TensorId, TensorMeta};

use crate::common::{mlp_backward, mlp_forward};
use crate::criteo;

/// Configuration of a DLRM model (Table III columns plus batch size).
#[derive(Debug, Clone, PartialEq)]
pub struct DlrmConfig {
    /// Workload name, e.g. `"DLRM_default"`.
    pub name: String,
    /// Per-batch sample count.
    pub batch_size: u64,
    /// Bottom-MLP sizes including the dense input dimension as the first
    /// entry (the DLRM repository's `arch-mlp-bot` convention).
    pub bottom_mlp: Vec<u64>,
    /// Top-MLP hidden/output sizes; the input dimension is derived from the
    /// feature interaction.
    pub top_mlp: Vec<u64>,
    /// Row counts of the embedding tables (`EL Tables` × `Rows`).
    pub rows_per_table: Vec<u64>,
    /// Embedding vector length (`EL Dim`).
    pub embedding_dim: u64,
    /// Lookups per output vector (`L`, the pooling factor).
    pub lookups_per_table: u64,
    /// Whether to use the fused batched embedding op (Tulloch's kernel,
    /// which the paper integrates into DLRM) instead of per-table
    /// `embedding_bag` ops.
    pub batched_embedding: bool,
    /// Host-only accessory ops inserted before each device op, modelling the
    /// eager dispatcher's `view`/`empty`/`as_strided` swarm seen in real
    /// traces (0 disables; the default of 2 matches typical DLRM traces).
    pub host_accessory_ops: usize,
}

impl DlrmConfig {
    /// *DLRM_default*: Bot 512-512-64, 8 tables × 1 M rows, dim 64,
    /// Top 1024-1024-1024-1.
    pub fn default_config(batch_size: u64) -> Self {
        DlrmConfig {
            name: "DLRM_default".into(),
            batch_size,
            bottom_mlp: vec![512, 512, 64],
            top_mlp: vec![1024, 1024, 1024, 1],
            rows_per_table: vec![1_000_000; 8],
            embedding_dim: 64,
            lookups_per_table: 10,
            batched_embedding: true,
            host_accessory_ops: 2,
        }
    }

    /// *DLRM_MLPerf*: Bot 13-512-256-128, the 26 Criteo Kaggle tables (up
    /// to 14 M rows), Top 1024-1024-512-256-1, one-hot lookups.
    ///
    /// As in the paper, the sparse feature size is reduced from 128 to 32
    /// (so the model fits on the TITAN Xp and P100); the bottom MLP's last
    /// layer shrinks accordingly to keep the dot interaction well-formed.
    pub fn mlperf_config(batch_size: u64) -> Self {
        DlrmConfig {
            name: "DLRM_MLPerf".into(),
            batch_size,
            bottom_mlp: vec![13, 512, 256, 32],
            top_mlp: vec![1024, 1024, 512, 256, 1],
            rows_per_table: criteo::KAGGLE_TABLE_ROWS.to_vec(),
            embedding_dim: 32,
            lookups_per_table: 1,
            batched_embedding: true,
            host_accessory_ops: 2,
        }
    }

    /// *DLRM_DDP*: Bot 128-128-128-128, 8 tables × 80 k rows, dim 128,
    /// Top 512-512-512-256-1.
    pub fn ddp_config(batch_size: u64) -> Self {
        DlrmConfig {
            name: "DLRM_DDP".into(),
            batch_size,
            bottom_mlp: vec![128, 128, 128, 128],
            top_mlp: vec![512, 512, 512, 256, 1],
            rows_per_table: vec![80_000; 8],
            embedding_dim: 128,
            lookups_per_table: 10,
            batched_embedding: true,
            host_accessory_ops: 2,
        }
    }

    /// The three paper configurations at one batch size, in Table III order.
    pub fn paper_configs(batch_size: u64) -> Vec<Self> {
        vec![
            Self::default_config(batch_size),
            Self::mlperf_config(batch_size),
            Self::ddp_config(batch_size),
        ]
    }

    /// Number of embedding tables.
    pub fn num_tables(&self) -> u64 {
        self.rows_per_table.len() as u64
    }

    /// Average table row count (the paper's performance model uses the mean
    /// for the MLPerf model's non-constant table sizes).
    pub fn avg_rows(&self) -> u64 {
        (self.rows_per_table.iter().sum::<u64>() as f64 / self.rows_per_table.len() as f64).round()
            as u64
    }

    /// Switches between batched and per-table embedding ops (builder style).
    pub fn with_batched_embedding(mut self, batched: bool) -> Self {
        self.batched_embedding = batched;
        self
    }

    /// Builds the training-iteration execution graph.
    ///
    /// # Panics
    /// Panics if the configuration is inconsistent (no tables, or the bottom
    /// MLP output differs from the embedding dimension, which the dot
    /// interaction requires).
    pub fn build(&self) -> Graph {
        self.build_graph(true)
    }

    /// Builds the forward-only (inference) execution graph: same forward
    /// structure, no loss, backward, or optimizer. At serving batch sizes
    /// this is the most overhead-dominated workload of all.
    ///
    /// # Panics
    /// Same conditions as [`DlrmConfig::build`].
    pub fn build_inference(&self) -> Graph {
        self.build_graph(false)
    }

    fn build_graph(&self, training: bool) -> Graph {
        assert!(
            !self.rows_per_table.is_empty(),
            "DLRM needs at least one embedding table"
        );
        assert!(self.batch_size > 0, "batch size must be positive");
        assert_eq!(
            *self.bottom_mlp.last().expect("bottom MLP non-empty"),
            self.embedding_dim,
            "dot interaction requires bottom-MLP output == embedding dim"
        );

        let b = self.batch_size;
        let t = self.num_tables();
        let d = self.embedding_dim;
        let l = self.lookups_per_table;
        let n_int = t + 1; // interaction features: T tables + bottom output
        let tri = n_int * (n_int - 1) / 2;

        let mut g = Graph::new(self.name.clone());

        // ---- Input copies (the `to` ops of the breakdown). ----
        let dense_cpu =
            g.add_tensor(TensorMeta::activation(&[b, self.bottom_mlp[0]]).with_batch_dim(0));
        let dense =
            g.add_tensor(TensorMeta::activation(&[b, self.bottom_mlp[0]]).with_batch_dim(0));
        g.add_node(
            "input::to_dense",
            OpKind::To {
                kind: MemcpyKind::HostToDevice,
            },
            vec![dense_cpu],
            vec![dense],
        );
        let idx_cpu = g.add_tensor(TensorMeta::index(&[t, b, l]).with_batch_dim(1));
        let idx = g.add_tensor(TensorMeta::index(&[t, b, l]).with_batch_dim(1));
        g.add_node(
            "input::to_indices",
            OpKind::To {
                kind: MemcpyKind::HostToDevice,
            },
            vec![idx_cpu],
            vec![idx],
        );
        let labels_cpu = g.add_tensor(TensorMeta::activation(&[b, 1]).with_batch_dim(0));
        let labels = g.add_tensor(TensorMeta::activation(&[b, 1]).with_batch_dim(0));
        g.add_node(
            "input::to_labels",
            OpKind::To {
                kind: MemcpyKind::HostToDevice,
            },
            vec![labels_cpu],
            vec![labels],
        );

        // ---- Bottom MLP. ----
        let bot = mlp_forward(&mut g, "bot", dense, b, &self.bottom_mlp, true);

        // ---- Embedding lookups. ----
        let mut table_weights: Vec<TensorId> = Vec::new();
        let mut table_indices: Vec<TensorId> = Vec::new();
        let emb_out; // (b, t*d)
        let batched_weights: Option<TensorId>;
        if self.batched_embedding {
            let w = g.add_tensor(TensorMeta::weight(&[t, self.avg_rows(), d]));
            let out = g.add_tensor(TensorMeta::activation(&[b, t * d]).with_batch_dim(0));
            g.add_node(
                "emb::batched_embedding",
                OpKind::BatchedEmbedding,
                vec![w, idx],
                vec![out],
            );
            emb_out = out;
            batched_weights = Some(w);
        } else {
            let mut outs = Vec::new();
            for (i, &rows) in self.rows_per_table.iter().enumerate() {
                let w = g.add_tensor(TensorMeta::weight(&[rows, d]));
                let per_idx = g.add_tensor(TensorMeta::index(&[b, l]).with_batch_dim(0));
                g.add_node(
                    format!("emb::slice_indices_{i}"),
                    OpKind::Reshape,
                    vec![idx],
                    vec![per_idx],
                );
                let out = g.add_tensor(TensorMeta::activation(&[b, d]).with_batch_dim(0));
                g.add_node(
                    format!("emb::embedding_bag_{i}"),
                    OpKind::EmbeddingBag,
                    vec![w, per_idx],
                    vec![out],
                );
                outs.push(out);
                table_weights.push(w);
                table_indices.push(per_idx);
            }
            let out = g.add_tensor(TensorMeta::activation(&[b, t * d]).with_batch_dim(0));
            g.add_node("emb::cat", OpKind::Cat { dim: 1 }, outs, vec![out]);
            emb_out = out;
            batched_weights = None;
        }

        // ---- Dot feature interaction. ----
        let cat_all = g.add_tensor(TensorMeta::activation(&[b, n_int * d]).with_batch_dim(0));
        g.add_node(
            "int::cat",
            OpKind::Cat { dim: 1 },
            vec![bot.output, emb_out],
            vec![cat_all],
        );
        let t3 = g.add_tensor(TensorMeta::activation(&[b, n_int, d]).with_batch_dim(0));
        g.add_node("int::reshape", OpKind::Reshape, vec![cat_all], vec![t3]);
        let t3t = g.add_tensor(TensorMeta::activation(&[b, d, n_int]).with_batch_dim(0));
        g.add_node("int::transpose", OpKind::Transpose, vec![t3], vec![t3t]);
        let z = g.add_tensor(TensorMeta::activation(&[b, n_int, n_int]).with_batch_dim(0));
        g.add_node("int::bmm", OpKind::Bmm, vec![t3, t3t], vec![z]);
        let zflat = g.add_tensor(TensorMeta::activation(&[b, tri]).with_batch_dim(0));
        g.add_node("int::tril", OpKind::Tril, vec![z], vec![zflat]);
        let top_in = g.add_tensor(TensorMeta::activation(&[b, d + tri]).with_batch_dim(0));
        g.add_node(
            "int::cat_out",
            OpKind::Cat { dim: 1 },
            vec![bot.output, zflat],
            vec![top_in],
        );

        // ---- Top MLP + sigmoid + loss. ----
        let mut top_sizes = vec![d + tri];
        top_sizes.extend_from_slice(&self.top_mlp);
        let top = mlp_forward(&mut g, "top", top_in, b, &top_sizes, false);
        let pred = g.add_tensor(TensorMeta::activation(&[b, 1]).with_batch_dim(0));
        g.add_node(
            "loss::sigmoid",
            OpKind::Sigmoid,
            vec![top.output],
            vec![pred],
        );
        if !training {
            crate::common::add_host_accessories(&mut g, self.host_accessory_ops);
            debug_assert_eq!(g.validate(), Ok(()));
            return g;
        }
        let loss = g.add_tensor(TensorMeta::activation(&[]));
        g.add_node(
            "loss::mse_loss",
            OpKind::MseLoss,
            vec![pred, labels],
            vec![loss],
        );

        // ================= Backward pass =================
        let mut param_grads: Vec<TensorId> = Vec::new();

        let g_pred = g.add_tensor(TensorMeta::activation(&[b, 1]).with_batch_dim(0));
        g.add_node(
            "loss::mse_loss_backward",
            OpKind::MseLossBackward,
            vec![loss, pred, labels],
            vec![g_pred],
        );
        let g_top_out = g.add_tensor(TensorMeta::activation(&[b, 1]).with_batch_dim(0));
        g.add_node(
            "loss::sigmoid_backward",
            OpKind::SigmoidBackward,
            vec![g_pred, pred],
            vec![g_top_out],
        );

        let g_top_in = mlp_backward(&mut g, "top", &top, b, g_top_out, &mut param_grads);

        // Interaction backward.
        let g_bot_direct = g.add_tensor(TensorMeta::activation(&[b, d]).with_batch_dim(0));
        let g_zflat = g.add_tensor(TensorMeta::activation(&[b, tri]).with_batch_dim(0));
        g.add_node(
            "int::cat_out_backward",
            OpKind::CatBackward { dim: 1 },
            vec![g_top_in],
            vec![g_bot_direct, g_zflat],
        );
        let g_z = g.add_tensor(TensorMeta::activation(&[b, n_int, n_int]).with_batch_dim(0));
        g.add_node(
            "int::tril_backward",
            OpKind::TrilBackward,
            vec![g_zflat],
            vec![g_z],
        );
        let g_t3 = g.add_tensor(TensorMeta::activation(&[b, n_int, d]).with_batch_dim(0));
        let g_t3t = g.add_tensor(TensorMeta::activation(&[b, d, n_int]).with_batch_dim(0));
        g.add_node(
            "int::bmm_backward",
            OpKind::BmmBackward,
            vec![g_z, t3, t3t],
            vec![g_t3, g_t3t],
        );
        let g_t3_from_t = g.add_tensor(TensorMeta::activation(&[b, n_int, d]).with_batch_dim(0));
        g.add_node(
            "int::transpose_backward",
            OpKind::Transpose,
            vec![g_t3t],
            vec![g_t3_from_t],
        );
        let g_t3_sum = g.add_tensor(TensorMeta::activation(&[b, n_int, d]).with_batch_dim(0));
        g.add_node(
            "int::add_grads",
            OpKind::Add,
            vec![g_t3, g_t3_from_t],
            vec![g_t3_sum],
        );
        let g_cat_all = g.add_tensor(TensorMeta::activation(&[b, n_int * d]).with_batch_dim(0));
        g.add_node(
            "int::reshape_backward",
            OpKind::Reshape,
            vec![g_t3_sum],
            vec![g_cat_all],
        );
        let g_bot_from_int = g.add_tensor(TensorMeta::activation(&[b, d]).with_batch_dim(0));
        let g_emb = g.add_tensor(TensorMeta::activation(&[b, t * d]).with_batch_dim(0));
        g.add_node(
            "int::cat_backward",
            OpKind::CatBackward { dim: 1 },
            vec![g_cat_all],
            vec![g_bot_from_int, g_emb],
        );
        let g_bot = g.add_tensor(TensorMeta::activation(&[b, d]).with_batch_dim(0));
        g.add_node(
            "int::add_bot_grads",
            OpKind::Add,
            vec![g_bot_direct, g_bot_from_int],
            vec![g_bot],
        );

        // Embedding backward (fused SGD update, so no param grads emitted).
        if self.batched_embedding {
            let w = batched_weights.expect("batched weights present");
            g.add_node(
                "emb::batched_embedding_backward",
                OpKind::BatchedEmbeddingBackward,
                vec![w, idx, g_emb],
                vec![],
            );
        } else {
            let mut slices = Vec::new();
            for _ in 0..t {
                slices.push(g.add_tensor(TensorMeta::activation(&[b, d]).with_batch_dim(0)));
            }
            g.add_node(
                "emb::cat_backward",
                OpKind::CatBackward { dim: 1 },
                vec![g_emb],
                slices.clone(),
            );
            for (i, ((w, per_idx), slice)) in table_weights
                .iter()
                .zip(&table_indices)
                .zip(&slices)
                .enumerate()
            {
                g.add_node(
                    format!("emb::embedding_bag_backward_{i}"),
                    OpKind::EmbeddingBagBackward,
                    vec![*slice, *w, *per_idx],
                    vec![],
                );
            }
        }

        // Bottom MLP backward.
        mlp_backward(&mut g, "bot", &bot, b, g_bot, &mut param_grads);

        // Optimizer step over the dense parameters (one element-wise kernel
        // per parameter, driven by the gradients for data dependencies).
        g.add_node(
            "optimizer::step",
            OpKind::OptimizerStep,
            param_grads,
            vec![],
        );

        crate::common::add_host_accessories(&mut g, self.host_accessory_ops);
        debug_assert_eq!(g.validate(), Ok(()));
        g
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlperf_gpusim::KernelFamily;
    use dlperf_graph::lower;

    #[test]
    fn all_paper_configs_build_valid_graphs() {
        for cfg in DlrmConfig::paper_configs(2048) {
            let g = cfg.build();
            assert!(g.validate().is_ok(), "{} invalid", cfg.name);
            assert!(
                lower::lower_graph(&g).is_ok(),
                "{} fails to lower",
                cfg.name
            );
        }
    }

    #[test]
    fn dominating_kernel_families_present() {
        let g = DlrmConfig::default_config(2048).build();
        let mut fams = std::collections::HashSet::new();
        for (_, ks) in lower::lower_graph(&g).unwrap() {
            for k in ks {
                fams.insert(k.family());
            }
        }
        // The paper's six dominating kernel families plus element-wise.
        for f in [
            KernelFamily::Gemm,
            KernelFamily::EmbeddingForward,
            KernelFamily::EmbeddingBackward,
            KernelFamily::Concat,
            KernelFamily::Memcpy,
            KernelFamily::Transpose,
            KernelFamily::TrilForward,
            KernelFamily::TrilBackward,
            KernelFamily::Elementwise,
        ] {
            assert!(fams.contains(&f), "missing family {f}");
        }
    }

    #[test]
    fn unbatched_variant_has_per_table_ops() {
        let cfg = DlrmConfig::default_config(512).with_batched_embedding(false);
        let g = cfg.build();
        let bags = g
            .nodes()
            .iter()
            .filter(|n| n.op == OpKind::EmbeddingBag)
            .count();
        assert_eq!(bags, 8);
        let bag_bwd = g
            .nodes()
            .iter()
            .filter(|n| n.op == OpKind::EmbeddingBagBackward)
            .count();
        assert_eq!(bag_bwd, 8);
        assert!(g.validate().is_ok());
    }

    #[test]
    fn batched_variant_has_single_embedding_op() {
        let g = DlrmConfig::default_config(512).build();
        let batched = g
            .nodes()
            .iter()
            .filter(|n| n.op == OpKind::BatchedEmbedding)
            .count();
        assert_eq!(batched, 1);
    }

    #[test]
    fn mlperf_uses_criteo_cardinalities() {
        let cfg = DlrmConfig::mlperf_config(2048);
        assert_eq!(cfg.num_tables(), 26);
        assert!(cfg.rows_per_table.iter().any(|&r| r > 10_000_000));
        assert_eq!(cfg.lookups_per_table, 1);
    }

    #[test]
    fn resize_works_on_built_graph() {
        let mut g = DlrmConfig::ddp_config(256).build();
        let old = dlperf_graph::transform::resize_batch(&mut g, 1024).unwrap();
        assert_eq!(old, 256);
        assert!(g.validate().is_ok());
        assert!(lower::lower_graph(&g).is_ok());
    }

    #[test]
    #[should_panic(expected = "bottom-MLP output == embedding dim")]
    fn mismatched_interaction_dims_panic() {
        let mut cfg = DlrmConfig::default_config(64);
        cfg.embedding_dim = 32;
        cfg.build();
    }

    #[test]
    fn inference_graph_is_forward_only() {
        let cfg = DlrmConfig::default_config(64);
        let inf = cfg.build_inference();
        assert!(inf.validate().is_ok());
        assert!(lower::lower_graph(&inf).is_ok());
        assert!(!inf.nodes().iter().any(|n| n.op.is_backward()));
        assert!(!inf.nodes().iter().any(|n| n.op == OpKind::OptimizerStep));
        assert!(inf.node_count() < cfg.build().node_count() / 2 + 10);
    }

    #[test]
    fn optimizer_step_depends_on_all_mlp_grads() {
        let cfg = DlrmConfig::default_config(128);
        let g = cfg.build();
        let opt = g
            .nodes()
            .iter()
            .find(|n| n.op == OpKind::OptimizerStep)
            .unwrap();
        // bottom: 2 layers, top: 4 layers => 6 weight grads + 6 bias grads.
        assert_eq!(
            opt.inputs.len(),
            2 * ((cfg.bottom_mlp.len() - 1) + cfg.top_mlp.len())
        );
    }
}
