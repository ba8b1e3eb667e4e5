//! Additional recommendation models beyond DLRM.
//!
//! The paper argues DLRM's embedding-lookup + MLP paradigm "generalizes to
//! RM design"; these builders exercise that claim on two other widely
//! deployed recommenders — Deep & Cross Network (Wang et al., ADKDD'17) and
//! Wide & Deep (Cheng et al., DLRS'16) — so the same pipeline prices them
//! without any new kernel models.

use dlperf_gpusim::MemcpyKind;
use dlperf_graph::{Graph, OpKind, TensorId, TensorMeta};

use crate::autodiff::Tape;

/// Configuration shared by the extra RMs.
#[derive(Debug, Clone, PartialEq)]
pub struct RmConfig {
    /// Per-batch sample count.
    pub batch: u64,
    /// Dense-feature dimension.
    pub dense_features: u64,
    /// Embedding tables: `(rows, dim)` — dims must all match for DCN's
    /// shared input stack.
    pub tables: Vec<(u64, u64)>,
    /// Lookups per sample per table.
    pub lookups: u64,
    /// Deep-branch MLP hidden sizes.
    pub deep_mlp: Vec<u64>,
    /// DCN only: number of cross layers.
    pub cross_layers: u64,
}

impl RmConfig {
    /// A mid-size CTR configuration (8 tables × 100 k rows × dim 16).
    pub fn ctr_default(batch: u64) -> Self {
        RmConfig {
            batch,
            dense_features: 13,
            tables: vec![(100_000, 16); 8],
            lookups: 1,
            deep_mlp: vec![256, 128, 64],
            cross_layers: 4,
        }
    }
}

/// Shared front end: input copies, per-table embedding lookups, and the
/// concat of dense + embedded features. Returns `(x0, x0_dim)`.
fn feature_stack(g: &mut Graph, tape: &mut Tape, cfg: &RmConfig) -> (TensorId, u64) {
    let b = cfg.batch;
    let dense_cpu =
        g.add_tensor(TensorMeta::activation(&[b, cfg.dense_features]).with_batch_dim(0));
    let dense = g.add_tensor(TensorMeta::activation(&[b, cfg.dense_features]).with_batch_dim(0));
    g.add_node(
        "input::to_dense",
        OpKind::To {
            kind: MemcpyKind::HostToDevice,
        },
        vec![dense_cpu],
        vec![dense],
    );

    let mut parts = vec![dense];
    let mut dim = cfg.dense_features;
    for (i, &(rows, d)) in cfg.tables.iter().enumerate() {
        let w = g.add_tensor(TensorMeta::weight(&[rows, d]));
        let idx_cpu = g.add_tensor(TensorMeta::index(&[b, cfg.lookups]).with_batch_dim(0));
        let idx = g.add_tensor(TensorMeta::index(&[b, cfg.lookups]).with_batch_dim(0));
        g.add_node(
            format!("input::to_indices_{i}"),
            OpKind::To {
                kind: MemcpyKind::HostToDevice,
            },
            vec![idx_cpu],
            vec![idx],
        );
        let out = g.add_tensor(TensorMeta::activation(&[b, d]).with_batch_dim(0));
        g.add_node(
            format!("emb::embedding_bag_{i}"),
            OpKind::EmbeddingBag,
            vec![w, idx],
            vec![out],
        );
        parts.push(out);
        dim += d;
    }
    let x0 = g.add_tensor(TensorMeta::activation(&[b, dim]).with_batch_dim(0));
    tape.cat(g, "features::cat", parts, x0, 1);
    (x0, dim)
}

/// Deep MLP branch on the tape. Returns its output tensor and width.
fn deep_branch(
    g: &mut Graph,
    tape: &mut Tape,
    x: TensorId,
    in_dim: u64,
    sizes: &[u64],
    batch: u64,
) -> (TensorId, u64) {
    let mut h = x;
    let mut prev = in_dim;
    for (i, &width) in sizes.iter().enumerate() {
        let w = g.add_tensor(TensorMeta::weight(&[width, prev]));
        let bias = g.add_tensor(TensorMeta::weight(&[width]));
        let y = g.add_tensor(TensorMeta::activation(&[batch, width]).with_batch_dim(0));
        tape.linear(g, &format!("deep::fc_{i}"), h, w, bias, y);
        let a = g.add_tensor(TensorMeta::activation(&[batch, width]).with_batch_dim(0));
        tape.unary(
            g,
            &format!("deep::relu_{i}"),
            OpKind::Relu,
            OpKind::ReluBackward,
            y,
            a,
            vec![a],
        );
        h = a;
        prev = width;
    }
    (h, prev)
}

/// Head: logit projection, sigmoid, MSE loss, backward, optimizer.
fn finish(g: &mut Graph, mut tape: Tape, x: TensorId, in_dim: u64, batch: u64) {
    let w = g.add_tensor(TensorMeta::weight(&[1, in_dim]));
    let bias = g.add_tensor(TensorMeta::weight(&[1]));
    let logit = g.add_tensor(TensorMeta::activation(&[batch, 1]).with_batch_dim(0));
    tape.linear(g, "head::fc", x, w, bias, logit);
    let prob = g.add_tensor(TensorMeta::activation(&[batch, 1]).with_batch_dim(0));
    tape.unary(
        g,
        "head::sigmoid",
        OpKind::Sigmoid,
        OpKind::SigmoidBackward,
        logit,
        prob,
        vec![prob],
    );
    let labels = g.add_tensor(TensorMeta::activation(&[batch, 1]).with_batch_dim(0));
    let loss = g.add_tensor(TensorMeta::activation(&[]));
    g.add_node(
        "loss::mse_loss",
        OpKind::MseLoss,
        vec![prob, labels],
        vec![loss],
    );
    let g_prob = g.add_tensor(TensorMeta::activation(&[batch, 1]).with_batch_dim(0));
    g.add_node(
        "loss::mse_loss_backward",
        OpKind::MseLossBackward,
        vec![loss, prob, labels],
        vec![g_prob],
    );

    let mut param_grads = Vec::new();
    let grads = tape.backward(g, (prob, g_prob), &mut param_grads);
    // Sparse embedding updates happen in their backward ops; here attach
    // backward ops for every embedding output that received a gradient.
    let emb_nodes: Vec<_> = g
        .nodes()
        .iter()
        .filter(|n| n.op == OpKind::EmbeddingBag)
        .map(|n| (n.inputs.clone(), n.outputs[0]))
        .collect();
    for (inputs, out) in emb_nodes {
        if let Some(&g_out) = grads.get(&out) {
            g.add_node(
                "emb::embedding_bag_backward",
                OpKind::EmbeddingBagBackward,
                vec![g_out, inputs[0], inputs[1]],
                vec![],
            );
        }
    }
    g.add_node(
        "optimizer::step",
        OpKind::OptimizerStep,
        param_grads,
        vec![],
    );
}

/// Builds a Deep & Cross Network training iteration: the feature stack
/// feeds both a cross tower (`x_{l+1} = x0 ⊙ (x_l · w_l) + b_l + x_l`) and
/// a deep MLP tower, combined before the logit.
///
/// # Panics
/// Panics if the config has no tables or a zero batch.
pub fn dcn(cfg: &RmConfig) -> Graph {
    assert!(
        cfg.batch > 0 && !cfg.tables.is_empty(),
        "DCN needs a batch and tables"
    );
    let b = cfg.batch;
    let mut g = Graph::new("DCN");
    let mut tape = Tape::new();
    let (x0, dim) = feature_stack(&mut g, &mut tape, cfg);

    // Cross tower.
    let mut xl = x0;
    for i in 0..cfg.cross_layers {
        // s = x_l · w (a skinny GEMM producing one scalar per sample).
        let w = g.add_tensor(TensorMeta::weight(&[1, dim]));
        let bias = g.add_tensor(TensorMeta::weight(&[1]));
        let s = g.add_tensor(TensorMeta::activation(&[b, 1]).with_batch_dim(0));
        tape.linear(&mut g, &format!("cross::matvec_{i}"), xl, w, bias, s);
        // x0 ⊙ s (broadcast multiply): element-wise over the full width.
        let scaled = g.add_tensor(TensorMeta::activation(&[b, dim]).with_batch_dim(0));
        tape.add(&mut g, &format!("cross::scale_{i}"), x0, s, scaled);
        // + x_l (residual).
        let next = g.add_tensor(TensorMeta::activation(&[b, dim]).with_batch_dim(0));
        tape.add(&mut g, &format!("cross::residual_{i}"), scaled, xl, next);
        xl = next;
    }

    // Deep tower + combine.
    let (deep, deep_dim) = deep_branch(&mut g, &mut tape, x0, dim, &cfg.deep_mlp, b);
    let combined = g.add_tensor(TensorMeta::activation(&[b, dim + deep_dim]).with_batch_dim(0));
    tape.cat(&mut g, "combine::cat", vec![xl, deep], combined, 1);
    finish(&mut g, tape, combined, dim + deep_dim, b);
    debug_assert_eq!(g.validate(), Ok(()));
    g
}

/// Builds a Wide & Deep training iteration: a wide sparse-linear part (a
/// dim-1 embedding lookup over a large cross-feature table) plus the deep
/// embedding-MLP part.
///
/// # Panics
/// Panics if the config has no tables or a zero batch.
pub fn wide_deep(cfg: &RmConfig) -> Graph {
    assert!(
        cfg.batch > 0 && !cfg.tables.is_empty(),
        "Wide&Deep needs a batch and tables"
    );
    let b = cfg.batch;
    let mut g = Graph::new("WideDeep");
    let mut tape = Tape::new();

    // Wide part: scalar weights over a big cross-product table.
    let wide_table = g.add_tensor(TensorMeta::weight(&[5_000_000, 1]));
    let wide_idx_cpu = g.add_tensor(TensorMeta::index(&[b, 32]).with_batch_dim(0));
    let wide_idx = g.add_tensor(TensorMeta::index(&[b, 32]).with_batch_dim(0));
    g.add_node(
        "input::to_wide_indices",
        OpKind::To {
            kind: MemcpyKind::HostToDevice,
        },
        vec![wide_idx_cpu],
        vec![wide_idx],
    );
    let wide_out = g.add_tensor(TensorMeta::activation(&[b, 1]).with_batch_dim(0));
    g.add_node(
        "wide::embedding_bag",
        OpKind::EmbeddingBag,
        vec![wide_table, wide_idx],
        vec![wide_out],
    );

    // Deep part.
    let (x0, dim) = feature_stack(&mut g, &mut tape, cfg);
    let (deep, deep_dim) = deep_branch(&mut g, &mut tape, x0, dim, &cfg.deep_mlp, b);

    let combined = g.add_tensor(TensorMeta::activation(&[b, deep_dim + 1]).with_batch_dim(0));
    tape.cat(&mut g, "combine::cat", vec![deep, wide_out], combined, 1);
    finish(&mut g, tape, combined, deep_dim + 1, b);
    debug_assert_eq!(g.validate(), Ok(()));
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlperf_gpusim::KernelFamily;
    use dlperf_graph::lower;

    #[test]
    fn dcn_builds_and_lowers() {
        let g = dcn(&RmConfig::ctr_default(512));
        assert!(g.validate().is_ok());
        assert!(lower::lower_graph(&g).is_ok());
        // Cross layers present: 4 matvec AddMms named cross::matvec_*.
        assert_eq!(
            g.nodes()
                .iter()
                .filter(|n| n.name.starts_with("cross::matvec"))
                .count(),
            4
        );
    }

    #[test]
    fn wide_deep_builds_and_lowers() {
        let g = wide_deep(&RmConfig::ctr_default(512));
        assert!(g.validate().is_ok());
        assert!(lower::lower_graph(&g).is_ok());
        // Wide table lookup + 8 deep tables, each with a backward.
        let fwd = g
            .nodes()
            .iter()
            .filter(|n| n.op == OpKind::EmbeddingBag)
            .count();
        let bwd = g
            .nodes()
            .iter()
            .filter(|n| n.op == OpKind::EmbeddingBagBackward)
            .count();
        assert_eq!(fwd, 9);
        assert!(
            bwd >= 8,
            "deep embeddings must have backward ops, got {bwd}"
        );
    }

    #[test]
    fn rms_share_dlrm_kernel_families() {
        // No new kernel family is needed: the existing registry covers DCN
        // and Wide&Deep entirely (the paper's generality claim).
        let known = [
            KernelFamily::Gemm,
            KernelFamily::EmbeddingForward,
            KernelFamily::EmbeddingBackward,
            KernelFamily::Concat,
            KernelFamily::Memcpy,
            KernelFamily::Elementwise,
        ];
        for g in [
            dcn(&RmConfig::ctr_default(128)),
            wide_deep(&RmConfig::ctr_default(128)),
        ] {
            for (_, ks) in lower::lower_graph(&g).unwrap() {
                for k in ks {
                    assert!(
                        known.contains(&k.family()),
                        "unexpected family {} in {}",
                        k.family(),
                        g.name
                    );
                }
            }
        }
    }

    #[test]
    fn both_resize_cleanly() {
        for mut g in [
            dcn(&RmConfig::ctr_default(256)),
            wide_deep(&RmConfig::ctr_default(256)),
        ] {
            dlperf_graph::transform::resize_batch(&mut g, 1024).unwrap();
            assert!(lower::lower_graph(&g).is_ok());
        }
    }
}
