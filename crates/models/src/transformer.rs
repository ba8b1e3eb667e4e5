//! Transformer encoder training-iteration graph (Vaswani et al., 2017) —
//! the high-GPU-utilization NLP workload of Fig. 1.

use dlperf_gpusim::MemcpyKind;
use dlperf_graph::{Graph, OpKind, TensorId, TensorMeta};

use crate::autodiff::Tape;

/// Transformer encoder configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct TransformerConfig {
    /// Samples per batch.
    pub batch: u64,
    /// Tokens per sample.
    pub seq_len: u64,
    /// Model width.
    pub d_model: u64,
    /// Attention heads (must divide `d_model`).
    pub heads: u64,
    /// Feed-forward hidden width.
    pub ff: u64,
    /// Encoder layers.
    pub layers: u64,
    /// Token vocabulary size (embedding-table rows).
    pub vocab: u64,
}

impl TransformerConfig {
    /// The base encoder: 6 layers, d_model 512, 8 heads, FF 2048, seq 128.
    pub fn base(batch: u64) -> Self {
        TransformerConfig {
            batch,
            seq_len: 128,
            d_model: 512,
            heads: 8,
            ff: 2048,
            layers: 6,
            vocab: 30_522,
        }
    }

    /// Builds the training-iteration graph.
    ///
    /// # Panics
    /// Panics if `heads` does not divide `d_model` or any dimension is zero.
    pub fn build(&self) -> Graph {
        assert!(
            self.batch > 0 && self.seq_len > 0 && self.layers > 0,
            "dims must be positive"
        );
        assert_eq!(self.d_model % self.heads, 0, "heads must divide d_model");
        let (b, s, d, h) = (self.batch, self.seq_len, self.d_model, self.heads);
        let bs = b * s;
        let bh = b * h;
        let dh = d / h;

        let mut g = Graph::new("Transformer");
        let mut tape = Tape::new();

        // Token ids H2D + embedding lookup.
        let ids_cpu = g.add_tensor(TensorMeta::index(&[bs, 1]));
        let ids = g.add_tensor(TensorMeta::index(&[bs, 1]));
        g.add_node(
            "input::to_ids",
            OpKind::To {
                kind: MemcpyKind::HostToDevice,
            },
            vec![ids_cpu],
            vec![ids],
        );
        let emb_w = g.add_tensor(TensorMeta::weight(&[self.vocab, d]));
        let emb_out = g.add_tensor(TensorMeta::activation(&[bs, d]));
        g.add_node(
            "embedding",
            OpKind::EmbeddingBag,
            vec![emb_w, ids],
            vec![emb_out],
        );

        let act = |g: &mut Graph, shape: &[u64]| g.add_tensor(TensorMeta::activation(shape));

        let mut x = emb_out;
        for layer in 0..self.layers {
            let p = |n: &str| format!("enc{layer}::{n}");

            // Self-attention projections.
            let proj = |g: &mut Graph, tape: &mut Tape, name: &str, input: TensorId, out_f: u64| {
                let w = g.add_tensor(TensorMeta::weight(&[out_f, d]));
                let bias = g.add_tensor(TensorMeta::weight(&[out_f]));
                let y = g.add_tensor(TensorMeta::activation(&[bs, out_f]));
                tape.linear(g, name, input, w, bias, y);
                y
            };
            let q = proj(&mut g, &mut tape, &p("q_proj"), x, d);
            let k = proj(&mut g, &mut tape, &p("k_proj"), x, d);
            let v = proj(&mut g, &mut tape, &p("v_proj"), x, d);

            let q3 = act(&mut g, &[bh, s, dh]);
            tape.reshape(&mut g, &p("q_heads"), q, q3);
            let k3 = act(&mut g, &[bh, s, dh]);
            tape.reshape(&mut g, &p("k_heads"), k, k3);
            let kt = act(&mut g, &[bh, dh, s]);
            tape.unary(
                &mut g,
                &p("k_transpose"),
                OpKind::Transpose,
                OpKind::Transpose,
                k3,
                kt,
                vec![],
            );
            let v3 = act(&mut g, &[bh, s, dh]);
            tape.reshape(&mut g, &p("v_heads"), v, v3);

            let scores = act(&mut g, &[bh, s, s]);
            tape.bmm(&mut g, &p("qk_bmm"), q3, kt, scores);
            let attn = act(&mut g, &[bh, s, s]);
            tape.unary(
                &mut g,
                &p("softmax"),
                OpKind::Softmax,
                OpKind::SoftmaxBackward,
                scores,
                attn,
                vec![attn],
            );
            let ctx = act(&mut g, &[bh, s, dh]);
            tape.bmm(&mut g, &p("av_bmm"), attn, v3, ctx);
            let ctx2 = act(&mut g, &[bs, d]);
            tape.reshape(&mut g, &p("merge_heads"), ctx, ctx2);
            let attn_out = proj(&mut g, &mut tape, &p("out_proj"), ctx2, d);

            let res1 = act(&mut g, &[bs, d]);
            tape.add(&mut g, &p("residual1"), x, attn_out, res1);
            let ln1 = act(&mut g, &[bs, d]);
            tape.unary(
                &mut g,
                &p("layer_norm1"),
                OpKind::LayerNorm,
                OpKind::LayerNormBackward,
                res1,
                ln1,
                vec![res1],
            );

            // Feed-forward.
            let ff_w1 = g.add_tensor(TensorMeta::weight(&[self.ff, d]));
            let ff_b1 = g.add_tensor(TensorMeta::weight(&[self.ff]));
            let ff_h = act(&mut g, &[bs, self.ff]);
            tape.linear(&mut g, &p("ff1"), ln1, ff_w1, ff_b1, ff_h);
            let gelu = act(&mut g, &[bs, self.ff]);
            tape.unary(
                &mut g,
                &p("gelu"),
                OpKind::Gelu,
                OpKind::GeluBackward,
                ff_h,
                gelu,
                vec![ff_h],
            );
            let ff_w2 = g.add_tensor(TensorMeta::weight(&[d, self.ff]));
            let ff_b2 = g.add_tensor(TensorMeta::weight(&[d]));
            let ff_out = act(&mut g, &[bs, d]);
            tape.linear(&mut g, &p("ff2"), gelu, ff_w2, ff_b2, ff_out);

            let res2 = act(&mut g, &[bs, d]);
            tape.add(&mut g, &p("residual2"), ln1, ff_out, res2);
            let ln2 = act(&mut g, &[bs, d]);
            tape.unary(
                &mut g,
                &p("layer_norm2"),
                OpKind::LayerNorm,
                OpKind::LayerNormBackward,
                res2,
                ln2,
                vec![res2],
            );
            x = ln2;
        }

        // LM head + loss.
        let head_w = g.add_tensor(TensorMeta::weight(&[self.vocab, d]));
        let head_b = g.add_tensor(TensorMeta::weight(&[self.vocab]));
        let logits = act(&mut g, &[bs, self.vocab]);
        tape.linear(&mut g, "lm_head", x, head_w, head_b, logits);
        let probs = act(&mut g, &[bs, self.vocab]);
        tape.unary(
            &mut g,
            "softmax_out",
            OpKind::Softmax,
            OpKind::SoftmaxBackward,
            logits,
            probs,
            vec![probs],
        );
        let labels = g.add_tensor(TensorMeta::activation(&[bs, self.vocab]));
        let loss = g.add_tensor(TensorMeta::activation(&[]));
        g.add_node(
            "loss::mse_loss",
            OpKind::MseLoss,
            vec![probs, labels],
            vec![loss],
        );
        let g_probs = act(&mut g, &[bs, self.vocab]);
        g.add_node(
            "loss::mse_loss_backward",
            OpKind::MseLossBackward,
            vec![loss, probs, labels],
            vec![g_probs],
        );

        let mut param_grads = Vec::new();
        let grads = tape.backward(&mut g, (probs, g_probs), &mut param_grads);

        // Token embedding backward (sparse update, fused SGD).
        if let Some(&g_emb) = grads.get(&emb_out) {
            g.add_node(
                "embedding_backward",
                OpKind::EmbeddingBagBackward,
                vec![g_emb, emb_w, ids],
                vec![],
            );
        }
        g.add_node(
            "optimizer::step",
            OpKind::OptimizerStep,
            param_grads,
            vec![],
        );

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
    fn builds_valid_graph() {
        let g = TransformerConfig::base(16).build();
        assert!(g.validate().is_ok());
        assert!(lower::lower_graph(&g).is_ok());
    }

    #[test]
    fn gemm_dominates_flops() {
        let g = TransformerConfig::base(16).build();
        let (mut gemm, mut total) = (0.0, 0.0);
        for (_, ks) in lower::lower_graph(&g).unwrap() {
            for k in ks {
                total += k.flops();
                if k.family() == KernelFamily::Gemm {
                    gemm += k.flops();
                }
            }
        }
        assert!(gemm / total > 0.9, "GEMM share {}", gemm / total);
    }

    #[test]
    fn layer_count_scales_nodes() {
        let small = TransformerConfig {
            layers: 2,
            ..TransformerConfig::base(4)
        }
        .build();
        let big = TransformerConfig {
            layers: 4,
            ..TransformerConfig::base(4)
        }
        .build();
        assert!(big.node_count() > small.node_count());
    }

    #[test]
    #[should_panic(expected = "heads must divide")]
    fn bad_heads_panics() {
        TransformerConfig {
            heads: 7,
            ..TransformerConfig::base(4)
        }
        .build();
    }
}
