//! Operator kinds.
//!
//! Each variant corresponds to a (family of) PyTorch operator(s) appearing
//! in DLRM or CV/NLP training iterations. Shape information lives on the
//! tensors, not here, so graph transformations that rewrite tensor metadata
//! (e.g. *resize*) automatically change every op's lowered kernels.

use dlperf_gpusim::MemcpyKind;
use serde::{Deserialize, Serialize};

/// The kind of operator a [`crate::Node`] executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum OpKind {
    /// `aten::addmm` — fully connected forward (bias + x·Wᵀ).
    AddMm,
    /// `AddmmBackward` — dominated by two GEMM kernels (dgrad + wgrad).
    AddMmBackward,
    /// `aten::bmm` — batched matrix multiply (feature interaction).
    Bmm,
    /// `BmmBackward0` — two batched GEMM kernels.
    BmmBackward,
    /// `aten::embedding_bag` — one table lookup.
    EmbeddingBag,
    /// `EmbeddingBagBackward` — one table lookup backward + SGD.
    EmbeddingBagBackward,
    /// Tulloch-style batched embedding lookup over all tables in one kernel.
    BatchedEmbedding,
    /// Batched embedding lookup backward with fused SGD.
    BatchedEmbeddingBackward,
    /// `aten::cat` along dimension `dim`.
    Cat { dim: usize },
    /// Backward of `cat` (materializes the per-input gradient slices).
    CatBackward { dim: usize },
    /// `aten::relu`.
    Relu,
    /// `ReluBackward0`.
    ReluBackward,
    /// `aten::sigmoid` (final CTR prediction).
    Sigmoid,
    /// `SigmoidBackward0`.
    SigmoidBackward,
    /// `aten::mse_loss`.
    MseLoss,
    /// `MseLossBackward0`.
    MseLossBackward,
    /// Batched matrix transpose (permutation of the last two axes — the only
    /// permutation that occurs in DLRM).
    Transpose,
    /// Lower-triangular extraction + flatten (feature interaction gather).
    Tril,
    /// `IndexBackward` — scatter of the interaction gradient.
    TrilBackward,
    /// `aten::to` / `aten::copy_` — a memory copy of the given kind.
    To { kind: MemcpyKind },
    /// `aten::conv2d` with square-symmetric stride/padding.
    Conv2d { stride: u64, pad: u64 },
    /// `CudnnConvolutionBackward` — dgrad + wgrad kernels.
    Conv2dBackward { stride: u64, pad: u64 },
    /// `aten::batch_norm`.
    BatchNorm,
    /// `CudnnBatchNormBackward`.
    BatchNormBackward,
    /// `aten::max_pool2d` with a `k × k` window.
    MaxPool { k: u64, stride: u64 },
    /// `MaxPool2DWithIndicesBackward0`.
    MaxPoolBackward,
    /// `aten::adaptive_avg_pool2d` (global average pooling).
    AvgPool,
    /// `aten::add` (residual connections).
    Add,
    /// `AddBackward0` — gradient pass-through, no device kernels.
    AddBackward,
    /// `aten::softmax` (attention).
    Softmax,
    /// `SoftmaxBackward0`.
    SoftmaxBackward,
    /// `aten::layer_norm`.
    LayerNorm,
    /// `LayerNormBackward0`.
    LayerNormBackward,
    /// `aten::gelu`.
    Gelu,
    /// `GeluBackward0`.
    GeluBackward,
    /// `aten::dropout`.
    Dropout,
    /// `DropoutBackward0`.
    DropoutBackward,
    /// `aten::sum` — reduction (bias-gradient accumulation in backward).
    Sum,
    /// Fused optimizer step over all parameter inputs (`Optimizer.step()`,
    /// lowered to a series of element-wise kernels as the paper observes).
    OptimizerStep,
    /// `aten::reshape` / `aten::view` / `aten::flatten` — host-only
    /// bookkeeping with no device kernels (contributes overheads only).
    Reshape,
}

impl OpKind {
    /// Canonical operator-type keys used for overhead statistics, one per
    /// overhead slot: [`OpKind::overhead_key`] is
    /// `OVERHEAD_KEYS[self.overhead_slot()]`, so a slot and its key cannot
    /// drift apart.
    ///
    /// The paper's overhead model assumes "same types of overheads of the
    /// same op have the same stats on the same machine"; these keys define
    /// what "same op" means.
    pub const OVERHEAD_KEYS: [&'static str; 40] = [
        "aten::addmm",
        "AddmmBackward",
        "aten::bmm",
        "BmmBackward0",
        "aten::embedding_bag",
        "EmbeddingBagBackward",
        "batched_embedding",
        "batched_embedding_backward",
        "aten::cat",
        "CatBackward",
        "aten::relu",
        "ReluBackward0",
        "aten::sigmoid",
        "SigmoidBackward0",
        "aten::mse_loss",
        "MseLossBackward0",
        "aten::transpose",
        // `aten::tril` is lowered to index kernels, but its host-side
        // overhead stats must not alias genuine `aten::index` ops.
        "aten::tril",
        "IndexBackward",
        "aten::to",
        "aten::conv2d",
        "CudnnConvolutionBackward",
        "aten::batch_norm",
        "CudnnBatchNormBackward",
        "aten::max_pool2d",
        "MaxPool2DWithIndicesBackward0",
        "aten::adaptive_avg_pool2d",
        "aten::add",
        "AddBackward0",
        "aten::softmax",
        "SoftmaxBackward0",
        "aten::layer_norm",
        "LayerNormBackward0",
        "aten::gelu",
        "GeluBackward0",
        "aten::dropout",
        "DropoutBackward0",
        "aten::sum",
        "Optimizer.step",
        "aten::reshape",
    ];

    /// Dense index of this op's overhead key in [`OpKind::OVERHEAD_KEYS`]:
    /// one slot per variant, whatever its fields, so per-op-type tables
    /// (the predictor's T1–T5 means) are arrays rather than string maps.
    pub const fn overhead_slot(&self) -> usize {
        match self {
            OpKind::AddMm => 0,
            OpKind::AddMmBackward => 1,
            OpKind::Bmm => 2,
            OpKind::BmmBackward => 3,
            OpKind::EmbeddingBag => 4,
            OpKind::EmbeddingBagBackward => 5,
            OpKind::BatchedEmbedding => 6,
            OpKind::BatchedEmbeddingBackward => 7,
            OpKind::Cat { .. } => 8,
            OpKind::CatBackward { .. } => 9,
            OpKind::Relu => 10,
            OpKind::ReluBackward => 11,
            OpKind::Sigmoid => 12,
            OpKind::SigmoidBackward => 13,
            OpKind::MseLoss => 14,
            OpKind::MseLossBackward => 15,
            OpKind::Transpose => 16,
            OpKind::Tril => 17,
            OpKind::TrilBackward => 18,
            OpKind::To { .. } => 19,
            OpKind::Conv2d { .. } => 20,
            OpKind::Conv2dBackward { .. } => 21,
            OpKind::BatchNorm => 22,
            OpKind::BatchNormBackward => 23,
            OpKind::MaxPool { .. } => 24,
            OpKind::MaxPoolBackward => 25,
            OpKind::AvgPool => 26,
            OpKind::Add => 27,
            OpKind::AddBackward => 28,
            OpKind::Softmax => 29,
            OpKind::SoftmaxBackward => 30,
            OpKind::LayerNorm => 31,
            OpKind::LayerNormBackward => 32,
            OpKind::Gelu => 33,
            OpKind::GeluBackward => 34,
            OpKind::Dropout => 35,
            OpKind::DropoutBackward => 36,
            OpKind::Sum => 37,
            OpKind::OptimizerStep => 38,
            OpKind::Reshape => 39,
        }
    }

    /// Canonical operator-type key used for overhead statistics (see
    /// [`OpKind::OVERHEAD_KEYS`]).
    pub fn overhead_key(&self) -> &'static str {
        Self::OVERHEAD_KEYS[self.overhead_slot()]
    }

    /// Whether this op belongs to the backward pass.
    pub fn is_backward(&self) -> bool {
        matches!(
            self,
            OpKind::AddMmBackward
                | OpKind::BmmBackward
                | OpKind::EmbeddingBagBackward
                | OpKind::BatchedEmbeddingBackward
                | OpKind::CatBackward { .. }
                | OpKind::ReluBackward
                | OpKind::SigmoidBackward
                | OpKind::MseLossBackward
                | OpKind::TrilBackward
                | OpKind::Conv2dBackward { .. }
                | OpKind::BatchNormBackward
                | OpKind::MaxPoolBackward
                | OpKind::AddBackward
                | OpKind::SoftmaxBackward
                | OpKind::LayerNormBackward
                | OpKind::GeluBackward
                | OpKind::DropoutBackward
        )
    }

    /// Whether this op launches any device kernels at all. Ops that do not
    /// (views, `AddBackward0`) still contribute host overheads.
    pub fn has_device_work(&self) -> bool {
        !matches!(self, OpKind::Reshape | OpKind::AddBackward)
    }
}

impl std::fmt::Display for OpKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.overhead_key())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backward_classification() {
        assert!(!OpKind::AddMm.is_backward());
        assert!(OpKind::AddMmBackward.is_backward());
        assert!(OpKind::TrilBackward.is_backward());
        assert!(!OpKind::OptimizerStep.is_backward());
    }

    #[test]
    fn host_only_ops() {
        assert!(!OpKind::Reshape.has_device_work());
        assert!(!OpKind::AddBackward.has_device_work());
        assert!(OpKind::Relu.has_device_work());
    }

    /// One instance of every variant with the overhead key it has always
    /// had. A variant added without a row here leaves its slot unseen.
    const EVERY_KIND: [(OpKind, &str); 40] = [
        (OpKind::AddMm, "aten::addmm"),
        (OpKind::AddMmBackward, "AddmmBackward"),
        (OpKind::Bmm, "aten::bmm"),
        (OpKind::BmmBackward, "BmmBackward0"),
        (OpKind::EmbeddingBag, "aten::embedding_bag"),
        (OpKind::EmbeddingBagBackward, "EmbeddingBagBackward"),
        (OpKind::BatchedEmbedding, "batched_embedding"),
        (OpKind::BatchedEmbeddingBackward, "batched_embedding_backward"),
        (OpKind::Cat { dim: 1 }, "aten::cat"),
        (OpKind::CatBackward { dim: 1 }, "CatBackward"),
        (OpKind::Relu, "aten::relu"),
        (OpKind::ReluBackward, "ReluBackward0"),
        (OpKind::Sigmoid, "aten::sigmoid"),
        (OpKind::SigmoidBackward, "SigmoidBackward0"),
        (OpKind::MseLoss, "aten::mse_loss"),
        (OpKind::MseLossBackward, "MseLossBackward0"),
        (OpKind::Transpose, "aten::transpose"),
        (OpKind::Tril, "aten::tril"),
        (OpKind::TrilBackward, "IndexBackward"),
        (OpKind::To { kind: MemcpyKind::HostToDevice }, "aten::to"),
        (OpKind::Conv2d { stride: 1, pad: 1 }, "aten::conv2d"),
        (OpKind::Conv2dBackward { stride: 2, pad: 0 }, "CudnnConvolutionBackward"),
        (OpKind::BatchNorm, "aten::batch_norm"),
        (OpKind::BatchNormBackward, "CudnnBatchNormBackward"),
        (OpKind::MaxPool { k: 3, stride: 2 }, "aten::max_pool2d"),
        (OpKind::MaxPoolBackward, "MaxPool2DWithIndicesBackward0"),
        (OpKind::AvgPool, "aten::adaptive_avg_pool2d"),
        (OpKind::Add, "aten::add"),
        (OpKind::AddBackward, "AddBackward0"),
        (OpKind::Softmax, "aten::softmax"),
        (OpKind::SoftmaxBackward, "SoftmaxBackward0"),
        (OpKind::LayerNorm, "aten::layer_norm"),
        (OpKind::LayerNormBackward, "LayerNormBackward0"),
        (OpKind::Gelu, "aten::gelu"),
        (OpKind::GeluBackward, "GeluBackward0"),
        (OpKind::Dropout, "aten::dropout"),
        (OpKind::DropoutBackward, "DropoutBackward0"),
        (OpKind::Sum, "aten::sum"),
        (OpKind::OptimizerStep, "Optimizer.step"),
        (OpKind::Reshape, "aten::reshape"),
    ];

    #[test]
    fn every_kind_reads_its_key_from_its_slot() {
        let mut seen = [false; OpKind::OVERHEAD_KEYS.len()];
        for (kind, key) in EVERY_KIND {
            let slot = kind.overhead_slot();
            assert_eq!(kind.overhead_key(), OpKind::OVERHEAD_KEYS[slot], "{kind:?}");
            assert_eq!(kind.overhead_key(), key, "{kind:?} changed its overhead key");
            assert!(!seen[slot], "{kind:?} shares slot {slot}");
            seen[slot] = true;
        }
        assert!(seen.iter().all(|&s| s), "every slot belongs to a variant");
    }

    #[test]
    fn overhead_keys_unique_for_distinct_kinds() {
        let mut keys = OpKind::OVERHEAD_KEYS.to_vec();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), OpKind::OVERHEAD_KEYS.len(), "two slots share a key");
    }

    #[test]
    fn display_matches_key() {
        assert_eq!(OpKind::AddMm.to_string(), "aten::addmm");
    }
}
