//! Kernel invocation descriptions and the simulation dispatcher.
//!
//! [`KernelSpec`] is the shared vocabulary between the simulator (which
//! *measures* a kernel), the execution graph (whose ops *lower* to kernels),
//! and the kernel performance models (which *predict* a kernel). It mirrors
//! the seven dominating kernel families the paper identifies in DLRM
//! training, plus convolution and batch normalization used for the CV-model
//! experiments (Fig. 10).

use serde::{Deserialize, Serialize};

use crate::device::DeviceSpec;
use crate::{conv, elementwise, embedding, gemm, memory, transpose};

/// Direction of a `memcpy` kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MemcpyKind {
    /// Host to device over PCIe.
    HostToDevice,
    /// Device to host over PCIe.
    DeviceToHost,
    /// Device to device through DRAM.
    DeviceToDevice,
}

/// A single GPU kernel invocation with all the parameters that determine its
/// execution time.
///
/// Sizes are element counts unless a field is explicitly named `bytes`.
/// All tensors are FP32 (4 bytes/element), as in the paper's benchmarks.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum KernelSpec {
    /// A cuBLAS-style GEMM: `C[m×n] += A[m×k] × B[k×n]`, repeated `batch`
    /// times (batch > 1 models `bmm`).
    Gemm { m: u64, n: u64, k: u64, batch: u64 },
    /// Batched embedding-table lookup, forward pass.
    ///
    /// Parameters follow the paper's notation: `b` batch size, `e` rows per
    /// table, `t` number of tables, `l` lookups per output vector, `d`
    /// embedding dimension. `rows_per_block` is the kernel launch argument
    /// controlling how many output rows one CTA computes.
    EmbeddingForward {
        b: u64,
        e: u64,
        t: u64,
        l: u64,
        d: u64,
        rows_per_block: u64,
    },
    /// Batched embedding-table lookup backward + fused SGD update.
    EmbeddingBackward {
        b: u64,
        e: u64,
        t: u64,
        l: u64,
        d: u64,
        rows_per_block: u64,
    },
    /// Concatenation of tensors along a dimension; cost is dominated by the
    /// total payload moved.
    Concat { bytes: u64 },
    /// A memory copy of `bytes` bytes.
    Memcpy { bytes: u64, kind: MemcpyKind },
    /// Batched matrix transpose: permutes the last two axes of a
    /// `batch × rows × cols` FP32 tensor (the only permutation DLRM uses).
    Transpose { batch: u64, rows: u64, cols: u64 },
    /// Lower-triangular extraction + flatten of a `batch × n × n` tensor
    /// (the feature-interaction `Index` forward op).
    TrilForward { batch: u64, n: u64 },
    /// Scatter of the flattened lower-triangular gradient back into a
    /// `batch × n × n` tensor (`IndexBackward`).
    TrilBackward { batch: u64, n: u64 },
    /// A generic element-wise kernel (relu, sigmoid, MSE loss, optimizer
    /// updates, batch-norm, ...): `elems` elements, `flops_per_elem`
    /// arithmetic ops each, and `bytes_per_elem` of memory traffic each.
    Elementwise {
        elems: u64,
        flops_per_elem: f64,
        bytes_per_elem: f64,
    },
    /// A 2-D convolution (for the CV-model experiments), lowered internally
    /// to an implicit GEMM as cuDNN does.
    Conv2d {
        batch: u64,
        c_in: u64,
        h: u64,
        w: u64,
        c_out: u64,
        kh: u64,
        kw: u64,
        stride: u64,
        pad: u64,
    },
}

/// Families of kernels that share one performance model.
///
/// This grouping is the paper's key cost-saving observation: ops such as
/// `addmm`, `bmm`, `linear` and their backwards all call cuBLAS GEMM kernels
/// and can share a single microbenchmark + model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum KernelFamily {
    Gemm,
    EmbeddingForward,
    EmbeddingBackward,
    Concat,
    Memcpy,
    Transpose,
    TrilForward,
    TrilBackward,
    Elementwise,
    Conv2d,
}

impl KernelFamily {
    /// Every family, in declaration order.
    pub const ALL: [KernelFamily; 10] = [
        KernelFamily::Gemm,
        KernelFamily::EmbeddingForward,
        KernelFamily::EmbeddingBackward,
        KernelFamily::Concat,
        KernelFamily::Memcpy,
        KernelFamily::Transpose,
        KernelFamily::TrilForward,
        KernelFamily::TrilBackward,
        KernelFamily::Elementwise,
        KernelFamily::Conv2d,
    ];

    /// The family's label, as `Display` writes it.
    pub fn label(self) -> &'static str {
        match self {
            KernelFamily::Gemm => "GEMM",
            KernelFamily::EmbeddingForward => "EL-F",
            KernelFamily::EmbeddingBackward => "EL-B",
            KernelFamily::Concat => "concat",
            KernelFamily::Memcpy => "memcpy",
            KernelFamily::Transpose => "transpose",
            KernelFamily::TrilForward => "tril-F",
            KernelFamily::TrilBackward => "tril-B",
            KernelFamily::Elementwise => "elementwise",
            KernelFamily::Conv2d => "conv2d",
        }
    }

    /// Inverse of [`label`](Self::label) — the round-trip trace ingestion
    /// relies on to attribute kernel events (named `<label>_kernel` by
    /// the engine) back to a family. Unknown labels return `None`; trace
    /// corpora may contain kernels this repo has no model for.
    pub fn parse_label(label: &str) -> Option<KernelFamily> {
        KernelFamily::ALL.into_iter().find(|f| f.label() == label)
    }
}

impl std::fmt::Display for KernelFamily {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

impl KernelSpec {
    /// Convenience constructor for an unbatched GEMM.
    pub fn gemm(m: u64, n: u64, k: u64) -> Self {
        KernelSpec::Gemm { m, n, k, batch: 1 }
    }

    /// Convenience constructor for a batched GEMM (`bmm`).
    pub fn bmm(batch: u64, m: u64, n: u64, k: u64) -> Self {
        KernelSpec::Gemm { m, n, k, batch }
    }

    /// Convenience constructor for a device-to-device copy.
    pub fn memcpy_d2d(bytes: u64) -> Self {
        KernelSpec::Memcpy {
            bytes,
            kind: MemcpyKind::DeviceToDevice,
        }
    }

    /// Convenience constructor for a host-to-device copy.
    pub fn memcpy_h2d(bytes: u64) -> Self {
        KernelSpec::Memcpy {
            bytes,
            kind: MemcpyKind::HostToDevice,
        }
    }

    /// Embedding-lookup forward with the default `rows_per_block` of 32.
    pub fn embedding_forward(b: u64, e: u64, t: u64, l: u64, d: u64) -> Self {
        KernelSpec::EmbeddingForward {
            b,
            e,
            t,
            l,
            d,
            rows_per_block: 32,
        }
    }

    /// Embedding-lookup backward (fused SGD) with `rows_per_block` of 32.
    pub fn embedding_backward(b: u64, e: u64, t: u64, l: u64, d: u64) -> Self {
        KernelSpec::EmbeddingBackward {
            b,
            e,
            t,
            l,
            d,
            rows_per_block: 32,
        }
    }

    /// The family this kernel belongs to (determines which perf model and
    /// which microbenchmark dataset applies).
    pub fn family(&self) -> KernelFamily {
        match self {
            KernelSpec::Gemm { .. } => KernelFamily::Gemm,
            KernelSpec::EmbeddingForward { .. } => KernelFamily::EmbeddingForward,
            KernelSpec::EmbeddingBackward { .. } => KernelFamily::EmbeddingBackward,
            KernelSpec::Concat { .. } => KernelFamily::Concat,
            KernelSpec::Memcpy { .. } => KernelFamily::Memcpy,
            KernelSpec::Transpose { .. } => KernelFamily::Transpose,
            KernelSpec::TrilForward { .. } => KernelFamily::TrilForward,
            KernelSpec::TrilBackward { .. } => KernelFamily::TrilBackward,
            KernelSpec::Elementwise { .. } => KernelFamily::Elementwise,
            KernelSpec::Conv2d { .. } => KernelFamily::Conv2d,
        }
    }

    /// Floating-point operation count of this kernel (FMA counted as 2).
    pub fn flops(&self) -> f64 {
        match *self {
            KernelSpec::Gemm { m, n, k, batch } => 2.0 * (m * n * k * batch) as f64,
            KernelSpec::EmbeddingForward { b, t, l, d, .. } => (b * t * l * d) as f64,
            KernelSpec::EmbeddingBackward { b, t, l, d, .. } => 2.0 * (b * t * l * d) as f64,
            KernelSpec::Concat { .. }
            | KernelSpec::Memcpy { .. }
            | KernelSpec::Transpose { .. } => 0.0,
            KernelSpec::TrilForward { batch, n } | KernelSpec::TrilBackward { batch, n } => {
                (batch * n * (n - 1) / 2) as f64
            }
            KernelSpec::Elementwise {
                elems,
                flops_per_elem,
                ..
            } => elems as f64 * flops_per_elem,
            KernelSpec::Conv2d { .. } => {
                let (m, n, k, batch) = conv::implicit_gemm_shape(self);
                2.0 * (m * n * k * batch) as f64
            }
        }
    }

    /// Total memory traffic of this kernel in bytes (reads + writes, before
    /// any cache-hit discount).
    pub fn bytes(&self) -> f64 {
        match *self {
            KernelSpec::Gemm { m, n, k, batch } => {
                4.0 * (batch * (m * k + k * n + 2 * m * n)) as f64
            }
            KernelSpec::EmbeddingForward { b, t, l, d, .. } => (4 * b * t * (l + l * d + d)) as f64,
            KernelSpec::EmbeddingBackward { b, t, l, d, .. } => {
                (4 * b * t * (l + 2 * l * d + d)) as f64
            }
            KernelSpec::Concat { bytes } => 2.0 * bytes as f64,
            KernelSpec::Memcpy { bytes, .. } => 2.0 * bytes as f64,
            KernelSpec::Transpose { batch, rows, cols } => 8.0 * (batch * rows * cols) as f64,
            KernelSpec::TrilForward { batch, n } => {
                4.0 * (batch * (n * n + n * (n - 1) / 2)) as f64
            }
            KernelSpec::TrilBackward { batch, n } => {
                4.0 * (batch * (n * n + n * (n - 1) / 2)) as f64
            }
            KernelSpec::Elementwise {
                elems,
                bytes_per_elem,
                ..
            } => elems as f64 * bytes_per_elem,
            KernelSpec::Conv2d { .. } => {
                let (m, n, k, batch) = conv::implicit_gemm_shape(self);
                4.0 * (batch * (m * k + k * n + 2 * m * n)) as f64
            }
        }
    }
}

/// Simulates the execution time of `kernel` on `device`, in microseconds.
///
/// This is the noiseless analytic ground truth; [`crate::Gpu`] layers
/// measurement noise on top.
pub fn simulate(device: &DeviceSpec, kernel: &KernelSpec) -> f64 {
    match kernel {
        KernelSpec::Gemm { .. } => gemm::simulate(device, kernel),
        KernelSpec::EmbeddingForward { .. } | KernelSpec::EmbeddingBackward { .. } => {
            embedding::simulate(device, kernel)
        }
        KernelSpec::Concat { .. } | KernelSpec::Memcpy { .. } => memory::simulate(device, kernel),
        KernelSpec::Transpose { .. } => transpose::simulate_transpose(device, kernel),
        KernelSpec::TrilForward { .. } | KernelSpec::TrilBackward { .. } => {
            transpose::simulate_tril(device, kernel)
        }
        KernelSpec::Elementwise { .. } => elementwise::simulate(device, kernel),
        KernelSpec::Conv2d { .. } => conv::simulate(device, kernel),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn families_are_distinct_per_variant() {
        let specs = [
            KernelSpec::gemm(8, 8, 8),
            KernelSpec::embedding_forward(8, 100, 2, 4, 16),
            KernelSpec::embedding_backward(8, 100, 2, 4, 16),
            KernelSpec::Concat { bytes: 64 },
            KernelSpec::memcpy_d2d(64),
            KernelSpec::Transpose {
                batch: 2,
                rows: 4,
                cols: 4,
            },
            KernelSpec::TrilForward { batch: 2, n: 4 },
            KernelSpec::TrilBackward { batch: 2, n: 4 },
            KernelSpec::Elementwise {
                elems: 10,
                flops_per_elem: 1.0,
                bytes_per_elem: 8.0,
            },
        ];
        let mut fams: Vec<_> = specs.iter().map(|s| s.family()).collect();
        fams.sort();
        fams.dedup();
        assert_eq!(fams.len(), specs.len());
    }

    #[test]
    fn gemm_flops_formula() {
        let k = KernelSpec::gemm(2, 3, 4);
        assert_eq!(k.flops(), 2.0 * 2.0 * 3.0 * 4.0);
        let b = KernelSpec::bmm(5, 2, 3, 4);
        assert_eq!(b.flops(), 5.0 * 2.0 * 3.0 * 4.0 * 2.0);
    }

    #[test]
    fn all_kernels_have_positive_time_on_all_devices() {
        let specs = [
            KernelSpec::gemm(256, 256, 256),
            KernelSpec::embedding_forward(128, 10_000, 8, 10, 64),
            KernelSpec::embedding_backward(128, 10_000, 8, 10, 64),
            KernelSpec::Concat { bytes: 1 << 20 },
            KernelSpec::memcpy_h2d(1 << 20),
            KernelSpec::Transpose {
                batch: 64,
                rows: 128,
                cols: 128,
            },
            KernelSpec::TrilForward { batch: 64, n: 27 },
            KernelSpec::TrilBackward { batch: 64, n: 27 },
            KernelSpec::Elementwise {
                elems: 1 << 16,
                flops_per_elem: 1.0,
                bytes_per_elem: 8.0,
            },
            KernelSpec::Conv2d {
                batch: 32,
                c_in: 64,
                h: 56,
                w: 56,
                c_out: 64,
                kh: 3,
                kw: 3,
                stride: 1,
                pad: 1,
            },
        ];
        for dev in DeviceSpec::paper_devices() {
            for k in &specs {
                let t = simulate(&dev, k);
                assert!(t.is_finite() && t > 0.0, "{k:?} on {} gave {t}", dev.name);
            }
        }
    }

    #[test]
    fn faster_device_is_faster_on_big_gemm() {
        let k = KernelSpec::gemm(4096, 4096, 4096);
        let v100 = simulate(&DeviceSpec::v100(), &k);
        let p100 = simulate(&DeviceSpec::p100(), &k);
        assert!(v100 < p100);
    }
}
