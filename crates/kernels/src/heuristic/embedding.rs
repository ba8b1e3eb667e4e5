//! The paper's heuristic performance model for batched embedding-lookup
//! kernels (§III-B-1a), in both variants:
//!
//! * **Plain**: all weight-row traffic is charged to DRAM:
//!   `t = B·T·(per-warp traffic) / peak_DRAM_BW`.
//! * **Enhanced**: an analytic L2 hit-rate estimate `p` splits the weight
//!   traffic between L2 and DRAM:
//!   `t = B·T·(tr_DRAM / peak_DRAM_BW + tr_L2 / peak_L2_BW)`.
//!
//! Per-warp traffic follows the paper's accounting (32 B for table offsets,
//! 64 B for offsets, sector-quantized indices and rows), with the weight
//! term carrying the `L` lookups a warp actually performs. The hit rate is
//! the paper's occupancy argument: with `rows_per_block × #SM / B` tables
//! simultaneously resident, `avg_cached_rows_per_table = min(L2 /
//! (num_tables · 4D), E)` rows of each table fit in L2, and the probability
//! that a lookup's `L` rows are all cached is the hypergeometric ratio
//! `C(cached, L) / C(E, L)`.

use dlperf_gpusim::embedding::sectors;
use dlperf_gpusim::{DeviceSpec, KernelSpec};

/// Which variant of the embedding model to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum EmbeddingModelKind {
    /// DRAM-only traffic accounting.
    Plain,
    /// With the analytic L2 hit-rate estimate.
    Enhanced,
}

/// The heuristic embedding-lookup model, parameterized by the device's
/// benchmarked hardware constants (the paper obtains them with the
/// Konstantinidis–Cotronis microbenchmark suite).
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct EmbeddingModel {
    kind: EmbeddingModelKind,
    sm_count: f64,
    l2_size_bytes: f64,
    dram_bytes_per_us: f64,
    l2_bytes_per_us: f64,
}

impl EmbeddingModel {
    /// Builds the model for a device.
    pub fn new(device: &DeviceSpec, kind: EmbeddingModelKind) -> Self {
        EmbeddingModel {
            kind,
            sm_count: device.sm_count as f64,
            l2_size_bytes: device.l2_size_bytes as f64,
            dram_bytes_per_us: device.dram_bytes_per_us(),
            l2_bytes_per_us: device.l2_bytes_per_us(),
        }
    }

    /// The variant in use.
    pub fn kind(&self) -> EmbeddingModelKind {
        self.kind
    }

    /// Analytic L2 hit probability for the weight-row accesses.
    pub fn hit_rate(&self, b: u64, e: u64, l: u64, d: u64, rows_per_block: u64) -> f64 {
        // Number of tables with data simultaneously resident in L2.
        let num_tables = ((rows_per_block as f64 * self.sm_count) / b as f64).max(1e-9);
        let cached = (self.l2_size_bytes / (num_tables * (4 * d) as f64)).min(e as f64);
        // P(all L sampled rows are among the cached ones): C(c, L) / C(E, L).
        if cached < l as f64 {
            return 0.0;
        }
        let mut p = 1.0;
        for i in 0..l {
            p *= (cached - i as f64) / ((e - i).max(1) as f64);
        }
        p.clamp(0.0, 1.0)
    }

    /// Predicted kernel time in microseconds.
    ///
    /// # Panics
    /// Panics if `kernel` is not an embedding forward/backward spec.
    pub fn predict(&self, kernel: &KernelSpec) -> f64 {
        let (b, e, t, l, d, rpb, backward) = match *kernel {
            KernelSpec::EmbeddingForward {
                b,
                e,
                t,
                l,
                d,
                rows_per_block,
            } => (b, e, t, l, d, rows_per_block, false),
            KernelSpec::EmbeddingBackward {
                b,
                e,
                t,
                l,
                d,
                rows_per_block,
            } => (b, e, t, l, d, rows_per_block, true),
            _ => panic!("EmbeddingModel::predict called with {kernel:?}"),
        };

        // Per-warp traffic, paper accounting (bytes).
        let tr_table_offsets = 32.0;
        let tr_offsets = 64.0;
        let tr_indices = sectors(4 * l) as f64;
        let tr_outputs = sectors(4 * d) as f64;
        let tr_weights = if backward {
            sectors(2 * 4 * l * d) as f64
        } else {
            l as f64 * sectors(4 * d) as f64
        };

        let warps = (b * t) as f64;
        match self.kind {
            EmbeddingModelKind::Plain => {
                let per_warp = tr_table_offsets + tr_offsets + tr_indices + tr_outputs + tr_weights;
                warps * per_warp / self.dram_bytes_per_us
            }
            EmbeddingModelKind::Enhanced => {
                let p = self.hit_rate(b, e, l, d, rpb);
                let tr_l2 = tr_table_offsets + tr_offsets + p * tr_weights;
                let tr_dram = tr_indices + tr_outputs + (1.0 - p) * tr_weights;
                warps * (tr_dram / self.dram_bytes_per_us + tr_l2 / self.l2_bytes_per_us)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlperf_gpusim::Gpu;

    fn models() -> (EmbeddingModel, EmbeddingModel) {
        let d = DeviceSpec::v100();
        (
            EmbeddingModel::new(&d, EmbeddingModelKind::Plain),
            EmbeddingModel::new(&d, EmbeddingModelKind::Enhanced),
        )
    }

    #[test]
    fn hit_rate_limits() {
        let (_, enh) = models();
        // Tiny table: everything cached.
        assert!(enh.hit_rate(2048, 500, 10, 64, 32) > 0.95);
        // Huge table: essentially nothing cached.
        assert!(enh.hit_rate(2048, 10_000_000, 10, 64, 32) < 0.01);
    }

    #[test]
    fn plain_overestimates_small_tables() {
        // The Table IV story: without the hit-rate model, small tables (L2
        // resident on the real device) are grossly overestimated.
        let (plain, enhanced) = models();
        let gpu = Gpu::noiseless(DeviceSpec::v100());
        let k = KernelSpec::embedding_forward(2048, 1_000, 8, 10, 64);
        let truth = gpu.kernel_time_noiseless(&k);
        let p = plain.predict(&k);
        let e = enhanced.predict(&k);
        assert!(p > 2.0 * truth, "plain {p} should far exceed truth {truth}");
        assert!(
            (e - truth).abs() < (p - truth).abs(),
            "enhanced {e} must beat plain {p} vs truth {truth}"
        );
    }

    #[test]
    fn plain_accurate_for_large_tables() {
        let (plain, _) = models();
        let gpu = Gpu::noiseless(DeviceSpec::v100());
        let k = KernelSpec::embedding_forward(2048, 10_000_000, 8, 10, 64);
        let truth = gpu.kernel_time_noiseless(&k);
        let p = plain.predict(&k);
        assert!(
            ((p - truth) / truth).abs() < 0.3,
            "plain {p} vs truth {truth} for big tables"
        );
    }

    #[test]
    fn backward_exceeds_forward() {
        let (_, enh) = models();
        let f = enh.predict(&KernelSpec::embedding_forward(1024, 1_000_000, 8, 10, 64));
        let b = enh.predict(&KernelSpec::embedding_backward(1024, 1_000_000, 8, 10, 64));
        assert!(b > f);
    }

    #[test]
    #[should_panic(expected = "EmbeddingModel::predict")]
    fn wrong_kernel_panics() {
        models().0.predict(&KernelSpec::gemm(8, 8, 8));
    }
}
