//! Batched embedding-lookup kernel timing with an L2 reuse model.
//!
//! The ground truth here models two locality effects the paper's *plain*
//! heuristic model ignores (and its *enhanced* model approximates):
//!
//! 1. **Residency**: small tables stay resident in L2 across the batch, so
//!    most weight-row reads hit.
//! 2. **Within-batch reuse**: with `B·L` lookups into `E` rows, the expected
//!    number of distinct rows is `E·(1 − e^(−B·L/E))`; repeated touches hit
//!    if the distinct working set fits in L2.
//!
//! The plain model therefore overestimates small-table kernels by a large
//! factor (Table IV: EL-F GMAE ≈ 11% overall but ≈ 7% restricted to tables
//! with more than 100 k rows), which is exactly the shape this simulator
//! reproduces.

use crate::device::DeviceSpec;
use crate::kernel::KernelSpec;

/// Memory sector size: global-memory transactions round up to 32 bytes.
pub const SECTOR_BYTES: u64 = 32;

/// Rounds a byte count up to whole 32-byte sectors.
pub fn sectors(bytes: u64) -> u64 {
    bytes.div_ceil(SECTOR_BYTES) * SECTOR_BYTES
}

/// Fraction of L2 effectively usable by embedding rows (the rest holds
/// offsets, indices, and other streams).
const L2_USABLE: f64 = 0.8;

/// Ground-truth L2 hit probability for weight-row reads.
pub fn hit_rate(device: &DeviceSpec, b: u64, e: u64, t: u64, l: u64, d: u64) -> f64 {
    let row_bytes = (d * 4) as f64;
    let l2 = L2_USABLE * device.l2_size_bytes as f64;

    // Residency of the whole working set (all tables) in L2.
    let total_bytes = (t * e) as f64 * row_bytes;
    let p_resident = (l2 / total_bytes).min(1.0);

    // Within-batch temporal reuse.
    let accesses = (b * l) as f64;
    let lam = accesses / e as f64;
    let distinct = e as f64 * (1.0 - (-lam).exp());
    let reuse_frac = (1.0 - distinct / accesses).max(0.0);
    // Reused rows only hit if the distinct set (per concurrent table slice)
    // fits; tables are processed together so charge all T of them.
    let fit = (l2 / (distinct * row_bytes * t as f64)).min(1.0);

    (p_resident + (1.0 - p_resident) * reuse_frac * fit).clamp(0.0, 0.98)
}

/// Simulates the forward or backward batched embedding-lookup kernel.
pub fn simulate(device: &DeviceSpec, kernel: &KernelSpec) -> f64 {
    let (b, e, t, l, d, backward) = match *kernel {
        KernelSpec::EmbeddingForward { b, e, t, l, d, .. } => (b, e, t, l, d, false),
        KernelSpec::EmbeddingBackward { b, e, t, l, d, .. } => (b, e, t, l, d, true),
        _ => panic!("embedding::simulate called with {kernel:?}"),
    };
    assert!(
        b > 0 && e > 0 && t > 0 && l > 0 && d > 0,
        "embedding dims must be positive"
    );

    let warps = (b * t) as f64;
    let row = sectors(4 * d) as f64;

    // Per-warp traffic (physical accounting; unlike the paper's predictor,
    // the weight term carries the L factor in both directions).
    let tr_offsets = (32 + 64) as f64;
    let tr_indices = sectors(4 * l) as f64;
    let tr_weights = if backward {
        2.0 * l as f64 * row
    } else {
        l as f64 * row
    };
    let tr_outputs = if backward {
        // Backward reads the incoming gradient row instead of writing output.
        row
    } else {
        row
    };

    let p = hit_rate(device, b, e, t, l, d);

    let l2_bytes = warps * (tr_offsets + p * tr_weights);
    let dram_bytes = warps * (tr_indices + tr_outputs + (1.0 - p) * tr_weights);

    // Atomic-update contention in the backward pass when many lookups
    // collide on few rows.
    let contention = if backward {
        1.0 + 0.35 * ((b * l) as f64 / e as f64).min(64.0) / 64.0
    } else {
        1.0
    };

    let mem_us = dram_bytes / device.dram_bytes_per_us() + l2_bytes / device.l2_bytes_per_us();

    // Warp-issue floor: each warp needs a minimum number of issue slots even
    // when all data hits in cache (subordinate to the L2 bandwidth bound).
    let issue_us = warps * l as f64 * 2.5e-5 / device.sm_count as f64 * 80.0;

    mem_us.max(issue_us) * contention + device.kernel_start_us
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v100() -> DeviceSpec {
        DeviceSpec::v100()
    }

    #[test]
    fn sector_rounding() {
        assert_eq!(sectors(1), 32);
        assert_eq!(sectors(32), 32);
        assert_eq!(sectors(33), 64);
        assert_eq!(sectors(256), 256);
    }

    #[test]
    fn small_tables_hit_in_l2() {
        let p = hit_rate(&v100(), 2048, 1_000, 8, 10, 64);
        assert!(p > 0.9, "small tables should be L2 resident, p = {p}");
    }

    #[test]
    fn huge_tables_miss() {
        let p = hit_rate(&v100(), 2048, 10_000_000, 8, 10, 64);
        assert!(p < 0.15, "10M-row tables should mostly miss, p = {p}");
    }

    #[test]
    fn hit_rate_monotone_decreasing_in_table_size() {
        let d = v100();
        let mut prev = f64::INFINITY;
        for e in [1_000u64, 10_000, 100_000, 1_000_000, 10_000_000] {
            let p = hit_rate(&d, 1024, e, 8, 10, 64);
            assert!(p <= prev + 1e-12, "hit rate should not increase with E");
            prev = p;
        }
    }

    #[test]
    fn backward_slower_than_forward() {
        let d = v100();
        let f = simulate(
            &d,
            &KernelSpec::embedding_forward(2048, 1_000_000, 8, 10, 64),
        );
        let b = simulate(
            &d,
            &KernelSpec::embedding_backward(2048, 1_000_000, 8, 10, 64),
        );
        assert!(b > f);
    }

    #[test]
    fn big_table_time_close_to_dram_bound() {
        // For E = 10M the paper's plain DRAM-only model should be close to
        // the simulator: verify the simulator agrees within ~25%.
        let d = v100();
        let (b, e, t, l, dim) = (2048u64, 10_000_000u64, 8u64, 10u64, 64u64);
        let sim = simulate(&d, &KernelSpec::embedding_forward(b, e, t, l, dim));
        let per_warp = (32 + 64 + sectors(4 * l) + sectors(4 * dim)) as f64
            + l as f64 * sectors(4 * dim) as f64;
        let plain = (b * t) as f64 * per_warp / d.dram_bytes_per_us() + d.kernel_start_us;
        let rel = (sim - plain).abs() / plain;
        assert!(rel < 0.25, "sim {sim} vs plain-physical {plain}, rel {rel}");
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_batch_panics() {
        simulate(&v100(), &KernelSpec::embedding_forward(0, 10, 1, 1, 4));
    }
}
