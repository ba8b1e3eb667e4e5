//! Batched matrix transpose and `tril` (lower-triangular extraction)
//! kernels.
//!
//! The paper models both with MLPs because their JIT-generated
//! implementations are opaque and their performance depends on alignment in
//! non-obvious ways. The simulator reproduces that character: achieved
//! bandwidth depends on how the inner dimension aligns with 32-element
//! sectors and shared-memory banks, producing a piecewise surface that is
//! awkward for closed forms but learnable by an MLP.

use crate::device::DeviceSpec;
use crate::kernel::KernelSpec;
use crate::memory::ramped_bandwidth;

const HALF_SAT_BYTES: f64 = 512.0 * 1024.0;

/// Alignment-dependent efficiency of strided global-memory access with an
/// inner dimension of `cols` FP32 elements.
pub fn alignment_efficiency(cols: u64) -> f64 {
    if cols.is_multiple_of(32) {
        0.90
    } else if cols.is_multiple_of(16) {
        0.78
    } else if cols.is_multiple_of(8) {
        0.66
    } else if cols.is_multiple_of(4) {
        0.52
    } else {
        0.38
    }
}

/// Simulates the batched `rows × cols` transpose of `batch` matrices.
pub fn simulate_transpose(device: &DeviceSpec, kernel: &KernelSpec) -> f64 {
    let KernelSpec::Transpose { batch, rows, cols } = *kernel else {
        panic!("simulate_transpose called with {kernel:?}");
    };
    assert!(
        batch > 0 && rows > 0 && cols > 0,
        "transpose dims must be positive"
    );
    let traffic = 8.0 * (batch * rows * cols) as f64; // read + write, FP32
    let eff = alignment_efficiency(cols).min(alignment_efficiency(rows) + 0.12);
    let bw = eff * ramped_bandwidth(device.dram_bytes_per_us(), traffic, HALF_SAT_BYTES);
    traffic / bw.max(1e-9) + device.kernel_start_us
}

/// Simulates the `tril` forward (gather) and backward (scatter) kernels used
/// by DLRM's feature interaction.
pub fn simulate_tril(device: &DeviceSpec, kernel: &KernelSpec) -> f64 {
    let (batch, n, backward) = match *kernel {
        KernelSpec::TrilForward { batch, n } => (batch, n, false),
        KernelSpec::TrilBackward { batch, n } => (batch, n, true),
        _ => panic!("simulate_tril called with {kernel:?}"),
    };
    assert!(batch > 0 && n > 1, "tril needs batch > 0 and n > 1");
    let tri = n * (n - 1) / 2;
    // Forward reads the full matrix, writes the triangle; backward reads the
    // triangle gradient and scatters into a zeroed full matrix.
    let traffic = 4.0 * (batch * (n * n + tri)) as f64;
    // Row-length-dependent coalescing: rows of the triangle have ragged
    // lengths, so efficiency degrades for small n and odd alignments.
    let base_eff =
        alignment_efficiency(n).max(0.45) * (0.55 + 0.45 * (n as f64 / (n as f64 + 24.0)));
    let eff = if backward { base_eff * 0.8 } else { base_eff };
    let bw = eff * ramped_bandwidth(device.dram_bytes_per_us(), traffic, HALF_SAT_BYTES);
    traffic / bw.max(1e-9) + device.kernel_start_us
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aligned_transpose_faster_than_misaligned() {
        let d = DeviceSpec::v100();
        let aligned = simulate_transpose(
            &d,
            &KernelSpec::Transpose {
                batch: 256,
                rows: 128,
                cols: 128,
            },
        );
        let odd = simulate_transpose(
            &d,
            &KernelSpec::Transpose {
                batch: 256,
                rows: 128,
                cols: 127,
            },
        );
        // Slightly less data but visibly slower per byte.
        let aligned_per_byte = aligned / (128.0 * 128.0);
        let odd_per_byte = odd / (128.0 * 127.0);
        assert!(odd_per_byte > 1.1 * aligned_per_byte);
    }

    #[test]
    fn tril_backward_slower_than_forward() {
        let d = DeviceSpec::p100();
        let f = simulate_tril(&d, &KernelSpec::TrilForward { batch: 2048, n: 27 });
        let b = simulate_tril(&d, &KernelSpec::TrilBackward { batch: 2048, n: 27 });
        assert!(b > f);
    }

    #[test]
    fn alignment_efficiency_tiers() {
        assert_eq!(alignment_efficiency(64), 0.90);
        assert_eq!(alignment_efficiency(48), 0.78);
        assert_eq!(alignment_efficiency(24), 0.66);
        assert_eq!(alignment_efficiency(12), 0.52);
        assert_eq!(alignment_efficiency(7), 0.38);
    }

    #[test]
    #[should_panic(expected = "n > 1")]
    fn tril_n1_panics() {
        simulate_tril(
            &DeviceSpec::v100(),
            &KernelSpec::TrilForward { batch: 4, n: 1 },
        );
    }
}
