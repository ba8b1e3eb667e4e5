//! Memory-movement kernels: `memcpy` (H2D / D2H / D2D) and `concat`.
//!
//! Achieved bandwidth ramps with transfer size: small copies are dominated
//! by launch latency and cannot saturate DRAM or PCIe. The ramp is the
//! classic saturating curve `bw(s) = peak · s / (s + s_half)`, which matches
//! the measured bandwidth-vs-size behaviour of real devices well enough that
//! the paper's roofline predictor (using the *corrected* peak) lands within
//! a few percent on large sizes and worse on small ones.

use crate::device::DeviceSpec;
use crate::kernel::{KernelSpec, MemcpyKind};

/// Transfer size at which DRAM copies reach half of peak bandwidth.
const DRAM_HALF_SAT_BYTES: f64 = 512.0 * 1024.0;
/// Transfer size at which PCIe copies reach half of peak bandwidth.
const PCIE_HALF_SAT_BYTES: f64 = 256.0 * 1024.0;
/// Extra host-side latency of a PCIe transfer (driver + DMA setup), in us.
const PCIE_LATENCY_US: f64 = 6.0;

/// Achieved bandwidth in bytes/us for a transfer of `bytes` with the given
/// peak (bytes/us) and half-saturation size.
pub fn ramped_bandwidth(peak_bytes_per_us: f64, bytes: f64, half_sat: f64) -> f64 {
    peak_bytes_per_us * bytes / (bytes + half_sat)
}

/// Simulates `memcpy` and `concat` kernels.
pub fn simulate(device: &DeviceSpec, kernel: &KernelSpec) -> f64 {
    match *kernel {
        KernelSpec::Memcpy { bytes, kind } => {
            let bytes = bytes as f64;
            match kind {
                MemcpyKind::HostToDevice | MemcpyKind::DeviceToHost => {
                    let bw =
                        ramped_bandwidth(device.pcie_bytes_per_us(), bytes, PCIE_HALF_SAT_BYTES);
                    bytes / bw.max(1e-9) + PCIE_LATENCY_US
                }
                MemcpyKind::DeviceToDevice => {
                    // Read + write both traverse DRAM.
                    let traffic = 2.0 * bytes;
                    let bw =
                        ramped_bandwidth(device.dram_bytes_per_us(), traffic, DRAM_HALF_SAT_BYTES);
                    traffic / bw.max(1e-9) + device.kernel_start_us
                }
            }
        }
        KernelSpec::Concat { bytes } => {
            // Concat reads every source element and writes it once; slightly
            // less efficient than a flat copy because of uncoalesced edges.
            let traffic = 2.0 * bytes as f64;
            let bw =
                0.92 * ramped_bandwidth(device.dram_bytes_per_us(), traffic, DRAM_HALF_SAT_BYTES);
            traffic / bw.max(1e-9) + device.kernel_start_us
        }
        _ => panic!("memory::simulate called with {kernel:?}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ramp_saturates() {
        let peak = 1000.0;
        let small = ramped_bandwidth(peak, 1024.0, DRAM_HALF_SAT_BYTES);
        let large = ramped_bandwidth(peak, 1e9, DRAM_HALF_SAT_BYTES);
        assert!(small < 0.01 * peak);
        assert!(large > 0.99 * peak);
    }

    #[test]
    fn h2d_slower_than_d2d() {
        let d = DeviceSpec::v100();
        let h2d = simulate(&d, &KernelSpec::memcpy_h2d(16 << 20));
        let d2d = simulate(&d, &KernelSpec::memcpy_d2d(16 << 20));
        assert!(h2d > d2d, "PCIe copy should be slower: {h2d} vs {d2d}");
    }

    #[test]
    fn large_d2d_achieves_near_peak() {
        let d = DeviceSpec::v100();
        let bytes = 256u64 << 20;
        let t = simulate(&d, &KernelSpec::memcpy_d2d(bytes));
        let achieved = 2.0 * bytes as f64 / t; // bytes/us
        assert!(achieved > 0.9 * d.dram_bytes_per_us());
    }

    #[test]
    fn concat_slightly_slower_than_copy() {
        let d = DeviceSpec::p100();
        let c = simulate(&d, &KernelSpec::Concat { bytes: 8 << 20 });
        let m = simulate(&d, &KernelSpec::memcpy_d2d(8 << 20));
        assert!(c > m);
        assert!(c < 1.3 * m);
    }
}
