//! Element-wise kernels (`relu`, `sigmoid`, losses, optimizer updates, ...).
//!
//! These follow the roofline: the kernel is memory-bound unless the per-
//! element arithmetic intensity is very high. On top of the roofline the
//! simulator applies the same size-dependent bandwidth ramp as plain copies
//! plus a fixed launch floor — the two effects that make the paper treat
//! trivial ops as non-negligible (≈5% of E2E time in aggregate).

use crate::device::DeviceSpec;
use crate::kernel::KernelSpec;
use crate::memory::ramped_bandwidth;

/// Half-saturation size for element-wise kernels; slightly larger than flat
/// copies because addressing logic eats into bandwidth at small sizes.
const HALF_SAT_BYTES: f64 = 640.0 * 1024.0;

/// Fraction of peak FP32 throughput element-wise kernels sustain (no FMA
/// dual-issue, transcendental units for sigmoid, ...).
const COMPUTE_EFFICIENCY: f64 = 0.45;

/// Simulates a generic element-wise kernel.
pub fn simulate(device: &DeviceSpec, kernel: &KernelSpec) -> f64 {
    let KernelSpec::Elementwise {
        elems,
        flops_per_elem,
        bytes_per_elem,
    } = *kernel
    else {
        panic!("elementwise::simulate called with {kernel:?}");
    };
    assert!(elems > 0, "element-wise kernel needs at least one element");
    let bytes = elems as f64 * bytes_per_elem;
    let flops = elems as f64 * flops_per_elem;

    let bw = ramped_bandwidth(device.dram_bytes_per_us(), bytes, HALF_SAT_BYTES);
    let t_mem = bytes / bw.max(1e-9);
    let t_compute = flops / (device.flop_per_us() * COMPUTE_EFFICIENCY);

    t_mem.max(t_compute) + device.kernel_start_us
}

#[cfg(test)]
mod tests {
    use super::*;

    fn relu(elems: u64) -> KernelSpec {
        KernelSpec::Elementwise {
            elems,
            flops_per_elem: 1.0,
            bytes_per_elem: 8.0,
        }
    }

    #[test]
    fn memory_bound_for_low_intensity() {
        let d = DeviceSpec::v100();
        // 64 MB of traffic, 1 flop/elem: memory must dominate.
        let k = relu(8 << 20);
        let t = simulate(&d, &k);
        let t_mem_ideal = (8 << 20) as f64 * 8.0 / d.dram_bytes_per_us();
        assert!(t > t_mem_ideal);
        assert!(t < 1.5 * t_mem_ideal + d.kernel_start_us * 2.0);
    }

    #[test]
    fn compute_bound_for_high_intensity() {
        let d = DeviceSpec::v100();
        let k = KernelSpec::Elementwise {
            elems: 1 << 20,
            flops_per_elem: 5000.0,
            bytes_per_elem: 8.0,
        };
        let t = simulate(&d, &k);
        let t_compute = (1u64 << 20) as f64 * 5000.0 / (d.flop_per_us() * COMPUTE_EFFICIENCY);
        assert!((t - t_compute - d.kernel_start_us).abs() / t < 0.05);
    }

    #[test]
    fn launch_floor_dominates_tiny_kernels() {
        let d = DeviceSpec::titan_xp();
        let t = simulate(&d, &relu(16));
        assert!(t >= d.kernel_start_us);
        assert!(t < 2.0 * d.kernel_start_us);
    }

    #[test]
    fn monotone_in_elems() {
        let d = DeviceSpec::p100();
        let mut prev = 0.0;
        for shift in 10..24 {
            let t = simulate(&d, &relu(1 << shift));
            assert!(t >= prev);
            prev = t;
        }
    }
}
