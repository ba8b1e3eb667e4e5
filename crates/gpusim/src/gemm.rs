//! GEMM kernel timing with tile and wave quantization.
//!
//! cuBLAS selects a tiling for each problem shape; the runtime then executes
//! `ceil(tiles / SMs)` *waves* of thread blocks. Both effects produce the
//! staircase-shaped performance surface the paper cites as the reason
//! closed-form models fail for proprietary GEMM libraries (NVIDIA's own
//! documentation on tile/wave quantization is reference \[20\] of the paper).
//!
//! This module reproduces those mechanics: a small catalog of tile shapes
//! with size-dependent efficiencies, greedy tile selection by predicted
//! time, and wave-quantized execution. The resulting surface is smooth
//! enough for an MLP to learn (≈5–9% GMAE, Table IV) but has genuine cliffs
//! that defeat naive analytic prediction.

use crate::device::DeviceSpec;
use crate::kernel::KernelSpec;

/// A candidate thread-block tile: output footprint `m × n`, with the
/// fraction of peak FP32 throughput the kernel sustains when compute-bound.
#[derive(Debug, Clone, Copy)]
pub struct Tile {
    pub m: u64,
    pub n: u64,
    /// Fraction of device peak FLOP/s one wave of this tile achieves.
    pub efficiency: f64,
}

/// The tile catalog, mirroring the common cuBLAS SGEMM tile set.
pub const TILES: &[Tile] = &[
    Tile {
        m: 256,
        n: 128,
        efficiency: 0.88,
    },
    Tile {
        m: 128,
        n: 256,
        efficiency: 0.88,
    },
    Tile {
        m: 128,
        n: 128,
        efficiency: 0.82,
    },
    Tile {
        m: 128,
        n: 64,
        efficiency: 0.72,
    },
    Tile {
        m: 64,
        n: 128,
        efficiency: 0.72,
    },
    Tile {
        m: 64,
        n: 64,
        efficiency: 0.58,
    },
    Tile {
        m: 32,
        n: 64,
        efficiency: 0.42,
    },
    Tile {
        m: 32,
        n: 32,
        efficiency: 0.28,
    },
];

/// The K-dimension is processed in slices of this many elements; partial
/// slices still pay for a full one (K quantization).
const K_QUANTUM: u64 = 32;

/// Time for one problem executed with one specific tile, in microseconds.
fn time_with_tile(device: &DeviceSpec, m: u64, n: u64, k: u64, batch: u64, tile: &Tile) -> f64 {
    let tiles_m = m.div_ceil(tile.m);
    let tiles_n = n.div_ceil(tile.n);
    let total_tiles = tiles_m * tiles_n * batch;
    let waves = total_tiles.div_ceil(device.sm_count as u64) as f64;

    let k_eff = k.div_ceil(K_QUANTUM) * K_QUANTUM;

    // Compute time of one wave: every SM runs one tile of 2*tm*tn*k flops.
    let flops_per_tile = 2.0 * (tile.m * tile.n * k_eff) as f64;
    let per_sm_flop_us = device.flop_per_us() / device.sm_count as f64 * tile.efficiency;
    let wave_compute_us = flops_per_tile / per_sm_flop_us;

    // Memory time of one wave: each tile streams its A and B panels. Panels
    // shared between tiles in a wave hit in L2; approximate by charging DRAM
    // for the unique A/B panels a wave touches and L2 for the rest.
    let active_tiles_per_wave = (total_tiles as f64 / waves).min(device.sm_count as f64);
    let panel_bytes_per_tile = 4.0 * ((tile.m + tile.n) * k_eff) as f64;
    let wave_mem_us =
        active_tiles_per_wave * panel_bytes_per_tile * 0.6 / device.dram_bytes_per_us();

    let epilogue_us = 4.0 * (m * n * batch) as f64 / device.dram_bytes_per_us();

    waves * wave_compute_us.max(wave_mem_us) + epilogue_us + device.kernel_start_us
}

/// Picks the tile cuBLAS-style (fastest predicted) and returns its time.
pub fn simulate(device: &DeviceSpec, kernel: &KernelSpec) -> f64 {
    let KernelSpec::Gemm { m, n, k, batch } = *kernel else {
        panic!("gemm::simulate called with non-GEMM kernel {kernel:?}");
    };
    assert!(
        m > 0 && n > 0 && k > 0 && batch > 0,
        "GEMM dims must be positive"
    );
    TILES
        .iter()
        .map(|t| time_with_tile(device, m, n, k, batch, t))
        .fold(f64::INFINITY, f64::min)
}

/// The tile the simulator would select for a problem (exposed for tests and
/// for the wave-quantization ablation bench).
pub fn selected_tile(device: &DeviceSpec, m: u64, n: u64, k: u64, batch: u64) -> Tile {
    *TILES
        .iter()
        .min_by(|a, b| {
            time_with_tile(device, m, n, k, batch, a)
                .total_cmp(&time_with_tile(device, m, n, k, batch, b))
        })
        .expect("tile catalog is non-empty")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monotone_in_k() {
        let d = DeviceSpec::v100();
        let t1 = simulate(&d, &KernelSpec::gemm(1024, 1024, 256));
        let t2 = simulate(&d, &KernelSpec::gemm(1024, 1024, 1024));
        assert!(t2 > t1);
    }

    #[test]
    fn wave_quantization_cliff_exists() {
        // Crossing a wave boundary should cost visibly more than staying
        // inside one: compare a shape that exactly fills waves with one that
        // spills a single extra tile row.
        let d = DeviceSpec::v100();
        let tile = selected_tile(&d, 128 * 80, 128, 4096, 1);
        let full = simulate(&d, &KernelSpec::gemm(tile.m * 80, 128, 4096));
        let spill = simulate(&d, &KernelSpec::gemm(tile.m * 80 + 1, 128, 4096));
        let ratio = spill / full;
        assert!(ratio > 1.05, "expected a wave cliff, got ratio {ratio}");
    }

    #[test]
    fn large_gemm_approaches_peak() {
        // A 4096^3 GEMM should run at a plausible fraction of peak.
        let d = DeviceSpec::v100();
        let t = simulate(&d, &KernelSpec::gemm(4096, 4096, 4096));
        let achieved_gflops = 2.0 * 4096f64.powi(3) / t / 1e3;
        assert!(
            achieved_gflops > 0.6 * d.fp32_gflops && achieved_gflops < d.fp32_gflops,
            "achieved {achieved_gflops} GFLOP/s vs peak {}",
            d.fp32_gflops
        );
    }

    #[test]
    fn small_gemm_dominated_by_launch() {
        let d = DeviceSpec::v100();
        let t = simulate(&d, &KernelSpec::gemm(8, 8, 8));
        assert!(
            t < 4.0 * d.kernel_start_us,
            "tiny GEMM should be launch-bound, got {t}"
        );
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_dim_panics() {
        simulate(&DeviceSpec::v100(), &KernelSpec::gemm(0, 8, 8));
    }
}
