//! Device specifications for the GPUs evaluated in the paper.
//!
//! The catalog carries the published hardware parameters of the three GPUs
//! the paper benchmarks (Tesla V100, Tesla P100, GeForce GTX TITAN Xp). The
//! paper obtains the corresponding parameters of the real devices with the
//! micro-benchmark suite of Konstantinidis & Cotronis; here they are fixed
//! constants of the simulator.

use serde::{Deserialize, Serialize};

/// Static hardware parameters of a simulated GPU.
///
/// Bandwidths are in GB/s, clocks in MHz, capacities in bytes, and compute
/// throughput in GFLOP/s (FP32 FMA counted as two operations).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeviceSpec {
    /// Marketing name, e.g. `"Tesla V100"`.
    pub name: String,
    /// Number of streaming multiprocessors.
    pub sm_count: u32,
    /// Peak single-precision throughput in GFLOP/s.
    pub fp32_gflops: f64,
    /// Peak DRAM bandwidth in GB/s.
    pub dram_bw_gbs: f64,
    /// Achievable fraction of peak DRAM bandwidth for large streaming
    /// transfers (STREAM-like efficiency, typically 0.75–0.88).
    pub dram_efficiency: f64,
    /// L2 cache capacity in bytes.
    pub l2_size_bytes: u64,
    /// Peak L2 cache bandwidth in GB/s.
    pub l2_bw_gbs: f64,
    /// Host-device interconnect (PCIe) bandwidth in GB/s.
    pub pcie_bw_gbs: f64,
    /// Fixed device-side cost of starting any kernel, in microseconds. This
    /// is the on-device ramp (block scheduling, not the host-side
    /// `cudaLaunchKernel` overhead, which `dlperf-trace` models as T4).
    pub kernel_start_us: f64,
    /// SM core clock in MHz (used for per-SM issue-rate derivations).
    pub core_clock_mhz: f64,
    /// Device memory capacity in bytes.
    pub memory_bytes: u64,
    /// Per-direction inter-GPU interconnect bandwidth in GB/s (NVLink for
    /// the Teslas, PCIe for the TITAN Xp).
    pub interconnect_bw_gbs: f64,
    /// Per-hop interconnect latency in microseconds.
    pub interconnect_latency_us: f64,
}

impl DeviceSpec {
    /// NVIDIA Tesla V100 (SXM2 16GB): 80 SMs, HBM2.
    pub fn v100() -> Self {
        DeviceSpec {
            name: "Tesla V100".to_string(),
            sm_count: 80,
            fp32_gflops: 15_700.0,
            dram_bw_gbs: 900.0,
            dram_efficiency: 0.84,
            l2_size_bytes: 6 * 1024 * 1024,
            l2_bw_gbs: 2_155.0,
            pcie_bw_gbs: 12.0,
            kernel_start_us: 1.6,
            core_clock_mhz: 1380.0,
            memory_bytes: 16 * 1024 * 1024 * 1024,
            interconnect_bw_gbs: 130.0, // NVLink 2.0
            interconnect_latency_us: 5.0,
        }
    }

    /// NVIDIA Tesla P100 (PCIe 16GB): 56 SMs, HBM2.
    pub fn p100() -> Self {
        DeviceSpec {
            name: "Tesla P100".to_string(),
            sm_count: 56,
            fp32_gflops: 9_300.0,
            dram_bw_gbs: 732.0,
            dram_efficiency: 0.78,
            l2_size_bytes: 4 * 1024 * 1024,
            l2_bw_gbs: 1_624.0,
            pcie_bw_gbs: 12.0,
            kernel_start_us: 1.9,
            core_clock_mhz: 1303.0,
            memory_bytes: 16 * 1024 * 1024 * 1024,
            interconnect_bw_gbs: 64.0, // NVLink 1.0
            interconnect_latency_us: 6.0,
        }
    }

    /// NVIDIA GeForce GTX TITAN Xp: 30 SMs (GP102), GDDR5X.
    pub fn titan_xp() -> Self {
        DeviceSpec {
            name: "TITAN Xp".to_string(),
            sm_count: 30,
            fp32_gflops: 12_150.0,
            dram_bw_gbs: 547.6,
            dram_efficiency: 0.74,
            l2_size_bytes: 3 * 1024 * 1024,
            l2_bw_gbs: 1_400.0,
            pcie_bw_gbs: 12.0,
            kernel_start_us: 2.1,
            core_clock_mhz: 1582.0,
            memory_bytes: 12 * 1024 * 1024 * 1024,
            interconnect_bw_gbs: 11.0, // PCIe peer-to-peer
            interconnect_latency_us: 9.0,
        }
    }

    /// NVIDIA A100 (SXM4 40GB): the "how much do we gain with new GPUs"
    /// what-if target of the paper's introduction (question 2).
    pub fn a100() -> Self {
        DeviceSpec {
            name: "A100".to_string(),
            sm_count: 108,
            fp32_gflops: 19_500.0,
            dram_bw_gbs: 1_555.0,
            dram_efficiency: 0.86,
            l2_size_bytes: 40 * 1024 * 1024,
            l2_bw_gbs: 4_500.0,
            pcie_bw_gbs: 24.0,
            kernel_start_us: 1.4,
            core_clock_mhz: 1410.0,
            memory_bytes: 40 * 1024 * 1024 * 1024,
            interconnect_bw_gbs: 300.0, // NVLink 3.0
            interconnect_latency_us: 4.0,
        }
    }

    /// NVIDIA T4: a small inference-class device.
    pub fn t4() -> Self {
        DeviceSpec {
            name: "T4".to_string(),
            sm_count: 40,
            fp32_gflops: 8_100.0,
            dram_bw_gbs: 320.0,
            dram_efficiency: 0.78,
            l2_size_bytes: 4 * 1024 * 1024,
            l2_bw_gbs: 1_100.0,
            pcie_bw_gbs: 12.0,
            kernel_start_us: 2.0,
            core_clock_mhz: 1590.0,
            memory_bytes: 16 * 1024 * 1024 * 1024,
            interconnect_bw_gbs: 11.0,
            interconnect_latency_us: 9.0,
        }
    }

    /// The three devices evaluated in the paper, in the order the paper's
    /// tables present them (V100, TITAN Xp, P100).
    pub fn paper_devices() -> Vec<DeviceSpec> {
        vec![Self::v100(), Self::titan_xp(), Self::p100()]
    }

    /// Looks a paper device up by (case-insensitive) name fragment.
    ///
    /// Accepts `"v100"`, `"p100"`, `"titan"`/`"titan xp"`/`"xp"`.
    pub fn by_name(name: &str) -> Option<DeviceSpec> {
        let lower = name.to_ascii_lowercase();
        if lower.contains("v100") {
            Some(Self::v100())
        } else if lower.contains("p100") {
            Some(Self::p100())
        } else if lower.contains("titan") || lower.contains("xp") {
            Some(Self::titan_xp())
        } else if lower.contains("a100") {
            Some(Self::a100())
        } else if lower.contains("t4") {
            Some(Self::t4())
        } else {
            None
        }
    }

    /// Effective sustained DRAM bandwidth in bytes/us (= GB/s × efficiency ×
    /// 1e3 bytes-per-us conversion).
    pub fn dram_bytes_per_us(&self) -> f64 {
        self.dram_bw_gbs * self.dram_efficiency * 1e3
    }

    /// Peak L2 bandwidth in bytes/us.
    pub fn l2_bytes_per_us(&self) -> f64 {
        self.l2_bw_gbs * 1e3
    }

    /// Peak FP32 throughput in FLOP/us.
    pub fn flop_per_us(&self) -> f64 {
        self.fp32_gflops * 1e3
    }

    /// PCIe bandwidth in bytes/us.
    pub fn pcie_bytes_per_us(&self) -> f64 {
        self.pcie_bw_gbs * 1e3
    }

    /// The device's GPU-to-GPU link as an α–β [`crate::interconnect::LinkSpec`].
    pub fn link(&self) -> crate::interconnect::LinkSpec {
        crate::interconnect::LinkSpec::of(self)
    }

    /// Whether the device's peer link is NVLink-class (direct mesh links)
    /// rather than PCIe-class (peer traffic through switches and the root
    /// complex). The catalog's NVLink parts all sit well above 50 GB/s and
    /// its PCIe parts well below, so the threshold classifies every known
    /// device correctly and errs toward the congested (tree) shape for
    /// unknown mid-range links — degraded, not wrong.
    pub fn has_nvlink(&self) -> bool {
        self.interconnect_bw_gbs >= 50.0
    }

    /// A hypothetical variant with DRAM bandwidth scaled by `factor`
    /// (§V-A style "what if memory were faster" questions). The name is
    /// suffixed so sweep labels stay distinguishable.
    ///
    /// # Panics
    /// Panics if `factor` is not finite and positive.
    pub fn scaled_dram(&self, factor: f64) -> DeviceSpec {
        assert!(
            factor.is_finite() && factor > 0.0,
            "bad DRAM scale {factor}"
        );
        let mut d = self.clone();
        d.dram_bw_gbs *= factor;
        d.name = format!("{} (dram x{factor})", self.name);
        d
    }

    /// A hypothetical variant with FP32 throughput scaled by `factor`.
    ///
    /// # Panics
    /// Panics if `factor` is not finite and positive.
    pub fn scaled_compute(&self, factor: f64) -> DeviceSpec {
        assert!(
            factor.is_finite() && factor > 0.0,
            "bad compute scale {factor}"
        );
        let mut d = self.clone();
        d.fp32_gflops *= factor;
        d.name = format!("{} (fp32 x{factor})", self.name);
        d
    }

    /// The device axis of a what-if sweep: every paper device plus, for
    /// each listed scale factor, DRAM- and compute-scaled variants of this
    /// device. Enumeration order is deterministic (paper devices first,
    /// then scales in the given order, DRAM before compute).
    pub fn whatif_grid(&self, scales: &[f64]) -> Vec<DeviceSpec> {
        let mut grid = Self::paper_devices();
        for &s in scales {
            grid.push(self.scaled_dram(s));
            grid.push(self.scaled_compute(s));
        }
        grid
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_is_ordered_by_compute() {
        let v100 = DeviceSpec::v100();
        let p100 = DeviceSpec::p100();
        let xp = DeviceSpec::titan_xp();
        assert!(v100.fp32_gflops > xp.fp32_gflops);
        assert!(xp.fp32_gflops > p100.fp32_gflops);
        assert!(v100.dram_bw_gbs > p100.dram_bw_gbs);
        assert!(p100.dram_bw_gbs > xp.dram_bw_gbs);
    }

    #[test]
    fn lookup_by_name() {
        assert_eq!(DeviceSpec::by_name("Tesla V100").unwrap().sm_count, 80);
        assert_eq!(DeviceSpec::by_name("titan xp").unwrap().sm_count, 30);
        assert_eq!(DeviceSpec::by_name("p100").unwrap().sm_count, 56);
        assert_eq!(DeviceSpec::by_name("a100").unwrap().sm_count, 108);
        assert_eq!(DeviceSpec::by_name("t4").unwrap().sm_count, 40);
        assert!(DeviceSpec::by_name("mi300").is_none());
    }

    #[test]
    fn unit_conversions() {
        let v = DeviceSpec::v100();
        assert!((v.flop_per_us() - 15_700_000.0).abs() < 1.0);
        // 900 GB/s * 0.84 = 756 GB/s = 756_000 bytes/us.
        assert!((v.dram_bytes_per_us() - 756_000.0).abs() < 1.0);
    }

    #[test]
    fn serde_roundtrip() {
        let v = DeviceSpec::v100();
        let s = serde_json::to_string(&v).unwrap();
        let back: DeviceSpec = serde_json::from_str(&s).unwrap();
        assert_eq!(v, back);
    }

    #[test]
    fn whatif_grid_scales_and_labels() {
        let v = DeviceSpec::v100();
        let grid = v.whatif_grid(&[2.0]);
        assert_eq!(grid.len(), DeviceSpec::paper_devices().len() + 2);
        let dram = &grid[grid.len() - 2];
        let comp = &grid[grid.len() - 1];
        assert!((dram.dram_bw_gbs - 2.0 * v.dram_bw_gbs).abs() < 1e-9);
        assert_eq!(dram.fp32_gflops, v.fp32_gflops);
        assert!((comp.fp32_gflops - 2.0 * v.fp32_gflops).abs() < 1e-9);
        assert_eq!(comp.dram_bw_gbs, v.dram_bw_gbs);
        assert_ne!(dram.name, comp.name);
        assert_eq!(grid, v.whatif_grid(&[2.0]), "enumeration is deterministic");
    }
}
