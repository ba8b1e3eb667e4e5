//! Roofline models for element-wise, concat, and memcpy kernels
//! (§III-B-1b): `t = max(FLOP / peak_throughput, bytes / peak_BW)`, with
//! two corrections calibrated from microbenchmark data, as the paper does
//! ("we use the maximum measured bandwidth of the benchmark as the
//! corrected peak bandwidth"):
//!
//! * the *corrected peak bandwidth* — the maximum bandwidth any measured
//!   sample achieved, per memory domain (device memory vs PCIe);
//! * a *latency floor* — the fastest measured sample per domain, which is
//!   what a launch-dominated small kernel costs.

use dlperf_gpusim::{DeviceSpec, KernelSpec, MemcpyKind};

/// A calibrated roofline model for memory-movement and element-wise kernels.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct RooflineModel {
    peak_flop_per_us: f64,
    /// Corrected device-memory bandwidth (bytes/µs).
    dram_bytes_per_us: f64,
    /// Corrected host-device bandwidth (bytes/µs).
    pcie_bytes_per_us: f64,
    /// Latency floor for device-memory kernels (µs).
    dram_latency_us: f64,
    /// Latency floor for host-device transfers (µs).
    pcie_latency_us: f64,
}

impl RooflineModel {
    /// Builds an uncalibrated model from datasheet numbers (corrected
    /// bandwidth defaults to the datasheet peak, latency floors to zero).
    pub fn from_datasheet(device: &DeviceSpec) -> Self {
        RooflineModel {
            peak_flop_per_us: device.flop_per_us(),
            dram_bytes_per_us: device.dram_bw_gbs * 1e3,
            pcie_bytes_per_us: device.pcie_bytes_per_us(),
            dram_latency_us: 0.0,
            pcie_latency_us: 0.0,
        }
    }

    /// Calibrates corrected peak bandwidths (maximum achieved) and latency
    /// floors (minimum sample time) from measured `(kernel, time µs)`
    /// samples, per memory domain. Samples of non-memory families are
    /// ignored.
    pub fn calibrate(device: &DeviceSpec, samples: &[(KernelSpec, f64)]) -> Self {
        let mut model = Self::from_datasheet(device);
        let (mut best_dram, mut best_pcie) = (0.0f64, 0.0f64);
        let (mut lat_dram, mut lat_pcie) = (f64::INFINITY, f64::INFINITY);
        for (k, t) in samples {
            if *t <= 0.0 {
                continue;
            }
            let bw = k.bytes() / t;
            match k {
                KernelSpec::Memcpy {
                    kind: MemcpyKind::HostToDevice | MemcpyKind::DeviceToHost,
                    ..
                } => {
                    best_pcie = best_pcie.max(bw);
                    lat_pcie = lat_pcie.min(*t);
                }
                KernelSpec::Memcpy { .. }
                | KernelSpec::Concat { .. }
                | KernelSpec::Elementwise { .. } => {
                    best_dram = best_dram.max(bw);
                    lat_dram = lat_dram.min(*t);
                }
                _ => {}
            }
        }
        if best_dram > 0.0 {
            model.dram_bytes_per_us = best_dram;
            model.dram_latency_us = lat_dram;
        }
        if best_pcie > 0.0 {
            model.pcie_bytes_per_us = best_pcie;
            model.pcie_latency_us = lat_pcie;
        }
        model
    }

    /// The corrected device-memory bandwidth in bytes/µs.
    pub fn corrected_dram_bytes_per_us(&self) -> f64 {
        self.dram_bytes_per_us
    }

    /// The calibrated device-memory latency floor in µs.
    pub fn dram_latency_us(&self) -> f64 {
        self.dram_latency_us
    }

    /// Predicted kernel time in microseconds.
    ///
    /// # Panics
    /// Panics if `kernel` is not a memory-movement or element-wise spec.
    pub fn predict(&self, kernel: &KernelSpec) -> f64 {
        match kernel {
            KernelSpec::Elementwise { .. } | KernelSpec::Concat { .. } => {
                let t_mem = kernel.bytes() / self.dram_bytes_per_us;
                let t_compute = kernel.flops() / self.peak_flop_per_us;
                t_mem.max(t_compute) + self.dram_latency_us
            }
            KernelSpec::Memcpy { kind, .. } => {
                let (bw, lat) = match kind {
                    MemcpyKind::HostToDevice | MemcpyKind::DeviceToHost => {
                        (self.pcie_bytes_per_us, self.pcie_latency_us)
                    }
                    MemcpyKind::DeviceToDevice => (self.dram_bytes_per_us, self.dram_latency_us),
                };
                kernel.bytes() / bw + lat
            }
            _ => panic!("RooflineModel::predict called with {kernel:?}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlperf_gpusim::Gpu;

    fn calibrated(dev: &DeviceSpec) -> RooflineModel {
        let gpu = Gpu::noiseless(dev.clone());
        let mut samples = Vec::new();
        for s in 10..28 {
            for mk in [
                KernelSpec::memcpy_d2d(1 << s),
                KernelSpec::memcpy_h2d(1 << s),
            ] {
                let t = gpu.kernel_time_noiseless(&mk);
                samples.push((mk, t));
            }
            let c = KernelSpec::Concat { bytes: 1 << s };
            let t = gpu.kernel_time_noiseless(&c);
            samples.push((c, t));
        }
        RooflineModel::calibrate(dev, &samples)
    }

    #[test]
    fn calibration_uses_max_measured_bandwidth() {
        let dev = DeviceSpec::v100();
        let m = calibrated(&dev);
        assert!(m.corrected_dram_bytes_per_us() < dev.dram_bw_gbs * 1e3);
        assert!(m.corrected_dram_bytes_per_us() > 0.6 * dev.dram_bw_gbs * 1e3);
        assert!(m.dram_latency_us() > 0.0);
    }

    #[test]
    fn large_copies_predicted_accurately() {
        let dev = DeviceSpec::p100();
        let gpu = Gpu::noiseless(dev.clone());
        let m = calibrated(&dev);
        let k = KernelSpec::memcpy_d2d(32 << 20);
        let truth = gpu.kernel_time_noiseless(&k);
        let pred = m.predict(&k);
        assert!(
            ((pred - truth) / truth).abs() < 0.15,
            "pred {pred} vs {truth}"
        );
    }

    #[test]
    fn small_copies_hit_latency_floor() {
        let dev = DeviceSpec::v100();
        let gpu = Gpu::noiseless(dev.clone());
        let m = calibrated(&dev);
        for k in [KernelSpec::memcpy_d2d(1024), KernelSpec::memcpy_h2d(1024)] {
            let truth = gpu.kernel_time_noiseless(&k);
            let pred = m.predict(&k);
            assert!(
                ((pred - truth) / truth).abs() < 0.3,
                "{k:?}: pred {pred} vs truth {truth}"
            );
        }
    }

    #[test]
    fn compute_bound_elementwise_uses_flop_roof() {
        let dev = DeviceSpec::v100();
        let m = RooflineModel::from_datasheet(&dev);
        let k = KernelSpec::Elementwise {
            elems: 1 << 20,
            flops_per_elem: 1e4,
            bytes_per_elem: 8.0,
        };
        let t = m.predict(&k);
        assert!((t - k.flops() / dev.flop_per_us()).abs() / t < 1e-9);
    }
}
