//! A naive heuristic GEMM model — the approach the paper *rejects*.
//!
//! §II-B argues that heuristic modeling of cuBLAS GEMM is infeasible: the
//! library's tile and wave quantization are invisible without source
//! access, so a roofline-style model with a calibrated efficiency cannot
//! track the staircase surface, "and therefore an ML-based performance
//! model is more suitable". This model exists to *demonstrate* that claim:
//! it calibrates a single compute-efficiency factor from microbenchmark
//! data (the best a heuristic can do without the tile tables) and is
//! measurably worse than the ML model near quantization cliffs.

use dlperf_gpusim::{DeviceSpec, KernelSpec};

use crate::microbench::Sample;

/// Roofline GEMM with one calibrated efficiency: the best source-free
/// heuristic.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct NaiveGemmModel {
    flop_per_us: f64,
    dram_bytes_per_us: f64,
    /// Median achieved fraction of peak over the calibration sweep.
    pub efficiency: f64,
    /// Median fixed offset (launch + epilogue) over the sweep (µs).
    pub offset_us: f64,
}

impl NaiveGemmModel {
    /// Calibrates the efficiency factor from GEMM microbenchmark samples:
    /// the median of achieved/peak throughput on compute-bound points.
    ///
    /// # Panics
    /// Panics if no GEMM samples are provided.
    pub fn calibrate(device: &DeviceSpec, samples: &[Sample]) -> Self {
        let mut effs: Vec<f64> = samples
            .iter()
            .filter(|s| matches!(s.kernel, KernelSpec::Gemm { .. }))
            .filter(|s| s.kernel.flops() > 1e8) // compute-bound points only
            .map(|s| (s.kernel.flops() / s.time_us) / device.flop_per_us())
            .collect();
        assert!(!effs.is_empty(), "need GEMM samples to calibrate");
        effs.sort_by(|a, b| a.total_cmp(b));
        let efficiency = effs[effs.len() / 2].clamp(0.05, 1.0);
        let mut offsets: Vec<f64> = samples
            .iter()
            .filter(|s| s.kernel.flops() < 1e7)
            .map(|s| s.time_us)
            .collect();
        offsets.sort_by(|a, b| a.total_cmp(b));
        let offset_us = offsets.get(offsets.len() / 2).copied().unwrap_or(2.0);
        NaiveGemmModel {
            flop_per_us: device.flop_per_us(),
            dram_bytes_per_us: device.dram_bytes_per_us(),
            efficiency,
            offset_us,
        }
    }

    /// Predicted GEMM time (µs).
    ///
    /// # Panics
    /// Panics on non-GEMM kernels.
    pub fn predict(&self, kernel: &KernelSpec) -> f64 {
        assert!(
            matches!(kernel, KernelSpec::Gemm { .. }),
            "NaiveGemmModel::predict needs a GEMM, got {kernel:?}"
        );
        let t_compute = kernel.flops() / (self.flop_per_us * self.efficiency);
        let t_mem = kernel.bytes() / self.dram_bytes_per_us;
        t_compute.max(t_mem) + self.offset_us
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::ErrorStats;
    use crate::microbench::{gemm_specs, Microbenchmark};
    use crate::mlbased::MlKernelModel;
    use dlperf_nn::train::TrainConfig;

    /// The §II-B claim, demonstrated: on the same sweep the source-free
    /// heuristic is far less accurate than the ML model, because it cannot
    /// express tile/wave quantization.
    #[test]
    fn naive_heuristic_much_worse_than_ml_model() {
        let dev = DeviceSpec::v100();
        let mut mb = Microbenchmark::new(&dev, 3, 9);
        let train = mb.measure(&gemm_specs(300, 11));
        let eval = mb.measure(&gemm_specs(120, 909));

        let naive = NaiveGemmModel::calibrate(&dev, &train);
        let cfg = TrainConfig {
            epochs: 150,
            width: 64,
            hidden_layers: 3,
            ..Default::default()
        };
        let ml = MlKernelModel::train(&train, &cfg, 4);

        let actual: Vec<f64> = eval.iter().map(|s| s.time_us).collect();
        let naive_preds: Vec<f64> = eval.iter().map(|s| naive.predict(&s.kernel)).collect();
        let ml_preds: Vec<f64> = eval.iter().map(|s| ml.predict(&s.kernel)).collect();
        let e_naive = ErrorStats::from_pairs(&naive_preds, &actual);
        let e_ml = ErrorStats::from_pairs(&ml_preds, &actual);
        assert!(
            e_naive.gmae > 1.5 * e_ml.gmae,
            "naive {e_naive} should be much worse than ML {e_ml}"
        );
    }

    #[test]
    fn calibrated_efficiency_is_plausible() {
        let dev = DeviceSpec::v100();
        let mut mb = Microbenchmark::new(&dev, 5, 9);
        let samples = mb.measure(&gemm_specs(200, 21));
        let naive = NaiveGemmModel::calibrate(&dev, &samples);
        assert!(
            (0.2..0.95).contains(&naive.efficiency),
            "eff {}",
            naive.efficiency
        );
        assert!(naive.offset_us > 0.0);
    }

    #[test]
    #[should_panic(expected = "needs a GEMM")]
    fn non_gemm_panics() {
        let dev = DeviceSpec::v100();
        let mut mb = Microbenchmark::new(&dev, 5, 5);
        let samples = mb.measure(&gemm_specs(50, 21));
        NaiveGemmModel::calibrate(&dev, &samples).predict(&KernelSpec::memcpy_d2d(64));
    }
}
