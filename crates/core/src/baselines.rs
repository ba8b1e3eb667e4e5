//! Baseline predictors for the Fig. 9 / Fig. 10 comparisons.
//!
//! * [`kernel_only`] — the paper's own baseline: E2E time = sum of predicted
//!   kernel times (i.e. GPU active time), ignoring idle time entirely.
//! * [`HabitatLike`] — models the approach of Habitat (Yu et al.): accurate
//!   per-kernel predictions, but E2E assembled as a plain sum of op times
//!   with one flat per-op latency constant instead of a critical path.
//! * [`MlPredictLike`] — models MLPredict (Justus et al.): per-op ML models
//!   trained on a *limited* sweep (small batches, square convolutions
//!   only), which extrapolates poorly to large batches and to Inception's
//!   1×7 / 7×1 filters — the failure the paper reports in Fig. 10.

use dlperf_gpusim::{DeviceSpec, KernelFamily, KernelSpec};
use dlperf_graph::lower::{self, LowerError};
use dlperf_graph::Graph;
use dlperf_kernels::microbench::{Microbenchmark, Sample};
use dlperf_kernels::mlbased::MlKernelModel;
use dlperf_kernels::ModelRegistry;
use dlperf_nn::train::TrainConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// E2E = sum of predicted kernel times (GPU active time), the `kernel_only`
/// series of Fig. 9.
///
/// # Errors
/// Returns a [`LowerError`] on malformed graphs.
pub fn kernel_only(graph: &Graph, registry: &ModelRegistry) -> Result<f64, LowerError> {
    let mut total = 0.0;
    let mut kernels = Vec::new();
    for node in graph.nodes() {
        kernels.clear();
        lower::try_kernels_into(graph, node, &mut kernels)?;
        for k in &kernels {
            // Degraded fallback (not a panic) on uncovered families, same
            // as the main E2E walk.
            total += registry.predict_with_confidence(k).0;
        }
    }
    Ok(total)
}

/// Habitat-style predictor: good kernel models, no idle-time model.
#[derive(Debug, Clone)]
pub struct HabitatLike {
    registry: ModelRegistry,
    /// Flat per-op latency added for every op (Habitat's constant op
    /// overhead), calibrated once on a reference workload.
    pub per_op_latency_us: f64,
}

impl HabitatLike {
    /// Creates the baseline with a calibrated flat per-op latency.
    pub fn new(registry: ModelRegistry, per_op_latency_us: f64) -> Self {
        HabitatLike { registry, per_op_latency_us }
    }

    /// Predicts E2E time: `Σ kernel times + N_ops × latency` — a sum, not a
    /// critical path, so concurrency between CPU and GPU is ignored.
    ///
    /// # Errors
    /// Returns a [`LowerError`] on malformed graphs.
    pub fn predict(&self, graph: &Graph) -> Result<f64, LowerError> {
        let kernels = kernel_only(graph, &self.registry)?;
        Ok(kernels + graph.node_count() as f64 * self.per_op_latency_us)
    }
}

/// MLPredict-style predictor: one ML model per op family trained on a
/// restricted sweep, summed per op.
#[derive(Debug)]
pub struct MlPredictLike {
    gemm: MlKernelModel,
    conv: MlKernelModel,
    /// Flat estimate for every kernel family the restricted training never
    /// covered.
    fallback_us: f64,
}

impl MlPredictLike {
    /// Trains the baseline on its characteristic *limited* sweep: batch
    /// sizes ≤ 64 and square 1×1/3×3/5×5 convolutions only.
    pub fn train(device: &DeviceSpec, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut mb = Microbenchmark::new(device, seed, 9);

        let gemm_specs: Vec<KernelSpec> = (0..180)
            .map(|_| {
                let dims = [64u64, 128, 256, 512, 1024];
                KernelSpec::Gemm {
                    m: [16u64, 32, 64][rng.gen_range(0..3usize)], // small batches only
                    n: dims[rng.gen_range(0..dims.len())],
                    k: dims[rng.gen_range(0..dims.len())],
                    batch: 1,
                }
            })
            .collect();
        let conv_specs: Vec<KernelSpec> = (0..180)
            .map(|_| {
                let k = [1u64, 3, 5][rng.gen_range(0..3usize)];
                let hw = [14u64, 28, 56][rng.gen_range(0..3usize)];
                KernelSpec::Conv2d {
                    batch: [8u64, 16, 32][rng.gen_range(0..3usize)],
                    c_in: [32u64, 64, 128][rng.gen_range(0..3usize)],
                    h: hw,
                    w: hw,
                    c_out: [32u64, 64, 128][rng.gen_range(0..3usize)],
                    kh: k,
                    kw: k,
                    stride: 1,
                    pad: k / 2,
                }
            })
            .collect();

        let cfg = TrainConfig { epochs: 120, width: 48, hidden_layers: 3, ..Default::default() };
        let gemm_samples: Vec<Sample> = mb.measure(&gemm_specs);
        let conv_samples: Vec<Sample> = mb.measure(&conv_specs);
        MlPredictLike {
            gemm: MlKernelModel::train(&gemm_samples, &cfg, seed ^ 1),
            conv: MlKernelModel::train(&conv_samples, &cfg, seed ^ 2),
            fallback_us: 5.0,
        }
    }

    /// Predicts E2E time as the sum of per-kernel model outputs.
    ///
    /// # Errors
    /// Returns a [`LowerError`] on malformed graphs.
    pub fn predict(&self, graph: &Graph) -> Result<f64, LowerError> {
        let mut total = 0.0;
        let mut kernels = Vec::new();
        for node in graph.nodes() {
            kernels.clear();
            lower::try_kernels_into(graph, node, &mut kernels)?;
            for k in &kernels {
                total += match k.family() {
                    KernelFamily::Gemm => self.gemm.predict(k),
                    KernelFamily::Conv2d => self.conv.predict(k),
                    _ => self.fallback_us,
                };
            }
        }
        Ok(total)
    }
}

/// Habitat-style *cross-device wave scaling*: predict device B's kernel
/// times from measurements taken on device A, scaling compute-bound kernels
/// by the FLOP-throughput ratio and memory-bound kernels by the bandwidth
/// ratio, blended by arithmetic intensity. This is Habitat's core mechanism
/// (Yu et al. §4); it needs no microbenchmarks on the target device, but —
/// as the paper notes — it cannot predict for configurations never measured
/// on the source device.
#[derive(Debug, Clone)]
pub struct CrossDeviceScaler {
    from: DeviceSpec,
    to: DeviceSpec,
}

impl CrossDeviceScaler {
    /// Creates a scaler from measurements on `from` to predictions on `to`.
    pub fn new(from: DeviceSpec, to: DeviceSpec) -> Self {
        CrossDeviceScaler { from, to }
    }

    /// Scales one kernel's measured time on the source device to the target.
    pub fn scale_kernel(&self, kernel: &KernelSpec, time_on_from_us: f64) -> f64 {
        let compute_ratio = self.from.flop_per_us() / self.to.flop_per_us();
        let mem_ratio = self.from.dram_bytes_per_us() / self.to.dram_bytes_per_us();
        // Arithmetic intensity vs the source device's ridge point decides
        // how compute-bound the kernel is.
        let intensity = if kernel.bytes() > 0.0 { kernel.flops() / kernel.bytes() } else { 0.0 };
        let ridge = self.from.flop_per_us() / self.from.dram_bytes_per_us();
        let alpha = (intensity / ridge).clamp(0.0, 1.0);
        time_on_from_us * (alpha * compute_ratio + (1.0 - alpha) * mem_ratio)
    }

    /// Predicts the target-device E2E time of `graph` by measuring every
    /// kernel on the (simulated) source device and wave-scaling it, plus a
    /// flat per-op latency — Habitat's end-to-end assembly.
    ///
    /// # Errors
    /// Returns a [`LowerError`] on malformed graphs.
    pub fn predict(&self, graph: &Graph, per_op_latency_us: f64) -> Result<f64, LowerError> {
        let source = dlperf_gpusim::Gpu::noiseless(self.from.clone());
        let mut total = graph.node_count() as f64 * per_op_latency_us;
        let mut kernels = Vec::new();
        for node in graph.nodes() {
            kernels.clear();
            lower::try_kernels_into(graph, node, &mut kernels)?;
            for k in &kernels {
                total += self.scale_kernel(k, source.kernel_time_noiseless(k));
            }
        }
        Ok(total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlperf_kernels::CalibrationEffort;
    use dlperf_models::cv;
    use dlperf_trace::engine::ExecutionEngine;

    #[test]
    fn our_model_beats_baselines_on_cv() {
        // Fig. 10 shape on ResNet-50: critical-path model ≥ Habitat-like ≥
        // MLPredict-like in accuracy.
        let dev = DeviceSpec::v100();
        let g = cv::resnet50(16);

        let mut engine = ExecutionEngine::new(dev.clone(), 61);
        let runs = engine.run_iterations(&g, 5).unwrap();
        let measured = runs.iter().map(|r| r.e2e_us).sum::<f64>() / runs.len() as f64;
        let traces: Vec<_> = runs.into_iter().map(|r| r.trace).collect();
        let overheads = dlperf_trace::OverheadStats::extract(&traces, true);

        let registry = ModelRegistry::calibrate(&dev, CalibrationEffort::Quick, 13);
        let ours = crate::E2ePredictor::new(registry.clone(), overheads)
            .predict(&g)
            .unwrap()
            .e2e_us;
        let habitat = HabitatLike::new(registry, 20.0).predict(&g).unwrap();
        let mlpredict = MlPredictLike::train(&dev, 77).predict(&g).unwrap();

        let err = |p: f64| ((p - measured) / measured).abs();
        assert!(err(ours) < 0.25, "our error {:.1}%", err(ours) * 100.0);
        assert!(err(habitat) < 0.35, "habitat-like error {:.1}%", err(habitat) * 100.0);
        assert!(
            err(mlpredict) > err(ours),
            "mlpredict {:.1}% vs ours {:.1}%",
            err(mlpredict) * 100.0,
            err(ours) * 100.0
        );
    }

    #[test]
    fn wave_scaling_lands_in_the_right_ballpark_on_gemm() {
        // GEMM-dominated kernels scale well across devices (the case
        // Habitat handles best).
        let scaler = CrossDeviceScaler::new(DeviceSpec::v100(), DeviceSpec::p100());
        let target = dlperf_gpusim::Gpu::noiseless(DeviceSpec::p100());
        let source = dlperf_gpusim::Gpu::noiseless(DeviceSpec::v100());
        let k = KernelSpec::gemm(4096, 2048, 1024);
        let scaled = scaler.scale_kernel(&k, source.kernel_time_noiseless(&k));
        let truth = target.kernel_time_noiseless(&k);
        assert!(
            ((scaled - truth) / truth).abs() < 0.35,
            "scaled {scaled} vs truth {truth}"
        );
    }

    #[test]
    fn wave_scaling_struggles_on_cache_sensitive_kernels() {
        // The paper's point against Habitat-style transfer: embedding
        // lookups whose working set fits one device's L2 but not the
        // other's do not scale by simple throughput ratios, while plain
        // GEMMs do.
        let (from, to) = (DeviceSpec::v100(), DeviceSpec::titan_xp());
        let scaler = CrossDeviceScaler::new(from.clone(), to.clone());
        let src = dlperf_gpusim::Gpu::noiseless(from);
        let dst = dlperf_gpusim::Gpu::noiseless(to);
        let err = |k: &KernelSpec| {
            let scaled = scaler.scale_kernel(k, src.kernel_time_noiseless(k));
            let truth = dst.kernel_time_noiseless(k);
            ((scaled - truth) / truth).abs()
        };
        // Mid-size tables: resident in the V100's 6 MB L2, not the Xp's 3 MB.
        let el_errs: Vec<f64> = [12_000u64, 18_000, 24_000]
            .iter()
            .map(|&e| err(&KernelSpec::embedding_forward(2048, e, 1, 10, 64)))
            .collect();
        let gemm_errs: Vec<f64> = [(2048u64, 1024u64, 1024u64), (4096, 2048, 512), (1024, 1024, 4096)]
            .iter()
            .map(|&(m, n, k)| err(&KernelSpec::gemm(m, n, k)))
            .collect();
        let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len() as f64;
        assert!(
            mean(&el_errs) > mean(&gemm_errs),
            "EL scaling error {:.1}% should exceed GEMM's {:.1}%",
            mean(&el_errs) * 100.0,
            mean(&gemm_errs) * 100.0
        );
    }

    #[test]
    fn mlpredict_fails_on_factorized_filters() {
        // Trained on square filters only, the restricted baseline should be
        // much worse on a 1x7 conv than on a 3x3 of similar cost.
        let dev = DeviceSpec::v100();
        let base = MlPredictLike::train(&dev, 5);
        let gpu = dlperf_gpusim::Gpu::noiseless(dev);
        let square = KernelSpec::Conv2d {
            batch: 16, c_in: 64, h: 28, w: 28, c_out: 64, kh: 3, kw: 3, stride: 1, pad: 1,
        };
        let skew = KernelSpec::Conv2d {
            batch: 16, c_in: 128, h: 17, w: 17, c_out: 128, kh: 1, kw: 7, stride: 1, pad: 3,
        };
        let err = |k: &KernelSpec, pred: f64| {
            let t = gpu.kernel_time_noiseless(k);
            ((pred - t) / t).abs()
        };
        let e_square = err(&square, base.conv.predict(&square));
        let e_skew = err(&skew, base.conv.predict(&skew));
        assert!(
            e_skew > e_square,
            "skewed-filter error {e_skew:.2} should exceed square-filter error {e_square:.2}"
        );
    }
}
