//! The kernel-model registry: one performance model per kernel family.
//!
//! This is the asset store of the paper's prediction pipeline (the blue
//! cylinders of Fig. 3): calibrating it once per device runs the
//! microbenchmarks, fits the ML models, and instantiates the heuristic
//! models; afterwards any op that lowers to a known family can be predicted
//! without touching the (simulated) hardware again. Ops sharing kernel
//! types — `addmm`, `bmm`, `linear` and all their backwards — automatically
//! share the single GEMM model, the paper's cost-saving observation.

use std::collections::HashMap;
use std::sync::Arc;

use dlperf_gpusim::{DeviceSpec, KernelFamily, KernelSpec, MemcpyKind};
use dlperf_nn::arena::ScratchArena;
use dlperf_nn::train::TrainConfig;

use crate::error::ErrorStats;
use crate::heuristic::embedding::{EmbeddingModel, EmbeddingModelKind};
use crate::heuristic::roofline::RooflineModel;
use crate::memo::{MemoCache, MemoScratch};
use crate::microbench::{self, Microbenchmark};
use crate::mlbased::MlKernelModel;

/// How a [`ModelRegistry`] prediction was produced.
///
/// The registry's graceful-degradation contract: a lookup that finds no
/// model for the kernel's family does not abort the caller — it falls back
/// to an uncalibrated datasheet roofline and *tags* the number as
/// [`Confidence::Degraded`], so downstream reports can distinguish a
/// trusted prediction from a best-effort estimate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum Confidence {
    /// A model calibrated for the kernel's family produced the number.
    Calibrated,
    /// No model was registered for the family; a datasheet roofline
    /// heuristic filled in (expect substantially larger error).
    Degraded,
}

impl std::fmt::Display for Confidence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Confidence::Calibrated => "calibrated",
            Confidence::Degraded => "degraded",
        })
    }
}

/// Uncalibrated datasheet roofline: `max(FLOP/peak, bytes/BW) + launch`.
/// Unlike [`RooflineModel`], which is calibrated for (and restricted to)
/// memory-movement kernels, this handles *every* kernel family — it is the
/// universal fallback behind [`ModelRegistry::predict_with_confidence`].
fn datasheet_roofline(device: &DeviceSpec, kernel: &KernelSpec) -> f64 {
    let bw = match kernel {
        KernelSpec::Memcpy {
            kind: MemcpyKind::HostToDevice | MemcpyKind::DeviceToHost,
            ..
        } => device.pcie_bytes_per_us(),
        _ => device.dram_bw_gbs * 1e3,
    };
    let t_compute = kernel.flops() / device.flop_per_us();
    let t_mem = kernel.bytes() / bw;
    t_compute.max(t_mem) + device.kernel_start_us
}

/// A prediction was requested for a family with no registered model.
///
/// Returned by [`ModelRegistry::try_predict`]; callers that prefer a
/// best-effort estimate over an error use
/// [`ModelRegistry::predict_with_confidence`] instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MissingModelError {
    /// The family that had no model.
    pub family: KernelFamily,
}

impl std::fmt::Display for MissingModelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "no model registered for family {}", self.family)
    }
}

impl std::error::Error for MissingModelError {}

/// A kernel performance model: predicts the execution time of one family.
pub trait KernelPerfModel: Send + Sync {
    /// Predicted time in microseconds.
    fn predict(&self, kernel: &KernelSpec) -> f64;
    /// Appends predicted times for a batch of same-family kernels to `out`,
    /// staging transient buffers in `arena` so steady-state callers stay
    /// allocation-free. The default maps [`KernelPerfModel::predict`];
    /// models with a cheaper batched path (e.g. MLP inference over a
    /// stacked feature matrix) override it, and every override must stay
    /// bitwise identical to the scalar map — the memo cache and sweep
    /// determinism contracts depend on it.
    fn predict_batch_into(
        &self,
        kernels: &[KernelSpec],
        arena: &mut ScratchArena,
        out: &mut Vec<f64>,
    ) {
        let _ = arena;
        out.extend(kernels.iter().map(|k| self.predict(k)));
    }
    /// Short model name for reports, e.g. `"ML(GEMM)"`.
    fn name(&self) -> String;
    /// Validation-error statistics from calibration, when the model kept
    /// them. Heuristic models (roofline, embedding) have no training set
    /// and return `None`; ML models trained by recent calibrations return
    /// the stats their training run measured. Consumers (the optimization
    /// search) use these to attach confidence intervals to predictions.
    fn error_stats(&self) -> Option<ErrorStats> {
        None
    }
}

impl KernelPerfModel for EmbeddingModel {
    fn predict(&self, kernel: &KernelSpec) -> f64 {
        EmbeddingModel::predict(self, kernel)
    }
    fn name(&self) -> String {
        match self.kind() {
            EmbeddingModelKind::Plain => "heuristic(EL, plain)".into(),
            EmbeddingModelKind::Enhanced => "heuristic(EL, hit-rate)".into(),
        }
    }
}

impl KernelPerfModel for RooflineModel {
    fn predict(&self, kernel: &KernelSpec) -> f64 {
        RooflineModel::predict(self, kernel)
    }
    fn name(&self) -> String {
        "roofline".into()
    }
}

impl KernelPerfModel for MlKernelModel {
    fn predict(&self, kernel: &KernelSpec) -> f64 {
        MlKernelModel::predict(self, kernel)
    }
    fn predict_batch_into(
        &self,
        kernels: &[KernelSpec],
        arena: &mut ScratchArena,
        out: &mut Vec<f64>,
    ) {
        MlKernelModel::predict_batch_into(self, kernels, arena, out)
    }
    fn name(&self) -> String {
        format!("ML({})", self.family())
    }
    fn error_stats(&self) -> Option<ErrorStats> {
        MlKernelModel::error_stats(self)
    }
}

/// How much microbenchmarking/training work calibration performs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CalibrationEffort {
    /// Small sweeps and short training, for tests and examples: 0.45–0.55 s
    /// per catalog device in a release build on a 2-core host.
    Quick,
    /// Paper-scale sweeps and training, for the benchmark harness: about
    /// 20 s for the v100 in a release build on a 2-core host.
    Full,
}

impl CalibrationEffort {
    fn samples(self, quick: usize, full: usize) -> usize {
        match self {
            CalibrationEffort::Quick => quick,
            CalibrationEffort::Full => full,
        }
    }

    fn train_config(self) -> TrainConfig {
        match self {
            CalibrationEffort::Quick => TrainConfig {
                epochs: 120,
                width: 48,
                hidden_layers: 3,
                ..Default::default()
            },
            CalibrationEffort::Full => TrainConfig {
                epochs: 240,
                width: 96,
                hidden_layers: 3,
                patience: 30,
                batch_size: 128,
                ..Default::default()
            },
        }
    }
}

/// One performance model per kernel family.
#[derive(Clone)]
pub struct ModelRegistry {
    models: HashMap<KernelFamily, Arc<dyn KernelPerfModel>>,
    device: DeviceSpec,
    /// Dispatch counters, shared across clones of this registry (clones
    /// serve the same calibration, so their traffic aggregates).
    obs: Arc<dlperf_obs::CounterGroup>,
    degraded: dlperf_obs::CounterHandle,
    batch_calls: dlperf_obs::CounterHandle,
}

impl std::fmt::Debug for ModelRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut names: Vec<String> = self
            .models
            .iter()
            .map(|(fam, m)| format!("{fam}: {}", m.name()))
            .collect();
        names.sort();
        f.debug_struct("ModelRegistry")
            .field("device", &self.device.name)
            .field("models", &names)
            .finish()
    }
}

impl ModelRegistry {
    /// An empty registry for manual assembly.
    pub fn empty(device: DeviceSpec) -> Self {
        let obs = dlperf_obs::CounterGroup::register(
            format!("kernels.registry/{}", device.name),
            &["degraded", "batch_calls"],
        );
        let degraded = obs.handle("degraded");
        let batch_calls = obs.handle("batch_calls");
        ModelRegistry {
            models: HashMap::new(),
            device,
            obs,
            degraded,
            batch_calls,
        }
    }

    /// This registry's dispatch counters (degraded fallbacks, batched
    /// calls), shared by every clone.
    pub fn counters(&self) -> &Arc<dlperf_obs::CounterGroup> {
        &self.obs
    }

    /// The device this registry was calibrated for.
    pub fn device(&self) -> &DeviceSpec {
        &self.device
    }

    /// Installs (or replaces) the model for a family.
    pub fn insert(&mut self, family: KernelFamily, model: Arc<dyn KernelPerfModel>) {
        self.models.insert(family, model);
    }

    /// The model registered for a family.
    pub fn get(&self, family: KernelFamily) -> Option<&Arc<dyn KernelPerfModel>> {
        self.models.get(&family)
    }

    /// Calibration error statistics aggregated across every registered
    /// model that kept them, count-weighted. Families are visited in
    /// [`KernelFamily::ALL`] order — never `HashMap` iteration order — so
    /// the aggregate is a deterministic function of the registry contents
    /// and the confidence intervals derived from it are reproducible bit
    /// for bit.
    ///
    /// Returns `None` when no model carries stats (heuristic-only
    /// registries, or bundles persisted before stats were recorded).
    pub fn error_stats(&self) -> Option<ErrorStats> {
        let mut gmae_log = 0.0f64;
        let mut mean_acc = 0.0f64;
        let mut var_acc = 0.0f64;
        let mut count = 0usize;
        for family in KernelFamily::ALL {
            let Some(stats) = self.models.get(&family).and_then(|m| m.error_stats()) else {
                continue;
            };
            let n = stats.count as f64;
            // Count-weighted pooling: GMAE combines in log space (it is a
            // geometric mean), mean and variance arithmetically.
            gmae_log += n * stats.gmae.max(f64::MIN_POSITIVE).ln();
            mean_acc += n * stats.mean;
            var_acc += n * stats.std * stats.std;
            count += stats.count;
        }
        if count == 0 {
            return None;
        }
        let n = count as f64;
        Some(ErrorStats {
            gmae: (gmae_log / n).exp(),
            mean: mean_acc / n,
            std: (var_acc / n).sqrt(),
            count,
        })
    }

    /// Predicted execution time of `kernel` in microseconds, or an error
    /// when no model is registered for the kernel's family.
    ///
    /// # Errors
    /// [`MissingModelError`] naming the uncovered family.
    pub fn try_predict(&self, kernel: &KernelSpec) -> Result<f64, MissingModelError> {
        match self.models.get(&kernel.family()) {
            Some(model) => Ok(model.predict(kernel)),
            None => Err(MissingModelError {
                family: kernel.family(),
            }),
        }
    }

    /// Predicted execution time plus the confidence of the prediction.
    ///
    /// Unlike [`ModelRegistry::try_predict`], a missing family model is not
    /// an error: the datasheet roofline fills in and the result is tagged
    /// [`Confidence::Degraded`]. Use this in resilient analysis paths
    /// where one uncalibrated kernel must not abort a whole workload.
    pub fn predict_with_confidence(&self, kernel: &KernelSpec) -> (f64, Confidence) {
        match self.models.get(&kernel.family()) {
            Some(model) => (model.predict(kernel), Confidence::Calibrated),
            None => {
                self.degraded.incr();
                (
                    datasheet_roofline(&self.device, kernel),
                    Confidence::Degraded,
                )
            }
        }
    }

    /// Batched [`ModelRegistry::predict_with_confidence`] on fresh
    /// buffers: [`ModelRegistry::predict_batch_into`] without a cache.
    pub fn predict_batch_with_confidence(&self, kernels: &[KernelSpec]) -> Vec<(f64, Confidence)> {
        let mut out = Vec::with_capacity(kernels.len());
        self.predict_batch_into(
            kernels,
            None,
            &mut MemoScratch::default(),
            &mut ScratchArena::new(),
            &mut out,
        );
        out
    }

    /// The one kernel-pricing path: appends one `(time, confidence)` per
    /// kernel to `out`, in input order.
    ///
    /// With a `cache` (which must be dedicated to this registry — keys do
    /// not include the device), every kernel is probed first and only the
    /// first occurrence of each absent key is evaluated; see
    /// [`MemoScratch`] for the counter semantics. Without one, every
    /// kernel is evaluated. Either way the kernels to evaluate are
    /// bucketed by family in `scratch`, each family's model answers its
    /// bucket in one [`KernelPerfModel::predict_batch_into`] call (one
    /// blocked MLP forward pass for the ML-backed families), and a family
    /// with no model degrades to the datasheet roofline. `scratch` and
    /// `arena` keep their capacity, so once warm this performs no heap
    /// allocation.
    ///
    /// Bitwise identical to mapping the scalar
    /// [`ModelRegistry::predict_with_confidence`] — every model is a pure
    /// function and every batched override is pinned bit-for-bit to its
    /// scalar path.
    pub fn predict_batch_into(
        &self,
        kernels: &[KernelSpec],
        cache: Option<&MemoCache>,
        scratch: &mut MemoScratch,
        arena: &mut ScratchArena,
        out: &mut Vec<(f64, Confidence)>,
    ) {
        let start = out.len();
        out.resize(start + kernels.len(), (0.0, Confidence::Calibrated));
        let values = &mut out[start..];
        scratch.probe(kernels, cache, values);
        // An all-hit cached batch calls no model, so it is not a batch call.
        if cache.is_some() && scratch.eval.is_empty() {
            return;
        }
        self.batch_calls.incr();
        for bucket in &mut scratch.buckets {
            bucket.clear();
        }
        for &i in &scratch.eval {
            scratch.buckets[kernels[i].family() as usize].push(i);
        }
        for (family, bucket) in KernelFamily::ALL.into_iter().zip(&scratch.buckets) {
            if bucket.is_empty() {
                continue;
            }
            match self.models.get(&family) {
                Some(model) => {
                    scratch.specs.clear();
                    scratch
                        .specs
                        .extend(bucket.iter().map(|&i| kernels[i].clone()));
                    let mut times = arena.take();
                    model.predict_batch_into(&scratch.specs, arena, &mut times);
                    for (&i, &t) in bucket.iter().zip(times.iter()) {
                        values[i] = (t, Confidence::Calibrated);
                    }
                    arena.give(times);
                }
                None => {
                    self.degraded.add(bucket.len() as u64);
                    for &i in bucket {
                        let t = datasheet_roofline(&self.device, &kernels[i]);
                        values[i] = (t, Confidence::Degraded);
                    }
                }
            }
        }
        scratch.commit(kernels, cache, values);
    }

    /// Rewraps this registry with trace-fitted per-family scale factors
    /// (see [`crate::scaled::ScaledModel`]): each named family's model
    /// is multiplied by its factor, every other family is shared
    /// untouched. The original registry is not modified — callers keep
    /// the uncorrected registry for comparison reports.
    ///
    /// # Panics
    /// Panics if a factor is non-positive or non-finite (the
    /// [`crate::scaled::ScaledModel`] contract).
    pub fn with_scale_factors(&self, factors: &[(KernelFamily, f64)]) -> Self {
        let mut out = self.clone();
        for &(family, scale) in factors {
            if let Some(model) = self.models.get(&family) {
                out.insert(
                    family,
                    Arc::new(crate::scaled::ScaledModel::new(model.clone(), scale)),
                );
            }
        }
        out
    }

    /// Runs the full analysis track against a device: microbenchmark sweeps,
    /// roofline calibration, heuristic instantiation, and ML training.
    ///
    /// Nearly all of the time is the five MLP fits. In a release build on a
    /// 2-core host, `Quick` takes 0.45–0.55 s per catalog device and `Full`,
    /// which matches the paper's sweep scale, about 20 s for the v100.
    pub fn calibrate(device: &DeviceSpec, effort: CalibrationEffort, seed: u64) -> Self {
        Self::calibrate_bundle(device, effort, seed).into_registry()
    }

    /// Like [`ModelRegistry::calibrate`], but returns the serializable
    /// [`crate::persist::RegistryBundle`] so the expensive calibration can
    /// be stored and reloaded.
    pub fn calibrate_bundle(
        device: &DeviceSpec,
        effort: CalibrationEffort,
        seed: u64,
    ) -> crate::persist::RegistryBundle {
        let _span = dlperf_obs::span_with(dlperf_obs::SpanKind::Phase, || {
            format!("registry.calibrate/{}", device.name)
        });
        let mut mb = Microbenchmark::new(device, seed, 15);
        let cfg = effort.train_config();

        // Memory families: roofline with corrected peak bandwidth + latency.
        let mem = mb.measure(&microbench::memory_specs(effort.samples(48, 240), seed ^ 1));
        let mem_pairs: Vec<(KernelSpec, f64)> =
            mem.iter().map(|s| (s.kernel.clone(), s.time_us)).collect();
        let roofline = RooflineModel::calibrate(device, &mem_pairs);

        // GEMM gets extra capacity: its wave-quantized surface on small-SM
        // devices needs a deeper net to avoid regional bias.
        let gemm_cfg = match effort {
            CalibrationEffort::Quick => cfg.clone(),
            CalibrationEffort::Full => TrainConfig {
                epochs: 400,
                width: 160,
                hidden_layers: 4,
                patience: 50,
                batch_size: 128,
                ..Default::default()
            },
        };

        // Opaque kernels: ML models trained on sweeps.
        let mut train_ml = |specs: Vec<KernelSpec>, train_cfg: &TrainConfig, seed: u64| {
            let samples = mb.measure(&specs);
            MlKernelModel::train(&samples, train_cfg, seed)
        };
        let gemm = train_ml(
            microbench::gemm_specs(effort.samples(260, 1600), seed ^ 2),
            &gemm_cfg,
            seed ^ 2,
        );
        let transpose = train_ml(
            microbench::transpose_specs(effort.samples(200, 700), seed ^ 3),
            &cfg,
            seed ^ 3,
        );
        let tril_forward = train_ml(
            microbench::tril_specs(effort.samples(160, 500), false, seed ^ 4),
            &cfg,
            seed ^ 4,
        );
        let tril_backward = train_ml(
            microbench::tril_specs(effort.samples(160, 500), true, seed ^ 5),
            &cfg,
            seed ^ 5,
        );
        let conv = train_ml(
            microbench::conv_specs(effort.samples(220, 800), seed ^ 6),
            &cfg,
            seed ^ 6,
        );

        crate::persist::RegistryBundle {
            lane_width: dlperf_nn::LANES,
            device: device.clone(),
            roofline,
            // The enhanced heuristic model, adopted for E2E prediction after
            // the Table IV comparison.
            embedding_forward: EmbeddingModel::new(device, EmbeddingModelKind::Enhanced),
            embedding_backward: EmbeddingModel::new(device, EmbeddingModelKind::Enhanced),
            gemm,
            transpose,
            tril_forward,
            tril_backward,
            conv,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::ErrorStats;
    use dlperf_gpusim::Gpu;

    #[test]
    fn calibrated_registry_covers_every_dlrm_family() {
        let reg = ModelRegistry::calibrate(&DeviceSpec::v100(), CalibrationEffort::Quick, 7);
        for fam in [
            KernelFamily::Gemm,
            KernelFamily::EmbeddingForward,
            KernelFamily::EmbeddingBackward,
            KernelFamily::Concat,
            KernelFamily::Memcpy,
            KernelFamily::Transpose,
            KernelFamily::TrilForward,
            KernelFamily::TrilBackward,
            KernelFamily::Elementwise,
            KernelFamily::Conv2d,
        ] {
            assert!(reg.get(fam).is_some(), "missing model for {fam}");
        }
    }

    #[test]
    fn quick_registry_predicts_within_band() {
        let dev = DeviceSpec::v100();
        let reg = ModelRegistry::calibrate(&dev, CalibrationEffort::Quick, 11);
        let gpu = Gpu::noiseless(dev);
        let eval = [
            KernelSpec::gemm(2048, 1024, 512),
            KernelSpec::Transpose {
                batch: 2048,
                rows: 9,
                cols: 64,
            },
            KernelSpec::TrilForward { batch: 2048, n: 27 },
            KernelSpec::memcpy_d2d(4 << 20),
            KernelSpec::embedding_forward(2048, 1_000_000, 8, 10, 64),
        ];
        let preds: Vec<f64> = eval
            .iter()
            .map(|k| reg.try_predict(k).expect("family covered"))
            .collect();
        let actual: Vec<f64> = eval.iter().map(|k| gpu.kernel_time_noiseless(k)).collect();
        let stats = ErrorStats::from_pairs(&preds, &actual);
        assert!(stats.mean < 0.5, "quick calibration too far off: {stats}");
    }

    #[test]
    fn missing_family_is_a_typed_error_from_try_predict() {
        let reg = ModelRegistry::empty(DeviceSpec::v100());
        let err = reg.try_predict(&KernelSpec::gemm(8, 8, 8)).unwrap_err();
        assert_eq!(err.family, KernelFamily::Gemm);
        assert!(err.to_string().contains("no model registered"));
    }

    #[test]
    fn degraded_fallbacks_are_counted() {
        let reg = ModelRegistry::empty(DeviceSpec::v100());
        let before = reg.counters().value("degraded");
        let _ = reg.predict_with_confidence(&KernelSpec::gemm(8, 8, 8));
        let _ = reg.predict_batch_with_confidence(&[
            KernelSpec::gemm(8, 8, 8),
            KernelSpec::memcpy_d2d(1 << 10),
        ]);
        assert_eq!(reg.counters().value("degraded") - before, 3);
        assert_eq!(reg.counters().value("batch_calls"), 1);
    }

    #[test]
    fn missing_family_degrades_instead_of_panicking() {
        let reg = ModelRegistry::empty(DeviceSpec::v100());
        for k in [
            KernelSpec::gemm(512, 512, 512),
            KernelSpec::memcpy_h2d(1 << 20),
            KernelSpec::embedding_forward(256, 100_000, 4, 10, 32),
            KernelSpec::Transpose {
                batch: 8,
                rows: 128,
                cols: 128,
            },
        ] {
            let (t, conf) = reg.predict_with_confidence(&k);
            assert_eq!(conf, Confidence::Degraded);
            assert!(t.is_finite() && t > 0.0, "degraded estimate for {k:?}: {t}");
        }
    }

    #[test]
    fn calibrated_family_matches_predict() {
        let dev = DeviceSpec::v100();
        let reg = ModelRegistry::calibrate(&dev, CalibrationEffort::Quick, 12);
        let k = KernelSpec::gemm(1024, 512, 256);
        let (t, conf) = reg.predict_with_confidence(&k);
        assert_eq!(conf, Confidence::Calibrated);
        assert_eq!(t, reg.try_predict(&k).expect("family covered"));
    }

    #[test]
    fn debug_lists_models() {
        let reg = ModelRegistry::calibrate(&DeviceSpec::p100(), CalibrationEffort::Quick, 3);
        let dbg = format!("{reg:?}");
        assert!(dbg.contains("GEMM"));
        assert!(dbg.contains("roofline"));
    }
}
