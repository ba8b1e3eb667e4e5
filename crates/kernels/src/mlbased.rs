//! ML-based kernel performance models (§III-B-2).
//!
//! One MLP regressor per opaque kernel family, trained on microbenchmark
//! sweeps: input features are the kernel's shape parameters, the output is
//! its execution time, both log-preprocessed (handled by `dlperf-nn`).

use dlperf_gpusim::{KernelFamily, KernelSpec};
use dlperf_nn::arena::ScratchArena;
use dlperf_nn::dataset::Dataset;
use dlperf_nn::train::{train, TrainConfig, TrainedModel};

use crate::error::ErrorStats;
use crate::microbench::Sample;

/// Shape features of a kernel, used as MLP inputs.
///
/// Alignment residues are included for transpose/tril, whose performance
/// depends on how the inner dimension meets sector and bank boundaries —
/// information a pure log-magnitude feature cannot carry.
pub fn features(kernel: &KernelSpec) -> Vec<f64> {
    let mut out = Vec::new();
    features_into(kernel, &mut out);
    out
}

/// Appends [`features`] of `kernel` to `out` — the allocation-free form
/// used to stage family-grouped feature matrices in arena buffers.
pub fn features_into(kernel: &KernelSpec, out: &mut Vec<f64>) {
    match *kernel {
        KernelSpec::Gemm { m, n, k, batch } => {
            // Tile counts at the two dominant cuBLAS tilings let the MLP
            // learn wave quantization (time steps with ceil(tiles / #SM)),
            // which raw log-magnitudes smooth over.
            let tiles128 = (m.div_ceil(128) * n.div_ceil(128) * batch) as f64;
            let tiles64 = (m.div_ceil(64) * n.div_ceil(64) * batch) as f64;
            out.extend_from_slice(&[
                m as f64,
                n as f64,
                k as f64,
                batch as f64,
                kernel.flops(),
                tiles128,
                tiles64,
            ]);
        }
        KernelSpec::Transpose { batch, rows, cols } => out.extend_from_slice(&[
            batch as f64,
            rows as f64,
            cols as f64,
            (cols % 32) as f64,
            (cols % 8) as f64,
        ]),
        KernelSpec::TrilForward { batch, n } | KernelSpec::TrilBackward { batch, n } => {
            out.extend_from_slice(&[batch as f64, n as f64, (n % 32) as f64])
        }
        KernelSpec::Conv2d { kh, kw, c_in, .. } => {
            // The implicit-GEMM shape is the natural coordinate system for
            // conv cost; filter geometry and input depth add the lowering
            // efficiency the GEMM dims cannot see.
            let (m, n, k, batch) = dlperf_gpusim::conv::implicit_gemm_shape(kernel);
            out.extend_from_slice(&[
                m as f64,
                n as f64,
                k as f64,
                batch as f64,
                kh as f64,
                kw as f64,
                c_in as f64,
                kernel.flops(),
            ]);
        }
        KernelSpec::EmbeddingForward { b, e, t, l, d, .. }
        | KernelSpec::EmbeddingBackward { b, e, t, l, d, .. } => {
            out.extend_from_slice(&[b as f64, e as f64, t as f64, l as f64, d as f64])
        }
        KernelSpec::Concat { bytes } | KernelSpec::Memcpy { bytes, .. } => out.push(bytes as f64),
        KernelSpec::Elementwise {
            elems,
            flops_per_elem,
            bytes_per_elem,
        } => out.extend_from_slice(&[elems as f64, flops_per_elem, bytes_per_elem]),
    }
}

/// Converts microbenchmark samples of one family into a training dataset.
///
/// # Panics
/// Panics if samples are empty or span multiple families.
pub fn dataset_of(samples: &[Sample]) -> Dataset {
    assert!(!samples.is_empty(), "no samples to train on");
    let fam = samples[0].kernel.family();
    assert!(
        samples.iter().all(|s| s.kernel.family() == fam),
        "samples must share one kernel family"
    );
    let rows: Vec<Vec<f64>> = samples.iter().map(|s| features(&s.kernel)).collect();
    let ys: Vec<f64> = samples.iter().map(|s| s.time_us).collect();
    Dataset::from_rows(&rows, &ys).expect("consistent feature rows")
}

/// A trained MLP kernel model for one family.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct MlKernelModel {
    family: KernelFamily,
    model: TrainedModel,
    /// Post-hoc multiplicative recalibration: MSE training in log space
    /// shrinks predictions toward the mean, leaving a systematic geometric
    /// bias; multiplying by the training set's geometric mean ratio
    /// `actual / predicted` removes it without touching the GMAE.
    correction: f64,
    /// Training-set error statistics of the final (corrected, clamped)
    /// model, measured at train time and persisted with the bundle.
    /// `None` for bundles written before stats were recorded.
    #[serde(default)]
    stats: Option<ErrorStats>,
}

impl MlKernelModel {
    /// Trains a model with fixed hyperparameters.
    ///
    /// # Panics
    /// Panics on empty or mixed-family samples.
    pub fn train(samples: &[Sample], cfg: &TrainConfig, seed: u64) -> Self {
        let family = samples[0].kernel.family();
        let data = dataset_of(samples);
        let model = train(&data, cfg, seed);
        let log_ratio_sum: f64 = samples
            .iter()
            .map(|s| {
                let pred = model.predict_one(&features(&s.kernel)).max(1e-9);
                (s.time_us / pred).ln()
            })
            .sum();
        let correction = (log_ratio_sum / samples.len() as f64).exp();
        let mut m = MlKernelModel {
            family,
            model,
            correction,
            stats: None,
        };
        m.stats = m.measure_stats(samples);
        m
    }

    /// Error statistics of the finished model over its own training set —
    /// prediction exactly as served (correction and clamp included).
    fn measure_stats(&self, samples: &[Sample]) -> Option<ErrorStats> {
        let preds: Vec<f64> = samples.iter().map(|s| self.predict(&s.kernel)).collect();
        let actual: Vec<f64> = samples.iter().map(|s| s.time_us).collect();
        ErrorStats::try_from_pairs(&preds, &actual).ok()
    }

    /// The training-time error statistics, if this model (or the bundle it
    /// was loaded from) recorded them.
    pub fn error_stats(&self) -> Option<ErrorStats> {
        self.stats
    }

    /// The family this model predicts.
    pub fn family(&self) -> KernelFamily {
        self.family
    }

    /// Validation MAPE of the underlying regressor.
    pub fn val_mape(&self) -> f64 {
        self.model.val_mape
    }

    /// Predicted kernel time (µs).
    ///
    /// # Panics
    /// Panics if the kernel belongs to a different family.
    pub fn predict(&self, kernel: &KernelSpec) -> f64 {
        assert_eq!(
            kernel.family(),
            self.family,
            "family mismatch in MlKernelModel::predict"
        );
        (self.model.predict_one(&features(kernel)) * self.correction).max(0.01)
    }

    /// Appends predicted kernel times for a batch to `out`, via one
    /// batched MLP forward pass over the stacked feature matrix (staged in
    /// an arena buffer) instead of per-kernel scalar inference. Bitwise
    /// identical to mapping [`MlKernelModel::predict`] (the planned MLP
    /// forward is bitwise equal to the scalar one, and the
    /// correction/clamp are element-wise).
    ///
    /// # Panics
    /// Panics if any kernel belongs to a different family.
    pub fn predict_batch_into(
        &self,
        kernels: &[KernelSpec],
        arena: &mut ScratchArena,
        out: &mut Vec<f64>,
    ) {
        if kernels.is_empty() {
            return;
        }
        let mut feats = arena.take();
        for k in kernels {
            assert_eq!(
                k.family(),
                self.family,
                "family mismatch in MlKernelModel::predict_batch_into"
            );
            features_into(k, &mut feats);
        }
        let start = out.len();
        self.model
            .predict_flat_into(feats, kernels.len(), arena, out);
        for p in &mut out[start..] {
            *p = (*p * self.correction).max(0.01);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::ErrorStats;
    use crate::microbench::{gemm_specs, Microbenchmark};
    use dlperf_gpusim::DeviceSpec;

    #[test]
    fn gemm_model_learns_the_surface() {
        let dev = DeviceSpec::v100();
        let mut mb = Microbenchmark::new(&dev, 1, 5);
        let train_samples = mb.measure(&gemm_specs(250, 10));
        let cfg = TrainConfig {
            epochs: 150,
            width: 64,
            hidden_layers: 3,
            ..Default::default()
        };
        let model = MlKernelModel::train(&train_samples, &cfg, 3);

        let eval = mb.measure(&gemm_specs(60, 99));
        let preds: Vec<f64> = eval.iter().map(|s| model.predict(&s.kernel)).collect();
        let actual: Vec<f64> = eval.iter().map(|s| s.time_us).collect();
        let stats = ErrorStats::from_pairs(&preds, &actual);
        assert!(stats.gmae < 0.30, "GEMM model too inaccurate: {stats}");
    }

    #[test]
    fn features_distinguish_alignment() {
        let aligned = KernelSpec::Transpose {
            batch: 8,
            rows: 64,
            cols: 64,
        };
        let odd = KernelSpec::Transpose {
            batch: 8,
            rows: 64,
            cols: 63,
        };
        assert_ne!(features(&aligned), features(&odd));
    }

    #[test]
    #[should_panic(expected = "one kernel family")]
    fn mixed_families_rejected() {
        let samples = vec![
            Sample {
                kernel: KernelSpec::gemm(8, 8, 8),
                time_us: 1.0,
            },
            Sample {
                kernel: KernelSpec::memcpy_d2d(64),
                time_us: 1.0,
            },
        ];
        dataset_of(&samples);
    }

    #[test]
    fn missing_stats_decode_to_none() {
        let dev = DeviceSpec::v100();
        let mut mb = Microbenchmark::new(&dev, 1, 3);
        let samples = mb.measure(&gemm_specs(30, 1));
        let cfg = TrainConfig {
            epochs: 5,
            width: 16,
            ..Default::default()
        };
        let model = MlKernelModel::train(&samples, &cfg, 0);
        assert!(model.stats.is_some());
        let mut v = serde_json::to_value(&model);
        let serde_json::Value::Obj(entries) = &mut v else {
            panic!("model is an object")
        };
        entries.retain(|(k, _)| k != "stats");
        let json = serde_json::to_string(&v).unwrap();
        let back: MlKernelModel = serde_json::from_str(&json).unwrap();
        assert!(back.stats.is_none());
        assert_eq!(back.correction.to_bits(), model.correction.to_bits());
    }

    #[test]
    #[should_panic(expected = "family mismatch")]
    fn predict_wrong_family_panics() {
        let dev = DeviceSpec::v100();
        let mut mb = Microbenchmark::new(&dev, 1, 3);
        let samples = mb.measure(&gemm_specs(30, 1));
        let cfg = TrainConfig {
            epochs: 5,
            width: 16,
            ..Default::default()
        };
        let model = MlKernelModel::train(&samples, &cfg, 0);
        model.predict(&KernelSpec::memcpy_d2d(64));
    }
}
