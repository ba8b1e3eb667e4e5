//! Trace-calibrated scaling of kernel models.
//!
//! The Habitat-style transfer step of ROADMAP item 4: when a corpus of
//! real traces from some device is ingested, the robust calibration in
//! `dlperf-core` fits one multiplicative scale factor per kernel family
//! (observed median over reference median, after MAD outlier
//! rejection). [`ScaledModel`] applies such a factor on top of an
//! existing [`KernelPerfModel`] without retraining it, and
//! [`crate::ModelRegistry::with_scale_factors`] rewraps a whole registry
//! so every downstream predictor picks the correction up transparently.

use std::sync::Arc;

use dlperf_gpusim::KernelSpec;
use dlperf_nn::arena::ScratchArena;

use crate::registry::KernelPerfModel;

/// A [`KernelPerfModel`] whose predictions are multiplied by a fixed,
/// trace-fitted scale factor.
///
/// The batched path scales the tail the inner model's batched path
/// appends, element by element with the identical `f64` multiply
/// (`t * scale` is bitwise `scale * t`: IEEE-754 multiplication is
/// commutative), so the bitwise scalar/batch equivalence contract of
/// [`KernelPerfModel`] is preserved by construction and trace-calibrated
/// registries keep the inner model's batched MLP inference.
pub struct ScaledModel {
    inner: Arc<dyn KernelPerfModel>,
    scale: f64,
}

impl ScaledModel {
    /// Wraps `inner`, multiplying every prediction by `scale`.
    ///
    /// # Panics
    /// `scale` must be positive and finite — a non-positive scale would
    /// silently invert or zero the model instead of correcting it.
    pub fn new(inner: Arc<dyn KernelPerfModel>, scale: f64) -> Self {
        assert!(
            scale.is_finite() && scale > 0.0,
            "scale factor must be positive and finite"
        );
        ScaledModel { inner, scale }
    }

    /// The trace-fitted multiplier.
    pub fn scale(&self) -> f64 {
        self.scale
    }
}

impl KernelPerfModel for ScaledModel {
    fn predict(&self, kernel: &KernelSpec) -> f64 {
        self.scale * self.inner.predict(kernel)
    }

    fn predict_batch_into(
        &self,
        kernels: &[KernelSpec],
        arena: &mut ScratchArena,
        out: &mut Vec<f64>,
    ) {
        let start = out.len();
        self.inner.predict_batch_into(kernels, arena, out);
        for t in &mut out[start..] {
            *t *= self.scale;
        }
    }

    fn name(&self) -> String {
        format!("{} ×{:.3}", self.inner.name(), self.scale)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CalibrationEffort, ModelRegistry};
    use dlperf_gpusim::{DeviceSpec, KernelFamily};

    struct Flat;
    impl KernelPerfModel for Flat {
        fn predict(&self, _k: &KernelSpec) -> f64 {
            10.0
        }
        fn name(&self) -> String {
            "flat".into()
        }
    }

    #[test]
    fn scales_scalar_and_batch_identically() {
        let m = ScaledModel::new(Arc::new(Flat), 1.5);
        let k = KernelSpec::gemm(8, 8, 8);
        assert_eq!(m.predict(&k), 15.0);
        let mut batch = vec![-1.0];
        m.predict_batch_into(
            &[k.clone(), k.clone()],
            &mut ScratchArena::new(),
            &mut batch,
        );
        let scalar = m.predict(&k);
        assert_eq!(
            batch,
            vec![-1.0, scalar, scalar],
            "batch stays bitwise equal to scalar"
        );
        assert!(m.name().contains("flat"));
    }

    #[test]
    #[should_panic(expected = "positive and finite")]
    fn rejects_nonpositive_scale() {
        let _ = ScaledModel::new(Arc::new(Flat), 0.0);
    }

    #[test]
    fn registry_rewrap_scales_only_named_families() {
        let dev = DeviceSpec::v100();
        let reg = ModelRegistry::calibrate(&dev, CalibrationEffort::Quick, 5);
        let k = KernelSpec::gemm(256, 128, 64);
        let base = reg.try_predict(&k).expect("family covered");
        let scaled = reg.with_scale_factors(&[(KernelFamily::Gemm, 2.0)]);
        assert_eq!(scaled.try_predict(&k).expect("still covered"), 2.0 * base);
        // An untouched family predicts exactly as before.
        let copy = KernelSpec::memcpy_d2d(1 << 20);
        assert_eq!(
            scaled.try_predict(&copy).expect("covered"),
            reg.try_predict(&copy).expect("covered"),
        );
    }
}
