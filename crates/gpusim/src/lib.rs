//! # dlperf-gpusim
//!
//! An analytic GPU timing simulator that stands in for the real NVIDIA GPUs
//! (Tesla V100, Tesla P100, GeForce GTX TITAN Xp) used in the ISPASS 2022
//! paper *"Building a Performance Model for Deep Learning Recommendation
//! Model Training on GPUs"*.
//!
//! The paper measures kernel execution times on hardware; this crate provides
//! the measurement substrate for the reproduction. It is intentionally a
//! *richer* model than the closed-form performance models in
//! `dlperf-kernels`: it models tile and wave quantization for GEMM kernels,
//! an L2-cache reuse model for embedding lookups, size-dependent bandwidth
//! ramp curves for memory-bound kernels, and multiplicative measurement
//! noise. The performance models under evaluation therefore exhibit
//! realistic, non-trivial prediction error against it.
//!
//! All times are in **microseconds** (`f64`), matching the magnitudes the
//! paper reports for per-kernel and per-batch quantities.
//!
//! ## Example
//!
//! ```
//! use dlperf_gpusim::{Gpu, DeviceSpec, KernelSpec};
//!
//! let gpu = Gpu::noiseless(DeviceSpec::v100());
//! let gemm = KernelSpec::gemm(2048, 1024, 1024);
//! let t = gpu.kernel_time_noiseless(&gemm);
//! assert!(t > 0.0);
//! ```

pub mod collective;
pub mod conv;
pub mod device;
pub mod elementwise;
pub mod embedding;
pub mod gemm;
pub mod interconnect;
pub mod kernel;
pub mod memory;
pub mod noise;
pub mod slowdown;
pub mod transpose;

pub use collective::{CollectiveKind, CollectiveSpec};
pub use device::DeviceSpec;
pub use interconnect::{CollectiveAlgo, Link, LinkGraph, LinkSpec};
pub use kernel::{KernelFamily, KernelSpec, MemcpyKind};
pub use noise::NoiseModel;
pub use slowdown::{SlowdownProfile, ThermalWindow};

use rand::rngs::StdRng;
use rand::SeedableRng;

/// A simulated GPU: a device specification plus a measurement-noise model.
///
/// `Gpu` is the only entry point other crates need: hand it a
/// [`KernelSpec`] and it returns the simulated execution time in
/// microseconds, either noiseless (the "true" analytic time) or with the
/// measurement noise a profiler would observe.
#[derive(Debug, Clone)]
pub struct Gpu {
    spec: DeviceSpec,
    noise: NoiseModel,
    slowdown: SlowdownProfile,
    rng: StdRng,
}

impl Gpu {
    /// Creates a simulated GPU with the default noise model and a fixed seed.
    pub fn new(spec: DeviceSpec) -> Self {
        Self::with_seed(spec, 0x5eed)
    }

    /// Creates a simulated GPU with the default noise model and a caller
    /// chosen seed, so independent experiments observe independent noise.
    pub fn with_seed(spec: DeviceSpec, seed: u64) -> Self {
        Gpu {
            spec,
            noise: NoiseModel::default(),
            slowdown: SlowdownProfile::identity(),
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Creates a simulated GPU whose measurements carry no noise at all.
    ///
    /// Useful in tests that need exact reproducibility of the analytic model.
    pub fn noiseless(spec: DeviceSpec) -> Self {
        Gpu {
            spec,
            noise: NoiseModel::disabled(),
            slowdown: SlowdownProfile::identity(),
            rng: StdRng::seed_from_u64(0),
        }
    }

    /// The device specification of this GPU.
    pub fn spec(&self) -> &DeviceSpec {
        &self.spec
    }

    /// Installs a fault-induced slowdown profile; kernel times are scaled
    /// by it (see [`Gpu::kernel_time_at`]).
    pub fn set_slowdown(&mut self, slowdown: SlowdownProfile) {
        self.slowdown = slowdown;
    }

    /// The active slowdown profile.
    pub fn slowdown(&self) -> &SlowdownProfile {
        &self.slowdown
    }

    /// Simulated execution time of `kernel` in microseconds, without noise.
    ///
    /// This is the deterministic analytic time: calling it repeatedly with
    /// the same kernel always returns the same value.
    pub fn kernel_time_noiseless(&self, kernel: &KernelSpec) -> f64 {
        kernel::simulate(&self.spec, kernel)
    }

    /// Simulated *measured* execution time of `kernel` in microseconds.
    ///
    /// Applies the noise model on top of the analytic time, emulating the
    /// run-to-run variation a profiler observes on real hardware.
    pub fn kernel_time(&mut self, kernel: &KernelSpec) -> f64 {
        let t = self.kernel_time_noiseless(kernel) * self.slowdown.factor_at(kernel.family(), 0.0);
        self.noise.perturb(t, &mut self.rng)
    }

    /// Like [`Gpu::kernel_time`], but evaluated at simulated time `t_us` so
    /// the slowdown profile's thermal-throttle windows apply. With the
    /// identity profile this is exactly `kernel_time` (same noise stream).
    pub fn kernel_time_at(&mut self, kernel: &KernelSpec, t_us: f64) -> f64 {
        let t = self.kernel_time_noiseless(kernel) * self.slowdown.factor_at(kernel.family(), t_us);
        self.noise.perturb(t, &mut self.rng)
    }

    /// Median of `iters` noisy measurements, emulating the paper's
    /// benchmarking methodology (warm-up followed by repeated timing).
    pub fn benchmark(&mut self, kernel: &KernelSpec, iters: usize) -> f64 {
        assert!(iters > 0, "benchmark requires at least one iteration");
        let mut samples: Vec<f64> = (0..iters).map(|_| self.kernel_time(kernel)).collect();
        samples.sort_by(|a, b| a.total_cmp(b));
        samples[samples.len() / 2]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noiseless_is_deterministic() {
        let gpu = Gpu::noiseless(DeviceSpec::v100());
        let k = KernelSpec::gemm(512, 512, 512);
        assert_eq!(gpu.kernel_time_noiseless(&k), gpu.kernel_time_noiseless(&k));
    }

    #[test]
    fn noisy_measurements_vary_but_stay_close() {
        let mut gpu = Gpu::new(DeviceSpec::v100());
        let k = KernelSpec::gemm(1024, 1024, 1024);
        let base = gpu.kernel_time_noiseless(&k);
        let a = gpu.kernel_time(&k);
        let b = gpu.kernel_time(&k);
        assert_ne!(a, b);
        for t in [a, b] {
            assert!(
                (t - base).abs() / base < 0.5,
                "noise too large: {t} vs {base}"
            );
        }
    }

    #[test]
    fn benchmark_median_reduces_noise() {
        let mut gpu = Gpu::new(DeviceSpec::p100());
        let k = KernelSpec::memcpy_d2d(1 << 20);
        let base = gpu.kernel_time_noiseless(&k);
        let med = gpu.benchmark(&k, 31);
        assert!((med - base).abs() / base < 0.1);
    }

    #[test]
    fn slowdown_scales_kernel_time() {
        let k = KernelSpec::gemm(512, 512, 512);
        let mut healthy = Gpu::noiseless(DeviceSpec::v100());
        let mut slow = Gpu::noiseless(DeviceSpec::v100());
        slow.set_slowdown(SlowdownProfile::uniform(2.0));
        let t = healthy.kernel_time_at(&k, 0.0);
        assert!((slow.kernel_time_at(&k, 0.0) - 2.0 * t).abs() < 1e-9);
    }

    #[test]
    fn thermal_window_applies_only_inside_span() {
        let k = KernelSpec::gemm(256, 256, 256);
        let mut gpu = Gpu::noiseless(DeviceSpec::v100());
        let base = gpu.kernel_time_noiseless(&k);
        gpu.set_slowdown(
            SlowdownProfile::identity().with_thermal_window(ThermalWindow {
                start_us: 1000.0,
                end_us: 2000.0,
                factor: 1.5,
            }),
        );
        assert!((gpu.kernel_time_at(&k, 500.0) - base).abs() < 1e-9);
        assert!((gpu.kernel_time_at(&k, 1500.0) - 1.5 * base).abs() < 1e-9);
        assert!((gpu.kernel_time_at(&k, 2500.0) - base).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "at least one iteration")]
    fn benchmark_zero_iters_panics() {
        let mut gpu = Gpu::new(DeviceSpec::titan_xp());
        gpu.benchmark(&KernelSpec::gemm(8, 8, 8), 0);
    }
}
