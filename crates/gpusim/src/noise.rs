//! Measurement-noise model.
//!
//! Profiled kernel times on real hardware vary run to run (clock residency,
//! scheduling, DVFS). The paper controls this by fixing application clocks
//! and disabling turbo boost, leaving a few percent of jitter. The model
//! here is multiplicative log-normal noise plus a small additive jitter so
//! that very short kernels show proportionally larger variation, as they do
//! in practice.

use rand::Rng;
use rand_distr::{Distribution, LogNormal};
use serde::{Deserialize, Serialize};

/// Multiplicative + additive measurement noise applied to simulated times.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct NoiseModel {
    /// Standard deviation of the log of the multiplicative factor.
    pub sigma: f64,
    /// Additive jitter amplitude in microseconds (uniform ±).
    pub jitter_us: f64,
    /// Whether noise is applied at all.
    pub enabled: bool,
}

impl Default for NoiseModel {
    /// Default calibration: ≈2.5% multiplicative, ±0.15 µs additive.
    fn default() -> Self {
        NoiseModel {
            sigma: 0.025,
            jitter_us: 0.15,
            enabled: true,
        }
    }
}

impl NoiseModel {
    /// A noise model that never perturbs anything.
    pub fn disabled() -> Self {
        NoiseModel {
            sigma: 0.0,
            jitter_us: 0.0,
            enabled: false,
        }
    }

    /// A noise model with custom multiplicative sigma and additive jitter.
    pub fn new(sigma: f64, jitter_us: f64) -> Self {
        assert!(
            sigma >= 0.0 && jitter_us >= 0.0,
            "noise parameters must be non-negative"
        );
        NoiseModel {
            sigma,
            jitter_us,
            enabled: true,
        }
    }

    /// Applies the noise to a time `t_us`, never returning a negative value.
    pub fn perturb<R: Rng + ?Sized>(&self, t_us: f64, rng: &mut R) -> f64 {
        if !self.enabled {
            return t_us;
        }
        let mult = if self.sigma > 0.0 {
            LogNormal::new(0.0, self.sigma)
                .expect("valid lognormal")
                .sample(rng)
        } else {
            1.0
        };
        let add = if self.jitter_us > 0.0 {
            rng.gen_range(-self.jitter_us..self.jitter_us)
        } else {
            0.0
        };
        (t_us * mult + add).max(0.01)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn disabled_noise_is_identity() {
        let n = NoiseModel::disabled();
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(n.perturb(42.0, &mut rng), 42.0);
    }

    #[test]
    fn noise_is_unbiased_to_first_order() {
        let n = NoiseModel::default();
        let mut rng = StdRng::seed_from_u64(7);
        let base = 100.0;
        let mean: f64 = (0..20_000).map(|_| n.perturb(base, &mut rng)).sum::<f64>() / 20_000.0;
        assert!(
            (mean - base).abs() / base < 0.01,
            "mean {mean} drifted from {base}"
        );
    }

    #[test]
    fn never_negative() {
        let n = NoiseModel::new(0.5, 5.0);
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..10_000 {
            assert!(n.perturb(0.02, &mut rng) > 0.0);
        }
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_sigma_panics() {
        NoiseModel::new(-0.1, 0.0);
    }
}
