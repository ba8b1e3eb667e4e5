//! Ground-truth host-overhead distributions of the simulated platform.
//!
//! On real hardware the five overhead types of Fig. 6 come from the Python
//! dispatcher, ATen, and the CUDA runtime; their magnitudes depend on the
//! host CPU, not on tensor sizes (the paper's *size-independence*
//! assumption) nor the model (*model-independence*). The simulator therefore
//! draws each overhead from a per-(op-type, overhead-type) log-normal
//! distribution whose mean depends only on the op type — with a long right
//! tail, which is what makes trimmed-mean prediction slightly underestimate
//! E2E time, exactly as the paper observes.

use rand::Rng;
use rand_distr::{Distribution, LogNormal};
use serde::{Deserialize, Serialize};

use crate::extract::OverheadType;

/// A log-normal overhead distribution specified by its mean and coefficient
/// of variation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OverheadDist {
    /// Mean in microseconds.
    pub mean_us: f64,
    /// Coefficient of variation (std / mean).
    pub cv: f64,
}

impl OverheadDist {
    /// Creates a distribution.
    ///
    /// # Panics
    /// Panics if the mean is not positive or the CV is negative.
    pub fn new(mean_us: f64, cv: f64) -> Self {
        assert!(mean_us > 0.0, "overhead mean must be positive");
        assert!(cv >= 0.0, "cv must be non-negative");
        OverheadDist { mean_us, cv }
    }

    /// Draws one sample (µs). Log-normal parameterized to match the
    /// requested mean and CV.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        if self.cv == 0.0 {
            return self.mean_us;
        }
        let sigma2 = (1.0 + self.cv * self.cv).ln();
        let mu = self.mean_us.ln() - sigma2 / 2.0;
        LogNormal::new(mu, sigma2.sqrt())
            .expect("valid lognormal")
            .sample(rng)
    }
}

/// Ground-truth overhead distributions of a training platform.
///
/// The per-type base means are modulated by a deterministic per-op factor
/// (derived from a hash of the op-type key), so different op types have
/// different — but stable — overhead statistics, as Fig. 8 shows.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct OverheadProfile {
    /// Base mean (µs) and CV per overhead type, indexed by `OverheadType`.
    pub base: [OverheadDist; 5],
    /// Spread of the per-op modulation factor around 1.0 (0 disables it).
    pub per_op_spread: f64,
}

impl OverheadProfile {
    /// A typical server host driving one GPU through the PyTorch eager
    /// dispatcher: T1 ≈ 14 µs between top-level ops (Python + dispatcher),
    /// T2 ≈ 6 µs, T3 ≈ 3.5 µs, T4 ≈ 12 µs per CUDA runtime call, T5 ≈ 2.5 µs
    /// between launches.
    pub fn typical_server() -> Self {
        OverheadProfile {
            base: [
                OverheadDist::new(14.0, 0.55), // T1: between top-level ops (long tail)
                OverheadDist::new(6.0, 0.40),  // T2: op entry to first launch
                OverheadDist::new(3.5, 0.40),  // T3: last launch to op exit
                OverheadDist::new(12.0, 0.45), // T4: CUDA runtime call (long tail)
                OverheadDist::new(2.5, 0.35),  // T5: between launches
            ],
            per_op_spread: 0.35,
        }
    }

    /// A slower host (older CPU, e.g. the TITAN Xp workstation platform).
    pub fn slow_workstation() -> Self {
        let mut p = Self::typical_server();
        for d in &mut p.base {
            d.mean_us *= 1.35;
        }
        p
    }

    /// Deterministic per-op modulation factor in
    /// `[1 − spread, 1 + spread]`, stable across runs and processes.
    pub fn op_factor(&self, op_key: &str) -> f64 {
        if self.per_op_spread == 0.0 {
            return 1.0;
        }
        // FNV-1a, stable across platforms (unlike `DefaultHasher`).
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in op_key.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        let unit = (h % 10_000) as f64 / 10_000.0; // [0, 1)
        1.0 - self.per_op_spread + 2.0 * self.per_op_spread * unit
    }

    /// The ground-truth mean (µs) of one overhead type for one op type.
    pub fn mean_us(&self, op_key: &str, ty: OverheadType) -> f64 {
        self.base[ty as usize].mean_us * self.op_factor(op_key)
    }

    /// Draws one overhead sample (µs) for an op type.
    pub fn sample<R: Rng + ?Sized>(&self, op_key: &str, ty: OverheadType, rng: &mut R) -> f64 {
        let base = self.base[ty as usize];
        OverheadDist::new(base.mean_us * self.op_factor(op_key), base.cv).sample(rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn sample_mean_matches_requested_mean() {
        let d = OverheadDist::new(8.0, 0.5);
        let mut rng = StdRng::seed_from_u64(1);
        let n = 50_000;
        let m: f64 = (0..n).map(|_| d.sample(&mut rng)).sum::<f64>() / n as f64;
        assert!((m - 8.0).abs() / 8.0 < 0.02, "sample mean {m}");
    }

    #[test]
    fn lognormal_has_right_tail() {
        let d = OverheadDist::new(8.0, 0.5);
        let mut rng = StdRng::seed_from_u64(2);
        let samples: Vec<f64> = (0..20_000).map(|_| d.sample(&mut rng)).collect();
        let mean = crate::stats::mean(&samples);
        let mut sorted = samples.clone();
        sorted.sort_by(|a, b| a.total_cmp(b));
        let median = sorted[sorted.len() / 2];
        assert!(mean > median, "long right tail implies mean > median");
    }

    #[test]
    fn op_factor_deterministic_and_bounded() {
        let p = OverheadProfile::typical_server();
        let f1 = p.op_factor("aten::addmm");
        let f2 = p.op_factor("aten::addmm");
        assert_eq!(f1, f2);
        for key in ["aten::addmm", "aten::relu", "aten::bmm", "Optimizer.step"] {
            let f = p.op_factor(key);
            assert!((0.65..=1.35).contains(&f), "factor {f} for {key}");
        }
        assert_ne!(p.op_factor("aten::addmm"), p.op_factor("aten::relu"));
    }

    #[test]
    fn zero_cv_is_deterministic() {
        let d = OverheadDist::new(5.0, 0.0);
        let mut rng = StdRng::seed_from_u64(3);
        assert_eq!(d.sample(&mut rng), 5.0);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_mean_panics() {
        OverheadDist::new(0.0, 0.1);
    }
}
