//! Fault-induced slowdown profiles.
//!
//! A [`SlowdownProfile`] describes how a degraded GPU deviates from its
//! healthy analytic timing: a global multiplier (straggler ranks, dusty
//! heatsinks), per-kernel-family multipliers (e.g. a contended memory
//! subsystem slowing only bandwidth-bound kernels), and thermal-throttle
//! windows during which clocks drop for a span of simulated time. The
//! profile is pure data — serializable, clonable, and deterministic — so a
//! fault scenario can be stored next to the experiment that used it.
//!
//! [`crate::Gpu::kernel_time_at`] consults the profile with the kernel's
//! scheduled start time, which is how time-windowed throttling composes
//! with the discrete-event engines in `dlperf-trace` / `dlperf-distrib`.

use serde::{Deserialize, Serialize};

use crate::kernel::KernelFamily;

/// A span of simulated time during which the GPU runs slower (DVFS
/// throttling after a thermal or power excursion).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ThermalWindow {
    /// Window start (µs on the engine's simulated clock).
    pub start_us: f64,
    /// Window end (µs, exclusive).
    pub end_us: f64,
    /// Multiplier applied to kernel times started inside the window (≥ 1).
    pub factor: f64,
}

impl ThermalWindow {
    /// Whether `t_us` falls inside this window.
    pub fn contains(&self, t_us: f64) -> bool {
        t_us >= self.start_us && t_us < self.end_us
    }
}

/// A deterministic description of how a GPU's kernel times are inflated.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SlowdownProfile {
    /// Multiplier applied to every kernel (1 = healthy).
    pub global: f64,
    /// Extra multipliers for specific kernel families.
    pub per_family: Vec<(KernelFamily, f64)>,
    /// Time-windowed throttle spans.
    pub thermal_windows: Vec<ThermalWindow>,
}

impl Default for SlowdownProfile {
    fn default() -> Self {
        Self::identity()
    }
}

impl SlowdownProfile {
    /// The no-op profile: every factor is 1.
    pub fn identity() -> Self {
        SlowdownProfile {
            global: 1.0,
            per_family: Vec::new(),
            thermal_windows: Vec::new(),
        }
    }

    /// A uniform slowdown of every kernel by `factor`.
    pub fn uniform(factor: f64) -> Self {
        assert!(
            factor > 0.0 && factor.is_finite(),
            "slowdown factor must be positive and finite"
        );
        SlowdownProfile {
            global: factor,
            ..Self::identity()
        }
    }

    /// Adds (or compounds) a per-family multiplier (builder style).
    pub fn with_family(mut self, family: KernelFamily, factor: f64) -> Self {
        assert!(
            factor > 0.0 && factor.is_finite(),
            "slowdown factor must be positive and finite"
        );
        match self.per_family.iter_mut().find(|(f, _)| *f == family) {
            Some((_, existing)) => *existing *= factor,
            None => self.per_family.push((family, factor)),
        }
        self
    }

    /// Adds a thermal-throttle window (builder style).
    pub fn with_thermal_window(mut self, window: ThermalWindow) -> Self {
        assert!(
            window.start_us < window.end_us && window.factor > 0.0 && window.factor.is_finite(),
            "thermal window must have positive span and factor"
        );
        self.thermal_windows.push(window);
        self
    }

    /// Whether this profile changes nothing.
    pub fn is_identity(&self) -> bool {
        self.global == 1.0 && self.per_family.is_empty() && self.thermal_windows.is_empty()
    }

    /// The combined multiplier for a kernel of `family` starting at `t_us`.
    pub fn factor_at(&self, family: KernelFamily, t_us: f64) -> f64 {
        let mut f = self.global;
        for (fam, factor) in &self.per_family {
            if *fam == family {
                f *= factor;
            }
        }
        for w in &self.thermal_windows {
            if w.contains(t_us) {
                f *= w.factor;
            }
        }
        f
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_is_one_everywhere() {
        let p = SlowdownProfile::identity();
        assert!(p.is_identity());
        assert_eq!(p.factor_at(KernelFamily::Gemm, 0.0), 1.0);
        assert_eq!(p.factor_at(KernelFamily::Memcpy, 1e9), 1.0);
    }

    #[test]
    fn factors_compose_multiplicatively() {
        let p = SlowdownProfile::uniform(2.0)
            .with_family(KernelFamily::Gemm, 1.5)
            .with_thermal_window(ThermalWindow {
                start_us: 100.0,
                end_us: 200.0,
                factor: 3.0,
            });
        assert_eq!(p.factor_at(KernelFamily::Gemm, 0.0), 3.0);
        assert_eq!(p.factor_at(KernelFamily::Memcpy, 0.0), 2.0);
        assert_eq!(p.factor_at(KernelFamily::Gemm, 150.0), 9.0);
        // Window end is exclusive.
        assert_eq!(p.factor_at(KernelFamily::Gemm, 200.0), 3.0);
    }

    #[test]
    fn repeated_family_entries_compound() {
        let p = SlowdownProfile::identity()
            .with_family(KernelFamily::Gemm, 2.0)
            .with_family(KernelFamily::Gemm, 3.0);
        assert_eq!(p.factor_at(KernelFamily::Gemm, 0.0), 6.0);
    }

    #[test]
    fn serde_round_trips() {
        let p = SlowdownProfile::uniform(1.7)
            .with_family(KernelFamily::EmbeddingForward, 2.0)
            .with_thermal_window(ThermalWindow {
                start_us: 0.0,
                end_us: 50.0,
                factor: 1.3,
            });
        let json = serde_json::to_string(&p).unwrap();
        let back: SlowdownProfile = serde_json::from_str(&json).unwrap();
        assert_eq!(p, back);
    }

    #[test]
    #[should_panic(expected = "positive and finite")]
    fn zero_factor_panics() {
        SlowdownProfile::uniform(0.0);
    }
}
