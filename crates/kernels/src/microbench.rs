//! Microbenchmark sweeps against the simulated GPU.
//!
//! The paper sweeps up to 30 k tensor shapes per kernel family, warming up
//! for 5 iterations and timing 30. Here each sample is the median of a few
//! noisy simulator measurements; sweeps are seeded and therefore fully
//! reproducible.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use dlperf_faults::{derive_seed, site_key};
use dlperf_gpusim::{DeviceSpec, Gpu, KernelSpec};
use dlperf_runtime::{
    JobContext, JobError, ResumableJob, RunReport, StepOutcome, Supervisor, SupervisorError,
};

/// One measured point.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Sample {
    /// The benchmarked kernel.
    pub kernel: KernelSpec,
    /// Median measured time (µs).
    pub time_us: f64,
}

/// A microbenchmark session bound to one device.
#[derive(Debug)]
pub struct Microbenchmark {
    gpu: Gpu,
    timed_iters: usize,
}

impl Microbenchmark {
    /// Creates a session. `timed_iters` is the number of timed repetitions
    /// whose median becomes the sample (the paper uses 30).
    pub fn new(device: &DeviceSpec, seed: u64, timed_iters: usize) -> Self {
        assert!(timed_iters > 0, "need at least one timed iteration");
        Microbenchmark {
            gpu: Gpu::with_seed(device.clone(), seed),
            timed_iters,
        }
    }

    /// Measures every spec (5 warm-up iterations discarded, median of the
    /// timed iterations kept).
    pub fn measure(&mut self, specs: &[KernelSpec]) -> Vec<Sample> {
        specs
            .iter()
            .map(|k| {
                for _ in 0..5 {
                    let _ = self.gpu.kernel_time(k); // warm-up
                }
                Sample {
                    kernel: k.clone(),
                    time_us: self.gpu.benchmark(k, self.timed_iters),
                }
            })
            .collect()
    }
}

/// A resumable microbenchmark harness: the sweep is split into fixed-size
/// chunks of specs, and each chunk is measured on a **fresh** simulated GPU
/// whose seed is the stateless hash `derive_seed(seed, [site, chunk])`.
///
/// [`Microbenchmark`] carries GPU RNG state across the whole sweep, so its
/// results depend on every measurement that came before — fine for a
/// one-shot calibration, fatal for resume (a run killed mid-sweep could
/// never rebuild the RNG state it lost). Hash-keyed per-chunk seeds make
/// every chunk independent: measuring chunks 0..k, dying, and re-measuring
/// from chunk k yields bitwise-identical samples to a straight-through
/// sweep.
#[derive(Debug, Clone)]
pub struct MicrobenchHarness {
    device: DeviceSpec,
    seed: u64,
    timed_iters: usize,
    chunk_size: usize,
}

impl MicrobenchHarness {
    /// Creates a harness. `chunk_size` is the number of specs measured
    /// between checkpoints when run under a supervisor.
    pub fn new(device: &DeviceSpec, seed: u64, timed_iters: usize, chunk_size: usize) -> Self {
        assert!(timed_iters > 0, "need at least one timed iteration");
        assert!(chunk_size > 0, "need at least one spec per chunk");
        MicrobenchHarness {
            device: device.clone(),
            seed,
            timed_iters,
            chunk_size,
        }
    }

    /// Number of chunks a sweep over `n_specs` splits into.
    pub fn chunk_count(&self, n_specs: usize) -> usize {
        n_specs.div_ceil(self.chunk_size)
    }

    /// Measures one chunk of the sweep on a fresh, hash-seeded GPU.
    /// `chunk_index` alone determines the RNG stream, so chunks can be
    /// measured in any order (or re-measured after a crash) with identical
    /// results.
    pub fn measure_chunk(&self, specs: &[KernelSpec], chunk_index: usize) -> Vec<Sample> {
        let lo = chunk_index * self.chunk_size;
        let hi = (lo + self.chunk_size).min(specs.len());
        assert!(lo < specs.len(), "chunk {chunk_index} is out of range");
        let chunk_seed = derive_seed(
            self.seed,
            &[site_key("kernels.microbench"), chunk_index as u64],
        );
        let mut gpu = Gpu::with_seed(self.device.clone(), chunk_seed);
        specs[lo..hi]
            .iter()
            .map(|k| {
                for _ in 0..5 {
                    let _ = gpu.kernel_time(k); // warm-up
                }
                Sample {
                    kernel: k.clone(),
                    time_us: gpu.benchmark(k, self.timed_iters),
                }
            })
            .collect()
    }

    /// Measures every spec chunk by chunk (the uninterrupted baseline the
    /// supervised sweep is bitwise-compared against).
    pub fn measure(&self, specs: &[KernelSpec]) -> Vec<Sample> {
        (0..self.chunk_count(specs.len()))
            .flat_map(|c| self.measure_chunk(specs, c))
            .collect()
    }

    /// Wraps this harness and a spec list into a [`ResumableJob`] whose
    /// step measures one chunk.
    pub fn job<'a>(&'a self, specs: &'a [KernelSpec]) -> MicrobenchJob<'a> {
        MicrobenchJob {
            harness: self,
            specs,
        }
    }

    /// Runs the sweep under `supervisor`, checkpointing per completed
    /// chunk.
    pub fn measure_supervised(
        &self,
        specs: &[KernelSpec],
        supervisor: &mut Supervisor,
    ) -> (Result<Vec<Sample>, SupervisorError>, RunReport) {
        supervisor.run(&self.job(specs))
    }
}

/// The chunked microbenchmark sweep as a [`ResumableJob`].
#[derive(Debug)]
pub struct MicrobenchJob<'a> {
    harness: &'a MicrobenchHarness,
    specs: &'a [KernelSpec],
}

impl ResumableJob for MicrobenchJob<'_> {
    /// Samples measured so far, in spec order.
    type State = Vec<Sample>;
    type Output = Vec<Sample>;

    fn name(&self) -> &str {
        "kernels.microbench"
    }

    fn initial_state(&self) -> Vec<Sample> {
        Vec::new()
    }

    fn step(&self, state: &mut Vec<Sample>, ctx: &JobContext) -> Result<StepOutcome, JobError> {
        if self.specs.is_empty() {
            return Ok(StepOutcome::Done);
        }
        let chunk_index = ctx.step as usize;
        let expected = chunk_index * self.harness.chunk_size;
        if state.len() != expected {
            return Err(JobError::Failed(format!(
                "checkpoint holds {} samples but chunk {chunk_index} starts at {expected}",
                state.len()
            )));
        }
        state.extend(self.harness.measure_chunk(self.specs, chunk_index));
        Ok(if state.len() == self.specs.len() {
            StepOutcome::Done
        } else {
            StepOutcome::Continue
        })
    }

    fn finish(&self, state: Vec<Sample>) -> Vec<Sample> {
        state
    }
}

fn pick<T: Copy>(rng: &mut StdRng, xs: &[T]) -> T {
    xs[rng.gen_range(0..xs.len())]
}

/// Near-exponential size grid with light jitter, as real sweeps use.
fn exp_sizes(rng: &mut StdRng, lo_pow: u32, hi_pow: u32) -> u64 {
    let base = 1u64 << rng.gen_range(lo_pow..=hi_pow);
    // Occasionally perturb off the power of two to expose quantization.
    match rng.gen_range(0..4) {
        0 => base,
        1 => base + base / 4,
        2 => base - base / 8,
        _ => base + rng.gen_range(0..(base / 2).max(1)),
    }
}

/// GEMM shapes (`addmm`/`bmm`/`linear` all share this sweep).
pub fn gemm_specs(n: usize, seed: u64) -> Vec<KernelSpec> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let batch = pick(&mut rng, &[1u64, 1, 1, 1, 8, 64, 256, 2048]);
            let hi = if batch > 1 { 9 } else { 13 };
            KernelSpec::Gemm {
                m: exp_sizes(&mut rng, 5, hi),
                n: exp_sizes(&mut rng, 5, hi),
                k: exp_sizes(&mut rng, 5, hi),
                batch,
            }
        })
        .collect()
}

/// Embedding-lookup shapes spanning the paper's parameter ranges
/// (`E` from hundreds to tens of millions, `L ≤ 100`).
pub fn embedding_specs(n: usize, backward: bool, seed: u64) -> Vec<KernelSpec> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let b = pick(&mut rng, &[64u64, 128, 256, 512, 1024, 2048, 4096]);
            let e = pick(
                &mut rng,
                &[
                    500u64, 1_000, 5_000, 20_000, 80_000, 300_000, 1_000_000, 4_000_000, 10_000_000,
                ],
            );
            let t = pick(&mut rng, &[1u64, 2, 4, 8, 16, 26]);
            let l = pick(&mut rng, &[1u64, 2, 5, 10, 30, 100]);
            let d = pick(&mut rng, &[16u64, 32, 64, 128, 256]);
            if backward {
                KernelSpec::embedding_backward(b, e, t, l, d)
            } else {
                KernelSpec::embedding_forward(b, e, t, l, d)
            }
        })
        .collect()
}

/// Memory sweeps: D2D copies, H2D copies, concats, and element-wise sizes.
pub fn memory_specs(n: usize, seed: u64) -> Vec<KernelSpec> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|i| {
            let bytes = exp_sizes(&mut rng, 10, 27);
            match i % 4 {
                0 => KernelSpec::memcpy_d2d(bytes),
                1 => KernelSpec::memcpy_h2d(bytes),
                2 => KernelSpec::Concat { bytes },
                _ => KernelSpec::Elementwise {
                    elems: bytes / 8,
                    flops_per_elem: pick(&mut rng, &[1.0, 2.0, 4.0]),
                    bytes_per_elem: pick(&mut rng, &[8.0, 12.0, 16.0]),
                },
            }
        })
        .collect()
}

/// Batched-transpose shapes (the only permutation DLRM uses).
pub fn transpose_specs(n: usize, seed: u64) -> Vec<KernelSpec> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| KernelSpec::Transpose {
            batch: pick(&mut rng, &[1u64, 64, 256, 1024, 2048, 4096]),
            rows: exp_sizes(&mut rng, 3, 9),
            cols: exp_sizes(&mut rng, 3, 9),
        })
        .collect()
}

/// `tril` shapes: interaction matrices are `(T+1) × (T+1)` with `T ≤ ~64`.
pub fn tril_specs(n: usize, backward: bool, seed: u64) -> Vec<KernelSpec> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let batch = pick(&mut rng, &[64u64, 256, 512, 1024, 2048, 4096]);
            let nn = rng.gen_range(3..64u64);
            if backward {
                KernelSpec::TrilBackward { batch, n: nn }
            } else {
                KernelSpec::TrilForward { batch, n: nn }
            }
        })
        .collect()
}

/// Convolution shapes covering ResNet/Inception layers (including the 1×7
/// and 7×1 factorized filters).
pub fn conv_specs(n: usize, seed: u64) -> Vec<KernelSpec> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let (kh, kw) = pick(
                &mut rng,
                &[
                    (1u64, 1u64),
                    (3, 3),
                    (5, 5),
                    (7, 7),
                    (1, 7),
                    (7, 1),
                    (1, 3),
                    (3, 1),
                ],
            );
            let hw = pick(&mut rng, &[7u64, 8, 14, 17, 28, 35, 56, 112, 149]);
            KernelSpec::Conv2d {
                batch: pick(&mut rng, &[8u64, 16, 32, 64]),
                c_in: pick(&mut rng, &[3u64, 32, 64, 128, 256, 512, 1024, 1280, 2048]),
                h: hw,
                w: hw,
                c_out: pick(&mut rng, &[32u64, 64, 128, 192, 256, 384, 448, 512, 640]),
                kh,
                kw,
                stride: pick(&mut rng, &[1u64, 1, 1, 2]),
                pad: kh.max(kw) / 2,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlperf_gpusim::KernelFamily;

    #[test]
    fn sweeps_are_deterministic() {
        assert_eq!(gemm_specs(20, 7), gemm_specs(20, 7));
        assert_ne!(gemm_specs(20, 7), gemm_specs(20, 8));
    }

    #[test]
    fn measure_returns_positive_medians() {
        let mut mb = Microbenchmark::new(&DeviceSpec::v100(), 1, 7);
        let samples = mb.measure(&gemm_specs(5, 2));
        assert_eq!(samples.len(), 5);
        assert!(samples.iter().all(|s| s.time_us > 0.0));
    }

    #[test]
    fn memory_sweep_covers_all_kinds() {
        let specs = memory_specs(16, 3);
        let fams: std::collections::HashSet<KernelFamily> =
            specs.iter().map(|s| s.family()).collect();
        assert!(fams.contains(&KernelFamily::Memcpy));
        assert!(fams.contains(&KernelFamily::Concat));
        assert!(fams.contains(&KernelFamily::Elementwise));
    }

    #[test]
    fn embedding_sweep_spans_small_and_large_tables() {
        let specs = embedding_specs(200, false, 4);
        let es: Vec<u64> = specs
            .iter()
            .map(|s| match s {
                KernelSpec::EmbeddingForward { e, .. } => *e,
                _ => unreachable!(),
            })
            .collect();
        assert!(es.iter().any(|&e| e < 10_000));
        assert!(es.iter().any(|&e| e > 1_000_000));
    }

    #[test]
    #[should_panic(expected = "timed iteration")]
    fn zero_iters_panics() {
        Microbenchmark::new(&DeviceSpec::v100(), 0, 0);
    }

    #[test]
    fn harness_chunks_are_order_independent() {
        let harness = MicrobenchHarness::new(&DeviceSpec::v100(), 9, 5, 4);
        let specs = gemm_specs(10, 3);
        assert_eq!(harness.chunk_count(specs.len()), 3);
        let straight = harness.measure(&specs);
        assert_eq!(straight.len(), 10);
        // Re-measuring any chunk in isolation reproduces its samples bitwise.
        for c in (0..3).rev() {
            let again = harness.measure_chunk(&specs, c);
            let lo = c * 4;
            for (a, b) in again.iter().zip(&straight[lo..]) {
                assert_eq!(a.kernel, b.kernel);
                assert_eq!(a.time_us.to_bits(), b.time_us.to_bits());
            }
        }
    }

    #[test]
    fn supervised_sweep_matches_straight_sweep_bitwise() {
        let harness = MicrobenchHarness::new(&DeviceSpec::v100(), 17, 5, 3);
        let specs = gemm_specs(8, 5);
        let straight = harness.measure(&specs);
        let mut sup = dlperf_runtime::Supervisor::new(dlperf_runtime::SupervisorConfig::default());
        let (out, report) = harness.measure_supervised(&specs, &mut sup);
        let supervised = out.expect("supervised sweep completes");
        assert_eq!(report.steps_run, 3, "ceil(8/3) chunks");
        assert_eq!(supervised.len(), straight.len());
        for (a, b) in supervised.iter().zip(&straight) {
            assert_eq!(a.time_us.to_bits(), b.time_us.to_bits());
        }
    }
}
