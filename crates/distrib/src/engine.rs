//! The lockstep multi-GPU engine: simulated measurement of one
//! hybrid-parallel training iteration.
//!
//! Each rank executes its compute segments on its own simulated GPU (with
//! independent noise); every collective is a barrier — it starts when the
//! slowest rank arrives and all ranks leave together, as NCCL-synchronized
//! training behaves.
//!
//! A [`dlperf_faults::FaultPlan`] can be installed on the engine: straggler
//! ranks and kernel slowdowns degrade the per-rank engines, and collectives
//! run under a timeout + exponential-backoff retry model whose penalties
//! (and eventual drops) are surfaced in [`DistributedRunResult`] instead of
//! aborting the run.

use rand::rngs::StdRng;
use rand::SeedableRng;
use rand_distr::{Distribution, LogNormal};

use dlperf_faults::{FaultInjector, FaultPlan};
use dlperf_gpusim::DeviceSpec;
use dlperf_trace::engine::{EngineError, ExecutionEngine};

use crate::builder::DistributedDlrm;
use crate::comms::CommModel;
use crate::topology::Topology;

/// Measured timeline of one distributed iteration.
#[derive(Debug, Clone, PartialEq)]
pub struct DistributedRunResult {
    /// End-to-end iteration time (µs).
    pub e2e_us: f64,
    /// Per-segment compute time: `max` over ranks (µs), S1..S4.
    pub segment_us: [f64; 4],
    /// Per-collective time (µs), C1..C3 — includes any retry penalties.
    pub comm_us: [f64; 3],
    /// Per-rank per-segment compute times (`[rank][segment]`).
    pub per_rank_us: Vec<[f64; 4]>,
    /// Total collective retries this iteration (0 when healthy).
    pub collective_retries: u32,
    /// Latency added by collective timeouts and backoff (µs); already
    /// folded into `comm_us` so the timeline stays consistent.
    pub retry_added_us: f64,
    /// Which collectives (C1..C3) were abandoned after exhausting retries.
    pub dropped_collectives: [bool; 3],
    /// Human-readable degradation notes (empty when nothing degraded).
    pub degradation: Vec<String>,
}

impl DistributedRunResult {
    /// Fraction of the iteration spent in collectives.
    pub fn comm_share(&self) -> f64 {
        self.comm_us.iter().sum::<f64>() / self.e2e_us
    }

    /// Compute imbalance of a segment: max / mean over ranks (1 = balanced).
    pub fn segment_imbalance(&self, segment: usize) -> f64 {
        let vals: Vec<f64> = self.per_rank_us.iter().map(|r| r[segment]).collect();
        let mean = vals.iter().sum::<f64>() / vals.len() as f64;
        if mean == 0.0 {
            1.0
        } else {
            vals.iter().copied().fold(0.0f64, f64::max) / mean
        }
    }
}

/// Process-wide cluster-engine counters — iteration counts and degradation
/// totals across every [`MultiGpuEngine`] instance; per-run numbers stay in
/// [`DistributedRunResult`].
struct EngineCounters {
    _group: std::sync::Arc<dlperf_obs::CounterGroup>,
    runs: dlperf_obs::CounterHandle,
    collective_retries: dlperf_obs::CounterHandle,
    dropped_collectives: dlperf_obs::CounterHandle,
}

fn engine_counters() -> &'static EngineCounters {
    static G: std::sync::OnceLock<EngineCounters> = std::sync::OnceLock::new();
    G.get_or_init(|| {
        let group = dlperf_obs::CounterGroup::register(
            "distrib.engine",
            &["runs", "collective_retries", "dropped_collectives"],
        );
        EngineCounters {
            runs: group.handle("runs"),
            collective_retries: group.handle("collective_retries"),
            dropped_collectives: group.handle("dropped_collectives"),
            _group: group,
        }
    })
}

/// A homogeneous cluster of simulated GPUs.
#[derive(Debug)]
pub struct MultiGpuEngine {
    device: DeviceSpec,
    seed: u64,
    rng: StdRng,
    profiling: bool,
    injector: Option<FaultInjector>,
    /// Iteration counter keying per-iteration fault sites.
    iteration: u64,
    /// Wall-clock budget (µs) for collective retry penalties per
    /// collective; `None` retries to the plan's `max_retries` unbounded.
    retry_deadline_us: Option<f64>,
}

impl MultiGpuEngine {
    /// Creates a cluster engine of identical `device`s.
    pub fn new(device: DeviceSpec, seed: u64) -> Self {
        MultiGpuEngine {
            device,
            seed,
            rng: StdRng::seed_from_u64(seed ^ 0xc0),
            profiling: false,
            injector: None,
            iteration: 0,
            retry_deadline_us: None,
        }
    }

    /// Creates a cluster engine with a fault plan installed.
    pub fn with_faults(device: DeviceSpec, seed: u64, plan: FaultPlan) -> Self {
        let mut e = Self::new(device, seed);
        e.set_fault_plan(plan);
        e
    }

    /// Enables profiler-overhead injection in per-rank runs.
    pub fn set_profiling(&mut self, profiling: bool) {
        self.profiling = profiling;
    }

    /// Installs (or replaces) the fault plan and resets the iteration
    /// counter, so the same engine state + plan replays identically.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.injector = Some(FaultInjector::new(plan));
        self.iteration = 0;
    }

    /// The installed fault plan, if any.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.injector.as_ref().map(FaultInjector::plan)
    }

    /// Caps the retry penalty any single collective may accumulate: once
    /// timeouts + backoff reach the deadline, the collective is dropped
    /// (gradient skipped, as under PR 1's drop semantics) instead of
    /// retrying further. This is the distributed-training analogue of the
    /// supervisor's run deadline — a flaky wire degrades, it does not hang
    /// the job. `None` (the default) restores unbounded retries up to the
    /// plan's `max_retries`.
    ///
    /// Attempt outcomes at a site are unchanged by the deadline (they are
    /// stateless hash draws), so enabling it never reorders which
    /// collectives fail — it only truncates how long failure is allowed
    /// to cost.
    ///
    /// # Panics
    /// Panics if `deadline_us` is negative, NaN, or infinite.
    pub fn set_retry_deadline_us(&mut self, deadline_us: Option<f64>) {
        if let Some(d) = deadline_us {
            assert!(
                d >= 0.0 && d.is_finite(),
                "retry deadline must be non-negative and finite"
            );
        }
        self.retry_deadline_us = deadline_us;
    }

    /// The configured collective retry deadline, if any.
    pub fn retry_deadline_us(&self) -> Option<f64> {
        self.retry_deadline_us
    }

    /// Measures one distributed iteration.
    ///
    /// # Errors
    /// Propagates [`EngineError`]s from malformed segment graphs or
    /// degenerate kernel times.
    pub fn run(&mut self, job: &DistributedDlrm) -> Result<DistributedRunResult, EngineError> {
        let _span = dlperf_obs::span("distrib.run", dlperf_obs::SpanKind::Work);
        let iteration = self.iteration;
        self.iteration += 1;

        let world = job.world();
        let mut degradation = Vec::new();
        // The interconnect is derived from the device class per job (NVLink
        // mesh or PCIe tree).
        let comm_model = CommModel::new(Topology::for_device(&self.device, world));
        if let Some(note) = comm_model.topology().degraded() {
            if iteration == 0 {
                degradation.push(note.to_string());
            }
        }
        let mut per_rank_us = vec![[0.0f64; 4]; world];
        for (rank, rank_us) in per_rank_us.iter_mut().enumerate() {
            let mut engine =
                ExecutionEngine::new(self.device.clone(), self.seed ^ (rank as u64) << 8);
            engine.set_profiling(self.profiling);
            if let Some(inj) = &self.injector {
                let profile = inj.slowdown_profile(rank);
                if !profile.is_identity() {
                    if profile.global != 1.0 && iteration == 0 {
                        degradation.push(format!("rank {rank} straggling ×{:.2}", profile.global));
                    }
                    engine.set_slowdown(profile);
                }
                engine.set_host_jitter(inj.host_jitter_us());
            }
            // The pipeline bubble stretches every segment; ×1 for the
            // other strategies, so the hybrid path is bitwise unchanged.
            let inflation = job.compute_inflation();
            for (i, seg) in job.segments(rank).iter().enumerate() {
                rank_us[i] = engine.run(seg)?.e2e_us * inflation;
            }
        }
        let mut segment_us = [0.0f64; 4];
        for (i, seg) in segment_us.iter_mut().enumerate() {
            *seg = per_rank_us.iter().map(|r| r[i]).fold(0.0, f64::max);
        }

        // Collectives with run-to-run jitter (NCCL timing variance), then
        // the fault plan's timeout/retry model on top.
        let jitter = LogNormal::new(0.0, 0.04).expect("valid lognormal");
        let specs = job.collectives();
        let mut comm_us = [0.0f64; 3];
        let mut collective_retries = 0u32;
        let mut retry_added_us = 0.0f64;
        let mut dropped_collectives = [false; 3];
        for (idx, (c, spec)) in comm_us.iter_mut().zip(&specs).enumerate() {
            let jitter_factor = jitter.sample(&mut self.rng);
            let mut model_us = comm_model.collective_time(spec);
            // A single rank (or an empty payload) exchanges nothing;
            // there is no wire to fail.
            if spec.world <= 1 || spec.bytes_per_rank == 0 {
                *c = model_us * jitter_factor;
                continue;
            }
            if let Some(inj) = &self.injector {
                if let Some(factor) = inj.link_degradation(iteration, idx) {
                    let (us, note) =
                        crate::comms::degraded_link(comm_model.topology(), spec, idx, factor);
                    model_us = us;
                    degradation.push(note);
                }
            }
            let base = model_us * jitter_factor;
            *c = base;
            if let Some(inj) = &self.injector {
                let outcome = inj.collective_outcome_with_budget(
                    iteration,
                    idx,
                    base,
                    self.retry_deadline_us,
                );
                *c = outcome.total_us;
                collective_retries += outcome.retries;
                retry_added_us += outcome.added_latency_us;
                let deadline_hit = outcome.dropped
                    && self
                        .retry_deadline_us
                        .is_some_and(|d| outcome.added_latency_us >= d);
                if outcome.retries > 0 || deadline_hit {
                    degradation.push(format!(
                        "C{} {} {}: {} retr{}, +{:.0} µs{}",
                        idx + 1,
                        spec.kind,
                        if outcome.dropped {
                            "dropped"
                        } else {
                            "recovered"
                        },
                        outcome.retries,
                        if outcome.retries == 1 { "y" } else { "ies" },
                        outcome.added_latency_us,
                        if deadline_hit {
                            " (retry deadline hit)"
                        } else {
                            ""
                        }
                    ));
                }
                if outcome.dropped {
                    dropped_collectives[idx] = true;
                }
            }
        }

        let c = engine_counters();
        c.runs.incr();
        c.collective_retries.add(u64::from(collective_retries));
        c.dropped_collectives
            .add(dropped_collectives.iter().filter(|&&d| d).count() as u64);

        Ok(DistributedRunResult {
            e2e_us: segment_us.iter().sum::<f64>() + comm_us.iter().sum::<f64>(),
            segment_us,
            comm_us,
            per_rank_us,
            collective_retries,
            retry_added_us,
            dropped_collectives,
            degradation,
        })
    }

    /// Mean E2E time over `iters` iterations.
    ///
    /// # Errors
    /// Propagates [`EngineError`]s.
    pub fn measure_e2e(&mut self, job: &DistributedDlrm, iters: usize) -> Result<f64, EngineError> {
        assert!(iters > 0, "need at least one iteration");
        let mut total = 0.0;
        for _ in 0..iters {
            total += self.run(job)?.e2e_us;
        }
        Ok(total / iters as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::ShardingPlan;
    use dlperf_models::DlrmConfig;

    fn job(world: usize, batch: u64) -> DistributedDlrm {
        let cfg = DlrmConfig::default_config(batch);
        let plan = ShardingPlan::round_robin(cfg.rows_per_table.len(), world);
        DistributedDlrm::new(cfg, plan).unwrap()
    }

    #[test]
    fn run_produces_consistent_timeline() {
        let mut e = MultiGpuEngine::new(DeviceSpec::v100(), 1);
        let r = e.run(&job(4, 2048)).unwrap();
        assert!(r.e2e_us > 0.0);
        let parts: f64 = r.segment_us.iter().sum::<f64>() + r.comm_us.iter().sum::<f64>();
        assert!((r.e2e_us - parts).abs() < 1e-9);
        assert!(r.comm_share() > 0.0 && r.comm_share() < 1.0);
    }

    #[test]
    fn single_gpu_has_no_comm() {
        let mut e = MultiGpuEngine::new(DeviceSpec::v100(), 2);
        let r = e.run(&job(1, 2048)).unwrap();
        assert_eq!(r.comm_us, [0.0; 3]);
    }

    #[test]
    fn skewed_plan_creates_segment_imbalance() {
        let cfg = DlrmConfig::default_config(1024);
        let skewed = DistributedDlrm::new(
            cfg.clone(),
            ShardingPlan::new(vec![0, 0, 0, 0, 0, 0, 0, 1], 2).unwrap(),
        )
        .unwrap();
        let balanced = DistributedDlrm::new(cfg, ShardingPlan::round_robin(8, 2)).unwrap();
        let mut e = MultiGpuEngine::new(DeviceSpec::v100(), 3);
        let rs = e.run(&skewed).unwrap();
        let rb = e.run(&balanced).unwrap();
        // S1 contains the embedding forward: the skewed plan must be less
        // balanced there.
        assert!(rs.segment_imbalance(0) > rb.segment_imbalance(0));
    }

    #[test]
    fn healthy_run_reports_no_degradation() {
        let mut e = MultiGpuEngine::new(DeviceSpec::v100(), 5);
        let r = e.run(&job(4, 1024)).unwrap();
        assert_eq!(r.collective_retries, 0);
        assert_eq!(r.retry_added_us, 0.0);
        assert_eq!(r.dropped_collectives, [false; 3]);
        assert!(r.degradation.is_empty());
    }

    #[test]
    fn straggler_rank_inflates_segment_imbalance() {
        let j = job(4, 1024);
        let mut healthy = MultiGpuEngine::new(DeviceSpec::v100(), 6);
        let rh = healthy.run(&j).unwrap();
        // DLRM segments are host-overhead dominated, so a GPU-side straggler
        // needs a large factor before it dominates rank-to-rank noise.
        let mut faulty = MultiGpuEngine::with_faults(
            DeviceSpec::v100(),
            6,
            FaultPlan::healthy(0).with_straggler(0, 10.0),
        );
        let rf = faulty.run(&j).unwrap();
        // The fault is confined to rank 0: every other rank's times are
        // bitwise identical to the healthy run.
        for rank in 1..4 {
            assert_eq!(
                rf.per_rank_us[rank], rh.per_rank_us[rank],
                "rank {rank} was touched"
            );
        }
        for seg in 0..4 {
            assert!(
                rf.per_rank_us[0][seg] > rh.per_rank_us[0][seg],
                "rank 0 S{seg} not slowed"
            );
        }
        assert!(
            rf.segment_imbalance(1) > rh.segment_imbalance(1),
            "straggler should skew S2: {} vs {}",
            rf.segment_imbalance(1),
            rh.segment_imbalance(1)
        );
        assert!(rf.e2e_us > rh.e2e_us);
        assert!(rf.degradation.iter().any(|d| d.contains("straggling")));
    }

    #[test]
    fn flaky_collectives_add_retry_latency_consistently() {
        let j = job(4, 1024);
        let plan = FaultPlan::healthy(11).with_collective_faults(0.9, 800.0, 3, 40.0);
        let mut e = MultiGpuEngine::with_faults(DeviceSpec::v100(), 7, plan);
        // Accumulate over a few iterations: p=0.9 makes retries certain in
        // expectation without depending on one specific hash value.
        let mut retries = 0;
        for _ in 0..5 {
            let r = e.run(&j).unwrap();
            let parts: f64 = r.segment_us.iter().sum::<f64>() + r.comm_us.iter().sum::<f64>();
            assert!(
                (r.e2e_us - parts).abs() < 1e-9,
                "timeline must stay consistent"
            );
            assert!(r.e2e_us.is_finite() && r.e2e_us > 0.0);
            retries += r.collective_retries;
            if r.collective_retries > 0 {
                assert!(r.retry_added_us > 0.0);
                assert!(!r.degradation.is_empty());
            }
        }
        assert!(
            retries > 0,
            "p=0.9 over 15 collectives must retry at least once"
        );
    }

    #[test]
    fn retry_deadline_caps_flaky_collective_penalties() {
        let j = job(4, 1024);
        let plan = FaultPlan::healthy(11).with_collective_faults(0.9, 800.0, 6, 40.0);

        let mut unbounded = MultiGpuEngine::with_faults(DeviceSpec::v100(), 7, plan.clone());
        let mut capped = MultiGpuEngine::with_faults(DeviceSpec::v100(), 7, plan);
        let deadline = 1000.0;
        capped.set_retry_deadline_us(Some(deadline));
        assert_eq!(capped.retry_deadline_us(), Some(deadline));

        let mut saw_cap = false;
        for _ in 0..5 {
            let ru = unbounded.run(&j).unwrap();
            let rc = capped.run(&j).unwrap();
            // Attempt outcomes are stateless hash draws, so the deadline
            // never *adds* latency — it only truncates.
            assert!(
                rc.retry_added_us <= ru.retry_added_us + 1e-9,
                "deadline added latency: {} vs {}",
                rc.retry_added_us,
                ru.retry_added_us
            );
            // Per-collective penalty can never exceed the deadline.
            for idx in 0..3 {
                assert!(rc.comm_us[idx] <= ru.comm_us[idx] + 1e-9);
            }
            if ru.retry_added_us > rc.retry_added_us + 1e-9 {
                saw_cap = true;
                assert!(
                    rc.degradation
                        .iter()
                        .any(|d| d.contains("retry deadline hit")),
                    "capped run must report the deadline: {:?}",
                    rc.degradation
                );
                assert!(rc.dropped_collectives.iter().any(|&d| d));
            }
        }
        assert!(
            saw_cap,
            "p=0.9 over 15 collectives must hit the deadline at least once"
        );
    }

    #[test]
    fn no_deadline_is_bitwise_identical_to_the_old_path() {
        let j = job(4, 1024);
        let plan = FaultPlan::healthy(11).with_collective_faults(0.5, 800.0, 3, 40.0);
        let mut a = MultiGpuEngine::with_faults(DeviceSpec::v100(), 7, plan.clone());
        let mut b = MultiGpuEngine::with_faults(DeviceSpec::v100(), 7, plan);
        b.set_retry_deadline_us(Some(1e12)); // effectively unbounded
        for _ in 0..3 {
            let ra = a.run(&j).unwrap();
            let rb = b.run(&j).unwrap();
            assert_eq!(ra.e2e_us.to_bits(), rb.e2e_us.to_bits());
            assert_eq!(ra.collective_retries, rb.collective_retries);
        }
    }

    #[test]
    fn single_gpu_collectives_never_fault() {
        let plan = FaultPlan::healthy(1).with_collective_faults(1.0, 500.0, 3, 10.0);
        let mut e = MultiGpuEngine::with_faults(DeviceSpec::v100(), 8, plan);
        let r = e.run(&job(1, 1024)).unwrap();
        assert_eq!(r.comm_us, [0.0; 3]);
        assert_eq!(r.collective_retries, 0);
        assert_eq!(r.dropped_collectives, [false; 3]);
    }

    #[test]
    fn nvlink_cluster_beats_pcie_cluster_on_comm() {
        let job = job(4, 2048);
        let mut v = MultiGpuEngine::new(DeviceSpec::v100(), 4);
        let mut xp = MultiGpuEngine::new(DeviceSpec::titan_xp(), 4);
        let cv: f64 = v.run(&job).unwrap().comm_us.iter().sum();
        let cxp: f64 = xp.run(&job).unwrap().comm_us.iter().sum();
        assert!(cxp > 3.0 * cv, "PCIe comm {cxp} vs NVLink {cv}");
    }
}
