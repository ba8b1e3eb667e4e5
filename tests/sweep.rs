//! Property tests for the sweep engine's determinism contract.
//!
//! The engine's promises (see `dlperf_core::sweep`): the parallel sweep is
//! bitwise identical to the sequential one at any thread count, with the
//! memo cache on or off; and predicted step time is monotone in batch
//! size. Scenario axes are randomized, results compared by f64 bit
//! pattern — any nondeterminism (shared-state mutation, float reassociation,
//! result misordering) fails the suite.

use std::sync::OnceLock;

use dlrm_perf_model::core::pipeline::Pipeline;
use dlrm_perf_model::core::predictor::WalkScratch;
use dlrm_perf_model::core::sweep::{GraphMutation, ScenarioMatrix, SweepEngine, SweepOutcome};
use dlrm_perf_model::core::{Evaluator, DEFAULT_MEMO_CAPACITY};
use dlrm_perf_model::distrib::{
    enumerate_matrix, sweep_shardings, DistributedDlrm, DistributedPredictor, ParallelismStrategy,
    ShardingPlan, ShardingSweepOutcome,
};
use dlrm_perf_model::gpusim::DeviceSpec;
use dlrm_perf_model::graph::Graph;
use dlrm_perf_model::kernels::CalibrationEffort;
use dlrm_perf_model::models::DlrmConfig;
use dlrm_perf_model::runtime::CancellationToken;
use proptest::prelude::*;

/// One shared calibration (the expensive part); each case clones the
/// pipeline into a fresh engine.
fn base() -> &'static (Pipeline, Graph) {
    static BASE: OnceLock<(Pipeline, Graph)> = OnceLock::new();
    BASE.get_or_init(|| {
        let g = DlrmConfig {
            rows_per_table: vec![200_000; 4],
            ..DlrmConfig::default_config(512)
        }
        .build();
        let pipe = Pipeline::analyze(
            &DeviceSpec::v100(),
            std::slice::from_ref(&g),
            CalibrationEffort::Quick,
            8,
            31,
        );
        (pipe, g)
    })
}

fn engine() -> SweepEngine {
    SweepEngine::new(vec![base().0.clone()])
}

/// Full bitwise fingerprint of an outcome: labels, prediction bits, errors.
fn fingerprint(o: &SweepOutcome) -> Vec<(String, Option<u64>, Option<String>)> {
    o.results
        .iter()
        .map(|r| {
            let r = r.as_ref().expect("complete run");
            (
                r.label.clone(),
                r.prediction.as_ref().map(|p| p.e2e_us.to_bits()),
                r.error.clone(),
            )
        })
        .collect()
}

/// Non-empty subsets of the batch axis, driven by a 6-bit mask (the
/// vendored proptest has no `sample::subsequence`).
fn batch_axis() -> impl Strategy<Value = Vec<u64>> {
    const ALL: [u64; 6] = [64, 128, 256, 512, 1024, 2048];
    (1usize..64).prop_map(|mask| {
        ALL.iter()
            .enumerate()
            .filter(|(i, _)| mask & (1 << i) != 0)
            .map(|(_, &b)| b)
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn parallel_matches_sequential_bitwise_at_1_2_8_threads(
        batches in batch_axis(),
        hoist in (0u8..2).prop_map(|b| b == 1),
    ) {
        let (_, g) = base();
        let mut m = ScenarioMatrix::new().device("V100", 0).batches(&batches)
            .variant("base", vec![]);
        if hoist {
            m = m.variant("hoisted", vec![GraphMutation::HoistAll]);
        }
        let scenarios = m.build();
        let reference = fingerprint(&engine().with_threads_exact(1).run(g, &scenarios));
        for threads in [2usize, 8] {
            let par = fingerprint(&engine().with_threads_exact(threads).run(g, &scenarios));
            prop_assert_eq!(&par, &reference, "{} threads diverged", threads);
        }
    }

    #[test]
    fn cache_on_equals_cache_off_bitwise(batches in batch_axis()) {
        let (_, g) = base();
        let scenarios = ScenarioMatrix::new()
            .device("V100", 0)
            .batches(&batches)
            .variant("base", vec![])
            .variant("fused", vec![GraphMutation::FuseEmbeddingBags])
            .build();
        let cached = engine().with_cache(true).with_threads_exact(4).run(g, &scenarios);
        let uncached = engine().with_cache(false).with_threads_exact(4).run(g, &scenarios);
        prop_assert_eq!(fingerprint(&cached), fingerprint(&uncached));
    }

    #[test]
    fn step_time_is_monotone_in_batch(start in 0usize..2) {
        let all = [64u64, 128, 256, 512, 1024, 2048];
        let batches = &all[start..];
        let (_, g) = base();
        let scenarios =
            ScenarioMatrix::new().device("V100", 0).batches(batches).build();
        let out = engine().run(g, &scenarios);
        let times: Vec<f64> = out
            .expect_complete()
            .iter()
            .map(|r| r.expect_prediction().e2e_us)
            .collect();
        for w in times.windows(2) {
            prop_assert!(
                w[1] >= w[0],
                "step time decreased with batch: {:?} (batches {:?})",
                times,
                batches
            );
        }
    }

    #[test]
    fn cancelled_runs_agree_with_sequential_on_completed_slots(
        batches in batch_axis(),
    ) {
        let (_, g) = base();
        let scenarios =
            ScenarioMatrix::new().device("V100", 0).batches(&batches).build();
        let reference = engine().run_sequential(g, &scenarios);
        let token = CancellationToken::new();
        token.cancel();
        let cancelled =
            engine().with_cancellation(token).with_threads_exact(2).run(g, &scenarios);
        prop_assert!(cancelled.cancelled);
        for (i, slot) in cancelled.results.iter().enumerate() {
            if let Some(r) = slot {
                let want = reference.results[i].as_ref().unwrap();
                prop_assert_eq!(
                    r.prediction.as_ref().map(|p| p.e2e_us.to_bits()),
                    want.prediction.as_ref().map(|p| p.e2e_us.to_bits())
                );
            }
        }
    }
}

/// One shared distributed calibration for the topology-axis properties.
fn distrib_base() -> &'static (Pipeline, DlrmConfig) {
    static BASE: OnceLock<(Pipeline, DlrmConfig)> = OnceLock::new();
    BASE.get_or_init(|| {
        let cfg = DlrmConfig::default_config(512);
        let probe = DistributedDlrm::new(
            cfg.clone(),
            ShardingPlan::round_robin(cfg.rows_per_table.len(), 2),
        )
        .unwrap();
        let pipe = Pipeline::analyze(
            &DeviceSpec::v100(),
            &probe.segments(0),
            CalibrationEffort::Quick,
            6,
            23,
        );
        (pipe, cfg)
    })
}

/// Full bitwise fingerprint of a sharding sweep: labels, prediction bits,
/// errors, degradation notes.
#[allow(clippy::type_complexity)]
fn distrib_fingerprint(
    o: &ShardingSweepOutcome,
) -> Vec<(String, Option<u64>, Option<String>, Option<String>)> {
    o.results
        .iter()
        .map(|r| {
            let r = r.as_ref().expect("complete run");
            (
                r.label.clone(),
                r.prediction.as_ref().map(|p| p.e2e_us.to_bits()),
                r.error.clone(),
                r.degraded.clone(),
            )
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The full `(topology × strategy × world × plan)` matrix prices
    /// bitwise identically at 1, 2, and 8 threads — including the
    /// degraded cells unknown topology names produce — and the shared
    /// memo cache plus incremental baselines change nothing against the
    /// plain uncached predictor.
    #[test]
    fn topology_axis_sweep_is_bitwise_stable_across_threads_and_cache(
        topo_mask in 1usize..16,
        strategy_mask in 1usize..16,
    ) {
        const TOPOLOGIES: [&str; 4] = ["auto", "nvlink", "ib2x2", "quantum-fabric"];
        let topologies: Vec<&str> = TOPOLOGIES
            .iter()
            .enumerate()
            .filter(|(i, _)| topo_mask & (1 << i) != 0)
            .map(|(_, &t)| t)
            .collect();
        let strategies: Vec<ParallelismStrategy> = ParallelismStrategy::ALL
            .iter()
            .enumerate()
            .filter(|(i, _)| strategy_mask & (1 << i) != 0)
            .map(|(_, &s)| s)
            .collect();
        let (pipe, cfg) = distrib_base();
        let pipes = std::slice::from_ref(pipe);
        let scenarios = enumerate_matrix(
            cfg.rows_per_table.len(),
            &[2, 4],
            &strategies,
            &topologies,
            &DeviceSpec::v100(),
        );
        let token = CancellationToken::new();
        let fresh = Evaluator::new(pipes, DEFAULT_MEMO_CAPACITY);
        let reference = distrib_fingerprint(&sweep_shardings(
            &DistributedPredictor::new(&fresh, 0), cfg, &scenarios, 1, &token,
        ));
        // The parallel runs share one evaluator, so the second starts warm.
        let warm = Evaluator::new(pipes, DEFAULT_MEMO_CAPACITY);
        for threads in [2usize, 8] {
            let par = distrib_fingerprint(&sweep_shardings(
                &DistributedPredictor::new(&warm, 0), cfg, &scenarios, threads, &token,
            ));
            prop_assert_eq!(&par, &reference, "{} threads diverged", threads);
        }
        // Cache off: price each buildable cell alone through the plain
        // (uncached, non-incremental) predictor. Bitwise identical.
        let uncached = Evaluator::uncached(pipes);
        let plain_predictor = DistributedPredictor::new(&uncached, 0);
        for (scenario, got) in scenarios.iter().zip(&reference) {
            let Ok(plan) = &scenario.plan else { continue };
            let Ok(job) = DistributedDlrm::new(cfg.clone(), plan.clone())
                .map(|j| j.with_strategy(scenario.strategy))
            else {
                continue;
            };
            let plain = plain_predictor
                .price(&job, scenario.topology.as_ref(), &[], &mut WalkScratch::new())
                .ok()
                .map(|(p, _)| p.e2e_us.to_bits());
            prop_assert_eq!(
                plain, got.1,
                "cache/incremental path diverged from plain predict on {}", got.0
            );
            // `auto` pins the derived topology, which is what `predict` uses.
            if got.0.starts_with("auto/") {
                let derived = plain_predictor.predict(&job).ok().map(|p| p.e2e_us.to_bits());
                prop_assert_eq!(derived, got.1, "plain predict diverged on {}", got.0);
            }
        }
    }
}

#[test]
fn cache_hit_rate_climbs_across_repeated_runs() {
    let (_, g) = base();
    let eng = engine();
    let scenarios = ScenarioMatrix::new()
        .device("V100", 0)
        .batches(&[256, 512])
        .variant("base", vec![])
        .build();
    let first = eng.run(g, &scenarios);
    let second = eng.run(g, &scenarios);
    let s1 = first.cache.unwrap();
    let s2 = second.cache.unwrap();
    assert!(s2.hits > s1.hits, "second run must hit: {s1} then {s2}");
    assert_eq!(s2.misses, s1.misses, "second run must add no misses");
}
