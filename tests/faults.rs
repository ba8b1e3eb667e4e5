//! Fault-injection and graceful-degradation integration tests: the chaos
//! harness of the robustness milestone.
//!
//! Three contracts are exercised end to end:
//! 1. **Determinism** — the same seed and the same [`FaultPlan`] produce a
//!    bitwise-identical [`DistributedRunResult`], because every fault
//!    decision is keyed by a stateless site hash, not a shared RNG.
//! 2. **Smooth degradation** — sweeping chaos intensity from 0 to 1 never
//!    panics, never yields a non-finite or non-positive time, and strictly
//!    hurts at full intensity.
//! 3. **Isolation** — one malformed workload or one missing kernel model
//!    degrades that prediction, not the process.

use dlperf_core::pipeline::{Pipeline, PipelineError};
use dlperf_core::{Evaluator, DEFAULT_MEMO_CAPACITY};
use dlperf_distrib::{DistributedDlrm, DistributedPredictor, MultiGpuEngine, ShardingPlan};
use dlperf_faults::FaultPlan;
use dlperf_gpusim::DeviceSpec;
use dlperf_graph::{Graph, OpKind, TensorMeta};
use dlperf_kernels::{CalibrationEffort, ModelRegistry};
use dlperf_models::DlrmConfig;

fn job(world: usize, batch: u64) -> DistributedDlrm {
    let cfg = DlrmConfig::default_config(batch);
    let plan = ShardingPlan::round_robin(cfg.rows_per_table.len(), world);
    DistributedDlrm::new(cfg, plan).expect("valid job")
}

/// A graph whose only op cannot lower (AddMm with a single input).
fn malformed(name: &str) -> Graph {
    let mut g = Graph::new(name);
    let x = g.add_tensor(TensorMeta::activation(&[16, 16]));
    let y = g.add_tensor(TensorMeta::activation(&[16, 16]));
    g.add_op(OpKind::AddMm, vec![x], vec![y]);
    g
}

#[test]
fn fault_runs_are_bitwise_deterministic() {
    let plan = FaultPlan::chaos(0xfa57, 0.7);
    let j = job(4, 1024);
    let run = |plan: FaultPlan| {
        let mut e = MultiGpuEngine::with_faults(DeviceSpec::v100(), 21, plan);
        e.run(&j).expect("fault run succeeds")
    };
    let a = run(plan.clone());
    let b = run(plan.clone());
    // Full-struct equality: e2e, segments, comms, per-rank times, retry
    // bookkeeping, and degradation notes must all match bit for bit.
    assert_eq!(a, b);

    // And a serde round trip of the plan must not change a single bit.
    let json = serde_json::to_string(&plan).expect("plan serializes");
    let replayed: FaultPlan = serde_json::from_str(&json).expect("plan deserializes");
    assert_eq!(a, run(replayed));
}

#[test]
fn chaos_sweep_degrades_smoothly_without_panics() {
    let j = job(4, 1024);
    let mut prev_healthy_e2e = None;
    for intensity in [0.0, 0.25, 0.5, 0.75, 1.0] {
        let plan = FaultPlan::chaos(7, intensity);
        let mut engine = MultiGpuEngine::with_faults(DeviceSpec::v100(), 13, plan);
        for _ in 0..3 {
            let r = engine
                .run(&j)
                .expect("chaos run returns Ok at every intensity");
            assert!(
                r.e2e_us.is_finite() && r.e2e_us > 0.0,
                "intensity {intensity}: bad e2e {}",
                r.e2e_us
            );
            for s in r.segment_us.iter().chain(r.comm_us.iter()) {
                assert!(
                    s.is_finite() && *s >= 0.0,
                    "intensity {intensity}: bad part {s}"
                );
            }
            let parts: f64 = r.segment_us.iter().sum::<f64>() + r.comm_us.iter().sum::<f64>();
            assert!(
                (r.e2e_us - parts).abs() < 1e-9,
                "timeline inconsistent at {intensity}"
            );
            assert!(r.retry_added_us.is_finite() && r.retry_added_us >= 0.0);

            if intensity == 0.0 {
                assert!(r.degradation.is_empty(), "healthy run reported degradation");
                assert_eq!(r.collective_retries, 0);
                prev_healthy_e2e.get_or_insert(r.e2e_us);
            } else {
                // The straggler note is deterministic on the first
                // iteration; the report must not be empty once faults bite.
                assert!(
                    r.e2e_us > prev_healthy_e2e.expect("intensity 0.0 runs first") * 0.9,
                    "faults should not make the run faster"
                );
            }
        }
        if intensity == 1.0 {
            // Re-run the first iteration to inspect the populated report.
            let mut engine =
                MultiGpuEngine::with_faults(DeviceSpec::v100(), 13, FaultPlan::chaos(7, 1.0));
            let r = engine.run(&j).expect("full-chaos run succeeds");
            assert!(
                r.degradation.iter().any(|d| d.contains("straggling")),
                "full chaos must report the straggler: {:?}",
                r.degradation
            );
        }
    }

    // Full chaos must be measurably slower than healthy.
    let healthy = MultiGpuEngine::with_faults(DeviceSpec::v100(), 13, FaultPlan::chaos(7, 0.0))
        .run(&j)
        .expect("healthy run");
    let wild = MultiGpuEngine::with_faults(DeviceSpec::v100(), 13, FaultPlan::chaos(7, 1.0))
        .run(&j)
        .expect("chaos run");
    assert!(
        wild.e2e_us > 1.2 * healthy.e2e_us,
        "full chaos should hurt: {} vs {}",
        wild.e2e_us,
        healthy.e2e_us
    );
}

#[test]
fn dropped_collectives_degrade_instead_of_hanging() {
    let plan = FaultPlan::healthy(3).with_collective_faults(1.0, 700.0, 2, 30.0);
    let mut engine = MultiGpuEngine::with_faults(DeviceSpec::v100(), 17, plan);
    let r = engine
        .run(&job(4, 1024))
        .expect("dropped collectives still return Ok");
    assert_eq!(
        r.dropped_collectives, [true; 3],
        "p=1.0 must drop every collective"
    );
    assert_eq!(
        r.collective_retries,
        3 * 2,
        "each collective retries max_retries times"
    );
    assert!(r.retry_added_us > 0.0);
    assert!(r.e2e_us.is_finite() && r.e2e_us > 0.0);
    assert!(
        r.degradation.iter().any(|d| d.contains("dropped")),
        "drops must be reported: {:?}",
        r.degradation
    );
}

#[test]
fn link_degradation_is_deterministic_and_names_affected_collectives() {
    // Halved bandwidth on every link, no flapping: every payload-bearing
    // collective must reprice slower, deterministically, with the affected
    // collectives named in the degradation report — the link-fault
    // counterpart of `dropped_collectives_degrade_instead_of_hanging`.
    let j = job(4, 1024);
    let plan = FaultPlan::healthy(11).with_link_faults(0.5, 0.0, 1.0);
    let run = |plan: FaultPlan| {
        let mut e = MultiGpuEngine::with_faults(DeviceSpec::v100(), 19, plan);
        e.run(&j).expect("link-faulted run succeeds")
    };
    let a = run(plan.clone());
    assert_eq!(
        a,
        run(plan.clone()),
        "link faults must be bitwise deterministic"
    );

    let healthy = {
        let mut e = MultiGpuEngine::with_faults(DeviceSpec::v100(), 19, FaultPlan::healthy(11));
        e.run(&j).expect("healthy run succeeds")
    };
    assert!(
        a.e2e_us > healthy.e2e_us,
        "halved link bandwidth should hurt: {} vs {}",
        a.e2e_us,
        healthy.e2e_us
    );
    // Same seed, same jitter stream: the slowdown is exactly the comms.
    for (i, (f, h)) in a.comm_us.iter().zip(&healthy.comm_us).enumerate() {
        assert!(f >= h, "C{i}: faulted {f} faster than healthy {h}");
    }
    let named: Vec<&String> = a
        .degradation
        .iter()
        .filter(|d| d.contains("link degraded"))
        .collect();
    assert!(
        !named.is_empty(),
        "link faults must name affected collectives: {:?}",
        a.degradation
    );
    assert!(
        named
            .iter()
            .any(|d| d.contains("all_to_all") || d.contains("all_reduce")),
        "report should say which collective degraded: {named:?}"
    );

    // The analytic predictor degrades under the same plan, the same way:
    // deterministic, slower, with the same style of report.
    let cfg = DlrmConfig::default_config(1024);
    let probe = DistributedDlrm::new(
        cfg.clone(),
        ShardingPlan::round_robin(cfg.rows_per_table.len(), 2),
    )
    .expect("probe job");
    let device = DeviceSpec::v100();
    let pipe = Pipeline::analyze(&device, &probe.segments(0), CalibrationEffort::Quick, 5, 31);
    let eval = Evaluator::new(vec![pipe], DEFAULT_MEMO_CAPACITY);
    let predictor = DistributedPredictor::new(&eval, 0);
    let (p1, notes1) = predictor
        .predict_with_faults(&j, &plan)
        .expect("faulted predict");
    let (p2, notes2) = predictor
        .predict_with_faults(&j, &plan)
        .expect("faulted predict");
    assert_eq!(p1.e2e_us.to_bits(), p2.e2e_us.to_bits());
    assert_eq!(notes1, notes2);
    let clean = predictor.predict(&j).expect("clean predict");
    assert!(p1.e2e_us > clean.e2e_us, "predictor must also slow down");
    assert!(
        notes1.iter().any(|n| n.contains("link degraded")),
        "predictor must report affected collectives: {notes1:?}"
    );

    // Flapping links stay deterministic too: same plan, same bits.
    let flappy = FaultPlan::healthy(12).with_link_faults(0.9, 0.5, 0.5);
    let f1 = {
        let mut e = MultiGpuEngine::with_faults(DeviceSpec::v100(), 23, flappy.clone());
        e.run(&j).expect("flapping run succeeds")
    };
    let f2 = {
        let mut e = MultiGpuEngine::with_faults(DeviceSpec::v100(), 23, flappy);
        e.run(&j).expect("flapping run succeeds")
    };
    assert_eq!(
        f1, f2,
        "flapping must be seeded, not sampled from shared state"
    );
}

#[test]
fn missing_kernel_model_degrades_prediction_not_process() {
    let dev = DeviceSpec::v100();
    let workloads = vec![DlrmConfig::default_config(256).build()];
    // An empty registry: every kernel family lookup misses and must fall
    // back to the datasheet roofline with a Degraded tag.
    let (pipe, report) = Pipeline::analyze_resilient_with_registry(
        &dev,
        &workloads,
        ModelRegistry::empty(dev.clone()),
        5,
        9,
    )
    .expect("analysis succeeds with an empty registry");
    assert!(report.is_clean());
    let p = pipe.predict(&workloads[0]).expect("prediction succeeds");
    assert!(p.e2e_us.is_finite() && p.e2e_us > 0.0);
    assert!(
        p.degraded_kernels > 0,
        "empty registry must mark kernels degraded"
    );
    assert!(!p.is_fully_calibrated());

    // A calibrated registry on the same workload is fully calibrated.
    let (pipe, _) = Pipeline::analyze_resilient_with_registry(
        &dev,
        &workloads,
        ModelRegistry::calibrate(&dev, CalibrationEffort::Quick, 1),
        5,
        9,
    )
    .expect("analysis succeeds");
    let p = pipe.predict(&workloads[0]).expect("prediction succeeds");
    assert_eq!(p.degraded_kernels, 0);
    assert!(p.is_fully_calibrated());
}

#[test]
fn malformed_workload_is_skipped_and_named() {
    let dev = DeviceSpec::v100();
    let workloads = vec![
        DlrmConfig::default_config(128).build(),
        malformed("poisoned"),
        DlrmConfig::ddp_config(128).build(),
    ];
    let (pipe, report) =
        Pipeline::analyze_resilient(&dev, &workloads, CalibrationEffort::Quick, 5, 2)
            .expect("two healthy workloads survive");
    assert_eq!(pipe.workloads().len(), 2);
    assert_eq!(report.skipped.len(), 1);
    assert_eq!(report.skipped[0].0, "poisoned");
    assert!(report.summary().contains("poisoned"));

    // All workloads malformed → a typed error naming each, not a panic.
    match Pipeline::analyze_resilient(
        &dev,
        &[malformed("a"), malformed("b")],
        CalibrationEffort::Quick,
        3,
        2,
    ) {
        Err(PipelineError::AllWorkloadsFailed(fails)) => {
            let names: Vec<&str> = fails.iter().map(|(n, _)| n.as_str()).collect();
            assert_eq!(names, ["a", "b"]);
        }
        other => panic!("expected AllWorkloadsFailed, got {other:?}"),
    }
}
