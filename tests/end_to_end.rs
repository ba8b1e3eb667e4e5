//! End-to-end integration: analysis track → prediction track → error bands,
//! spanning every crate in the workspace.

use dlrm_perf_model::core::baselines;
use dlrm_perf_model::core::pipeline::Pipeline;
use dlrm_perf_model::core::report::{ErrorSummary, PredictionRow};
use dlrm_perf_model::gpusim::DeviceSpec;
use dlrm_perf_model::kernels::CalibrationEffort;
use dlrm_perf_model::models::DlrmConfig;
use dlrm_perf_model::trace::engine::ExecutionEngine;

/// Shrunk DLRM configs so the test finishes quickly while exercising every
/// kernel family.
fn small_configs(batch: u64) -> Vec<DlrmConfig> {
    // Table-size regimes matching the paper's workloads (1M-row default,
    // 80k-row DDP) with fewer tables so the test stays fast.
    vec![
        DlrmConfig {
            rows_per_table: vec![1_000_000; 4],
            ..DlrmConfig::default_config(batch)
        },
        DlrmConfig {
            rows_per_table: vec![80_000; 6],
            ..DlrmConfig::ddp_config(batch)
        },
    ]
}

fn measure(device: &DeviceSpec, graph: &dlrm_perf_model::graph::Graph, seed: u64) -> (f64, f64) {
    let mut engine = ExecutionEngine::new(device.clone(), seed);
    engine.set_profiling(false);
    let runs = engine.run_iterations(graph, 15).expect("executes");
    let e2e = runs.iter().map(|r| r.e2e_us).sum::<f64>() / runs.len() as f64;
    let active = runs.iter().map(|r| r.active_us()).sum::<f64>() / runs.len() as f64;
    (e2e, active)
}

#[test]
fn full_pipeline_reproduces_paper_error_bands() {
    let device = DeviceSpec::v100();
    let mut rows = Vec::new();
    for batch in [256u64, 1024] {
        let graphs: Vec<_> = small_configs(batch).iter().map(|c| c.build()).collect();
        let pipeline = Pipeline::analyze(&device, &graphs, CalibrationEffort::Quick, 20, batch);
        for g in &graphs {
            let (measured_e2e, measured_active) = measure(&device, g, batch ^ 0x77);
            let individual = pipeline.predict_individual(g).expect("lowers");
            let shared = pipeline.predict(g).expect("lowers");
            let kernel_only =
                baselines::kernel_only(g, pipeline.predictor().registry()).expect("lowers");
            rows.push(PredictionRow {
                workload: g.name.clone(),
                device: device.name.clone(),
                batch,
                measured_e2e_us: measured_e2e,
                measured_active_us: measured_active,
                pred_e2e_us: individual.e2e_us,
                pred_shared_e2e_us: shared.e2e_us,
                pred_active_us: individual.active_us,
                kernel_only_us: kernel_only,
            });
        }
    }

    let active = ErrorSummary::over(&rows, None, PredictionRow::active_error).unwrap();
    let e2e = ErrorSummary::over(&rows, None, PredictionRow::e2e_error).unwrap();
    let shared = ErrorSummary::over(&rows, None, PredictionRow::shared_e2e_error).unwrap();
    let ko = ErrorSummary::over(&rows, None, PredictionRow::kernel_only_error).unwrap();

    // Quick calibration is looser than the paper's full runs (the bench
    // harness runs Full); the *shape* must hold: active and E2E errors in a
    // low band, kernel_only far worse.
    assert!(
        active.geomean < 0.22,
        "active geomean {:.3}",
        active.geomean
    );
    assert!(e2e.geomean < 0.22, "e2e geomean {:.3}", e2e.geomean);
    assert!(
        shared.geomean < 0.28,
        "shared geomean {:.3}",
        shared.geomean
    );
    assert!(
        ko.geomean > e2e.geomean,
        "kernel_only {:.3} must be worse than E2E {:.3}",
        ko.geomean,
        e2e.geomean
    );
}

#[test]
fn e2e_prediction_underestimates_like_the_paper() {
    // "The E2E time predictions have a clear trend of underestimation" —
    // trimmed means of long-tailed overheads lose the tail mass.
    let device = DeviceSpec::v100();
    let graphs: Vec<_> = small_configs(512).iter().map(|c| c.build()).collect();
    let pipeline = Pipeline::analyze(&device, &graphs, CalibrationEffort::Quick, 25, 9);
    let mut signed = Vec::new();
    for g in &graphs {
        let (measured, _) = measure(&device, g, 5);
        let pred = pipeline.predict_individual(g).unwrap().e2e_us;
        signed.push((pred - measured) / measured);
    }
    let mean_signed = signed.iter().sum::<f64>() / signed.len() as f64;
    assert!(
        mean_signed < 0.02,
        "expected under- (or at most tiny over-) estimation, got {mean_signed:+.3}"
    );
}

#[test]
fn kernel_only_gap_shrinks_with_batch_size() {
    // The Fig. 9 trend: as batch size grows, utilization rises and the
    // kernel_only baseline converges toward the E2E prediction.
    let device = DeviceSpec::v100();
    let cfg = DlrmConfig {
        rows_per_table: vec![100_000; 4],
        ..DlrmConfig::default_config(128)
    };
    let small = cfg.build();
    let big = DlrmConfig {
        batch_size: 4096,
        ..cfg
    }
    .build();
    let pipeline = Pipeline::analyze(
        &device,
        std::slice::from_ref(&small),
        CalibrationEffort::Quick,
        15,
        3,
    );

    let gap = |g| {
        let p = pipeline.predict(g).unwrap();
        let ko = baselines::kernel_only(g, pipeline.predictor().registry()).unwrap();
        (p.e2e_us - ko) / p.e2e_us
    };
    let gap_small = gap(&small);
    let gap_big = gap(&big);
    assert!(
        gap_big < gap_small,
        "gap at batch 4096 ({gap_big:.3}) should be below batch 128 ({gap_small:.3})"
    );
}

#[test]
fn predictions_transfer_across_devices() {
    // A pipeline calibrated per device must rank the devices correctly on a
    // compute-heavy workload.
    let graph = DlrmConfig {
        rows_per_table: vec![50_000; 4],
        ..DlrmConfig::default_config(4096)
    }
    .build();
    let mut preds = Vec::new();
    for dev in DeviceSpec::paper_devices() {
        let pipe = Pipeline::analyze(
            &dev,
            std::slice::from_ref(&graph),
            CalibrationEffort::Quick,
            10,
            21,
        );
        preds.push((dev.name.clone(), pipe.predict(&graph).unwrap().e2e_us));
    }
    let v100 = preds.iter().find(|(n, _)| n.contains("V100")).unwrap().1;
    let p100 = preds.iter().find(|(n, _)| n.contains("P100")).unwrap().1;
    assert!(
        v100 < p100,
        "V100 ({v100}) must beat P100 ({p100}) at batch 4096"
    );
}
