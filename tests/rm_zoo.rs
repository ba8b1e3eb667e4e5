//! RM-zoo integration: DCN and Wide & Deep go through the exact same
//! pipeline as DLRM — no new kernel models, comparable accuracy (the
//! paper's claim that the embedding+MLP paradigm generalizes to RM design).

use dlrm_perf_model::core::pipeline::Pipeline;
use dlrm_perf_model::gpusim::DeviceSpec;
use dlrm_perf_model::kernels::CalibrationEffort;
use dlrm_perf_model::models::rm_zoo::{dcn, wide_deep, RmConfig};
use dlrm_perf_model::trace::engine::ExecutionEngine;

#[test]
fn pipeline_prices_dcn_and_wide_deep_within_band() {
    let device = DeviceSpec::v100();
    let workloads = vec![
        dcn(&RmConfig::ctr_default(512)),
        wide_deep(&RmConfig::ctr_default(512)),
    ];
    let pipeline = Pipeline::analyze(&device, &workloads, CalibrationEffort::Quick, 15, 91);
    for g in &workloads {
        let mut engine = ExecutionEngine::new(device.clone(), 92);
        engine.set_profiling(false);
        let measured = engine.measure_e2e(g, 12).unwrap();
        let pred = pipeline.predict_individual(g).unwrap();
        let err = ((pred.e2e_us - measured) / measured).abs();
        assert!(
            err < 0.25,
            "{}: error {:.1}% (pred {} vs measured {measured})",
            g.name,
            err * 100.0,
            pred.e2e_us
        );
    }
}

#[test]
fn rm_zoo_is_low_utilization_like_dlrm() {
    // These CTR models are overhead-dominated at serving-ish batch sizes,
    // just like DLRM — the class the paper's model exists for.
    let device = DeviceSpec::v100();
    for g in [
        dcn(&RmConfig::ctr_default(256)),
        wide_deep(&RmConfig::ctr_default(256)),
    ] {
        let mut engine = ExecutionEngine::new(device.clone(), 93);
        engine.set_profiling(false);
        let run = engine.run(&g).unwrap();
        assert!(
            run.utilization() < 0.6,
            "{} utilization {:.2} unexpectedly high",
            g.name,
            run.utilization()
        );
    }
}

#[test]
fn batch_sweep_works_on_zoo_models() {
    use dlrm_perf_model::core::sweep::{ScenarioMatrix, SweepEngine};
    let device = DeviceSpec::v100();
    let g = dcn(&RmConfig::ctr_default(256));
    let pipeline = Pipeline::analyze(
        &device,
        std::slice::from_ref(&g),
        CalibrationEffort::Quick,
        8,
        94,
    );
    let scenarios = ScenarioMatrix::new()
        .device("v100", 0)
        .batches(&[128, 1024, 4096])
        .build();
    let outcome = SweepEngine::new(vec![pipeline]).run(&g, &scenarios);
    let sweep = outcome.expect_complete();
    assert!(
        sweep[2].expect_prediction().utilization() > sweep[0].expect_prediction().utilization()
    );
}
