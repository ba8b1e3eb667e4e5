//! Quickstart: calibrate the pipeline on the three paper DLRM configs and
//! predict their per-batch training time, comparing against the simulated
//! measurement.
//!
//! Run with `cargo run --release --example quickstart`.

use dlrm_perf_model::core::pipeline::Pipeline;
use dlrm_perf_model::gpusim::DeviceSpec;
use dlrm_perf_model::kernels::CalibrationEffort;
use dlrm_perf_model::models::DlrmConfig;
use dlrm_perf_model::trace::engine::ExecutionEngine;

fn main() {
    let device = DeviceSpec::v100();
    let batch = 2048;
    let workloads: Vec<_> = DlrmConfig::paper_configs(batch)
        .iter()
        .map(|c| c.build())
        .collect();

    println!(
        "== Analysis track: profiling {} workloads on {} ==",
        workloads.len(),
        device.name
    );
    let pipeline = Pipeline::analyze(&device, &workloads, CalibrationEffort::Quick, 30, 42);

    println!("\n== Prediction track ==");
    println!(
        "{:14} {:>12} {:>12} {:>8} {:>8}",
        "workload", "measured/us", "predicted/us", "err", "util"
    );
    for graph in &workloads {
        let mut engine = ExecutionEngine::new(device.clone(), 7);
        engine.set_profiling(false); // the paper compares against non-profiled runs
        let measured = engine.measure_e2e(graph, 20).expect("workload executes");
        let pred = pipeline.predict_individual(graph).expect("workload lowers");
        println!(
            "{:14} {:12.0} {:12.0} {:+7.1}% {:7.0}%",
            graph.name,
            measured,
            pred.e2e_us,
            (pred.e2e_us - measured) / measured * 100.0,
            pred.utilization() * 100.0
        );
    }
    println!("\nThe prediction needed no further execution — only the graph.");
}
