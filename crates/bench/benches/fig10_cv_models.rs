//! **Figure 10** — E2E per-batch prediction of ResNet-50 and Inception-V3
//! (the non-DLRM representatives) on three GPUs, compared against the
//! Habitat-like and MLPredict-like baselines.
//!
//! Expected shape: our critical-path model comparable to or better than the
//! Habitat-like baseline and much better than the MLPredict-like one, whose
//! restricted training set fails on large batches and on Inception's 1×7 /
//! 7×1 convolution filters.

use dlperf_bench::{effort, header, measure_iters};
use dlperf_core::baselines::{HabitatLike, MlPredictLike};
use dlperf_core::E2ePredictor;
use dlperf_gpusim::DeviceSpec;
use dlperf_kernels::ModelRegistry;
use dlperf_models::cv;
use dlperf_trace::engine::ExecutionEngine;
use dlperf_trace::{OverheadStats, Trace};

fn main() {
    header("Figure 10: E2E prediction of ResNet-50 / Inception-V3 vs baselines");
    println!(
        "{:10} {:14} {:>6} {:>12} | {:>8} {:>10} {:>11}",
        "device", "model", "batch", "measured/us", "ours", "habitat", "mlpredict"
    );

    for device in DeviceSpec::paper_devices() {
        eprintln!("calibrating {} ...", device.name);
        let registry = ModelRegistry::calibrate(&device, effort(), 301);
        let mlpredict = MlPredictLike::train(&device, 302);
        let habitat = HabitatLike::new(registry.clone(), 20.0);

        for (name, graph) in [
            ("ResNet50", cv::resnet50(32)),
            ("Inception-V3", cv::inception_v3(32)),
        ] {
            // Measured reference + overheads for our model.
            let mut engine = ExecutionEngine::new(device.clone(), 31);
            let runs = engine
                .run_iterations(&graph, measure_iters().min(20))
                .expect("executes");
            let traces: Vec<Trace> = runs.iter().map(|r| r.trace.clone()).collect();
            let overheads = OverheadStats::extract(&traces, true);
            let mut engine = ExecutionEngine::new(device.clone(), 32);
            engine.set_profiling(false);
            let measured = engine
                .measure_e2e(&graph, measure_iters().min(20))
                .expect("executes");

            let ours = E2ePredictor::new(registry.clone(), overheads)
                .predict(&graph)
                .expect("lowers")
                .e2e_us;
            let hb = habitat.predict(&graph).expect("lowers");
            let mlp = mlpredict.predict(&graph).expect("lowers");

            let err = |p: f64| (p - measured) / measured * 100.0;
            println!(
                "{:10} {:14} {:>6} {:>12.0} | {:>+7.1}% {:>+9.1}% {:>+10.1}%",
                device.name,
                name,
                32,
                measured,
                err(ours),
                err(hb),
                err(mlp)
            );
        }
    }
    println!("\nOur model's coverage of every op family plus critical-path assembly");
    println!("keeps it accurate where restricted per-op predictors drift.");
}
