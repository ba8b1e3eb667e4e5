//! The Fig. 11 op-fusion case study: a DLRM variant with separate
//! `embedding_bag` ops per table (left side of the figure) is fused into a
//! single batched embedding op (right side), and the performance model
//! prices both variants without running either: the fusion is a
//! `FuseEmbeddingBags` scenario priced by the sweep engine.
//!
//! Run with `cargo run --release --example op_fusion`.

use dlrm_perf_model::core::pipeline::Pipeline;
use dlrm_perf_model::core::sweep::{GraphMutation, Scenario, SweepEngine};
use dlrm_perf_model::gpusim::DeviceSpec;
use dlrm_perf_model::graph::transform::fuse_embedding_bags;
use dlrm_perf_model::kernels::CalibrationEffort;
use dlrm_perf_model::models::DlrmConfig;
use dlrm_perf_model::trace::engine::ExecutionEngine;

fn main() {
    let device = DeviceSpec::v100();
    // Many tables with separate bag ops: heavy per-op overhead, the fusion
    // target the paper's trace analysis flags.
    let config = DlrmConfig {
        rows_per_table: vec![200_000; 16],
        ..DlrmConfig::default_config(1024)
    }
    .with_batched_embedding(false);
    let unfused = config.build();

    let pipeline = Pipeline::analyze(
        &device,
        std::slice::from_ref(&unfused),
        CalibrationEffort::Quick,
        20,
        5,
    );

    // The fused graph feeds the simulated cross-check below; its report
    // says what the fusion rewrote.
    let mut fused_graph = unfused.clone();
    let report = fuse_embedding_bags(&mut fused_graph).expect("graph contains fusable bags");

    let scenarios = [
        Scenario::new("separate bags", 0),
        Scenario::new("batched op", 0).with(GraphMutation::FuseEmbeddingBags),
    ];
    let outcome = SweepEngine::new(vec![pipeline]).run(&unfused, &scenarios);
    let results = outcome.expect_complete();
    let (before, after) = (
        results[0].expect_prediction(),
        results[1].expect_prediction(),
    );
    println!("== Predicted (no execution needed) ==");
    println!(
        "separate bags : {:9.0} us/batch ({} embedding_bag ops + cat)",
        before.e2e_us, report.forward_bags_fused
    );
    println!("batched op    : {:9.0} us/batch", after.e2e_us);
    println!("speedup       : {:.2}x", before.e2e_us / after.e2e_us);

    // Cross-check the what-if against the simulated hardware.
    let mut engine = ExecutionEngine::new(device.clone(), 3);
    let before = engine.measure_e2e(&unfused, 15).expect("executes");
    let mut engine = ExecutionEngine::new(device, 3);
    let after = engine.measure_e2e(&fused_graph, 15).expect("executes");
    println!("\n== Measured on the simulated device ==");
    println!("separate bags : {before:9.0} us/batch");
    println!("batched op    : {after:9.0} us/batch");
    println!("speedup       : {:.2}x", before / after);
}
