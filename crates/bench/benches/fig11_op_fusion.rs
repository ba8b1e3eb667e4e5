//! **Figure 11** — the op-fusion co-design case study: separate
//! `embedding_bag` ops (left) fused into one batched embedding op (right),
//! with the speedup predicted from the mutated execution graph alone and
//! cross-checked against the simulated device.

use dlperf_bench::{header, measure_iters};
use dlperf_core::pipeline::Pipeline;
use dlperf_core::sweep::{GraphMutation, Scenario, SweepEngine};
use dlperf_gpusim::DeviceSpec;
use dlperf_graph::transform::fuse_embedding_bags;
use dlperf_models::DlrmConfig;
use dlperf_trace::engine::ExecutionEngine;

fn main() {
    header("Figure 11: separate embedding-bag ops -> one batched embedding op");
    let device = DeviceSpec::v100();
    println!(
        "{:>7} {:>7} | {:>12} {:>12} {:>9} | {:>12} {:>12} {:>9}",
        "tables",
        "batch",
        "pred sep/us",
        "pred fus/us",
        "pred spd",
        "meas sep/us",
        "meas fus/us",
        "meas spd"
    );

    let registry = dlperf_kernels::ModelRegistry::calibrate(&device, dlperf_bench::effort(), 41);
    for (tables, batch) in [(8usize, 512u64), (16, 512), (26, 1024), (32, 2048)] {
        let cfg = DlrmConfig {
            rows_per_table: vec![100_000; tables],
            ..DlrmConfig::default_config(batch)
        }
        .with_batched_embedding(false);
        let unfused = cfg.build();
        let pipeline = Pipeline::analyze_with_registry(
            &device,
            std::slice::from_ref(&unfused),
            registry.clone(),
            measure_iters().min(25),
            tables as u64,
        );
        let scenarios = [
            Scenario::new("separate", 0),
            Scenario::new("fused", 0).with(GraphMutation::FuseEmbeddingBags),
        ];
        let outcome = SweepEngine::new(vec![pipeline]).run(&unfused, &scenarios);
        let results = outcome.expect_complete();
        let (before, after) = (
            results[0].expect_prediction(),
            results[1].expect_prediction(),
        );

        let mut fused = unfused.clone();
        fuse_embedding_bags(&mut fused).expect("fusable");
        let mut engine = ExecutionEngine::new(device.clone(), 41);
        engine.set_profiling(false);
        let m_before = engine
            .measure_e2e(&unfused, measure_iters().min(25))
            .expect("executes");
        let mut engine = ExecutionEngine::new(device.clone(), 41);
        engine.set_profiling(false);
        let m_after = engine
            .measure_e2e(&fused, measure_iters().min(25))
            .expect("executes");

        println!(
            "{:>7} {:>7} | {:>12.0} {:>12.0} {:>8.2}x | {:>12.0} {:>12.0} {:>8.2}x",
            tables,
            batch,
            before.e2e_us,
            after.e2e_us,
            before.e2e_us / after.e2e_us,
            m_before,
            m_after,
            m_before / m_after
        );
    }
    println!("\nMore tables -> more per-op overheads removed -> larger fusion win,");
    println!("and the prediction tracks the simulated outcome without running anything.");
}
