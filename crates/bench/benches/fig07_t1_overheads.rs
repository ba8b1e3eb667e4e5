//! **Figure 7** — T1 overhead mean and std across all models and batch
//! sizes on the V100.
//!
//! Expected shape: means close to each other across workloads and batch
//! sizes (the *model-independence* and *size-independence* assumptions that
//! justify a reusable overhead database).

use dlperf_bench::{header, measure_iters, BATCH_SIZES};
use dlperf_gpusim::DeviceSpec;
use dlperf_models::DlrmConfig;
use dlperf_trace::engine::ExecutionEngine;
use dlperf_trace::{OverheadStats, OverheadType, Trace};

fn main() {
    header("Figure 7: T1 overhead mean/std across models and batch sizes (V100)");
    let device = DeviceSpec::v100();
    println!(
        "{:14} {:>7} {:>12} {:>12} {:>9}",
        "model", "batch", "T1 mean/us", "T1 std/us", "samples"
    );

    let mut grand: Vec<f64> = Vec::new();
    for cfg_fn in [
        DlrmConfig::default_config as fn(u64) -> DlrmConfig,
        DlrmConfig::mlperf_config,
        DlrmConfig::ddp_config,
    ] {
        for &batch in &BATCH_SIZES {
            let cfg = cfg_fn(batch);
            let graph = cfg.build();
            let mut engine = ExecutionEngine::new(device.clone(), batch ^ 7);
            let runs = engine
                .run_iterations(&graph, measure_iters())
                .expect("executes");
            let traces: Vec<Trace> = runs.into_iter().map(|r| r.trace).collect();
            let stats = OverheadStats::extract(&traces, true);
            let t1 = stats.type_stat(OverheadType::T1).expect("T1 observed");
            grand.push(t1.mean_us);
            println!(
                "{:14} {:>7} {:>12.2} {:>12.2} {:>9}",
                cfg.name, batch, t1.mean_us, t1.std_us, t1.count
            );
        }
    }
    let mean = grand.iter().sum::<f64>() / grand.len() as f64;
    let spread = grand
        .iter()
        .map(|v| (v - mean).abs() / mean)
        .fold(0.0f64, f64::max);
    println!("\noverall T1 mean: {mean:.2} us; worst relative deviation across");
    println!(
        "(model, batch) cells: {:.1}% — no model/size trend, supporting the",
        spread * 100.0
    );
    println!("paper's reusable-overhead-database argument.");
}
