//! **Figure 8** — mean/std of the T2, T3, and T5 overheads of the 10 most
//! dominating ops, per model and batch size, on the V100.
//!
//! Expected shape: per-op means differ (each op type has its own overhead
//! level) but are stable across models and batch sizes, with the overall
//! per-type mean a usable summary.

use dlperf_bench::{header, measure_iters};
use dlperf_gpusim::DeviceSpec;
use dlperf_models::DlrmConfig;
use dlperf_trace::engine::ExecutionEngine;
use dlperf_trace::{OverheadStats, OverheadType, Trace};

fn stats_for(cfg: &DlrmConfig, device: &DeviceSpec, seed: u64) -> OverheadStats {
    let graph = cfg.build();
    let mut engine = ExecutionEngine::new(device.clone(), seed);
    let runs = engine
        .run_iterations(&graph, measure_iters())
        .expect("executes");
    let traces: Vec<Trace> = runs.into_iter().map(|r| r.trace).collect();
    OverheadStats::extract(&traces, true)
}

fn main() {
    header("Figure 8: T2/T3/T5 overhead stats of the 10 most dominating ops (V100)");
    let device = DeviceSpec::v100();

    for (cfg, batch) in [
        (DlrmConfig::default_config(512), 512u64),
        (DlrmConfig::default_config(2048), 2048),
        (DlrmConfig::mlperf_config(2048), 2048),
    ] {
        let stats = stats_for(&cfg, &device, batch ^ 0x88);
        println!("\n--- {} @ batch {} ---", cfg.name, batch);
        for ty in [OverheadType::T2, OverheadType::T3, OverheadType::T5] {
            let overall = stats.type_stat(ty).expect("type observed");
            println!("{ty}: overall mean {:.2} us (dashed line)", overall.mean_us);
            for (op, s) in stats.dominating_ops(ty, 10) {
                println!(
                    "    {:34} mean {:>6.2} us  std {:>6.2} us  (n={})",
                    op, s.mean_us, s.std_us, s.count
                );
            }
        }
    }
    println!("\nPer-op means differ but are stable across workloads/batches —");
    println!("the structure the paper reads off Fig. 8.");
}
