//! **Figure 5** — Device-time breakdown of the three DLRM models at batch
//! size 2048 on a V100, profiler overheads excluded.
//!
//! Expected shape: no single op dominates; addmm/bmm (compute), embedding
//! lookups (memory), concat/to (communication) and their backwards jointly
//! dominate; different configs are dominated by different kernels
//! (embedding lookup for default/DDP, IndexBackward + FC for MLPerf); idle
//! time is a non-negligible share everywhere.

use dlperf_bench::header;
use dlperf_gpusim::DeviceSpec;
use dlperf_models::DlrmConfig;
use dlperf_trace::breakdown::DeviceBreakdown;
use dlperf_trace::engine::ExecutionEngine;

fn main() {
    header("Figure 5: device-time breakdown of three DLRM models (batch 2048, V100)");
    let device = DeviceSpec::v100();
    for cfg in DlrmConfig::paper_configs(2048) {
        let graph = cfg.build();
        let mut engine = ExecutionEngine::new(device.clone(), 5);
        engine.set_profiling(false);
        let run = engine.run(&graph).expect("workload executes");
        let b = DeviceBreakdown::from_run(&run);

        println!(
            "\n--- {} (total {:.0} us, utilization {:.1}%) ---",
            b.workload,
            b.total_us,
            b.utilization() * 100.0
        );
        for (label, share) in b.stacked_rows(10) {
            let bar_len = (share * 60.0).round() as usize;
            println!(
                "{:32} {:5.1}%  {}",
                label,
                share * 100.0,
                "#".repeat(bar_len)
            );
        }
    }
    println!("\nNote the differing dominating kernels across configs and the idle share.");
}
