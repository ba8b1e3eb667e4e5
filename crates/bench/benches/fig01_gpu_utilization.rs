//! **Figure 1** — GPU utilization of per-batch training time of six DL
//! models on a Tesla V100, at their commonly used training batch sizes.
//!
//! Expected shape: CV/NLP models near 100%; the DLRM variants substantially
//! lower, with visible device idle time.

use dlperf_bench::{header, measure_iters};
use dlperf_gpusim::DeviceSpec;
use dlperf_models::transformer::TransformerConfig;
use dlperf_models::{cv, DlrmConfig};
use dlperf_trace::engine::ExecutionEngine;

fn main() {
    header("Figure 1: GPU utilization of six DL models (Tesla V100)");
    let device = DeviceSpec::v100();
    let workloads: Vec<(String, dlperf_graph::Graph, u64)> = vec![
        ("ResNet50".into(), cv::resnet50(32), 32),
        ("Inception-V3".into(), cv::inception_v3(32), 32),
        (
            "Transformer".into(),
            TransformerConfig::base(64).build(),
            64,
        ),
        (
            "DLRM_default".into(),
            DlrmConfig::default_config(2048).build(),
            2048,
        ),
        (
            "DLRM_MLPerf".into(),
            DlrmConfig::mlperf_config(2048).build(),
            2048,
        ),
        (
            "DLRM_DDP".into(),
            DlrmConfig::ddp_config(2048).build(),
            2048,
        ),
    ];

    println!(
        "{:14} {:>6} {:>12} {:>12} {:>12} {:>7}",
        "model", "batch", "e2e/us", "active/us", "idle/us", "util"
    );
    for (name, graph, batch) in workloads {
        let mut engine = ExecutionEngine::new(device.clone(), 1);
        engine.set_profiling(false);
        let runs = engine
            .run_iterations(&graph, measure_iters().min(20))
            .expect("workload executes");
        let e2e = runs.iter().map(|r| r.e2e_us).sum::<f64>() / runs.len() as f64;
        let active = runs.iter().map(|r| r.active_us()).sum::<f64>() / runs.len() as f64;
        println!(
            "{:14} {:>6} {:>12.0} {:>12.0} {:>12.0} {:>6.1}%",
            name,
            batch,
            e2e,
            active,
            e2e - active,
            active / e2e * 100.0
        );
    }
    println!("\nRMs have substantially more device idle time than CV/NLP models;");
    println!("summing kernel times cannot model them (the paper's motivation).");
}
