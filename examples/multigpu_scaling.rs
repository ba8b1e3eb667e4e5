//! Multi-GPU what-if (the paper's §V-B extension): predict how hybrid-
//! parallel DLRM training scales from 1 to 8 GPUs and how much the
//! embedding-sharding plan matters — all without a cluster.
//!
//! The (world size × sharding plan) matrix runs through the distributed
//! sweep (`dlperf_distrib::sweep`), which fans scenarios across threads
//! and answers kernel-model queries from the evaluator's memo cache; the
//! hand-rolled loop this replaced re-evaluated every data-parallel MLP
//! segment per plan.
//!
//! Run with `cargo run --release --example multigpu_scaling`. It exits
//! non-zero when the parallel sweep is not bitwise identical to the
//! sequential one.

use dlrm_perf_model::core::pipeline::Pipeline;
use dlrm_perf_model::core::{Evaluator, DEFAULT_MEMO_CAPACITY};
use dlrm_perf_model::distrib::{
    enumerate_plans, sweep_shardings, DistributedDlrm, DistributedPredictor, MultiGpuEngine,
    ShardingPlan,
};
use dlrm_perf_model::gpusim::DeviceSpec;
use dlrm_perf_model::kernels::CalibrationEffort;
use dlrm_perf_model::models::DlrmConfig;
use dlrm_perf_model::runtime::CancellationToken;
use std::process::ExitCode;
use std::time::Instant;

fn main() -> ExitCode {
    let device = DeviceSpec::v100();
    let batch = 4096;
    let cfg = DlrmConfig::default_config(batch);
    let tables = cfg.rows_per_table.len();

    // Calibrate once on single-rank segments.
    let probe = DistributedDlrm::new(cfg.clone(), ShardingPlan::round_robin(tables, 1)).unwrap();
    println!("calibrating {} ...", device.name);
    let pipe = Pipeline::analyze(&device, &probe.segments(0), CalibrationEffort::Quick, 15, 3);
    let pipes = std::slice::from_ref(&pipe);

    // The full sweep: every world size × candidate plan, through the
    // parallel memoized engine, with a sequential run on its own cold
    // evaluator as the reference.
    let scenarios = enumerate_plans(tables, &[1, 2, 4, 8]);
    let token = CancellationToken::new();
    let reference = Evaluator::new(pipes, DEFAULT_MEMO_CAPACITY);
    let t0 = Instant::now();
    let sequential = sweep_shardings(
        &DistributedPredictor::new(&reference, 0),
        &cfg,
        &scenarios,
        1,
        &token,
    );
    let seq_ms = t0.elapsed().as_secs_f64() * 1e3;
    let eval = Evaluator::new(pipes, DEFAULT_MEMO_CAPACITY);
    let t0 = Instant::now();
    let parallel = sweep_shardings(
        &DistributedPredictor::new(&eval, 0),
        &cfg,
        &scenarios,
        4,
        &token,
    );
    let par_ms = t0.elapsed().as_secs_f64() * 1e3;

    println!("\n== Scaling curve (global batch {batch}, NVLink cluster, round-robin) ==");
    println!(
        "{:>6} {:>12} {:>12} {:>10} {:>10}",
        "GPUs", "pred/us", "measured/us", "speedup", "comm"
    );
    let mut base = None;
    for world in [1usize, 2, 4, 8] {
        let label = format!("w{world}/round_robin");
        let p = parallel
            .results
            .iter()
            .flatten()
            .find(|r| r.label == label)
            .and_then(|r| r.prediction.as_ref())
            .expect("round-robin scenario priced");
        let job =
            DistributedDlrm::new(cfg.clone(), ShardingPlan::round_robin(tables, world)).unwrap();
        let mut engine = MultiGpuEngine::new(device.clone(), 7);
        let m = engine.measure_e2e(&job, 8).unwrap();
        let base_t = *base.get_or_insert(p.e2e_us);
        println!(
            "{:>6} {:>12.0} {:>12.0} {:>9.2}x {:>9.1}%",
            world,
            p.e2e_us,
            m,
            base_t / p.e2e_us,
            p.comm_share() * 100.0
        );
    }

    println!("\n== Sharding plans across the sweep ==");
    for r in parallel.results.iter().flatten() {
        match &r.prediction {
            Some(p) => println!("{:22} predicted {:>9.0} us/iter", r.label, p.e2e_us),
            None => println!(
                "{:22} failed: {}",
                r.label,
                r.error.as_deref().unwrap_or("?")
            ),
        }
    }
    if let Some(best) = parallel.best() {
        println!("best plan: {}", best.label);
    }

    let identical = sequential
        .results
        .iter()
        .zip(&parallel.results)
        .all(|(a, b)| match (a, b) {
            (Some(a), Some(b)) => {
                a.prediction.as_ref().map(|p| p.e2e_us.to_bits())
                    == b.prediction.as_ref().map(|p| p.e2e_us.to_bits())
            }
            _ => false,
        });
    println!("\n== Sweep engine ==");
    println!("scenarios:        {}", scenarios.len());
    println!("bitwise identical to sequential: {identical}");
    println!("cache:            {}", eval.cache_stats());
    println!(
        "wall clock:       {par_ms:.1} ms parallel vs {seq_ms:.1} ms sequential ({:.2}x)",
        seq_ms / par_ms
    );
    println!("\nThe predictor exposes both the comm overhead of scaling out and the");
    println!("straggler cost of a bad sharding plan — before provisioning any GPU.");
    if identical {
        ExitCode::SUCCESS
    } else {
        eprintln!("error: the parallel sweep diverged from the sequential one");
        ExitCode::FAILURE
    }
}
