//! **Extension** — multi-GPU hybrid-parallel DLRM (the paper's §V-B work in
//! progress): scaling curves, interconnect sensitivity, and sharding-plan
//! comparison, predicted vs simulated.

use dlperf_bench::{effort, header, measure_iters};
use dlperf_core::pipeline::Pipeline;
use dlperf_core::{Evaluator, DEFAULT_MEMO_CAPACITY};
use dlperf_distrib::{DistributedDlrm, DistributedPredictor, MultiGpuEngine, ShardingPlan};
use dlperf_gpusim::DeviceSpec;
use dlperf_models::criteo::KAGGLE_TABLE_ROWS;
use dlperf_models::DlrmConfig;

fn main() {
    header("Extension: multi-GPU hybrid-parallel DLRM training");
    let batch = 4096;
    let iters = measure_iters().min(20);

    for device in [DeviceSpec::v100(), DeviceSpec::titan_xp()] {
        let cfg = DlrmConfig::default_config(batch);
        let probe =
            DistributedDlrm::new(cfg.clone(), ShardingPlan::round_robin(8, 1)).expect("valid");
        eprintln!("calibrating {} ...", device.name);
        let pipe = Pipeline::analyze(&device, &probe.segments(0), effort(), iters, 3);
        let eval = Evaluator::new(vec![pipe], DEFAULT_MEMO_CAPACITY);
        let predictor = DistributedPredictor::new(&eval, 0);

        println!(
            "\n--- {} cluster (interconnect {:.0} GB/s) ---",
            device.name, device.interconnect_bw_gbs
        );
        println!(
            "{:>6} {:>12} {:>12} {:>8} {:>10} {:>9}",
            "GPUs", "pred/us", "meas/us", "err", "speedup", "comm"
        );
        let mut base = None;
        for world in [1usize, 2, 4, 8] {
            let job = DistributedDlrm::new(
                cfg.clone(),
                ShardingPlan::round_robin(cfg.rows_per_table.len(), world),
            )
            .expect("valid");
            let p = predictor.predict(&job).expect("lowers");
            let mut engine = MultiGpuEngine::new(device.clone(), 7);
            let m = engine.measure_e2e(&job, iters).expect("executes");
            let base_t = *base.get_or_insert(p.e2e_us);
            println!(
                "{:>6} {:>12.0} {:>12.0} {:>+7.1}% {:>9.2}x {:>8.1}%",
                world,
                p.e2e_us,
                m,
                (p.e2e_us - m) / m * 100.0,
                base_t / p.e2e_us,
                p.comm_share() * 100.0
            );
        }
    }

    // Sharding-plan study on the Criteo tables (MLPerf config).
    header("Sharding plans for the 26 Criteo tables on 4 x V100 (MLPerf config)");
    let device = DeviceSpec::v100();
    let cfg = DlrmConfig::mlperf_config(batch);
    let probe = DistributedDlrm::new(cfg.clone(), ShardingPlan::round_robin(26, 1)).expect("valid");
    let pipe = Pipeline::analyze(&device, &probe.segments(0), effort(), iters, 5);
    let eval = Evaluator::new(std::slice::from_ref(&pipe), DEFAULT_MEMO_CAPACITY);
    let predictor = DistributedPredictor::new(&eval, 0);
    let registry = pipe.predictor().registry();

    let plans = [
        (
            "round-robin",
            ShardingPlan::round_robin(KAGGLE_TABLE_ROWS.len(), 4),
        ),
        (
            "LPT by predicted cost",
            ShardingPlan::greedy_by_predicted_cost(registry, &KAGGLE_TABLE_ROWS, 4, batch, 1, 32)
                .expect("valid"),
        ),
        (
            "all tables on gpu0",
            ShardingPlan::new(vec![0; 26], 4).expect("valid"),
        ),
    ];
    println!(
        "{:24} {:>12} {:>12} {:>10}",
        "plan", "pred/us", "meas/us", "S1 imbal"
    );
    for (name, plan) in plans {
        let job = DistributedDlrm::new(cfg.clone(), plan).expect("valid");
        let p = predictor.predict(&job).expect("lowers");
        let mut engine = MultiGpuEngine::new(device.clone(), 11);
        let run = engine.run(&job).expect("executes");
        println!(
            "{:24} {:>12.0} {:>12.0} {:>10.2}",
            name,
            p.e2e_us,
            run.e2e_us,
            run.segment_imbalance(0)
        );
    }
    println!("\nModel-driven sharding keeps per-rank embedding time balanced; the");
    println!("predictor ranks the plans the same way the simulated cluster does.");
}
