//! Multi-GPU integration: the distributed predictor against the lockstep
//! cluster engine, through the facade crate.

use dlrm_perf_model::core::pipeline::Pipeline;
use dlrm_perf_model::core::{Evaluator, DEFAULT_MEMO_CAPACITY};
use dlrm_perf_model::distrib::{
    DistributedDlrm, DistributedPredictor, MultiGpuEngine, ShardingPlan,
};
use dlrm_perf_model::gpusim::DeviceSpec;
use dlrm_perf_model::kernels::CalibrationEffort;
use dlrm_perf_model::models::DlrmConfig;

fn setup(device: &DeviceSpec) -> Evaluator<'static> {
    let cfg = DlrmConfig::default_config(2048);
    let probe = DistributedDlrm::new(cfg, ShardingPlan::round_robin(8, 1)).unwrap();
    let pipe = Pipeline::analyze(device, &probe.segments(0), CalibrationEffort::Quick, 10, 77);
    Evaluator::new(vec![pipe], DEFAULT_MEMO_CAPACITY)
}

#[test]
fn scaling_curve_has_diminishing_returns() {
    let device = DeviceSpec::v100();
    let eval = setup(&device);
    let predictor = DistributedPredictor::new(&eval, 0);
    let cfg = DlrmConfig::default_config(4096);
    let mut times = Vec::new();
    for world in [1usize, 2, 4, 8] {
        let job = DistributedDlrm::new(cfg.clone(), ShardingPlan::round_robin(8, world)).unwrap();
        times.push(predictor.predict(&job).unwrap().e2e_us);
    }
    // Monotone improvement...
    assert!(times[1] < times[0]);
    assert!(times[2] < times[1]);
    // ...with diminishing returns: 1->2 speedup exceeds 4->8 speedup.
    let s12 = times[0] / times[1];
    let s48 = times[2] / times[3];
    assert!(
        s12 > s48,
        "1->2 speedup {s12:.2} should exceed 4->8 speedup {s48:.2}"
    );
}

#[test]
fn predicted_e2e_tracks_cluster_engine_across_worlds() {
    let device = DeviceSpec::v100();
    let eval = setup(&device);
    let predictor = DistributedPredictor::new(&eval, 0);
    let cfg = DlrmConfig::default_config(2048);
    for world in [2usize, 4] {
        let job = DistributedDlrm::new(cfg.clone(), ShardingPlan::round_robin(8, world)).unwrap();
        let pred = predictor.predict(&job).unwrap().e2e_us;
        let mut engine = MultiGpuEngine::new(device.clone(), 3);
        let measured = engine.measure_e2e(&job, 6).unwrap();
        let err = ((pred - measured) / measured).abs();
        assert!(err < 0.25, "world {world}: err {:.1}%", err * 100.0);
    }
}

#[test]
fn pcie_cluster_scales_worse_than_nvlink() {
    let cfg = DlrmConfig::default_config(4096);
    let job4 = DistributedDlrm::new(cfg, ShardingPlan::round_robin(8, 4)).unwrap();
    let v100 = setup(&DeviceSpec::v100());
    let xp = setup(&DeviceSpec::titan_xp());
    let pv = DistributedPredictor::new(&v100, 0).predict(&job4).unwrap();
    let pxp = DistributedPredictor::new(&xp, 0).predict(&job4).unwrap();
    assert!(
        pxp.comm_share() > pv.comm_share(),
        "PCIe comm share {:.2} should exceed NVLink {:.2}",
        pxp.comm_share(),
        pv.comm_share()
    );
}

#[test]
fn memory_pressure_drops_with_model_parallel_sharding() {
    // Each rank holds only its table shard: the per-rank weight bytes of a
    // 4-way sharded MLPerf model are about a quarter of the single-GPU one.
    use dlrm_perf_model::graph::memory;
    let cfg = DlrmConfig::mlperf_config(2048);
    let single = DistributedDlrm::new(cfg.clone(), ShardingPlan::round_robin(26, 1)).unwrap();
    let sharded = DistributedDlrm::new(cfg, ShardingPlan::round_robin(26, 4)).unwrap();
    let weight = |job: &DistributedDlrm, rank: usize| -> u64 {
        job.segments(rank)
            .iter()
            .map(|s| memory::estimate(s).weight_bytes)
            .sum()
    };
    let w1 = weight(&single, 0);
    let w4 = (0..4).map(|r| weight(&sharded, r)).max().unwrap();
    assert!(
        (w4 as f64) < 0.5 * w1 as f64,
        "sharded per-rank weights {w4} should be well below single-GPU {w1}"
    );
}
