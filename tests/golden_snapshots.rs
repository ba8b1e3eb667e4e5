//! Golden snapshot tests: bitwise-pinned predictions for the documented
//! entry points (the README quickstart and the `whatif_batch_and_device`
//! sweep) and for multi-GPU sharding sweeps (the topology-catalog matrix
//! and a heterogeneous IB hierarchy).
//!
//! Every f64 is stored as the 16-hex-digit big-endian bit pattern of
//! `f64::to_bits` — not as a decimal — so the comparison is exact and
//! immune to the vendored JSON writer's number formatting. A golden
//! mismatch therefore means the prediction pipeline changed *bitwise*:
//! either an intended model change (regenerate, review the diff, commit)
//! or an accidental nondeterminism/reordering bug (fix it).
//!
//! Regenerate with:
//!
//! ```sh
//! UPDATE_GOLDEN=1 cargo test --test golden_snapshots
//! git diff tests/golden/   # review before committing
//! ```

use std::collections::BTreeMap;
use std::path::PathBuf;

use dlrm_perf_model::core::pipeline::Pipeline;
use dlrm_perf_model::core::sweep::{GraphMutation, ScenarioMatrix, SweepEngine};
use dlrm_perf_model::core::{Evaluator, DEFAULT_MEMO_CAPACITY};
use dlrm_perf_model::distrib::{
    enumerate_matrix, enumerate_plans, sweep_shardings, DistributedDlrm, DistributedPredictor,
    ParallelismStrategy, ShardingPlan, ShardingResult, ShardingScenario, Topology,
};
use dlrm_perf_model::gpusim::DeviceSpec;
use dlrm_perf_model::kernels::CalibrationEffort;
use dlrm_perf_model::models::DlrmConfig;
use dlrm_perf_model::runtime::CancellationToken;

fn hex(x: f64) -> String {
    format!("{:016x}", x.to_bits())
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

/// Compares `actual` against the stored snapshot, or rewrites the
/// snapshot when `UPDATE_GOLDEN=1`.
fn check_golden(name: &str, actual: &BTreeMap<String, String>) {
    let path = golden_path(name);
    let rendered = serde_json::to_string(actual).expect("serializable snapshot");
    if std::env::var("UPDATE_GOLDEN").as_deref() == Ok("1") {
        std::fs::create_dir_all(path.parent().unwrap()).expect("mkdir tests/golden");
        std::fs::write(&path, &rendered).expect("write golden");
        return;
    }
    let stored = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {} ({e}); regenerate with UPDATE_GOLDEN=1 cargo test --test golden_snapshots",
            path.display()
        )
    });
    let expected: BTreeMap<String, String> = serde_json::from_str(&stored).expect("golden parses");
    assert_eq!(
        actual, &expected,
        "golden {name} mismatch — if the model change is intended, regenerate \
         with UPDATE_GOLDEN=1 and review the diff"
    );
}

#[test]
fn quickstart_prediction_is_bitwise_stable() {
    // The README quickstart, pinned: V100, default DLRM config, batch 1024.
    let workloads = vec![DlrmConfig::default_config(1024).build()];
    let pipeline = Pipeline::analyze(
        &DeviceSpec::v100(),
        &workloads,
        CalibrationEffort::Quick,
        20,
        7,
    );
    let pred = pipeline.predict(&workloads[0]).expect("lowers");
    let mut snap = BTreeMap::new();
    snap.insert("e2e_us".to_string(), hex(pred.e2e_us));
    snap.insert("active_us".to_string(), hex(pred.active_us));
    snap.insert("cpu_us".to_string(), hex(pred.cpu_us));
    snap.insert("gpu_us".to_string(), hex(pred.gpu_us));
    snap.insert(
        "degraded_kernels".to_string(),
        pred.degraded_kernels.to_string(),
    );
    check_golden("quickstart.json", &snap);
}

#[test]
fn whatif_batch_and_device_sweep_is_bitwise_stable() {
    // The `whatif_batch_and_device` example's matrix, shrunk to test scale
    // and pinned per scenario label.
    // Per-table embedding bags (not the pre-fused batched op) so the
    // `fused` variant has something to fuse.
    let base = DlrmConfig {
        rows_per_table: vec![200_000; 4],
        batched_embedding: false,
        ..DlrmConfig::default_config(512)
    }
    .build();
    let pipelines: Vec<Pipeline> = [DeviceSpec::v100(), DeviceSpec::p100()]
        .iter()
        .map(|d| {
            Pipeline::analyze(
                d,
                std::slice::from_ref(&base),
                CalibrationEffort::Quick,
                8,
                13,
            )
        })
        .collect();
    let engine = SweepEngine::new(pipelines).with_threads(4);
    let scenarios = ScenarioMatrix::new()
        .device("V100", 0)
        .device("P100", 1)
        .batches(&[256, 1024])
        .variant("base", vec![])
        .variant("fused", vec![GraphMutation::FuseEmbeddingBags])
        .build();
    let out = engine.run(&base, &scenarios);
    let mut snap = BTreeMap::new();
    for r in out.expect_complete() {
        let p = r.expect_prediction();
        snap.insert(r.label.clone(), hex(p.e2e_us));
    }
    check_golden("whatif_batch_and_device.json", &snap);
}

#[test]
fn hierarchical_ib_heterogeneous_sweep_is_bitwise_stable() {
    // A heterogeneous fleet on a multi-node IB hierarchy — two V100s and
    // two P100s, two per node — swept over every parallelism strategy and
    // the three candidate sharding plans, pinned per cell. This is the
    // deepest path through the α–β communication model: hierarchical
    // allreduce selection, uplink-bounded crossings, and the slow card
    // dragging the fleet's launch and bandwidth.
    let cfg = DlrmConfig::default_config(512);
    let tables = cfg.rows_per_table.len();
    let probe =
        DistributedDlrm::new(cfg.clone(), ShardingPlan::round_robin(tables, 2)).expect("probe job");
    let device = DeviceSpec::v100();
    let pipe = Pipeline::analyze(&device, &probe.segments(0), CalibrationEffort::Quick, 6, 29);
    let fleet = vec![
        DeviceSpec::v100(),
        DeviceSpec::v100(),
        DeviceSpec::p100(),
        DeviceSpec::p100(),
    ];
    let topology = Topology::multi_node_ib_heterogeneous(fleet, 2);
    let mut scenarios = Vec::new();
    for strategy in ParallelismStrategy::ALL {
        for cell in enumerate_plans(tables, &[4]) {
            scenarios.push(ShardingScenario {
                label: format!("{}/{strategy}/{}", topology.label(), cell.label),
                plan: cell.plan,
                strategy,
                topology: Some(topology.clone()),
            });
        }
    }
    let eval = Evaluator::new(vec![pipe], DEFAULT_MEMO_CAPACITY);
    let out = sweep_shardings(
        &DistributedPredictor::new(&eval, 0),
        &cfg,
        &scenarios,
        4,
        &CancellationToken::new(),
    );
    let mut snap = BTreeMap::new();
    for r in out.results.iter().flatten() {
        let p = r.prediction.as_ref().expect("every cell prices");
        snap.insert(r.label.clone(), hex(p.e2e_us));
    }
    check_golden("distrib_hierarchical_ib.json", &snap);
}

/// One snapshot line per matrix cell: every timeline component as f64
/// bits, plus the error and degradation notes.
fn distrib_cell_snapshot(r: &ShardingResult) -> String {
    let timeline = match &r.prediction {
        Some(p) => {
            let bits = |xs: &[f64]| xs.iter().map(|&x| hex(x)).collect::<Vec<_>>().join(",");
            format!(
                "e2e_us={} segment_us={} comm_us={}",
                hex(p.e2e_us),
                bits(&p.segment_us),
                bits(&p.comm_us)
            )
        }
        None => "e2e_us=- segment_us=- comm_us=-".to_string(),
    };
    format!("{timeline} error={:?} degraded={:?}", r.error, r.degraded)
}

#[test]
fn distrib_topology_matrix_is_bitwise_stable() {
    // Every cell of the topology catalog × strategies × worlds matrix,
    // including degraded ones (mismatched IB shapes, an unknown name),
    // with the whole timeline pinned rather than just its sum.
    let cfg = DlrmConfig::default_config(512);
    let tables = cfg.rows_per_table.len();
    let probe =
        DistributedDlrm::new(cfg.clone(), ShardingPlan::round_robin(tables, 2)).expect("probe job");
    let device = DeviceSpec::v100();
    let pipe = Pipeline::analyze(&device, &probe.segments(0), CalibrationEffort::Quick, 6, 23);
    let scenarios = enumerate_matrix(
        tables,
        &[1, 2, 4, 8],
        &ParallelismStrategy::ALL,
        &["auto", "nvlink", "pcie", "ib2x2", "ib2x1", "bogus"],
        &device,
    );
    let eval = Evaluator::new(vec![pipe], DEFAULT_MEMO_CAPACITY);
    let out = sweep_shardings(
        &DistributedPredictor::new(&eval, 0),
        &cfg,
        &scenarios,
        2,
        &CancellationToken::new(),
    );
    let mut snap = BTreeMap::new();
    for r in out.results.iter().flatten() {
        snap.insert(r.label.clone(), distrib_cell_snapshot(r));
    }
    assert_eq!(snap.len(), scenarios.len(), "one snapshot line per cell");
    check_golden("distrib_matrix.json", &snap);
}
