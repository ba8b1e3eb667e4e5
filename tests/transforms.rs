//! Integration tests of the co-design transformations against both the
//! engine (simulated measurement) and the predictor.
//!
//! `codesign_whatifs_are_frozen` pins the bits of the paper's co-design
//! questions (batch size, op fusion, reordering, embedding sharding) on one
//! fixed `Quick` pipeline. A mismatch means a what-if's answer changed; it
//! is never fixed by re-freezing the table here.

use dlrm_perf_model::core::pipeline::Pipeline;
use dlrm_perf_model::core::predictor::Prediction;
use dlrm_perf_model::core::sweep::{GraphMutation, Scenario, SweepEngine};
use dlrm_perf_model::distrib::{imbalance, ShardingPlan};
use dlrm_perf_model::gpusim::DeviceSpec;
use dlrm_perf_model::graph::transform::{
    fuse_embedding_bags, independent_groups, parallelize, resize_batch,
};
use dlrm_perf_model::graph::{Graph, OpKind};
use dlrm_perf_model::kernels::CalibrationEffort;
use dlrm_perf_model::models::criteo::KAGGLE_TABLE_ROWS;
use dlrm_perf_model::models::DlrmConfig;
use dlrm_perf_model::trace::engine::ExecutionEngine;

fn small(batch: u64) -> DlrmConfig {
    DlrmConfig {
        rows_per_table: vec![50_000; 8],
        ..DlrmConfig::default_config(batch)
    }
}

/// Prices each mutation list on `base` through the sweep engine, in order.
fn price(pipeline: Pipeline, base: &Graph, variants: &[&[GraphMutation]]) -> Vec<Prediction> {
    let scenarios: Vec<Scenario> = variants
        .iter()
        .enumerate()
        .map(|(i, muts)| Scenario {
            mutations: muts.to_vec(),
            ..Scenario::new(format!("v{i}"), 0)
        })
        .collect();
    let outcome = SweepEngine::new(vec![pipeline]).run(base, &scenarios);
    outcome
        .expect_complete()
        .iter()
        .map(|r| *r.expect_prediction())
        .collect()
}

#[test]
fn resized_graph_equals_rebuilt_graph() {
    // Resizing a captured batch-512 graph to 2048 must predict the same as
    // building the 2048 graph from scratch (it is a pure metadata rewrite).
    let pipeline = Pipeline::analyze(
        &DeviceSpec::v100(),
        &[small(512).build()],
        CalibrationEffort::Quick,
        10,
        1,
    );
    let mut resized = small(512).build();
    resize_batch(&mut resized, 2048).unwrap();
    let rebuilt = small(2048).build();
    let a = pipeline.predict(&resized).unwrap().e2e_us;
    let b = pipeline.predict(&rebuilt).unwrap().e2e_us;
    assert!((a - b).abs() < 1e-6, "resized {a} vs rebuilt {b}");
}

#[test]
fn fusion_whatif_matches_simulated_outcome_direction() {
    // The predicted fusion speedup and the simulated one must agree in
    // direction and roughly in magnitude (the Fig. 11 use case).
    let device = DeviceSpec::v100();
    let unfused = small(512).with_batched_embedding(false).build();
    let pipeline = Pipeline::analyze(
        &device,
        std::slice::from_ref(&unfused),
        CalibrationEffort::Quick,
        15,
        2,
    );
    let p = price(
        pipeline,
        &unfused,
        &[&[], &[GraphMutation::FuseEmbeddingBags]],
    );
    let predicted_speedup = p[0].e2e_us / p[1].e2e_us;

    let mut fused = unfused.clone();
    fuse_embedding_bags(&mut fused).unwrap();
    let mut engine = ExecutionEngine::new(device.clone(), 8);
    engine.set_profiling(false);
    let measured_before = engine.measure_e2e(&unfused, 10).unwrap();
    let mut engine = ExecutionEngine::new(device, 8);
    engine.set_profiling(false);
    let measured_after = engine.measure_e2e(&fused, 10).unwrap();
    let measured_speedup = measured_before / measured_after;

    assert!(predicted_speedup > 1.0, "fusion predicted to pay off");
    assert!(measured_speedup > 1.0, "fusion measured to pay off");
    assert!(
        (predicted_speedup / measured_speedup - 1.0).abs() < 0.25,
        "predicted {predicted_speedup:.3}x vs measured {measured_speedup:.3}x"
    );
}

#[test]
fn parallelize_speedup_predicted_and_measured() {
    // Assign the per-table embedding branches to separate streams; both the
    // engine and the predictor should see the overlap.
    let device = DeviceSpec::v100();
    let serial = small(2048).with_batched_embedding(false).build();
    let mut streamed = serial.clone();
    let bags: Vec<_> = streamed
        .nodes()
        .iter()
        .filter(|n| n.op == OpKind::EmbeddingBag)
        .map(|n| n.id)
        .collect();
    let groups = independent_groups(&streamed, &bags);
    assert!(groups.len() > 1, "embedding bags should be independent");
    parallelize(&mut streamed, &groups).unwrap();

    let pipeline = Pipeline::analyze(
        &device,
        std::slice::from_ref(&serial),
        CalibrationEffort::Quick,
        10,
        4,
    );
    let p_serial = pipeline.predict(&serial).unwrap();
    let p_streamed = pipeline.predict(&streamed).unwrap();
    assert!(
        p_streamed.gpu_us <= p_serial.gpu_us + 1e-9,
        "streams cannot make the GPU clock worse: {} vs {}",
        p_streamed.gpu_us,
        p_serial.gpu_us
    );
}

#[test]
fn batch_sweep_scales_active_time_superlinearly_vs_overheads() {
    // Per-sample efficiency improves with batch size: us/sample at 4096
    // must be well below us/sample at 128.
    let pipeline = Pipeline::analyze(
        &DeviceSpec::p100(),
        &[small(256).build()],
        CalibrationEffort::Quick,
        10,
        6,
    );
    let sweep = price(
        pipeline,
        &small(256).build(),
        &[
            &[GraphMutation::ResizeBatch(128)],
            &[GraphMutation::ResizeBatch(4096)],
        ],
    );
    let per_sample_small = sweep[0].e2e_us / 128.0;
    let per_sample_big = sweep[1].e2e_us / 4096.0;
    assert!(
        per_sample_big < 0.5 * per_sample_small,
        "{per_sample_big:.3} vs {per_sample_small:.3} us/sample"
    );
}

/// `f64::to_bits` of `e2e_us`, `active_us`, `cpu_us` and `gpu_us`, then
/// `degraded_kernels`.
fn prediction_bits(p: &Prediction) -> [u64; 5] {
    [
        p.e2e_us.to_bits(),
        p.active_us.to_bits(),
        p.cpu_us.to_bits(),
        p.gpu_us.to_bits(),
        p.degraded_kernels as u64,
    ]
}

/// Prediction rows carry [`prediction_bits`]; sharding rows carry the bits
/// of the four per-shard embedding costs, then of their imbalance.
const FROZEN: [(&str, [u64; 5]); 10] = [
    (
        "batch 128",
        [
            0x40b5758def442094,
            0x40873cfdaf68fbc8,
            0x40b5758def442094,
            0x40b56f5ff68b6deb,
            0,
        ],
    ),
    (
        "batch 512",
        [
            0x40b5758def442094,
            0x409992abe07a8cf6,
            0x40b5758def442094,
            0x40b56f5ff68b6deb,
            0,
        ],
    ),
    (
        "batch 4096",
        [
            0x40c23b9854c1349d,
            0x40c19b78b2e86835,
            0x40b5758def442094,
            0x40c23b9854c1349d,
            0,
        ],
    ),
    (
        "fusion before",
        [
            0x40b5758def442094,
            0x409992abe07a8cf6,
            0x40b5758def442094,
            0x40b56f5ff68b6deb,
            0,
        ],
    ),
    (
        "fusion after",
        [
            0x40b35eaf6122fbce,
            0x409969ca5e2f6e78,
            0x40b35eaf6122fbce,
            0x40b35881686a4925,
            0,
        ],
    ),
    (
        "hoist before",
        [
            0x40b5758def442094,
            0x409992abe07a8cf6,
            0x40b5758def442094,
            0x40b56f5ff68b6deb,
            0,
        ],
    ),
    (
        "hoist after",
        [
            0x40b5758def4420ac,
            0x409992abe07a8cf4,
            0x40b5758def4420ac,
            0x40afe84adc181707,
            0,
        ],
    ),
    (
        "round-robin",
        [
            0x402ce2a5e09e1aca,
            0x4023ccc66def1fb6,
            0x4028e31adef09fc8,
            0x4028f53988c09a04,
            0x3ff2c32ae7f4c242,
        ],
    ),
    (
        "LPT by rows",
        [
            0x4000b22188d3d13c,
            0x4000b0fcb5441288,
            0x4046244c8c81ceac,
            0x4010a94e85d887cf,
            0x400aeddd34b3450a,
        ],
    ),
    (
        "LPT by cost",
        [
            0x402d001c2760031e,
            0x402cf2b99344ca0e,
            0x4028d0a351b670ec,
            0x4028d36e630e827e,
            0x3ff140427d59e2e7,
        ],
    ),
];

#[test]
fn codesign_whatifs_are_frozen() {
    let unfused = small(512).with_batched_embedding(false).build();
    let pipeline = Pipeline::analyze(
        &DeviceSpec::v100(),
        std::slice::from_ref(&unfused),
        CalibrationEffort::Quick,
        10,
        3,
    );
    let registry = pipeline.predictor().registry().clone();
    let (resize, fuse, hoist) = (
        GraphMutation::ResizeBatch,
        GraphMutation::FuseEmbeddingBags,
        GraphMutation::HoistAll,
    );
    let predictions = price(
        pipeline,
        &unfused,
        &[
            &[resize(128)],
            &[resize(512)],
            &[resize(4096)],
            &[],
            &[fuse],
            &[],
            &[hoist],
        ],
    );
    let names = [
        "batch 128",
        "batch 512",
        "batch 4096",
        "fusion before",
        "fusion after",
        "hoist before",
        "hoist after",
    ];
    let mut got: Vec<(String, [u64; 5])> = names
        .iter()
        .zip(&predictions)
        .map(|(n, p)| (n.to_string(), prediction_bits(p)))
        .collect();

    let tables = KAGGLE_TABLE_ROWS;
    for (name, plan) in [
        ("round-robin", ShardingPlan::round_robin(tables.len(), 4)),
        ("LPT by rows", ShardingPlan::greedy_lpt(&tables, 4).unwrap()),
        (
            "LPT by cost",
            ShardingPlan::greedy_by_predicted_cost(&registry, &tables, 4, 2048, 1, 32).unwrap(),
        ),
    ] {
        let c = plan.shard_costs(&registry, &tables, 2048, 1, 32).unwrap();
        let imb = imbalance(&c);
        let row = [c[0], c[1], c[2], c[3], imb].map(f64::to_bits);
        got.push((name.into(), row));
    }

    let want: Vec<(String, [u64; 5])> = FROZEN
        .iter()
        .map(|&(n, row)| (n.to_string(), row))
        .collect();
    assert_eq!(got, want, "a co-design what-if changed bitwise");
}
