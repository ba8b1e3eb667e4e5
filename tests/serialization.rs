//! Serialization integration: the two JSON artifacts the pipeline persists
//! (execution graphs and overhead databases) round-trip faithfully.

use dlrm_perf_model::core::pipeline::Pipeline;
use dlrm_perf_model::gpusim::DeviceSpec;
use dlrm_perf_model::graph::{Graph, GraphError};
use dlrm_perf_model::kernels::{CalibrationEffort, ModelRegistry};
use dlrm_perf_model::models::{zoo, DlrmConfig};
use dlrm_perf_model::trace::{OverheadStats, OverheadType};

#[test]
fn execution_graph_round_trips_through_json() {
    let g = DlrmConfig {
        rows_per_table: vec![10_000; 4],
        ..DlrmConfig::mlperf_config(512)
    }
    .build();
    let json = g.to_json();
    let back = Graph::from_json(&json).expect("valid graph JSON");
    assert_eq!(back.node_count(), g.node_count());
    assert_eq!(back.tensor_count(), g.tensor_count());
    for (a, b) in g.nodes().iter().zip(back.nodes()) {
        assert_eq!(a.op, b.op);
        assert_eq!(a.inputs, b.inputs);
        assert_eq!(a.outputs, b.outputs);
    }
}

/// wide-deep's graph JSON with node `ids` written over the listed
/// positions' `id` fields.
fn wide_deep_with_node_ids(ids: &[(usize, f64)]) -> String {
    let g = zoo::build("wide-deep", 128).expect("wide-deep builds");
    let mut v = serde_json::to_value(&g);
    let serde_json::Value::Obj(entries) = &mut v else {
        panic!("graph is an object")
    };
    let Some((_, serde_json::Value::Arr(nodes))) = entries.iter_mut().find(|(k, _)| k == "nodes")
    else {
        panic!("graph has a node array")
    };
    for &(position, id) in ids {
        let serde_json::Value::Obj(fields) = &mut nodes[position] else {
            panic!("node object")
        };
        let (_, value) = fields
            .iter_mut()
            .find(|(k, _)| k == "id")
            .expect("node has an id");
        *value = serde_json::Value::Num(id);
    }
    serde_json::to_string(&v).unwrap()
}

#[test]
fn decoded_node_ids_must_be_positions() {
    // Hoisting treats a node id as its position, so a decoded graph whose
    // ids are permuted or out of range is a typed error, never a panic or
    // a silently wrong transform.
    let typed = |json: &str| {
        let err = Graph::from_json(json).expect_err("ids that are not positions");
        err.downcast_ref::<GraphError>()
            .cloned()
            .expect("a typed graph error")
    };
    assert_eq!(
        typed(&wide_deep_with_node_ids(&[(0, 1.0), (1, 0.0)])),
        GraphError::NodeIdMismatch { position: 0, id: 1 }
    );
    assert_eq!(
        typed(&wide_deep_with_node_ids(&[(3, 100_000.0)])),
        GraphError::NodeIdMismatch {
            position: 3,
            id: 100_000
        }
    );
    assert!(Graph::from_json(&wide_deep_with_node_ids(&[])).is_ok());
}

#[test]
fn reloaded_graph_predicts_identically() {
    let device = DeviceSpec::v100();
    let g = DlrmConfig {
        rows_per_table: vec![10_000; 4],
        ..DlrmConfig::default_config(256)
    }
    .build();
    let pipe = Pipeline::analyze(
        &device,
        std::slice::from_ref(&g),
        CalibrationEffort::Quick,
        8,
        1,
    );
    let reloaded = Graph::from_json(&g.to_json()).unwrap();
    assert_eq!(
        pipe.predict(&g).unwrap().e2e_us,
        pipe.predict(&reloaded).unwrap().e2e_us
    );
}

#[test]
fn overhead_db_json_preserves_all_cells() {
    let device = DeviceSpec::p100();
    let g = DlrmConfig {
        rows_per_table: vec![10_000; 4],
        ..DlrmConfig::default_config(256)
    }
    .build();
    let pipe = Pipeline::analyze(
        &device,
        std::slice::from_ref(&g),
        CalibrationEffort::Quick,
        8,
        2,
    );
    let json = pipe.shared_overheads_json();
    let back = OverheadStats::from_json(&json).expect("valid DB JSON");
    for ty in OverheadType::ALL {
        let orig = pipe.predictor();
        // Compare a few representative op keys.
        for key in ["aten::addmm", "aten::relu", "batched_embedding"] {
            let _ = orig; // predictor holds the same merged stats
            assert!(
                back.mean_us(key, ty) > 0.0,
                "cell ({key}, {ty}) lost in round trip"
            );
        }
    }
}

#[test]
fn pipeline_rebuilds_from_persisted_assets() {
    // The large-scale-prediction workflow: persist the overhead DB, rebuild
    // a pipeline from it plus a fresh registry, and predict.
    let device = DeviceSpec::v100();
    let g = DlrmConfig {
        rows_per_table: vec![10_000; 4],
        ..DlrmConfig::default_config(256)
    }
    .build();
    let pipe = Pipeline::analyze(
        &device,
        std::slice::from_ref(&g),
        CalibrationEffort::Quick,
        8,
        3,
    );
    let json = pipe.shared_overheads_json();

    let stats = OverheadStats::from_json(&json).unwrap();
    let registry = ModelRegistry::calibrate(&device, CalibrationEffort::Quick, 0xabcd ^ 3);
    let rebuilt = Pipeline::from_assets(device, registry, stats);
    let a = pipe.predict(&g).unwrap().e2e_us;
    let b = rebuilt.predict(&g).unwrap().e2e_us;
    assert!(
        (a - b).abs() / a < 1e-9,
        "rebuilt pipeline diverged: {a} vs {b}"
    );
}

#[test]
fn from_assets_pipeline_exports_the_database_it_was_built_from() {
    // A pipeline rebuilt from persisted assets has no per-workload stats;
    // its export must still be its whole overhead database, and a pipeline
    // reloaded from that export must predict the same bits.
    let device = DeviceSpec::v100();
    let g = DlrmConfig::default_config(256).build();
    let pipe = Pipeline::analyze(
        &device,
        std::slice::from_ref(&g),
        CalibrationEffort::Quick,
        8,
        4,
    );
    let json = pipe.shared_overheads_json();
    let registry = pipe.predictor().registry().clone();
    let stats = OverheadStats::from_json(&json).unwrap();
    let rebuilt = Pipeline::from_assets(device.clone(), registry.clone(), stats);
    let exported = rebuilt.shared_overheads_json();
    assert!(
        exported == json,
        "export lost the database it was built from: {} of {} bytes",
        exported.len(),
        json.len()
    );
    let stats = OverheadStats::from_json(&exported).unwrap();
    let reloaded = Pipeline::from_assets(device, registry, stats);
    assert_eq!(
        reloaded.predict(&g).unwrap().e2e_us.to_bits(),
        rebuilt.predict(&g).unwrap().e2e_us.to_bits(),
        "a pipeline reloaded from the export must predict the same bits"
    );
}
