//! A `PreparedStore` answers only for the base graph it is asked about.
//!
//! The store recognises its base by the `Arc` of the base's cached
//! `GraphIndex` and compares it on every lookup and fill, so one store
//! handed two different models never returns the first model's prepared
//! graph or incremental baseline for the second.

use dlrm_perf_model::core::pipeline::Pipeline;
use dlrm_perf_model::core::sweep::{GraphMutation, PreparedStore, DEFAULT_MEMO_CAPACITY};
use dlrm_perf_model::core::Evaluator;
use dlrm_perf_model::gpusim::DeviceSpec;
use dlrm_perf_model::graph::Graph;
use dlrm_perf_model::kernels::CalibrationEffort;
use dlrm_perf_model::models::zoo;

/// `dlrm-default` and `dcn`, both at batch 256.
fn two_bases() -> (Graph, Graph) {
    let a = zoo::build("dlrm-default", 256).expect("dlrm-default builds");
    let b = zoo::build("dcn", 256).expect("dcn builds");
    assert_ne!(a.name, b.name);
    (a, b)
}

#[test]
fn prepared_graph_of_one_base_is_never_returned_for_another() {
    let (a, b) = two_bases();
    let store = PreparedStore::new();
    let resize = [GraphMutation::ResizeBatch(512)];
    let name = |base: &Graph| match store.get_or_prepare(base, &resize).as_ref() {
        Ok(g) => g.name.clone(),
        Err(e) => panic!("{} resizes: {e}", base.name),
    };
    assert_eq!(name(&a), a.name);
    assert_eq!(name(&b), "DCN");
    assert_eq!(
        name(&a),
        a.name,
        "switching back re-prepares the first base"
    );
    assert_eq!(
        store.stats().graphs,
        1,
        "a new base clears the previous one's graphs"
    );
}

#[test]
fn baseline_of_one_base_is_never_returned_for_another() {
    let (a, b) = two_bases();
    let pipeline = Pipeline::analyze(
        &DeviceSpec::v100(),
        &[a.clone(), b.clone()],
        CalibrationEffort::Quick,
        3,
        29,
    );
    let eval = Evaluator::new(vec![pipeline], DEFAULT_MEMO_CAPACITY);
    let for_a = eval.baseline(0, &a).expect("dlrm-default walks");
    assert_eq!(for_a.base().name, a.name);
    let for_b = eval.baseline(0, &b).expect("dcn walks");
    assert_eq!(for_b.base().name, "DCN");
    let fresh = eval.checkpoint(0, &b).expect("dcn walks");
    assert_eq!(
        for_b.baseline_prediction().e2e_us.to_bits(),
        fresh.baseline_prediction().e2e_us.to_bits()
    );
    assert_eq!(eval.baseline(0, &a).expect("walks").base().name, a.name);
}
