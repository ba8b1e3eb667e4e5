//! Golden wire replies of the prediction server: a fixed request stream
//! is submitted one line at a time, and every reply line is compared byte
//! for byte against `tests/golden/serve_replies.json`.
//!
//! The stream covers every endpoint that prices:
//! * `Predict` on both devices (and a device alias) at several batches;
//! * degraded `Predict`s, answered by the roofline twin after an injected
//!   worker kill trips the circuit breaker;
//! * a sharded `Recommend` over several strategies, world sizes including
//!   0, a known and an unknown topology;
//! * an `Optimize` on dcn at depth 2 with batch moves.
//!
//! `Stats` is left out: its counters depend on cache timing. Each server
//! runs one worker and the requests are submitted in order, so every reply
//! is a pure function of the stream. A mismatch means a served answer
//! changed; an intended change is regenerated with
//!
//! ```sh
//! UPDATE_GOLDEN=1 cargo test --test serve_replies
//! git diff tests/golden/serve_replies.json   # review before committing
//! ```

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Duration;

use dlrm_perf_model::core::pipeline::Pipeline;
use dlrm_perf_model::faults::FaultPlan;
use dlrm_perf_model::gpusim::DeviceSpec;
use dlrm_perf_model::kernels::CalibrationEffort;
use dlrm_perf_model::models::zoo;
use dlrm_perf_model::serve::{
    Objective, Op, OptimizeQuery, PredictQuery, RecommendQuery, Request, Server, ServerConfig,
};

const MODELS: [&str; 2] = ["dlrm-default", "dcn"];
const BASE_BATCH: u64 = 512;
const DEADLINE_MS: f64 = 600_000.0;

fn config() -> ServerConfig {
    ServerConfig {
        workers: 1,
        default_deadline: Duration::from_secs(600),
        latency_budget_ms: 1e9,
        base_batch: BASE_BATCH,
        ..ServerConfig::default()
    }
}

fn predict(model: &str, batch: u64, device: &str) -> Op {
    Op::Predict(PredictQuery {
        model: model.into(),
        batch,
        device: device.into(),
        deadline_ms: Some(DEADLINE_MS),
    })
}

fn stream() -> Vec<Op> {
    let mut ops = Vec::new();
    for device in ["v100", "p100", "tesla-v100"] {
        for batch in [256, 512, 1024, 4096] {
            ops.push(predict("dlrm-default", batch, device));
        }
        ops.push(predict("dcn", 768, device));
    }
    ops.push(predict("dlrm-default", 0, "v100"));
    ops.push(predict("dlrm-default", 512, "h200"));
    ops.push(Op::Recommend(RecommendQuery {
        model: "dlrm-default".into(),
        batches: vec![512, 1024],
        devices: vec![],
        max_latency_ms: None,
        world_sizes: vec![0, 2, 4],
        strategies: Some(vec!["dp".into(), "hybrid".into(), "mp".into()]),
        topologies: Some(vec!["nvlink".into(), "warp-drive".into()]),
        objective: Objective::Throughput,
        deadline_ms: Some(DEADLINE_MS),
    }));
    ops.push(Op::Recommend(RecommendQuery {
        model: "dcn".into(),
        batches: vec![256, 2048],
        devices: vec!["p100".into(), "tesla-v100".into(), "v100".into()],
        max_latency_ms: Some(50.0),
        world_sizes: vec![],
        strategies: None,
        topologies: None,
        objective: Objective::Latency,
        deadline_ms: Some(DEADLINE_MS),
    }));
    ops.push(Op::Optimize(OptimizeQuery {
        model: "dcn".into(),
        batch: 512,
        devices: Some(vec!["p100".into(), "v100".into()]),
        batches: Some(vec![256, 1024]),
        beam_width: None,
        max_depth: Some(2),
        top_k: Some(6),
        deadline_ms: Some(DEADLINE_MS),
    }));
    ops
}

/// Every reply line of `ops` submitted in order, keyed by position and
/// a label of the request.
fn replies(server: &Server, tag: &str, ops: Vec<Op>, out: &mut BTreeMap<String, String>) {
    for (i, op) in ops.into_iter().enumerate() {
        let label = match &op {
            Op::Predict(q) => format!("predict {} b{} {}", q.model, q.batch, q.device),
            Op::Recommend(q) => format!("recommend {}", q.model),
            Op::Optimize(q) => format!("optimize {}", q.model),
            Op::Stats | Op::Ping => unreachable!("not part of the stream"),
        };
        let line = serde_json::to_string(&Request { id: i as u64, op }).expect("request encodes");
        out.insert(format!("{tag}{i:02} {label}"), server.submit_json(&line));
    }
}

#[test]
fn served_replies_are_byte_identical_to_the_golden() {
    let workloads: Vec<_> = MODELS
        .iter()
        .map(|m| zoo::build(m, BASE_BATCH).expect("catalog model"))
        .collect();
    let pipelines: Vec<Pipeline> = [DeviceSpec::v100(), DeviceSpec::p100()]
        .iter()
        .map(|d| Pipeline::analyze(d, &workloads, CalibrationEffort::Quick, 5, 11))
        .collect();
    let mut actual = BTreeMap::new();

    let healthy = Server::start(pipelines.clone(), &MODELS, config(), None).expect("boots");
    replies(&healthy, "a", stream(), &mut actual);
    drop(healthy);

    // Every full-fidelity request is killed, and one failure trips the
    // breaker for one degraded answer: each query is sent twice, and the
    // second copy is answered by the roofline twin.
    let cfg = ServerConfig {
        breaker_threshold: 1,
        breaker_cooldown: 1,
        ..config()
    };
    let plan = FaultPlan::healthy(7).with_worker_faults(0.0, 1.0, 0.0);
    let faulty = Server::start(pipelines, &MODELS, cfg, Some(plan)).expect("boots");
    let mut twice = Vec::new();
    for batch in [256, 1024] {
        for device in ["v100", "p100"] {
            for model in MODELS {
                twice.push(predict(model, batch, device));
                twice.push(predict(model, batch, device));
            }
        }
    }
    replies(&faulty, "b", twice, &mut actual);

    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/serve_replies.json");
    if std::env::var("UPDATE_GOLDEN").as_deref() == Ok("1") {
        let rendered = serde_json::to_string(&actual).expect("serializable");
        std::fs::write(&path, rendered).expect("write golden");
        return;
    }
    let stored = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {} ({e}); regenerate with UPDATE_GOLDEN=1",
            path.display()
        )
    });
    let expected: BTreeMap<String, String> = serde_json::from_str(&stored).expect("golden parses");
    assert_eq!(
        actual.keys().collect::<Vec<_>>(),
        expected.keys().collect::<Vec<_>>(),
        "request stream changed"
    );
    for (key, reply) in &actual {
        assert_eq!(
            reply, &expected[key],
            "reply `{key}` differs from the golden"
        );
    }
}
