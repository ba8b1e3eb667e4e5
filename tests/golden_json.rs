//! Frozen bytes of every JSON format the workspace writes.
//!
//! Each file under `tests/golden/json/` was captured from the
//! value-tree renderer that the direct JSON writer replaced; these tests
//! render the same values today and compare bytes. A mismatch means a
//! persisted or wire format changed, so the files are never regenerated
//! to make a test pass.
//!
//! The values carry the writer's edge cases: NaN and ±inf (written as
//! `null`), `-0.0`, integers past 2^53, control characters, non-ASCII
//! text, U+2028, and empty vectors and maps.

use std::collections::BTreeMap;
use std::path::PathBuf;

use dlrm_perf_model::core::CorpusIngestState;
use dlrm_perf_model::models::DlrmConfig;
use dlrm_perf_model::nn::preprocess::Preprocessor;
use dlrm_perf_model::nn::{Dataset, Mlp, TrainedModel};
use dlrm_perf_model::runtime::{seal, CHECKPOINT_VERSION};
use dlrm_perf_model::serve::{
    Body, ConfigChoice, ErrorBody, ErrorCode, Objective, Op, OptimizationBody, OptimizationEntry,
    OptimizeQuery, PredictQuery, PredictionBody, RecommendQuery, RecommendationBody,
    RejectedConfig, Request, Response, StatsBody,
};
use dlrm_perf_model::trace::ingest::{
    FileReject, FileReport, FileStatus, QuarantineReport, SkipCounts,
};
use dlrm_perf_model::trace::{EventCat, Trace, TraceEvent};

/// 2^53 + 1: the first integer an `f64` cannot hold.
const PAST_2_53: u64 = (1 << 53) + 1;

/// Text no escaper may get wrong: quotes, backslashes, every escape
/// class of control character, DEL, non-ASCII and U+2028.
const NASTY: &str = "q\"b\\s/\n\r\t\u{0}\u{1}\u{8}\u{c}\u{1f}\u{7f}é漢😀\u{2028}\u{2029}end";

fn check(name: &str, actual: &str) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden/json")
        .join(name);
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing frozen sample {}: {e}", path.display()));
    if expected != actual {
        let at = expected
            .bytes()
            .zip(actual.bytes())
            .position(|(a, b)| a != b)
            .unwrap_or(expected.len().min(actual.len()));
        let lo = at.saturating_sub(40);
        panic!(
            "{name}: bytes differ from the frozen sample at byte {at} \
             (expected {} bytes, rendered {})\n expected: {:?}\n rendered: {:?}",
            expected.len(),
            actual.len(),
            expected.get(lo..(at + 40).min(expected.len())),
            actual.get(lo..(at + 40).min(actual.len())),
        );
    }
}

fn event(name: &str, cat: EventCat, ts_us: f64, dur_us: f64, correlation: u64) -> TraceEvent {
    TraceEvent {
        name: name.into(),
        cat,
        ts_us,
        dur_us,
        stream: 7,
        op_index: 3,
        correlation,
        op_key: String::new(),
    }
}

fn edge_trace() -> Trace {
    Trace {
        workload: NASTY.into(),
        device: "v100".into(),
        events: vec![
            TraceEvent {
                op_key: "AddMm".into(),
                ..event("addmm", EventCat::Op, 0.0, 1.5, 0)
            },
            event("cudaLaunchKernel", EventCat::Runtime, 1.25, 0.8, PAST_2_53),
            event(NASTY, EventCat::Kernel, -0.0, 1e-7, u64::MAX),
            event("nan", EventCat::Kernel, f64::NAN, f64::INFINITY, 1 << 53),
            event(
                "neg-inf",
                EventCat::Kernel,
                f64::NEG_INFINITY,
                123_456_789.0,
                42,
            ),
            event(
                "huge",
                EventCat::Kernel,
                9.0e15,
                1.0e21,
                9_000_000_000_000_000,
            ),
            event("tiny", EventCat::Kernel, 5e-324, 0.1 + 0.2, 1),
        ],
        span_us: 2.0f64.powi(70),
    }
}

#[test]
fn trace_json_is_frozen() {
    check("trace.json", &edge_trace().to_json());
    let empty = Trace {
        workload: String::new(),
        device: String::new(),
        events: Vec::new(),
        span_us: -0.0,
    };
    check("trace_empty.json", &empty.to_json());
    check("trace_chrome.json", &edge_trace().to_chrome_json());
}

fn file_report(label: &str, status: FileStatus) -> FileReport {
    FileReport {
        label: label.into(),
        status,
        traces: 2,
        events_accepted: 449,
        skips: SkipCounts {
            malformed: 1,
            oversized: 0,
            invalid_timing: 2,
            duplicate_correlation: 3,
            out_of_order_op: PAST_2_53,
        },
        bytes_read: 54_321,
        peak_buffer_bytes: 1_024,
    }
}

fn quarantine_report() -> QuarantineReport {
    let mut report = QuarantineReport::default();
    report.push(file_report("iter-000.trace.json", FileStatus::Clean));
    report.push(file_report("iter-001.trace.json", FileStatus::Degraded));
    report.push(file_report(
        "io",
        FileStatus::Quarantined(FileReject::Io(NASTY.into())),
    ));
    report.push(file_report(
        "big",
        FileStatus::Quarantined(FileReject::TooLarge),
    ));
    report.push(file_report(
        "cut",
        FileStatus::Quarantined(FileReject::Structure("truncated file".into())),
    ));
    report.push(file_report(
        "rot",
        FileStatus::Quarantined(FileReject::SkipBudgetExhausted),
    ));
    report.push(file_report(
        NASTY,
        FileStatus::Quarantined(FileReject::Panic(NASTY.into())),
    ));
    report
}

#[test]
fn quarantine_report_pretty_json_is_frozen() {
    check("quarantine_report.json", &quarantine_report().to_json());
    check(
        "quarantine_report_empty.json",
        &QuarantineReport::default().to_json(),
    );
}

fn corpus_state() -> CorpusIngestState {
    let mut samples = BTreeMap::new();
    samples.insert("gemm".to_string(), vec![46.8, -0.0, 0.1, 1e300, 5e-324]);
    samples.insert("memcpy".to_string(), Vec::new());
    samples.insert(
        NASTY.to_string(),
        vec![f64::NAN, f64::INFINITY, f64::NEG_INFINITY],
    );
    CorpusIngestState {
        next: 7,
        reports: quarantine_report().files,
        samples,
        unattributed_kernels: PAST_2_53,
        file_digests: vec!["00000000deadbeef".into(), "ffffffffffffffff".into()],
    }
}

/// The sealed envelope the supervisor writes for a corpus checkpoint:
/// `(completed steps, state JSON)` sealed under the job's schema.
fn sealed_checkpoint(step: u64, state: &CorpusIngestState) -> String {
    let state_json = serde_json::to_string(state).expect("state serializes");
    seal(
        "dlperf.checkpoint/corpus-ingest",
        CHECKPOINT_VERSION,
        &(step, state_json),
    )
    .expect("checkpoint seals")
}

#[test]
fn checkpoint_envelope_is_frozen() {
    check("checkpoint.json", &sealed_checkpoint(3, &corpus_state()));
    let empty = CorpusIngestState {
        next: 0,
        reports: Vec::new(),
        samples: BTreeMap::new(),
        unattributed_kernels: 0,
        file_digests: Vec::new(),
    };
    check("checkpoint_empty.json", &sealed_checkpoint(0, &empty));
}

fn serve_requests() -> Vec<Request> {
    vec![
        Request {
            id: 1,
            op: Op::Predict(PredictQuery {
                model: "dlrm-default".into(),
                batch: 2048,
                device: "v100".into(),
                deadline_ms: Some(250.5),
            }),
        },
        Request {
            id: 2,
            op: Op::Recommend(RecommendQuery {
                model: "dlrm-default".into(),
                batches: vec![512, 1024],
                devices: vec!["v100".into(), "a100".into()],
                max_latency_ms: None,
                world_sizes: vec![2, 4],
                strategies: Some(vec!["data-parallel".into(), "hybrid".into()]),
                topologies: Some(Vec::new()),
                objective: Objective::Throughput,
                deadline_ms: Some(f64::INFINITY),
            }),
        },
        Request {
            id: PAST_2_53,
            op: Op::Optimize(OptimizeQuery {
                model: NASTY.into(),
                batch: 512,
                devices: None,
                batches: Some(Vec::new()),
                beam_width: Some(4),
                max_depth: Some(1),
                top_k: None,
                deadline_ms: Some(-0.0),
            }),
        },
        Request {
            id: 4,
            op: Op::Stats,
        },
        Request {
            id: 5,
            op: Op::Ping,
        },
    ]
}

fn serve_responses() -> Vec<Response> {
    let choice = |device: &str, sharding: Option<&str>| ConfigChoice {
        device: device.into(),
        batch: 1024,
        sharding: sharding.map(Into::into),
        e2e_us: 8_294.5,
        samples_per_sec: 123_456.789,
        reasoning: "T1-bound embedding segment shortened by 12.5 µs".into(),
    };
    vec![
        Response {
            id: 1,
            body: Body::Prediction(PredictionBody {
                e2e_us: 12_345.678,
                active_us: 0.1 + 0.2,
                cpu_us: f64::NAN,
                gpu_us: -0.0,
                utilization: 0.875,
                degraded_kernels: 0,
                confidence: "full".into(),
            }),
        },
        Response {
            id: 2,
            body: Body::Recommendation(RecommendationBody {
                recommended: Some(choice("v100", Some("w4/hybrid"))),
                ranked: vec![
                    choice("v100", Some("w4/hybrid")),
                    choice("a100", Some("w2/round_robin")),
                    choice("a100", None),
                ],
                rejected: vec![RejectedConfig {
                    device: "p100".into(),
                    batch: 4096,
                    reason: NASTY.into(),
                }],
            }),
        },
        Response {
            id: 3,
            body: Body::Recommendation(RecommendationBody {
                recommended: None,
                ranked: Vec::new(),
                rejected: Vec::new(),
            }),
        },
        Response {
            id: 4,
            body: Body::Optimization(OptimizationBody {
                baseline_e2e_us: 20_234.75,
                ranked: vec![
                    OptimizationEntry {
                        description: "FuseEmbeddingBags".into(),
                        e2e_us: 19_000.25,
                        delta_us: -1_234.5,
                        speedup: 1.0625,
                        ci_low_us: Some(-1_300.25),
                        ci_high_us: None,
                        incremental: true,
                    },
                    OptimizationEntry {
                        description: NASTY.into(),
                        e2e_us: f64::NAN,
                        delta_us: 0.0,
                        speedup: f64::NEG_INFINITY,
                        ci_low_us: None,
                        ci_high_us: Some(1e-9),
                        incremental: false,
                    },
                ],
                evals: PAST_2_53,
                prunes: 3,
                incremental_frac: 2.0 / 3.0,
            }),
        },
        Response {
            id: 5,
            body: Body::Stats(StatsBody {
                admitted: 10,
                completed: 9,
                shed_queue: 0,
                shed_latency: 1,
                deadline_expired: 0,
                panics: 0,
                degraded_answers: 2,
                breaker_trips: 0,
                rejected: 1,
                queue_depth: 0,
                memo_hits: u64::MAX,
                memo_misses: PAST_2_53,
                memo_entries: 4096,
                memo_evictions: 0,
                prepared_entries: 3,
                prepared_evictions: 0,
                breaker: "closed".into(),
            }),
        },
        Response {
            id: 6,
            body: Body::Pong,
        },
        Response {
            id: 7,
            body: Body::error(ErrorCode::NotFound, format!("unknown model `{NASTY}`")),
        },
        Response {
            id: 8,
            body: Body::Error(ErrorBody::new(
                ErrorCode::DeadlineExceeded,
                "deadline exceeded",
            )),
        },
    ]
}

#[test]
fn serve_lines_are_frozen() {
    let mut lines = String::new();
    for req in serve_requests() {
        lines.push_str(&serde_json::to_string(&req).expect("request serializes"));
        lines.push('\n');
    }
    for resp in serve_responses() {
        lines.push_str(&serde_json::to_string(&resp).expect("response serializes"));
        lines.push('\n');
    }
    check("serve_lines.jsonl", &lines);
}

#[test]
fn graph_pretty_json_is_frozen() {
    let graph = DlrmConfig {
        name: "tiny".into(),
        batch_size: 4,
        bottom_mlp: vec![3, 4],
        top_mlp: vec![2, 1],
        rows_per_table: vec![10, 10],
        embedding_dim: 4,
        lookups_per_table: 2,
        batched_embedding: true,
        host_accessory_ops: 0,
    }
    .build();
    check("graph_pretty.json", &graph.to_json());
}

#[test]
fn trained_model_json_is_frozen() {
    let rows: Vec<Vec<f64>> = (0..6)
        .map(|i| vec![i as f64, (i * i) as f64 + 0.5])
        .collect();
    let targets: Vec<f64> = (0..6).map(|i| 10.0 + i as f64 * 1.5).collect();
    let data = Dataset::from_rows(&rows, &targets).expect("rows are rectangular");
    let model = TrainedModel::new(Mlp::new(2, 1, 3, 7), Preprocessor::fit(&data), 4.25);
    check(
        "trained_model.json",
        &serde_json::to_string(&model).expect("model serializes"),
    );
    check(
        "trained_model_pretty.json",
        &serde_json::to_string_pretty(&model).expect("model serializes"),
    );
}

#[test]
fn generic_shapes_are_frozen() {
    let mut numeric_keys = BTreeMap::new();
    numeric_keys.insert(PAST_2_53, vec![(1u8, -2i64, 0.1f32)]);
    numeric_keys.insert(0, Vec::new());
    let mut text_keys: BTreeMap<String, BTreeMap<String, Option<bool>>> = BTreeMap::new();
    text_keys.insert(NASTY.into(), BTreeMap::new());
    text_keys.insert(
        "x".into(),
        [("y".to_string(), None), ("z".to_string(), Some(true))].into(),
    );
    let mut out = String::new();
    out.push_str(&serde_json::to_string(&numeric_keys).unwrap());
    out.push('\n');
    out.push_str(&serde_json::to_string_pretty(&numeric_keys).unwrap());
    out.push('\n');
    out.push_str(&serde_json::to_string(&text_keys).unwrap());
    out.push('\n');
    out.push_str(&serde_json::to_string_pretty(&text_keys).unwrap());
    out.push('\n');
    out.push_str(
        &serde_json::to_string_pretty(&([[0u32; 0]; 2], Some(-0.0f64), None::<u8>)).unwrap(),
    );
    out.push('\n');
    check("generic_shapes.txt", &out);
}
