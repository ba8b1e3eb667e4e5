//! Chaos harness for the serving milestone: the server is driven with a
//! 10k-request mixed valid/malformed stream from concurrent clients while
//! a `FaultPlan` injects worker panics, kills, and hangs — and must hold
//! four contracts the whole time:
//!
//! 1. **It stays up** — every request gets exactly one response; panics
//!    never escape; killed workers respawn.
//! 2. **Memory stays bounded** — memo and prepared-graph caches never
//!    exceed their capacity caps, sampled live while the storm runs.
//! 3. **Tail latency stays bounded** — no request outlives its deadline
//!    by more than scheduling slack; sheds are explicit 429s, not queue
//!    growth.
//! 4. **Answers stay exact** — every admitted full-fidelity prediction is
//!    bitwise identical to `Pipeline::predict_memoized_scratch` run
//!    offline on the same prepared graph before the server ever started,
//!    and every admitted `Op::Optimize` report is bitwise identical to
//!    `OptimizationSearch` run offline on the same inputs.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dlperf_core::pipeline::Pipeline;
use dlperf_core::{
    prepare_graph, GraphMoves, GraphMutation, NoExtra, OptimizationSearch, SearchConfig,
    WalkScratch,
};
use dlperf_faults::FaultPlan;
use dlperf_gpusim::DeviceSpec;
use dlperf_kernels::{CalibrationEffort, MemoCache};
use dlperf_models::zoo;
use dlperf_serve::{
    Body, Op, OptimizeQuery, PredictQuery, Request, Response, Server, ServerConfig,
};

const TOTAL_REQUESTS: u64 = 10_000;
const CLIENTS: u64 = 8;
const MEMO_CAP: usize = 1024;
const PREPARED_CAP: usize = 64;
const DISTINCT_BATCHES: u64 = 200;
const MODEL: &str = "dlrm-default";
const BASE_BATCH: u64 = 512;

fn batch_for(i: u64) -> u64 {
    64 + 8 * (i % DISTINCT_BATCHES)
}

/// Expected Optimize answer: baseline bits plus per-entry
/// (description, e2e bits, delta bits).
type OptExpected = (u64, Vec<(String, u64, u64)>);

const MALFORMED: [&str; 8] = [
    "",
    "garbage that is not json",
    "{\"id\": 1, \"op\": ",
    "{\"id\": \"not a number\", \"op\": \"Ping\"}",
    "{\"id\": 1, \"op\": {\"Launch\": {\"missiles\": true}}}",
    "{\"id\": 1, \"op\": {\"Predict\": {\"model\": \"alexnet\", \"batch\": 64, \"device\": \"v100\"}}}",
    "{\"id\": 1, \"op\": {\"Predict\": {\"model\": \"dlrm-default\", \"batch\": 64, \"device\": \"h200\"}}}",
    "null",
];

#[test]
fn server_survives_chaos_with_bounded_memory_and_exact_answers() {
    let workloads = vec![zoo::build(MODEL, BASE_BATCH).expect("catalog model builds")];
    let device = DeviceSpec::v100();
    let pipeline = Pipeline::analyze(&device, &workloads, CalibrationEffort::Quick, 5, 11);

    // Offline reference, priced before the server exists: the same
    // pipeline, the same prepared graphs, a fresh unbounded cache.
    let base = zoo::build(MODEL, BASE_BATCH).expect("catalog model builds");
    let reference_cache = MemoCache::new();
    let mut scratch = WalkScratch::new();
    let mut expected: HashMap<u64, u64> = HashMap::new();
    for i in 0..DISTINCT_BATCHES {
        let batch = batch_for(i);
        let graph =
            prepare_graph(&base, &[GraphMutation::ResizeBatch(batch)]).expect("resize succeeds");
        let pred = pipeline
            .predict_memoized_scratch(&graph, &reference_cache, &mut scratch)
            .expect("offline predict");
        expected.insert(batch, pred.e2e_us.to_bits());
    }
    let expected = Arc::new(expected);

    // Offline optimization-search reference for the `Op::Optimize` lane:
    // same pipeline, same prepared base graph, same knobs the storm's
    // optimize requests carry. Served reports must match this bit for bit.
    const OPT_BATCHES: [u64; 2] = [256, 1024];
    let opt_base =
        prepare_graph(&base, &[GraphMutation::ResizeBatch(BASE_BATCH)]).expect("resize succeeds");
    let opt_reference = OptimizationSearch::<NoExtra>::new(std::slice::from_ref(&pipeline))
        .with_config(SearchConfig {
            max_depth: 1,
            ..SearchConfig::default()
        })
        .with_graph_moves(GraphMoves {
            batches: OPT_BATCHES.to_vec(),
            ..GraphMoves::default()
        })
        .run(&opt_base)
        .expect("offline search");
    let opt_expected: Arc<OptExpected> = Arc::new((
        opt_reference.baseline_e2e_us.to_bits(),
        opt_reference
            .ranked
            .iter()
            .map(|sc| {
                (
                    sc.description.clone(),
                    sc.e2e_us.to_bits(),
                    sc.delta_us.to_bits(),
                )
            })
            .collect(),
    ));

    let cfg = ServerConfig {
        workers: 4,
        queue_capacity: 256,
        default_deadline: Duration::from_secs(5),
        latency_budget_ms: 60_000.0,
        // Never trip to the degraded twin: every successful answer in
        // this run must be comparable to the full-fidelity reference.
        breaker_threshold: u32::MAX,
        breaker_cooldown: 1,
        memo_capacity: MEMO_CAP,
        prepared_capacity: PREPARED_CAP,
        base_batch: BASE_BATCH,
    };
    let plan = FaultPlan::healthy(2024).with_worker_faults(0.01, 0.005, 0.01);
    let server =
        Arc::new(Server::start(vec![pipeline], &[MODEL], cfg, Some(plan)).expect("server boots"));

    // Live cap sampler: caches must be bounded *during* the storm, not
    // just after it.
    let storm_over = Arc::new(AtomicBool::new(false));
    let sampler = {
        let server = Arc::clone(&server);
        let storm_over = Arc::clone(&storm_over);
        std::thread::spawn(move || {
            let mut max_memo = 0u64;
            let mut max_prepared = 0u64;
            while !storm_over.load(Ordering::SeqCst) {
                let stats = server.stats();
                max_memo = max_memo.max(stats.memo_entries);
                max_prepared = max_prepared.max(stats.prepared_entries);
                // Full + degraded cache per device, each individually
                // capped.
                assert!(
                    stats.memo_entries <= 2 * MEMO_CAP as u64,
                    "memo cache over cap mid-storm: {stats:?}"
                );
                assert!(
                    stats.prepared_entries <= PREPARED_CAP as u64,
                    "prepared store over cap mid-storm: {stats:?}"
                );
                std::thread::sleep(Duration::from_millis(5));
            }
            (max_memo, max_prepared)
        })
    };

    let per_client = TOTAL_REQUESTS / CLIENTS;
    let clients: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let server = Arc::clone(&server);
            let expected = Arc::clone(&expected);
            let opt_expected = Arc::clone(&opt_expected);
            std::thread::spawn(move || {
                let mut responses = 0u64;
                let mut exact = 0u64;
                let mut slowest = Duration::ZERO;
                for i in 0..per_client {
                    let n = c * per_client + i;
                    let started = Instant::now();
                    if n % 7 == 3 {
                        // Malformed / hostile lane, through the wire path.
                        let line = match n % 9 {
                            0 => "[".repeat(512),
                            1 => format!("{{\"s\": \"{}\"}}", "x".repeat(300 * 1024)),
                            2 => "{\"id\": 1, \"op\"\0: \"Ping\"}".to_string(),
                            _ => MALFORMED[(n % 8) as usize].to_string(),
                        };
                        let reply = server.submit_json(&line);
                        let resp: Response =
                            serde_json::from_str(&reply).expect("response is valid JSON");
                        match resp.body {
                            Body::Error(e) => assert!(
                                matches!(e.code, 400 | 404 | 429 | 500 | 504),
                                "malformed input got code {}: {}",
                                e.code,
                                e.message
                            ),
                            other => panic!("malformed input got success: {other:?}"),
                        }
                        responses += 1;
                    } else if n % 7 == 5 {
                        // Optimization-search lane: the served report must
                        // match the offline search bit for bit.
                        let resp = server.submit(Request {
                            id: n,
                            op: Op::Optimize(OptimizeQuery {
                                model: MODEL.into(),
                                batch: BASE_BATCH,
                                devices: Some(vec!["v100".into()]),
                                batches: Some(OPT_BATCHES.to_vec()),
                                beam_width: None,
                                max_depth: Some(1),
                                top_k: None,
                                deadline_ms: Some(5_000.0),
                            }),
                        });
                        assert_eq!(resp.id, n);
                        match resp.body {
                            Body::Optimization(o) => {
                                let (baseline_bits, ranked) = &*opt_expected;
                                assert_eq!(
                                    o.baseline_e2e_us.to_bits(),
                                    *baseline_bits,
                                    "optimize baseline drifted from offline"
                                );
                                assert_eq!(o.ranked.len(), ranked.len());
                                for (served, (desc, e2e_bits, delta_bits)) in
                                    o.ranked.iter().zip(ranked)
                                {
                                    assert_eq!(&served.description, desc);
                                    assert_eq!(served.e2e_us.to_bits(), *e2e_bits);
                                    assert_eq!(served.delta_us.to_bits(), *delta_bits);
                                }
                                exact += 1;
                            }
                            Body::Error(e) => assert!(
                                matches!(e.code, 429 | 500 | 504),
                                "optimize request got code {}: {}",
                                e.code,
                                e.message
                            ),
                            other => panic!("unexpected body: {other:?}"),
                        }
                        responses += 1;
                    } else {
                        let batch = batch_for(n);
                        let resp = server.submit(Request {
                            id: n,
                            op: Op::Predict(PredictQuery {
                                model: MODEL.into(),
                                batch,
                                device: "v100".into(),
                                deadline_ms: Some(500.0),
                            }),
                        });
                        assert_eq!(resp.id, n);
                        match resp.body {
                            Body::Prediction(p) => {
                                assert_eq!(
                                    p.confidence, "calibrated",
                                    "breaker must never degrade in this run"
                                );
                                assert_eq!(
                                    p.e2e_us.to_bits(),
                                    expected[&batch],
                                    "batch {batch}: served answer drifted from offline"
                                );
                                exact += 1;
                            }
                            Body::Error(e) => assert!(
                                matches!(e.code, 429 | 500 | 504),
                                "valid request got code {}: {}",
                                e.code,
                                e.message
                            ),
                            other => panic!("unexpected body: {other:?}"),
                        }
                        responses += 1;
                    }
                    slowest = slowest.max(started.elapsed());
                }
                (responses, exact, slowest)
            })
        })
        .collect();

    let mut responses = 0u64;
    let mut exact = 0u64;
    let mut slowest = Duration::ZERO;
    for c in clients {
        let (r, e, s) = c.join().expect("client thread must not panic");
        responses += r;
        exact += e;
        slowest = slowest.max(s);
    }
    storm_over.store(true, Ordering::SeqCst);
    let (max_memo, max_prepared) = sampler.join().expect("sampler thread must not panic");

    // 1. It stayed up: every request answered, and it still answers.
    assert_eq!(responses, TOTAL_REQUESTS);
    let resp = server.submit(Request {
        id: u64::MAX,
        op: Op::Ping,
    });
    assert!(
        matches!(resp.body, Body::Pong),
        "server dead after storm: {resp:?}"
    );

    // 4. Exactness had real coverage: the overwhelming majority of valid
    // requests must have completed (faults touch ~2.5% of them).
    assert!(
        exact > TOTAL_REQUESTS / 2,
        "too few exact answers to trust the storm: {exact}/{TOTAL_REQUESTS}"
    );

    // 3. Tail latency: deadline 500 ms + deep-queue slack, nowhere near
    // an unbounded hang.
    assert!(
        slowest < Duration::from_secs(30),
        "unbounded tail: {slowest:?}"
    );

    // 2. Bounded memory, and the bounds actually bit: the batch churn
    // (200 distinct) must have evicted from the 64-entry prepared store.
    let stats = server.stats();
    assert!(
        stats.memo_entries <= 2 * MEMO_CAP as u64,
        "memo over cap after storm: {stats:?}"
    );
    assert!(max_memo <= 2 * MEMO_CAP as u64);
    assert!(max_prepared <= PREPARED_CAP as u64);
    assert!(
        stats.prepared_evictions > 0,
        "batch churn should have evicted prepared graphs: {stats:?}"
    );
    assert_eq!(stats.queue_depth, 0, "queue must drain: {stats:?}");
    assert_eq!(
        stats.degraded_answers, 0,
        "breaker must not have degraded any answer: {stats:?}"
    );
    assert!(
        stats.completed >= TOTAL_REQUESTS,
        "stats lost requests: {stats:?}"
    );

    // The fault plan really fired: contained panics and injected
    // kill/hang failures are visible in the counters, not in crashes.
    assert!(stats.panics > 0, "panic injection never fired: {stats:?}");
    assert!(
        stats.deadline_expired > 0,
        "hang injection never fired: {stats:?}"
    );
}
