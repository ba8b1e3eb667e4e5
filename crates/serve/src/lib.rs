//! # dlperf-serve
//!
//! Overload-safe prediction-as-a-service over the dlperf pipeline: the
//! performance model, turned into a long-running daemon that answers
//! "price this configuration" and "which configuration should I train
//! on?" questions while staying up under overload, hostile input, and
//! injected worker chaos.
//!
//! The serving stack, outside in:
//!
//! * [`api`] — newline-delimited JSON wire protocol with typed error
//!   bodies (`400/404/429/504/500`) and a hostile-input prescreen;
//! * [`Server`] — admission control with explicit load shedding, deadline
//!   propagation into the prediction walk, a circuit breaker that
//!   degrades to roofline answers, per-request panic isolation, and
//!   worker self-healing;
//! * `recommend` (served as `Op::Recommend`) — the objective-driven
//!   configuration recommender;
//! * `optimize` (served as `Op::Optimize`) — the unified
//!   [`dlperf_core::OptimizationSearch`] behind the wire protocol: ranked
//!   graph-rewrite / batch / device optimizations with predicted deltas
//!   and confidence bands.
//!
//! Answers for admitted full-fidelity requests are bitwise identical to
//! the offline [`dlperf_core::pipeline::Pipeline::predict_memoized_scratch`]
//! path: every robustness mechanism changes *whether* a request is
//! answered, never *what* an answered request says.

pub mod api;
mod optimize;
mod recommend;
mod server;

pub use api::{
    Body, ConfigChoice, ErrorBody, ErrorCode, Objective, Op, OptimizationBody, OptimizationEntry,
    OptimizeQuery, PredictQuery, PredictionBody, RecommendQuery, RecommendationBody,
    RejectedConfig, Request, Response, StatsBody,
};
pub use server::{Server, ServerConfig};

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    use dlperf_core::pipeline::Pipeline;
    use dlperf_core::{
        prepare_graph, Evaluator, GraphMutation, WalkScratch, DEFAULT_MEMO_CAPACITY,
    };
    use dlperf_faults::FaultPlan;
    use dlperf_gpusim::DeviceSpec;
    use dlperf_kernels::{CalibrationEffort, MemoCache};
    use dlperf_models::zoo;

    use super::*;

    fn quick_pipeline_for(device: &DeviceSpec) -> Pipeline {
        let workloads = vec![zoo::build("dlrm-default", 512).unwrap()];
        Pipeline::analyze(device, &workloads, CalibrationEffort::Quick, 5, 11)
    }

    fn quick_pipeline() -> Pipeline {
        quick_pipeline_for(&DeviceSpec::v100())
    }

    fn small_config() -> ServerConfig {
        ServerConfig {
            workers: 2,
            base_batch: 512,
            memo_capacity: 1 << 14,
            prepared_capacity: 32,
            ..ServerConfig::default()
        }
    }

    fn predict_req(id: u64, batch: u64) -> Request {
        Request {
            id,
            op: Op::Predict(PredictQuery {
                model: "dlrm-default".into(),
                batch,
                device: "v100".into(),
                deadline_ms: None,
            }),
        }
    }

    #[test]
    fn predict_matches_offline_pipeline_bitwise() {
        let pipeline = quick_pipeline();
        let base = zoo::build("dlrm-default", 512).unwrap();
        let offline_graph = prepare_graph(&base, &[GraphMutation::ResizeBatch(768)]).unwrap();
        let offline = pipeline
            .predict_memoized_scratch(&offline_graph, &MemoCache::new(), &mut WalkScratch::new())
            .unwrap();

        let server =
            Server::start(vec![pipeline], &["dlrm-default"], small_config(), None).unwrap();
        for _ in 0..2 {
            // Second round hits both caches; the bits must not move.
            let resp = server.submit(predict_req(1, 768));
            match resp.body {
                Body::Prediction(p) => {
                    assert_eq!(p.e2e_us.to_bits(), offline.e2e_us.to_bits());
                    assert_eq!(p.active_us.to_bits(), offline.active_us.to_bits());
                    assert_eq!(p.confidence, "calibrated");
                }
                other => panic!("expected prediction, got {other:?}"),
            }
        }
        let stats = server.stats();
        assert_eq!(stats.admitted, 2);
        assert_eq!(stats.completed, 2);
    }

    #[test]
    fn unknown_names_and_bad_batches_get_typed_errors() {
        let server = Server::start(
            vec![quick_pipeline()],
            &["dlrm-default"],
            small_config(),
            None,
        )
        .unwrap();
        let cases = [
            (
                Request {
                    id: 1,
                    op: Op::Predict(PredictQuery {
                        model: "alexnet".into(),
                        batch: 64,
                        device: "v100".into(),
                        deadline_ms: None,
                    }),
                },
                404,
            ),
            (
                Request {
                    id: 2,
                    op: Op::Predict(PredictQuery {
                        model: "dlrm-default".into(),
                        batch: 64,
                        device: "h100".into(),
                        deadline_ms: None,
                    }),
                },
                404,
            ),
            (predict_req(3, 0), 400),
        ];
        for (req, code) in cases {
            let id = req.id;
            let resp = server.submit(req);
            assert_eq!(resp.id, id);
            match resp.body {
                Body::Error(e) => assert_eq!(e.code, code),
                other => panic!("expected error, got {other:?}"),
            }
        }
    }

    #[test]
    fn malformed_json_is_rejected_not_parsed() {
        let server = Server::start(
            vec![quick_pipeline()],
            &["dlrm-default"],
            small_config(),
            None,
        )
        .unwrap();
        for hostile in [
            "",
            "not json at all",
            "{\"id\": ",
            &"[".repeat(api::MAX_JSON_DEPTH * 4),
            &"x".repeat(api::MAX_LINE_BYTES + 16),
            "{\"id\": 1, \"op\": {\"Launch\": {}}}",
        ] {
            let line = server.submit_json(hostile);
            let resp: Response = serde_json::from_str(&line).unwrap();
            match resp.body {
                Body::Error(e) => {
                    assert_eq!(e.code, 400, "input {:?}", &hostile[..hostile.len().min(40)])
                }
                other => panic!("expected 400, got {other:?}"),
            }
        }
        // And a valid line still works afterwards.
        let line = server.submit_json("{\"id\": 9, \"op\": \"Ping\"}");
        let resp: Response = serde_json::from_str(&line).unwrap();
        assert!(matches!(resp.body, Body::Pong), "got {resp:?}");
    }

    #[test]
    fn unparseable_request_names_the_first_bad_field_in_document_order() {
        let server = Server::start(
            vec![quick_pipeline()],
            &["dlrm-default"],
            small_config(),
            None,
        )
        .unwrap();
        let message = |line: &str| match serde_json::from_str::<Response>(&server.submit_json(line))
            .unwrap()
            .body
        {
            Body::Error(e) => (e.code, e.message),
            other => panic!("expected an error body, got {other:?}"),
        };
        // Fields are type-checked as they are read; a missing one is
        // reported only once the whole object has been read. So a
        // wrong-typed `op` wins over a missing `id`, wherever it sits.
        let bad_op = "unparseable request: field `op`: expected variant of `Op`, found number";
        assert_eq!(message("{\"op\": 7}"), (400, bad_op.to_string()));
        assert_eq!(message("{\"op\": 7, \"id\": 1}"), (400, bad_op.to_string()));
        assert_eq!(
            message("{\"op\": \"Ping\"}"),
            (400, "unparseable request: missing field `id`".to_string())
        );
    }

    #[test]
    fn zero_capacity_queue_sheds_deterministically() {
        let cfg = ServerConfig {
            queue_capacity: 0,
            ..small_config()
        };
        let server = Server::start(vec![quick_pipeline()], &["dlrm-default"], cfg, None).unwrap();
        let resp = server.submit(predict_req(1, 512));
        match resp.body {
            Body::Error(e) => {
                assert_eq!(e.code, 429);
                assert_eq!(e.kind, "shed");
            }
            other => panic!("expected shed, got {other:?}"),
        }
        assert_eq!(server.stats().shed_queue, 1);
        assert_eq!(server.stats().admitted, 0);
    }

    #[test]
    fn injected_hang_becomes_deadline_error_within_budget() {
        let plan = FaultPlan::healthy(77).with_worker_faults(0.0, 0.0, 1.0);
        let server = Server::start(
            vec![quick_pipeline()],
            &["dlrm-default"],
            small_config(),
            Some(plan),
        )
        .unwrap();
        let started = Instant::now();
        let resp = server.submit(Request {
            id: 5,
            op: Op::Predict(PredictQuery {
                model: "dlrm-default".into(),
                batch: 512,
                device: "v100".into(),
                deadline_ms: Some(80.0),
            }),
        });
        let wall = started.elapsed();
        match resp.body {
            Body::Error(e) => {
                assert_eq!(e.code, 504);
                assert_eq!(e.kind, "deadline");
            }
            other => panic!("expected deadline error, got {other:?}"),
        }
        assert!(wall < Duration::from_secs(5), "hang not bounded: {wall:?}");
        assert!(server.stats().deadline_expired >= 1);
    }

    #[test]
    fn injected_kill_respawns_the_worker_pool() {
        let plan = FaultPlan::healthy(3).with_worker_faults(0.0, 1.0, 0.0);
        let cfg = ServerConfig {
            workers: 1,
            ..small_config()
        };
        let server =
            Server::start(vec![quick_pipeline()], &["dlrm-default"], cfg, Some(plan)).unwrap();
        // Every predict kills the (sole) worker; the pool must heal each
        // time and keep answering.
        for id in 0..3 {
            let resp = server.submit(predict_req(id, 512));
            match resp.body {
                Body::Error(e) => {
                    assert_eq!(e.code, 500);
                    assert!(e.message.contains("killed"), "{}", e.message);
                }
                other => panic!("expected kill error, got {other:?}"),
            }
        }
        let resp = server.submit(Request {
            id: 99,
            op: Op::Ping,
        });
        assert!(matches!(resp.body, Body::Pong));
    }

    #[test]
    fn breaker_trips_to_degraded_answers_and_recovers() {
        let plan = FaultPlan::healthy(13).with_worker_faults(1.0, 0.0, 0.0);
        let cfg = ServerConfig {
            workers: 1,
            breaker_threshold: 2,
            breaker_cooldown: 3,
            ..small_config()
        };
        let server =
            Server::start(vec![quick_pipeline()], &["dlrm-default"], cfg, Some(plan)).unwrap();

        // Two injected panics trip the breaker...
        for id in 0..2 {
            let resp = server.submit(predict_req(id, 512));
            match resp.body {
                Body::Error(e) => {
                    assert_eq!(e.code, 500);
                    assert!(e.message.contains("panic"), "{}", e.message);
                }
                other => panic!("expected panic error, got {other:?}"),
            }
        }
        let stats = server.stats();
        assert_eq!(stats.panics, 2);
        assert_eq!(stats.breaker_trips, 1);
        assert_eq!(stats.breaker, "open");

        // ...after which the cooldown serves degraded roofline answers
        // (no injection on the degraded path, so these always succeed).
        for id in 10..13 {
            let resp = server.submit(predict_req(id, 512));
            match resp.body {
                Body::Prediction(p) => {
                    assert_eq!(p.confidence, "degraded");
                    assert!(p.degraded_kernels > 0);
                    assert!(p.e2e_us > 0.0);
                }
                other => panic!("expected degraded prediction, got {other:?}"),
            }
        }
        assert_eq!(server.stats().degraded_answers, 3);

        // Cooldown exhausted: the half-open probe takes the full path,
        // panics again (injection probability 1.0), and re-trips.
        let resp = server.submit(predict_req(20, 512));
        assert!(matches!(resp.body, Body::Error(_)));
        assert_eq!(server.stats().breaker_trips, 2);
    }

    #[test]
    fn recommend_ranks_by_objective_and_explains_rejections() {
        let pipeline = quick_pipeline();
        let server =
            Server::start(vec![pipeline], &["dlrm-default"], small_config(), None).unwrap();
        let resp = server.submit(Request {
            id: 42,
            op: Op::Recommend(RecommendQuery {
                model: "dlrm-default".into(),
                batches: vec![256, 1024],
                devices: vec![],
                max_latency_ms: None,
                world_sizes: vec![],
                strategies: None,
                topologies: None,
                objective: Objective::Latency,
                deadline_ms: Some(60_000.0),
            }),
        });
        let rec = match resp.body {
            Body::Recommendation(r) => r,
            other => panic!("expected recommendation, got {other:?}"),
        };
        assert_eq!(rec.ranked.len(), 2);
        let best = rec.recommended.as_ref().unwrap();
        assert_eq!(best.e2e_us.to_bits(), rec.ranked[0].e2e_us.to_bits());
        assert!(rec.ranked[0].e2e_us <= rec.ranked[1].e2e_us);
        assert!(best.reasoning.contains("rank 1"), "{}", best.reasoning);

        // A bound below the best candidate rejects everything, with
        // reasons.
        let floor_ms = rec.ranked[0].e2e_us / 1000.0;
        let resp = server.submit(Request {
            id: 43,
            op: Op::Recommend(RecommendQuery {
                model: "dlrm-default".into(),
                batches: vec![256, 1024],
                devices: vec!["v100".into()],
                max_latency_ms: Some(floor_ms / 100.0),
                world_sizes: vec![],
                strategies: None,
                topologies: None,
                objective: Objective::Throughput,
                deadline_ms: Some(60_000.0),
            }),
        });
        match resp.body {
            Body::Recommendation(r) => {
                assert!(r.recommended.is_none());
                assert_eq!(r.rejected.len(), 2);
                assert!(
                    r.rejected[0].reason.contains("exceeds"),
                    "{}",
                    r.rejected[0].reason
                );
            }
            other => panic!("expected recommendation, got {other:?}"),
        }
    }

    #[test]
    fn hostile_deadlines_cannot_kill_the_worker_pool() {
        // Duration::from_secs_f64 panics on values like 1e300; fed raw
        // from deadline_ms it would unwind workers outside the request
        // catch_unwind boundary — each such request retiring one worker
        // for good. More hostile requests than workers proves both the
        // clamp and the respawn-on-death guard.
        let cfg = ServerConfig {
            workers: 2,
            ..small_config()
        };
        let server = Server::start(vec![quick_pipeline()], &["dlrm-default"], cfg, None).unwrap();
        let hostile = [
            1e300,
            f64::INFINITY,
            f64::NAN,
            -1e300,
            -1.0,
            f64::MIN_POSITIVE,
        ];
        for (i, ms) in hostile.iter().cycle().take(8).enumerate() {
            let resp = server.submit(Request {
                id: i as u64,
                op: Op::Predict(PredictQuery {
                    model: "dlrm-default".into(),
                    batch: 512,
                    device: "v100".into(),
                    deadline_ms: Some(*ms),
                }),
            });
            // Clamped-to-zero deadlines get a 504; the rest get answers.
            // What no request may get is a dead-pool "shut down" error.
            match resp.body {
                Body::Prediction(_) => {}
                Body::Error(e) => {
                    assert_eq!(e.code, 504, "deadline {ms}: unexpected error {e:?}")
                }
                other => panic!("deadline {ms}: got {other:?}"),
            }
        }
        let resp = server.submit(Request {
            id: 99,
            op: Op::Ping,
        });
        assert!(matches!(resp.body, Body::Pong), "pool died: {resp:?}");
        assert_eq!(
            server.stats().panics,
            0,
            "hostile deadlines must not panic workers"
        );
    }

    #[test]
    fn transport_rejected_lines_are_counted_and_valid_json() {
        let server = Server::start(
            vec![quick_pipeline()],
            &["dlrm-default"],
            small_config(),
            None,
        )
        .unwrap();
        let line = server.reject_line("request line exceeds size cap");
        let resp: Response = serde_json::from_str(&line).unwrap();
        match resp.body {
            Body::Error(e) => {
                assert_eq!(e.code, 400);
                assert!(e.message.contains("size cap"), "{}", e.message);
            }
            other => panic!("expected 400, got {other:?}"),
        }
        let stats = server.stats();
        assert_eq!(stats.rejected, 1);
        assert_eq!(stats.completed, 1);
    }

    #[test]
    fn recommend_prices_each_device_once_despite_repeats_and_aliases() {
        let server = Server::start(
            vec![
                quick_pipeline_for(&DeviceSpec::v100()),
                quick_pipeline_for(&DeviceSpec::p100()),
            ],
            &["dlrm-default"],
            small_config(),
            None,
        )
        .unwrap();
        // Non-adjacent repeats (and an alias of the first device): each
        // canonical device must appear exactly once in the ranking.
        let resp = server.submit(Request {
            id: 60,
            op: Op::Recommend(RecommendQuery {
                model: "dlrm-default".into(),
                batches: vec![256],
                devices: vec!["v100".into(), "p100".into(), "tesla-v100".into()],
                max_latency_ms: None,
                world_sizes: vec![],
                strategies: None,
                topologies: None,
                objective: Objective::Latency,
                deadline_ms: Some(60_000.0),
            }),
        });
        match resp.body {
            Body::Recommendation(r) => {
                assert_eq!(r.ranked.len(), 2, "one entry per device: {:?}", r.ranked);
                let mut devices: Vec<&str> = r.ranked.iter().map(|c| c.device.as_str()).collect();
                devices.sort_unstable();
                devices.dedup();
                assert_eq!(devices.len(), 2, "duplicate device priced twice");
            }
            other => panic!("expected recommendation, got {other:?}"),
        }
    }

    #[test]
    fn recommend_covers_the_sharding_axis_for_dlrm() {
        let server = Server::start(
            vec![quick_pipeline()],
            &["dlrm-default"],
            small_config(),
            None,
        )
        .unwrap();
        let resp = server.submit(Request {
            id: 50,
            op: Op::Recommend(RecommendQuery {
                model: "dlrm-default".into(),
                batches: vec![512],
                devices: vec!["v100".into()],
                max_latency_ms: None,
                world_sizes: vec![2],
                strategies: Some(vec!["dp".into(), "hybrid".into()]),
                topologies: Some(vec!["nvlink".into()]),
                objective: Objective::Latency,
                deadline_ms: Some(120_000.0),
            }),
        });
        match resp.body {
            Body::Recommendation(r) => {
                assert!(
                    r.ranked.iter().any(|c| c.sharding.is_some()),
                    "expected sharded candidates, got {:?}",
                    r.ranked.iter().map(|c| &c.reasoning).collect::<Vec<_>>()
                );
                assert!(r.ranked.iter().any(|c| c.sharding.is_none()));
                // The matrix labels carry the pinned topology and both
                // requested strategies.
                let shardings: Vec<&str> = r
                    .ranked
                    .iter()
                    .filter_map(|c| c.sharding.as_deref())
                    .collect();
                assert!(
                    shardings.iter().any(|s| s.starts_with("nvlink/dp/")),
                    "{shardings:?}"
                );
                assert!(
                    shardings.iter().any(|s| s.starts_with("nvlink/hybrid/")),
                    "{shardings:?}"
                );
            }
            other => panic!("expected recommendation, got {other:?}"),
        }

        // An unknown strategy name is a typed error, like an unknown
        // device; an unknown topology name still answers, degraded.
        let resp = server.submit(Request {
            id: 51,
            op: Op::Recommend(RecommendQuery {
                model: "dlrm-default".into(),
                batches: vec![512],
                devices: vec!["v100".into()],
                max_latency_ms: None,
                world_sizes: vec![2],
                strategies: Some(vec!["tensor-magic".into()]),
                topologies: None,
                objective: Objective::Latency,
                deadline_ms: Some(120_000.0),
            }),
        });
        match resp.body {
            Body::Error(e) => {
                assert_eq!(e.code, 404);
                assert!(e.message.contains("tensor-magic"), "{}", e.message);
            }
            other => panic!("expected 404, got {other:?}"),
        }
        let resp = server.submit(Request {
            id: 52,
            op: Op::Recommend(RecommendQuery {
                model: "dlrm-default".into(),
                batches: vec![512],
                devices: vec!["v100".into()],
                max_latency_ms: None,
                world_sizes: vec![2],
                strategies: None,
                topologies: Some(vec!["quantum-fabric".into()]),
                objective: Objective::Latency,
                deadline_ms: Some(120_000.0),
            }),
        });
        match resp.body {
            Body::Recommendation(r) => {
                assert!(
                    r.ranked
                        .iter()
                        .filter_map(|c| c.sharding.as_deref())
                        .any(|s| s.contains("degraded")),
                    "unknown topologies must answer with a degraded label"
                );
            }
            other => panic!("expected recommendation, got {other:?}"),
        }
    }

    #[test]
    fn recommend_world_zero_rejects_cells_and_sharded_prices_match_offline() {
        use dlperf_distrib::{
            enumerate_matrix, sweep_shardings, DistributedPredictor, ParallelismStrategy,
        };
        use dlperf_runtime::CancellationToken;

        let pipeline = quick_pipeline();
        let server = Server::start(
            vec![pipeline.clone()],
            &["dlrm-default"],
            small_config(),
            None,
        )
        .unwrap();
        let resp = server.submit(Request {
            id: 60,
            op: Op::Recommend(RecommendQuery {
                model: "dlrm-default".into(),
                batches: vec![512],
                devices: vec!["v100".into()],
                max_latency_ms: None,
                world_sizes: vec![0, 2],
                strategies: None,
                topologies: None,
                objective: Objective::Latency,
                deadline_ms: Some(120_000.0),
            }),
        });
        let Body::Recommendation(r) = resp.body else {
            panic!("expected recommendation, got {:?}", resp.body);
        };
        for plan in ["round_robin", "block", "skewed0"] {
            let label = format!("auto/hybrid/w0/{plan}");
            assert!(
                r.rejected.iter().any(|c| c.reason.contains(&label)),
                "{label} not rejected: {:?}",
                r.rejected
            );
        }
        assert_eq!(server.stats().panics, 0, "world 0 must not panic a worker");

        // The served sharded prices, made on the server's bounded cache,
        // equal an offline sweep on a fresh evaluator bit for bit.
        let config = zoo::dlrm_config("dlrm-default", 512).unwrap();
        let scenarios = enumerate_matrix(
            config.rows_per_table.len(),
            &[2],
            &[ParallelismStrategy::Hybrid],
            &["auto"],
            pipeline.device(),
        );
        let eval = Evaluator::new(vec![pipeline], DEFAULT_MEMO_CAPACITY);
        let offline = sweep_shardings(
            &DistributedPredictor::new(&eval, 0),
            &config,
            &scenarios,
            1,
            &CancellationToken::new(),
        );
        let mut compared = 0;
        for result in offline.results.iter().flatten() {
            let want = result.prediction.as_ref().unwrap().e2e_us;
            let served = r
                .ranked
                .iter()
                .find(|c| c.sharding.as_deref() == Some(result.label.as_str()))
                .unwrap_or_else(|| panic!("{} not ranked", result.label));
            assert_eq!(served.e2e_us.to_bits(), want.to_bits(), "{}", result.label);
            compared += 1;
        }
        assert_eq!(compared, 3);
    }

    #[test]
    fn optimize_matches_offline_search_bitwise() {
        use dlperf_core::{GraphMoves, NoExtra, OptimizationSearch, SearchConfig};

        let pipelines = vec![
            quick_pipeline_for(&DeviceSpec::v100()),
            quick_pipeline_for(&DeviceSpec::p100()),
        ];
        // The offline reference: same pipelines, same graph, same knobs.
        let base = prepare_graph(
            &zoo::build("dlrm-default", 512).unwrap(),
            &[GraphMutation::ResizeBatch(512)],
        )
        .unwrap();
        let offline = OptimizationSearch::<NoExtra>::new(&pipelines)
            .with_config(SearchConfig {
                max_depth: 2,
                ..SearchConfig::default()
            })
            .with_graph_moves(GraphMoves {
                batches: vec![256, 1024],
                ..GraphMoves::default()
            })
            .run(&base)
            .unwrap();

        let server = Server::start(pipelines, &["dlrm-default"], small_config(), None).unwrap();
        let query = OptimizeQuery {
            model: "dlrm-default".into(),
            batch: 512,
            devices: Some(vec!["tesla-v100".into(), "v100".into(), "p100".into()]),
            batches: Some(vec![256, 1024]),
            beam_width: None,
            max_depth: None,
            top_k: None,
            deadline_ms: Some(120_000.0),
        };
        let optimize = |id| match server
            .submit(Request {
                id,
                op: Op::Optimize(query.clone()),
            })
            .body
        {
            Body::Optimization(b) => b,
            other => panic!("expected optimization, got {other:?}"),
        };
        let body = optimize(70);
        assert_eq!(
            body.baseline_e2e_us.to_bits(),
            offline.baseline_e2e_us.to_bits()
        );
        assert_eq!(body.ranked.len(), offline.ranked.len());
        for (served, off) in body.ranked.iter().zip(&offline.ranked) {
            assert_eq!(served.description, off.description);
            assert_eq!(served.e2e_us.to_bits(), off.e2e_us.to_bits());
            assert_eq!(served.delta_us.to_bits(), off.delta_us.to_bits());
        }
        assert!(!body.ranked.is_empty());
        assert!(
            body.ranked[0].delta_us >= 0.0,
            "top entry must not lose time"
        );
        assert!(body.evals >= body.ranked.len() as u64);

        // The search priced through the server's bounded memo caches; the
        // same query again answers from them warm, bit for bit (`Debug`
        // prints every f64 in its exact round-trip form).
        let warm = server.stats();
        let cap = small_config().memo_capacity as u64;
        assert!(
            warm.memo_entries > 0 && warm.memo_entries <= cap,
            "{warm:?}"
        );
        let again = optimize(72);
        assert_eq!(format!("{again:?}"), format!("{body:?}"));
        assert!(
            server.stats().memo_hits > warm.memo_hits,
            "repeat must hit the warm caches"
        );

        // Unknown names stay typed errors on this op too.
        let resp = server.submit(Request {
            id: 71,
            op: Op::Optimize(OptimizeQuery {
                model: "alexnet".into(),
                batch: 512,
                devices: None,
                batches: None,
                beam_width: None,
                max_depth: None,
                top_k: None,
                deadline_ms: None,
            }),
        });
        match resp.body {
            Body::Error(e) => assert_eq!(e.code, 404),
            other => panic!("expected 404, got {other:?}"),
        }
    }

    #[test]
    fn concurrent_submitters_share_bounded_caches() {
        let cfg = ServerConfig {
            workers: 4,
            memo_capacity: 1 << 14,
            prepared_capacity: 8,
            base_batch: 512,
            ..ServerConfig::default()
        };
        let server =
            Arc::new(Server::start(vec![quick_pipeline()], &["dlrm-default"], cfg, None).unwrap());
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let server = Arc::clone(&server);
                std::thread::spawn(move || {
                    for i in 0..12u64 {
                        // 16 distinct batches churn the 8-entry prepared
                        // store.
                        let batch = 256 + 32 * ((t * 12 + i) % 16);
                        let resp = server.submit(predict_req(t * 100 + i, batch));
                        assert!(matches!(resp.body, Body::Prediction(_)), "got {resp:?}");
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let stats = server.stats();
        assert_eq!(stats.completed, 48);
        assert!(stats.prepared_entries <= 8, "prepared over cap: {stats:?}");
        assert!(stats.prepared_evictions > 0, "churn must evict: {stats:?}");
    }
}
