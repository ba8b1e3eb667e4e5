//! Property and planted-optimization tests for the unified optimization
//! search (`dlperf_core::search`).
//!
//! Two contracts are pinned here:
//!
//! * **Determinism** — the report (ranking, scores, bits) is identical at
//!   1, 2, and 8 threads, with the memo cache on or off. The 1-thread
//!   uncached run is the reference; everything else must match it bit
//!   for bit.
//! * **Pruning soundness / planted optimization** — on a graph built with
//!   unfused embedding bags, `FuseEmbeddingBags` is the known-best move;
//!   the search must rank it #1 and its predicted delta must equal, bit
//!   for bit, a full-walk re-prediction of the fused graph (the
//!   incremental splice never changes an answer, only its cost).
//!
//! The multi-GPU axis (`DistribAxis`) is held to both: its report is
//! identical at 1 and 8 threads, and every distributed score equals a
//! plain `DistributedPredictor::predict` of the same job.

use std::sync::OnceLock;

use dlrm_perf_model::core::pipeline::Pipeline;
use dlrm_perf_model::core::search::{
    GraphMoves, NoExtra, OptimizationReport, OptimizationSearch, SearchConfig,
};
use dlrm_perf_model::core::sweep::{prepare_graph, GraphMutation};
use dlrm_perf_model::core::{Evaluator, DEFAULT_MEMO_CAPACITY};
use dlrm_perf_model::distrib::{
    DistribAxis, DistribMove, DistributedDlrm, DistributedPredictor, ParallelismStrategy,
    ShardingPlan,
};
use dlrm_perf_model::gpusim::DeviceSpec;
use dlrm_perf_model::graph::Graph;
use dlrm_perf_model::kernels::CalibrationEffort;
use dlrm_perf_model::models::DlrmConfig;
use proptest::prelude::*;

/// One shared calibration (the expensive part); each case builds a fresh
/// search over clones.
fn base() -> &'static (Vec<Pipeline>, Graph) {
    static BASE: OnceLock<(Vec<Pipeline>, Graph)> = OnceLock::new();
    BASE.get_or_init(|| {
        // Unbatched embeddings: the graph keeps its individual
        // `EmbeddingBag` ops, so `FuseEmbeddingBags` is a legal (and
        // planted) optimization.
        let g = DlrmConfig {
            rows_per_table: vec![200_000; 4],
            batched_embedding: false,
            ..DlrmConfig::default_config(512)
        }
        .build();
        let pipelines = [DeviceSpec::v100(), DeviceSpec::p100()]
            .iter()
            .map(|d| {
                Pipeline::analyze(d, std::slice::from_ref(&g), CalibrationEffort::Quick, 8, 31)
            })
            .collect();
        (pipelines, g)
    })
}

/// Full bitwise fingerprint of a report: descriptions, score bits, CI
/// bits, eval/prune counts.
#[allow(clippy::type_complexity)]
fn fingerprint<X>(
    r: &OptimizationReport<X>,
) -> (
    u64,
    Vec<(String, u64, u64, Option<u64>, Option<u64>)>,
    usize,
    usize,
) {
    (
        r.baseline_e2e_us.to_bits(),
        r.ranked
            .iter()
            .map(|sc| {
                (
                    sc.description.clone(),
                    sc.e2e_us.to_bits(),
                    sc.delta_us.to_bits(),
                    sc.ci_low_us.map(f64::to_bits),
                    sc.ci_high_us.map(f64::to_bits),
                )
            })
            .collect(),
        r.evals,
        r.prunes,
    )
}

/// A search's evaluator: memoized, or the uncached reference, which makes
/// no memo lookup anywhere, its baselines included.
fn evaluator(pipelines: &[Pipeline], cached: bool) -> Evaluator<'_> {
    if cached {
        Evaluator::new(pipelines, DEFAULT_MEMO_CAPACITY)
    } else {
        Evaluator::uncached(pipelines)
    }
}

fn run_search(cached: bool, config: SearchConfig, batches: Vec<u64>) -> OptimizationReport {
    let (pipelines, g) = base();
    OptimizationSearch::<NoExtra>::with_evaluator(evaluator(pipelines, cached))
        .with_config(config)
        .with_graph_moves(GraphMoves {
            batches,
            ..GraphMoves::default()
        })
        .run(g)
        .expect("search runs")
}

#[test]
fn planted_fusion_ranks_first_with_bitwise_exact_delta() {
    let (pipelines, g) = base();
    let report = run_search(true, SearchConfig::default(), vec![]);

    // The planted optimization: the DLRM graph has unfused embedding
    // bags, and fusing them is the only real win among the baseline-batch
    // moves — it must be rank #1.
    assert!(!report.ranked.is_empty());
    let top = &report.ranked[0];
    assert!(
        top.candidate
            .mutations
            .contains(&GraphMutation::FuseEmbeddingBags),
        "top candidate should fuse the embedding bags, got: {}",
        top.description
    );
    assert!(
        top.delta_us > 0.0,
        "fusion must be a predicted win: {top:?}"
    );
    assert!(top.speedup > 1.0);

    // The search's predicted delta must be bitwise equal to pricing the
    // mutated graph from scratch with a full walk: the incremental
    // splice path changes evaluation cost, never the answer.
    let full_graph = prepare_graph(g, &top.candidate.mutations).expect("mutations apply");
    let full = pipelines[top.candidate.device]
        .predict(&full_graph)
        .expect("full walk");
    let baseline = pipelines[0].predict(g).expect("baseline walk");
    assert_eq!(
        top.e2e_us.to_bits(),
        full.e2e_us.to_bits(),
        "search score != full walk"
    );
    assert_eq!(
        top.delta_us.to_bits(),
        (baseline.e2e_us - full.e2e_us).to_bits(),
        "search delta != full-walk re-prediction delta"
    );

    // The incremental inner loop actually carried the search.
    assert!(report.evals > 0);
    assert!(
        report.incremental_frac() >= 0.5,
        "incremental path underused: {}/{} evals",
        report.incremental_evals,
        report.incremental_evals + report.full_evals
    );
}

#[test]
fn distrib_axis_report_is_thread_invariant_and_prices_like_predict() {
    let cfg = DlrmConfig::default_config(512);
    let probe = DistributedDlrm::new(
        cfg.clone(),
        ShardingPlan::round_robin(cfg.rows_per_table.len(), 2),
    )
    .expect("probe job");
    let pipelines = vec![Pipeline::analyze(
        &DeviceSpec::v100(),
        &probe.segments(0),
        CalibrationEffort::Quick,
        6,
        23,
    )];
    let strategies = vec![
        ParallelismStrategy::Hybrid,
        ParallelismStrategy::DataParallel,
    ];
    let g = cfg.build();
    let run = |threads: usize| {
        // A fresh evaluator per run: the axis's memo cache starts cold
        // every time.
        let eval = Evaluator::new(&pipelines[..], DEFAULT_MEMO_CAPACITY);
        let predictor = DistributedPredictor::new(&eval, 0);
        let axis = DistribAxis::new(cfg.clone(), predictor, vec![2, 4], strategies.clone());
        OptimizationSearch::<DistribMove>::new(&pipelines)
            .with_config(SearchConfig {
                beam_width: 4,
                max_depth: 2,
                threads,
                ..SearchConfig::default()
            })
            .with_graph_moves(GraphMoves {
                batches: vec![1024],
                ..GraphMoves::default()
            })
            .with_extra_axis(&axis, &axis)
            .run(&g)
            .expect("search runs")
    };
    let sequential = run(1);
    let parallel = run(8);
    assert_eq!(
        fingerprint(&parallel),
        fingerprint(&sequential),
        "8 threads diverged"
    );

    let plain_eval = Evaluator::uncached(&pipelines[..]);
    let plain_predictor = DistributedPredictor::new(&plain_eval, 0);
    let mut distributed = 0;
    for sc in &sequential.ranked {
        let Some(m) = &sc.candidate.extra else {
            continue;
        };
        let mut job_cfg = cfg.clone();
        for mutation in &sc.candidate.mutations {
            match mutation {
                GraphMutation::ResizeBatch(b) => job_cfg.batch_size = *b,
                other => panic!("distributed entry with graph rewrite {other}"),
            }
        }
        let job = DistributedDlrm::new(job_cfg, m.plan.clone())
            .expect("ranked plan builds")
            .with_strategy(m.strategy);
        let plain = plain_predictor.predict(&job).expect("job prices");
        assert_eq!(
            sc.e2e_us.to_bits(),
            plain.e2e_us.to_bits(),
            "search score != plain predict for {}",
            sc.description
        );
        distributed += 1;
    }
    assert!(
        distributed > 0,
        "no distributed entry ranked: {:?}",
        fingerprint(&sequential).1
    );
}

/// Non-empty subsets of the resize-target axis, driven by a bit mask.
fn batch_axis() -> impl Strategy<Value = Vec<u64>> {
    const ALL: [u64; 4] = [128, 256, 1024, 2048];
    (0usize..16).prop_map(|mask| {
        ALL.iter()
            .enumerate()
            .filter(|(i, _)| mask & (1 << i) != 0)
            .map(|(_, &b)| b)
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn report_is_bitwise_identical_across_threads_and_cache(
        batches in batch_axis(),
        beam in 2usize..6,
        depth in 1usize..3,
    ) {
        let make = |threads: usize| SearchConfig {
            beam_width: beam,
            max_depth: depth,
            threads,
            ..SearchConfig::default()
        };
        // Reference: one thread, no cache.
        let reference = fingerprint(&run_search(false, make(1), batches.clone()));
        // A second run on the same search object, its prepared graphs,
        // baselines and memo caches warm from the first.
        let (pipelines, g) = base();
        let search = OptimizationSearch::<NoExtra>::new(pipelines)
            .with_config(make(2))
            .with_graph_moves(GraphMoves { batches: batches.clone(), ..GraphMoves::default() });
        search.run(g).expect("search runs");
        let warm = fingerprint(&search.run(g).expect("warm search runs"));
        prop_assert_eq!(&warm, &reference, "warm re-run diverged");
        for threads in [1usize, 2, 8] {
            for cached in [false, true] {
                if threads == 1 && !cached {
                    continue;
                }
                let got = fingerprint(&run_search(cached, make(threads), batches.clone()));
                prop_assert_eq!(
                    &got,
                    &reference,
                    "threads={} cache={} diverged",
                    threads,
                    cached
                );
            }
        }
    }
}
