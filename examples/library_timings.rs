//! Library timings: the rows of EXPERIMENTS.md "Library performance".
//!
//! For dlrm-default at batch 1024 and ResNet-50 at batch 64 on one v100
//! `Quick` pipeline, it times, on one thread:
//!
//! * a warm Algorithm-1 walk on an unbounded memo cache (every kernel a
//!   hit) and on a bounded one (2^18 entries, the server's);
//! * a cold walk (fresh scratch, empty cache);
//! * `graph::memory::estimate`;
//! * `Graph::clone` and `prepare_graph` with one `ResizeBatch` (to twice
//!   the batch).
//!
//! For dcn at batch 1024 it times what each fresh search candidate pays:
//!
//! * `GraphIndex::build` (node signatures and producers);
//! * `hoistable_nodes` on a graph whose index is already cached;
//! * `prepare_graph` with one `HoistNode` (the last hoistable node);
//! * one fresh depth-2 `OptimizationSearch` as the server runs it (new
//!   search over a subset view of a long-lived evaluator, so a warm
//!   bounded memo cache, beam 8, top 5, two batch targets).
//!
//! Each figure is the median of 31 timings; each timing covers 200 calls
//! after a warm-up (5 calls for cold walks, 20 for searches), divided per
//! call. One run is
//! one round; EXPERIMENTS.md gives the median over several rounds. There
//! are no thresholds; the host line says what produced the numbers.
//!
//! Run with `cargo run --release --example library_timings`.

use std::hint::black_box;
use std::time::Instant;

use dlrm_perf_model::core::pipeline::Pipeline;
use dlrm_perf_model::core::predictor::WalkScratch;
use dlrm_perf_model::core::sweep::{prepare_graph, GraphMutation};
use dlrm_perf_model::core::{Evaluator, GraphMoves, NoExtra, OptimizationSearch, SearchConfig};
use dlrm_perf_model::gpusim::DeviceSpec;
use dlrm_perf_model::graph::transform::hoistable_nodes;
use dlrm_perf_model::graph::{lower, memory, Graph, GraphIndex};
use dlrm_perf_model::kernels::{CalibrationEffort, MemoCache};
use dlrm_perf_model::models::zoo;

/// Timings per figure.
const SAMPLES: usize = 31;
/// Calls per timing for everything but cold walks.
const CALLS: usize = 200;
/// Calls per timing for cold walks.
const COLD_CALLS: usize = 5;
/// Calls per timing for searches.
const SEARCH_CALLS: usize = 20;
/// The server's bounded memo-cache capacity.
const BOUNDED_CAPACITY: usize = 1 << 18;

/// Median over [`SAMPLES`] timings of `calls` calls of `f`, in ns per call,
/// after `calls` warm-up calls.
fn median_ns(calls: usize, mut f: impl FnMut()) -> f64 {
    for _ in 0..calls {
        f();
    }
    let mut per_call: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..calls {
                f();
            }
            start.elapsed().as_nanos() as f64 / calls as f64
        })
        .collect();
    per_call.sort_by(f64::total_cmp);
    per_call[SAMPLES / 2]
}

fn row(what: &str, ns: f64, nodes: usize) {
    println!(
        "  {what:<44} {:>10.2} µs  {:>7.0} ns/node",
        ns / 1e3,
        ns / nodes as f64
    );
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let nproc = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    println!("host: nproc {nproc}, build profile {profile}, one timing thread");
    println!(
        "method: median of {SAMPLES} timings of {CALLS} calls after a warm-up \
         ({COLD_CALLS} calls for cold walks, {SEARCH_CALLS} for searches)"
    );

    let models = [("dlrm-default", 1024), ("resnet50", 64)];
    let fresh = ("dcn", 1024);
    let graphs: Vec<Graph> = models
        .iter()
        .chain([&fresh])
        .map(|&(name, batch)| zoo::build(name, batch))
        .collect::<Result<_, _>>()?;
    let device = DeviceSpec::v100();
    let (pipeline, _) =
        Pipeline::analyze_resilient(&device, &graphs, CalibrationEffort::Quick, 3, 19)?;
    let predictor = pipeline.predictor();

    for (&(name, batch), graph) in models.iter().zip(&graphs) {
        let nodes = graph.node_count();
        let mut kernels = 0;
        for node in graph.nodes() {
            kernels += lower::try_kernels(graph, node)?.len();
        }
        println!("\n{name} @{batch} ({nodes} nodes, {kernels} kernels, v100 Quick):");

        let mut scratch = WalkScratch::new();
        let unbounded = MemoCache::new();
        let bounded = MemoCache::with_capacity(BOUNDED_CAPACITY);
        for (label, cache) in [
            ("warm walk, unbounded memo cache", &unbounded),
            ("warm walk, bounded cache (2^18 entries)", &bounded),
        ] {
            let ns = median_ns(CALLS, || {
                black_box(
                    predictor
                        .walk(graph, Some(cache), None, &mut scratch)
                        .expect("walks"),
                );
            });
            row(label, ns, nodes);
        }
        let cold = median_ns(COLD_CALLS, || {
            let cache = MemoCache::new();
            let mut scratch = WalkScratch::new();
            black_box(
                predictor
                    .walk(graph, Some(&cache), None, &mut scratch)
                    .expect("walks"),
            );
        });
        row("cold walk: fresh scratch, empty cache", cold, nodes);

        row(
            "memory::estimate",
            median_ns(CALLS, || drop(black_box(memory::estimate(graph)))),
            nodes,
        );
        row(
            "Graph::clone",
            median_ns(CALLS, || drop(black_box(graph.clone()))),
            nodes,
        );
        let resize = [GraphMutation::ResizeBatch(2 * batch)];
        let ns = median_ns(CALLS, || {
            drop(black_box(prepare_graph(graph, &resize).expect("resizes")))
        });
        row(
            &format!("prepare_graph(ResizeBatch({}))", 2 * batch),
            ns,
            nodes,
        );
    }

    let (name, batch) = fresh;
    let graph = &graphs[models.len()];
    let nodes = graph.node_count();
    println!("\n{name} @{batch} ({nodes} nodes, v100 Quick), per fresh search candidate:");
    row(
        "GraphIndex::build",
        median_ns(CALLS, || drop(black_box(GraphIndex::build(graph)))),
        nodes,
    );
    graph.index();
    row(
        "hoistable_nodes (index cached)",
        median_ns(CALLS, || drop(black_box(hoistable_nodes(graph)))),
        nodes,
    );
    let hoist = [GraphMutation::HoistNode(
        *hoistable_nodes(graph).last().expect("dcn hoists"),
    )];
    let ns = median_ns(CALLS, || {
        drop(black_box(prepare_graph(graph, &hoist).expect("hoists")))
    });
    row("prepare_graph(HoistNode(last hoistable))", ns, nodes);
    let server_eval = Evaluator::new(vec![pipeline.clone()], BOUNDED_CAPACITY);
    let config = SearchConfig {
        beam_width: 8,
        max_depth: 2,
        top_k: 5,
        ..SearchConfig::default()
    };
    let ns = median_ns(SEARCH_CALLS, || {
        let search = OptimizationSearch::<NoExtra>::with_evaluator(server_eval.subset(&[0]))
            .with_config(config.clone())
            .with_graph_moves(GraphMoves {
                batches: vec![512, 2048],
                ..GraphMoves::default()
            });
        black_box(search.run(graph).expect("dcn searches"));
    });
    row("fresh depth-2 OptimizationSearch", ns, nodes);
    Ok(())
}
