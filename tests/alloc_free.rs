//! Allocation counts on the pricing hot path, pinned in the form the docs
//! state them: once warm, `ModelRegistry::predict_batch_into`,
//! `E2ePredictor::walk` (which lowers straight into its scratch) and
//! `IncrementalPredictor::repredict_scratch` perform no heap allocation,
//! with or without a memo cache; the walk and the repredict also on a
//! bounded cache, whose hits only set a reference bit. `Evaluator::price`,
//! the one pricing handle, allocates nothing on either route (walk, with
//! or without a cancellation token, and incremental) on its bounded
//! caches, and a one-thread `Evaluator::fan_out` of such prices allocates
//! only its result `Vec`. Graphs share their tables copy-on-write:
//! a clone allocates only its name, and a batch resize copies only the
//! tensor table.
//!
//! A counting global allocator tallies fresh blocks and resizes per
//! thread, so tests running in parallel cannot see each other's traffic.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeSet;
use std::hint::black_box;

use dlrm_perf_model::core::incremental::IncrementalPredictor;
use dlrm_perf_model::core::pipeline::Pipeline;
use dlrm_perf_model::core::predictor::WalkScratch;
use dlrm_perf_model::core::sweep::{prepare_graph, GraphMutation};
use dlrm_perf_model::core::Evaluator;
use dlrm_perf_model::gpusim::{DeviceSpec, KernelSpec};
use dlrm_perf_model::graph::lower;
use dlrm_perf_model::graph::transform::resize_batch;
use dlrm_perf_model::graph::Graph;
use dlrm_perf_model::kernels::{CalibrationEffort, Confidence, MemoCache, MemoKey, MemoScratch};
use dlrm_perf_model::models::{zoo, DlrmConfig};
use dlrm_perf_model::nn::arena::ScratchArena;
use dlrm_perf_model::runtime::CancellationToken;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with`: the allocator can run while this thread's TLS is torn down.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every call forwards to `System` unchanged; counting only touches
// a const-initialized, drop-free thread local, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Heap allocations (fresh blocks and resizes) `f` makes on this thread.
fn allocations(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

/// Calls before measuring: enough for every buffer to reach its high-water
/// mark.
const WARM_UP: usize = 3;

/// The server's bounded memo-cache capacity.
const BOUNDED_CAPACITY: usize = 1 << 18;

/// A bounded cache at the server's capacity, already holding 4096 unrelated
/// entries (256 per shard), as a long-lived server's cache would.
fn occupied_bounded_cache() -> MemoCache {
    let cache = MemoCache::with_capacity(BOUNDED_CAPACITY);
    for m in 0..4096 {
        let key = MemoKey::of(&KernelSpec::gemm(1 + m, 3, 5));
        cache.get_or_insert_with(key, || (m as f64, Confidence::Calibrated));
    }
    cache
}

/// A label for a cache argument in failure messages.
fn describe(cache: Option<&MemoCache>) -> String {
    match cache.map(MemoCache::capacity) {
        None => "none".into(),
        Some(None) => "unbounded".into(),
        Some(Some(cap)) => format!("bounded at {cap}"),
    }
}

/// dlrm-default at batch 1024 on a V100, with its lowered kernels in node
/// order (the batch a full walk prices).
fn fixture() -> (Graph, Pipeline, Vec<KernelSpec>) {
    let graph = DlrmConfig::default_config(1024).build();
    let pipeline = Pipeline::analyze(
        &DeviceSpec::v100(),
        std::slice::from_ref(&graph),
        CalibrationEffort::Quick,
        3,
        19,
    );
    let kernels: Vec<KernelSpec> = graph
        .nodes()
        .iter()
        .flat_map(|node| lower::try_kernels(&graph, node).expect("dlrm-default lowers"))
        .collect();
    let families: BTreeSet<_> = kernels.iter().map(KernelSpec::family).collect();
    assert!(families.len() > 1, "the fixture must be a mixed-family batch");
    (graph, pipeline, kernels)
}

#[test]
fn the_counter_sees_allocations() {
    assert_eq!(allocations(|| drop(black_box(vec![1u8]))), 1);
    assert_eq!(allocations(|| drop(black_box(Vec::<u8>::new()))), 0);
}

#[test]
fn warm_registry_batch_allocates_nothing_with_or_without_a_cache() {
    let (_, pipeline, kernels) = fixture();
    let registry = pipeline.predictor().registry();
    let mut scratch = MemoScratch::default();
    let mut arena = ScratchArena::new();
    let mut out = Vec::with_capacity(kernels.len());
    let mut price = |cache: Option<&MemoCache>| {
        out.clear();
        registry.predict_batch_into(&kernels, cache, &mut scratch, &mut arena, &mut out);
        assert_eq!(out.len(), kernels.len());
    };

    for _ in 0..WARM_UP {
        price(None);
    }
    assert_eq!(allocations(|| price(None)), 0, "uncached batch allocated");

    let cache = MemoCache::new();
    for _ in 0..WARM_UP {
        price(Some(&cache));
    }
    let before = cache.stats();
    assert_eq!(allocations(|| price(Some(&cache))), 0, "all-hit batch allocated");
    let after = cache.stats();
    assert_eq!(after.misses, before.misses, "the measured batch must be all hits");
    assert_eq!(after.hits - before.hits, kernels.len() as u64);
}

#[test]
fn warm_walk_allocates_nothing_with_or_without_a_cache() {
    let (graph, pipeline, _) = fixture();
    let predictor = pipeline.predictor();
    let unbounded = MemoCache::new();
    let bounded = occupied_bounded_cache();
    let mut scratch = WalkScratch::new();
    for cache in [None, Some(&unbounded), Some(&bounded)] {
        let mut walk = || {
            predictor.walk(&graph, cache, None, &mut scratch).expect("dlrm-default walks");
        };
        for _ in 0..WARM_UP {
            walk();
        }
        assert_eq!(allocations(walk), 0, "a warm walk (cache: {}) allocated", describe(cache));
    }
}

#[test]
fn warm_repredict_allocates_nothing_with_or_without_a_cache() {
    let (graph, pipeline, _) = fixture();
    let unbounded = MemoCache::new();
    let bounded = occupied_bounded_cache();
    let inc =
        IncrementalPredictor::with_cache(pipeline.predictor().clone(), graph.clone(), &unbounded)
            .expect("dlrm-default walks");
    // A batch resize dirties every batch-shaped node: the dirty frontier
    // is lowered, priced and stepped, not spliced.
    let mut resized = graph.clone();
    resize_batch(&mut resized, 2048).expect("dlrm-default resizes");
    let mut scratch = WalkScratch::new();
    for cache in [None, Some(&unbounded), Some(&bounded)] {
        let mut repredict = || {
            let (_, stats) =
                inc.repredict_scratch(&resized, cache, &mut scratch).expect("resized walks");
            assert!(stats.recomputed > 0, "the resize must dirty nodes");
        };
        for _ in 0..WARM_UP {
            repredict();
        }
        assert_eq!(
            allocations(repredict),
            0,
            "a warm repredict (cache: {}) allocated",
            describe(cache)
        );
    }
}

#[test]
fn warm_evaluator_price_allocates_nothing_on_either_route() {
    let (graph, pipeline, _) = fixture();
    let eval = Evaluator::new(vec![pipeline], BOUNDED_CAPACITY);
    let mut scratch = WalkScratch::new();
    // Occupy the bounded cache with another batch's kernels first.
    let mut other = graph.clone();
    resize_batch(&mut other, 4096).expect("dlrm-default resizes");
    eval.price(0, &other, None, true, None, &mut scratch).expect("batch 4096 walks");

    eval.store().rebase(&graph.index());
    let baseline = eval.baseline(0, &graph).expect("dlrm-default walks");
    let mut resized = graph.clone();
    resize_batch(&mut resized, 2048).expect("dlrm-default resizes");
    let token = CancellationToken::new();
    let routes = [
        ("walk", &graph, None, None),
        ("cancellable walk", &graph, None, Some(&token)),
        ("incremental", &resized, Some(&*baseline), None),
    ];
    for (route, g, baseline, cancel) in routes {
        let mut price = || {
            let (_, stats) =
                eval.price(0, g, baseline, true, cancel, &mut scratch).expect("prices");
            assert_eq!(stats.is_some(), baseline.is_some(), "{route}: wrong route");
        };
        for _ in 0..WARM_UP {
            price();
        }
        assert_eq!(allocations(price), 0, "a warm {route} price allocated");
    }
}

#[test]
fn warm_evaluator_fan_out_allocates_only_its_result() {
    let (graph, pipeline, _) = fixture();
    let eval = Evaluator::new(vec![pipeline], BOUNDED_CAPACITY);
    let mut resized = graph.clone();
    resize_batch(&mut resized, 2048).expect("dlrm-default resizes");
    let graphs = [graph, resized];
    let token = CancellationToken::new();
    let fan_out = || {
        let prices = eval.fan_out(1, &token, &graphs, |scratch, _, g| {
            eval.price(0, g, None, true, None, scratch).expect("prices").0.e2e_us
        });
        assert!(prices.iter().all(Option::is_some));
        black_box(prices);
    };
    for _ in 0..WARM_UP {
        fan_out();
    }
    assert_eq!(allocations(fan_out), 1, "a warm fan-out allocated more than its result");
}

#[test]
fn a_graph_clone_allocates_only_its_name_on_every_zoo_model() {
    for model in zoo::MODEL_NAMES {
        let graph = zoo::build(model, 1024).expect("zoo model builds");
        assert_eq!(allocations(|| drop(black_box(graph.clone()))), 1, "{model}: clone");
    }
}

#[test]
fn a_resize_preparation_copies_only_the_tensor_table() {
    // The copy is the table's `Arc` and buffer plus one shape per tensor
    // whose shape is non-empty; the graph's name is the one other block.
    // The node table stays shared, so node count never enters the count.
    let resize = [GraphMutation::ResizeBatch(2048)];
    let graph = DlrmConfig::default_config(1024).build();
    assert_eq!(allocations(|| drop(black_box(prepare_graph(&graph, &resize)))), 181);
    for model in zoo::MODEL_NAMES {
        let graph = zoo::build(model, 1024).expect("zoo model builds");
        if prepare_graph(&graph, &resize).is_err() {
            continue; // no batch-annotated tensor to resize
        }
        let shapes = graph.tensors().filter(|(_, t)| !t.shape.is_empty()).count() as u64;
        let count = allocations(|| drop(black_box(prepare_graph(&graph, &resize))));
        assert_eq!(count, 3 + shapes, "{model}: {} nodes", graph.node_count());
    }
}
