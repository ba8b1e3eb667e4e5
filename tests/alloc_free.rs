//! Allocation counts on the pricing hot path, pinned in the form the docs
//! state them: once warm, `ModelRegistry::predict_batch_into`,
//! `E2ePredictor::walk` (which lowers straight into its scratch) and
//! `IncrementalPredictor::repredict_scratch` perform no heap allocation,
//! with or without a memo cache.
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
use dlrm_perf_model::gpusim::{DeviceSpec, KernelSpec};
use dlrm_perf_model::graph::lower;
use dlrm_perf_model::graph::transform::resize_batch;
use dlrm_perf_model::graph::Graph;
use dlrm_perf_model::kernels::{CalibrationEffort, MemoCache, MemoScratch};
use dlrm_perf_model::models::DlrmConfig;
use dlrm_perf_model::nn::arena::ScratchArena;

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
    let cache = MemoCache::new();
    let mut scratch = WalkScratch::new();
    for cache in [None, Some(&cache)] {
        let mut walk = || {
            predictor.walk(&graph, cache, None, &mut scratch).expect("dlrm-default walks");
        };
        for _ in 0..WARM_UP {
            walk();
        }
        assert_eq!(allocations(walk), 0, "a warm walk (cache: {}) allocated", cache.is_some());
    }
}

#[test]
fn warm_repredict_allocates_nothing_with_or_without_a_cache() {
    let (graph, pipeline, _) = fixture();
    let cache = MemoCache::new();
    let inc = IncrementalPredictor::with_cache(pipeline.predictor().clone(), graph.clone(), &cache)
        .expect("dlrm-default walks");
    // A batch resize dirties every batch-shaped node: the dirty frontier
    // is lowered, priced and stepped, not spliced.
    let mut resized = graph.clone();
    resize_batch(&mut resized, 2048).expect("dlrm-default resizes");
    let mut scratch = WalkScratch::new();
    for cache in [None, Some(&cache)] {
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
            cache.is_some()
        );
    }
}
