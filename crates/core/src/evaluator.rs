//! The pricing stack shared by the sweep engine and the optimization
//! search: the calibrated pipelines, one [`MemoCache`] per device, a
//! [`PreparedStore`] of prepared graphs and per-device incremental
//! baselines, and a pool of [`WalkScratch`]es for fan-out workers.
//! [`Evaluator::price`] is the one place that picks incremental
//! re-prediction or the full walk. Everything stored is a pure function of
//! its inputs and memo hits are bitwise identical to model evaluations, so
//! reuse across candidates, runs and threads never shows in a result.

use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use dlperf_graph::lower::LowerError;
use dlperf_graph::{Graph, GraphIndex};
use dlperf_kernels::{MemoCache, MemoCacheStats};
use dlperf_nn::ArenaStats;
use dlperf_runtime::CancellationToken;
use serde::{Deserialize, Serialize};

use crate::incremental::{IncrementalPredictor, IncrementalStats};
use crate::pipeline::Pipeline;
use crate::predictor::{PredictError, Prediction, WalkScratch};
use crate::sweep::{
    par_map_with, prepare_graph, GraphMutation, MutationError, DEFAULT_MEMO_CAPACITY,
};

/// Point-in-time counters of a [`PreparedStore`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct PreparedStoreStats {
    /// Prepared graphs currently stored.
    pub graphs: usize,
    /// Incremental baselines currently stored (at most one per device).
    pub baselines: usize,
    /// Lookups answered from the store.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Graphs dropped by the LRU-by-epoch capacity cap.
    pub evictions: u64,
}

/// A prepared graph, or the error that kept it from being prepared.
pub(crate) type PreparedGraph = Arc<Result<Graph, MutationError>>;

/// A prepared graph plus the epoch stamp of its last access.
type StampedGraph = (PreparedGraph, u64);

#[derive(Debug, Default)]
struct PreparedInner {
    base: Option<Arc<GraphIndex>>,
    /// Each prepared graph carries its last-access epoch stamp for LRU
    /// eviction under the capacity cap.
    graphs: HashMap<Vec<GraphMutation>, StampedGraph>,
    baselines: HashMap<usize, Arc<IncrementalPredictor>>,
    epoch: u64,
}

/// Prepared graphs and incremental baselines shared across runs — and,
/// via `Arc`, across server workers — valid for a single base graph. The
/// base is identified by its cached [`GraphIndex`] `Arc`: any structural
/// mutation of the base drops that cache (see `Graph::index`), so a
/// changed pointer means a changed base and clears the store. Holding the
/// `Arc` keeps its address from being reused by a later allocation.
/// Everything stored is a deterministic pure function of
/// `(base, mutations)` / `(pipeline, base)`, so reuse is invisible in
/// results.
///
/// Like [`MemoCache`], the store can be capped
/// ([`PreparedStore::with_capacity`]): once `capacity` graphs are held,
/// inserting a new mutation list evicts the least-recently-accessed one.
/// Baselines are not capped — there is at most one per device. Eviction
/// changes only what gets re-prepared, never what a prepared graph
/// contains.
#[derive(Debug)]
pub struct PreparedStore {
    inner: Mutex<PreparedInner>,
    capacity: Option<usize>,
    hits: dlperf_obs::CounterHandle,
    misses: dlperf_obs::CounterHandle,
    evictions: dlperf_obs::CounterHandle,
}

impl Default for PreparedStore {
    fn default() -> Self {
        Self::new()
    }
}

impl PreparedStore {
    /// An empty, unbounded store.
    pub fn new() -> Self {
        Self::build(None)
    }

    /// An empty store holding at most `capacity` prepared graphs.
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity > 0, "prepared-store capacity must be positive");
        Self::build(Some(capacity))
    }

    fn build(capacity: Option<usize>) -> Self {
        let obs =
            dlperf_obs::CounterGroup::register("core.prepared", &["hits", "misses", "evictions"]);
        let hits = obs.handle("hits");
        let misses = obs.handle("misses");
        let evictions = obs.handle("evictions");
        let inner = Mutex::new(PreparedInner::default());
        PreparedStore { inner, capacity, hits, misses, evictions }
    }

    /// Clears the store unless it was built for `base_index`'s graph.
    pub fn rebase(&self, base_index: &Arc<GraphIndex>) {
        let mut inner = self.inner.lock().expect("prepared store poisoned");
        if inner.base.as_ref().is_none_or(|a| !Arc::ptr_eq(a, base_index)) {
            inner.base = Some(base_index.clone());
            inner.graphs.clear();
            inner.baselines.clear();
        }
    }

    /// The prepared graph for `mutations`, refreshing its LRU stamp.
    pub fn get(&self, mutations: &[GraphMutation]) -> Option<Arc<Result<Graph, MutationError>>> {
        let mut inner = self.inner.lock().expect("prepared store poisoned");
        inner.epoch += 1;
        let stamp = inner.epoch;
        match inner.graphs.get_mut(mutations) {
            Some(entry) => {
                entry.1 = stamp;
                self.hits.incr();
                Some(entry.0.clone())
            }
            None => {
                self.misses.incr();
                None
            }
        }
    }

    /// Stores a prepared graph, evicting the least-recently-accessed one
    /// first when a *new* mutation list would exceed the cap. Returns the
    /// stored `Arc` (the existing one if another worker raced the insert —
    /// both hold the identical pure-function result).
    pub fn insert(
        &self,
        mutations: Vec<GraphMutation>,
        graph: Arc<Result<Graph, MutationError>>,
    ) -> Arc<Result<Graph, MutationError>> {
        let mut inner = self.inner.lock().expect("prepared store poisoned");
        inner.epoch += 1;
        let stamp = inner.epoch;
        if let Some(entry) = inner.graphs.get_mut(&mutations) {
            entry.1 = stamp;
            return entry.0.clone();
        }
        if self.capacity.is_some_and(|cap| inner.graphs.len() >= cap) {
            if let Some(victim) =
                inner.graphs.iter().min_by_key(|(_, &(_, e))| e).map(|(k, _)| k.clone())
            {
                inner.graphs.remove(&victim);
                self.evictions.incr();
            }
        }
        inner.graphs.insert(mutations, (graph.clone(), stamp));
        graph
    }

    /// The prepared graph for `mutations` applied to `base` (the graph the
    /// store is rebased on): a store hit, or [`prepare_graph`] run outside
    /// the lock and then inserted.
    pub fn get_or_prepare(
        &self,
        base: &Graph,
        mutations: &[GraphMutation],
    ) -> Arc<Result<Graph, MutationError>> {
        match self.get(mutations) {
            Some(g) => g,
            None => self.insert(mutations.to_vec(), Arc::new(prepare_graph(base, mutations))),
        }
    }

    /// The incremental baseline checkpointed for `device`, if any.
    pub fn baseline(&self, device: usize) -> Option<Arc<IncrementalPredictor>> {
        self.inner.lock().expect("prepared store poisoned").baselines.get(&device).cloned()
    }

    /// Stores the incremental baseline for `device`.
    pub fn insert_baseline(&self, device: usize, baseline: Arc<IncrementalPredictor>) {
        self.inner
            .lock()
            .expect("prepared store poisoned")
            .baselines
            .insert(device, baseline);
    }

    /// Current counters and occupancy.
    pub fn stats(&self) -> PreparedStoreStats {
        let inner = self.inner.lock().expect("prepared store poisoned");
        PreparedStoreStats {
            graphs: inner.graphs.len(),
            baselines: inner.baselines.len(),
            hits: self.hits.get(),
            misses: self.misses.get(),
            evictions: self.evictions.get(),
        }
    }
}

/// A [`WalkScratch`] checked out of an evaluator's pool, returned on drop
/// so worker panics and early exits cannot leak grown capacity.
struct PooledScratch<'a> {
    pool: &'a Mutex<Vec<WalkScratch>>,
    scratch: Option<WalkScratch>,
}

impl<'a> PooledScratch<'a> {
    fn checkout(pool: &'a Mutex<Vec<WalkScratch>>) -> Self {
        let scratch = pool.lock().expect("scratch pool poisoned").pop().unwrap_or_default();
        PooledScratch { pool, scratch: Some(scratch) }
    }

    fn get(&mut self) -> &mut WalkScratch {
        self.scratch.as_mut().expect("scratch present until drop")
    }
}

impl Drop for PooledScratch<'_> {
    fn drop(&mut self) {
        if let Some(s) = self.scratch.take() {
            if let Ok(mut pool) = self.pool.lock() {
                pool.push(s);
            }
        }
    }
}

/// The shared pricing stack. See the module docs.
pub(crate) struct Evaluator<'p> {
    pipelines: Cow<'p, [Pipeline]>,
    caches: Vec<Arc<MemoCache>>,
    store: Arc<PreparedStore>,
    /// Parked scratches, checked out one per fan-out worker; persisting
    /// them across runs makes steady-state pricing allocation-free.
    scratch_pool: Mutex<Vec<WalkScratch>>,
}

impl<'p> Evaluator<'p> {
    /// Wraps `pipelines` (one per device) with fresh per-device memo
    /// caches capped at [`DEFAULT_MEMO_CAPACITY`] and an unbounded store.
    pub(crate) fn new(pipelines: Cow<'p, [Pipeline]>) -> Self {
        let caches = pipelines
            .iter()
            .map(|_| Arc::new(MemoCache::with_capacity(DEFAULT_MEMO_CAPACITY)))
            .collect();
        Evaluator { pipelines, caches, store: Arc::default(), scratch_pool: Mutex::default() }
    }

    /// Replaces the per-device memo caches; `caches[d]` must be dedicated
    /// to pipeline `d` (cache keys do not include the device).
    ///
    /// # Panics
    /// Panics if the cache count does not match the pipeline count.
    pub(crate) fn set_caches(&mut self, caches: Vec<Arc<MemoCache>>) {
        assert_eq!(caches.len(), self.pipelines.len(), "one memo cache per pipeline");
        self.caches = caches;
    }

    /// The calibrated pipelines, indexed by device.
    pub(crate) fn pipelines(&self) -> &[Pipeline] {
        &self.pipelines
    }

    /// The prepared-graph and baseline store.
    pub(crate) fn store(&self) -> &Arc<PreparedStore> {
        &self.store
    }

    /// The checkpointed baseline walk of `base` on `device`: a store hit,
    /// or one full walk through the device's memo cache that is then
    /// stored. The store must already be rebased on `base`.
    ///
    /// # Errors
    /// The [`LowerError`] of a base graph that does not lower; nothing is
    /// stored then.
    pub(crate) fn baseline(
        &self,
        device: usize,
        base: &Graph,
    ) -> Result<Arc<IncrementalPredictor>, LowerError> {
        if let Some(b) = self.store.baseline(device) {
            return Ok(b);
        }
        let b = Arc::new(IncrementalPredictor::with_cache(
            self.pipelines[device].predictor().clone(),
            base.clone(),
            &self.caches[device],
        )?);
        self.store.insert_baseline(device, b.clone());
        Ok(b)
    }

    /// Prices `graph` on `device`: dirty-frontier re-prediction against
    /// `baseline` when one is given, the full walk otherwise, with kernel
    /// queries through the device's memo cache when `use_cache` is set.
    /// Both routes are bitwise identical; the stats are `Some` exactly
    /// when the incremental route served the prediction.
    ///
    /// # Errors
    /// The [`LowerError`] of a node that does not lower.
    pub(crate) fn price(
        &self,
        device: usize,
        graph: &Graph,
        baseline: Option<&IncrementalPredictor>,
        use_cache: bool,
        scratch: &mut WalkScratch,
    ) -> Result<(Prediction, Option<IncrementalStats>), LowerError> {
        let cache = use_cache.then(|| &*self.caches[device]);
        match baseline {
            Some(b) => b.repredict_scratch(graph, cache, scratch).map(|(p, s)| (p, Some(s))),
            None => self.pipelines[device]
                .predictor()
                .walk(graph, cache, None, scratch)
                .map(|p| (p, None))
                .map_err(PredictError::uncancelled),
        }
    }

    /// [`par_map_with`] whose per-worker context is a [`WalkScratch`]
    /// checked out of the pool for the worker's lifetime.
    pub(crate) fn fan_out<S, R, F>(
        &self,
        threads: usize,
        token: &CancellationToken,
        items: &[S],
        f: F,
    ) -> Vec<Option<R>>
    where
        S: Sync,
        R: Send,
        F: Fn(&mut WalkScratch, usize, &S) -> R + Sync,
    {
        par_map_with(
            threads,
            token,
            items,
            || PooledScratch::checkout(&self.scratch_pool),
            |pooled, i, s| f(pooled.get(), i, s),
        )
    }

    /// Aggregate arena reuse stats over the parked scratches
    /// (`high_water_f64s` and `pooled` are summed across scratches).
    pub(crate) fn scratch_stats(&self) -> ArenaStats {
        let pool = self.scratch_pool.lock().expect("scratch pool poisoned");
        let mut agg = ArenaStats::default();
        for s in pool.iter() {
            let st = s.arena_stats();
            agg.takes += st.takes;
            agg.misses += st.misses;
            agg.high_water_f64s += st.high_water_f64s;
            agg.pooled += st.pooled;
        }
        agg
    }

    /// Merged counters across all per-device memo caches.
    pub(crate) fn cache_stats(&self) -> MemoCacheStats {
        let all: Vec<MemoCacheStats> = self.caches.iter().map(|c| c.stats()).collect();
        MemoCacheStats::merged(&all)
    }
}
