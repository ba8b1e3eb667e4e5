//! The one pricing handle: the calibrated pipelines, one [`MemoCache`] per
//! device (or none), a [`PreparedStore`] of prepared graphs and
//! per-device incremental baselines, and a pool of [`WalkScratch`]es for
//! fan-out workers. The sweep engine, the optimization search, the
//! distributed predictor and every pricing endpoint of the server hold
//! one. Whether kernel queries go through memo caches is chosen once, when
//! the evaluator is built ([`Evaluator::new`] or [`Evaluator::uncached`]),
//! and every walk it makes — baselines, checkpoints and prices alike —
//! follows that choice. [`Evaluator::price`] is the one place that picks
//! incremental re-prediction or the full walk, and a cancellable walk or
//! not. Everything stored is a pure function of its inputs and memo hits
//! are bitwise identical to model evaluations, so reuse across
//! candidates, runs, requests and threads never shows in a result.

use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard};

use dlperf_graph::lower::LowerError;
use dlperf_graph::{Graph, GraphIndex};
use dlperf_kernels::{MemoCache, MemoCacheStats};
use dlperf_nn::ArenaStats;
use dlperf_runtime::CancellationToken;
use serde::{Deserialize, Serialize};

use crate::incremental::{IncrementalPredictor, IncrementalStats};
use crate::pipeline::Pipeline;
use crate::predictor::{PredictError, Prediction, WalkScratch};
use crate::sweep::{par_map_with, prepare_graph, prepare_onto, GraphMutation, MutationError};

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
/// changed pointer means a changed base. Every call that reads or fills
/// the store names its base, and the store compares that base's pointer
/// with the one it holds under its lock, clearing itself when they
/// differ, so a graph or baseline of one base is never handed out for
/// another. Holding the `Arc` keeps its
/// address from being reused by a later allocation.
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
        PreparedStore {
            inner,
            capacity,
            hits,
            misses,
            evictions,
        }
    }

    /// Locks the store for `base`, first clearing it if it holds another
    /// base's graphs and baselines. Every read and fill goes through here,
    /// so nothing prepared for one base is ever handed out for another.
    fn lock_for(&self, base: &Arc<GraphIndex>) -> MutexGuard<'_, PreparedInner> {
        let mut inner = self.inner.lock().expect("prepared store poisoned");
        if inner
            .base
            .as_ref()
            .is_none_or(|held| !Arc::ptr_eq(held, base))
        {
            inner.base = Some(base.clone());
            inner.graphs.clear();
            inner.baselines.clear();
        }
        inner
    }

    /// The prepared graph for `mutations`, refreshing its LRU stamp.
    fn get(&self, base: &Arc<GraphIndex>, mutations: &[GraphMutation]) -> Option<PreparedGraph> {
        let mut inner = self.lock_for(base);
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

    /// Stores `graph` as `mutations` applied to `base`, evicting the
    /// least-recently-accessed graph first when a *new* mutation list
    /// would exceed the cap. Returns the stored `Arc` (the existing one if
    /// another worker raced the insert — both hold the identical
    /// pure-function result).
    pub fn insert(
        &self,
        base: &Graph,
        mutations: Vec<GraphMutation>,
        graph: Arc<Result<Graph, MutationError>>,
    ) -> Arc<Result<Graph, MutationError>> {
        let mut inner = self.lock_for(&base.index());
        inner.epoch += 1;
        let stamp = inner.epoch;
        if let Some(entry) = inner.graphs.get_mut(&mutations) {
            entry.1 = stamp;
            return entry.0.clone();
        }
        if self.capacity.is_some_and(|cap| inner.graphs.len() >= cap) {
            if let Some(victim) = inner
                .graphs
                .iter()
                .min_by_key(|(_, &(_, e))| e)
                .map(|(k, _)| k.clone())
            {
                inner.graphs.remove(&victim);
                self.evictions.incr();
            }
        }
        inner.graphs.insert(mutations, (graph.clone(), stamp));
        graph
    }

    /// The prepared graph for `mutations` applied to `base`: a store hit,
    /// or [`prepare_graph`] run outside the lock and then inserted. A store
    /// holding another base's graphs is cleared first.
    ///
    /// A search child's list is its parent's plus one move, and the
    /// parent's graph is stored. When the list minus its last mutation is
    /// stored and prepared, only the last mutation is applied, to a copy of
    /// that graph; mutations apply in order, so the graph is the one
    /// [`prepare_graph`] builds from `base`. Looking up the parent counts
    /// no hit or miss and refreshes no stamp.
    pub fn get_or_prepare(
        &self,
        base: &Graph,
        mutations: &[GraphMutation],
    ) -> Arc<Result<Graph, MutationError>> {
        let index = base.index();
        if let Some(g) = self.get(&index, mutations) {
            return g;
        }
        let prepared = match mutations.split_last() {
            Some((last, head)) => match self.peek(&index, head).as_deref() {
                Some(Ok(parent)) => prepare_onto(parent.clone(), std::slice::from_ref(last)),
                _ => prepare_graph(base, mutations),
            },
            None => prepare_graph(base, mutations),
        };
        self.insert(base, mutations.to_vec(), Arc::new(prepared))
    }

    /// The prepared graph for `mutations`, without counting the lookup or
    /// refreshing its stamp.
    fn peek(&self, base: &Arc<GraphIndex>, mutations: &[GraphMutation]) -> Option<PreparedGraph> {
        let inner = self.lock_for(base);
        inner.graphs.get(mutations).map(|(g, _)| g.clone())
    }

    /// The incremental baseline of `base` on `device`: a store hit, or
    /// `walk` run outside the lock and then stored. A store holding another
    /// base's baselines is cleared first.
    fn baseline(
        &self,
        device: usize,
        base: &Graph,
        walk: impl FnOnce() -> Result<IncrementalPredictor, LowerError>,
    ) -> Result<Arc<IncrementalPredictor>, LowerError> {
        let index = base.index();
        if let Some(b) = self.lock_for(&index).baselines.get(&device) {
            return Ok(b.clone());
        }
        let b = Arc::new(walk()?);
        self.lock_for(&index).baselines.insert(device, b.clone());
        Ok(b)
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
        let scratch = pool
            .lock()
            .expect("scratch pool poisoned")
            .pop()
            .unwrap_or_default();
        PooledScratch {
            pool,
            scratch: Some(scratch),
        }
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
pub struct Evaluator<'p> {
    pipelines: Cow<'p, [Pipeline]>,
    /// One memo cache per device, or `None` for an uncached evaluator.
    caches: Option<Vec<Arc<MemoCache>>>,
    store: Arc<PreparedStore>,
    /// Parked scratches, checked out one per fan-out worker; persisting
    /// them across runs keeps steady-state pricing and stepping
    /// allocation-free.
    scratch_pool: Mutex<Vec<WalkScratch>>,
}

impl<'p> Evaluator<'p> {
    /// Wraps `pipelines` (one per device) with fresh per-device memo
    /// caches capped at `memo_capacity` entries each and an unbounded
    /// store.
    ///
    /// # Panics
    /// Panics if `memo_capacity` is below [`MemoCache::with_capacity`]'s
    /// minimum.
    pub fn new(pipelines: impl Into<Cow<'p, [Pipeline]>>, memo_capacity: usize) -> Self {
        let pipelines = pipelines.into();
        let caches = pipelines
            .iter()
            .map(|_| Arc::new(MemoCache::with_capacity(memo_capacity)))
            .collect();
        Self::build(pipelines, Some(caches))
    }

    /// Wraps `pipelines` (one per device) with no memo caches: every
    /// kernel query of every walk evaluates its model. Predictions are
    /// bitwise identical to a memoized evaluator's; this is the reference
    /// the determinism tests compare against.
    pub fn uncached(pipelines: impl Into<Cow<'p, [Pipeline]>>) -> Self {
        Self::build(pipelines.into(), None)
    }

    fn build(pipelines: Cow<'p, [Pipeline]>, caches: Option<Vec<Arc<MemoCache>>>) -> Self {
        Evaluator {
            pipelines,
            caches,
            store: Arc::default(),
            scratch_pool: Mutex::default(),
        }
    }

    /// A view over `devices` (indices into this evaluator's pipelines, in
    /// the view's device order): clones of those pipelines sharing their
    /// memo caches (none when this evaluator is uncached), with a fresh
    /// store and scratch pool, so what the view prepares lives only as
    /// long as the view.
    ///
    /// # Panics
    /// Panics if a device index is out of range.
    pub fn subset(&self, devices: &[usize]) -> Evaluator<'static> {
        let pipelines = devices.iter().map(|&d| self.pipelines[d].clone()).collect();
        let caches = self
            .caches
            .as_ref()
            .map(|caches| devices.iter().map(|&d| caches[d].clone()).collect());
        Evaluator::build(Cow::Owned(pipelines), caches)
    }

    /// The pipelines, for rebuilding an evaluator over them.
    pub(crate) fn into_pipelines(self) -> Cow<'p, [Pipeline]> {
        self.pipelines
    }

    /// Whether kernel queries go through per-device memo caches.
    pub(crate) fn is_memoized(&self) -> bool {
        self.caches.is_some()
    }

    /// `device`'s memo cache, or `None` on an uncached evaluator.
    fn cache(&self, device: usize) -> Option<&MemoCache> {
        self.caches.as_ref().map(|caches| &*caches[device])
    }

    /// The calibrated pipelines, indexed by device.
    pub fn pipelines(&self) -> &[Pipeline] {
        &self.pipelines
    }

    /// The prepared-graph and baseline store.
    pub fn store(&self) -> &Arc<PreparedStore> {
        &self.store
    }

    /// The checkpointed baseline walk of `base` on `device`: a store hit,
    /// or one [`Evaluator::checkpoint`] walk that is then stored.
    ///
    /// # Errors
    /// The [`LowerError`] of a base graph that does not lower; nothing is
    /// stored then.
    pub fn baseline(
        &self,
        device: usize,
        base: &Graph,
    ) -> Result<Arc<IncrementalPredictor>, LowerError> {
        self.store
            .baseline(device, base, || self.checkpoint(device, base))
    }

    /// One baseline walk of `base` on `device`, kernel queries through the
    /// device's memo cache if the evaluator has one, checkpointed for
    /// [`Evaluator::price`]'s incremental route and not stored.
    ///
    /// # Errors
    /// The [`LowerError`] of a base graph that does not lower.
    pub fn checkpoint(
        &self,
        device: usize,
        base: &Graph,
    ) -> Result<IncrementalPredictor, LowerError> {
        let predictor = self.pipelines[device].predictor().clone();
        IncrementalPredictor::build(predictor, base.clone(), self.cache(device))
    }

    /// Prices `graph` on `device`: dirty-frontier re-prediction against
    /// `baseline` when one is given, the full walk otherwise, with kernel
    /// queries through the device's memo cache if the evaluator has one.
    /// The full walk observes `cancel` between op steps; re-prediction is
    /// bounded by its dirty frontier and does not poll it. Both routes are
    /// bitwise identical; the stats are `Some` exactly when the
    /// incremental route served the prediction.
    ///
    /// # Errors
    /// [`PredictError::Lower`] for a node that does not lower, and
    /// [`PredictError::Cancelled`] only when `cancel` is given.
    pub fn price(
        &self,
        device: usize,
        graph: &Graph,
        baseline: Option<&IncrementalPredictor>,
        cancel: Option<&CancellationToken>,
        scratch: &mut WalkScratch,
    ) -> Result<(Prediction, Option<IncrementalStats>), PredictError> {
        let cache = self.cache(device);
        match baseline {
            Some(b) => b
                .repredict_scratch(graph, cache, scratch)
                .map(|(p, s)| (p, Some(s)))
                .map_err(PredictError::Lower),
            None => self.pipelines[device]
                .predictor()
                .walk(graph, cache, cancel, scratch)
                .map(|p| (p, None)),
        }
    }

    /// [`par_map_with`] whose per-worker context is a [`WalkScratch`]
    /// checked out of the pool for the worker's lifetime.
    pub fn fan_out<S, R, F>(
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
    pub fn scratch_stats(&self) -> ArenaStats {
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

    /// Merged counters across all per-device memo caches; all zero on an
    /// uncached evaluator.
    pub fn cache_stats(&self) -> MemoCacheStats {
        let all: Vec<MemoCacheStats> = self.caches.iter().flatten().map(|c| c.stats()).collect();
        MemoCacheStats::merged(&all)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::DEFAULT_MEMO_CAPACITY;
    use dlperf_gpusim::DeviceSpec;
    use dlperf_graph::transform::resize_batch;
    use dlperf_kernels::CalibrationEffort;
    use dlperf_models::DlrmConfig;

    #[test]
    fn uncached_evaluator_prices_the_same_bits_through_no_memo() {
        let g = DlrmConfig {
            rows_per_table: vec![50_000; 4],
            ..DlrmConfig::default_config(256)
        }
        .build();
        let pipe = Pipeline::analyze(
            &DeviceSpec::v100(),
            std::slice::from_ref(&g),
            CalibrationEffort::Quick,
            6,
            21,
        );
        let memoized = Evaluator::new(vec![pipe.clone()], DEFAULT_MEMO_CAPACITY);
        let uncached = Evaluator::uncached(vec![pipe]);
        let mut resized = g.clone();
        resize_batch(&mut resized, 512).expect("dlrm resizes");
        let bits = |eval: &Evaluator| {
            let mut scratch = WalkScratch::new();
            let baseline = eval.baseline(0, &g).expect("baseline walks");
            [Some(&*baseline), None].map(|b| {
                let (p, _) = eval
                    .price(0, &resized, b, None, &mut scratch)
                    .expect("prices");
                p.e2e_us.to_bits()
            })
        };
        assert_eq!(bits(&uncached), bits(&memoized));
        assert!(memoized.cache_stats().misses > 0);
        assert_eq!(uncached.cache_stats(), MemoCacheStats::default());
        assert!(memoized.subset(&[0]).is_memoized());
        assert!(!uncached.subset(&[0]).is_memoized());
    }
}
