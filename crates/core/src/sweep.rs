//! The what-if sweep engine: Algorithm 1 run *many* times, in parallel.
//!
//! The paper's value is not one prediction but a matrix of them — batch
//! sizes × devices × graph mutations (§V-A) — and serving such sweeps
//! fast is the production workload this crate targets. [`SweepEngine`]
//! fans a [`Scenario`] list across worker threads (a crossbeam-scoped
//! pool pulling indices from a shared claim counter, so fast workers
//! steal whatever slow workers have not started), answers kernel-model
//! queries from one [`MemoCache`](dlperf_kernels::MemoCache) per
//! calibrated pipeline, honors a runtime [`CancellationToken`] between
//! scenarios, and can run under a [`Supervisor`] with chunked checkpoints
//! for kill/resume.
//!
//! With caching enabled the engine also *prepares graphs once*: scenarios
//! with the same mutation list (e.g. the same `hoisted` variant priced on
//! three devices) share one transformed graph instead of re-running the
//! transform per cell, and the prepared graphs persist across runs of the
//! same engine on the same base graph (detected by graph-index identity),
//! so steady-state re-sweeps skip the transform *and* the structural
//! signature pass entirely. Graph transforms dominate scenario cost by
//! orders of magnitude over a kernel-model query, so this sharing — not
//! thread count — is the engine's biggest single-host win.
//!
//! **Determinism contract:** every scenario evaluation is a pure function
//! of `(pipeline, base graph, scenario)`; results are written to the slot
//! of the scenario's *input index*, never in completion order; cache hits
//! are bitwise identical to model evaluations (see
//! [`dlperf_kernels::memo`]); and graph preparation is a deterministic
//! pure function of `(base, mutations)`, so sharing its output is
//! invisible. Consequently the parallel sweep is bitwise identical to the
//! sequential one at any thread count, cache on or off — `tests/sweep.rs`
//! pins that property.

use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use dlperf_graph::transform::{
    fuse_embedding_bags, hoist_earliest, replace_op, resize_batch, TransformError,
};
use dlperf_graph::{Graph, NodeId, OpKind};
use dlperf_kernels::{CachePadded, MemoCacheStats};
use dlperf_runtime::{
    CancellationToken, JobContext, JobError, ResumableJob, RunReport, StepOutcome, Supervisor,
    SupervisorError,
};
use serde::{Deserialize, Serialize};

use dlperf_nn::ArenaStats;

use crate::evaluator::Evaluator;
pub use crate::evaluator::{PreparedStore, PreparedStoreStats};
use crate::incremental::{IncrementalPredictor, IncrementalStats};
use crate::pipeline::Pipeline;
use crate::predictor::{Prediction, WalkScratch};

/// A graph rewrite applied before pricing a scenario.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum GraphMutation {
    /// Resize the captured graph to this batch size.
    ResizeBatch(u64),
    /// Fuse per-table embedding bags into one batched lookup (Fig. 11).
    FuseEmbeddingBags,
    /// Hoist every movable op as early as its dependencies allow.
    HoistAll,
    /// Hoist one node (by position) as early as its dependencies allow;
    /// an immovable node is left in place, out-of-range is an error.
    HoistNode(usize),
    /// Replace the operator of the node at this position, keeping its
    /// tensors — the canonical single-op what-if (e.g. an activation swap).
    ReplaceOp {
        /// Position of the node to rewrite.
        node: usize,
        /// The operator to substitute.
        op: OpKind,
    },
}

impl std::fmt::Display for GraphMutation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GraphMutation::ResizeBatch(b) => write!(f, "resize batch to {b}"),
            GraphMutation::FuseEmbeddingBags => write!(f, "fuse embedding bags"),
            GraphMutation::HoistAll => write!(f, "hoist all movable ops"),
            GraphMutation::HoistNode(i) => write!(f, "hoist node {i}"),
            GraphMutation::ReplaceOp { node, op } => {
                write!(f, "replace op at node {node} with {op:?}")
            }
        }
    }
}

/// Why preparing a mutated graph failed — the typed replacement for the
/// stringly `Result<Graph, String>` that used to flow through
/// [`prepare_graph`], the [`PreparedStore`], and the serve model registry.
/// The failing mutation rides along so rankers and servers can say *which*
/// rewrite was rejected, not just why.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MutationError {
    /// A transform rejected the graph: its precondition failed, it found
    /// nothing to do, or it would have violated a data dependency.
    Transform {
        /// The mutation whose transform failed.
        mutation: GraphMutation,
        /// The transform-layer diagnosis.
        source: TransformError,
    },
}

impl MutationError {
    /// The mutation that failed.
    pub fn mutation(&self) -> &GraphMutation {
        match self {
            MutationError::Transform { mutation, .. } => mutation,
        }
    }

    /// The underlying transform error.
    pub fn source(&self) -> &TransformError {
        match self {
            MutationError::Transform { source, .. } => source,
        }
    }
}

impl std::fmt::Display for MutationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MutationError::Transform { mutation, source } => {
                // Keeps the historical "transform failed: …" prefix that
                // downstream error strings (and tests) key on.
                write!(f, "transform failed: {source} (while applying: {mutation})")
            }
        }
    }
}

impl std::error::Error for MutationError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            MutationError::Transform { source, .. } => Some(source),
        }
    }
}

/// One cell of a what-if matrix: which pipeline prices which mutated
/// graph. `device` indexes into the engine's pipeline list.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Scenario {
    /// Human-readable label, unique within a sweep by construction of
    /// [`ScenarioMatrix`] (free-form when built by hand).
    pub label: String,
    /// Index of the pipeline (= calibrated device) that prices this cell.
    pub device: usize,
    /// Rewrites applied to the base graph, in order.
    pub mutations: Vec<GraphMutation>,
    /// Parallelism-strategy tag (`"hybrid"`, `"dp"`, `"mp"`, `"pp"`).
    /// The single-GPU engine prices the cell identically regardless —
    /// the tag is a pass-through axis that distributed consumers
    /// (`dlperf-distrib`'s sharding sweeps, the serve recommender) expand
    /// into actual strategy-parametrized jobs. Absent in old scenario
    /// JSON and omitted when unset, so stored sweeps round-trip
    /// unchanged.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub strategy: Option<String>,
}

impl Scenario {
    /// A scenario pricing the unmodified base graph on `device`.
    pub fn new(label: impl Into<String>, device: usize) -> Self {
        Scenario { label: label.into(), device, mutations: Vec::new(), strategy: None }
    }

    /// Adds a mutation (builder style).
    pub fn with(mut self, m: GraphMutation) -> Self {
        self.mutations.push(m);
        self
    }

    /// Tags the scenario with a parallelism strategy (builder style).
    pub fn with_strategy(mut self, strategy: impl Into<String>) -> Self {
        self.strategy = Some(strategy.into());
        self
    }
}

/// Cross-product builder for scenario lists: devices × batches ×
/// named graph variants, enumerated in a deterministic order
/// (device-major, then batch, then variant).
#[derive(Debug, Clone, Default)]
pub struct ScenarioMatrix {
    devices: Vec<(String, usize)>,
    batches: Vec<u64>,
    variants: Vec<(String, Vec<GraphMutation>)>,
    strategies: Vec<String>,
}

impl ScenarioMatrix {
    /// An empty matrix. With no explicit axes, `build` yields nothing.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a device axis entry: a display name plus the pipeline index.
    pub fn device(mut self, name: impl Into<String>, index: usize) -> Self {
        self.devices.push((name.into(), index));
        self
    }

    /// Adds batch-size axis entries (each becomes a `ResizeBatch`).
    pub fn batches(mut self, batches: &[u64]) -> Self {
        self.batches.extend_from_slice(batches);
        self
    }

    /// Adds a named graph-variant axis entry.
    pub fn variant(mut self, name: impl Into<String>, mutations: Vec<GraphMutation>) -> Self {
        self.variants.push((name.into(), mutations));
        self
    }

    /// Adds parallelism-strategy axis entries (e.g. `"hybrid"`, `"dp"`).
    /// A pass-through axis on the single-GPU engine (each tagged cell
    /// prices identically); distributed consumers expand the tags into
    /// strategy-parametrized jobs. Labels gain a `/{strategy}` suffix.
    pub fn strategies(mut self, strategies: &[&str]) -> Self {
        self.strategies.extend(strategies.iter().map(|s| s.to_string()));
        self
    }

    /// Enumerates the full cross product.
    pub fn build(&self) -> Vec<Scenario> {
        let variants: &[(String, Vec<GraphMutation>)] = if self.variants.is_empty() {
            &[(String::from("base"), Vec::new())]
        } else {
            &self.variants
        };
        let batches: &[u64] = if self.batches.is_empty() { &[0] } else { &self.batches };
        let strategies: &[Option<String>] = &if self.strategies.is_empty() {
            vec![None]
        } else {
            self.strategies.iter().cloned().map(Some).collect::<Vec<_>>()
        };
        let mut out = Vec::new();
        for (dev_name, dev) in &self.devices {
            for &b in batches {
                for (var_name, muts) in variants {
                    for strategy in strategies {
                        let mut mutations = Vec::new();
                        let mut label = dev_name.clone();
                        if b != 0 {
                            mutations.push(GraphMutation::ResizeBatch(b));
                            label.push_str(&format!("/b{b}"));
                        }
                        mutations.extend(muts.iter().cloned());
                        label.push_str(&format!("/{var_name}"));
                        if let Some(s) = strategy {
                            label.push_str(&format!("/{s}"));
                        }
                        out.push(Scenario {
                            label,
                            device: *dev,
                            mutations,
                            strategy: strategy.clone(),
                        });
                    }
                }
            }
        }
        out
    }
}

/// The outcome of one scenario. Errors (failed transforms, lowering
/// failures) are captured as strings rather than aborting the sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioResult {
    /// The scenario's label.
    pub label: String,
    /// The prediction, when the scenario priced successfully.
    pub prediction: Option<Prediction>,
    /// The failure, when it did not.
    pub error: Option<String>,
}

impl ScenarioResult {
    /// The prediction, panicking with the recorded error if the scenario
    /// failed — convenient in tests and examples that expect clean runs.
    pub fn expect_prediction(&self) -> &Prediction {
        match &self.prediction {
            Some(p) => p,
            None => panic!(
                "scenario `{}` failed: {}",
                self.label,
                self.error.as_deref().unwrap_or("unknown")
            ),
        }
    }
}

/// What a sweep run produced.
#[derive(Debug, Clone)]
pub struct SweepOutcome {
    /// One slot per input scenario, in input order. `None` only when the
    /// sweep was cancelled before that scenario ran.
    pub results: Vec<Option<ScenarioResult>>,
    /// Whether cancellation cut the sweep short.
    pub cancelled: bool,
    /// Threads used (the *effective* count after the available-parallelism
    /// cap, not the requested one).
    pub threads: usize,
    /// Wall-clock time of the run (milliseconds).
    pub wall_ms: f64,
    /// Merged cache counters at the end of the run (`None` with caching
    /// disabled). Counters accumulate across runs of the same engine.
    pub cache: Option<MemoCacheStats>,
    /// Aggregate incremental re-prediction accounting (`None` when the
    /// incremental path was off or no scenario went through it). Kept out
    /// of [`ScenarioResult`] on purpose: results stay byte-identical on
    /// disk whether or not the incremental fast path served them.
    pub incremental: Option<IncrementalSummary>,
}

/// Aggregate accounting of the incremental fast path over one sweep run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IncrementalSummary {
    /// Scenarios priced via [`IncrementalPredictor::repredict_scratch`].
    pub scenarios: usize,
    /// Nodes whose state/costs were reused from a baseline (prefix+suffix).
    pub reused_nodes: usize,
    /// Dirty nodes re-lowered and re-priced.
    pub recomputed_nodes: usize,
    /// Scenarios whose suffix walk was skipped by a proven bitwise splice.
    pub spliced: usize,
    /// Scenarios that degenerated to a full walk (nothing reusable).
    pub full_fallbacks: usize,
}

impl IncrementalSummary {
    /// Folds one re-prediction's stats into the aggregate.
    pub fn absorb(&mut self, s: &IncrementalStats) {
        self.scenarios += 1;
        self.reused_nodes += s.prefix + s.suffix;
        self.recomputed_nodes += s.recomputed;
        self.spliced += usize::from(s.spliced);
        self.full_fallbacks += usize::from(s.full_fallback);
    }
}

/// Process-wide sweep counters, shared by every engine instance (sweeps
/// are a program-level activity; per-run accounting stays in
/// [`SweepOutcome`]).
struct SweepCounters {
    _group: Arc<dlperf_obs::CounterGroup>,
    runs: dlperf_obs::CounterHandle,
    scenarios: dlperf_obs::CounterHandle,
    errors: dlperf_obs::CounterHandle,
    cancelled: dlperf_obs::CounterHandle,
}

fn sweep_counters() -> &'static SweepCounters {
    static G: std::sync::OnceLock<SweepCounters> = std::sync::OnceLock::new();
    G.get_or_init(|| {
        let group = dlperf_obs::CounterGroup::register(
            "core.sweep",
            &["runs", "scenarios", "errors", "cancelled"],
        );
        SweepCounters {
            runs: group.handle("runs"),
            scenarios: group.handle("scenarios"),
            errors: group.handle("errors"),
            cancelled: group.handle("cancelled"),
            _group: group,
        }
    })
}

impl SweepOutcome {
    /// Number of scenarios that actually ran.
    pub fn completed(&self) -> usize {
        self.results.iter().filter(|r| r.is_some()).count()
    }

    /// All results of a *complete* run, in input order.
    ///
    /// # Panics
    /// Panics if the sweep was cancelled before finishing.
    pub fn expect_complete(&self) -> Vec<&ScenarioResult> {
        self.results
            .iter()
            .map(|r| r.as_ref().expect("sweep was cancelled before completion"))
            .collect()
    }
}

/// Work-distributing parallel map with cooperative cancellation: applies
/// `f` to every item on `threads` scoped workers that claim indices from
/// a shared counter (dynamic self-scheduling — idle workers take over
/// remaining items regardless of which worker "owned" them). Results land
/// in input order; a cancelled run leaves `None` in the unvisited slots.
///
/// This is the engine's execution primitive, public so other crates
/// (e.g. `dlperf-distrib`) can fan custom scenario types across the same
/// machinery.
///
/// # Panics
/// Propagates panics from `f`.
pub fn par_map<S, R, F>(
    threads: usize,
    token: &CancellationToken,
    items: &[S],
    f: F,
) -> Vec<Option<R>>
where
    S: Sync,
    R: Send,
    F: Fn(usize, &S) -> R + Sync,
{
    par_map_with(threads, token, items, || (), |_, i, s| f(i, s))
}

/// [`par_map`] with a per-worker context: each worker (or the one
/// sequential loop) calls `init` once and threads the resulting value
/// mutably through every item it claims. This is how the sweep engine
/// hands each worker a reusable [`WalkScratch`] — the context lives
/// exactly as long as the worker, so scratch capacity amortizes across
/// all the items that worker steals, and contexts never cross threads.
///
/// The context must not influence results (the engine's contexts are
/// buffer pools, invisible by construction); under that condition the
/// determinism contract of [`par_map`] carries over unchanged.
///
/// # Panics
/// Propagates panics from `init` and `f`.
pub fn par_map_with<S, R, C, I, F>(
    threads: usize,
    token: &CancellationToken,
    items: &[S],
    init: I,
    f: F,
) -> Vec<Option<R>>
where
    S: Sync,
    R: Send,
    I: Fn() -> C + Sync,
    F: Fn(&mut C, usize, &S) -> R + Sync,
{
    let threads = threads.max(1);
    if threads == 1 || items.len() <= 1 {
        // The sequential reference path: same claim order, same results.
        let mut ctx = init();
        let mut out = Vec::with_capacity(items.len());
        for (i, item) in items.iter().enumerate() {
            if token.is_cancelled() {
                out.push(None);
                continue;
            }
            out.push(Some(f(&mut ctx, i, item)));
        }
        return out;
    }

    // Each worker keeps the `(index, result)` pairs it claimed and hands
    // them back through its join handle; the caller scatters them into
    // input-index slots. Cache-line padding keeps the hammered claim
    // counter off the workers' own lines.
    let next = CachePadded(AtomicUsize::new(0));
    let claimed = crossbeam::scope(|s| {
        let workers: Vec<_> = (0..threads.min(items.len()))
            .map(|_| {
                let (next, f, init) = (&next, &f, &init);
                s.spawn(move |_| {
                    let mut ctx = init();
                    let mut done = Vec::new();
                    loop {
                        let i = next.0.fetch_add(1, Ordering::Relaxed);
                        if i >= items.len() || token.is_cancelled() {
                            return done;
                        }
                        done.push((i, f(&mut ctx, i, &items[i])));
                    }
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join()).collect::<std::thread::Result<Vec<_>>>()
    })
    .and_then(|joined| joined)
    .expect("sweep worker panicked");
    let mut out: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
    for (i, r) in claimed.into_iter().flatten() {
        out[i] = Some(r);
    }
    out
}

/// Applies a mutation list to a base graph — a deterministic pure
/// function of `(base, mutations)`, which is what makes sharing its
/// output across scenarios (and across the serve/offline boundary)
/// invisible to results.
///
/// # Errors
/// [`MutationError`] identifying the first transform that failed and why.
pub fn prepare_graph(base: &Graph, mutations: &[GraphMutation]) -> Result<Graph, MutationError> {
    let _span = dlperf_obs::span("sweep.prepare", dlperf_obs::SpanKind::Phase);
    let mut g = base.clone();
    for m in mutations {
        let r = match m {
            GraphMutation::ResizeBatch(b) => resize_batch(&mut g, *b).map(|_| ()),
            GraphMutation::FuseEmbeddingBags => fuse_embedding_bags(&mut g).map(|_| ()),
            GraphMutation::HoistAll => {
                for i in 0..g.node_count() {
                    let id = g.nodes()[i].id;
                    let _ = hoist_earliest(&mut g, id);
                }
                Ok(())
            }
            GraphMutation::HoistNode(i) => {
                if *i >= g.node_count() {
                    Err(TransformError::Precondition(format!(
                        "node position {i} out of range ({} nodes)",
                        g.node_count()
                    )))
                } else {
                    let id = g.nodes()[*i].id;
                    // An immovable node is a no-op, like HoistAll.
                    let _ = hoist_earliest(&mut g, id);
                    Ok(())
                }
            }
            GraphMutation::ReplaceOp { node, op } => {
                replace_op(&mut g, NodeId(*node), *op, format!("replaced:{op:?}"))
            }
        };
        if let Err(e) = r {
            return Err(MutationError::Transform { mutation: m.clone(), source: e });
        }
    }
    Ok(g)
}

/// Default hard cap on each per-pipeline memo cache. Generous — a sweep
/// over thousands of scenarios stays far below it — but it turns the
/// engine's steady-state memory from "proportional to distinct queries
/// ever seen" into a constant, which is what a long-lived service needs.
pub const DEFAULT_MEMO_CAPACITY: usize = 1 << 20;

/// The parallel what-if sweep engine. See the module docs.
pub struct SweepEngine {
    /// The pricing stack; kept across runs, so steady-state re-sweeps
    /// skip preparation and allocation.
    eval: Evaluator<'static>,
    threads: usize,
    use_cache: bool,
    use_incremental: bool,
    token: CancellationToken,
    /// Scenarios evaluated per supervised checkpoint step.
    chunk: usize,
}

impl SweepEngine {
    /// Wraps calibrated pipelines (one per candidate device). Thread count
    /// defaults to the machine's available parallelism; caching is on,
    /// with each per-pipeline cache capped at [`DEFAULT_MEMO_CAPACITY`].
    ///
    /// # Panics
    /// Panics if `pipelines` is empty.
    pub fn new(pipelines: Vec<Pipeline>) -> Self {
        assert!(!pipelines.is_empty(), "sweep engine needs at least one pipeline");
        let threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        SweepEngine {
            eval: Evaluator::new(Cow::Owned(pipelines)),
            threads,
            use_cache: true,
            use_incremental: true,
            token: CancellationToken::new(),
            chunk: 16,
        }
    }

    /// The prepared-graph store this engine reads and fills.
    pub fn prepared_store(&self) -> &Arc<PreparedStore> {
        self.eval.store()
    }

    /// Sets the worker-thread count (builder style). 1 = sequential.
    ///
    /// The effective count is capped at the machine's available
    /// parallelism: scenario pricing is CPU-bound, so oversubscribing a
    /// small host makes the sweep *slower* (context-switch and cache churn
    /// on the shared memo cache), not faster. Use
    /// [`SweepEngine::with_threads_exact`] to bypass the cap — e.g. in
    /// determinism tests, where scheduling chaos is the point.
    pub fn with_threads(mut self, threads: usize) -> Self {
        let cap = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        self.threads = threads.clamp(1, cap);
        self
    }

    /// Sets the worker-thread count with no available-parallelism cap
    /// (builder style). 1 = sequential.
    pub fn with_threads_exact(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Enables or disables the incremental fast path (builder style; on by
    /// default). When on, cached runs checkpoint one baseline walk per
    /// referenced device and price each scenario by dirty-frontier
    /// re-prediction — bitwise identical to the full walk, so this toggle
    /// changes speed and [`SweepOutcome::incremental`] accounting only.
    pub fn with_incremental(mut self, on: bool) -> Self {
        self.use_incremental = on;
        self
    }

    /// Enables or disables the kernel-model memo caches (builder style).
    pub fn with_cache(mut self, on: bool) -> Self {
        self.use_cache = on;
        self
    }

    /// Installs a cancellation token shared with a supervisor/watchdog
    /// (builder style).
    pub fn with_cancellation(mut self, token: CancellationToken) -> Self {
        self.token = token;
        self
    }

    /// Sets the scenarios-per-checkpoint granularity of supervised runs
    /// (builder style).
    ///
    /// # Panics
    /// Panics if `chunk` is zero.
    pub fn with_chunk(mut self, chunk: usize) -> Self {
        assert!(chunk > 0, "checkpoint chunk must be positive");
        self.chunk = chunk;
        self
    }

    /// The calibrated pipelines, indexable by `Scenario::device`.
    pub fn pipelines(&self) -> &[Pipeline] {
        self.eval.pipelines()
    }

    /// The configured thread count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Aggregate arena reuse stats over the engine's parked scratches —
    /// the observable proof of pricing-buffer reuse: across steady-state runs
    /// `takes` keeps climbing while `misses` stays flat, meaning every
    /// buffer checkout on the pricing hot path was served from pooled
    /// capacity. (`high_water_f64s` and `pooled` are summed across
    /// scratches.)
    pub fn scratch_stats(&self) -> ArenaStats {
        self.eval.scratch_stats()
    }

    /// Merged cache counters across all per-device caches.
    pub fn cache_stats(&self) -> MemoCacheStats {
        self.eval.cache_stats()
    }

    /// Prices one prepared graph on the scenario's pipeline, through the
    /// scenario device's incremental baseline when one is supplied. The
    /// returned stats are `Some` exactly when the incremental path served
    /// the prediction (values are bitwise identical either way).
    fn price(
        &self,
        s: &Scenario,
        prepared: &Result<Graph, MutationError>,
        baseline: Option<&IncrementalPredictor>,
        scratch: &mut WalkScratch,
    ) -> (ScenarioResult, Option<IncrementalStats>) {
        // Joined rather than `format!`ed: inside a warm sweep the formatting
        // machinery costs more than the span itself.
        let _span = dlperf_obs::span_with(dlperf_obs::SpanKind::Work, || {
            ["scenario:", s.label.as_str()].concat()
        });
        let counters = sweep_counters();
        counters.scenarios.incr();
        let n = self.pipelines().len();
        let priced = match prepared {
            _ if s.device >= n => {
                Err(format!("device index {} out of range ({n} pipelines)", s.device))
            }
            Err(e) => Err(e.to_string()),
            Ok(g) => self
                .eval
                .price(s.device, g, baseline, self.use_cache, scratch)
                .map_err(|e| format!("lowering failed: {e}")),
        };
        let label = s.label.clone();
        match priced {
            Ok((p, stats)) => (ScenarioResult { label, prediction: Some(p), error: None }, stats),
            Err(e) => {
                counters.errors.incr();
                (ScenarioResult { label, prediction: None, error: Some(e) }, None)
            }
        }
    }

    /// Prices one scenario end to end (transform + predict) — the shared
    /// pure function of the naive (cache-off) and supervised paths.
    fn run_one(&self, base: &Graph, s: &Scenario, scratch: &mut WalkScratch) -> ScenarioResult {
        self.price(s, &prepare_graph(base, &s.mutations), None, scratch).0
    }

    /// Runs the sweep on the configured thread count.
    pub fn run(&self, base: &Graph, scenarios: &[Scenario]) -> SweepOutcome {
        self.run_on(self.threads, base, scenarios)
    }

    /// Runs the sweep strictly sequentially (the bitwise reference path).
    pub fn run_sequential(&self, base: &Graph, scenarios: &[Scenario]) -> SweepOutcome {
        self.run_on(1, base, scenarios)
    }

    fn run_on(&self, threads: usize, base: &Graph, scenarios: &[Scenario]) -> SweepOutcome {
        let _span = dlperf_obs::span("sweep.run", dlperf_obs::SpanKind::Phase);
        sweep_counters().runs.incr();
        let start = Instant::now();
        let mut summary = IncrementalSummary::default();
        let results: Vec<Option<ScenarioResult>> = if self.use_cache {
            // Phase 1: prepare each distinct mutation list once, in
            // parallel — scenarios differing only in device share the
            // transformed graph, and lists already prepared by an earlier
            // run on this base are taken from the store as-is (their
            // cached graph index rides along, so re-sweeps also skip the
            // signature pass).
            let mut unique: Vec<&[GraphMutation]> = Vec::new();
            let mut index: HashMap<&[GraphMutation], usize> = HashMap::new();
            for s in scenarios {
                index.entry(s.mutations.as_slice()).or_insert_with(|| {
                    unique.push(s.mutations.as_slice());
                    unique.len() - 1
                });
            }
            let store = self.eval.store();
            store.rebase(&base.index());
            // A `None` prepared slot means cancellation hit phase 1; the
            // dependent scenarios stay unvisited (`None`), matching what a
            // cancelled sequential run leaves behind. The `Arc` clones held
            // here keep this run's graphs alive even if a capped store
            // evicts them mid-run.
            let prepared = par_map(threads, &self.token, &unique, |_, muts| {
                store.get_or_prepare(base, muts)
            });
            // One checkpointed baseline walk per device the scenario list
            // references (reused across runs); pricing then recomputes only
            // each scenario's dirty frontier. Skipped when the incremental
            // path is off or the base graph fails to lower (pricing falls
            // back to the plain memoized walk — same bits either way).
            let baselines: Vec<Option<Arc<IncrementalPredictor>>> = (0..self.pipelines().len())
                .map(|d| {
                    let wanted = self.use_incremental
                        && !self.token.is_cancelled()
                        && scenarios.iter().any(|s| s.device == d);
                    wanted.then(|| self.eval.baseline(d, base).ok()).flatten()
                })
                .collect();
            // Phase 2: price every scenario against its prepared graph,
            // each worker reusing one pooled scratch across all the
            // scenarios it claims.
            let priced: Vec<Option<(ScenarioResult, Option<IncrementalStats>)>> = self
                .eval
                .fan_out(threads, &self.token, scenarios, |scratch, _, s| {
                    prepared[index[s.mutations.as_slice()]].as_ref().map(|graph| {
                        let baseline = baselines.get(s.device).and_then(|b| b.as_deref());
                        self.price(s, graph, baseline, scratch)
                    })
                })
                .into_iter()
                .map(Option::flatten)
                .collect();
            for slot in &priced {
                if let Some((_, Some(stats))) = slot {
                    summary.absorb(stats);
                }
            }
            priced.into_iter().map(|slot| slot.map(|(result, _)| result)).collect()
        } else {
            self.eval.fan_out(threads, &self.token, scenarios, |scratch, _, s| {
                self.run_one(base, s, scratch)
            })
        };
        let cancelled = results.iter().any(|r| r.is_none());
        if cancelled {
            sweep_counters().cancelled.incr();
        }
        SweepOutcome {
            results,
            cancelled,
            threads,
            wall_ms: start.elapsed().as_secs_f64() * 1e3,
            cache: self.use_cache.then(|| self.cache_stats()),
            incremental: (summary.scenarios > 0).then_some(summary),
        }
    }

    /// Runs the sweep under a [`Supervisor`]: scenarios are evaluated in
    /// chunks of [`SweepEngine::with_chunk`] size, each chunk one
    /// checkpointable step, so a killed sweep resumes from its last
    /// snapshot and still produces bitwise-identical results (every
    /// evaluation is a pure function; see the module docs).
    pub fn run_supervised(
        &self,
        base: &Graph,
        scenarios: &[Scenario],
        supervisor: &mut Supervisor,
    ) -> (Result<Vec<ScenarioResult>, SupervisorError>, RunReport) {
        let job = SweepJob { engine: self, base, scenarios };
        let (result, report) = supervisor.run(&job);
        (result.map(|state| state.results), report)
    }
}

impl std::fmt::Debug for SweepEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SweepEngine")
            .field("pipelines", &self.pipelines().len())
            .field("threads", &self.threads)
            .field("use_cache", &self.use_cache)
            .field("chunk", &self.chunk)
            .finish()
    }
}

/// Resumable progress of a supervised sweep.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct SweepState {
    /// Results of the scenarios evaluated so far, in input order.
    results: Vec<ScenarioResult>,
}

/// A sweep packaged as a [`ResumableJob`]: step `i` always evaluates the
/// `i`-th chunk of the scenario list, independent of earlier steps.
struct SweepJob<'a> {
    engine: &'a SweepEngine,
    base: &'a Graph,
    scenarios: &'a [Scenario],
}

impl ResumableJob for SweepJob<'_> {
    type State = SweepState;
    type Output = SweepState;

    fn name(&self) -> &str {
        "core.sweep"
    }

    fn initial_state(&self) -> SweepState {
        SweepState::default()
    }

    fn step(&self, state: &mut SweepState, ctx: &JobContext) -> Result<StepOutcome, JobError> {
        ctx.check_cancelled()?;
        let done = state.results.len();
        let chunk =
            &self.scenarios[done..(done + self.engine.chunk).min(self.scenarios.len())];
        let engine = self.engine;
        let results = engine.eval.fan_out(engine.threads, &engine.token, chunk, |scratch, _, s| {
            engine.run_one(self.base, s, scratch)
        });
        for r in results {
            match r {
                Some(r) => state.results.push(r),
                None => return Err(JobError::Cancelled),
            }
        }
        if state.results.len() < self.scenarios.len() {
            Ok(StepOutcome::Continue)
        } else {
            Ok(StepOutcome::Done)
        }
    }

    fn finish(&self, state: SweepState) -> SweepState {
        state
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlperf_gpusim::DeviceSpec;
    use dlperf_kernels::CalibrationEffort;
    use dlperf_models::DlrmConfig;
    use dlperf_runtime::SupervisorConfig;

    fn engine() -> (SweepEngine, Graph) {
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
        (SweepEngine::new(vec![pipe]), g)
    }

    fn bits(o: &SweepOutcome) -> Vec<(String, Option<u64>)> {
        o.expect_complete()
            .iter()
            .map(|r| (r.label.clone(), r.prediction.as_ref().map(|p| p.e2e_us.to_bits())))
            .collect()
    }

    #[test]
    fn matrix_enumerates_cross_product_deterministically() {
        let m = ScenarioMatrix::new()
            .device("V100", 0)
            .device("P100", 1)
            .batches(&[128, 256])
            .variant("base", vec![])
            .variant("hoisted", vec![GraphMutation::HoistAll]);
        let scenarios = m.build();
        assert_eq!(scenarios.len(), 8);
        assert_eq!(scenarios[0].label, "V100/b128/base");
        assert_eq!(scenarios[7].label, "P100/b256/hoisted");
        assert_eq!(scenarios, m.build(), "enumeration is deterministic");
        // No strategy axis → no tag, and serialized cells carry no key at
        // all, so pre-axis sweep JSON round-trips unchanged.
        assert!(scenarios.iter().all(|s| s.strategy.is_none()));
        let json = serde_json::to_string(&scenarios[0]).unwrap();
        assert!(!json.contains("strategy"), "{json}");
        let back: Scenario = serde_json::from_str(&json).unwrap();
        assert_eq!(back, scenarios[0]);
        // A set tag is written and read back.
        let tagged = Scenario { strategy: Some("dp".into()), ..Scenario::new("x", 0) };
        let json = serde_json::to_string(&tagged).unwrap();
        assert_eq!(json, r#"{"label":"x","device":0,"mutations":[],"strategy":"dp"}"#);
        let back: Scenario = serde_json::from_str(&json).unwrap();
        assert_eq!(back, tagged);
    }

    #[test]
    fn strategy_axis_tags_cells_and_extends_labels() {
        let m = ScenarioMatrix::new()
            .device("V100", 0)
            .batches(&[128])
            .strategies(&["hybrid", "dp"]);
        let scenarios = m.build();
        assert_eq!(scenarios.len(), 2);
        assert_eq!(scenarios[0].label, "V100/b128/base/hybrid");
        assert_eq!(scenarios[1].label, "V100/b128/base/dp");
        assert_eq!(scenarios[1].strategy.as_deref(), Some("dp"));
        // The tag is pass-through on this engine: identical pricing.
        let (eng, g) = engine();
        let out = eng.run_sequential(&g, &scenarios);
        let b = bits(&out);
        assert_eq!(b[0].1, b[1].1, "strategy tag must not change single-GPU pricing");
    }

    #[test]
    fn parallel_matches_sequential_bitwise() {
        let (eng, g) = engine();
        let scenarios = ScenarioMatrix::new()
            .device("V100", 0)
            .batches(&[128, 256, 512])
            .variant("base", vec![])
            .variant("hoisted", vec![GraphMutation::HoistAll])
            .build();
        let seq = eng.run_sequential(&g, &scenarios);
        let par = eng.with_threads_exact(4).run(&g, &scenarios);
        assert_eq!(bits(&seq), bits(&par));
    }

    #[test]
    fn with_threads_caps_at_available_parallelism() {
        let (eng, _) = engine();
        let cap = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        assert_eq!(eng.with_threads(4096).threads(), cap);
        let (eng, _) = engine();
        assert_eq!(eng.with_threads_exact(4096).threads(), 4096);
    }

    #[test]
    fn incremental_on_off_bitwise_identical_with_summary() {
        let (eng, g) = engine();
        let mut scenarios = vec![Scenario::new("base", 0)];
        for i in 0..4 {
            scenarios.push(
                Scenario::new(format!("swap{i}"), 0).with(GraphMutation::ReplaceOp {
                    node: g.node_count() / 2 + i,
                    op: OpKind::Sigmoid,
                }),
            );
        }
        let on = eng.run_sequential(&g, &scenarios);
        let summary = on.incremental.expect("incremental path on by default");
        assert!(summary.scenarios >= 1 && summary.scenarios <= scenarios.len());
        assert!(summary.reused_nodes > summary.recomputed_nodes);
        assert!(summary.spliced >= 1, "the unmutated scenario must splice: {summary:?}");

        let off = eng.with_incremental(false).run_sequential(&g, &scenarios);
        assert!(off.incremental.is_none());
        assert_eq!(bits(&on), bits(&off));
    }

    #[test]
    fn scratch_pool_reuses_capacity_across_runs_without_changing_bits() {
        // Cache off so every run actually performs batched inference (the
        // arena consumer); a warm memo cache would answer run 2 entirely
        // from hits and leave the arena untouched.
        let (eng, g) = engine();
        let eng = eng.with_cache(false);
        let scenarios = ScenarioMatrix::new()
            .device("V100", 0)
            .batches(&[128, 256])
            .variant("base", vec![])
            .variant("hoisted", vec![GraphMutation::HoistAll])
            .build();
        let first = eng.run_sequential(&g, &scenarios);
        let warm = eng.scratch_stats();
        assert!(warm.takes > 0, "pricing must go through the pooled scratches");
        assert!(warm.pooled > 0, "arena buffers must be parked between runs");

        // Steady state: the same sweep re-run on the warmed engine serves
        // every buffer checkout from pooled capacity and prices the same
        // bits.
        let second = eng.run_sequential(&g, &scenarios);
        let steady = eng.scratch_stats();
        assert_eq!(bits(&first), bits(&second));
        assert!(steady.takes > warm.takes);
        assert_eq!(steady.misses, warm.misses, "steady-state sweep must not allocate: {steady:?}");
    }

    #[test]
    fn replace_and_hoist_mutations_price_and_bad_positions_error() {
        let (eng, g) = engine();
        let scenarios = vec![
            Scenario::new("swap", 0)
                .with(GraphMutation::ReplaceOp { node: g.node_count() / 2, op: OpKind::Sigmoid }),
            Scenario::new("hoist-one", 0).with(GraphMutation::HoistNode(g.node_count() - 2)),
            Scenario::new("hoist-oob", 0).with(GraphMutation::HoistNode(g.node_count() + 7)),
            Scenario::new("swap-oob", 0)
                .with(GraphMutation::ReplaceOp { node: g.node_count() + 7, op: OpKind::Relu }),
        ];
        let out = eng.run(&g, &scenarios);
        let rs = out.expect_complete();
        assert!(rs[0].prediction.is_some(), "{:?}", rs[0].error);
        assert!(rs[1].prediction.is_some(), "{:?}", rs[1].error);
        assert!(rs[2].error.as_deref().unwrap().contains("out of range"));
        assert!(rs[3].error.is_some());
    }

    #[test]
    fn cache_on_off_equivalent_and_counts_hits() {
        let (eng, g) = engine();
        let scenarios = ScenarioMatrix::new()
            .device("V100", 0)
            .batches(&[256, 512])
            .variant("base", vec![])
            .variant("hoisted", vec![GraphMutation::HoistAll])
            .build();
        let cached = eng.run(&g, &scenarios);
        let stats = cached.cache.expect("cache enabled");
        assert!(stats.hits > 0, "hoisted variant shares every kernel: {stats}");
        let uncached = eng.with_cache(false).run(&g, &scenarios);
        assert!(uncached.cache.is_none());
        assert_eq!(bits(&cached), bits(&uncached));
    }

    #[test]
    fn bad_scenarios_record_errors_not_panics() {
        let (eng, g) = engine();
        let scenarios = vec![
            Scenario::new("ok", 0),
            Scenario::new("bad-device", 7),
            Scenario::new("bad-resize", 0).with(GraphMutation::ResizeBatch(0)),
        ];
        let out = eng.run(&g, &scenarios);
        let rs = out.expect_complete();
        assert!(rs[0].prediction.is_some());
        assert!(rs[1].error.as_deref().unwrap().contains("out of range"));
        assert!(rs[2].error.is_some());

        // A base graph that cannot lower (AddMm with one input): no
        // baseline checkpoints, and the walk's error names the inner
        // lowering error exactly once, cache on or off.
        let mut broken = Graph::new("broken");
        let x = broken.add_tensor(dlperf_graph::TensorMeta::activation(&[8, 8]));
        let y = broken.add_tensor(dlperf_graph::TensorMeta::activation(&[8, 8]));
        broken.add_op(OpKind::AddMm, vec![x], vec![y]);
        let expected =
            format!("lowering failed: {}", eng.pipelines()[0].predict(&broken).unwrap_err());
        let mut eng = eng;
        for cache in [true, false] {
            eng = eng.with_cache(cache);
            let out = eng.run(&broken, &[Scenario::new("broken", 0)]);
            let rs = out.expect_complete();
            assert!(rs[0].prediction.is_none());
            assert_eq!(rs[0].error.as_deref(), Some(expected.as_str()));
        }
    }

    #[test]
    fn cancelled_token_short_circuits() {
        let (eng, g) = engine();
        let token = CancellationToken::new();
        token.cancel();
        let eng = eng.with_cancellation(token);
        let scenarios =
            ScenarioMatrix::new().device("V100", 0).batches(&[128, 256]).build();
        let out = eng.run(&g, &scenarios);
        assert!(out.cancelled);
        assert_eq!(out.completed(), 0);
    }

    #[test]
    fn supervised_sweep_matches_direct_run() {
        let (eng, g) = engine();
        let scenarios = ScenarioMatrix::new()
            .device("V100", 0)
            .batches(&[128, 256, 512])
            .variant("base", vec![])
            .build();
        let direct = eng.run(&g, &scenarios);
        let eng2 = eng.with_chunk(2);
        let mut sup = Supervisor::new(SupervisorConfig::default());
        let (res, report) = eng2.run_supervised(&g, &scenarios, &mut sup);
        let supervised = res.expect("supervised sweep completes");
        assert_eq!(report.steps_completed, 2, "3 scenarios over chunk=2");
        let direct_bits: Vec<Option<u64>> = direct
            .expect_complete()
            .iter()
            .map(|r| r.prediction.as_ref().map(|p| p.e2e_us.to_bits()))
            .collect();
        let sup_bits: Vec<Option<u64>> = supervised
            .iter()
            .map(|r| r.prediction.as_ref().map(|p| p.e2e_us.to_bits()))
            .collect();
        assert_eq!(direct_bits, sup_bits);
    }
}
