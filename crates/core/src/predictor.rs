//! Algorithm 1: the critical-path E2E training-time predictor.
//!
//! For every op the predictor adds T1 (and T2 when the op launches kernels)
//! to the CPU clock; each kernel then starts at
//! `max(gpu_time, cpu_time + T4/2, dependencies)` — so host overheads
//! that are not hidden behind running kernels become predicted device idle
//! time — and its predicted duration advances the GPU clock while T4/T5
//! advance the CPU clock. T3 closes the op. The predicted per-batch time is
//! `max(cpu_time, gpu_time)` at the end of the graph.
//!
//! Two generalizations over the paper's listing: multiple GPU clocks (one
//! per stream, honouring the *parallelize* transformation) and tensor-level
//! data dependencies (from the execution graph), both of which degenerate
//! to Algorithm 1 on single-stream graphs.

use std::ops::Range;

use dlperf_gpusim::KernelSpec;
use dlperf_graph::lower::{self, LowerError};
use dlperf_graph::{Graph, Node, OpKind, TensorId};
use dlperf_kernels::{Confidence, MemoCache, MemoScratch, ModelRegistry};
use dlperf_nn::arena::ScratchArena;
use dlperf_nn::ArenaStats;
use dlperf_runtime::CancellationToken;
use dlperf_trace::{OverheadStats, OverheadType};
use serde::{Deserialize, Serialize};

/// Why a walk did not produce a value.
#[derive(Debug)]
pub enum PredictError {
    /// The graph failed to lower (malformed shapes).
    Lower(LowerError),
    /// The walk observed its [`CancellationToken`] mid-flight — deadline
    /// expired or shutdown requested — and stopped within one op step.
    Cancelled,
}

impl std::fmt::Display for PredictError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PredictError::Lower(e) => write!(f, "lowering failed: {e}"),
            PredictError::Cancelled => write!(f, "prediction cancelled before completion"),
        }
    }
}

impl std::error::Error for PredictError {}

impl PredictError {
    /// The lowering error of a walk run without a cancellation token —
    /// the only way such a walk can fail.
    ///
    /// # Panics
    /// Panics on [`PredictError::Cancelled`], which a token-less walk
    /// never returns.
    pub fn uncancelled(self) -> LowerError {
        match self {
            PredictError::Lower(e) => e,
            PredictError::Cancelled => unreachable!("no cancellation token supplied"),
        }
    }
}

impl From<LowerError> for PredictError {
    fn from(e: LowerError) -> Self {
        PredictError::Lower(e)
    }
}

/// Process-wide walk counters: how many Algorithm-1 walks ran and how many
/// nodes they stepped. Accumulated locally per walk (one atomic add each),
/// so the per-node hot loop carries no instrumentation.
struct WalkCounters {
    _group: std::sync::Arc<dlperf_obs::CounterGroup>,
    walks: dlperf_obs::CounterHandle,
    nodes: dlperf_obs::CounterHandle,
}

fn walk_counters() -> &'static WalkCounters {
    static G: std::sync::OnceLock<WalkCounters> = std::sync::OnceLock::new();
    G.get_or_init(|| {
        let group = dlperf_obs::CounterGroup::register("core.walk", &["walks", "nodes"]);
        let walks = group.handle("walks");
        let nodes = group.handle("nodes");
        WalkCounters {
            _group: group,
            walks,
            nodes,
        }
    })
}

/// How T4 (CUDA runtime call time) is priced.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum T4Policy {
    /// A fixed approximation for all runtime functions; the paper uses
    /// 10 µs on its platforms.
    Fixed(f64),
    /// The measured per-op mean from the overhead database.
    Measured,
}

/// Which granularity of the overhead database to read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OverheadGranularity {
    /// Per-(op type, overhead type) means — the paper's `E2E` setting.
    PerOp,
    /// Type-level means only — the coarsest ablation (one number per Tn).
    TypeOnly,
}

/// Output of one prediction.
///
/// Serializable so sweep checkpoints and golden snapshots can carry
/// predictions verbatim (every field round-trips bitwise through the
/// vendored JSON layer).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Prediction {
    /// Predicted E2E per-batch training time (µs).
    pub e2e_us: f64,
    /// Predicted GPU active time: the sum of predicted kernel times (µs).
    pub active_us: f64,
    /// Final CPU clock (µs).
    pub cpu_us: f64,
    /// Final GPU clock (max across streams, µs).
    pub gpu_us: f64,
    /// Kernels priced by the degraded datasheet-roofline fallback because
    /// no calibrated model was registered for their family. Zero means the
    /// whole prediction is calibrated; non-zero predictions should be
    /// treated as best-effort estimates.
    pub degraded_kernels: usize,
}

impl Prediction {
    /// Predicted GPU utilization.
    pub fn utilization(&self) -> f64 {
        if self.e2e_us > 0.0 {
            (self.active_us / self.e2e_us).min(1.0)
        } else {
            0.0
        }
    }

    /// Whether every kernel was priced by a calibrated model.
    pub fn is_fully_calibrated(&self) -> bool {
        self.degraded_kernels == 0
    }
}

/// The E2E predictor: kernel models + overhead database + policies.
#[derive(Debug, Clone)]
pub struct E2ePredictor {
    registry: ModelRegistry,
    overheads: OverheadStats,
    t4_policy: T4Policy,
    granularity: OverheadGranularity,
    /// Fraction of T4 after which a launched kernel may start on the device
    /// (Algorithm 1 uses `cpu_time + T4/2`, i.e. 0.5).
    launch_factor: f64,
    /// The five overheads of every op kind, indexed by
    /// [`OpKind::overhead_slot`]: entry `i` is exactly what the per-key
    /// lookup returns for `OpKind::OVERHEAD_KEYS[i]` under the current
    /// database and policies. Rebuilt by every method that changes one of
    /// those, so the walk reads an array instead of five string-keyed maps
    /// per node.
    table: [Overheads; OpKind::OVERHEAD_KEYS.len()],
}

impl E2ePredictor {
    /// Creates a predictor with the paper's defaults: per-op overheads and
    /// a fixed T4 approximation.
    pub fn new(registry: ModelRegistry, overheads: OverheadStats) -> Self {
        let t4_policy = T4Policy::Fixed(12.0);
        let granularity = OverheadGranularity::PerOp;
        E2ePredictor {
            table: slot_table(&overheads, granularity, t4_policy),
            registry,
            overheads,
            t4_policy,
            granularity,
            launch_factor: 0.5,
        }
    }

    /// Sets the T4 policy (builder style).
    pub fn with_t4_policy(mut self, policy: T4Policy) -> Self {
        self.t4_policy = policy;
        self.rebuild_table();
        self
    }

    /// Sets the overhead-database granularity (builder style).
    pub fn with_granularity(mut self, granularity: OverheadGranularity) -> Self {
        self.granularity = granularity;
        self.rebuild_table();
        self
    }

    /// Sets the launch-point factor: a kernel may start at
    /// `cpu_time + factor x T4` (builder style; Algorithm 1 uses 0.5).
    pub fn with_launch_factor(mut self, factor: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&factor),
            "launch factor must be in [0, 1]"
        );
        self.launch_factor = factor;
        self
    }

    /// Replaces the overhead database (e.g. swapping individual for shared).
    pub fn set_overheads(&mut self, overheads: OverheadStats) {
        self.overheads = overheads;
        self.rebuild_table();
    }

    /// Resolves every op kind's overheads into the dense slot table.
    fn rebuild_table(&mut self) {
        self.table = slot_table(&self.overheads, self.granularity, self.t4_policy);
    }

    /// The kernel-model registry.
    pub fn registry(&self) -> &ModelRegistry {
        &self.registry
    }

    /// The overhead database this predictor reads — lets callers build a
    /// sibling predictor (e.g. a degraded roofline twin on the same
    /// device) from the same analysis products.
    pub fn overheads(&self) -> &OverheadStats {
        &self.overheads
    }

    /// Predicts the per-batch training time of `graph` (Algorithm 1): one
    /// [`E2ePredictor::walk`] on a fresh scratch, with no memo cache and no
    /// cancellation token.
    ///
    /// # Errors
    /// Returns a [`LowerError`] if an op's tensor shapes are inconsistent.
    pub fn predict(&self, graph: &Graph) -> Result<Prediction, LowerError> {
        self.walk(graph, None, None, &mut WalkScratch::new())
            .map_err(PredictError::uncancelled)
    }

    /// The Algorithm 1 walk, the one entry point every graph prediction
    /// goes through, in two halves: lower and batch-price every node's
    /// kernels, then step the clocks node by node.
    ///
    /// * `cache` answers kernel-model queries from a [`MemoCache`] when
    ///   possible (a hit is bitwise identical to a model evaluation); it
    ///   must be dedicated to this predictor's registry.
    /// * `cancel` is checked once per node in both halves, so a deadline
    ///   expiring mid-walk is observed within one op step and surfaces as
    ///   [`PredictError::Cancelled`]. The checks read, never write, the
    ///   walk state: a walk that completes is bitwise identical to one run
    ///   without a token.
    /// * `scratch` stages every intermediate — kernel specs (lowered
    ///   straight into the scratch), per-node ranges and overheads,
    ///   predicted values, the clocks and the MLP forward buffers. After
    ///   the first walk on a scratch, a walk of a graph no larger than its
    ///   high-water mark performs no heap allocation, with or without a
    ///   memo cache (`tests/alloc_free.rs`). A cancelled walk leaves the
    ///   scratch reusable.
    ///
    /// # Errors
    /// [`PredictError::Lower`] on malformed graphs,
    /// [`PredictError::Cancelled`] when the token fired first.
    pub fn walk(
        &self,
        graph: &Graph,
        cache: Option<&MemoCache>,
        cancel: Option<&CancellationToken>,
        scratch: &mut WalkScratch,
    ) -> Result<Prediction, PredictError> {
        let _span = dlperf_obs::span("walk", dlperf_obs::SpanKind::Work);
        self.stage(graph, 0..graph.node_count(), cache, cancel, scratch)?;
        scratch.state.reset();
        self.step(
            graph.nodes(),
            &scratch.oh,
            &scratch.ranges,
            &scratch.values,
            cancel,
            &mut scratch.state,
            |_, _| {},
        )?;
        let counters = walk_counters();
        counters.walks.incr();
        counters.nodes.add(graph.node_count() as u64);
        Ok(scratch.state.finish())
    }

    /// The pricing half of the walk: lowers `graph.nodes()[nodes]` into
    /// `scratch.specs` / `ranges` (each node's kernels appended in place by
    /// [`lower::try_kernels_into`]), reads each node's overheads from the
    /// op-kind slot table into `oh`, and prices every kernel in **one**
    /// [`ModelRegistry::predict_batch_into`] call into `scratch.values`,
    /// `cache` passed straight through. The batch spans the whole node
    /// range (in node order), which lets the registry batch per-family MLP
    /// inference and memo-cache traffic instead of going kernel by kernel.
    /// Shared by the full walk and the incremental predictor's baseline and
    /// dirty frontier.
    ///
    /// # Errors
    /// [`PredictError::Lower`] on a malformed node,
    /// [`PredictError::Cancelled`] when `cancel` fired before a node.
    pub(crate) fn stage(
        &self,
        graph: &Graph,
        nodes: Range<usize>,
        cache: Option<&MemoCache>,
        cancel: Option<&CancellationToken>,
        scratch: &mut WalkScratch,
    ) -> Result<(), PredictError> {
        scratch.specs.clear();
        scratch.ranges.clear();
        scratch.oh.clear();
        scratch.values.clear();
        for node in &graph.nodes()[nodes] {
            if cancel.is_some_and(CancellationToken::is_cancelled) {
                return Err(PredictError::Cancelled);
            }
            let start = scratch.specs.len();
            lower::try_kernels_into(graph, node, &mut scratch.specs)?;
            scratch.ranges.push(start..scratch.specs.len());
            scratch.oh.push(self.table[node.op.overhead_slot()]);
        }
        self.registry.predict_batch_into(
            &scratch.specs,
            cache,
            &mut scratch.memo,
            &mut scratch.arena,
            &mut scratch.values,
        );
        Ok(())
    }

    /// The stepping half of the walk: advances `state` over `nodes`, node
    /// `i` priced by `oh[i]` and the kernel values `values[ranges[i]]`
    /// (ranges index `values` absolutely, so a caller may pass a tail of a
    /// staged range). `after(i, state)` observes the state after each node
    /// — the incremental baseline records its checkpoints there. Shared by
    /// the full and the incremental walk, so the two cannot drift.
    ///
    /// # Errors
    /// [`PredictError::Cancelled`] when `cancel` fired before a node.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn step(
        &self,
        nodes: &[Node],
        oh: &[Overheads],
        ranges: &[Range<usize>],
        values: &[(f64, Confidence)],
        cancel: Option<&CancellationToken>,
        state: &mut WalkState,
        mut after: impl FnMut(usize, &WalkState),
    ) -> Result<(), PredictError> {
        for (i, ((node, oh), r)) in nodes.iter().zip(oh).zip(ranges).enumerate() {
            if cancel.is_some_and(CancellationToken::is_cancelled) {
                return Err(PredictError::Cancelled);
            }
            state.step(node, oh, &values[r.clone()], self.launch_factor);
            after(i, state);
        }
        Ok(())
    }
}

/// The five launch overheads of every op kind, indexed by
/// [`OpKind::overhead_slot`], read from the overhead database under the
/// given policies. Entry `i` depends only on `OpKind::OVERHEAD_KEYS[i]`
/// and the frozen database and policies — two structurally identical
/// nodes get bitwise identical overheads, the property incremental
/// re-prediction's prefix/suffix reuse rests on.
fn slot_table(
    overheads: &OverheadStats,
    granularity: OverheadGranularity,
    t4_policy: T4Policy,
) -> [Overheads; OpKind::OVERHEAD_KEYS.len()] {
    let overhead = |op_key: &str, ty: OverheadType| match granularity {
        OverheadGranularity::PerOp => overheads.mean_us(op_key, ty),
        OverheadGranularity::TypeOnly => overheads.type_stat(ty).map(|s| s.mean_us).unwrap_or(0.0),
    };
    std::array::from_fn(|slot| {
        let op_key = OpKind::OVERHEAD_KEYS[slot];
        Overheads {
            t1: overhead(op_key, OverheadType::T1),
            t2: overhead(op_key, OverheadType::T2),
            t3: overhead(op_key, OverheadType::T3),
            t4: match t4_policy {
                T4Policy::Fixed(v) => v,
                T4Policy::Measured => overhead(op_key, OverheadType::T4),
            },
            t5: overhead(op_key, OverheadType::T5),
        }
    })
}

/// The five launch overheads of one node, `Copy` so the walk can stage
/// them in a flat reusable vec with no per-node allocation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Overheads {
    pub(crate) t1: f64,
    pub(crate) t2: f64,
    pub(crate) t3: f64,
    pub(crate) t4: f64,
    pub(crate) t5: f64,
}

/// Reusable scratch for repeated Algorithm-1 walks: every container a walk
/// touches, kept at high-water capacity across calls. [`E2ePredictor::walk`]
/// is the one entry point that fills it (the incremental predictor's
/// [`crate::incremental::IncrementalPredictor::repredict_scratch`] reuses
/// the same staging). One scratch serves one walk at a time (methods take
/// `&mut`); a sweep or serve worker owns one and reuses it for everything
/// it prices, which is what keeps steady-state walks allocation-free
/// (see [`E2ePredictor::walk`]).
/// Every walk resets what it touches, so a walk that was cancelled or
/// failed part-way leaves the scratch reusable. Dropping a
/// scratch simply frees the buffers — there is no state that must be
/// flushed.
#[derive(Debug, Default)]
pub struct WalkScratch {
    /// Concatenated kernel specs of the whole graph, in node order.
    pub(crate) specs: Vec<KernelSpec>,
    /// Per-node span into `specs` / `values`.
    pub(crate) ranges: Vec<Range<usize>>,
    /// Predicted `(time, confidence)` per kernel, parallel to `specs`.
    pub(crate) values: Vec<(f64, Confidence)>,
    /// Per-node launch overheads, parallel to `ranges`.
    pub(crate) oh: Vec<Overheads>,
    /// The walk clocks, reset (not reallocated) per prediction.
    pub(crate) state: WalkState,
    /// Second state used by incremental splice-back verification.
    pub(crate) base_state: WalkState,
    /// Registry batch staging: memo probe, dedup and per-family buckets.
    pub(crate) memo: MemoScratch,
    /// Arena backing the MLP forward buffers and feature matrices.
    pub(crate) arena: ScratchArena,
}

impl WalkScratch {
    /// An empty scratch; buffers grow to their high-water mark on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocation counters of the backing arena — the observable proof of
    /// buffer reuse: across steady-state walks `takes` climbs while
    /// `misses` stays flat.
    pub fn arena_stats(&self) -> ArenaStats {
        self.arena.stats()
    }
}

/// "No readiness recorded" sentinel for the dense tensor-ready table.
/// Never a legitimate readiness value (those are finite, non-negative
/// clock times), and absorbed bitwise-neutrally by the `max` folds below:
/// `max(x, -inf) == x` and the fold still starts at `0.0`.
pub(crate) const NOT_READY: f64 = f64::NEG_INFINITY;

/// The mutable clock state of an Algorithm 1 walk. [`WalkState::step`] is
/// the *only* place the stepping arithmetic exists, and
/// [`E2ePredictor::step`] the only loop that drives it; the full predictor
/// and the incremental predictor both go through that loop, which is what
/// makes incremental re-prediction bitwise identical to a fresh walk by
/// construction.
///
/// The containers are deliberately flat — a linear-scanned vec for the
/// handful of streams and a [`TensorId`]-indexed table for readiness —
/// because the walk and the incremental predictor's state replay are
/// container-bound, not float-bound, and hashing dominated both. Container
/// choice cannot affect results: every fold over them (`dep_ready`,
/// [`WalkState::finish`]) is a `max`, which is order-independent for the
/// finite non-negative values stored here.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct WalkState {
    pub(crate) cpu: f64,
    /// Per-stream GPU clock, keyed by stream id, in first-touch order.
    pub(crate) streams: Vec<(usize, f64)>,
    /// Readiness time per tensor, indexed by [`TensorId`]; [`NOT_READY`]
    /// where no producer has run.
    pub(crate) tensor_ready: Vec<f64>,
    pub(crate) active: f64,
    pub(crate) degraded: usize,
}

impl WalkState {
    /// Returns the state to the fresh-walk initial value while keeping the
    /// stream and tensor-ready container capacities, so a reused state
    /// walks subsequent graphs without reallocating. A reset state is
    /// indistinguishable from [`WalkState::new`] to every reader: the
    /// tensor table is emptied, not zeroed, and `set_ready` re-grows it
    /// with [`NOT_READY`] exactly as a fresh walk would.
    pub(crate) fn reset(&mut self) {
        self.cpu = 0.0;
        self.streams.clear();
        self.tensor_ready.clear();
        self.active = 0.0;
        self.degraded = 0;
    }

    /// Sets a stream's clock, creating the slot on first touch.
    pub(crate) fn set_stream(&mut self, stream: usize, clock: f64) {
        match self.streams.iter_mut().find(|(s, _)| *s == stream) {
            Some(slot) => slot.1 = clock,
            None => self.streams.push((stream, clock)),
        }
    }

    /// The clock of `stream`, if any kernel has launched on it.
    pub(crate) fn stream_clock(&self, stream: usize) -> Option<f64> {
        self.streams
            .iter()
            .find(|&&(s, _)| s == stream)
            .map(|&(_, c)| c)
    }

    /// Records the readiness time of one tensor.
    pub(crate) fn set_ready(&mut self, t: TensorId, ready: f64) {
        if t.0 >= self.tensor_ready.len() {
            self.tensor_ready.resize(t.0 + 1, NOT_READY);
        }
        self.tensor_ready[t.0] = ready;
    }

    /// The recorded readiness bits of one tensor, `None` if unwritten.
    pub(crate) fn ready_bits(&self, t: TensorId) -> Option<u64> {
        self.tensor_ready
            .get(t.0)
            .map(|v| v.to_bits())
            .filter(|&b| b != NOT_READY.to_bits())
    }

    /// Advances the clocks over one node: its launch overheads `oh` plus
    /// the predicted `(time, confidence)` of each kernel it launches, in
    /// launch order. The float operation sequence is frozen: any
    /// reordering (even an algebraically neutral one) changes low bits and
    /// breaks the determinism contract pinned by the golden snapshots.
    pub(crate) fn step(
        &mut self,
        node: &Node,
        oh: &Overheads,
        kernels: &[(f64, Confidence)],
        launch_factor: f64,
    ) {
        self.cpu += oh.t1;

        let dep_ready = node
            .inputs
            .iter()
            .map(|t| self.tensor_ready.get(t.0).copied().unwrap_or(NOT_READY))
            .fold(0.0f64, |a, b| a.max(b));

        let mut last_end: Option<f64> = None;
        if kernels.is_empty() {
            self.cpu += oh.t5;
        } else {
            self.cpu += oh.t2;
            let n = kernels.len();
            let si = match self.streams.iter().position(|&(s, _)| s == node.stream) {
                Some(i) => i,
                None => {
                    self.streams.push((node.stream, 0.0));
                    self.streams.len() - 1
                }
            };
            for (i, &(t_k, conf)) in kernels.iter().enumerate() {
                // Degraded fallback instead of a panic when a family
                // has no calibrated model; counted, not fatal.
                if conf == Confidence::Degraded {
                    self.degraded += 1;
                }
                self.active += t_k;
                let gpu = &mut self.streams[si].1;
                let start = gpu.max(self.cpu + launch_factor * oh.t4).max(dep_ready);
                *gpu = start + t_k;
                last_end = Some(start + t_k);
                self.cpu += oh.t4;
                if i + 1 < n {
                    self.cpu += oh.t5;
                }
            }
            self.cpu += oh.t3;
        }

        let ready = last_end.unwrap_or(self.cpu);
        for &out in &node.outputs {
            self.set_ready(out, ready);
        }
    }

    /// Folds the final clock state into a [`Prediction`].
    pub(crate) fn finish(&self) -> Prediction {
        let gpu = self.streams.iter().fold(0.0f64, |a, &(_, b)| a.max(b));
        Prediction {
            e2e_us: self.cpu.max(gpu),
            active_us: self.active,
            cpu_us: self.cpu,
            gpu_us: gpu,
            degraded_kernels: self.degraded,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlperf_gpusim::DeviceSpec;
    use dlperf_graph::TensorMeta;
    use dlperf_kernels::CalibrationEffort;
    use dlperf_models::DlrmConfig;
    use dlperf_trace::engine::ExecutionEngine;
    use dlperf_trace::Trace;

    fn setup(batch: u64) -> (Graph, E2ePredictor, f64, f64) {
        let g = DlrmConfig {
            rows_per_table: vec![100_000; 4],
            ..DlrmConfig::default_config(batch)
        }
        .build();
        let dev = DeviceSpec::v100();
        let mut engine = ExecutionEngine::new(dev.clone(), 51);
        let runs = engine.run_iterations(&g, 30).unwrap();
        let measured = runs.iter().map(|r| r.e2e_us).sum::<f64>() / runs.len() as f64;
        let measured_active = runs.iter().map(|r| r.active_us()).sum::<f64>() / runs.len() as f64;
        let traces: Vec<Trace> = runs.into_iter().map(|r| r.trace).collect();
        let overheads = OverheadStats::extract(&traces, true);
        let registry = ModelRegistry::calibrate(&dev, CalibrationEffort::Quick, 9);
        (
            g,
            E2ePredictor::new(registry, overheads),
            measured,
            measured_active,
        )
    }

    #[test]
    fn e2e_prediction_within_paper_band() {
        let (g, pred, measured, _) = setup(512);
        let p = pred.predict(&g).unwrap();
        let err = ((p.e2e_us - measured) / measured).abs();
        assert!(
            err < 0.25,
            "E2E error {:.1}% (pred {} vs measured {})",
            err * 100.0,
            p.e2e_us,
            measured
        );
    }

    #[test]
    fn active_prediction_within_band() {
        let (g, pred, _, measured_active) = setup(512);
        let active = pred.predict(&g).unwrap().active_us;
        let err = ((active - measured_active) / measured_active).abs();
        assert!(
            err < 0.25,
            "active error {:.1}% (pred {active} vs measured {measured_active})",
            err * 100.0
        );
    }

    #[test]
    fn kernel_only_underestimates_low_utilization_workloads() {
        // The Fig. 9 message: at small batch (low utilization) kernel_only
        // is far below the measured E2E time while the full model is close.
        let (g, pred, measured, _) = setup(128);
        let p = pred.predict(&g).unwrap();
        let kernel_only = p.active_us;
        let e2e_err = ((p.e2e_us - measured) / measured).abs();
        let ko_err = ((kernel_only - measured) / measured).abs();
        assert!(
            ko_err > 2.0 * e2e_err,
            "kernel_only err {:.1}% should far exceed E2E err {:.1}%",
            ko_err * 100.0,
            e2e_err * 100.0
        );
    }

    #[test]
    fn prediction_is_deterministic() {
        let (g, pred, _, _) = setup(256);
        assert_eq!(pred.predict(&g).unwrap(), pred.predict(&g).unwrap());
    }

    #[test]
    fn e2e_never_below_components() {
        let (g, pred, _, _) = setup(256);
        let p = pred.predict(&g).unwrap();
        assert!(p.e2e_us >= p.cpu_us.max(p.gpu_us) - 1e-9);
        assert!(p.gpu_us >= p.active_us - 1e-6, "gpu clock includes idle");
        assert!(p.utilization() > 0.0 && p.utilization() <= 1.0);
    }

    #[test]
    fn type_only_granularity_changes_prediction() {
        let (g, pred, _, _) = setup(256);
        let per_op = pred.predict(&g).unwrap().e2e_us;
        let coarse = pred
            .clone()
            .with_granularity(OverheadGranularity::TypeOnly)
            .predict(&g)
            .unwrap()
            .e2e_us;
        assert_ne!(per_op, coarse);
        // Both should still be the same order of magnitude.
        assert!((per_op / coarse - 1.0).abs() < 0.5);
    }

    #[test]
    fn cancellable_walk_matches_plain_bitwise_and_observes_token() {
        let (g, pred, _, _) = setup(256);
        let cache = MemoCache::new();
        let token = CancellationToken::new();
        let plain = pred.predict(&g).unwrap();
        let cancellable = pred
            .walk(&g, Some(&cache), Some(&token), &mut WalkScratch::new())
            .unwrap();
        assert_eq!(plain.e2e_us.to_bits(), cancellable.e2e_us.to_bits());
        assert_eq!(plain, cancellable);

        token.cancel();
        match pred.walk(&g, Some(&cache), Some(&token), &mut WalkScratch::new()) {
            Err(PredictError::Cancelled) => {}
            other => panic!("expected Cancelled, got {other:?}"),
        }
    }

    #[test]
    fn token_fired_mid_walk_is_observed_within_one_step() {
        // Cancel between the halves — after lowering and pricing, before
        // the first clock step — and require the typed error: the
        // stepping loop must notice the flag at its very first node.
        let (g, pred, _, _) = setup(256);
        let token = CancellationToken::new();
        let mut scratch = WalkScratch::new();
        pred.stage(&g, 0..g.node_count(), None, Some(&token), &mut scratch)
            .unwrap();
        token.cancel();
        let mut stepped = 0;
        let result = pred.step(
            g.nodes(),
            &scratch.oh,
            &scratch.ranges,
            &scratch.values,
            Some(&token),
            &mut scratch.state,
            |_, _| stepped += 1,
        );
        match result {
            Err(PredictError::Cancelled) => {}
            other => panic!("expected Cancelled, got {other:?}"),
        }
        assert_eq!(stepped, 0, "no node may step after the token fired");
    }

    #[test]
    fn cancelled_walk_leaves_scratch_reusable() {
        // Fire the token part-way through the stepping half, then reuse
        // the half-stepped scratch: the next walk must reset everything
        // it touched and agree bit for bit with a fresh prediction.
        let (g, pred, _, _) = setup(256);
        let fresh = pred.predict(&g).unwrap();
        let token = CancellationToken::new();
        let mut scratch = WalkScratch::new();
        pred.stage(&g, 0..g.node_count(), None, Some(&token), &mut scratch)
            .unwrap();
        let half = g.node_count() / 2;
        let result = pred.step(
            g.nodes(),
            &scratch.oh,
            &scratch.ranges,
            &scratch.values,
            Some(&token),
            &mut scratch.state,
            |i, _| {
                if i + 1 == half {
                    token.cancel();
                }
            },
        );
        assert!(matches!(result, Err(PredictError::Cancelled)), "{result:?}");
        assert!(
            scratch.state.cpu > 0.0,
            "the walk stepped part of the graph"
        );

        let cache = MemoCache::new();
        for cache in [None, Some(&cache)] {
            let again = pred.walk(&g, cache, None, &mut scratch).unwrap();
            assert_eq!(again.e2e_us.to_bits(), fresh.e2e_us.to_bits());
            assert_eq!(again, fresh);
        }
    }

    #[test]
    fn scratch_walk_matches_fresh_prediction_bitwise_and_reuses_buffers() {
        let (g, pred, _, _) = setup(256);
        let plain = pred.predict(&g).unwrap();
        let mut scratch = WalkScratch::new();
        let s = pred.walk(&g, None, None, &mut scratch).unwrap();
        assert_eq!(plain.e2e_us.to_bits(), s.e2e_us.to_bits());
        assert_eq!(plain, s);

        let cache = MemoCache::new();
        let fresh = pred
            .walk(&g, Some(&MemoCache::new()), None, &mut WalkScratch::new())
            .unwrap();
        let m = pred.walk(&g, Some(&cache), None, &mut scratch).unwrap();
        assert_eq!(fresh.e2e_us.to_bits(), m.e2e_us.to_bits());
        assert_eq!(fresh, m);

        // Steady state: repeated walks of the same graph serve every
        // buffer checkout from pooled capacity — misses stay flat. Walk
        // uncached so batched inference (the arena consumer) actually
        // runs every iteration; a warm memo cache would skip it entirely.
        let misses = scratch.arena_stats().misses;
        let takes = scratch.arena_stats().takes;
        for _ in 0..5 {
            let again = pred.walk(&g, None, None, &mut scratch).unwrap();
            assert_eq!(again, s);
        }
        let after = scratch.arena_stats();
        assert_eq!(
            after.misses, misses,
            "steady-state walks must not allocate: {after:?}"
        );
        assert!(
            after.takes > takes,
            "walks must actually go through the arena"
        );
        assert!(after.high_water_f64s > 0);
    }

    /// The overhead database of a few profiled iterations of `graph`.
    fn overheads_from(graph: &Graph, seed: u64) -> OverheadStats {
        let mut engine = ExecutionEngine::new(DeviceSpec::v100(), seed);
        let runs = engine.run_iterations(graph, 3).unwrap();
        let traces: Vec<Trace> = runs.into_iter().map(|r| r.trace).collect();
        OverheadStats::extract(&traces, true)
    }

    /// What the docs say each table slot holds, read straight from the
    /// database: per-op means falling back to the type mean (or the type
    /// mean alone), and T4 fixed or measured.
    fn direct(
        stats: &OverheadStats,
        key: &str,
        granularity: OverheadGranularity,
        t4: T4Policy,
    ) -> [u64; 5] {
        let read = |ty: OverheadType| match granularity {
            OverheadGranularity::PerOp => stats.mean_us(key, ty),
            OverheadGranularity::TypeOnly => stats.type_stat(ty).map_or(0.0, |s| s.mean_us),
        };
        let mut row = OverheadType::ALL.map(read);
        if let T4Policy::Fixed(v) = t4 {
            row[OverheadType::T4 as usize] = v;
        }
        row.map(f64::to_bits)
    }

    fn bits(o: &Overheads) -> [u64; 5] {
        [o.t1, o.t2, o.t3, o.t4, o.t5].map(f64::to_bits)
    }

    #[test]
    fn overhead_table_equals_direct_lookup_in_every_slot() {
        let dlrm = DlrmConfig::default_config(256).build();
        let first = overheads_from(&dlrm, 3);
        // A second database from a different model: it lacks keys the
        // first has and vice versa.
        let mut tiny = Graph::new("tiny");
        let [a, b, c] = [(); 3].map(|_| tiny.add_tensor(TensorMeta::activation(&[64, 64])));
        let d = tiny.add_tensor(TensorMeta::activation(&[4096]));
        tiny.add_op(OpKind::Relu, vec![a], vec![b]);
        tiny.add_op(OpKind::Sigmoid, vec![b], vec![c]);
        tiny.add_op(OpKind::Reshape, vec![c], vec![d]); // host-only: a T5 sample
        let second = overheads_from(&tiny, 4);

        let check = |pred: &E2ePredictor, stats: &OverheadStats| {
            for (slot, key) in OpKind::OVERHEAD_KEYS.iter().enumerate() {
                assert_eq!(
                    bits(&pred.table[slot]),
                    direct(stats, key, pred.granularity, pred.t4_policy),
                    "{key} under {:?}/{:?}",
                    pred.granularity,
                    pred.t4_policy
                );
            }
        };
        let registry = ModelRegistry::empty(DeviceSpec::v100());
        for granularity in [OverheadGranularity::PerOp, OverheadGranularity::TypeOnly] {
            for t4 in [
                T4Policy::Fixed(12.0),
                T4Policy::Fixed(7.5),
                T4Policy::Measured,
            ] {
                let mut pred = E2ePredictor::new(registry.clone(), first.clone())
                    .with_granularity(granularity)
                    .with_t4_policy(t4);
                check(&pred, &first);
                pred.set_overheads(second.clone());
                check(&pred, &second);
            }
        }

        // A key a database lacks reads the type mean in every overhead.
        let slot = |key: &str| {
            OpKind::OVERHEAD_KEYS
                .iter()
                .position(|k| *k == key)
                .unwrap()
        };
        let measured = |stats: &OverheadStats| {
            E2ePredictor::new(registry.clone(), stats.clone()).with_t4_policy(T4Policy::Measured)
        };
        for (stats, absent) in [(&first, "aten::conv2d"), (&second, "aten::addmm")] {
            let row = bits(&measured(stats).table[slot(absent)]);
            for (i, ty) in OverheadType::ALL.into_iter().enumerate() {
                assert!(
                    stats.get(absent, ty).is_none(),
                    "{absent} is in the database"
                );
                let type_mean = stats.type_stat(ty).expect("type mean").mean_us;
                assert_eq!(
                    row[i],
                    type_mean.to_bits(),
                    "{absent} {ty} is not the type mean"
                );
            }
        }
    }

    #[test]
    fn measured_t4_policy_close_to_fixed() {
        let (g, pred, _, _) = setup(256);
        let fixed = pred.predict(&g).unwrap().e2e_us;
        let measured = pred
            .clone()
            .with_t4_policy(T4Policy::Measured)
            .predict(&g)
            .unwrap()
            .e2e_us;
        assert!((fixed / measured - 1.0).abs() < 0.2);
    }
}
