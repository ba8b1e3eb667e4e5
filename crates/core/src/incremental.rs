//! Incremental E2E re-prediction with dirty-node propagation.
//!
//! A what-if sweep prices hundreds of graphs that differ from a shared
//! baseline by a handful of nodes. A full Algorithm 1 walk re-lowers and
//! re-prices every node anyway; this module checkpoints the baseline walk
//! once and, on re-prediction, recomputes only the **dirty frontier** —
//! the contiguous node span whose structural signatures changed — splicing
//! the recorded prefix clock state back in and reusing the baseline's
//! per-node costs for the unchanged suffix.
//!
//! ## Why the result is bitwise identical to a full walk
//!
//! * A node's priced costs — its launch overheads and its kernels'
//!   predicted values, staged flat by the walk's pricing half — are pure
//!   functions of its structural signature (op, stream, input/output
//!   tensor ids + metadata) and the predictor's frozen
//!   registry/overheads. Equal signatures ⇒ bitwise-equal costs, so
//!   reusing a baseline node's costs is invisible.
//! * Pricing and stepping live in one place each — the walk's
//!   `stage` and `step` halves on [`E2ePredictor`] — used by both the full
//!   and the incremental walk, so the incremental path replays the *same
//!   float operation sequence* over the same values.
//! * Prefix state is not re-derived arithmetically (float addition is not
//!   shift-invariant); it is **replayed** from recorded post-step scalars
//!   and the recorded stream/tensor writes, reproducing the exact bits the
//!   full walk would hold at that point.
//! * A suffix is *spliced* (the baseline's final prediction returned
//!   without walking it) only after proving bitwise state reconvergence at
//!   the suffix boundary: CPU/active/degraded scalars, every stream clock,
//!   and the readiness of every tensor any suffix node reads must all
//!   match the baseline's recorded state bit for bit. If any differs, the
//!   suffix is walked normally (still reusing its cost bundles).
//!
//! When nothing matches (e.g. a `ResizeBatch` rewrites every tensor's
//! metadata, dirtying all signatures) the incremental path degenerates to
//! exactly the full batch walk — correct, merely not faster — and reports
//! `full_fallback`.

use std::ops::Range;

use dlperf_graph::lower::LowerError;
use dlperf_graph::{common_affix, Graph};
use dlperf_kernels::{Confidence, MemoCache};

use crate::predictor::{E2ePredictor, Overheads, PredictError, Prediction, WalkScratch, WalkState};

/// What one incremental re-prediction did, for observability and bench
/// accounting. All node counts refer to the *new* graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IncrementalStats {
    /// Leading nodes whose signatures matched the baseline (state replayed
    /// from the checkpoint instead of re-priced).
    pub prefix: usize,
    /// Trailing nodes whose signatures matched (cost bundles reused; walk
    /// skipped entirely when spliced).
    pub suffix: usize,
    /// Dirty nodes that were re-lowered and re-priced.
    pub recomputed: usize,
    /// Whether the suffix walk was skipped after proving bitwise state
    /// reconvergence at the suffix boundary.
    pub spliced: bool,
    /// Whether nothing was reusable and the walk degenerated to a full
    /// re-prediction.
    pub full_fallback: bool,
}

impl IncrementalStats {
    /// Mirrors this re-prediction's outcome into the process-wide
    /// `core.incremental` recorder counters.
    fn record(&self) {
        let c = incremental_counters();
        c.repredictions.incr();
        c.reused_nodes.add((self.prefix + self.suffix) as u64);
        c.recomputed_nodes.add(self.recomputed as u64);
        if self.spliced {
            c.spliced.incr();
        }
        if self.full_fallback {
            c.full_fallbacks.incr();
        }
    }
}

/// Process-wide incremental-reprediction counters; the per-call numbers
/// stay in [`IncrementalStats`], these aggregate across every predictor
/// instance for the recorder's snapshot.
struct IncrementalCounters {
    _group: std::sync::Arc<dlperf_obs::CounterGroup>,
    repredictions: dlperf_obs::CounterHandle,
    reused_nodes: dlperf_obs::CounterHandle,
    recomputed_nodes: dlperf_obs::CounterHandle,
    spliced: dlperf_obs::CounterHandle,
    full_fallbacks: dlperf_obs::CounterHandle,
}

fn incremental_counters() -> &'static IncrementalCounters {
    static G: std::sync::OnceLock<IncrementalCounters> = std::sync::OnceLock::new();
    G.get_or_init(|| {
        let group = dlperf_obs::CounterGroup::register(
            "core.incremental",
            &[
                "repredictions",
                "reused_nodes",
                "recomputed_nodes",
                "spliced",
                "full_fallbacks",
            ],
        );
        IncrementalCounters {
            repredictions: group.handle("repredictions"),
            reused_nodes: group.handle("reused_nodes"),
            recomputed_nodes: group.handle("recomputed_nodes"),
            spliced: group.handle("spliced"),
            full_fallbacks: group.handle("full_fallbacks"),
            _group: group,
        }
    })
}

/// A checkpointed Algorithm 1 walk over a baseline graph, supporting
/// bitwise-exact incremental re-prediction of mutated variants.
///
/// Construction runs (and records) one full walk; [`repredict_scratch`]
/// then prices any graph, reusing whatever prefix/suffix of the baseline
/// survives in the new graph's signature sequence.
///
/// [`repredict_scratch`]: IncrementalPredictor::repredict_scratch
#[derive(Debug, Clone)]
pub struct IncrementalPredictor {
    predictor: E2ePredictor,
    base: Graph,
    /// Structural signatures of the baseline nodes (from the graph index).
    sigs: Vec<u64>,
    /// Launch overheads of every baseline node.
    oh: Vec<Overheads>,
    /// Each baseline node's span into `values`.
    ranges: Vec<Range<usize>>,
    /// Predicted `(time, confidence)` of every baseline kernel, in node
    /// order.
    values: Vec<(f64, Confidence)>,
    /// CPU clock after each step.
    cpu_after: Vec<f64>,
    /// GPU active sum after each step.
    active_after: Vec<f64>,
    /// Degraded-kernel count after each step.
    degraded_after: Vec<usize>,
    /// The stream write of each step: `(stream, clock after the node's last
    /// kernel)`, `None` for kernel-less nodes. Replaying these in order
    /// reproduces the stream map at any node boundary.
    stream_after: Vec<Option<(usize, f64)>>,
    /// The readiness time each step assigned to its output tensors.
    ready_val: Vec<f64>,
    /// The baseline's full-walk prediction.
    prediction: Prediction,
}

impl IncrementalPredictor {
    /// Checkpoints a baseline walk, pricing kernels directly.
    ///
    /// # Errors
    /// Returns a [`LowerError`] if the baseline graph is malformed.
    pub fn new(predictor: E2ePredictor, base: Graph) -> Result<Self, LowerError> {
        Self::build(predictor, base, None)
    }

    /// Checkpoints a baseline walk, pricing kernels through `cache` (which
    /// must be dedicated to the predictor's registry). The same cache
    /// should then be passed to [`IncrementalPredictor::repredict_scratch`].
    ///
    /// # Errors
    /// Returns a [`LowerError`] if the baseline graph is malformed.
    pub fn with_cache(
        predictor: E2ePredictor,
        base: Graph,
        cache: &MemoCache,
    ) -> Result<Self, LowerError> {
        Self::build(predictor, base, Some(cache))
    }

    /// Checkpoints a baseline walk, pricing kernels through `cache` when
    /// one is given.
    pub(crate) fn build(
        predictor: E2ePredictor,
        base: Graph,
        cache: Option<&MemoCache>,
    ) -> Result<Self, LowerError> {
        let mut scratch = WalkScratch::new();
        predictor
            .stage(&base, 0..base.node_count(), cache, None, &mut scratch)
            .map_err(PredictError::uncancelled)?;
        let WalkScratch {
            oh,
            ranges,
            values,
            mut state,
            ..
        } = scratch;
        let n = base.node_count();
        let mut cpu_after = Vec::with_capacity(n);
        let mut active_after = Vec::with_capacity(n);
        let mut degraded_after = Vec::with_capacity(n);
        let mut stream_after = Vec::with_capacity(n);
        let mut ready_val = Vec::with_capacity(n);
        predictor
            .step(
                base.nodes(),
                &oh,
                &ranges,
                &values,
                None,
                &mut state,
                |i, after| {
                    cpu_after.push(after.cpu);
                    active_after.push(after.active);
                    degraded_after.push(after.degraded);
                    if ranges[i].is_empty() {
                        stream_after.push(None);
                        ready_val.push(after.cpu);
                    } else {
                        let stream = base.nodes()[i].stream;
                        let clock = after
                            .stream_clock(stream)
                            .expect("a kernel-launching node touches its stream");
                        stream_after.push(Some((stream, clock)));
                        ready_val.push(clock);
                    }
                },
            )
            .map_err(PredictError::uncancelled)?;
        let prediction = state.finish();
        let sigs = base.index().signatures().to_vec();
        Ok(IncrementalPredictor {
            predictor,
            base,
            sigs,
            oh,
            ranges,
            values,
            cpu_after,
            active_after,
            degraded_after,
            stream_after,
            ready_val,
            prediction,
        })
    }

    /// The baseline's full-walk prediction.
    pub fn baseline_prediction(&self) -> Prediction {
        self.prediction
    }

    /// The wrapped predictor.
    pub fn predictor(&self) -> &E2ePredictor {
        &self.predictor
    }

    /// The baseline graph.
    pub fn base(&self) -> &Graph {
        &self.base
    }

    /// Prices `graph` incrementally against the baseline. Bitwise identical
    /// to `self.predictor().predict(graph)` on every [`Prediction`] field
    /// (see the module docs for the argument); `tests/incremental.rs` pins
    /// the property across random mutation sequences.
    ///
    /// Pass the same `cache` used at construction so dirty-node kernel
    /// queries keep feeding the shared memo cache. Every intermediate —
    /// dirty-frontier specs, ranges, overheads and values, the replayed
    /// walk states, memo probing and MLP forward buffers — is staged in
    /// `scratch`, so steady-state re-predictions of same-shaped mutations
    /// allocate nothing; a scratch never changes the result.
    ///
    /// # Errors
    /// Returns a [`LowerError`] if a dirty node is malformed.
    pub fn repredict_scratch(
        &self,
        graph: &Graph,
        cache: Option<&MemoCache>,
        scratch: &mut WalkScratch,
    ) -> Result<(Prediction, IncrementalStats), LowerError> {
        let _span = dlperf_obs::span("incremental.repredict", dlperf_obs::SpanKind::Work);
        let n_base = self.base.node_count();
        let n_new = graph.node_count();
        let new_index = graph.index();
        let (prefix, suffix) = common_affix(&self.sigs, new_index.signatures());
        let dirty_end = n_new - suffix;
        let mut stats = IncrementalStats {
            prefix,
            suffix,
            recomputed: dirty_end - prefix,
            spliced: false,
            full_fallback: prefix == 0 && suffix == 0 && n_new > 0,
        };

        // Structurally identical graph: the walk would replay the baseline
        // verbatim, so return its prediction directly.
        if prefix == n_new && n_base == n_new {
            stats.spliced = true;
            stats.record();
            return Ok((self.prediction, stats));
        }

        // Lower and price the dirty frontier in one batched evaluation.
        self.predictor
            .stage(graph, prefix..dirty_end, cache, None, scratch)
            .map_err(PredictError::uncancelled)?;

        // Replay the recorded prefix state, then walk the dirty span.
        self.state_at_into(prefix, &mut scratch.state);
        self.predictor
            .step(
                &graph.nodes()[prefix..dirty_end],
                &scratch.oh,
                &scratch.ranges,
                &scratch.values,
                None,
                &mut scratch.state,
                |_, _| {},
            )
            .map_err(PredictError::uncancelled)?;

        if suffix > 0 {
            // Splice: if the state at the suffix boundary reconverged to the
            // baseline's bit for bit, the suffix walk would reproduce the
            // baseline's tail exactly — skip it.
            self.state_at_into(n_base - suffix, &mut scratch.base_state);
            if splice_matches(&scratch.state, &scratch.base_state, graph, dirty_end) {
                stats.spliced = true;
                stats.record();
                return Ok((self.prediction, stats));
            }
            // Otherwise walk the suffix, reusing its baseline costs (pure
            // in the unchanged signatures).
            let first = n_base - suffix;
            self.predictor
                .step(
                    &graph.nodes()[dirty_end..],
                    &self.oh[first..],
                    &self.ranges[first..],
                    &self.values,
                    None,
                    &mut scratch.state,
                    |_, _| {},
                )
                .map_err(PredictError::uncancelled)?;
        }
        stats.record();
        Ok((scratch.state.finish(), stats))
    }

    /// Reconstructs the walk state after baseline nodes `0..upto` by
    /// restoring the recorded scalars and replaying the recorded stream and
    /// tensor-readiness writes — the exact values the full walk inserted,
    /// in the same last-write-wins order. Writes into `state` (reset
    /// first), reusing its container capacities.
    fn state_at_into(&self, upto: usize, state: &mut WalkState) {
        state.reset();
        if upto > 0 {
            state.cpu = self.cpu_after[upto - 1];
            state.active = self.active_after[upto - 1];
            state.degraded = self.degraded_after[upto - 1];
        }
        for ((node, stream_w), &ready) in self.base.nodes()[..upto]
            .iter()
            .zip(&self.stream_after)
            .zip(&self.ready_val)
        {
            if let Some((stream, clock)) = *stream_w {
                state.set_stream(stream, clock);
            }
            for &out in &node.outputs {
                state.set_ready(out, ready);
            }
        }
    }
}

/// Whether `state` (the incremental walk's state entering the suffix) and
/// `base_state` (the baseline's recorded state entering *its* suffix)
/// match on every quantity the suffix walk starting at new-graph node
/// `suffix_start` or the final [`WalkState::finish`] can observe.
fn splice_matches(
    state: &WalkState,
    base_state: &WalkState,
    graph: &Graph,
    suffix_start: usize,
) -> bool {
    if state.cpu.to_bits() != base_state.cpu.to_bits()
        || state.active.to_bits() != base_state.active.to_bits()
        || state.degraded != base_state.degraded
        || state.streams.len() != base_state.streams.len()
    {
        return false;
    }
    // Every stream clock feeds `finish()`'s max, so all must match.
    for &(stream, clock) in &state.streams {
        match base_state.stream_clock(stream) {
            Some(b) if b.to_bits() == clock.to_bits() => {}
            _ => return false,
        }
    }
    // Only tensors a suffix node reads can influence the tail; their
    // readiness (or absence) must agree. Stricter than necessary for
    // tensors rewritten inside the suffix before being read — safe.
    for node in &graph.nodes()[suffix_start..] {
        for t in &node.inputs {
            if state.ready_bits(*t) != base_state.ready_bits(*t) {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::Pipeline;
    use dlperf_gpusim::DeviceSpec;
    use dlperf_graph::transform::{hoist_earliest, replace_op, resize_batch};
    use dlperf_graph::{NodeId, OpKind};
    use dlperf_kernels::CalibrationEffort;
    use dlperf_models::DlrmConfig;

    fn setup() -> (Graph, E2ePredictor) {
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
            23,
        );
        let predictor = pipe.predictor().clone();
        (g, predictor)
    }

    fn bits(p: &Prediction) -> [u64; 4] {
        [
            p.e2e_us.to_bits(),
            p.active_us.to_bits(),
            p.cpu_us.to_bits(),
            p.gpu_us.to_bits(),
        ]
    }

    #[test]
    fn identical_graph_splices_to_baseline() {
        let (g, predictor) = setup();
        let inc = IncrementalPredictor::new(predictor.clone(), g.clone()).unwrap();
        let (p, stats) = inc
            .repredict_scratch(&g, None, &mut WalkScratch::new())
            .unwrap();
        assert_eq!(bits(&p), bits(&inc.baseline_prediction()));
        assert!(stats.spliced);
        assert_eq!(stats.recomputed, 0);
    }

    #[test]
    fn single_op_replacement_recomputes_a_narrow_frontier() {
        let (g, predictor) = setup();
        let inc = IncrementalPredictor::new(predictor.clone(), g.clone()).unwrap();
        let mut mutated = g.clone();
        let mid = NodeId(mutated.node_count() / 2);
        let op = mutated.node(mid).unwrap().op;
        let swapped = if op == OpKind::Relu {
            OpKind::Sigmoid
        } else {
            OpKind::Relu
        };
        replace_op(&mut mutated, mid, swapped, "swapped").unwrap();

        let (p, stats) = inc
            .repredict_scratch(&mutated, None, &mut WalkScratch::new())
            .unwrap();
        let full = predictor.predict(&mutated).unwrap();
        assert_eq!(bits(&p), bits(&full), "incremental must be bitwise exact");
        assert_eq!(p.degraded_kernels, full.degraded_kernels);
        assert!(
            stats.recomputed < mutated.node_count(),
            "one swapped op must not dirty the whole graph: {stats:?}"
        );
        assert!(stats.prefix > 0 && stats.suffix > 0);
    }

    #[test]
    fn resize_falls_back_to_full_walk_and_stays_exact() {
        let (g, predictor) = setup();
        let inc = IncrementalPredictor::new(predictor.clone(), g.clone()).unwrap();
        let mut mutated = g.clone();
        resize_batch(&mut mutated, 512).unwrap();
        let (p, stats) = inc
            .repredict_scratch(&mutated, None, &mut WalkScratch::new())
            .unwrap();
        let full = predictor.predict(&mutated).unwrap();
        assert_eq!(bits(&p), bits(&full));
        // A resize rewrites (almost) every tensor's metadata: no prefix
        // survives and the vast majority of nodes are re-priced.
        assert_eq!(stats.prefix, 0, "{stats:?}");
        assert!(
            stats.recomputed > mutated.node_count() * 9 / 10,
            "{stats:?}"
        );
    }

    #[test]
    fn reorder_is_exact() {
        let (g, predictor) = setup();
        let inc = IncrementalPredictor::new(predictor.clone(), g.clone()).unwrap();
        let mut mutated = g.clone();
        let id = mutated.nodes()[mutated.node_count() - 2].id;
        let _ = hoist_earliest(&mut mutated, id);
        let (p, _) = inc
            .repredict_scratch(&mutated, None, &mut WalkScratch::new())
            .unwrap();
        let full = predictor.predict(&mutated).unwrap();
        assert_eq!(bits(&p), bits(&full));
    }

    #[test]
    fn memoized_repredict_matches_uncached() {
        let (g, predictor) = setup();
        let cache = MemoCache::new();
        let inc = IncrementalPredictor::with_cache(predictor.clone(), g.clone(), &cache).unwrap();
        let mut mutated = g.clone();
        resize_batch(&mut mutated, 128).unwrap();
        let (cached, _) = inc
            .repredict_scratch(&mutated, Some(&cache), &mut WalkScratch::new())
            .unwrap();
        let plain = predictor.predict(&mutated).unwrap();
        assert_eq!(bits(&cached), bits(&plain));
        assert!(cache.stats().misses > 0);
    }
}
