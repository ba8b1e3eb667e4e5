//! Ranked optimization search over the unified what-if space.
//!
//! The paper's end product is not a latency number but a decision: which
//! change to the training setup buys the most time back. This module
//! unifies the axes that were previously swept separately — graph
//! rewrites ([`GraphMutation`]), device what-ifs (sibling [`Pipeline`]s,
//! e.g. built from `DeviceSpec::whatif_grid` scalings), and any axis a
//! higher layer contributes (the distrib crate plugs in sharding
//! rebalances and parallelism-strategy switches) — into one [`Candidate`]
//! type, and runs a beam search with branch-and-bound pruning over the
//! combined neighborhood, Daydream-style: enumerate what-ifs, price each
//! one *without running anything*, and emit the top-k "optimizations
//! worth doing" as an [`OptimizationReport`].
//!
//! The inner loop is [`IncrementalPredictor::repredict_scratch`]: each
//! device axis keeps one checkpointed baseline walk, and every candidate
//! whose mutation touches only part of the graph re-prices just its dirty
//! frontier (~16× cheaper warm than a full walk). Caches, baselines and
//! scratches live in the same evaluator stack as the sweep engine's, kept
//! across runs on one base. Moves are generated legality-first — the
//! `graph::transform` legality predicates
//! ([`dlperf_graph::transform::legality`]) gate graph moves before any
//! clone-and-try — so the search wastes no evaluations on candidates that
//! cannot be built.
//!
//! **Determinism contract** (same as the sweep engine): move generation
//! is a deterministic function of the expanded candidate; children are
//! priced by `par_map_with` with results written to input-index slots;
//! beam selection and final ranking order by `f64::total_cmp` on the
//! scores with the candidate's generation index as the tie-break.
//! Consequently the report — ranking, scores, and bits — is identical at
//! any thread count, cache on or off, cold or warm. `tests/search.rs`
//! pins this.
//!
//! **Pruning soundness:** pruning only decides which candidates are
//! *expanded further*, never how a priced candidate scores — every
//! evaluated candidate enters the ranking with its exact predicted time,
//! so a pruned branch can only hide deeper descendants, and the
//! incumbent-relative slack bound (`prune_slack`) makes that trade-off
//! explicit and configurable. See DESIGN.md §14 for the full argument.

use std::collections::HashSet;
use std::hash::Hash;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use dlperf_graph::transform::{can_fuse_embedding_bags, can_resize_batch, hoistable_nodes};
use dlperf_graph::Graph;
use dlperf_runtime::CancellationToken;

use crate::evaluator::{Evaluator, PreparedGraph};
use crate::incremental::IncrementalPredictor;
use crate::pipeline::Pipeline;
use crate::predictor::WalkScratch;
use crate::sweep::{GraphMutation, DEFAULT_MEMO_CAPACITY};

/// Process-wide search counters: candidate evaluations, branch-and-bound
/// prunes, and how many evaluations rode the incremental path vs. fell
/// back to a full walk (the bench gate floors the incremental fraction).
struct SearchCounters {
    _group: Arc<dlperf_obs::CounterGroup>,
    searches: dlperf_obs::CounterHandle,
    evals: dlperf_obs::CounterHandle,
    prunes: dlperf_obs::CounterHandle,
    incremental: dlperf_obs::CounterHandle,
    full: dlperf_obs::CounterHandle,
    errors: dlperf_obs::CounterHandle,
}

fn search_counters() -> &'static SearchCounters {
    static G: OnceLock<SearchCounters> = OnceLock::new();
    G.get_or_init(|| {
        let group = dlperf_obs::CounterGroup::register(
            "core.search",
            &[
                "searches",
                "evals",
                "prunes",
                "incremental",
                "full",
                "errors",
            ],
        );
        SearchCounters {
            searches: group.handle("searches"),
            evals: group.handle("evals"),
            prunes: group.handle("prunes"),
            incremental: group.handle("incremental"),
            full: group.handle("full"),
            errors: group.handle("errors"),
            _group: group,
        }
    })
}

/// The uninhabited default extra axis: a search space with no
/// higher-layer contribution. No value of this type ever exists.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NoExtra {}

impl std::fmt::Display for NoExtra {
    fn fmt(&self, _f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {}
    }
}

/// One point of the unified what-if space: a device axis (which sibling
/// pipeline prices the candidate), an ordered graph-rewrite list, and an
/// optional extra axis contributed by a higher layer (`None` = that axis
/// at its baseline setting).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Candidate<X = NoExtra> {
    /// Index into the search's pipeline list.
    pub device: usize,
    /// Graph rewrites applied to the base graph, in order.
    pub mutations: Vec<GraphMutation>,
    /// Higher-layer axis value (e.g. a sharding/strategy move).
    pub extra: Option<X>,
}

impl<X> Candidate<X> {
    /// The root candidate: device 0, no rewrites, extra axis at baseline.
    pub fn baseline() -> Self {
        Candidate {
            device: 0,
            mutations: Vec::new(),
            extra: None,
        }
    }
}

impl<X: std::fmt::Display> Candidate<X> {
    /// Human-readable description, e.g.
    /// `"fuse embedding bags + hoist node 7 [on device V100-sim]"`.
    pub fn describe(&self, device_labels: &[String]) -> String {
        let mut parts: Vec<String> = self.mutations.iter().map(|m| m.to_string()).collect();
        if let Some(x) = &self.extra {
            parts.push(x.to_string());
        }
        let mut s = if parts.is_empty() {
            "baseline".to_string()
        } else {
            parts.join(" + ")
        };
        if self.device != 0 {
            let label = device_labels
                .get(self.device)
                .cloned()
                .unwrap_or_else(|| format!("device {}", self.device));
            s.push_str(&format!(" [on {label}]"));
        }
        s
    }
}

/// A neighborhood generator: one axis's legal moves out of a candidate.
/// Implementations must be deterministic — same `(graph, candidate)` in,
/// same children in the same order out — or the search loses its bitwise
/// determinism guarantee.
pub trait MoveGenerator<X>: Sync {
    /// Child candidates one move away from `cand`. `graph` is the
    /// candidate's prepared (mutated) graph, for legality checks.
    fn expand(&self, graph: &Graph, cand: &Candidate<X>) -> Vec<Candidate<X>>;
}

/// Prices candidates on the extra axis — the hook through which a higher
/// layer (distrib) supplies its own cost model. Must be a deterministic
/// pure function of its arguments; `scratch` is the fan-out worker's
/// pooled walk scratch, whose buffers never change a price.
pub trait ExtraScorer<X>: Sync {
    /// Predicted end-to-end iteration time (µs) of `(mutations, extra)`,
    /// or a human-readable reason the combination cannot be priced.
    fn price(
        &self,
        mutations: &[GraphMutation],
        extra: &X,
        scratch: &mut WalkScratch,
    ) -> Result<f64, String>;
}

/// Graph-rewrite moves, legality-gated by the `graph::transform`
/// predicates: fusion whenever the graph still has fusable bags, batch
/// resizes to the configured targets, and hoists of the first
/// `max_hoists` movable nodes. Legality gating also bounds the depth
/// naturally — a fused graph has fewer than two bags left, so
/// `FuseEmbeddingBags` is never generated twice on one path.
#[derive(Debug, Clone)]
pub struct GraphMoves {
    /// Batch sizes `ResizeBatch` moves may target.
    pub batches: Vec<u64>,
    /// At most this many `HoistNode` moves per expansion.
    pub max_hoists: usize,
}

impl Default for GraphMoves {
    fn default() -> Self {
        GraphMoves {
            batches: Vec::new(),
            max_hoists: 4,
        }
    }
}

impl<X: Clone> MoveGenerator<X> for GraphMoves {
    fn expand(&self, graph: &Graph, cand: &Candidate<X>) -> Vec<Candidate<X>> {
        let mut out = Vec::new();
        let child = |m: GraphMutation| {
            let mut c = cand.clone();
            c.mutations.push(m);
            c
        };
        if can_fuse_embedding_bags(graph) {
            out.push(child(GraphMutation::FuseEmbeddingBags));
        }
        for &b in &self.batches {
            if can_resize_batch(graph, b)
                && !cand
                    .mutations
                    .iter()
                    .any(|m| matches!(m, GraphMutation::ResizeBatch(_)))
            {
                out.push(child(GraphMutation::ResizeBatch(b)));
            }
        }
        for pos in hoistable_nodes(graph).into_iter().take(self.max_hoists) {
            out.push(child(GraphMutation::HoistNode(pos)));
        }
        out
    }
}

/// Device what-if moves: re-price the candidate's graph on every sibling
/// pipeline (gpusim's contribution — callers build the sibling list from
/// `DeviceSpec::whatif_grid` scalings and calibrate one pipeline each).
#[derive(Debug, Clone)]
pub struct DeviceMoves {
    /// Number of pipelines in the search.
    pub devices: usize,
}

impl<X: Clone> MoveGenerator<X> for DeviceMoves {
    fn expand(&self, _graph: &Graph, cand: &Candidate<X>) -> Vec<Candidate<X>> {
        (0..self.devices)
            .filter(|&d| d != cand.device)
            .map(|d| Candidate {
                device: d,
                ..cand.clone()
            })
            .collect()
    }
}

/// Tuning knobs of an [`OptimizationSearch`]. The defaults favor small,
/// exhaustive-ish searches (beam 8, depth 3) — the regime where the
/// incremental inner loop keeps per-candidate cost near-constant.
#[derive(Debug, Clone)]
pub struct SearchConfig {
    /// Candidates expanded per depth level.
    pub beam_width: usize,
    /// Maximum moves composed on one path.
    pub max_depth: usize,
    /// Entries in the final report.
    pub top_k: usize,
    /// Worker threads for beam expansion (1 = the bitwise reference path).
    pub threads: usize,
    /// Branch-and-bound slack: a candidate predicted slower than the
    /// incumbent best by more than this fraction is pruned (not expanded
    /// further; its own score still ranks). `0.05` = keep exploring
    /// anything within 5% of the best time seen so far.
    pub prune_slack: f64,
}

impl Default for SearchConfig {
    fn default() -> Self {
        SearchConfig {
            beam_width: 8,
            max_depth: 3,
            top_k: 10,
            threads: 1,
            prune_slack: 0.05,
        }
    }
}

/// A priced candidate in the report's ranking.
#[derive(Debug, Clone)]
pub struct ScoredCandidate<X = NoExtra> {
    /// The candidate itself.
    pub candidate: Candidate<X>,
    /// Human-readable description (see [`Candidate::describe`]).
    pub description: String,
    /// Predicted end-to-end iteration time (µs).
    pub e2e_us: f64,
    /// `baseline − e2e`: microseconds bought back per iteration
    /// (positive = faster than baseline).
    pub delta_us: f64,
    /// `baseline / e2e` (> 1 = faster than baseline).
    pub speedup: f64,
    /// Lower edge of the one-sigma confidence band (µs), from the pricing
    /// device's kernel-model calibration [`ErrorStats`]; `None` when the
    /// registry kept no stats (heuristic-only or legacy bundles).
    ///
    /// [`ErrorStats`]: dlperf_kernels::ErrorStats
    pub ci_low_us: Option<f64>,
    /// Upper edge of the one-sigma confidence band (µs).
    pub ci_high_us: Option<f64>,
    /// Whether the incremental predictor served this evaluation without a
    /// full-walk fallback.
    pub incremental: bool,
}

/// The search's answer: "optimizations worth doing", best first.
#[derive(Debug, Clone)]
pub struct OptimizationReport<X = NoExtra> {
    /// Predicted time of the unmodified baseline (µs), on device 0.
    pub baseline_e2e_us: f64,
    /// Top-k candidates, fastest predicted time first.
    pub ranked: Vec<ScoredCandidate<X>>,
    /// Candidates priced.
    pub evals: usize,
    /// Candidates cut by the branch-and-bound bound (priced, not expanded).
    pub prunes: usize,
    /// Evaluations served by the incremental path.
    pub incremental_evals: usize,
    /// Evaluations that fell back to a full walk.
    pub full_evals: usize,
    /// Wall-clock of the whole search (ms). Informational — not part of
    /// the determinism contract.
    pub wall_ms: f64,
    /// Worker threads used.
    pub threads: usize,
}

impl<X> OptimizationReport<X> {
    /// Fraction of evaluations served incrementally (0 when nothing ran).
    pub fn incremental_frac(&self) -> f64 {
        let total = self.incremental_evals + self.full_evals;
        if total == 0 {
            0.0
        } else {
            self.incremental_evals as f64 / total as f64
        }
    }
}

/// Why a search could not produce a report.
#[derive(Debug, Clone, PartialEq)]
pub enum SearchError {
    /// The search was built with an empty pipeline list.
    NoPipelines,
    /// The base graph failed to lower on the named device.
    Lower {
        /// Index of the failing pipeline.
        device: usize,
        /// The lowering error, rendered.
        reason: String,
    },
    /// The cancellation token fired mid-search.
    Cancelled,
}

impl std::fmt::Display for SearchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SearchError::NoPipelines => {
                write!(f, "optimization search needs at least one pipeline")
            }
            SearchError::Lower { device, reason } => {
                write!(f, "base graph failed to lower on device {device}: {reason}")
            }
            SearchError::Cancelled => write!(f, "search cancelled"),
        }
    }
}

impl std::error::Error for SearchError {}

/// The beam / branch-and-bound optimization search. Construct with the
/// pipeline list (device axis), optionally plug in an extra axis, then
/// [`OptimizationSearch::run`] against a base graph.
pub struct OptimizationSearch<'a, X = NoExtra> {
    /// The pricing stack, kept across runs like the sweep engine's.
    eval: Evaluator<'a>,
    device_labels: Vec<String>,
    config: SearchConfig,
    graph_moves: GraphMoves,
    extra_gen: Option<&'a dyn MoveGenerator<X>>,
    extra_scorer: Option<&'a dyn ExtraScorer<X>>,
    token: CancellationToken,
}

impl<'a, X> OptimizationSearch<'a, X>
where
    X: Clone + Eq + Hash + std::fmt::Display + Send + Sync,
{
    /// A search over `pipelines` (index 0 is the baseline device) with
    /// default config and no extra axis, on fresh memo caches capped at
    /// [`DEFAULT_MEMO_CAPACITY`].
    pub fn new(pipelines: &'a [Pipeline]) -> Self {
        Self::with_evaluator(Evaluator::new(pipelines, DEFAULT_MEMO_CAPACITY))
    }

    /// A search pricing through `eval` (its device 0 is the baseline
    /// device) with default config and no extra axis. Memo hits are
    /// bitwise invisible, so whose caches the evaluator holds, or whether
    /// it holds any ([`Evaluator::uncached`]), never shows in the report.
    pub fn with_evaluator(eval: Evaluator<'a>) -> Self {
        let device_labels = eval
            .pipelines()
            .iter()
            .map(|p| p.device().name.clone())
            .collect();
        OptimizationSearch {
            eval,
            device_labels,
            config: SearchConfig::default(),
            graph_moves: GraphMoves::default(),
            extra_gen: None,
            extra_scorer: None,
            token: CancellationToken::new(),
        }
    }

    /// Replaces the tuning knobs (builder style).
    pub fn with_config(mut self, config: SearchConfig) -> Self {
        self.config = config;
        self
    }

    /// Replaces the graph-move generator's knobs (builder style).
    pub fn with_graph_moves(mut self, moves: GraphMoves) -> Self {
        self.graph_moves = moves;
        self
    }

    /// Plugs in a higher layer's axis: its move generator and its scorer
    /// (builder style). Both must be deterministic.
    pub fn with_extra_axis(
        mut self,
        generator: &'a dyn MoveGenerator<X>,
        scorer: &'a dyn ExtraScorer<X>,
    ) -> Self {
        self.extra_gen = Some(generator);
        self.extra_scorer = Some(scorer);
        self
    }

    /// Installs a cancellation token honored between pricing batches
    /// (builder style).
    pub fn with_token(mut self, token: CancellationToken) -> Self {
        self.token = token;
        self
    }

    /// Runs the search. Deterministic: the report's ranking, scores, and
    /// bits are a pure function of `(pipelines, base, config, axes)` —
    /// thread count and cache state never show through.
    ///
    /// # Errors
    /// [`SearchError::NoPipelines`] for an empty device axis,
    /// [`SearchError::Lower`] when the base graph fails to lower, and
    /// [`SearchError::Cancelled`] when the token fires mid-search.
    pub fn run(&self, base: &Graph) -> Result<OptimizationReport<X>, SearchError> {
        let _span = dlperf_obs::span("search.run", dlperf_obs::SpanKind::Phase);
        let counters = search_counters();
        counters.searches.incr();
        let start = Instant::now();
        let pipelines = self.eval.pipelines();
        if pipelines.is_empty() {
            return Err(SearchError::NoPipelines);
        }

        // One checkpointed incremental baseline per device, kept in the
        // store across runs on the same base: the baselines are the
        // anchors every repredict splices against, and building them is
        // the only full walk the search pays per device.
        let store = self.eval.store();
        let baselines: Vec<Arc<IncrementalPredictor>> = (0..pipelines.len())
            .map(|d| {
                self.eval.baseline(d, base).map_err(|e| SearchError::Lower {
                    device: d,
                    reason: e.to_string(),
                })
            })
            .collect::<Result<_, _>>()?;
        let baseline_e2e = baselines[0].baseline_prediction().e2e_us;

        // Per-device one-sigma relative error bands from the calibrated
        // kernel models, for the report's confidence intervals.
        let rel_err: Vec<Option<f64>> = pipelines
            .iter()
            .map(|p| {
                p.predictor()
                    .registry()
                    .error_stats()
                    .map(|s| s.mean + s.std)
            })
            .collect();

        let root: Candidate<X> = Candidate::baseline();
        let mut seen: HashSet<Candidate<X>> = HashSet::new();
        seen.insert(root.clone());
        // Frontier entries carry the candidate's prepared graph so the
        // next expansion can run legality checks without re-preparing;
        // device moves and diamond-shaped move orders share store entries.
        let root_graph = store.get_or_prepare(base, &root.mutations);
        let mut frontier: Vec<(Candidate<X>, PreparedGraph)> = vec![(root, root_graph)];

        let device_moves = DeviceMoves {
            devices: pipelines.len(),
        };
        let mut all_scored: Vec<ScoredCandidate<X>> = Vec::new();
        let mut evals = 0usize;
        let mut prunes = 0usize;
        let mut incremental_evals = 0usize;
        let mut full_evals = 0usize;
        let mut incumbent = baseline_e2e;

        for _depth in 0..self.config.max_depth {
            if self.token.is_cancelled() {
                return Err(SearchError::Cancelled);
            }
            // Expand the frontier in order; generators are deterministic
            // and the seen-set preserves first-generation order.
            let mut children: Vec<Candidate<X>> = Vec::new();
            for (cand, graph) in &frontier {
                let Ok(graph) = graph.as_ref() else { continue };
                let mut push = |c: Candidate<X>| {
                    if seen.insert(c.clone()) {
                        children.push(c);
                    }
                };
                for c in MoveGenerator::<X>::expand(&self.graph_moves, graph, cand) {
                    push(c);
                }
                for c in device_moves.expand(graph, cand) {
                    push(c);
                }
                if let Some(gen) = self.extra_gen {
                    for c in gen.expand(graph, cand) {
                        push(c);
                    }
                }
            }
            if children.is_empty() {
                break;
            }

            // Price every child in parallel, results slotted by input
            // index. Each worker reuses one pooled scratch.
            type Priced<X> = Result<(ScoredCandidate<X>, PreparedGraph), String>;
            let priced: Vec<Option<Priced<X>>> = self.eval.fan_out(
                self.config.threads,
                &self.token,
                &children,
                |scratch, _, cand: &Candidate<X>| {
                    let graph = store.get_or_prepare(base, &cand.mutations);
                    let g = graph.as_ref().as_ref().map_err(|e| e.to_string())?;
                    let (e2e, incremental) = match (&cand.extra, self.extra_scorer) {
                        (Some(x), Some(scorer)) => {
                            (scorer.price(&cand.mutations, x, scratch)?, false)
                        }
                        (Some(x), None) => {
                            return Err(format!("no scorer for extra axis move `{x}`"));
                        }
                        (None, _) => {
                            let baseline = Some(&*baselines[cand.device]);
                            let (p, stats) = self
                                .eval
                                .price(cand.device, g, baseline, None, scratch)
                                .map_err(|e| e.uncancelled().to_string())?;
                            (p.e2e_us, stats.is_some_and(|s| !s.full_fallback))
                        }
                    };
                    let band = rel_err[cand.device].map(|r| e2e * r);
                    Ok((
                        ScoredCandidate {
                            description: cand.describe(&self.device_labels),
                            candidate: cand.clone(),
                            e2e_us: e2e,
                            delta_us: baseline_e2e - e2e,
                            speedup: baseline_e2e / e2e,
                            ci_low_us: band.map(|b| (e2e - b).max(0.0)),
                            ci_high_us: band.map(|b| e2e + b),
                            incremental,
                        },
                        graph,
                    ))
                },
            );
            if priced.iter().any(|p| p.is_none()) {
                return Err(SearchError::Cancelled);
            }

            // Collect scores in input order; failed candidates (illegal
            // combinations the legality gates could not see) are dropped.
            let mut scored_children: Vec<(usize, ScoredCandidate<X>, _)> = Vec::new();
            for (i, slot) in priced.into_iter().enumerate() {
                match slot.expect("checked above") {
                    Ok((sc, g)) => scored_children.push((i, sc, g)),
                    Err(_) => counters.errors.incr(),
                }
            }
            evals += scored_children.len();
            counters.evals.add(scored_children.len() as u64);
            for (_, sc, _) in &scored_children {
                if sc.candidate.extra.is_none() {
                    if sc.incremental {
                        incremental_evals += 1;
                        counters.incremental.incr();
                    } else {
                        full_evals += 1;
                        counters.full.incr();
                    }
                }
            }
            for (_, sc, _) in &scored_children {
                if sc.e2e_us < incumbent {
                    incumbent = sc.e2e_us;
                }
            }

            // Beam + branch-and-bound: next frontier is the beam_width
            // best children within the incumbent-relative slack bound.
            let bound = incumbent * (1.0 + self.config.prune_slack);
            let mut next: Vec<(usize, ScoredCandidate<X>, _)> = scored_children
                .iter()
                .filter(|(_, sc, _)| sc.e2e_us <= bound)
                .cloned()
                .collect();
            next.sort_by(|a, b| a.1.e2e_us.total_cmp(&b.1.e2e_us).then(a.0.cmp(&b.0)));
            next.truncate(self.config.beam_width);
            let cut = scored_children.len() - next.len();
            prunes += cut;
            counters.prunes.add(cut as u64);

            all_scored.extend(scored_children.into_iter().map(|(_, sc, _)| sc));
            frontier = next
                .into_iter()
                .map(|(_, sc, g)| (sc.candidate, g))
                .collect();
            if frontier.is_empty() {
                break;
            }
        }

        // Final ranking: fastest predicted time first, generation order
        // as the tie-break (all_scored preserves it).
        let mut order: Vec<usize> = (0..all_scored.len()).collect();
        order.sort_by(|&a, &b| {
            all_scored[a]
                .e2e_us
                .total_cmp(&all_scored[b].e2e_us)
                .then(a.cmp(&b))
        });
        let ranked: Vec<ScoredCandidate<X>> = order
            .into_iter()
            .take(self.config.top_k)
            .map(|i| all_scored[i].clone())
            .collect();

        Ok(OptimizationReport {
            baseline_e2e_us: baseline_e2e,
            ranked,
            evals,
            prunes,
            incremental_evals,
            full_evals,
            wall_ms: start.elapsed().as_secs_f64() * 1e3,
            threads: self.config.threads,
        })
    }
}
