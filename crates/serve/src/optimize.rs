//! The served face of the unified optimization search.
//!
//! `Op::Optimize` runs [`dlperf_core::OptimizationSearch`] over the
//! server's calibrated pipelines: the request picks the model, the
//! baseline batch, the device axis, and (optionally) the batch-resize
//! targets and search knobs; the answer is the search's top-k ranking
//! with predicted deltas and confidence bands.
//!
//! Determinism contract, inherited from the search: an admitted answer is
//! bitwise identical to running `OptimizationSearch` offline over the
//! same pipelines, graph, and knobs — admission, deadlines, and worker
//! chaos change *whether* the request is answered, never *what* the
//! ranking says. The server prices with one thread and a per-request
//! search over the engines' bounded memo caches (shared with `Predict`
//! and `Recommend`); memo hits are bitwise invisible, so they cannot leak.

use dlperf_core::pipeline::Pipeline;
use dlperf_core::{GraphMoves, NoExtra, OptimizationSearch, SearchConfig, SearchError};
use dlperf_runtime::CancellationToken;

use crate::api::{Body, ErrorCode, OptimizationBody, OptimizationEntry, OptimizeQuery};
use crate::server::{Engine, Shared};

/// Server-side caps on the client-tunable search knobs: a hostile query
/// may not turn one request into an unbounded search.
const MAX_BEAM_WIDTH: usize = 64;
const MAX_DEPTH: usize = 6;
const MAX_TOP_K: usize = 100;
const DEFAULT_BEAM_WIDTH: usize = 8;
const DEFAULT_DEPTH: usize = 2;
const DEFAULT_TOP_K: usize = 10;

/// Runs one optimization-search query. Always returns a body: an
/// [`OptimizationBody`] on success, a typed error for unknown names, bad
/// batches, or an expired deadline.
pub(crate) fn run(shared: &Shared, q: &OptimizeQuery, token: &CancellationToken) -> Body {
    let Some(entry) = shared.models.get(&q.model) else {
        return Body::error(ErrorCode::NotFound, format!("unknown model `{}`", q.model));
    };
    if q.batch == 0 || q.batch > (1 << 24) {
        return Body::error(
            ErrorCode::BadRequest,
            format!("batch {} out of range [1, 2^24]", q.batch),
        );
    }

    // Resolve the device axis exactly like the recommender: canonical
    // names, set-dedup in first-occurrence order so aliases and repeats
    // never widen the axis.
    let requested_devices = q.devices.as_deref().unwrap_or_default();
    let device_names: Vec<String> = if requested_devices.is_empty() {
        let mut names: Vec<String> = shared.engines.keys().cloned().collect();
        names.sort();
        names
    } else {
        let mut names = Vec::new();
        for d in requested_devices {
            match shared.engine(d) {
                Some(e) => names.push(e.pipeline.device().name.clone()),
                None => {
                    return Body::error(ErrorCode::NotFound, format!("unknown device `{d}`"));
                }
            }
        }
        let mut seen = std::collections::HashSet::new();
        names.retain(|n| seen.insert(n.clone()));
        names
    };
    let engines: Vec<&Engine> =
        device_names.iter().map(|n| shared.engine(n).expect("resolved above")).collect();
    let pipelines: Vec<Pipeline> = engines.iter().map(|e| e.pipeline.clone()).collect();

    let graph = entry.graph(q.batch);
    let base = match graph.as_ref() {
        Ok(g) => g,
        Err(e) => {
            return Body::error(ErrorCode::BadRequest, format!("graph preparation failed: {e}"));
        }
    };

    let config = SearchConfig {
        beam_width: q.beam_width.unwrap_or(DEFAULT_BEAM_WIDTH).clamp(1, MAX_BEAM_WIDTH),
        max_depth: q.max_depth.unwrap_or(DEFAULT_DEPTH).clamp(1, MAX_DEPTH),
        top_k: q.top_k.unwrap_or(DEFAULT_TOP_K).clamp(1, MAX_TOP_K),
        ..SearchConfig::default()
    };
    let search = OptimizationSearch::<NoExtra>::new(&pipelines)
        .with_caches(engines.iter().map(|e| e.cache.clone()).collect())
        .with_config(config)
        .with_graph_moves(GraphMoves {
            batches: q.batches.clone().unwrap_or_default(),
            ..GraphMoves::default()
        })
        .with_token(token.clone());
    match search.run(base) {
        Ok(report) => Body::Optimization(OptimizationBody {
            baseline_e2e_us: report.baseline_e2e_us,
            incremental_frac: report.incremental_frac(),
            evals: report.evals as u64,
            prunes: report.prunes as u64,
            ranked: report
                .ranked
                .into_iter()
                .map(|sc| OptimizationEntry {
                    description: sc.description,
                    e2e_us: sc.e2e_us,
                    delta_us: sc.delta_us,
                    speedup: sc.speedup,
                    ci_low_us: sc.ci_low_us,
                    ci_high_us: sc.ci_high_us,
                    incremental: sc.incremental,
                })
                .collect(),
        }),
        Err(SearchError::Cancelled) => {
            Body::error(ErrorCode::DeadlineExceeded, "deadline expired mid-search")
        }
        Err(e) => Body::error(ErrorCode::Internal, format!("optimization search failed: {e}")),
    }
}
