//! # dlperf-core
//!
//! The paper's primary contribution: a critical-path-based end-to-end
//! performance model for GPU training of DLRM (and other DL models).
//!
//! * [`predictor`] — Algorithm 1: walks the execution graph keeping both a
//!   CPU and a GPU clock, combining per-kernel predictions from the
//!   [`dlperf_kernels::ModelRegistry`] with per-op overhead means from the
//!   [`dlperf_trace::OverheadStats`] database, so that device idle time
//!   caused by unhidden host overheads is part of the prediction.
//! * [`pipeline`] — the Fig. 3 two-track workflow: an *Analysis Track*
//!   (trace collection, overhead extraction, microbenchmarks, model
//!   training) producing reusable assets, and a *Prediction Track* that
//!   prices any execution graph in milliseconds of compute.
//! * [`baselines`] — `kernel_only` (GPU active time as E2E), a
//!   Habitat-like predictor, and an MLPredict-like predictor for the
//!   Fig. 10 comparison.
//! * [`report`] — error bookkeeping: the geomean/min/max statistics of
//!   Table V and the per-configuration rows of Fig. 9.
//! * [`evaluator`] — the one pricing handle: pipelines, per-device memo
//!   caches, prepared graphs, incremental baselines and walk scratches,
//!   shared by the sweep, the search, the distributed predictor and the
//!   server.
//! * [`sweep`] — §V-A co-design what-ifs (batch size, device, op fusion,
//!   reordering) as graph mutations, priced in parallel by one shared
//!   evaluator; [`incremental`] re-prices only a mutation's dirty span.
//! * [`search`] — a ranked optimization search over the same what-if
//!   space.
//! * [`ingest`] — corpus-scale trace ingestion and calibration.
//!
//! ## Example
//!
//! ```no_run
//! use dlperf_core::pipeline::Pipeline;
//! use dlperf_gpusim::DeviceSpec;
//! use dlperf_kernels::CalibrationEffort;
//! use dlperf_models::DlrmConfig;
//!
//! let workloads = vec![DlrmConfig::default_config(1024).build()];
//! let pipeline = Pipeline::analyze(&DeviceSpec::v100(), &workloads, CalibrationEffort::Quick, 20, 7);
//! let pred = pipeline.predict(&workloads[0]).unwrap();
//! println!("predicted per-batch time: {:.0} us", pred.e2e_us);
//! ```

pub mod baselines;
pub mod evaluator;
pub mod incremental;
pub mod ingest;
pub mod pipeline;
pub mod predictor;
pub mod report;
pub mod search;
pub mod sweep;

pub use evaluator::Evaluator;
pub use incremental::{IncrementalPredictor, IncrementalStats};
pub use ingest::{
    collect_family_samples, family_medians, CalibrationPolicy, CorpusIngest, CorpusIngestJob,
    CorpusIngestState, FamilyFit, TraceCalibration,
};
pub use pipeline::{AnalysisJob, AnalysisReport, AnalysisState, Pipeline, PipelineError};
pub use predictor::{
    E2ePredictor, OverheadGranularity, PredictError, Prediction, T4Policy, WalkScratch,
};
pub use report::{ErrorSummary, PredictionRow};
pub use search::{
    Candidate, DeviceMoves, ExtraScorer, GraphMoves, MoveGenerator, NoExtra, OptimizationReport,
    OptimizationSearch, ScoredCandidate, SearchConfig, SearchError,
};
pub use sweep::{
    par_map, par_map_with, prepare_graph, GraphMutation, IncrementalSummary, MutationError,
    PreparedStore, PreparedStoreStats, Scenario, ScenarioMatrix, ScenarioResult, SweepEngine,
    SweepOutcome, SweepState, DEFAULT_MEMO_CAPACITY,
};
