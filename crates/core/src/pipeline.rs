//! The Fig. 3 prediction pipeline.
//!
//! *Analysis Track* (run once per device): execute the input workloads on
//! the (simulated) hardware with profiling on, break down their traces,
//! extract T1–T5 overhead statistics, run the kernel microbenchmarks, and
//! fit the kernel performance models. The products — a
//! [`ModelRegistry`] and an [`OverheadStats`] database — are the reusable
//! assets (blue cylinders).
//!
//! *Prediction Track* (run per what-if): extract/transform an execution
//! graph and price it with Algorithm 1. No hardware needed.

use dlperf_gpusim::DeviceSpec;
use dlperf_graph::lower::LowerError;
use dlperf_graph::Graph;
use dlperf_kernels::{CalibrationEffort, ModelRegistry};
use dlperf_runtime::{
    JobContext, JobError, ResumableJob, RunReport, StepOutcome, Supervisor, SupervisorError,
};
use dlperf_trace::engine::{EngineError, ExecutionEngine};
use dlperf_trace::{OverheadStats, Trace};
use serde::{Deserialize, Serialize};

use crate::predictor::{E2ePredictor, PredictError, Prediction};

/// Errors raised by the resilient analysis track.
#[derive(Debug, Clone, PartialEq)]
pub enum PipelineError {
    /// No workloads were given.
    NoWorkloads,
    /// Zero analysis iterations were requested.
    NoIterations,
    /// Every workload failed to execute; nothing could be analyzed.
    /// Carries each workload's name and failure.
    AllWorkloadsFailed(Vec<(String, EngineError)>),
}

impl std::fmt::Display for PipelineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PipelineError::NoWorkloads => write!(f, "analysis needs at least one workload"),
            PipelineError::NoIterations => write!(f, "analysis needs at least one iteration"),
            PipelineError::AllWorkloadsFailed(fails) => {
                write!(f, "all {} workloads failed analysis:", fails.len())?;
                for (name, e) in fails {
                    write!(f, " [{name}: {e}]")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for PipelineError {}

/// What the resilient analysis track did with each workload.
#[derive(Debug, Clone, Default)]
pub struct AnalysisReport {
    /// Workloads analyzed successfully, in input order.
    pub analyzed: Vec<String>,
    /// Workloads skipped, each with the error that disqualified it.
    pub skipped: Vec<(String, EngineError)>,
}

impl AnalysisReport {
    /// Whether every input workload made it into the pipeline.
    pub fn is_clean(&self) -> bool {
        self.skipped.is_empty()
    }

    /// One-line human-readable summary naming any skipped workloads.
    pub fn summary(&self) -> String {
        if self.is_clean() {
            format!("analyzed {} workload(s), none skipped", self.analyzed.len())
        } else {
            let names: Vec<String> = self
                .skipped
                .iter()
                .map(|(n, e)| format!("`{n}` ({e})"))
                .collect();
            format!(
                "analyzed {} workload(s), skipped {}: {}",
                self.analyzed.len(),
                self.skipped.len(),
                names.join(", ")
            )
        }
    }
}

/// A calibrated pipeline: kernel models plus an overhead database for one
/// device, ready to price execution graphs.
#[derive(Debug, Clone)]
pub struct Pipeline {
    device: DeviceSpec,
    predictor: E2ePredictor,
    /// Per-workload overhead databases (workload name → stats), kept so the
    /// caller can switch between individual and shared overheads.
    per_workload: Vec<(String, OverheadStats)>,
}

impl Pipeline {
    /// Runs the analysis track: profiles each workload for `iters`
    /// iterations on `device`, extracts overheads, and calibrates the
    /// kernel models. The resulting predictor uses the *shared* (merged)
    /// overhead database by default.
    ///
    /// # Panics
    /// Panics if `workloads` is empty, `iters` is zero, or a workload fails
    /// to lower (malformed graph).
    pub fn analyze(
        device: &DeviceSpec,
        workloads: &[Graph],
        effort: CalibrationEffort,
        iters: usize,
        seed: u64,
    ) -> Self {
        let registry = ModelRegistry::calibrate(device, effort, seed ^ 0xabcd);
        Self::analyze_with_registry(device, workloads, registry, iters, seed)
    }

    /// Like [`Pipeline::analyze`] but reusing an already-calibrated kernel
    /// registry — calibration depends only on the device, so one registry
    /// serves any number of workload analyses. It is
    /// [`Pipeline::analyze_resilient_with_registry`] with every skipped
    /// workload turned into a panic.
    ///
    /// # Panics
    /// Same as [`Pipeline::analyze`].
    pub fn analyze_with_registry(
        device: &DeviceSpec,
        workloads: &[Graph],
        registry: ModelRegistry,
        iters: usize,
        seed: u64,
    ) -> Self {
        let (pipeline, report) =
            Self::analyze_resilient_with_registry(device, workloads, registry, iters, seed)
                .unwrap_or_else(|e| panic!("{e}"));
        if let Some((name, e)) = report.skipped.first() {
            panic!("workload `{name}` failed to execute: {e}");
        }
        pipeline
    }

    /// The fault-tolerant analysis track: like [`Pipeline::analyze`], but
    /// one malformed workload no longer aborts the whole analysis — it is
    /// skipped, recorded, and named in the returned [`AnalysisReport`].
    ///
    /// # Errors
    /// Returns a typed [`PipelineError`] when the inputs are unusable
    /// (empty workload list, zero iterations) or *every* workload fails.
    pub fn analyze_resilient(
        device: &DeviceSpec,
        workloads: &[Graph],
        effort: CalibrationEffort,
        iters: usize,
        seed: u64,
    ) -> Result<(Self, AnalysisReport), PipelineError> {
        let registry = ModelRegistry::calibrate(device, effort, seed ^ 0xabcd);
        Self::analyze_resilient_with_registry(device, workloads, registry, iters, seed)
    }

    /// Like [`Pipeline::analyze_resilient`] but reusing an
    /// already-calibrated kernel registry.
    ///
    /// # Errors
    /// Same as [`Pipeline::analyze_resilient`].
    pub fn analyze_resilient_with_registry(
        device: &DeviceSpec,
        workloads: &[Graph],
        registry: ModelRegistry,
        iters: usize,
        seed: u64,
    ) -> Result<(Self, AnalysisReport), PipelineError> {
        if workloads.is_empty() {
            return Err(PipelineError::NoWorkloads);
        }
        if iters == 0 {
            return Err(PipelineError::NoIterations);
        }

        let _span = dlperf_obs::span_with(dlperf_obs::SpanKind::Phase, || {
            format!("pipeline.analyze/{}", device.name)
        });
        let mut report = AnalysisReport::default();
        let mut per_workload = Vec::new();
        for (i, g) in workloads.iter().enumerate() {
            match profile(device, g, iters, seed.wrapping_add(i as u64)) {
                Ok(stats) => {
                    per_workload.push((g.name.clone(), stats));
                    report.analyzed.push(g.name.clone());
                }
                Err(e) => report.skipped.push((g.name.clone(), e)),
            }
        }
        if per_workload.is_empty() {
            return Err(PipelineError::AllWorkloadsFailed(report.skipped));
        }
        Ok((
            Self::from_profiles(device.clone(), registry, per_workload),
            report,
        ))
    }

    /// The supervised analysis track: like [`Pipeline::analyze_resilient`],
    /// but run under a [`Supervisor`] — one checkpointable step per
    /// workload, so a killed analysis resumes from its last snapshot and
    /// still produces a bitwise-identical pipeline (each workload's engine
    /// is seeded independently by its input index, and kernel calibration
    /// is a deterministic function of `(device, effort, seed)` redone at
    /// assembly time rather than checkpointed).
    ///
    /// Returns the run's [`RunReport`] alongside the result so callers see
    /// restarts, resumes, and checkpoint counts even on failure. A resumed
    /// state whose overhead stats do not load is a
    /// [`SupervisorError::Failed`].
    pub fn analyze_supervised(
        device: &DeviceSpec,
        workloads: &[Graph],
        effort: CalibrationEffort,
        iters: usize,
        seed: u64,
        supervisor: &mut Supervisor,
    ) -> (Result<(Self, AnalysisReport), SupervisorError>, RunReport) {
        let job = AnalysisJob::new(device, workloads, iters, seed);
        let invalid = if workloads.is_empty() {
            Some(PipelineError::NoWorkloads)
        } else if iters == 0 {
            Some(PipelineError::NoIterations)
        } else {
            None
        };
        if let Some(why) = invalid {
            let name = job.name().to_string();
            return (
                Err(SupervisorError::Failed {
                    job: name.clone(),
                    why: why.to_string(),
                }),
                RunReport {
                    job: name,
                    ..RunReport::default()
                },
            );
        }
        let (result, report) = supervisor.run(&job);
        let result = result.and_then(|state| {
            // The state verified as a checkpoint, but `from_json` can still
            // reject what it holds (a negative or non-finite mean).
            let mut per_workload = Vec::with_capacity(state.analyzed.len());
            for (name, json) in state.analyzed {
                let stats =
                    OverheadStats::from_json(&json).map_err(|e| SupervisorError::Failed {
                        job: job.name().to_string(),
                        why: format!("overhead stats of `{name}` do not load: {e}"),
                    })?;
                per_workload.push((name, stats));
            }
            let registry = ModelRegistry::calibrate(device, effort, seed ^ 0xabcd);
            let report = AnalysisReport {
                analyzed: per_workload.iter().map(|(n, _)| n.clone()).collect(),
                skipped: state.skipped,
            };
            Ok((
                Self::from_profiles(device.clone(), registry, per_workload),
                report,
            ))
        });
        (result, report)
    }

    /// Builds a pipeline from precomputed assets (e.g. a JSON overhead
    /// database from another session).
    pub fn from_assets(
        device: DeviceSpec,
        registry: ModelRegistry,
        overheads: OverheadStats,
    ) -> Self {
        Pipeline {
            device,
            predictor: E2ePredictor::new(registry, overheads),
            per_workload: Vec::new(),
        }
    }

    /// A pipeline that keeps each analyzed workload's overhead database
    /// and predicts with their merge (the paper's `shared_E2E`).
    fn from_profiles(
        device: DeviceSpec,
        registry: ModelRegistry,
        per_workload: Vec<(String, OverheadStats)>,
    ) -> Self {
        let shared = OverheadStats::merge(&per_workload.iter().map(|(_, s)| s).collect::<Vec<_>>());
        Pipeline {
            per_workload,
            ..Self::from_assets(device, registry, shared)
        }
    }

    /// The device this pipeline models.
    pub fn device(&self) -> &DeviceSpec {
        &self.device
    }

    /// The predictor (shared-overhead configuration).
    pub fn predictor(&self) -> &E2ePredictor {
        &self.predictor
    }

    /// A predictor bound to one workload's *individual* overhead database —
    /// the paper's `E2E` setting, vs the default `shared_E2E`.
    ///
    /// Returns `None` if that workload was not part of the analysis.
    pub fn predictor_for(&self, workload: &str) -> Option<E2ePredictor> {
        self.per_workload
            .iter()
            .find(|(n, _)| n == workload)
            .map(|(_, stats)| {
                let mut p = self.predictor.clone();
                p.set_overheads(stats.clone());
                p
            })
    }

    /// Names of the workloads analyzed.
    pub fn workloads(&self) -> Vec<&str> {
        self.per_workload.iter().map(|(n, _)| n.as_str()).collect()
    }

    /// Predicts with the shared overhead database.
    ///
    /// # Errors
    /// Returns a [`LowerError`] on malformed graphs.
    pub fn predict(&self, graph: &Graph) -> Result<Prediction, LowerError> {
        self.predictor.predict(graph)
    }

    /// Predicts with the shared overhead database, answering kernel-model
    /// queries from `cache` (which must be dedicated to this pipeline —
    /// cache keys do not include the device) and staging every
    /// intermediate in `scratch`: an uncancellable
    /// [`E2ePredictor::walk`]. Bitwise identical to
    /// [`Pipeline::predict`].
    ///
    /// # Errors
    /// Returns a [`LowerError`] on malformed graphs.
    pub fn predict_memoized_scratch(
        &self,
        graph: &Graph,
        cache: &dlperf_kernels::MemoCache,
        scratch: &mut crate::predictor::WalkScratch,
    ) -> Result<Prediction, LowerError> {
        self.predictor
            .walk(graph, Some(cache), None, scratch)
            .map_err(PredictError::uncancelled)
    }

    /// Predicts with the workload's individual overheads when available,
    /// falling back to shared.
    ///
    /// # Errors
    /// Returns a [`LowerError`] on malformed graphs.
    pub fn predict_individual(&self, graph: &Graph) -> Result<Prediction, LowerError> {
        match self.predictor_for(&graph.name) {
            Some(p) => p.predict(graph),
            None => self.predict(graph),
        }
    }

    /// Serializes the shared overhead database to JSON (the maintained
    /// "overhead database for large-scale predictions").
    pub fn shared_overheads_json(&self) -> String {
        // The predictor's stats are the shared database however the
        // pipeline was built; `from_assets` has no per-workload stats to
        // re-merge.
        self.predictor.overheads().to_json()
    }
}

/// The analysis track's per-workload step: runs `g` for `iters`
/// profiled iterations on an engine seeded with `seed` and extracts its
/// T1–T5 overhead database.
fn profile(
    device: &DeviceSpec,
    g: &Graph,
    iters: usize,
    seed: u64,
) -> Result<OverheadStats, EngineError> {
    let _span = dlperf_obs::span_with(dlperf_obs::SpanKind::Phase, || {
        format!("pipeline.profile/{}", g.name)
    });
    let runs = ExecutionEngine::new(device.clone(), seed).run_iterations(g, iters)?;
    let traces: Vec<Trace> = runs.into_iter().map(|r| r.trace).collect();
    Ok(OverheadStats::extract(&traces, true))
}

/// Resumable progress of the supervised analysis track.
///
/// Overhead statistics ride as their JSON form ([`OverheadStats::to_json`])
/// because `OverheadStats` round-trips bitwise through it and the
/// checkpoint envelope re-serializes the whole state anyway; errors ride as
/// typed [`EngineError`]s.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct AnalysisState {
    /// `(workload name, OverheadStats JSON)` for each analyzed workload,
    /// in input order.
    analyzed: Vec<(String, String)>,
    /// Workloads skipped, each with the error that disqualified it.
    skipped: Vec<(String, EngineError)>,
}

/// The analysis track packaged as a [`ResumableJob`]: one step per input
/// workload, checkpointable between workloads. Step `i` always analyzes
/// workload `i` with engine seed `seed + i`, independent of how earlier
/// steps fared — the property that makes a resumed run bitwise identical
/// to an uninterrupted one.
pub struct AnalysisJob<'a> {
    device: &'a DeviceSpec,
    workloads: &'a [Graph],
    iters: usize,
    seed: u64,
}

impl<'a> AnalysisJob<'a> {
    /// Packages one analysis run. Input validation (non-empty workloads,
    /// non-zero iterations) is the caller's job — see
    /// [`Pipeline::analyze_supervised`].
    pub fn new(device: &'a DeviceSpec, workloads: &'a [Graph], iters: usize, seed: u64) -> Self {
        AnalysisJob {
            device,
            workloads,
            iters,
            seed,
        }
    }
}

impl ResumableJob for AnalysisJob<'_> {
    type State = AnalysisState;
    type Output = AnalysisState;

    fn name(&self) -> &str {
        "core.analysis"
    }

    fn initial_state(&self) -> AnalysisState {
        AnalysisState::default()
    }

    fn step(&self, state: &mut AnalysisState, ctx: &JobContext) -> Result<StepOutcome, JobError> {
        ctx.check_cancelled()?;
        let i = state.analyzed.len() + state.skipped.len();
        debug_assert_eq!(
            i as u64, ctx.step,
            "analysis state out of sync with supervisor step"
        );
        let g = &self.workloads[i];
        match profile(self.device, g, self.iters, self.seed.wrapping_add(i as u64)) {
            Ok(stats) => state.analyzed.push((g.name.clone(), stats.to_json())),
            Err(e) => state.skipped.push((g.name.clone(), e)),
        }
        if state.analyzed.len() + state.skipped.len() < self.workloads.len() {
            return Ok(StepOutcome::Continue);
        }
        if state.analyzed.is_empty() {
            // Retrying cannot help: every workload failed deterministically.
            return Err(JobError::Failed(
                PipelineError::AllWorkloadsFailed(state.skipped.clone()).to_string(),
            ));
        }
        Ok(StepOutcome::Done)
    }

    fn finish(&self, state: AnalysisState) -> AnalysisState {
        state
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlperf_kernels::CalibrationEffort;
    use dlperf_models::DlrmConfig;

    fn small(name_batch: u64) -> Graph {
        DlrmConfig {
            rows_per_table: vec![50_000; 4],
            ..DlrmConfig::default_config(name_batch)
        }
        .build()
    }

    #[test]
    fn analyze_then_predict_round_trips() {
        let dev = DeviceSpec::v100();
        let workloads = vec![small(256), DlrmConfig::ddp_config(256).build()];
        let pipe = Pipeline::analyze(&dev, &workloads, CalibrationEffort::Quick, 10, 3);
        assert_eq!(pipe.workloads().len(), 2);
        let p = pipe.predict(&workloads[0]).unwrap();
        assert!(p.e2e_us > 0.0);
        let pi = pipe.predict_individual(&workloads[0]).unwrap();
        assert!(pi.e2e_us > 0.0);
        assert_ne!(
            p.e2e_us, pi.e2e_us,
            "shared and individual overheads should differ"
        );
    }

    #[test]
    fn predictor_for_unknown_workload_is_none() {
        let dev = DeviceSpec::v100();
        let workloads = vec![small(128)];
        let pipe = Pipeline::analyze(&dev, &workloads, CalibrationEffort::Quick, 5, 4);
        assert!(pipe.predictor_for("nonexistent").is_none());
    }

    #[test]
    fn overhead_db_exports_json() {
        let dev = DeviceSpec::p100();
        let pipe = Pipeline::analyze(&dev, &[small(128)], CalibrationEffort::Quick, 5, 5);
        let json = pipe.shared_overheads_json();
        assert!(OverheadStats::from_json(&json).is_ok());
    }

    #[test]
    #[should_panic(expected = "at least one workload")]
    fn empty_workloads_panic() {
        Pipeline::analyze(&DeviceSpec::v100(), &[], CalibrationEffort::Quick, 5, 0);
    }

    /// A graph whose only op cannot lower (AddMm with one input).
    fn malformed(name: &str) -> Graph {
        use dlperf_graph::{OpKind, TensorMeta};
        let mut g = Graph::new(name);
        let x = g.add_tensor(TensorMeta::activation(&[8, 8]));
        let y = g.add_tensor(TensorMeta::activation(&[8, 8]));
        g.add_op(OpKind::AddMm, vec![x], vec![y]);
        g
    }

    #[test]
    fn resilient_analysis_skips_and_names_malformed_workload() {
        let dev = DeviceSpec::v100();
        let workloads = vec![small(128), malformed("broken-graph"), small(256)];
        let (pipe, report) =
            Pipeline::analyze_resilient(&dev, &workloads, CalibrationEffort::Quick, 5, 6)
                .expect("two good workloads remain");
        assert_eq!(pipe.workloads().len(), 2);
        assert_eq!(report.analyzed.len(), 2);
        assert_eq!(report.skipped.len(), 1);
        assert_eq!(report.skipped[0].0, "broken-graph");
        assert!(
            report.summary().contains("broken-graph"),
            "summary: {}",
            report.summary()
        );
        // The surviving pipeline still predicts.
        assert!(pipe.predict(&workloads[0]).unwrap().e2e_us > 0.0);
    }

    #[test]
    fn supervised_analysis_matches_resilient_bitwise() {
        let dev = DeviceSpec::v100();
        let workloads = vec![small(128), malformed("broken-graph"), small(256)];
        let (pipe_a, report_a) =
            Pipeline::analyze_resilient(&dev, &workloads, CalibrationEffort::Quick, 5, 6)
                .expect("two good workloads remain");

        let mut sup = Supervisor::new(dlperf_runtime::SupervisorConfig::default());
        let (res, run) = Pipeline::analyze_supervised(
            &dev,
            &workloads,
            CalibrationEffort::Quick,
            5,
            6,
            &mut sup,
        );
        let (pipe_b, report_b) = res.expect("supervised analysis succeeds");

        assert_eq!(run.steps_completed, 3);
        assert_eq!(report_a.analyzed, report_b.analyzed);
        assert_eq!(report_a.skipped, report_b.skipped);
        for g in [&workloads[0], &workloads[2]] {
            let a = pipe_a.predict(g).unwrap();
            let b = pipe_b.predict(g).unwrap();
            assert_eq!(
                a.e2e_us.to_bits(),
                b.e2e_us.to_bits(),
                "shared prediction for {}",
                g.name
            );
            let ia = pipe_a.predict_individual(g).unwrap();
            let ib = pipe_b.predict_individual(g).unwrap();
            assert_eq!(
                ia.e2e_us.to_bits(),
                ib.e2e_us.to_bits(),
                "individual for {}",
                g.name
            );
        }
    }

    #[test]
    fn supervised_analysis_killed_and_resumed_is_bitwise_identical() {
        use dlperf_faults::{FaultInjector, FaultPlan};
        use dlperf_runtime::{FileStore, Supervisor, SupervisorConfig};

        let dev = DeviceSpec::v100();
        let workloads = vec![small(128), small(192), small(256)];
        let (effort, iters, seed) = (CalibrationEffort::Quick, 5, 7);

        // Reference: uninterrupted run.
        let mut sup = Supervisor::new(SupervisorConfig::default());
        let (res, _) =
            Pipeline::analyze_supervised(&dev, &workloads, effort, iters, seed, &mut sup);
        let (pipe_ref, _) = res.expect("uninterrupted run succeeds");

        let dir = std::env::temp_dir().join("dlperf-core-resume-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("analysis.ckpt.json");
        std::fs::remove_file(&path).ok();

        // Run A: a chaos plan kills the worker partway through and the
        // restart budget is zero, so the run dies with a checkpoint behind.
        let cfg = SupervisorConfig {
            max_restarts: 0,
            ..SupervisorConfig::default()
        };
        let mut sup_a = Supervisor::with_store(cfg, Box::new(FileStore::new(&path)));
        // Plan seed 10 draws no kill for step 0 and a kill for step 1 at
        // this probability, so the run dies with exactly one step behind it.
        sup_a.set_fault_injector(FaultInjector::new(
            FaultPlan::healthy(10).with_worker_faults(0.0, 0.9, 0.0),
        ));
        let (res_a, report_a) =
            Pipeline::analyze_supervised(&dev, &workloads, effort, iters, seed, &mut sup_a);
        assert!(res_a.is_err(), "the kill must take the run down");
        assert!(
            report_a.steps_completed > 0 && report_a.steps_completed < 3,
            "the kill must land mid-run (completed {}), adjust the plan seed",
            report_a.steps_completed
        );
        assert!(path.exists(), "a checkpoint must survive the kill");

        // Run B: a fresh supervisor (fresh process, in effect) resumes from
        // the checkpoint and completes.
        let mut sup_b =
            Supervisor::with_store(SupervisorConfig::default(), Box::new(FileStore::new(&path)));
        let (res_b, report_b) =
            Pipeline::analyze_supervised(&dev, &workloads, effort, iters, seed, &mut sup_b);
        let (pipe_b, analysis_b) = res_b.expect("resumed run completes");
        assert_eq!(report_b.resumed_from_step, Some(report_a.steps_completed));
        assert!(analysis_b.is_clean());
        assert!(!path.exists(), "checkpoint is cleared after success");

        for g in &workloads {
            let r = pipe_ref.predict(g).unwrap();
            let b = pipe_b.predict(g).unwrap();
            assert_eq!(
                r.e2e_us.to_bits(),
                b.e2e_us.to_bits(),
                "prediction for {}",
                g.name
            );
        }
    }

    #[test]
    fn checkpointed_overheads_that_do_not_load_are_a_typed_error() {
        use dlperf_runtime::{
            seal, CheckpointStore, MemoryStore, SupervisorConfig, CHECKPOINT_VERSION,
        };

        let dev = DeviceSpec::v100();
        let workloads = vec![small(128), small(192)];
        // Well-formed JSON, but one mean is negative.
        let json = profile(&dev, &workloads[0], 5, 0).unwrap().to_json();
        let bad = json.replacen("\"mean_us\": ", "\"mean_us\": -1", 1);
        assert!(OverheadStats::from_json(&bad).is_err());
        let state = AnalysisState {
            analyzed: vec![(workloads[0].name.clone(), bad)],
            skipped: Vec::new(),
        };
        let state_json = serde_json::to_string(&state).unwrap();
        let schema = "dlperf.checkpoint/core.analysis";
        let mut store = MemoryStore::new();
        store
            .save(&seal(schema, CHECKPOINT_VERSION, &(1u64, state_json)).unwrap())
            .unwrap();
        let mut sup = Supervisor::with_store(SupervisorConfig::default(), Box::new(store));
        let (res, run) = Pipeline::analyze_supervised(
            &dev,
            &workloads,
            CalibrationEffort::Quick,
            5,
            0,
            &mut sup,
        );
        assert_eq!(run.resumed_from_step, Some(1));
        match res {
            Err(SupervisorError::Failed { job, why }) => {
                assert_eq!(job, "core.analysis");
                assert!(why.contains(&workloads[0].name), "{why}");
            }
            other => panic!("expected Failed, got {other:?}"),
        }
    }

    #[test]
    fn supervised_analysis_typed_errors() {
        let dev = DeviceSpec::v100();
        let mut sup = Supervisor::new(dlperf_runtime::SupervisorConfig::default());
        let (res, _) =
            Pipeline::analyze_supervised(&dev, &[], CalibrationEffort::Quick, 5, 0, &mut sup);
        match res {
            Err(SupervisorError::Failed { why, .. }) => assert!(why.contains("workload")),
            other => panic!("expected Failed, got {other:?}"),
        }
        let (res, _) = Pipeline::analyze_supervised(
            &dev,
            &[small(64)],
            CalibrationEffort::Quick,
            0,
            0,
            &mut sup,
        );
        match res {
            Err(SupervisorError::Failed { why, .. }) => assert!(why.contains("iteration")),
            other => panic!("expected Failed, got {other:?}"),
        }
        let (res, _) = Pipeline::analyze_supervised(
            &dev,
            &[malformed("only")],
            CalibrationEffort::Quick,
            3,
            0,
            &mut sup,
        );
        match res {
            Err(SupervisorError::Failed { why, .. }) => assert!(why.contains("only")),
            other => panic!("expected Failed, got {other:?}"),
        }
    }

    #[test]
    fn resilient_analysis_typed_errors() {
        let dev = DeviceSpec::v100();
        assert_eq!(
            Pipeline::analyze_resilient(&dev, &[], CalibrationEffort::Quick, 5, 0).err(),
            Some(PipelineError::NoWorkloads)
        );
        assert_eq!(
            Pipeline::analyze_resilient(&dev, &[small(64)], CalibrationEffort::Quick, 0, 0).err(),
            Some(PipelineError::NoIterations)
        );
        match Pipeline::analyze_resilient(
            &dev,
            &[malformed("only")],
            CalibrationEffort::Quick,
            3,
            0,
        ) {
            Err(PipelineError::AllWorkloadsFailed(fails)) => {
                assert_eq!(fails.len(), 1);
                assert_eq!(fails[0].0, "only");
            }
            other => panic!("expected AllWorkloadsFailed, got {other:?}"),
        }
    }
}
