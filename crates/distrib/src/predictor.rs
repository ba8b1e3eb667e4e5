//! The distributed E2E predictor: Algorithm 1 per compute segment, the
//! analytic collective model per communication phase, barriers in between.
//!
//! Like the single-GPU predictor it never executes anything — sharding
//! plans, world sizes, and interconnects can be compared from graphs alone.

use dlperf_core::predictor::{E2ePredictor, PredictError, WalkScratch};
use dlperf_core::sweep::IncrementalSummary;
use dlperf_core::IncrementalPredictor;
use dlperf_faults::{FaultInjector, FaultPlan};
use dlperf_gpusim::DeviceSpec;
use dlperf_graph::lower::LowerError;
use dlperf_kernels::MemoCache;

use crate::builder::DistributedDlrm;
use crate::comms::CommModel;
use crate::topology::Topology;

/// Predicted timeline of one distributed iteration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DistributedPrediction {
    /// Predicted E2E iteration time (µs).
    pub e2e_us: f64,
    /// Predicted per-segment compute time (max over ranks, µs).
    pub segment_us: [f64; 4],
    /// Predicted per-collective time (µs).
    pub comm_us: [f64; 3],
    /// Communication the overlap window hid under the next compute
    /// segment (µs); already subtracted from `e2e_us`. Zero unless the
    /// predictor was given an overlap fraction.
    pub overlap_hidden_us: f64,
}

impl DistributedPrediction {
    /// Predicted fraction of the iteration spent communicating.
    pub fn comm_share(&self) -> f64 {
        self.comm_us.iter().sum::<f64>() / self.e2e_us
    }
}

/// Distributed predictor: a single-GPU predictor plus the cluster's
/// interconnect topology (derived from the device class unless pinned).
#[derive(Debug, Clone)]
pub struct DistributedPredictor {
    predictor: E2ePredictor,
    device: DeviceSpec,
    topology: Option<Topology>,
    overlap_frac: f64,
}

impl DistributedPredictor {
    /// Wraps a calibrated single-GPU predictor for `device`.
    pub fn new(predictor: E2ePredictor, device: DeviceSpec) -> Self {
        DistributedPredictor { predictor, device, topology: None, overlap_frac: 0.0 }
    }

    /// Pins the predictor to an explicit topology (builder style). A job
    /// whose world does not match falls back to the derived device
    /// topology — degraded, not wrong.
    pub fn with_topology(mut self, topology: Topology) -> Self {
        self.topology = Some(topology);
        self
    }

    /// Sets the compute–communication overlap window (builder style):
    /// collective `Cᵢ` may hide under up to `frac` of the following
    /// compute segment `Sᵢ₊₁` (prefetch-style pipelining). The default 0
    /// models the fully synchronous timeline the cluster engine measures.
    ///
    /// # Panics
    /// Panics if `frac` is outside `[0, 1]`.
    pub fn with_overlap(mut self, frac: f64) -> Self {
        assert!((0.0..=1.0).contains(&frac), "overlap fraction must be in [0, 1], got {frac}");
        self.overlap_frac = frac;
        self
    }

    /// The underlying single-GPU predictor.
    pub fn single_gpu(&self) -> &E2ePredictor {
        &self.predictor
    }

    /// The topology `job`-sized collectives will be priced on.
    pub fn topology_for(&self, world: usize) -> Topology {
        match &self.topology {
            Some(t) if t.world() == world => t.clone(),
            _ => Topology::for_device(&self.device, world),
        }
    }

    /// Predicts one distributed iteration of `job`.
    ///
    /// # Errors
    /// Propagates lowering errors from malformed segment graphs.
    pub fn predict(&self, job: &DistributedDlrm) -> Result<DistributedPrediction, LowerError> {
        self.predict_segments(job, None, None).map(|r| r.0)
    }

    /// Like [`DistributedPredictor::predict`], answering kernel-model
    /// queries from `cache`. Across the ranks of one job most segments
    /// share kernel shapes (data parallelism makes the MLP segments
    /// identical), so even a single prediction hits heavily; across a
    /// sharding sweep the hit rate compounds. Bitwise identical to the
    /// uncached path (see [`dlperf_kernels::memo`]).
    ///
    /// # Errors
    /// Propagates lowering errors from malformed segment graphs.
    pub fn predict_memoized(
        &self,
        job: &DistributedDlrm,
        cache: &MemoCache,
    ) -> Result<DistributedPrediction, LowerError> {
        self.predict_segments(job, None, Some(cache)).map(|r| r.0)
    }

    /// Like [`DistributedPredictor::predict_memoized`], but pricing each
    /// segment by incremental re-prediction against `baselines` (one
    /// checkpointed walk per segment slot). Data-parallel segments are
    /// structurally identical across ranks and sharding plans, so they
    /// splice to the baseline; the embedding-bearing segments recompute
    /// only the shards that changed. Bitwise identical to the full paths
    /// (see [`dlperf_core::incremental`]).
    ///
    /// # Errors
    /// Propagates lowering errors from malformed segment graphs.
    pub fn predict_incremental(
        &self,
        job: &DistributedDlrm,
        baselines: &SegmentBaselines,
        cache: Option<&MemoCache>,
    ) -> Result<(DistributedPrediction, IncrementalSummary), LowerError> {
        self.predict_segments(job, Some(baselines), cache)
    }

    /// The one rank × segment loop behind every predict: a segment with a
    /// baseline slot is re-predicted incrementally, any other walked.
    pub(crate) fn predict_segments(
        &self,
        job: &DistributedDlrm,
        baselines: Option<&SegmentBaselines>,
        cache: Option<&MemoCache>,
    ) -> Result<(DistributedPrediction, IncrementalSummary), LowerError> {
        let _span = dlperf_obs::span("distrib.predict", dlperf_obs::SpanKind::Phase);
        let mut summary = IncrementalSummary::default();
        let mut segment_us = [0.0f64; 4];
        let mut scratch = WalkScratch::new();
        for rank in 0..job.world() {
            for (i, seg) in job.segments(rank).iter().enumerate() {
                let _seg_span = dlperf_obs::span_with(dlperf_obs::SpanKind::Work, || {
                    format!("segment:S{}/r{rank}", i + 1)
                });
                let p = match baselines.and_then(|b| b.get(i)) {
                    Some(b) => {
                        let (p, stats) = b.repredict_scratch(seg, cache, &mut scratch)?;
                        summary.absorb(&stats);
                        p
                    }
                    None => self
                        .predictor
                        .walk(seg, cache, None, &mut scratch)
                        .map_err(PredictError::uncancelled)?,
                };
                segment_us[i] = segment_us[i].max(p.e2e_us);
            }
        }
        Ok((self.assemble(job, segment_us), summary))
    }

    /// Adds the collective phases and folds the timeline — shared by the
    /// full and incremental paths so they cannot diverge. Collectives are
    /// priced by the α–β model on the resolved topology; the pipeline
    /// bubble inflates compute; the overlap window (if any) hides each
    /// collective under a slice of the next segment.
    fn assemble(&self, job: &DistributedDlrm, segment_us: [f64; 4]) -> DistributedPrediction {
        let model = CommModel::new(self.topology_for(job.world()));
        let inflation = job.compute_inflation();
        let mut segment_us = segment_us;
        for s in &mut segment_us {
            *s *= inflation;
        }
        let mut comm_us = [0.0f64; 3];
        for (c, spec) in comm_us.iter_mut().zip(&job.collectives()) {
            *c = model.collective_time(spec);
        }
        let mut overlap_hidden_us = 0.0;
        if self.overlap_frac > 0.0 {
            for (i, c) in comm_us.iter().enumerate() {
                overlap_hidden_us += c.min(self.overlap_frac * segment_us[i + 1]);
            }
        }
        DistributedPrediction {
            e2e_us: segment_us.iter().sum::<f64>() + comm_us.iter().sum::<f64>()
                - overlap_hidden_us,
            segment_us,
            comm_us,
            overlap_hidden_us,
        }
    }

    /// Like [`DistributedPredictor::predict`], then deterministically
    /// degrades the communication phases under `plan`'s link faults
    /// (iteration-0 sites, matching the engine's first iteration):
    /// each degraded collective is repriced on the bandwidth-derated
    /// topology and reported by name. The returned notes are empty when
    /// the plan leaves the wires alone.
    ///
    /// # Errors
    /// Propagates lowering errors from malformed segment graphs.
    pub fn predict_with_faults(
        &self,
        job: &DistributedDlrm,
        plan: &FaultPlan,
    ) -> Result<(DistributedPrediction, Vec<String>), LowerError> {
        let mut p = self.predict(job)?;
        let inj = FaultInjector::new(plan.clone());
        let topology = self.topology_for(job.world());
        let mut notes = Vec::new();
        for (idx, spec) in job.collectives().iter().enumerate() {
            if spec.world <= 1 || spec.bytes_per_rank == 0 {
                continue;
            }
            if let Some(factor) = inj.link_degradation(0, idx) {
                let degraded =
                    CommModel::new(topology.scaled_bandwidth(factor)).collective_time(spec);
                p.e2e_us += degraded - p.comm_us[idx];
                p.comm_us[idx] = degraded;
                crate::comms::record_link_fault();
                notes.push(format!(
                    "C{} {} link degraded ×{factor:.2} bandwidth",
                    idx + 1,
                    spec.kind
                ));
            }
        }
        Ok((p, notes))
    }
}

/// Checkpointed [`IncrementalPredictor`] baselines, one per compute-segment
/// slot (S1..S4), built from a reference job's rank-0 segments. Any other
/// job of the same config family re-predicts its segments against these —
/// a sharding sweep prices dozens of near-identical segment graphs, which
/// is exactly the incremental predictor's sweet spot.
#[derive(Debug, Clone)]
pub struct SegmentBaselines {
    baselines: Vec<Option<IncrementalPredictor>>,
}

impl SegmentBaselines {
    /// Checkpoints one baseline walk per segment of `reference`'s rank 0,
    /// feeding kernel queries through `cache` when given. A segment whose
    /// baseline fails to lower simply gets no baseline (re-prediction of
    /// that slot falls back to the full path).
    pub fn new(
        predictor: &DistributedPredictor,
        reference: &DistributedDlrm,
        cache: Option<&MemoCache>,
    ) -> Self {
        let baselines = reference
            .segments(0)
            .iter()
            .map(|seg| {
                let p = predictor.single_gpu().clone();
                match cache {
                    Some(c) => IncrementalPredictor::with_cache(p, seg.clone(), c).ok(),
                    None => IncrementalPredictor::new(p, seg.clone()).ok(),
                }
            })
            .collect();
        SegmentBaselines { baselines }
    }

    /// The baseline for segment slot `i`, if one was checkpointed.
    pub fn get(&self, i: usize) -> Option<&IncrementalPredictor> {
        self.baselines.get(i).and_then(Option::as_ref)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::MultiGpuEngine;
    use crate::plan::ShardingPlan;
    use dlperf_core::pipeline::Pipeline;
    use dlperf_kernels::CalibrationEffort;
    use dlperf_models::DlrmConfig;

    fn setup(world: usize, batch: u64) -> (DistributedDlrm, DistributedPredictor) {
        let cfg = DlrmConfig::default_config(batch);
        let plan = ShardingPlan::round_robin(cfg.rows_per_table.len(), world);
        let job = DistributedDlrm::new(cfg, plan).unwrap();
        // Calibrate on the rank-0 segments so the overhead DB covers the ops.
        let segs = job.segments(0).to_vec();
        let device = DeviceSpec::v100();
        let pipe = Pipeline::analyze(&device, &segs, CalibrationEffort::Quick, 12, 5);
        (job, DistributedPredictor::new(pipe.predictor().clone(), device))
    }

    #[test]
    fn incremental_prediction_bitwise_matches_full() {
        let (job, pred) = setup(4, 2048);
        let cache = MemoCache::new();
        let baselines = SegmentBaselines::new(&pred, &job, Some(&cache));
        let cfg = DlrmConfig::default_config(2048);
        let tables = cfg.rows_per_table.len();
        let skewed =
            DistributedDlrm::new(cfg, ShardingPlan::new(vec![0; tables], 4).unwrap()).unwrap();
        for j in [&job, &skewed] {
            let (inc, summary) = pred.predict_incremental(j, &baselines, Some(&cache)).unwrap();
            let full = pred.predict(j).unwrap();
            assert_eq!(inc.e2e_us.to_bits(), full.e2e_us.to_bits());
            for (a, b) in inc.segment_us.iter().zip(&full.segment_us) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
            assert!(summary.scenarios > 0);
        }
        // The reference job's own segments reconverge and splice.
        let (_, summary) = pred.predict_incremental(&job, &baselines, Some(&cache)).unwrap();
        assert!(summary.spliced > 0, "{summary:?}");
    }

    #[test]
    fn prediction_tracks_simulated_cluster() {
        let (job, pred) = setup(4, 2048);
        let p = pred.predict(&job).unwrap();
        let mut engine = MultiGpuEngine::new(DeviceSpec::v100(), 9);
        let measured = engine.measure_e2e(&job, 8).unwrap();
        let err = ((p.e2e_us - measured) / measured).abs();
        assert!(
            err < 0.25,
            "distributed error {:.1}% (pred {} vs measured {measured})",
            err * 100.0,
            p.e2e_us
        );
    }

    #[test]
    fn scaling_helps_compute_but_adds_comm() {
        let (job1, pred) = setup(1, 2048);
        let (job4, _) = setup(4, 2048);
        let p1 = pred.predict(&job1).unwrap();
        let p4 = pred.predict(&job4).unwrap();
        assert_eq!(p1.comm_us, [0.0; 3]);
        assert!(p4.comm_us.iter().sum::<f64>() > 0.0);
        // Per-rank compute shrinks with world size.
        assert!(p4.segment_us[1] < p1.segment_us[1], "S2 should shrink with DP");
    }

    #[test]
    fn predictor_ranks_sharding_plans_like_the_engine() {
        let cfg = DlrmConfig::default_config(1024);
        let balanced =
            DistributedDlrm::new(cfg.clone(), ShardingPlan::round_robin(8, 4)).unwrap();
        let skewed = DistributedDlrm::new(
            cfg,
            ShardingPlan::new(vec![0, 0, 0, 0, 0, 1, 2, 3], 4).unwrap(),
        )
        .unwrap();
        let (_, pred) = setup(4, 1024);
        let pb = pred.predict(&balanced).unwrap().e2e_us;
        let ps = pred.predict(&skewed).unwrap().e2e_us;
        assert!(ps > pb, "skewed plan predicted faster ({ps}) than balanced ({pb})");

        let mut engine = MultiGpuEngine::new(DeviceSpec::v100(), 13);
        let mb = engine.measure_e2e(&balanced, 5).unwrap();
        let ms = engine.measure_e2e(&skewed, 5).unwrap();
        assert!(ms > mb, "engine disagrees: skewed {ms} vs balanced {mb}");
    }
}
