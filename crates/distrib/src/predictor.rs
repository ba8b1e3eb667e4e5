//! The distributed E2E predictor: Algorithm 1 per compute segment, the
//! analytic collective model per communication phase, barriers in between.
//!
//! Like the single-GPU predictor it never executes anything — sharding
//! plans, world sizes, and interconnects can be compared from graphs alone.

use dlperf_core::predictor::{PredictError, WalkScratch};
use dlperf_core::sweep::IncrementalSummary;
use dlperf_core::{Evaluator, IncrementalPredictor};
use dlperf_faults::{FaultInjector, FaultPlan};
use dlperf_gpusim::DeviceSpec;
use dlperf_graph::lower::LowerError;
use dlperf_graph::Graph;

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
}

impl DistributedPrediction {
    /// Predicted fraction of the iteration spent communicating.
    pub fn comm_share(&self) -> f64 {
        self.comm_us.iter().sum::<f64>() / self.e2e_us
    }
}

/// Distributed predictor: one device of an [`Evaluator`] priced per rank
/// segment, plus collectives on the cluster's interconnect.
#[derive(Clone, Copy)]
pub struct DistributedPredictor<'e> {
    pub(crate) eval: &'e Evaluator<'e>,
    device: usize,
}

impl<'e> DistributedPredictor<'e> {
    /// Prices jobs on `eval`'s pipeline `device`, kernel queries through
    /// that device's memo cache if `eval` has one; unpinned collectives
    /// run on the topology derived from the pipeline's device class.
    pub fn new(eval: &'e Evaluator<'e>, device: usize) -> Self {
        DistributedPredictor { eval, device }
    }

    /// A baseline walk of `segment` for [`DistributedPredictor::price`]'s
    /// `baselines`, or `None` when it does not lower.
    pub(crate) fn checkpoint(&self, segment: &Graph) -> Option<IncrementalPredictor> {
        self.eval.checkpoint(self.device, segment).ok()
    }

    /// The device class unpinned collectives are priced on.
    fn device_spec(&self) -> &DeviceSpec {
        self.eval.pipelines()[self.device].device()
    }

    /// Predicts one distributed iteration of `job` on the derived
    /// topology, with a fresh scratch and no incremental baselines.
    ///
    /// # Errors
    /// Propagates lowering errors from malformed segment graphs.
    pub fn predict(&self, job: &DistributedDlrm) -> Result<DistributedPrediction, LowerError> {
        self.price(job, None, &[], &mut WalkScratch::new())
            .map(|r| r.0)
    }

    /// The one rank × segment loop behind every distributed price; each
    /// segment is priced by [`Evaluator::price`].
    ///
    /// * `topology` pins the interconnect collectives are priced on; a
    ///   pinned topology whose world does not match the job falls back to
    ///   the derived device topology — degraded, not wrong.
    /// * Segment `i` is re-predicted incrementally against `baselines[i]`
    ///   when that slot holds a checkpoint ([`Evaluator::checkpoint`] of a
    ///   reference job's segment `i`), and walked otherwise.
    ///
    /// Across the ranks of one job most segments share kernel shapes
    /// (data parallelism makes the MLP segments identical), so the memo
    /// cache hits heavily. Cache hits and splices are bitwise identical to
    /// the plain walk (see [`dlperf_kernels::memo`] and
    /// [`dlperf_core::incremental`]), so every argument combination
    /// prices the same bits as [`DistributedPredictor::predict`].
    ///
    /// # Errors
    /// Propagates lowering errors from malformed segment graphs.
    pub fn price(
        &self,
        job: &DistributedDlrm,
        topology: Option<&Topology>,
        baselines: &[Option<IncrementalPredictor>],
        scratch: &mut WalkScratch,
    ) -> Result<(DistributedPrediction, IncrementalSummary), LowerError> {
        let _span = dlperf_obs::span("distrib.predict", dlperf_obs::SpanKind::Phase);
        let mut summary = IncrementalSummary::default();
        let mut segment_us = [0.0f64; 4];
        for rank in 0..job.world() {
            for (i, seg) in job.segments(rank).iter().enumerate() {
                let _seg_span = dlperf_obs::span_with(dlperf_obs::SpanKind::Work, || {
                    format!("segment:S{}/r{rank}", i + 1)
                });
                let baseline = baselines.get(i).and_then(Option::as_ref);
                let (p, stats) = self
                    .eval
                    .price(self.device, seg, baseline, None, scratch)
                    .map_err(PredictError::uncancelled)?;
                if let Some(stats) = stats {
                    summary.absorb(&stats);
                }
                segment_us[i] = segment_us[i].max(p.e2e_us);
            }
        }
        let topology = match topology {
            Some(t) if t.world() == job.world() => t.clone(),
            _ => Topology::for_device(self.device_spec(), job.world()),
        };
        Ok((assemble(job, segment_us, topology), summary))
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
        let topology = Topology::for_device(self.device_spec(), job.world());
        let mut notes = Vec::new();
        for (idx, spec) in job.collectives().iter().enumerate() {
            if spec.world <= 1 || spec.bytes_per_rank == 0 {
                continue;
            }
            if let Some(factor) = inj.link_degradation(0, idx) {
                let (degraded, note) = crate::comms::degraded_link(&topology, spec, idx, factor);
                p.e2e_us += degraded - p.comm_us[idx];
                p.comm_us[idx] = degraded;
                notes.push(note);
            }
        }
        Ok((p, notes))
    }
}

/// Adds the collective phases and folds the timeline — shared by the
/// walked and incremental paths so they cannot diverge. Collectives are
/// priced by the α–β model on `topology`; the pipeline bubble inflates
/// compute.
fn assemble(
    job: &DistributedDlrm,
    mut segment_us: [f64; 4],
    topology: Topology,
) -> DistributedPrediction {
    let model = CommModel::new(topology);
    let inflation = job.compute_inflation();
    for s in &mut segment_us {
        *s *= inflation;
    }
    let mut comm_us = [0.0f64; 3];
    for (c, spec) in comm_us.iter_mut().zip(&job.collectives()) {
        *c = model.collective_time(spec);
    }
    DistributedPrediction {
        e2e_us: segment_us.iter().sum::<f64>() + comm_us.iter().sum::<f64>(),
        segment_us,
        comm_us,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::MultiGpuEngine;
    use crate::plan::ShardingPlan;
    use dlperf_core::pipeline::Pipeline;
    use dlperf_core::DEFAULT_MEMO_CAPACITY;
    use dlperf_kernels::CalibrationEffort;
    use dlperf_models::DlrmConfig;

    fn setup(world: usize, batch: u64) -> (DistributedDlrm, Evaluator<'static>) {
        let cfg = DlrmConfig::default_config(batch);
        let plan = ShardingPlan::round_robin(cfg.rows_per_table.len(), world);
        let job = DistributedDlrm::new(cfg, plan).unwrap();
        // Calibrate on the rank-0 segments so the overhead DB covers the ops.
        let segs = job.segments(0).to_vec();
        let pipe = Pipeline::analyze(&DeviceSpec::v100(), &segs, CalibrationEffort::Quick, 12, 5);
        (job, Evaluator::new(vec![pipe], DEFAULT_MEMO_CAPACITY))
    }

    #[test]
    fn incremental_prediction_bitwise_matches_full() {
        let (job, eval) = setup(4, 2048);
        let pred = DistributedPredictor::new(&eval, 0);
        let uncached = Evaluator::uncached(eval.pipelines());
        let plain = DistributedPredictor::new(&uncached, 0);
        let mut scratch = WalkScratch::new();
        let baselines: Vec<_> = job
            .segments(0)
            .iter()
            .map(|seg| pred.checkpoint(seg))
            .collect();
        let cfg = DlrmConfig::default_config(2048);
        let tables = cfg.rows_per_table.len();
        let skewed =
            DistributedDlrm::new(cfg, ShardingPlan::new(vec![0; tables], 4).unwrap()).unwrap();
        for j in [&job, &skewed] {
            let (inc, summary) = pred.price(j, None, &baselines, &mut scratch).unwrap();
            let full = plain.predict(j).unwrap();
            assert_eq!(inc.e2e_us.to_bits(), full.e2e_us.to_bits());
            for (a, b) in inc.segment_us.iter().zip(&full.segment_us) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
            assert!(summary.scenarios > 0);
        }
        // The reference job's own segments reconverge and splice.
        let (_, summary) = pred.price(&job, None, &baselines, &mut scratch).unwrap();
        assert!(summary.spliced > 0, "{summary:?}");
    }

    #[test]
    fn prediction_tracks_simulated_cluster() {
        let (job, eval) = setup(4, 2048);
        let p = DistributedPredictor::new(&eval, 0).predict(&job).unwrap();
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
        let (job1, eval) = setup(1, 2048);
        let (job4, _) = setup(4, 2048);
        let pred = DistributedPredictor::new(&eval, 0);
        let p1 = pred.predict(&job1).unwrap();
        let p4 = pred.predict(&job4).unwrap();
        assert_eq!(p1.comm_us, [0.0; 3]);
        assert!(p4.comm_us.iter().sum::<f64>() > 0.0);
        // Per-rank compute shrinks with world size.
        assert!(
            p4.segment_us[1] < p1.segment_us[1],
            "S2 should shrink with DP"
        );
    }

    #[test]
    fn predictor_ranks_sharding_plans_like_the_engine() {
        let cfg = DlrmConfig::default_config(1024);
        let balanced = DistributedDlrm::new(cfg.clone(), ShardingPlan::round_robin(8, 4)).unwrap();
        let skewed = DistributedDlrm::new(
            cfg,
            ShardingPlan::new(vec![0, 0, 0, 0, 0, 1, 2, 3], 4).unwrap(),
        )
        .unwrap();
        let (_, eval) = setup(4, 1024);
        let pred = DistributedPredictor::new(&eval, 0);
        let pb = pred.predict(&balanced).unwrap().e2e_us;
        let ps = pred.predict(&skewed).unwrap().e2e_us;
        assert!(
            ps > pb,
            "skewed plan predicted faster ({ps}) than balanced ({pb})"
        );

        let mut engine = MultiGpuEngine::new(DeviceSpec::v100(), 13);
        let mb = engine.measure_e2e(&balanced, 5).unwrap();
        let ms = engine.measure_e2e(&skewed, 5).unwrap();
        assert!(ms > mb, "engine disagrees: skewed {ms} vs balanced {mb}");
    }
}
