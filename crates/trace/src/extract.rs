//! Host-overhead classification and statistics (the paper's §III-C).
//!
//! Five overhead types (Fig. 6):
//!
//! * **T1** — between two top-level op calls;
//! * **T2** — from op entry to its first kernel launch;
//! * **T3** — from its last kernel launch to op exit;
//! * **T4** — execution time of CUDA runtime functions (`cudaLaunchKernel`);
//! * **T5** — between two kernel launches (and the body of host-only ops).
//!
//! Extraction walks 100-iteration trace files, removes per-type outliers
//! outside the Tukey whiskers, subtracts the profiler overheads (4 µs for
//! GPU events, the empirical 2 µs for CPU events), and stores per-op-type
//! means in a JSON-serializable database.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crate::event_tree::EventTree;
use crate::events::{Trace, TraceLoadError};
use crate::stats::{iqr_filter, mean, std_dev};

/// Profiler overhead subtracted per CPU event (the paper's empirical 2 µs).
pub const PROFILER_CPU_EST_US: f64 = 2.0;
/// Profiler overhead subtracted per GPU event (PyTorch's documented 4 µs).
pub const PROFILER_GPU_EST_US: f64 = 4.0;

/// The five host-overhead types of Fig. 6.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum OverheadType {
    /// Between two top-level op calls.
    T1 = 0,
    /// Before an op's first kernel launch.
    T2 = 1,
    /// After an op's last kernel launch.
    T3 = 2,
    /// A CUDA runtime function call.
    T4 = 3,
    /// Between two kernel launches.
    T5 = 4,
}

impl OverheadType {
    /// All five types in order.
    pub const ALL: [OverheadType; 5] = [
        OverheadType::T1,
        OverheadType::T2,
        OverheadType::T3,
        OverheadType::T4,
        OverheadType::T5,
    ];
}

impl std::fmt::Display for OverheadType {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "T{}", *self as usize + 1)
    }
}

/// Mean/std/count of one (op type, overhead type) cell.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OverheadStat {
    /// Mean after outlier removal (µs).
    pub mean_us: f64,
    /// Standard deviation after outlier removal (µs).
    pub std_us: f64,
    /// Surviving sample count.
    pub count: usize,
}

/// The overhead database extracted from traces: per-op and per-type stats.
///
/// Backed by `BTreeMap`s (not `HashMap`s) on purpose: statistics are
/// *accumulated* in map iteration order, and floating-point sums are not
/// associative — hash-order iteration would make the extracted means vary
/// bitwise from process to process, breaking checkpoint digests and golden
/// snapshots. Ordered maps pin the summation order once and for all.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct OverheadStats {
    per_op: BTreeMap<String, BTreeMap<OverheadType, OverheadStat>>,
    per_type: BTreeMap<OverheadType, OverheadStat>,
}

impl OverheadStats {
    /// Extracts overhead statistics from one workload's iteration traces.
    ///
    /// `profiled` says whether the traces carry profiler overheads (they do
    /// when produced by a profiling [`crate::ExecutionEngine`]); if so the
    /// standard estimates are subtracted.
    pub fn extract(traces: &[Trace], profiled: bool) -> Self {
        let prof_cpu = if profiled { PROFILER_CPU_EST_US } else { 0.0 };
        let prof_gpu = if profiled { PROFILER_GPU_EST_US } else { 0.0 };

        let mut samples: BTreeMap<(String, OverheadType), Vec<f64>> = BTreeMap::new();
        let mut push = |key: &str, ty: OverheadType, v: f64| {
            samples
                .entry((key.to_string(), ty))
                .or_default()
                .push(v.max(0.0));
        };

        for trace in traces {
            let tree = EventTree::build(trace);
            let mut prev_end: f64 = 0.0;
            for op in &tree.ops {
                push(&op.op.op_key, OverheadType::T1, op.op.ts_us - prev_end);
                prev_end = op.op.end_us();

                if op.launches.is_empty() {
                    // Host-only op: its body is a T5-class overhead.
                    push(&op.op.op_key, OverheadType::T5, op.op.dur_us - prof_cpu);
                    continue;
                }
                let first = &op.launches[0].runtime;
                let last = &op.launches[op.launches.len() - 1].runtime;
                push(
                    &op.op.op_key,
                    OverheadType::T2,
                    first.ts_us - op.op.ts_us - prof_cpu,
                );
                push(
                    &op.op.op_key,
                    OverheadType::T3,
                    op.op.end_us() - last.end_us(),
                );
                for pair in op.launches.windows(2) {
                    push(
                        &op.op.op_key,
                        OverheadType::T5,
                        pair[1].runtime.ts_us - pair[0].runtime.end_us(),
                    );
                }
                for l in &op.launches {
                    push(&op.op.op_key, OverheadType::T4, l.runtime.dur_us - prof_gpu);
                }
            }
        }

        let mut per_op: BTreeMap<String, BTreeMap<OverheadType, OverheadStat>> = BTreeMap::new();
        let mut per_type_samples: BTreeMap<OverheadType, Vec<f64>> = BTreeMap::new();
        for ((key, ty), vals) in samples {
            let kept = iqr_filter(&vals);
            per_type_samples
                .entry(ty)
                .or_default()
                .extend(kept.iter().copied());
            per_op.entry(key).or_default().insert(
                ty,
                OverheadStat {
                    mean_us: mean(&kept),
                    std_us: std_dev(&kept),
                    count: kept.len(),
                },
            );
        }
        let per_type = per_type_samples
            .into_iter()
            .map(|(ty, vals)| {
                let kept = iqr_filter(&vals);
                (
                    ty,
                    OverheadStat {
                        mean_us: mean(&kept),
                        std_us: std_dev(&kept),
                        count: kept.len(),
                    },
                )
            })
            .collect();
        OverheadStats { per_op, per_type }
    }

    /// Like [`OverheadStats::extract`], but for traces that did not come
    /// out of a live engine — trace files are untrusted input, and a single
    /// non-finite timestamp would otherwise poison every downstream mean
    /// silently. Each trace is validated first and failures are typed,
    /// naming the offending trace.
    ///
    /// # Errors
    /// [`TraceLoadError::Invalid`] naming the first trace (by index and
    /// workload) whose timing content fails [`Trace::validate`].
    pub fn try_extract(traces: &[Trace], profiled: bool) -> Result<Self, TraceLoadError> {
        for (i, t) in traces.iter().enumerate() {
            t.validate().map_err(|e| {
                TraceLoadError::Invalid(format!("trace {i} (`{}`): {e}", t.workload))
            })?;
        }
        Ok(Self::extract(traces, profiled))
    }

    /// The stat of one (op type, overhead type) cell, if observed.
    pub fn get(&self, op_key: &str, ty: OverheadType) -> Option<OverheadStat> {
        self.per_op.get(op_key).and_then(|m| m.get(&ty)).copied()
    }

    /// Mean for one cell, falling back to the type-level aggregate.
    pub fn mean_us(&self, op_key: &str, ty: OverheadType) -> f64 {
        self.get(op_key, ty)
            .or_else(|| self.per_type.get(&ty).copied())
            .map(|s| s.mean_us)
            .unwrap_or(0.0)
    }

    /// Aggregate stat of one overhead type across all ops.
    pub fn type_stat(&self, ty: OverheadType) -> Option<OverheadStat> {
        self.per_type.get(&ty).copied()
    }

    /// The `n` op types with the most samples of `ty` (the "10 most
    /// dominating ops per overhead type" of Fig. 8), with their stats.
    pub fn dominating_ops(&self, ty: OverheadType, n: usize) -> Vec<(String, OverheadStat)> {
        let mut rows: Vec<(String, OverheadStat)> = self
            .per_op
            .iter()
            .filter_map(|(k, m)| m.get(&ty).map(|s| (k.clone(), *s)))
            .collect();
        rows.sort_by(|a, b| b.1.count.cmp(&a.1.count).then(a.0.cmp(&b.0)));
        rows.truncate(n);
        rows
    }

    /// Merges several workloads' statistics into one *shared* database
    /// (sample-count-weighted), the paper's `shared_E2E` configuration.
    pub fn merge(all: &[&OverheadStats]) -> OverheadStats {
        let mut out = OverheadStats::default();
        let mut acc: BTreeMap<(String, OverheadType), (f64, f64, usize)> = BTreeMap::new();
        let mut type_acc: BTreeMap<OverheadType, (f64, f64, usize)> = BTreeMap::new();
        for stats in all {
            for (key, m) in &stats.per_op {
                for (ty, s) in m {
                    let e = acc.entry((key.clone(), *ty)).or_insert((0.0, 0.0, 0));
                    e.0 += s.mean_us * s.count as f64;
                    e.1 += s.std_us * s.count as f64;
                    e.2 += s.count;
                }
            }
            for (ty, s) in &stats.per_type {
                let e = type_acc.entry(*ty).or_insert((0.0, 0.0, 0));
                e.0 += s.mean_us * s.count as f64;
                e.1 += s.std_us * s.count as f64;
                e.2 += s.count;
            }
        }
        for ((key, ty), (m, s, c)) in acc {
            if c > 0 {
                out.per_op.entry(key).or_default().insert(
                    ty,
                    OverheadStat {
                        mean_us: m / c as f64,
                        std_us: s / c as f64,
                        count: c,
                    },
                );
            }
        }
        for (ty, (m, s, c)) in type_acc {
            if c > 0 {
                out.per_type.insert(
                    ty,
                    OverheadStat {
                        mean_us: m / c as f64,
                        std_us: s / c as f64,
                        count: c,
                    },
                );
            }
        }
        out
    }

    /// Serializes the database to JSON (the paper stores overhead means in a
    /// JSON file reused across predictions).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("overhead stats serialize")
    }

    /// Deserializes the database from JSON, rejecting databases whose stats
    /// would poison predictions (overhead files are untrusted input: they
    /// travel between machines in the paper's workflow).
    ///
    /// # Errors
    /// [`TraceLoadError::Parse`] for malformed JSON; [`TraceLoadError::Invalid`]
    /// if any cell carries a non-finite or negative mean or std.
    pub fn from_json(s: &str) -> Result<Self, TraceLoadError> {
        let stats: OverheadStats = serde_json::from_str(s)?;
        let check = |where_: &str, s: &OverheadStat| -> Result<(), TraceLoadError> {
            if !s.mean_us.is_finite() || s.mean_us < 0.0 || !s.std_us.is_finite() || s.std_us < 0.0
            {
                return Err(TraceLoadError::Invalid(format!(
                    "overhead cell {where_} has invalid stats (mean {} µs, std {} µs)",
                    s.mean_us, s.std_us
                )));
            }
            Ok(())
        };
        for (key, m) in &stats.per_op {
            for (ty, s) in m {
                check(&format!("({key}, {ty})"), s)?;
            }
        }
        for (ty, s) in &stats.per_type {
            check(&format!("(*, {ty})"), s)?;
        }
        Ok(stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::ExecutionEngine;
    use dlperf_gpusim::DeviceSpec;
    use dlperf_models::DlrmConfig;

    fn stats_for(batch: u64, iters: usize, seed: u64) -> (OverheadStats, ExecutionEngine) {
        let g = DlrmConfig {
            rows_per_table: vec![10_000; 4],
            ..DlrmConfig::default_config(batch)
        }
        .build();
        let mut e = ExecutionEngine::new(DeviceSpec::v100(), seed);
        let runs = e.run_iterations(&g, iters).unwrap();
        let traces: Vec<Trace> = runs.into_iter().map(|r| r.trace).collect();
        (OverheadStats::extract(&traces, true), e)
    }

    #[test]
    fn recovered_means_match_ground_truth() {
        let (stats, engine) = stats_for(256, 40, 31);
        // T1 for addmm should be close to the profile's ground truth.
        for key in ["aten::addmm", "aten::relu"] {
            let truth = engine.overheads().mean_us(key, OverheadType::T1);
            let got = stats.mean_us(key, OverheadType::T1);
            // IQR trimming biases the mean of a log-normal down a bit.
            let rel = (got - truth) / truth;
            assert!(
                rel.abs() < 0.25,
                "{key} T1: recovered {got} vs truth {truth}"
            );
            assert!(
                got < truth * 1.02,
                "trimmed mean should not exceed truth much"
            );
        }
    }

    #[test]
    fn t4_near_launch_cost() {
        let (stats, engine) = stats_for(256, 20, 32);
        let truth = engine.overheads().base[OverheadType::T4 as usize].mean_us;
        let got = stats.type_stat(OverheadType::T4).unwrap().mean_us;
        assert!(
            (got - truth).abs() / truth < 0.2,
            "T4 recovered {got} vs base {truth}"
        );
    }

    #[test]
    fn size_independence_across_batches() {
        // The paper's argument for reusable overheads: stats at batch 128
        // and 1024 should be close.
        let (small, _) = stats_for(128, 25, 33);
        let (large, _) = stats_for(1024, 25, 34);
        for ty in OverheadType::ALL {
            let (a, b) = (
                small.type_stat(ty).unwrap().mean_us,
                large.type_stat(ty).unwrap().mean_us,
            );
            assert!(
                (a - b).abs() / a.max(b) < 0.2,
                "{ty} differs across batch sizes: {a} vs {b}"
            );
        }
    }

    #[test]
    fn merge_weights_by_count() {
        let (a, _) = stats_for(128, 10, 35);
        let (b, _) = stats_for(256, 10, 36);
        let shared = OverheadStats::merge(&[&a, &b]);
        let (sa, sb, sm) = (
            a.type_stat(OverheadType::T1).unwrap(),
            b.type_stat(OverheadType::T1).unwrap(),
            shared.type_stat(OverheadType::T1).unwrap(),
        );
        assert!(sm.mean_us >= sa.mean_us.min(sb.mean_us));
        assert!(sm.mean_us <= sa.mean_us.max(sb.mean_us));
        assert_eq!(sm.count, sa.count + sb.count);
    }

    #[test]
    fn json_roundtrip() {
        let (stats, _) = stats_for(128, 5, 37);
        let back = OverheadStats::from_json(&stats.to_json()).unwrap();
        assert_eq!(
            back.mean_us("aten::addmm", OverheadType::T2),
            stats.mean_us("aten::addmm", OverheadType::T2)
        );
    }

    #[test]
    fn corrupt_overhead_db_is_rejected_with_typed_error() {
        match OverheadStats::from_json("not a database") {
            Err(TraceLoadError::Parse(_)) => {}
            other => panic!("expected Parse error, got {other:?}"),
        }

        let mut poisoned = OverheadStats::default();
        poisoned.per_type.insert(
            OverheadType::T1,
            OverheadStat {
                mean_us: -4.0,
                std_us: 1.0,
                count: 3,
            },
        );
        match OverheadStats::from_json(&poisoned.to_json()) {
            Err(TraceLoadError::Invalid(why)) => {
                assert!(why.contains("T1"), "error should name the cell: {why}")
            }
            other => panic!("expected Invalid error, got {other:?}"),
        }
    }

    #[test]
    fn try_extract_rejects_poisoned_traces_with_typed_error() {
        let g = DlrmConfig {
            rows_per_table: vec![10_000; 4],
            ..DlrmConfig::default_config(128)
        }
        .build();
        let mut e = ExecutionEngine::new(DeviceSpec::v100(), 39);
        let runs = e.run_iterations(&g, 3).unwrap();
        let mut traces: Vec<Trace> = runs.into_iter().map(|r| r.trace).collect();

        // Clean traces extract identically through both entry points.
        let checked = OverheadStats::try_extract(&traces, true).unwrap();
        let unchecked = OverheadStats::extract(&traces, true);
        assert_eq!(
            checked.mean_us("aten::addmm", OverheadType::T1),
            unchecked.mean_us("aten::addmm", OverheadType::T1)
        );

        // One NaN timestamp in the middle trace is caught and named.
        traces[1].events[0].ts_us = f64::NAN;
        match OverheadStats::try_extract(&traces, true) {
            Err(TraceLoadError::Invalid(why)) => {
                assert!(
                    why.contains("trace 1"),
                    "error should name the trace: {why}"
                );
            }
            other => panic!("expected Invalid error, got {other:?}"),
        }
    }

    #[test]
    fn dominating_ops_are_frequent_ops() {
        let (stats, _) = stats_for(256, 10, 38);
        let top = stats.dominating_ops(OverheadType::T4, 10);
        assert!(!top.is_empty());
        assert!(top.len() <= 10);
        // Counts are descending.
        for w in top.windows(2) {
            assert!(w[0].1.count >= w[1].1.count);
        }
    }

    #[test]
    fn display_names() {
        assert_eq!(OverheadType::T1.to_string(), "T1");
        assert_eq!(OverheadType::T5.to_string(), "T5");
    }
}
