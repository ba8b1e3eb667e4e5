//! Device idle-gap attribution — the "identify bottlenecks" use case of the
//! paper's introduction.
//!
//! The breakdown (Fig. 5) says *how much* idle time exists; this module
//! says *where it comes from*: every gap between consecutive kernels is
//! attributed to the op whose kernel ended the gap — the op whose host-side
//! overheads kept the device waiting. Ranking ops by caused idle time gives
//! the fusion/optimization worklist that §V-A's op-fusion example starts
//! from.

use std::collections::HashMap;

use crate::engine::RunResult;
use crate::events::EventCat;

/// One device idle gap.
#[derive(Debug, Clone, PartialEq)]
pub struct IdleGap {
    /// Gap start (µs).
    pub start_us: f64,
    /// Gap length (µs).
    pub len_us: f64,
    /// Op-type key of the kernel that ended the gap (the op the device was
    /// waiting for).
    pub blamed_op: String,
}

/// Idle-time attribution for one run.
#[derive(Debug, Clone)]
pub struct IdleReport {
    /// All gaps, in time order (gaps below the threshold are dropped).
    pub gaps: Vec<IdleGap>,
    /// Total idle time attributed (µs).
    pub total_idle_us: f64,
    /// Idle time per blamed op type, descending.
    pub per_op: Vec<(String, f64)>,
}

/// Attributes every device idle gap longer than `min_gap_us` in `run`.
///
/// Gaps are measured on the union timeline of all streams; the leading gap
/// before the first kernel is attributed to the first op.
pub fn attribute_idle(run: &RunResult, min_gap_us: f64) -> IdleReport {
    // Map kernels back to their op keys via op_index -> op events.
    let op_key_of: HashMap<usize, &str> = run
        .trace
        .events
        .iter()
        .filter(|e| e.cat == EventCat::Op)
        .map(|e| (e.op_index, e.op_key.as_str()))
        .collect();

    let mut kernels: Vec<(f64, f64, usize)> = run
        .trace
        .events
        .iter()
        .filter(|e| e.cat == EventCat::Kernel)
        .map(|e| (e.ts_us, e.end_us(), e.op_index))
        .collect();
    kernels.sort_by(|a, b| a.0.total_cmp(&b.0));

    let mut gaps = Vec::new();
    let mut horizon = 0.0f64;
    for (start, end, op_index) in kernels {
        let gap = start - horizon;
        if gap >= min_gap_us {
            gaps.push(IdleGap {
                start_us: horizon,
                len_us: gap,
                blamed_op: op_key_of
                    .get(&op_index)
                    .copied()
                    .unwrap_or("<unknown>")
                    .to_string(),
            });
        }
        horizon = horizon.max(end);
    }

    let mut per_op: HashMap<String, f64> = HashMap::new();
    for g in &gaps {
        *per_op.entry(g.blamed_op.clone()).or_insert(0.0) += g.len_us;
    }
    let mut per_op: Vec<(String, f64)> = per_op.into_iter().collect();
    per_op.sort_by(|a, b| b.1.total_cmp(&a.1));
    IdleReport {
        total_idle_us: gaps.iter().map(|g| g.len_us).sum(),
        gaps,
        per_op,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::ExecutionEngine;
    use dlperf_gpusim::DeviceSpec;
    use dlperf_models::DlrmConfig;

    fn run(batch: u64) -> RunResult {
        let g = DlrmConfig::default_config(batch).build();
        let mut e = ExecutionEngine::new(DeviceSpec::v100(), 17);
        e.set_profiling(false);
        e.run(&g).unwrap()
    }

    #[test]
    fn attributed_idle_close_to_breakdown_idle() {
        let r = run(512);
        let report = attribute_idle(&r, 0.0);
        // Union-of-kernels idle inside the active span; compare against the
        // breakdown's idle (measured to e2e, so allow the trailing part).
        let breakdown_idle = r.e2e_us - r.active_us();
        assert!(report.total_idle_us <= breakdown_idle + 1e-6);
        assert!(
            report.total_idle_us > 0.5 * breakdown_idle - 5.0,
            "attributed {} vs breakdown idle {}",
            report.total_idle_us,
            breakdown_idle
        );
    }

    #[test]
    fn low_utilization_runs_blame_cheap_frequent_ops() {
        let r = run(256);
        let report = attribute_idle(&r, 0.5);
        assert!(!report.per_op.is_empty());
        // Ranking is descending.
        for w in report.per_op.windows(2) {
            assert!(w[0].1 >= w[1].1);
        }
    }

    #[test]
    fn threshold_filters_small_gaps() {
        let r = run(256);
        let all = attribute_idle(&r, 0.0).gaps.len();
        let big = attribute_idle(&r, 5.0).gaps.len();
        assert!(big <= all);
    }

    #[test]
    fn gaps_are_time_ordered_and_positive() {
        let r = run(512);
        let report = attribute_idle(&r, 0.1);
        for w in report.gaps.windows(2) {
            assert!(w[0].start_us <= w[1].start_us);
        }
        assert!(report.gaps.iter().all(|g| g.len_us >= 0.1));
    }
}
