//! Per-batch device-time breakdown (Fig. 5) and GPU utilization (Fig. 1).

use std::collections::HashMap;

use crate::engine::RunResult;
use crate::event_tree::EventTree;

/// Device time attributed to one op type.
#[derive(Debug, Clone, PartialEq)]
pub struct OpShare {
    /// Op-type key (e.g. `aten::addmm`).
    pub op_key: String,
    /// Summed kernel time (µs).
    pub device_us: f64,
    /// Share of the E2E span.
    pub share: f64,
}

/// The device-time breakdown of one training iteration.
#[derive(Debug, Clone)]
pub struct DeviceBreakdown {
    /// Workload name.
    pub workload: String,
    /// E2E span (µs).
    pub total_us: f64,
    /// Device active time (union of kernel intervals, µs).
    pub active_us: f64,
    /// Device idle time (µs).
    pub idle_us: f64,
    /// Per-op device time, descending.
    pub per_op: Vec<OpShare>,
}

impl DeviceBreakdown {
    /// Computes the breakdown from a run.
    pub fn from_run(run: &RunResult) -> Self {
        let tree = EventTree::build(&run.trace);
        let mut per_op: HashMap<String, f64> = HashMap::new();
        for op in &tree.ops {
            *per_op.entry(op.op.op_key.clone()).or_insert(0.0) += op.device_time_us();
        }
        let total = run.e2e_us;
        let mut per_op: Vec<OpShare> = per_op
            .into_iter()
            .filter(|(_, t)| *t > 0.0)
            .map(|(op_key, device_us)| OpShare {
                op_key,
                device_us,
                share: device_us / total,
            })
            .collect();
        per_op.sort_by(|a, b| b.device_us.total_cmp(&a.device_us));
        let active = run.active_us();
        DeviceBreakdown {
            workload: run.trace.workload.clone(),
            total_us: total,
            active_us: active,
            idle_us: (total - active).max(0.0),
            per_op,
        }
    }

    /// GPU utilization (active / total).
    pub fn utilization(&self) -> f64 {
        if self.total_us == 0.0 {
            0.0
        } else {
            self.active_us / self.total_us
        }
    }

    /// The `n` op types with the largest device time.
    pub fn top_ops(&self, n: usize) -> &[OpShare] {
        &self.per_op[..n.min(self.per_op.len())]
    }

    /// Renders the breakdown as the rows of a Fig. 5-style stacked bar:
    /// `(label, share)` pairs including the idle share, summing to ≤ 1.
    pub fn stacked_rows(&self, top_n: usize) -> Vec<(String, f64)> {
        let mut rows: Vec<(String, f64)> = self
            .top_ops(top_n)
            .iter()
            .map(|s| (s.op_key.clone(), s.share))
            .collect();
        let listed: f64 = rows.iter().map(|(_, s)| s).sum();
        let other = (self.active_us / self.total_us - listed).max(0.0);
        rows.push(("other kernels".to_string(), other));
        rows.push(("idle".to_string(), self.idle_us / self.total_us));
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::ExecutionEngine;
    use dlperf_gpusim::DeviceSpec;
    use dlperf_models::DlrmConfig;

    fn breakdown(batch: u64) -> DeviceBreakdown {
        let g = DlrmConfig::default_config(batch).build();
        let mut e = ExecutionEngine::new(DeviceSpec::v100(), 21);
        DeviceBreakdown::from_run(&e.run(&g).unwrap())
    }

    #[test]
    fn active_plus_idle_is_total() {
        let b = breakdown(1024);
        assert!((b.active_us + b.idle_us - b.total_us).abs() < 1e-6);
    }

    #[test]
    fn idle_time_is_nonnegligible_for_dlrm() {
        // The paper's core observation (Fig. 5): device idle time is a
        // substantial share of DLRM's per-batch time.
        let b = breakdown(2048);
        assert!(
            b.idle_us / b.total_us > 0.1,
            "DLRM idle share too small: {}",
            b.idle_us / b.total_us
        );
    }

    #[test]
    fn dominating_ops_match_paper() {
        // addmm / embedding / their backwards must be among the top ops.
        let b = breakdown(2048);
        let top: Vec<&str> = b.top_ops(8).iter().map(|s| s.op_key.as_str()).collect();
        assert!(top.iter().any(|k| k.contains("addmm")), "top ops: {top:?}");
        assert!(
            top.iter().any(|k| k.contains("embedding")),
            "top ops: {top:?}"
        );
    }

    #[test]
    fn stacked_rows_sum_to_one() {
        let b = breakdown(512);
        let total: f64 = b.stacked_rows(10).iter().map(|(_, s)| s).sum();
        assert!((total - 1.0).abs() < 0.02, "stacked shares sum to {total}");
    }

    #[test]
    fn utilization_rises_with_batch_size() {
        // Bigger batches mean longer kernels under the same overheads, so
        // utilization must rise (the Fig. 9 trend).
        let small = breakdown(128).utilization();
        let large = breakdown(4096).utilization();
        assert!(
            large > small,
            "utilization small-batch {small} vs large-batch {large}"
        );
    }
}
