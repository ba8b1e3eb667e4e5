//! Before/after run comparison — the reporting half of the co-design loop.
//!
//! After applying a transformation (fusion, reordering, resize) the user
//! wants to know not only the new E2E time but *where* the time moved. This
//! module diffs two runs at the op-type level, the granularity every other
//! report in this crate uses.

use std::collections::HashMap;

use crate::engine::RunResult;
use crate::event_tree::EventTree;

/// Change in one op type's contribution between two runs.
#[derive(Debug, Clone, PartialEq)]
pub struct OpDelta {
    /// Op-type key.
    pub op_key: String,
    /// Device time in the *before* run (µs).
    pub before_us: f64,
    /// Device time in the *after* run (µs).
    pub after_us: f64,
    /// Op-instance count before → after.
    pub count: (usize, usize),
}

impl OpDelta {
    /// Signed device-time change (negative = faster after).
    pub fn delta_us(&self) -> f64 {
        self.after_us - self.before_us
    }
}

/// Comparison of two runs.
#[derive(Debug, Clone)]
pub struct RunComparison {
    /// E2E time before → after (µs).
    pub e2e_us: (f64, f64),
    /// Active time before → after (µs).
    pub active_us: (f64, f64),
    /// Per-op-type deltas, sorted by |device-time change| descending.
    pub deltas: Vec<OpDelta>,
}

impl RunComparison {
    /// E2E speedup factor (>1 = after is faster).
    pub fn speedup(&self) -> f64 {
        self.e2e_us.0 / self.e2e_us.1
    }
}

fn per_op(run: &RunResult) -> HashMap<String, (f64, usize)> {
    let tree = EventTree::build(&run.trace);
    let mut map: HashMap<String, (f64, usize)> = HashMap::new();
    for op in &tree.ops {
        let e = map.entry(op.op.op_key.clone()).or_insert((0.0, 0));
        e.0 += op.device_time_us();
        e.1 += 1;
    }
    map
}

/// Diffs two runs of (usually) the same workload before and after a graph
/// transformation.
pub fn compare(before: &RunResult, after: &RunResult) -> RunComparison {
    let (b, a) = (per_op(before), per_op(after));
    let mut keys: Vec<&String> = b.keys().chain(a.keys()).collect();
    keys.sort();
    keys.dedup();
    let mut deltas: Vec<OpDelta> = keys
        .into_iter()
        .map(|k| {
            let (bt, bc) = b.get(k).copied().unwrap_or((0.0, 0));
            let (at, ac) = a.get(k).copied().unwrap_or((0.0, 0));
            OpDelta {
                op_key: k.clone(),
                before_us: bt,
                after_us: at,
                count: (bc, ac),
            }
        })
        .collect();
    deltas.sort_by(|x, y| y.delta_us().abs().total_cmp(&x.delta_us().abs()));
    RunComparison {
        e2e_us: (before.e2e_us, after.e2e_us),
        active_us: (before.active_us(), after.active_us()),
        deltas,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::ExecutionEngine;
    use dlperf_gpusim::DeviceSpec;
    use dlperf_graph::transform::fuse_embedding_bags;
    use dlperf_models::DlrmConfig;

    #[test]
    fn fusion_comparison_shows_where_time_moved() {
        let unfused = DlrmConfig {
            rows_per_table: vec![100_000; 8],
            ..DlrmConfig::default_config(512)
        }
        .with_batched_embedding(false)
        .build();
        let mut fused = unfused.clone();
        fuse_embedding_bags(&mut fused).unwrap();

        let mut engine = ExecutionEngine::new(DeviceSpec::v100(), 3);
        engine.set_profiling(false);
        let before = engine.run(&unfused).unwrap();
        let after = engine.run(&fused).unwrap();
        let cmp = compare(&before, &after);

        assert!(cmp.speedup() > 1.0, "fusion should speed things up");
        // The embedding_bag rows disappear and the batched op appears.
        let bag = cmp
            .deltas
            .iter()
            .find(|d| d.op_key == "aten::embedding_bag")
            .unwrap();
        assert_eq!(bag.count.0, 8);
        assert_eq!(bag.count.1, 0);
        let batched = cmp
            .deltas
            .iter()
            .find(|d| d.op_key == "batched_embedding")
            .unwrap();
        assert_eq!(batched.count, (0, 1));
    }

    #[test]
    fn self_comparison_is_near_identity() {
        let g = DlrmConfig::ddp_config(256).build();
        let mut engine = ExecutionEngine::new(DeviceSpec::v100(), 5);
        engine.set_profiling(false);
        let a = engine.run(&g).unwrap();
        let b = engine.run(&g).unwrap();
        let cmp = compare(&a, &b);
        assert!((cmp.speedup() - 1.0).abs() < 0.1);
        for d in &cmp.deltas {
            assert_eq!(
                d.count.0, d.count.1,
                "op counts must match for the same graph"
            );
        }
    }
}
