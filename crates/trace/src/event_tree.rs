//! Event-tree reconstruction from flattened trace events.
//!
//! Profiler trace files flatten the calling structure; the paper "constructs
//! an event tree to represent the calling stack of each op so that the
//! device execution time of each kernel is attributed to the corresponding
//! op". The reconstruction here uses interval containment (a runtime call
//! lies inside its op's host span) plus launch→kernel correlation ids,
//! exactly as one would on a Kineto trace.

use crate::events::{EventCat, Trace, TraceEvent};

/// A launch inside an op: the runtime call and the kernel it started.
#[derive(Debug, Clone)]
pub struct LaunchNode {
    /// The `cudaLaunchKernel`-style runtime event.
    pub runtime: TraceEvent,
    /// The device kernel, if the correlation resolved.
    pub kernel: Option<TraceEvent>,
}

/// One op with its launches, in issue order.
#[derive(Debug, Clone)]
pub struct OpNode {
    /// The host-side op event.
    pub op: TraceEvent,
    /// The op's kernel launches.
    pub launches: Vec<LaunchNode>,
}

impl OpNode {
    /// Total device time attributed to this op (sum of kernel durations).
    pub fn device_time_us(&self) -> f64 {
        self.launches
            .iter()
            .filter_map(|l| l.kernel.as_ref())
            .map(|k| k.dur_us)
            .sum()
    }
}

/// The reconstructed tree: top-level ops in execution order.
#[derive(Debug, Clone)]
pub struct EventTree {
    /// Ops in start-time order.
    pub ops: Vec<OpNode>,
}

impl EventTree {
    /// Builds the tree from a flattened trace.
    ///
    /// Runtime events are attached to the op whose host span contains them;
    /// kernels are attached to their launch through the correlation id.
    pub fn build(trace: &Trace) -> Self {
        let mut ops: Vec<OpNode> = trace
            .of_cat(EventCat::Op)
            .into_iter()
            .map(|e| OpNode {
                op: e.clone(),
                launches: Vec::new(),
            })
            .collect();

        let kernels: std::collections::HashMap<u64, &TraceEvent> = trace
            .events
            .iter()
            .filter(|e| e.cat == EventCat::Kernel)
            .map(|e| (e.correlation, e))
            .collect();

        for rt in trace.of_cat(EventCat::Runtime) {
            // Ops are sorted and non-overlapping; binary search by span.
            let idx = ops.partition_point(|o| o.op.end_us() < rt.ts_us + 1e-9);
            if idx < ops.len()
                && ops[idx].op.ts_us <= rt.ts_us + 1e-9
                && rt.end_us() <= ops[idx].op.end_us() + 1e-9
            {
                ops[idx].launches.push(LaunchNode {
                    runtime: rt.clone(),
                    kernel: kernels.get(&rt.correlation).map(|k| (*k).clone()),
                });
            }
        }
        EventTree { ops }
    }

    /// Total device time attributed across all ops.
    pub fn total_device_time_us(&self) -> f64 {
        self.ops.iter().map(OpNode::device_time_us).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::ExecutionEngine;
    use dlperf_gpusim::DeviceSpec;
    use dlperf_models::DlrmConfig;

    fn tree_for_small_dlrm() -> (EventTree, crate::engine::RunResult) {
        let g = DlrmConfig {
            rows_per_table: vec![10_000; 4],
            ..DlrmConfig::default_config(128)
        }
        .build();
        let mut e = ExecutionEngine::new(DeviceSpec::v100(), 11);
        let r = e.run(&g).unwrap();
        (EventTree::build(&r.trace), r)
    }

    #[test]
    fn every_runtime_event_attributed() {
        let (tree, run) = tree_for_small_dlrm();
        let n_runtime = run.trace.of_cat(EventCat::Runtime).len();
        let attributed: usize = tree.ops.iter().map(|o| o.launches.len()).sum();
        assert_eq!(attributed, n_runtime);
    }

    #[test]
    fn every_launch_resolves_its_kernel() {
        let (tree, _) = tree_for_small_dlrm();
        for op in &tree.ops {
            for l in &op.launches {
                assert!(l.kernel.is_some(), "unresolved launch in op {}", op.op.name);
            }
        }
    }

    #[test]
    fn device_time_matches_kernel_sum() {
        let (tree, run) = tree_for_small_dlrm();
        let kernel_sum: f64 = run
            .trace
            .of_cat(EventCat::Kernel)
            .iter()
            .map(|k| k.dur_us)
            .sum();
        assert!((tree.total_device_time_us() - kernel_sum).abs() < 1e-6);
    }

    #[test]
    fn attribution_matches_op_index_ground_truth() {
        // The tree is reconstructed from timestamps only; verify it agrees
        // with the engine's own op_index bookkeeping.
        let (tree, _) = tree_for_small_dlrm();
        for op in &tree.ops {
            for l in &op.launches {
                assert_eq!(l.runtime.op_index, op.op.op_index);
                assert_eq!(l.kernel.as_ref().unwrap().op_index, op.op.op_index);
            }
        }
    }
}
