//! The discrete-event training execution engine.
//!
//! Simulates PyTorch eager-mode execution of an execution graph: a single
//! CPU dispatch thread walks the ops in order, paying host overheads
//! (sampled from [`crate::OverheadProfile`]) and asynchronously enqueuing
//! kernels onto GPU streams. A kernel starts when three conditions are all
//! met — its stream is free, its launch has (half-)landed, and its data
//! dependencies are complete — which is precisely how unhidden host
//! overheads turn into device idle time, the effect the paper's E2E model
//! exists to capture (Fig. 4).

use std::collections::HashMap;

use rand::rngs::StdRng;
use rand::SeedableRng;

use dlperf_gpusim::{DeviceSpec, Gpu, SlowdownProfile};
use dlperf_graph::lower::{self, LowerError};
use dlperf_graph::{Graph, TensorId};

use crate::events::{EventCat, Trace, TraceEvent};
use crate::extract::OverheadType;
use crate::overheads::OverheadProfile;

/// Actual profiler overhead injected per host op event when profiling (µs).
/// The analysis subtracts the paper's empirical 2 µs estimate, leaving a
/// small realistic residual.
pub const PROFILER_CPU_ACTUAL_US: f64 = 2.2;
/// Actual profiler overhead injected per GPU (runtime) event (µs); the
/// analysis subtracts PyTorch's documented 4 µs.
pub const PROFILER_GPU_ACTUAL_US: f64 = 4.3;

/// Errors raised by the execution engine.
///
/// Wrapping [`LowerError`] in an engine-level type gives callers one typed
/// failure channel per workload: a malformed graph (or a fault scenario
/// that drives a time non-finite) is reported instead of aborting the
/// process, so multi-workload analyses can skip the offender and continue.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum EngineError {
    /// The graph failed to lower to kernels (inconsistent tensor shapes).
    Lower(LowerError),
    /// A simulated time became non-finite or negative — a corrupt kernel
    /// spec or a degenerate fault configuration.
    NonFiniteTime {
        /// Name of the op whose kernel produced the bad time.
        op: String,
        /// The offending value.
        value: f64,
    },
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::Lower(e) => write!(f, "{e}"),
            EngineError::NonFiniteTime { op, value } => {
                write!(f, "op `{op}` produced a non-finite kernel time ({value})")
            }
        }
    }
}

impl std::error::Error for EngineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EngineError::Lower(e) => Some(e),
            EngineError::NonFiniteTime { .. } => None,
        }
    }
}

impl From<LowerError> for EngineError {
    fn from(e: LowerError) -> Self {
        EngineError::Lower(e)
    }
}

/// Result of executing one training iteration.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// The recorded trace.
    pub trace: Trace,
    /// End-to-end per-batch time: `max(cpu_us, last kernel end)`.
    pub e2e_us: f64,
    /// CPU dispatch-thread finish time.
    pub cpu_us: f64,
    /// Last kernel completion time across all streams.
    pub gpu_last_us: f64,
}

impl RunResult {
    /// Device active time: the union of all kernel intervals across streams.
    pub fn active_us(&self) -> f64 {
        let mut intervals: Vec<(f64, f64)> = self
            .trace
            .events
            .iter()
            .filter(|e| e.cat == EventCat::Kernel)
            .map(|e| (e.ts_us, e.end_us()))
            .collect();
        intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut active = 0.0;
        let mut cur: Option<(f64, f64)> = None;
        for (s, e) in intervals {
            match cur {
                None => cur = Some((s, e)),
                Some((cs, ce)) => {
                    if s <= ce {
                        cur = Some((cs, ce.max(e)));
                    } else {
                        active += ce - cs;
                        cur = Some((s, e));
                    }
                }
            }
        }
        if let Some((cs, ce)) = cur {
            active += ce - cs;
        }
        active
    }

    /// GPU utilization: active time over E2E time (the paper's temporal
    /// definition, Fig. 1).
    pub fn utilization(&self) -> f64 {
        if self.e2e_us == 0.0 {
            0.0
        } else {
            self.active_us() / self.e2e_us
        }
    }
}

/// The execution engine: a simulated GPU plus a host-overhead profile.
#[derive(Debug)]
pub struct ExecutionEngine {
    gpu: Gpu,
    overheads: OverheadProfile,
    rng: StdRng,
    profiling: bool,
    /// Extra uniform host-side delay amplitude per overhead sample (µs);
    /// models a noisy neighbour stealing CPU from the dispatch thread.
    host_jitter_us: f64,
}

impl ExecutionEngine {
    /// Creates an engine for `device` with the typical server host profile
    /// and profiling enabled (traces carry profiler overheads, as the
    /// paper's measured traces do). The TITAN Xp platform gets the slower
    /// workstation host, mirroring the paper's distinct test machines.
    pub fn new(device: DeviceSpec, seed: u64) -> Self {
        let overheads = if device.name.contains("TITAN") {
            OverheadProfile::slow_workstation()
        } else {
            OverheadProfile::typical_server()
        };
        Self::with_overheads(device, overheads, seed)
    }

    /// Creates an engine with an explicit overhead profile.
    pub fn with_overheads(device: DeviceSpec, overheads: OverheadProfile, seed: u64) -> Self {
        ExecutionEngine {
            gpu: Gpu::with_seed(device, seed ^ 0x9e3779b97f4a7c15),
            overheads,
            rng: StdRng::seed_from_u64(seed),
            profiling: true,
            host_jitter_us: 0.0,
        }
    }

    /// Enables or disables profiler-overhead injection.
    pub fn set_profiling(&mut self, profiling: bool) {
        self.profiling = profiling;
    }

    /// Installs a fault-induced slowdown profile on the simulated GPU.
    /// Kernels are priced at their scheduled start time, so the profile's
    /// thermal windows line up with the engine's simulated clock.
    pub fn set_slowdown(&mut self, slowdown: SlowdownProfile) {
        self.gpu.set_slowdown(slowdown);
    }

    /// Adds uniform host-side jitter (0..`amplitude_us`, µs) to every
    /// sampled overhead — fault injection for the dispatch thread.
    pub fn set_host_jitter(&mut self, amplitude_us: f64) {
        assert!(
            amplitude_us >= 0.0 && amplitude_us.is_finite(),
            "jitter amplitude must be non-negative and finite"
        );
        self.host_jitter_us = amplitude_us;
    }

    /// The overhead profile in use.
    pub fn overheads(&self) -> &OverheadProfile {
        &self.overheads
    }

    /// The simulated device.
    pub fn device(&self) -> &DeviceSpec {
        self.gpu.spec()
    }

    fn sample(&mut self, op_key: &str, ty: OverheadType) -> f64 {
        let base = self.overheads.sample(op_key, ty, &mut self.rng);
        if self.host_jitter_us > 0.0 {
            use rand::Rng;
            base + self.rng.gen_range(0.0..self.host_jitter_us)
        } else {
            base
        }
    }

    /// Executes one training iteration of `graph`, producing its trace.
    ///
    /// # Errors
    /// Returns [`EngineError::Lower`] if an op's tensor shapes are
    /// inconsistent with its kind, [`EngineError::NonFiniteTime`] if a
    /// kernel's simulated duration degenerates.
    pub fn run(&mut self, graph: &Graph) -> Result<RunResult, EngineError> {
        let prof_cpu = if self.profiling {
            PROFILER_CPU_ACTUAL_US
        } else {
            0.0
        };
        let prof_gpu = if self.profiling {
            PROFILER_GPU_ACTUAL_US
        } else {
            0.0
        };

        let mut events: Vec<TraceEvent> = Vec::new();
        let mut tensor_ready: HashMap<TensorId, f64> = HashMap::new();
        let mut stream_free: HashMap<usize, f64> = HashMap::new();
        let mut cpu = 0.0f64;
        let mut correlation = 0u64;
        let mut kernels = Vec::new();

        for node in graph.nodes() {
            let key = node.op.overhead_key();
            cpu += self.sample(key, OverheadType::T1);
            let op_start = cpu;

            kernels.clear();
            lower::try_kernels_into(graph, node, &mut kernels)?;
            let dep_ready = node
                .inputs
                .iter()
                .filter_map(|t| tensor_ready.get(t))
                .fold(0.0f64, |a, &b| a.max(b));

            let mut last_kernel_end: Option<f64> = None;
            if kernels.is_empty() {
                // Algorithm 1, else-branch: host-only ops still pay T5.
                cpu += self.sample(key, OverheadType::T5) + prof_cpu;
            } else {
                cpu += self.sample(key, OverheadType::T2) + prof_cpu;
                let n = kernels.len();
                for (i, k) in kernels.iter().enumerate() {
                    let t4 = self.sample(key, OverheadType::T4) + prof_gpu;
                    let launch_ts = cpu;
                    let free = stream_free.entry(node.stream).or_insert(0.0);
                    let start = (*free).max(launch_ts + t4 / 2.0).max(dep_ready);
                    // Priced at the scheduled start so time-windowed fault
                    // slowdowns (thermal throttling) apply correctly.
                    let dur = self.gpu.kernel_time_at(k, start);
                    if !dur.is_finite() || dur < 0.0 {
                        return Err(EngineError::NonFiniteTime {
                            op: node.name.clone(),
                            value: dur,
                        });
                    }
                    *free = start + dur;
                    last_kernel_end = Some(start + dur);
                    correlation += 1;
                    events.push(TraceEvent {
                        name: "cudaLaunchKernel".into(),
                        cat: EventCat::Runtime,
                        ts_us: launch_ts,
                        dur_us: t4,
                        stream: node.stream,
                        op_index: node.id.0,
                        correlation,
                        op_key: key.to_string(),
                    });
                    events.push(TraceEvent {
                        name: format!("{}_kernel", k.family()),
                        cat: EventCat::Kernel,
                        ts_us: start,
                        dur_us: dur,
                        stream: node.stream,
                        op_index: node.id.0,
                        correlation,
                        op_key: String::new(),
                    });
                    cpu += t4;
                    if i + 1 < n {
                        cpu += self.sample(key, OverheadType::T5);
                    }
                }
                cpu += self.sample(key, OverheadType::T3);
            }

            events.push(TraceEvent {
                name: node.name.clone(),
                cat: EventCat::Op,
                ts_us: op_start,
                dur_us: cpu - op_start,
                stream: node.stream,
                op_index: node.id.0,
                correlation: 0,
                op_key: key.to_string(),
            });

            let ready = last_kernel_end.unwrap_or(cpu);
            for &out in &node.outputs {
                tensor_ready.insert(out, ready);
            }
        }

        let gpu_last = stream_free.values().fold(0.0f64, |a, &b| a.max(b));
        let e2e = cpu.max(gpu_last);
        Ok(RunResult {
            trace: Trace {
                workload: graph.name.clone(),
                device: self.gpu.spec().name.clone(),
                events,
                span_us: e2e,
            },
            e2e_us: e2e,
            cpu_us: cpu,
            gpu_last_us: gpu_last,
        })
    }

    /// Executes `iters` iterations (fresh noise each), returning all runs.
    ///
    /// # Errors
    /// Propagates [`EngineError`]s from [`ExecutionEngine::run`].
    pub fn run_iterations(
        &mut self,
        graph: &Graph,
        iters: usize,
    ) -> Result<Vec<RunResult>, EngineError> {
        (0..iters).map(|_| self.run(graph)).collect()
    }

    /// Mean measured E2E per-batch time over `iters` iterations (µs) — the
    /// "actual measured time" the paper compares predictions against.
    ///
    /// # Errors
    /// Propagates [`EngineError`]s.
    pub fn measure_e2e(&mut self, graph: &Graph, iters: usize) -> Result<f64, EngineError> {
        assert!(iters > 0, "need at least one iteration");
        let runs = self.run_iterations(graph, iters)?;
        Ok(runs.iter().map(|r| r.e2e_us).sum::<f64>() / runs.len() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlperf_graph::{OpKind, TensorMeta};
    use dlperf_models::DlrmConfig;

    fn small_dlrm() -> Graph {
        DlrmConfig {
            rows_per_table: vec![10_000; 4],
            ..DlrmConfig::default_config(256)
        }
        .build()
    }

    #[test]
    fn run_produces_consistent_times() {
        let g = small_dlrm();
        let mut e = ExecutionEngine::new(DeviceSpec::v100(), 1);
        let r = e.run(&g).unwrap();
        assert!(r.e2e_us > 0.0);
        assert!(r.e2e_us >= r.cpu_us);
        assert!(r.e2e_us >= r.gpu_last_us);
        assert!(r.active_us() <= r.gpu_last_us);
        assert!(r.utilization() > 0.0 && r.utilization() <= 1.0);
    }

    #[test]
    fn kernels_never_overlap_on_one_stream() {
        let g = small_dlrm();
        let mut e = ExecutionEngine::new(DeviceSpec::p100(), 2);
        let r = e.run(&g).unwrap();
        let ks = r.trace.of_cat(EventCat::Kernel);
        for w in ks.windows(2) {
            if w[0].stream == w[1].stream {
                assert!(
                    w[1].ts_us >= w[0].end_us() - 1e-9,
                    "kernel overlap: {:?} then {:?}",
                    w[0],
                    w[1]
                );
            }
        }
    }

    #[test]
    fn kernel_starts_respect_launch_time() {
        let g = small_dlrm();
        let mut e = ExecutionEngine::new(DeviceSpec::v100(), 3);
        let r = e.run(&g).unwrap();
        let mut by_corr: HashMap<u64, (Option<f64>, Option<f64>)> = HashMap::new();
        for ev in &r.trace.events {
            match ev.cat {
                EventCat::Runtime => by_corr.entry(ev.correlation).or_default().0 = Some(ev.ts_us),
                EventCat::Kernel => by_corr.entry(ev.correlation).or_default().1 = Some(ev.ts_us),
                EventCat::Op => {}
            }
        }
        for (corr, (launch, kernel)) in by_corr {
            let (l, k) = (launch.unwrap(), kernel.unwrap());
            assert!(
                k >= l,
                "kernel {corr} started at {k} before its launch at {l}"
            );
        }
    }

    #[test]
    fn iterations_vary_with_noise() {
        let g = small_dlrm();
        let mut e = ExecutionEngine::new(DeviceSpec::v100(), 4);
        let runs = e.run_iterations(&g, 5).unwrap();
        let times: Vec<f64> = runs.iter().map(|r| r.e2e_us).collect();
        assert!(
            times.windows(2).any(|w| w[0] != w[1]),
            "iterations identical: {times:?}"
        );
        // ... but within a plausible band.
        let m = crate::stats::mean(&times);
        assert!(times.iter().all(|t| (t - m).abs() / m < 0.2));
    }

    #[test]
    fn slowdown_profile_stretches_e2e() {
        let g = small_dlrm();
        let healthy = ExecutionEngine::new(DeviceSpec::v100(), 8).run(&g).unwrap();
        let mut e = ExecutionEngine::new(DeviceSpec::v100(), 8);
        e.set_slowdown(SlowdownProfile::uniform(3.0));
        let slow = e.run(&g).unwrap();
        // DLRM is host-bound, so e2e barely moves — but device *active*
        // time must stretch by roughly the slowdown factor.
        assert!(
            slow.active_us() > 2.0 * healthy.active_us(),
            "slowdown had no effect: {} vs {}",
            slow.active_us(),
            healthy.active_us()
        );
        assert!(
            slow.e2e_us >= healthy.e2e_us * 0.99,
            "slowdown should never speed things up"
        );
    }

    #[test]
    fn host_jitter_inflates_cpu_time() {
        let g = small_dlrm();
        let base = ExecutionEngine::new(DeviceSpec::v100(), 9).run(&g).unwrap();
        let mut e = ExecutionEngine::new(DeviceSpec::v100(), 9);
        e.set_host_jitter(25.0);
        let jittered = e.run(&g).unwrap();
        assert!(
            jittered.cpu_us > base.cpu_us,
            "jitter had no effect: {} vs {}",
            jittered.cpu_us,
            base.cpu_us
        );
    }

    #[test]
    fn cpu_bound_chain_has_idle_gpu() {
        // Many tiny ops: CPU overheads dominate => utilization well below 1.
        let mut g = Graph::new("tiny-chain");
        let mut x = g.add_tensor(TensorMeta::activation(&[64]));
        for _ in 0..40 {
            let y = g.add_tensor(TensorMeta::activation(&[64]));
            g.add_op(OpKind::Relu, vec![x], vec![y]);
            x = y;
        }
        let mut e = ExecutionEngine::new(DeviceSpec::v100(), 5);
        let r = e.run(&g).unwrap();
        assert!(
            r.utilization() < 0.5,
            "tiny ops should leave the GPU idle, got {}",
            r.utilization()
        );
        assert!(r.cpu_us > r.gpu_last_us, "chain should be CPU-bound");
    }

    #[test]
    fn multi_stream_overlaps_independent_branches() {
        use dlperf_graph::transform::{independent_groups, parallelize};
        // Two independent heavy GEMM chains; with stream assignment the E2E
        // time should drop below the serial version.
        let mut g = Graph::new("branches");
        let mk_chain = |g: &mut Graph| {
            let x = g.add_tensor(TensorMeta::activation(&[2048, 2048]));
            let w = g.add_tensor(TensorMeta::weight(&[2048, 2048]));
            let b = g.add_tensor(TensorMeta::weight(&[2048]));
            let mut h = x;
            let mut ids = Vec::new();
            for _ in 0..4 {
                let y = g.add_tensor(TensorMeta::activation(&[2048, 2048]));
                ids.push(g.add_op(OpKind::AddMm, vec![h, w, b], vec![y]));
                h = y;
            }
            ids
        };
        let c1 = mk_chain(&mut g);
        let c2 = mk_chain(&mut g);
        let serial = ExecutionEngine::new(DeviceSpec::v100(), 6).run(&g).unwrap();

        let all: Vec<_> = c1.iter().chain(c2.iter()).copied().collect();
        let groups = independent_groups(&g, &all);
        assert_eq!(groups.len(), 2);
        parallelize(&mut g, &groups).unwrap();
        let parallel = ExecutionEngine::new(DeviceSpec::v100(), 6).run(&g).unwrap();
        assert!(
            parallel.e2e_us < serial.e2e_us * 0.95,
            "parallel {} vs serial {}",
            parallel.e2e_us,
            serial.e2e_us
        );
    }

    #[test]
    fn dlrm_utilization_below_cnn_like() {
        // The Fig. 1 contrast: DLRM's utilization is substantially below a
        // compute-heavy GEMM chain's.
        let dlrm = DlrmConfig::default_config(512).build();
        let mut e = ExecutionEngine::new(DeviceSpec::v100(), 7);
        let u_dlrm = e.run(&dlrm).unwrap().utilization();

        let mut g = Graph::new("gemm-heavy");
        let mut x = g.add_tensor(TensorMeta::activation(&[4096, 4096]));
        let w = g.add_tensor(TensorMeta::weight(&[4096, 4096]));
        let b = g.add_tensor(TensorMeta::weight(&[4096]));
        for _ in 0..10 {
            let y = g.add_tensor(TensorMeta::activation(&[4096, 4096]));
            g.add_op(OpKind::AddMm, vec![x, w, b], vec![y]);
            x = y;
        }
        let u_gemm = ExecutionEngine::new(DeviceSpec::v100(), 7)
            .run(&g)
            .unwrap()
            .utilization();
        assert!(u_gemm > 0.9, "GEMM chain utilization {u_gemm}");
        assert!(u_dlrm < u_gemm, "DLRM {u_dlrm} vs GEMM {u_gemm}");
    }
}
