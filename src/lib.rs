//! # dlrm-perf-model
//!
//! A Rust reproduction of *"Building a Performance Model for Deep Learning
//! Recommendation Model Training on GPUs"* (Lin et al., ISPASS 2022): an
//! end-to-end, critical-path-based performance model that predicts the
//! per-batch GPU training time of DLRM — a workload whose low GPU
//! utilization defeats the usual "sum the kernel times" approach — as well
//! as CV and NLP models.
//!
//! The original system measures real GPUs through PyTorch and Kineto; this
//! reproduction substitutes an analytic GPU timing simulator and a
//! discrete-event execution engine as the measurement substrate (see
//! `DESIGN.md` for the substitution argument) and rebuilds everything above
//! it from scratch:
//!
//! | Crate | Role |
//! |---|---|
//! | [`gpusim`] | simulated GPUs (V100 / TITAN Xp / P100): GEMM tile/wave quantization, L2 reuse for embedding lookups, bandwidth ramps, noise |
//! | [`graph`] | execution-graph IR with data dependencies, op→kernel lowering, and the resize/fuse/replace/parallelize transformations |
//! | [`models`] | DLRM (the three Table III configs), ResNet-50, Inception-V3, Transformer graph builders |
//! | [`trace`] | eager-execution engine, Kineto-like traces, event trees, device-time breakdowns, T1–T5 overhead extraction |
//! | [`nn`] | from-scratch MLP training (the Table II grid search) |
//! | [`kernels`] | kernel performance models: heuristic embedding + roofline, ML-based GEMM/transpose/tril/conv |
//! | [`core`] | Algorithm 1 E2E predictor, the Fig. 3 pipeline, baselines, co-design tools |
//! | [`distrib`] | multi-GPU hybrid-parallel DLRM: collectives, lockstep cluster engine, distributed predictor |
//! | [`faults`] | deterministic fault injection (stragglers, thermal throttling, flaky collectives, worker kill/panic/hang) and the graceful-degradation contracts |
//! | [`runtime`] | supervised runtime: checkpoint/resume jobs, deadlines, panic-isolated workers with restart budgets |
//! | [`serve`] | prediction-as-a-service: admission control, deadlines, load shedding, circuit breaking, bounded caches, the configuration recommender |
//!
//! ## Quickstart
//!
//! ```no_run
//! use dlrm_perf_model::core::pipeline::Pipeline;
//! use dlrm_perf_model::gpusim::DeviceSpec;
//! use dlrm_perf_model::kernels::CalibrationEffort;
//! use dlrm_perf_model::models::DlrmConfig;
//!
//! // Analysis track: profile workloads once, calibrate kernel models.
//! let workloads: Vec<_> = DlrmConfig::paper_configs(2048).iter().map(|c| c.build()).collect();
//! let pipeline = Pipeline::analyze(&DeviceSpec::v100(), &workloads, CalibrationEffort::Quick, 50, 42);
//!
//! // Prediction track: price any graph in milliseconds of compute.
//! let pred = pipeline.predict(&workloads[0]).unwrap();
//! println!("DLRM_default @2048: {:.2} ms/batch, {:.0}% GPU utilization",
//!          pred.e2e_us / 1e3, pred.utilization() * 100.0);
//! ```

pub use dlperf_core as core;
pub use dlperf_distrib as distrib;
pub use dlperf_faults as faults;
pub use dlperf_gpusim as gpusim;
pub use dlperf_graph as graph;
pub use dlperf_kernels as kernels;
pub use dlperf_models as models;
pub use dlperf_nn as nn;
pub use dlperf_obs as obs;
pub use dlperf_runtime as runtime;
pub use dlperf_serve as serve;
pub use dlperf_trace as trace;
