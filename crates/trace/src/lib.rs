//! # dlperf-trace
//!
//! The measurement substrate of the reproduction: a discrete-event engine
//! that "runs" an execution graph the way PyTorch eager mode runs a training
//! iteration on a GPU, and the trace-analysis machinery of the paper's
//! *Analysis Track* (Fig. 3).
//!
//! * [`engine`] — simulates a CPU dispatch thread enqueuing kernels onto one
//!   or more GPU streams. Host-side overheads (the five types of Fig. 6) are
//!   sampled from long-tailed per-op distributions; kernel durations come
//!   from the `dlperf-gpusim` simulator. Produces Kineto-like traces.
//! * [`events`] — the trace container (flattened events with timestamps).
//! * [`event_tree`] — rebuilds the op → runtime → kernel calling structure
//!   from the flattened events (the paper's event-tree construction).
//! * [`breakdown`] — per-batch device-time breakdown: active vs idle time,
//!   per-op device time attribution (Fig. 5), GPU utilization (Fig. 1).
//! * [`extract`] — classifies host overheads into T1–T5 per op type,
//!   removes IQR outliers, and produces the overhead statistics database
//!   (Figs. 7–8) consumed by the E2E predictor.
//! * [`overheads`] — the ground-truth overhead distributions of the
//!   simulated platform.
//! * [`selftrace`] — a `dlperf-obs` sink that renders the predictor's own
//!   recorded spans in this crate's trace dialect, so the whole analysis
//!   stack above can profile the model itself.
//!
//! ## Example
//!
//! ```
//! use dlperf_gpusim::DeviceSpec;
//! use dlperf_models::DlrmConfig;
//! use dlperf_trace::engine::ExecutionEngine;
//!
//! let graph = DlrmConfig::default_config(256).build();
//! let mut engine = ExecutionEngine::new(DeviceSpec::v100(), 0);
//! let run = engine.run(&graph).unwrap();
//! assert!(run.e2e_us > 0.0);
//! assert!(run.active_us() <= run.e2e_us);
//! ```

pub mod breakdown;
pub mod compare;
pub mod engine;
pub mod event_tree;
pub mod events;
pub mod extract;
pub mod gaps;
pub mod ingest;
pub mod overheads;
pub mod screen;
pub mod selftrace;
pub mod stats;

pub use breakdown::DeviceBreakdown;
pub use engine::{EngineError, ExecutionEngine, RunResult};
pub use events::{EventCat, Trace, TraceEvent, TraceLoadError};
pub use extract::{OverheadStats, OverheadType};
pub use ingest::{FileIngest, FileReject, FileReport, IngestLimits, QuarantineReport};
pub use overheads::OverheadProfile;
pub use selftrace::ChromeTraceSink;
