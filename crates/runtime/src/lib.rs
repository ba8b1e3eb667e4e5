//! Supervised runtime for long-running dlperf jobs.
//!
//! Sweeps in this codebase — hyperparameter grid searches, microbenchmark
//! calibration, multi-workload analysis — run for a long time and die for
//! boring reasons: a panic on one degenerate config, a hang, a preempted
//! machine. This crate makes those failures recoverable instead of fatal:
//!
//! - [`Supervisor`] runs a [`ResumableJob`] with panic isolation
//!   (`catch_unwind` around every attempt), a restart budget with
//!   exponential backoff, and cooperative deadlines enforced by
//!   [`Watchdog`]s flipping [`CancellationToken`]s. Every watchdog is an
//!   entry in one process-wide deadline timer served by a single thread,
//!   so arming and disarming never spawn, join or wait on a thread.
//! - Progress is persisted as versioned, checksummed [`snapshot`]
//!   envelopes through a [`CheckpointStore`] ([`FileStore`] for durable
//!   kill-resume, [`MemoryStore`] for tests). Writes are atomic
//!   (temp-file + rename), so a kill mid-write never corrupts the latest
//!   snapshot.
//! - Because job steps are deterministic and any randomness is keyed by a
//!   stateless hash of the step index (the `dlperf-faults` scheme), a
//!   killed run resumed from its last checkpoint produces **bitwise
//!   identical** final results to an uninterrupted run.
//! - Chaos composes: hand the supervisor a `dlperf_faults::FaultInjector`
//!   and its plan's worker faults (panic / kill / hang) fire at
//!   deterministic `(job, step, attempt)` sites, exercising every
//!   recovery path reproducibly.

pub mod job;
pub mod snapshot;
pub mod store;
pub mod supervisor;
pub mod token;

pub use job::{JobContext, JobError, ResumableJob, StepOutcome};
pub use snapshot::{fnv1a64, open, seal, Envelope, SnapshotError};
pub use store::{CheckpointStore, FileStore, MemoryStore};
pub use supervisor::{
    panic_message, QuietPanicGuard, RestartRecord, RunReport, Supervisor, SupervisorConfig,
    SupervisorError, CHECKPOINT_VERSION,
};
pub use token::{CancellationToken, Watchdog};
