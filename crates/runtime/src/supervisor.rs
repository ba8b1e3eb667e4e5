//! The supervisor: panic-isolated, deadline-bounded, checkpointed
//! execution of [`ResumableJob`]s.
//!
//! One attempt runs the job's steps inside `catch_unwind`; a panic (or an
//! injected kill) costs one unit of the restart budget, triggers
//! exponential backoff, and restarts from the last checkpoint — one
//! poisoned unit of work can therefore never take down a whole sweep. Two
//! watchdog levels bound time: the *run deadline* covers the entire
//! supervised run (attempts, backoff and all), while the *attempt timeout*
//! is a hang detector — a worker that stops making progress is cancelled
//! and restarted rather than wedging the sweep forever.
//!
//! Chaos testing composes through [`dlperf_faults::FaultInjector`]: the
//! plan's worker-fault probabilities are evaluated at the stateless site
//! `(job key, step, attempt)`, so a chaos run kills, hangs and panics
//! workers at exactly the same points on every replay.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use serde::Serialize;

use dlperf_faults::{site_key, FaultInjector, WorkerFault};

use crate::job::{JobContext, JobError, ResumableJob, StepOutcome};
use crate::snapshot::{self, SnapshotError};
use crate::store::{CheckpointStore, MemoryStore};
use crate::token::{CancellationToken, Watchdog};

/// Format version of the checkpoint payload.
pub const CHECKPOINT_VERSION: u32 = 1;

/// Supervision policy for one run.
#[derive(Debug, Clone)]
pub struct SupervisorConfig {
    /// Snapshot the state every `checkpoint_every` completed steps
    /// (minimum 1: checkpoint after every step).
    pub checkpoint_every: u64,
    /// Restarts allowed after the first attempt before the run is declared
    /// failed.
    pub max_restarts: u32,
    /// Backoff before restart `n` is `backoff_base × 2^(n-1)`, capped at
    /// [`SupervisorConfig::backoff_max`].
    pub backoff_base: Duration,
    /// Upper bound on a single backoff sleep.
    pub backoff_max: Duration,
    /// Wall-clock bound on the whole run, including restarts and backoff.
    pub deadline: Option<Duration>,
    /// Per-attempt hang detector: an attempt exceeding this is cancelled
    /// and restarted from the last checkpoint (spending restart budget).
    pub attempt_timeout: Option<Duration>,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            checkpoint_every: 1,
            max_restarts: 3,
            backoff_base: Duration::from_millis(5),
            backoff_max: Duration::from_millis(250),
            deadline: None,
            attempt_timeout: None,
        }
    }
}

/// Why one attempt ended early and a restart was scheduled.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RestartRecord {
    /// The attempt that failed (1-based).
    pub attempt: u32,
    /// Progress (completed steps) at the moment of failure.
    pub at_step: u64,
    /// Human-readable cause (panic payload, "worker killed", "attempt
    /// timed out", …).
    pub cause: String,
}

/// What a supervised run did, successful or not.
#[derive(Debug, Clone, Default)]
pub struct RunReport {
    /// Job name.
    pub job: String,
    /// Attempts made (1 = no restart was needed).
    pub attempts: u32,
    /// Steps executed in this process, including steps repeated after a
    /// restart rolled back to an older checkpoint.
    pub steps_run: u64,
    /// Final progress in completed steps.
    pub steps_completed: u64,
    /// Snapshots written.
    pub checkpoints_written: u64,
    /// If the run started from a pre-existing checkpoint, the step it
    /// resumed at.
    pub resumed_from_step: Option<u64>,
    /// One record per restart, in order.
    pub restarts: Vec<RestartRecord>,
    /// Worker faults injected by the fault plan during this run.
    pub injected_faults: u32,
    /// Total time spent in restart backoff.
    pub backoff_total: Duration,
}

impl RunReport {
    /// One-line human-readable summary.
    pub fn summary(&self) -> String {
        let mut s = format!(
            "job `{}`: {} attempt(s), {} step(s) run, {} checkpoint(s)",
            self.job, self.attempts, self.steps_run, self.checkpoints_written
        );
        if let Some(step) = self.resumed_from_step {
            s.push_str(&format!(", resumed from step {step}"));
        }
        if !self.restarts.is_empty() {
            s.push_str(&format!(", {} restart(s): ", self.restarts.len()));
            let causes: Vec<&str> = self.restarts.iter().map(|r| r.cause.as_str()).collect();
            s.push_str(&causes.join("; "));
        }
        s
    }
}

/// Why a supervised run produced no output.
#[derive(Debug)]
pub enum SupervisorError {
    /// Every allowed attempt failed; the last failure is carried.
    RestartBudgetExhausted {
        /// Job name.
        job: String,
        /// Attempts made.
        attempts: u32,
        /// Cause of the final failure.
        last_failure: String,
    },
    /// The run deadline expired before the job completed.
    DeadlineExceeded {
        /// Job name.
        job: String,
        /// Progress when the deadline fired.
        steps_completed: u64,
    },
    /// The run token was cancelled externally.
    Cancelled {
        /// Job name.
        job: String,
        /// Progress at cancellation.
        steps_completed: u64,
    },
    /// A checkpoint could not be written or read back.
    Snapshot(SnapshotError),
    /// The job returned a typed, non-retryable failure.
    Failed {
        /// Job name.
        job: String,
        /// The job's failure message.
        why: String,
    },
}

impl std::fmt::Display for SupervisorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SupervisorError::RestartBudgetExhausted { job, attempts, last_failure } => write!(
                f,
                "job `{job}` exhausted its restart budget after {attempts} attempt(s); last failure: {last_failure}"
            ),
            SupervisorError::DeadlineExceeded { job, steps_completed } => {
                write!(f, "job `{job}` hit its run deadline at step {steps_completed}")
            }
            SupervisorError::Cancelled { job, steps_completed } => {
                write!(f, "job `{job}` was cancelled at step {steps_completed}")
            }
            SupervisorError::Snapshot(e) => write!(f, "checkpoint failure: {e}"),
            SupervisorError::Failed { job, why } => write!(f, "job `{job}` failed: {why}"),
        }
    }
}

impl std::error::Error for SupervisorError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SupervisorError::Snapshot(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SnapshotError> for SupervisorError {
    fn from(e: SnapshotError) -> Self {
        SupervisorError::Snapshot(e)
    }
}

/// Serializes a checkpoint payload: `(completed steps, state JSON)`. The
/// state rides as a JSON string because the vendored serde derive cannot
/// handle generic payload structs; the envelope checksum still covers it.
fn seal_checkpoint<S: Serialize>(
    schema: &str,
    step: u64,
    state: &S,
) -> Result<String, SnapshotError> {
    let state_json = serde_json::to_string(state)?;
    snapshot::seal(schema, CHECKPOINT_VERSION, &(step, state_json))
}

/// Inverse of [`seal_checkpoint`].
fn open_checkpoint<S: serde::de::DeserializeOwned>(
    schema: &str,
    sealed: &str,
) -> Result<(u64, S), SnapshotError> {
    let (step, state_json): (u64, String) = snapshot::open(schema, CHECKPOINT_VERSION, sealed)?;
    Ok((step, serde_json::from_str(&state_json)?))
}

/// Process-wide supervisor counters — attempt/checkpoint totals across
/// every [`Supervisor`] instance; the per-run numbers stay in [`RunReport`].
struct SupervisorCounters {
    _group: std::sync::Arc<dlperf_obs::CounterGroup>,
    attempts: dlperf_obs::CounterHandle,
    steps: dlperf_obs::CounterHandle,
    checkpoints_written: dlperf_obs::CounterHandle,
    restarts: dlperf_obs::CounterHandle,
}

fn supervisor_counters() -> &'static SupervisorCounters {
    static G: std::sync::OnceLock<SupervisorCounters> = std::sync::OnceLock::new();
    G.get_or_init(|| {
        let group = dlperf_obs::CounterGroup::register(
            "runtime.supervisor",
            &["attempts", "steps", "checkpoints_written", "restarts"],
        );
        SupervisorCounters {
            attempts: group.handle("attempts"),
            steps: group.handle("steps"),
            checkpoints_written: group.handle("checkpoints_written"),
            restarts: group.handle("restarts"),
            _group: group,
        }
    })
}

/// How one attempt ended (internal).
enum AttemptEnd<S> {
    Done(S),
    Retry(String),
    Fatal(SupervisorError),
}

/// Distinguishes a run-deadline expiry from an external cancel.
fn run_ended_error(
    config: &SupervisorConfig,
    job: &str,
    steps_completed: u64,
    run_started: Instant,
) -> SupervisorError {
    match config.deadline {
        Some(d) if run_started.elapsed() >= d => SupervisorError::DeadlineExceeded {
            job: job.to_string(),
            steps_completed,
        },
        _ => SupervisorError::Cancelled {
            job: job.to_string(),
            steps_completed,
        },
    }
}

/// Runs [`ResumableJob`]s under a supervision policy.
pub struct Supervisor {
    config: SupervisorConfig,
    store: Box<dyn CheckpointStore>,
    injector: Option<FaultInjector>,
    run_token: CancellationToken,
}

impl std::fmt::Debug for Supervisor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Supervisor")
            .field("config", &self.config)
            .field("faults", &self.injector.is_some())
            .finish()
    }
}

impl Supervisor {
    /// A supervisor with the given policy and an in-memory checkpoint
    /// store.
    pub fn new(config: SupervisorConfig) -> Self {
        Self::with_store(config, Box::new(MemoryStore::new()))
    }

    /// A supervisor persisting checkpoints to `store`.
    pub fn with_store(config: SupervisorConfig, store: Box<dyn CheckpointStore>) -> Self {
        let mut config = config;
        config.checkpoint_every = config.checkpoint_every.max(1);
        Supervisor {
            config,
            store,
            injector: None,
            run_token: CancellationToken::new(),
        }
    }

    /// Installs a fault injector: worker faults from its plan are applied
    /// at the deterministic site `(job key, step, attempt)`.
    pub fn set_fault_injector(&mut self, injector: FaultInjector) {
        self.injector = Some(injector);
    }

    /// A handle that cancels the current/next run when triggered.
    pub fn cancellation_token(&self) -> CancellationToken {
        self.run_token.clone()
    }

    /// The active policy.
    pub fn config(&self) -> &SupervisorConfig {
        &self.config
    }

    fn checkpoint_schema(job_name: &str) -> String {
        format!("dlperf.checkpoint/{job_name}")
    }

    /// Loads the job's checkpoint, or its initial state when none exists.
    fn load_state<J: ResumableJob>(&self, job: &J) -> Result<(u64, J::State), SupervisorError> {
        match self.store.load()? {
            Some(sealed) => open_checkpoint(&Self::checkpoint_schema(job.name()), &sealed)
                .map_err(SupervisorError::from),
            None => Ok((0, job.initial_state())),
        }
    }

    /// Runs `job` to completion under the supervision policy.
    ///
    /// Always returns the [`RunReport`], whether the run succeeded or not —
    /// panics, restarts, resumes and injected faults are surfaced there.
    pub fn run<J: ResumableJob>(
        &mut self,
        job: &J,
    ) -> (Result<J::Output, SupervisorError>, RunReport) {
        let _span = dlperf_obs::span_with(dlperf_obs::SpanKind::Phase, || {
            format!("supervise:{}", job.name())
        });
        let mut report = RunReport {
            job: job.name().to_string(),
            ..RunReport::default()
        };
        let run_started = Instant::now();
        let job_key = site_key(job.name());

        // A token cancelled by a previous run must not poison this one.
        if self.run_token.is_cancelled() {
            self.run_token = CancellationToken::new();
        }
        let run_token = self.run_token.clone();
        let _run_watchdog = self
            .config
            .deadline
            .map(|d| Watchdog::arm(run_token.clone(), d));

        let mut attempt: u32 = 0;
        loop {
            // (Re)load progress: the initial load detects resume; later
            // loads roll back to the last checkpoint after a failure.
            let (step0, state) = match self.load_state(job) {
                Ok(s) => s,
                Err(e) => return (Err(e), report),
            };
            if attempt == 0 && step0 > 0 {
                report.resumed_from_step = Some(step0);
            }
            attempt += 1;
            report.attempts = attempt;
            report.steps_completed = report.steps_completed.max(step0);
            supervisor_counters().attempts.incr();
            let _attempt_span =
                dlperf_obs::span_with(dlperf_obs::SpanKind::Phase, || format!("attempt:{attempt}"));

            let attempt_token = CancellationToken::new();
            let _attempt_watchdog = self
                .config
                .attempt_timeout
                .map(|t| Watchdog::arm(attempt_token.clone(), t));

            let end = self.run_attempt(
                job,
                job_key,
                attempt,
                step0,
                state,
                run_started,
                &run_token,
                &attempt_token,
                &mut report,
            );

            match end {
                Ok(AttemptEnd::Done(state)) => {
                    if let Err(e) = self.store.clear() {
                        return (Err(e.into()), report);
                    }
                    return (Ok(job.finish(state)), report);
                }
                Ok(AttemptEnd::Fatal(e)) => return (Err(e), report),
                Ok(AttemptEnd::Retry(cause)) | Err(cause) => {
                    supervisor_counters().restarts.incr();
                    report.restarts.push(RestartRecord {
                        attempt,
                        at_step: report.steps_completed,
                        cause: cause.clone(),
                    });
                    if attempt > self.config.max_restarts {
                        return (
                            Err(SupervisorError::RestartBudgetExhausted {
                                job: job.name().to_string(),
                                attempts: attempt,
                                last_failure: cause,
                            }),
                            report,
                        );
                    }
                    // Exponential backoff, capped; counted against the run
                    // deadline like any other wall-clock time.
                    let exp = attempt.saturating_sub(1).min(16);
                    let backoff = self
                        .config
                        .backoff_base
                        .saturating_mul(1u32 << exp)
                        .min(self.config.backoff_max);
                    report.backoff_total += backoff;
                    std::thread::sleep(backoff);
                    if run_token.is_cancelled() {
                        let e = run_ended_error(
                            &self.config,
                            job.name(),
                            report.steps_completed,
                            run_started,
                        );
                        return (Err(e), report);
                    }
                }
            }
        }
    }

    /// One panic-isolated attempt. `Err(cause)` means the worker panicked.
    #[allow(clippy::too_many_arguments)]
    fn run_attempt<J: ResumableJob>(
        &mut self,
        job: &J,
        job_key: u64,
        attempt: u32,
        step0: u64,
        state: J::State,
        run_started: Instant,
        run_token: &CancellationToken,
        attempt_token: &CancellationToken,
        report: &mut RunReport,
    ) -> Result<AttemptEnd<J::State>, String> {
        let config = self.config.clone();
        let injector = self.injector.clone();
        let store = &mut self.store;
        let job_name = job.name().to_string();
        let schema = Self::checkpoint_schema(&job_name);

        let mut steps_run = 0u64;
        let mut checkpoints = 0u64;
        let mut injected = 0u32;
        let mut completed = step0;

        let _quiet = QuietPanicGuard::engage();
        let caught = catch_unwind(AssertUnwindSafe(|| -> AttemptEnd<J::State> {
            let mut state = state;
            let mut step = step0;
            let mut dirty = 0u64;
            loop {
                if run_token.is_cancelled() {
                    return AttemptEnd::Fatal(run_ended_error(
                        &config,
                        &job_name,
                        step,
                        run_started,
                    ));
                }
                if attempt_token.is_cancelled() {
                    return AttemptEnd::Retry("attempt timed out (hang watchdog)".into());
                }

                // Deterministic chaos: evaluate the worker-fault site for
                // this (step, attempt) before running the step.
                if let Some(inj) = &injector {
                    match inj.worker_fault(job_key, step, attempt) {
                        Some(WorkerFault::Panic) => {
                            injected += 1;
                            panic!("injected worker panic at step {step} attempt {attempt}");
                        }
                        Some(WorkerFault::Kill) => {
                            injected += 1;
                            return AttemptEnd::Retry(format!(
                                "worker killed at step {step} (injected)"
                            ));
                        }
                        Some(WorkerFault::Hang) => {
                            injected += 1;
                            // A hung worker makes no progress; only a
                            // watchdog gets it unstuck.
                            loop {
                                if run_token.is_cancelled() {
                                    return AttemptEnd::Fatal(run_ended_error(
                                        &config,
                                        &job_name,
                                        step,
                                        run_started,
                                    ));
                                }
                                if attempt_token.is_cancelled() {
                                    return AttemptEnd::Retry(format!(
                                        "worker hung at step {step} (injected), watchdog fired"
                                    ));
                                }
                                std::thread::sleep(Duration::from_micros(500));
                            }
                        }
                        None => {}
                    }
                }

                let ctx = JobContext {
                    run_token: run_token.clone(),
                    attempt_token: attempt_token.clone(),
                    step,
                    attempt,
                };
                let outcome = match job.step(&mut state, &ctx) {
                    Ok(o) => o,
                    Err(JobError::Cancelled) => {
                        return AttemptEnd::Fatal(run_ended_error(
                            &config,
                            &job_name,
                            step,
                            run_started,
                        ))
                    }
                    Err(JobError::AttemptTimedOut) => {
                        return AttemptEnd::Retry("attempt timed out (hang watchdog)".into())
                    }
                    Err(JobError::Killed) => {
                        return AttemptEnd::Retry(format!("worker killed at step {step}"))
                    }
                    Err(JobError::Failed(why)) => {
                        return AttemptEnd::Fatal(SupervisorError::Failed {
                            job: job_name.clone(),
                            why,
                        })
                    }
                };
                steps_run += 1;
                step += 1;
                completed = step;
                dirty += 1;
                match outcome {
                    StepOutcome::Done => return AttemptEnd::Done(state),
                    StepOutcome::Continue => {
                        if dirty >= config.checkpoint_every {
                            let sealed = match seal_checkpoint(&schema, step, &state) {
                                Ok(s) => s,
                                Err(e) => return AttemptEnd::Fatal(e.into()),
                            };
                            if let Err(e) = store.save(&sealed) {
                                return AttemptEnd::Fatal(e.into());
                            }
                            checkpoints += 1;
                            dirty = 0;
                        }
                    }
                }
            }
        }));

        report.steps_run += steps_run;
        report.checkpoints_written += checkpoints;
        report.injected_faults += injected;
        let counters = supervisor_counters();
        counters.steps.add(steps_run);
        counters.checkpoints_written.add(checkpoints);
        report.steps_completed = report.steps_completed.max(completed);

        match caught {
            Ok(end) => Ok(end),
            Err(payload) => Err(format!("worker panicked: {}", panic_message(&*payload))),
        }
    }
}

thread_local! {
    /// Whether a [`QuietPanicGuard`] is engaged on this thread — a panic
    /// its holder contains is the holder's to report, so the default
    /// hook's message and backtrace would be pure noise.
    static QUIET: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Suppresses the panic hook's output for panics on the current thread
/// while the guard lives; panics on other threads (and on this thread
/// outside a guard) still reach the previous hook untouched. The hook is
/// installed once per process, on the first engage. Guards nest: dropping
/// one restores whatever the thread had before it was engaged.
///
/// Engage it around a `catch_unwind` whose caller reports the caught
/// panic itself: a supervised attempt, a served request, an ingested
/// file.
#[must_use = "the guard silences panics only while it lives"]
pub struct QuietPanicGuard {
    was_quiet: bool,
}

impl QuietPanicGuard {
    /// Silences panics on the current thread until the guard is dropped.
    pub fn engage() -> Self {
        static INSTALL: std::sync::Once = std::sync::Once::new();
        INSTALL.call_once(|| {
            let prev = std::panic::take_hook();
            std::panic::set_hook(Box::new(move |info| {
                if !QUIET.with(std::cell::Cell::get) {
                    prev(info);
                }
            }));
        });
        QuietPanicGuard {
            was_quiet: QUIET.with(|q| q.replace(true)),
        }
    }
}

impl Drop for QuietPanicGuard {
    fn drop(&mut self) {
        QUIET.with(|q| q.set(self.was_quiet));
    }
}

/// The message of a caught panic's payload: the `&str` or `String` that
/// `panic!` carries, or `"opaque panic payload"` for any other type.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::store::FileStore;
    use dlperf_faults::FaultPlan;

    /// Counts to `total`, accumulating `step²` into the state. Individual
    /// steps can be told to panic, die, or hang on a given attempt.
    struct CountJob {
        total: u64,
        panic_step: Option<u64>,
        kill_step: Option<u64>,
        hang_step: Option<u64>,
        /// Restrict the configured failure to this attempt (None = always).
        fail_attempt: Option<u32>,
        step_sleep: Duration,
    }

    impl CountJob {
        fn to(total: u64) -> Self {
            CountJob {
                total,
                panic_step: None,
                kill_step: None,
                hang_step: None,
                fail_attempt: None,
                step_sleep: Duration::ZERO,
            }
        }
    }

    impl ResumableJob for CountJob {
        type State = Vec<u64>;
        type Output = u64;

        fn name(&self) -> &str {
            "count-job"
        }

        fn initial_state(&self) -> Vec<u64> {
            Vec::new()
        }

        fn step(&self, state: &mut Vec<u64>, ctx: &JobContext) -> Result<StepOutcome, JobError> {
            let applies = self.fail_attempt.is_none_or_default(ctx.attempt);
            if applies && self.panic_step == Some(ctx.step) {
                panic!("test panic at step {}", ctx.step);
            }
            if applies && self.kill_step == Some(ctx.step) {
                return Err(JobError::Killed);
            }
            if applies && self.hang_step == Some(ctx.step) {
                loop {
                    ctx.check_cancelled()?;
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
            if !self.step_sleep.is_zero() {
                std::thread::sleep(self.step_sleep);
            }
            state.push(ctx.step * ctx.step);
            Ok(if state.len() as u64 >= self.total {
                StepOutcome::Done
            } else {
                StepOutcome::Continue
            })
        }

        fn finish(&self, state: Vec<u64>) -> u64 {
            state.iter().sum()
        }
    }

    /// `None` (no attempt restriction) or the given attempt.
    trait AttemptFilter {
        fn is_none_or_default(&self, attempt: u32) -> bool;
    }
    impl AttemptFilter for Option<u32> {
        fn is_none_or_default(&self, attempt: u32) -> bool {
            self.is_none_or(|a| a == attempt)
        }
    }

    fn expected_sum(total: u64) -> u64 {
        (0..total).map(|s| s * s).sum()
    }

    #[test]
    fn happy_path_completes_in_one_attempt() {
        let mut sup = Supervisor::new(SupervisorConfig {
            checkpoint_every: 2,
            ..SupervisorConfig::default()
        });
        let (out, report) = sup.run(&CountJob::to(5));
        assert_eq!(out.expect("job completes"), expected_sum(5));
        assert_eq!(report.attempts, 1);
        assert_eq!(report.steps_run, 5);
        assert_eq!(report.checkpoints_written, 2); // after steps 2 and 4
        assert!(report.restarts.is_empty());
        assert!(report.resumed_from_step.is_none());
    }

    #[test]
    fn panic_restarts_from_checkpoint_with_identical_output() {
        let mut job = CountJob::to(6);
        job.panic_step = Some(3);
        job.fail_attempt = Some(1);
        let mut sup = Supervisor::new(SupervisorConfig::default());
        let (out, report) = sup.run(&job);
        assert_eq!(
            out.expect("job recovers"),
            expected_sum(6),
            "recovered run is bit-identical"
        );
        assert_eq!(report.attempts, 2);
        assert_eq!(report.restarts.len(), 1);
        assert!(
            report.restarts[0].cause.contains("panicked"),
            "{}",
            report.restarts[0].cause
        );
        assert_eq!(
            report.restarts[0].at_step, 3,
            "checkpoint caught steps 0..3"
        );
        // Steps 0..3 ran once, 3..6 ran once: no step repeated (checkpoint_every=1).
        assert_eq!(report.steps_run, 6);
    }

    #[test]
    fn restart_budget_exhaustion_is_typed_and_reported() {
        let mut job = CountJob::to(6);
        job.panic_step = Some(2); // every attempt
        let mut sup = Supervisor::new(SupervisorConfig {
            max_restarts: 2,
            backoff_base: Duration::from_millis(1),
            ..SupervisorConfig::default()
        });
        let (out, report) = sup.run(&job);
        match out {
            Err(SupervisorError::RestartBudgetExhausted {
                attempts: 3,
                last_failure,
                ..
            }) => {
                assert!(last_failure.contains("panicked"));
            }
            other => panic!("expected RestartBudgetExhausted, got {other:?}"),
        }
        assert_eq!(report.restarts.len(), 3);
        assert!(report.summary().contains("3 restart(s)"));
    }

    #[test]
    fn hang_watchdog_restarts_the_attempt() {
        let mut job = CountJob::to(4);
        job.hang_step = Some(2);
        job.fail_attempt = Some(1);
        let mut sup = Supervisor::new(SupervisorConfig {
            attempt_timeout: Some(Duration::from_millis(30)),
            ..SupervisorConfig::default()
        });
        let (out, report) = sup.run(&job);
        assert_eq!(out.expect("watchdog unwedges the job"), expected_sum(4));
        assert_eq!(report.attempts, 2);
        assert!(
            report.restarts[0].cause.contains("timed out"),
            "{}",
            report.restarts[0].cause
        );
    }

    #[test]
    fn run_deadline_is_fatal() {
        let mut job = CountJob::to(10_000);
        job.step_sleep = Duration::from_millis(5);
        let mut sup = Supervisor::new(SupervisorConfig {
            deadline: Some(Duration::from_millis(40)),
            ..SupervisorConfig::default()
        });
        let (out, report) = sup.run(&job);
        match out {
            Err(SupervisorError::DeadlineExceeded {
                steps_completed, ..
            }) => {
                assert!(steps_completed < 10_000);
            }
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
        assert!(report.steps_run < 10_000);
    }

    #[test]
    fn unrepresentable_deadlines_never_fire() {
        let mut sup = Supervisor::new(SupervisorConfig {
            deadline: Some(Duration::MAX),
            attempt_timeout: Some(Duration::MAX),
            ..SupervisorConfig::default()
        });
        let (out, report) = sup.run(&CountJob::to(4));
        assert_eq!(
            out.expect("an endless budget never expires"),
            expected_sum(4)
        );
        assert_eq!(report.attempts, 1);
    }

    #[test]
    fn external_cancellation_is_distinguished_from_deadline() {
        let mut job = CountJob::to(10_000);
        job.step_sleep = Duration::from_millis(2);
        let mut sup = Supervisor::new(SupervisorConfig::default());
        let token = sup.cancellation_token();
        let canceller = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            token.cancel();
        });
        let (out, _report) = sup.run(&job);
        canceller.join().expect("canceller thread");
        match out {
            Err(SupervisorError::Cancelled { .. }) => {}
            other => panic!("expected Cancelled, got {other:?}"),
        }
    }

    #[test]
    fn kill_resume_across_supervisors_is_bitwise_identical() {
        let dir = std::env::temp_dir().join(format!("dlperf-sup-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("count.ckpt");

        // Uninterrupted baseline.
        let (baseline, _) = Supervisor::new(SupervisorConfig::default()).run(&CountJob::to(8));
        let baseline = baseline.expect("baseline completes");

        // First process: dies at step 5 on every attempt, no restarts left.
        let mut dying = CountJob::to(8);
        dying.kill_step = Some(5);
        let mut sup1 = Supervisor::with_store(
            SupervisorConfig {
                max_restarts: 0,
                ..SupervisorConfig::default()
            },
            Box::new(FileStore::new(&path)),
        );
        let (out1, _r1) = sup1.run(&dying);
        assert!(out1.is_err(), "first process dies");
        assert!(path.exists(), "checkpoint survives the death");

        // Second process resumes from the snapshot and finishes.
        let mut sup2 =
            Supervisor::with_store(SupervisorConfig::default(), Box::new(FileStore::new(&path)));
        let (out2, r2) = sup2.run(&CountJob::to(8));
        assert_eq!(
            out2.expect("resumed run completes"),
            baseline,
            "bitwise-identical result"
        );
        assert_eq!(r2.resumed_from_step, Some(5));
        assert_eq!(r2.steps_run, 3, "only the remaining steps run");
        assert!(!path.exists(), "checkpoint cleared after success");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupted_checkpoint_is_a_typed_snapshot_error() {
        let dir = std::env::temp_dir().join(format!("dlperf-sup-corrupt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("count.ckpt");
        let mut dying = CountJob::to(8);
        dying.kill_step = Some(4);
        let mut sup1 = Supervisor::with_store(
            SupervisorConfig {
                max_restarts: 0,
                ..SupervisorConfig::default()
            },
            Box::new(FileStore::new(&path)),
        );
        let _ = sup1.run(&dying);
        // Truncate the snapshot, as an interrupted copy or bit rot would.
        let sealed = std::fs::read_to_string(&path).expect("checkpoint exists");
        std::fs::write(&path, &sealed[..sealed.len() / 2]).expect("truncate");
        let mut sup2 =
            Supervisor::with_store(SupervisorConfig::default(), Box::new(FileStore::new(&path)));
        let (out, _) = sup2.run(&CountJob::to(8));
        match out {
            Err(SupervisorError::Snapshot(SnapshotError::Parse(_))) => {}
            other => panic!("expected Snapshot(Parse), got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn nesting_bomb_checkpoint_is_a_typed_snapshot_error() {
        let dir = std::env::temp_dir().join(format!("dlperf-sup-bomb-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("count.ckpt");
        let bomb = "[".repeat(1_000_000);
        // The bomb as the whole file, and sealed intact as the state JSON
        // behind a valid envelope and checksum.
        let inner = snapshot::seal(
            &Supervisor::checkpoint_schema("count-job"),
            CHECKPOINT_VERSION,
            &(3u64, bomb.clone()),
        )
        .expect("seals");
        for file in [bomb, inner] {
            std::fs::write(&path, &file).expect("write checkpoint");
            let mut sup = Supervisor::with_store(
                SupervisorConfig::default(),
                Box::new(FileStore::new(&path)),
            );
            let (out, _) = sup.run(&CountJob::to(8));
            match out {
                Err(SupervisorError::Snapshot(SnapshotError::Parse(_))) => {}
                other => panic!("expected Snapshot(Parse), got {other:?}"),
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn injected_worker_faults_are_deterministic_across_runs() {
        let plan = FaultPlan::healthy(99).with_worker_faults(0.05, 0.1, 0.0);
        let config = SupervisorConfig {
            max_restarts: 100,
            backoff_base: Duration::from_micros(100),
            backoff_max: Duration::from_millis(1),
            ..SupervisorConfig::default()
        };
        let run = || {
            let mut sup = Supervisor::new(config.clone());
            sup.set_fault_injector(FaultInjector::new(plan.clone()));
            sup.run(&CountJob::to(40))
        };
        let (out_a, rep_a) = run();
        let (out_b, rep_b) = run();
        let out_a = out_a.expect("chaos run completes");
        assert_eq!(out_a, out_b.expect("chaos run completes"));
        assert_eq!(out_a, expected_sum(40), "faults never change the result");
        assert!(
            rep_a.injected_faults > 0,
            "plan should actually fire at these odds"
        );
        assert_eq!(rep_a.injected_faults, rep_b.injected_faults);
        assert_eq!(rep_a.restarts, rep_b.restarts, "identical failure timeline");
    }

    #[test]
    fn injected_hang_is_recovered_by_the_attempt_watchdog() {
        let plan = FaultPlan::healthy(3).with_worker_faults(0.0, 0.0, 0.08);
        let mut sup = Supervisor::new(SupervisorConfig {
            attempt_timeout: Some(Duration::from_millis(25)),
            max_restarts: 100,
            backoff_base: Duration::from_micros(100),
            ..SupervisorConfig::default()
        });
        sup.set_fault_injector(FaultInjector::new(plan));
        let (out, report) = sup.run(&CountJob::to(30));
        assert_eq!(out.expect("hangs are recovered"), expected_sum(30));
        assert!(
            report.injected_faults > 0,
            "at least one hang should fire at these odds"
        );
        assert!(report.restarts.iter().any(|r| r.cause.contains("hung")));
    }

    #[test]
    fn panic_message_reads_string_payloads_and_names_the_rest() {
        let message = |f: fn()| panic_message(&*std::panic::catch_unwind(f).unwrap_err());
        assert_eq!(message(|| panic!("static text")), "static text");
        assert_eq!(message(|| panic!("formatted {}", 7)), "formatted 7");
        assert_eq!(
            message(|| std::panic::panic_any(42u32)),
            "opaque panic payload"
        );
    }

    #[test]
    fn quiet_guards_nest_and_restore_the_outer_state() {
        let quiet = || QUIET.with(std::cell::Cell::get);
        assert!(!quiet());
        let outer = QuietPanicGuard::engage();
        let inner = QuietPanicGuard::engage();
        drop(inner);
        assert!(quiet(), "an inner guard leaves the outer one engaged");
        drop(outer);
        assert!(!quiet());
    }
}
