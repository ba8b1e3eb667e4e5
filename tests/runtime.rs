//! Supervised-runtime integration tests: the checkpoint/resume and
//! panic-isolation contracts of the robustness milestone.
//!
//! Three contracts are exercised end to end:
//! 1. **Kill-and-resume equivalence** — a supervised job killed after any
//!    number of completed steps and restarted from its checkpoint produces
//!    a bitwise-identical result, whether the restart happens inside one
//!    supervisor (in-run retry) or across two (a fresh process resuming a
//!    dead one's snapshot file).
//! 2. **Panic containment** — a worker that panics repeatedly never takes
//!    the supervisor down; the run either completes (within the restart
//!    budget) with an unchanged result, or fails with a typed error that
//!    names the panic.
//! 3. **Determinism under chaos** — injected worker faults (kill/panic)
//!    from a [`FaultPlan`] change the run report, never the result bits.

use std::sync::atomic::{AtomicU32, Ordering};

use dlperf_faults::{FaultInjector, FaultPlan};
use dlperf_gpusim::DeviceSpec;
use dlperf_kernels::microbench::{gemm_specs, MicrobenchHarness};
use dlperf_nn::gridsearch::{grid_search_supervised, GridSearchJob, SearchSpace};
use dlperf_nn::Dataset;
use dlperf_runtime::{
    open, seal, FileStore, JobContext, JobError, ResumableJob, SnapshotError, StepOutcome,
    Supervisor, SupervisorConfig, SupervisorError,
};
use proptest::prelude::*;

/// Wraps a job so that its `kill_step`-th step is killed `kills` times
/// before being allowed through — simulating a worker death at an exact,
/// test-chosen point.
struct KillAt<J> {
    inner: J,
    kill_step: u64,
    kills: AtomicU32,
}

impl<J> KillAt<J> {
    fn new(inner: J, kill_step: u64, kills: u32) -> Self {
        KillAt {
            inner,
            kill_step,
            kills: AtomicU32::new(kills),
        }
    }
}

impl<J: ResumableJob> ResumableJob for KillAt<J> {
    type State = J::State;
    type Output = J::Output;

    fn name(&self) -> &str {
        self.inner.name()
    }

    fn initial_state(&self) -> Self::State {
        self.inner.initial_state()
    }

    fn step(&self, state: &mut Self::State, ctx: &JobContext) -> Result<StepOutcome, JobError> {
        if ctx.step == self.kill_step
            && self
                .kills
                .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |k| k.checked_sub(1))
                .is_ok()
        {
            return Err(JobError::Killed);
        }
        self.inner.step(state, ctx)
    }

    fn finish(&self, state: Self::State) -> Self::Output {
        self.inner.finish(state)
    }
}

/// Wraps a job so that its `panic_step`-th step panics `panics` times
/// before being allowed through.
struct PanicAt<J> {
    inner: J,
    panic_step: u64,
    panics: AtomicU32,
}

impl<J> PanicAt<J> {
    fn new(inner: J, panic_step: u64, panics: u32) -> Self {
        PanicAt {
            inner,
            panic_step,
            panics: AtomicU32::new(panics),
        }
    }
}

impl<J: ResumableJob> ResumableJob for PanicAt<J> {
    type State = J::State;
    type Output = J::Output;

    fn name(&self) -> &str {
        self.inner.name()
    }

    fn initial_state(&self) -> Self::State {
        self.inner.initial_state()
    }

    fn step(&self, state: &mut Self::State, ctx: &JobContext) -> Result<StepOutcome, JobError> {
        if ctx.step == self.panic_step
            && self
                .panics
                .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |k| k.checked_sub(1))
                .is_ok()
        {
            panic!("deliberate worker panic at step {}", ctx.step);
        }
        self.inner.step(state, ctx)
    }

    fn finish(&self, state: Self::State) -> Self::Output {
        self.inner.finish(state)
    }
}

fn synthetic() -> Dataset {
    let mut rows = Vec::new();
    let mut ys = Vec::new();
    for i in 3..10 {
        for j in 3..10 {
            let (x0, x1) = ((1u64 << i) as f64, (1u64 << j) as f64);
            rows.push(vec![x0, x1]);
            ys.push(1.0 + 2e-4 * x0 * x1);
        }
    }
    Dataset::from_rows(&rows, &ys).unwrap()
}

fn small_space() -> SearchSpace {
    SearchSpace::reduced()
}

/// Reference val-MAPE bits of the uninterrupted reduced grid search,
/// computed once — every kill/panic/chaos variant must reproduce these
/// exact bits.
fn reference_trials(data: &Dataset) -> &'static [u64] {
    static REF: std::sync::OnceLock<Vec<u64>> = std::sync::OnceLock::new();
    REF.get_or_init(|| {
        let mut sup = Supervisor::new(SupervisorConfig::default());
        let (res, _) = grid_search_supervised(data, &small_space(), 15, 11, &mut sup);
        res.unwrap()
            .trials
            .iter()
            .map(|(_, m)| m.to_bits())
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// A grid search killed after any number of completed configurations
    /// and restarted from its checkpoint produces bitwise-identical trial
    /// errors.
    #[test]
    fn killed_grid_search_resumes_bitwise_identical(kill_step in 0u64..8) {
        let data = synthetic();
        let expected = reference_trials(&data);

        let mut sup = Supervisor::new(SupervisorConfig::default());
        let job = KillAt::new(GridSearchJob::new(&data, &small_space(), 15, 11), kill_step, 1);
        let (res, report) = sup.run(&job);
        let got: Vec<u64> =
            res.unwrap().trials.iter().map(|(_, m)| m.to_bits()).collect();
        prop_assert_eq!(&got[..], expected);
        prop_assert_eq!(report.attempts, 2);
        prop_assert_eq!(report.restarts.len(), 1);
        prop_assert_eq!(report.restarts[0].at_step, kill_step);
    }

    /// Corrupting a sealed checkpoint envelope — byte flips, truncation,
    /// or both — always yields either the original payload (when the
    /// mutations cancel out) or a typed [`SnapshotError`]; never a panic.
    /// This is the contract [`FileStore::open_snapshot`] builds on: a
    /// damaged checkpoint file degrades to "start fresh", not a crash.
    #[test]
    fn corrupted_envelope_always_types_never_panics(
        seed in 0u64..u64::MAX,
        flips in 1usize..8,
    ) {
        let truncate = seed & 1 == 0;
        let payload: Vec<u64> = vec![3, 1, 4, 1, 5, 9, 2, 6];
        let sealed = seal("t.chaos", 3, &payload).expect("seal");
        let mut bytes = sealed.clone().into_bytes();

        // Deterministic xorshift stream from the proptest-chosen seed.
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        if truncate {
            bytes.truncate((next() as usize) % bytes.len());
        }
        for _ in 0..flips {
            if bytes.is_empty() {
                break;
            }
            let pos = (next() as usize) % bytes.len();
            bytes[pos] ^= (next() % 255) as u8 + 1;
        }

        let mangled = String::from_utf8_lossy(&bytes).into_owned();
        match open::<Vec<u64>>("t.chaos", 3, &mangled) {
            // Lossy re-encoding can normalise a flip away; opening cleanly
            // is only acceptable if the payload survived bit-for-bit.
            Ok(back) => prop_assert_eq!(back, payload),
            Err(e) => {
                prop_assert!(matches!(
                    e,
                    SnapshotError::Parse(_)
                        | SnapshotError::SchemaMismatch { .. }
                        | SnapshotError::VersionMismatch { .. }
                        | SnapshotError::ChecksumMismatch { .. }
                ), "unexpected variant: {}", e);
                prop_assert!(!e.to_string().is_empty());
            }
        }
    }

    /// Same property for the chunked microbenchmark sweep.
    #[test]
    fn killed_microbench_sweep_resumes_bitwise_identical(kill_step in 0u64..6) {
        let harness = MicrobenchHarness::new(&DeviceSpec::v100(), 5, 9, 4);
        let specs = gemm_specs(24, 3);
        let expected: Vec<u64> =
            harness.measure(&specs).iter().map(|s| s.time_us.to_bits()).collect();

        let mut sup = Supervisor::new(SupervisorConfig::default());
        let (res, report) = sup.run(&KillAt::new(harness.job(&specs), kill_step, 1));
        let got: Vec<u64> =
            res.unwrap().iter().map(|s| s.time_us.to_bits()).collect();
        prop_assert_eq!(&got[..], expected);
        prop_assert_eq!(report.restarts.len(), 1);
    }
}

/// The cross-supervisor variant: run A dies for good (restart budget zero)
/// leaving a snapshot file; a fresh supervisor — a new process, in effect —
/// picks the file up and finishes with bitwise-identical results.
#[test]
fn dead_run_resumes_across_supervisors_from_snapshot_file() {
    let data = synthetic();
    let expected = reference_trials(&data);

    let dir = std::env::temp_dir().join("dlperf-runtime-itest");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("grid.ckpt.json");
    std::fs::remove_file(&path).ok();

    let cfg = SupervisorConfig {
        max_restarts: 0,
        ..SupervisorConfig::default()
    };
    let mut sup_a = Supervisor::with_store(cfg, Box::new(FileStore::new(&path)));
    let job = KillAt::new(GridSearchJob::new(&data, &small_space(), 15, 11), 3, 1);
    let (res_a, report_a) = sup_a.run(&job);
    match res_a {
        Err(SupervisorError::RestartBudgetExhausted { .. }) => {}
        other => panic!("expected RestartBudgetExhausted, got {other:?}"),
    }
    assert_eq!(report_a.steps_completed, 3);
    assert!(path.exists(), "snapshot must survive the dead run");

    let mut sup_b =
        Supervisor::with_store(SupervisorConfig::default(), Box::new(FileStore::new(&path)));
    let (res_b, report_b) = grid_search_supervised(&data, &small_space(), 15, 11, &mut sup_b);
    let got: Vec<u64> = res_b
        .unwrap()
        .trials
        .iter()
        .map(|(_, m)| m.to_bits())
        .collect();
    assert_eq!(got, expected);
    assert_eq!(report_b.resumed_from_step, Some(3));
    assert!(!path.exists(), "snapshot is cleared after success");
}

/// A worker that panics repeatedly within the restart budget never takes
/// the supervisor down, and the result is unchanged.
#[test]
fn repeated_worker_panics_are_contained_and_reported() {
    let data = synthetic();
    let expected = reference_trials(&data);

    let mut sup = Supervisor::new(SupervisorConfig::default());
    let job = PanicAt::new(GridSearchJob::new(&data, &small_space(), 15, 11), 2, 3);
    let (res, report) = sup.run(&job);
    let got: Vec<u64> = res
        .unwrap()
        .trials
        .iter()
        .map(|(_, m)| m.to_bits())
        .collect();
    assert_eq!(
        got, expected,
        "three contained panics must not change a bit"
    );
    assert_eq!(report.attempts, 4);
    assert_eq!(report.restarts.len(), 3);
    for r in &report.restarts {
        assert!(
            r.cause.contains("deliberate worker panic"),
            "cause: {}",
            r.cause
        );
    }
}

/// One panic past the budget fails the run with a typed error naming the
/// panic — it still never aborts the supervisor's thread.
#[test]
fn panics_past_the_budget_fail_typed_not_fatal() {
    let data = synthetic();
    let mut sup = Supervisor::new(SupervisorConfig::default());
    let job = PanicAt::new(GridSearchJob::new(&data, &small_space(), 15, 11), 1, 4);
    let (res, report) = sup.run(&job);
    match res {
        Err(SupervisorError::RestartBudgetExhausted {
            attempts,
            last_failure,
            ..
        }) => {
            assert_eq!(attempts, 4);
            assert!(
                last_failure.contains("deliberate worker panic"),
                "got: {last_failure}"
            );
        }
        other => panic!("expected RestartBudgetExhausted, got {other:?}"),
    }
    assert_eq!(
        report.steps_completed, 1,
        "progress up to the panic is kept"
    );
}

/// Chaos from the PR 1 fault plan (worker kills/panics) composes with the
/// supervisor: faults land, restarts happen, results do not move.
#[test]
fn injected_worker_chaos_never_changes_result_bits() {
    let harness = MicrobenchHarness::new(&DeviceSpec::v100(), 5, 9, 4);
    let specs = gemm_specs(24, 3);
    let expected: Vec<u64> = harness
        .measure(&specs)
        .iter()
        .map(|s| s.time_us.to_bits())
        .collect();

    let mut injected_total = 0;
    for plan_seed in 0..6u64 {
        let cfg = SupervisorConfig {
            max_restarts: 10,
            ..SupervisorConfig::default()
        };
        let mut sup = Supervisor::with_store(cfg, Box::new(dlperf_runtime::MemoryStore::new()));
        sup.set_fault_injector(FaultInjector::new(
            FaultPlan::healthy(plan_seed).with_worker_faults(0.1, 0.1, 0.0),
        ));
        let (res, report) = harness.measure_supervised(&specs, &mut sup);
        let got: Vec<u64> = res.unwrap().iter().map(|s| s.time_us.to_bits()).collect();
        assert_eq!(got, expected, "plan seed {plan_seed} changed the sweep");
        injected_total += report.injected_faults;
    }
    assert!(
        injected_total > 0,
        "at least one plan seed must inject a fault"
    );
}
