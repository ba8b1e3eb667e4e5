//! A resumable microbenchmark + grid-search sweep, built for kill/resume
//! verification: run it to completion once, then run it again while
//! SIGKILLing the process mid-sweep a few times, resume, and diff the two
//! output digests — they must be byte-identical. CI does exactly that.
//!
//! ```text
//! cargo run --release --example resumable_sweep -- \
//!     --checkpoint /tmp/sweep.ckpt --out /tmp/sweep.digest [--step-delay-ms 200]
//! ```
//!
//! `--checkpoint` is the snapshot file prefix (two supervised stages, two
//! files); `--out` receives a digest of every result f64 as raw bits, so a
//! diff catches even 1-ulp divergence; `--step-delay-ms` slows each step
//! down to give an external killer a window to land mid-run.

use std::error::Error;
use std::time::Duration;

use dlrm_perf_model::gpusim::DeviceSpec;
use dlrm_perf_model::kernels::microbench::{gemm_specs, MicrobenchHarness};
use dlrm_perf_model::kernels::mlbased::dataset_of;
use dlrm_perf_model::nn::gridsearch::{GridSearchJob, SearchSpace};
use dlrm_perf_model::runtime::{
    FileStore, JobContext, JobError, ResumableJob, StepOutcome, Supervisor, SupervisorConfig,
};

/// Wraps a job with an artificial per-step delay so an external SIGKILL
/// has a window to land between checkpoints.
struct Throttled<J> {
    inner: J,
    delay: Duration,
}

impl<J: ResumableJob> ResumableJob for Throttled<J> {
    type State = J::State;
    type Output = J::Output;

    fn name(&self) -> &str {
        self.inner.name()
    }

    fn initial_state(&self) -> Self::State {
        self.inner.initial_state()
    }

    fn step(&self, state: &mut Self::State, ctx: &JobContext) -> Result<StepOutcome, JobError> {
        if !self.delay.is_zero() {
            std::thread::sleep(self.delay);
        }
        self.inner.step(state, ctx)
    }

    fn finish(&self, state: Self::State) -> Self::Output {
        self.inner.finish(state)
    }
}

fn flag(name: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

fn main() -> Result<(), Box<dyn Error>> {
    let checkpoint = flag("--checkpoint").unwrap_or_else(|| "/tmp/resumable-sweep.ckpt".into());
    let out = flag("--out").unwrap_or_else(|| "/tmp/resumable-sweep.digest".into());
    let delay = Duration::from_millis(
        flag("--step-delay-ms")
            .map(|v| v.parse())
            .transpose()?
            .unwrap_or(0),
    );

    let device = DeviceSpec::v100();
    let mut digest = String::new();

    // Stage 1: chunked microbenchmark sweep, checkpointed per chunk.
    let harness = MicrobenchHarness::new(&device, 42, 15, 8);
    let specs = gemm_specs(64, 10);
    let mut sup = Supervisor::with_store(
        SupervisorConfig::default(),
        Box::new(FileStore::new(format!("{checkpoint}.microbench"))),
    );
    let job = Throttled {
        inner: harness.job(&specs),
        delay,
    };
    let (samples, report) = sup.run(&job);
    let samples = samples?;
    eprintln!("{}", report.summary());
    for s in &samples {
        digest.push_str(&format!("sample {:016x}\n", s.time_us.to_bits()));
    }

    // Stage 2: grid search over the sweep, checkpointed per configuration.
    let data = dataset_of(&samples);
    let space = SearchSpace {
        layers: vec![3],
        widths: vec![16, 32],
        optimizers: vec![dlrm_perf_model::nn::OptimizerKind::Adam],
        learning_rates: vec![1e-3, 5e-3],
    };
    let mut sup = Supervisor::with_store(
        SupervisorConfig::default(),
        Box::new(FileStore::new(format!("{checkpoint}.grid"))),
    );
    let job = Throttled {
        inner: GridSearchJob::new(&data, &space, 60, 7),
        delay,
    };
    let (result, report) = sup.run(&job);
    let result = result?;
    eprintln!("{}", report.summary());
    for (hp, mape) in &result.trials {
        digest.push_str(&format!(
            "trial layers={} width={} lr={:016x} mape={:016x}\n",
            hp.num_layers,
            hp.width,
            hp.learning_rate.to_bits(),
            mape.to_bits()
        ));
    }
    digest.push_str(&format!(
        "best layers={} width={} lr={:016x} val_mape={:016x}\n",
        result.best.num_layers,
        result.best.width,
        result.best.learning_rate.to_bits(),
        result.model.val_mape.to_bits()
    ));

    std::fs::write(&out, &digest)?;
    eprintln!("digest written to {out}");
    Ok(())
}
