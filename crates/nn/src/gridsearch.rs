//! Hyperparameter grid search over the paper's Table II space.
//!
//! "We conduct a grid search over a universal search space ... by training a
//! series of MLP models over the microbenchmark data and keeping the one
//! with the lowest prediction error." The full space has 5×4×2×7 = 280
//! configurations; [`SearchSpace::reduced`] provides a small subset for
//! tests and quick runs. Search is parallelized across worker threads with
//! `crossbeam`.

use crossbeam::channel;
use serde::{Deserialize, Serialize};

use dlperf_runtime::{
    JobContext, JobError, ResumableJob, RunReport, StepOutcome, Supervisor, SupervisorError,
};

use crate::dataset::Dataset;
use crate::optim::OptimizerKind;
use crate::train::{train, TrainConfig, TrainedModel};

/// One point of the hyperparameter grid.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HyperParams {
    /// Number of hidden layers.
    pub num_layers: usize,
    /// Neurons per hidden layer.
    pub width: usize,
    /// Optimizer.
    pub optimizer: OptimizerKind,
    /// Base learning rate (before the paper's ×10 SGD scaling).
    pub learning_rate: f64,
}

/// The grid to search.
#[derive(Debug, Clone)]
pub struct SearchSpace {
    /// Candidate hidden-layer counts.
    pub layers: Vec<usize>,
    /// Candidate widths.
    pub widths: Vec<usize>,
    /// Candidate optimizers.
    pub optimizers: Vec<OptimizerKind>,
    /// Candidate learning rates.
    pub learning_rates: Vec<f64>,
}

impl SearchSpace {
    /// The full Table II search space (280 configurations).
    pub fn paper() -> Self {
        SearchSpace {
            layers: vec![3, 4, 5, 6, 7],
            widths: vec![128, 256, 512, 1024],
            optimizers: vec![OptimizerKind::Adam, OptimizerKind::Sgd],
            learning_rates: vec![1e-4, 2e-4, 5e-4, 1e-3, 2e-3, 5e-3, 1e-2],
        }
    }

    /// A small space for tests and fast iterations (8 configurations).
    pub fn reduced() -> Self {
        SearchSpace {
            layers: vec![3, 4],
            widths: vec![32, 64],
            optimizers: vec![OptimizerKind::Adam],
            learning_rates: vec![1e-3, 5e-3],
        }
    }

    /// Enumerates every configuration in the grid.
    pub fn configurations(&self) -> Vec<HyperParams> {
        let mut out = Vec::new();
        for &num_layers in &self.layers {
            for &width in &self.widths {
                for &optimizer in &self.optimizers {
                    for &learning_rate in &self.learning_rates {
                        out.push(HyperParams {
                            num_layers,
                            width,
                            optimizer,
                            learning_rate,
                        });
                    }
                }
            }
        }
        out
    }
}

/// Result of a grid search: the winning configuration, its fitted model,
/// and the validation MAPE of every configuration tried.
#[derive(Debug)]
pub struct SearchResult {
    /// The best hyperparameters found.
    pub best: HyperParams,
    /// The model fitted with [`SearchResult::best`].
    pub model: TrainedModel,
    /// `(config, validation MAPE)` for every configuration, search order.
    pub trials: Vec<(HyperParams, f64)>,
}

/// Runs the grid search with `threads` parallel workers, each training on a
/// clone of `data` for `epochs` epochs, and returns the configuration with
/// the lowest validation MAPE.
///
/// # Panics
/// Panics if the space is empty, `threads` is zero, or the dataset is empty.
pub fn grid_search(
    data: &Dataset,
    space: &SearchSpace,
    epochs: usize,
    threads: usize,
    seed: u64,
) -> SearchResult {
    assert!(threads > 0, "grid_search needs at least one worker");
    let configs = space.configurations();
    assert!(!configs.is_empty(), "empty search space");

    let (job_tx, job_rx) = channel::unbounded::<(usize, HyperParams)>();
    let (res_tx, res_rx) = channel::unbounded::<(usize, HyperParams, TrainedModel)>();
    for item in configs.iter().cloned().enumerate() {
        job_tx.send(item).expect("channel open");
    }
    drop(job_tx);

    crossbeam::scope(|s| {
        for _ in 0..threads.min(configs.len()) {
            let job_rx = job_rx.clone();
            let res_tx = res_tx.clone();
            s.spawn(move |_| {
                while let Ok((i, hp)) = job_rx.recv() {
                    let cfg = TrainConfig {
                        hidden_layers: hp.num_layers,
                        width: hp.width,
                        optimizer: hp.optimizer,
                        learning_rate: hp.learning_rate,
                        epochs,
                        ..TrainConfig::default()
                    };
                    let model = train(data, &cfg, seed.wrapping_add(i as u64));
                    res_tx.send((i, hp, model)).expect("result channel open");
                }
            });
        }
        drop(res_tx);
    })
    .expect("grid-search workers do not panic");

    let mut results: Vec<(usize, HyperParams, TrainedModel)> = res_rx.iter().collect();
    results.sort_by_key(|(i, _, _)| *i);
    let trials: Vec<(HyperParams, f64)> = results
        .iter()
        .map(|(_, hp, m)| (hp.clone(), m.val_mape))
        .collect();
    let (_, best, model) = results
        .into_iter()
        .min_by(|a, b| a.2.val_mape.total_cmp(&b.2.val_mape))
        .expect("at least one configuration ran");
    SearchResult {
        best,
        model,
        trials,
    }
}

/// The grid search as a checkpointable [`ResumableJob`]: one step trains
/// one configuration.
///
/// Each configuration trains with the independent seed
/// `seed.wrapping_add(i)` — exactly the seeds [`grid_search`] hands its
/// worker threads — so the supervised search produces bitwise-identical
/// trials to the unsupervised one regardless of where (or whether) a kill
/// and resume happened.
#[derive(Debug)]
pub struct GridSearchJob<'a> {
    data: &'a Dataset,
    configs: Vec<HyperParams>,
    epochs: usize,
    seed: u64,
}

impl<'a> GridSearchJob<'a> {
    /// A job covering every configuration of `space`.
    ///
    /// # Panics
    /// Panics if the space or the dataset is empty, mirroring
    /// [`grid_search`].
    pub fn new(data: &'a Dataset, space: &SearchSpace, epochs: usize, seed: u64) -> Self {
        let configs = space.configurations();
        assert!(!configs.is_empty(), "empty search space");
        GridSearchJob {
            data,
            configs,
            epochs,
            seed,
        }
    }

    /// Number of configurations (= steps) in the job.
    pub fn len(&self) -> usize {
        self.configs.len()
    }

    /// Whether the job has no configurations (never true: `new` rejects
    /// empty spaces).
    pub fn is_empty(&self) -> bool {
        self.configs.is_empty()
    }
}

impl ResumableJob for GridSearchJob<'_> {
    /// Completed trials, in configuration order: `(config, fitted model)`.
    type State = Vec<(HyperParams, TrainedModel)>;
    type Output = SearchResult;

    fn name(&self) -> &str {
        "nn.grid-search"
    }

    fn initial_state(&self) -> Self::State {
        Vec::new()
    }

    fn step(&self, state: &mut Self::State, ctx: &JobContext) -> Result<StepOutcome, JobError> {
        let i = state.len();
        let hp = self.configs.get(i).cloned().ok_or_else(|| {
            JobError::Failed(format!(
                "checkpoint has {i} trials but the space has only {} configurations",
                self.configs.len()
            ))
        })?;
        debug_assert_eq!(ctx.step as usize, i, "one step per configuration");
        let cfg = TrainConfig {
            hidden_layers: hp.num_layers,
            width: hp.width,
            optimizer: hp.optimizer,
            learning_rate: hp.learning_rate,
            epochs: self.epochs,
            ..TrainConfig::default()
        };
        let model = train(self.data, &cfg, self.seed.wrapping_add(i as u64));
        state.push((hp, model));
        Ok(if state.len() == self.configs.len() {
            StepOutcome::Done
        } else {
            StepOutcome::Continue
        })
    }

    fn finish(&self, state: Self::State) -> SearchResult {
        let trials: Vec<(HyperParams, f64)> = state
            .iter()
            .map(|(hp, m)| (hp.clone(), m.val_mape))
            .collect();
        let (best, model) = state
            .into_iter()
            .min_by(|a, b| a.1.val_mape.total_cmp(&b.1.val_mape))
            .expect("grid-search jobs always have at least one configuration");
        SearchResult {
            best,
            model,
            trials,
        }
    }
}

/// Runs the grid search under `supervisor`: progress is checkpointed per
/// completed configuration, worker panics are contained and retried, and a
/// killed process resumes from its last snapshot with bitwise-identical
/// results.
pub fn grid_search_supervised(
    data: &Dataset,
    space: &SearchSpace,
    epochs: usize,
    seed: u64,
    supervisor: &mut Supervisor,
) -> (Result<SearchResult, SupervisorError>, RunReport) {
    supervisor.run(&GridSearchJob::new(data, space, epochs, seed))
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn paper_space_has_280_configs() {
        assert_eq!(SearchSpace::paper().configurations().len(), 280);
    }

    #[test]
    fn search_returns_best_of_trials() {
        let data = synthetic();
        let space = SearchSpace {
            layers: vec![3],
            widths: vec![16, 32],
            optimizers: vec![OptimizerKind::Adam],
            learning_rates: vec![1e-3],
        };
        let res = grid_search(&data, &space, 60, 2, 42);
        assert_eq!(res.trials.len(), 2);
        let min = res
            .trials
            .iter()
            .map(|(_, e)| *e)
            .fold(f64::INFINITY, f64::min);
        assert_eq!(res.model.val_mape, min);
        assert!(space.configurations().contains(&res.best));
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_threads_panics() {
        grid_search(&synthetic(), &SearchSpace::reduced(), 1, 0, 0);
    }

    #[test]
    fn supervised_search_matches_threaded_search_bitwise() {
        let data = synthetic();
        let space = SearchSpace {
            layers: vec![3],
            widths: vec![16, 32],
            optimizers: vec![OptimizerKind::Adam],
            learning_rates: vec![1e-3],
        };
        let plain = grid_search(&data, &space, 40, 2, 7);
        let mut sup = Supervisor::new(dlperf_runtime::SupervisorConfig::default());
        let (res, report) = grid_search_supervised(&data, &space, 40, 7, &mut sup);
        let res = res.expect("supervised search completes");
        assert_eq!(report.steps_run, 2);
        assert_eq!(res.best, plain.best);
        assert_eq!(res.model.val_mape.to_bits(), plain.model.val_mape.to_bits());
        for ((hp_a, e_a), (hp_b, e_b)) in res.trials.iter().zip(&plain.trials) {
            assert_eq!(hp_a, hp_b);
            assert_eq!(
                e_a.to_bits(),
                e_b.to_bits(),
                "per-trial error must match bitwise"
            );
        }
    }
}
