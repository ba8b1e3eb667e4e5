//! **Table II** — the MLP kernel-model hyperparameter search space, and a
//! grid search over it for the GEMM kernel model.
//!
//! The paper's full space is 5 × 4 × 2 × 7 = 280 configurations, taking
//! hours on a GPU; the default here searches a representative sub-grid and
//! reports the best configuration. Run with `DLPERF_GRID=paper` to sweep
//! all 280 configurations.

use dlperf_bench::header;
use dlperf_gpusim::DeviceSpec;
use dlperf_kernels::microbench::{gemm_specs, Microbenchmark};
use dlperf_kernels::mlbased::dataset_of;
use dlperf_nn::gridsearch::{grid_search, SearchSpace};
use dlperf_nn::optim::OptimizerKind;

fn main() {
    header("Table II: MLP performance-model search space (grid search over GEMM)");
    println!("{:24} range", "hyperparameter");
    println!("{:24} [3, 4, 5, 6, 7]", "num_layers");
    println!("{:24} [128, 256, 512, 1024]", "num_neurons_per_layer");
    println!("{:24} [Adam, SGD]", "optimizer");
    println!(
        "{:24} [1e-4, 2e-4, 5e-4, 1e-3, 2e-3, 5e-3, 1e-2]",
        "learning_rate"
    );

    let space = match std::env::var("DLPERF_GRID").as_deref() {
        Ok("paper") => SearchSpace::paper(),
        // The default sub-grid keeps one representative value per axis
        // cheap enough for a single-core run; DLPERF_GRID=paper sweeps the
        // full 280-point Table II space.
        _ => SearchSpace {
            layers: vec![3, 5],
            widths: vec![64, 128],
            optimizers: vec![OptimizerKind::Adam, OptimizerKind::Sgd],
            learning_rates: vec![1e-3, 5e-3],
        },
    };
    let n = space.configurations().len();
    println!("\nsearching {n} configurations on the GEMM microbenchmark ...");

    let mut mb = Microbenchmark::new(&DeviceSpec::v100(), 2, 15);
    let samples = mb.measure(&gemm_specs(400, 77));
    let data = dataset_of(&samples);
    let threads = std::thread::available_parallelism()
        .map(|t| t.get())
        .unwrap_or(4);
    let result = grid_search(&data, &space, 60, threads, 9);

    println!(
        "\n{:>7} {:>6} {:>6} {:>9} {:>10}",
        "layers", "width", "opt", "lr", "val MAPE"
    );
    let mut trials = result.trials.clone();
    trials.sort_by(|a, b| a.1.total_cmp(&b.1));
    for (hp, err) in trials.iter().take(12) {
        println!(
            "{:>7} {:>6} {:>6} {:>9.0e} {:>9.2}%",
            hp.num_layers,
            hp.width,
            hp.optimizer.to_string(),
            hp.learning_rate,
            err * 100.0
        );
    }
    println!(
        "\nwinner: {} layers x {} neurons, {} @ {:.0e} (val MAPE {:.2}%)",
        result.best.num_layers,
        result.best.width,
        result.best.optimizer,
        result.best.learning_rate,
        result.model.val_mape * 100.0
    );
}
