//! Train an ML-based kernel performance model the way the paper does:
//! microbenchmark sweep → Table II grid search → evaluate GMAE on a
//! held-out sweep. The sweep runs through the chunked [`MicrobenchHarness`]
//! and the search under a [`Supervisor`], so both stages checkpoint their
//! progress and every fallible call propagates a typed error — nothing in
//! this example panics on bad input.
//!
//! Run with `cargo run --release --example train_kernel_model`.
//! Pass `--full-grid` to search the complete 280-configuration Table II
//! space instead of the reduced one (slow).

use std::error::Error;

use dlrm_perf_model::gpusim::DeviceSpec;
use dlrm_perf_model::kernels::error::ErrorStats;
use dlrm_perf_model::kernels::microbench::{gemm_specs, MicrobenchHarness};
use dlrm_perf_model::kernels::mlbased::{dataset_of, features, MlKernelModel};
use dlrm_perf_model::nn::gridsearch::{grid_search_supervised, SearchSpace};
use dlrm_perf_model::runtime::{Supervisor, SupervisorConfig};

fn main() -> Result<(), Box<dyn Error>> {
    let full = std::env::args().any(|a| a == "--full-grid");
    let device = DeviceSpec::v100();

    println!("sweeping {} GEMM shapes on {} ...", 600, device.name);
    let harness = MicrobenchHarness::new(&device, 1, 15, 64);
    let mut sup = Supervisor::new(SupervisorConfig::default());
    let (train_samples, report) = harness.measure_supervised(&gemm_specs(600, 10), &mut sup);
    let train_samples = train_samples?;
    println!("  {}", report.summary());
    let eval_samples = harness.measure(&gemm_specs(150, 999));

    let space = if full {
        SearchSpace::paper()
    } else {
        SearchSpace::reduced()
    };
    println!(
        "grid-searching {} configurations (MSE loss, log-preprocessed features) ...",
        space.configurations().len()
    );
    let data = dataset_of(&train_samples);
    let (result, report) = grid_search_supervised(&data, &space, 120, 42, &mut sup);
    let result = result?;
    println!("  {}", report.summary());

    println!("\nbest configuration: {:?}", result.best);
    println!("validation MAPE: {:.2}%", result.model.val_mape * 100.0);
    for (hp, err) in result.trials.iter().take(8) {
        println!(
            "  layers={} width={:4} {}@{:<7.0e} -> val MAPE {:5.2}%",
            hp.num_layers,
            hp.width,
            hp.optimizer,
            hp.learning_rate,
            err * 100.0
        );
    }

    // Wrap into a kernel model and evaluate on the held-out sweep.
    let cfg = dlrm_perf_model::nn::train::TrainConfig {
        hidden_layers: result.best.num_layers,
        width: result.best.width,
        optimizer: result.best.optimizer,
        learning_rate: result.best.learning_rate,
        epochs: 200,
        ..Default::default()
    };
    let model = MlKernelModel::train(&train_samples, &cfg, 7);
    let preds: Vec<f64> = eval_samples
        .iter()
        .map(|s| model.predict(&s.kernel))
        .collect();
    let actual: Vec<f64> = eval_samples.iter().map(|s| s.time_us).collect();
    let stats = ErrorStats::try_from_pairs(&preds, &actual)?;
    println!("\nheld-out evaluation: {stats}");
    println!(
        "feature vector of a 1024x1024x1024 GEMM: {:?}",
        features(&eval_samples[0].kernel)
    );
    Ok(())
}
