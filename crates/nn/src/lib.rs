//! # dlperf-nn
//!
//! A small, dependency-free MLP training library, built from scratch to
//! reproduce the paper's *ML-based kernel performance models*.
//!
//! The paper trains one MLP regressor per opaque kernel family (cuBLAS GEMM,
//! JIT-generated transpose, tril forward/backward), selecting its
//! architecture by grid search over the space of Table II:
//!
//! | hyperparameter          | range                                      |
//! |-------------------------|--------------------------------------------|
//! | `num_layers`            | 3, 4, 5, 6, 7                              |
//! | `num_neurons_per_layer` | 128, 256, 512, 1024                        |
//! | `optimizer`             | Adam, SGD                                  |
//! | `learning_rate`         | 1e-4, 2e-4, 5e-4, 1e-3, 2e-3, 5e-3, 1e-2   |
//!
//! with MSE loss, log-transformed inputs and outputs, and the learning rate
//! scaled ×10 when SGD is chosen. All of that is implemented here:
//! [`matrix`] (dense linear algebra), [`net`] (forward/backward), [`optim`]
//! (SGD and Adam), [`train()`] (mini-batch training with early stopping),
//! [`preprocess`] (log + z-score pipelines) and [`gridsearch`].
//!
//! ## Example
//!
//! ```
//! use dlperf_nn::dataset::Dataset;
//! use dlperf_nn::train::{train, TrainConfig};
//!
//! // Learn y = x0 + 2*x1 from a few samples.
//! let xs: Vec<Vec<f64>> = (0..64).map(|i| vec![i as f64 / 64.0, (63 - i) as f64 / 64.0]).collect();
//! let ys: Vec<f64> = xs.iter().map(|v| v[0] + 2.0 * v[1]).collect();
//! let data = Dataset::from_rows(&xs, &ys).unwrap();
//! let cfg = TrainConfig { epochs: 200, ..TrainConfig::default() };
//! let model = train(&data, &cfg, 42);
//! let pred = model.predict_one(&[0.5, 0.5]);
//! assert!((pred - 1.5).abs() < 0.3);
//! ```

pub mod arena;
pub mod dataset;
pub mod gridsearch;
pub mod matrix;
pub mod net;
pub mod optim;
pub mod preprocess;
pub mod train;

pub use arena::{ArenaStats, ScratchArena};
pub use dataset::Dataset;
pub use gridsearch::{
    grid_search, grid_search_supervised, GridSearchJob, HyperParams, SearchSpace,
};
pub use matrix::Matrix;
pub use matrix::{lane_dot, lane_dot_reference, LANES};
pub use net::{InferencePlan, Mlp};
pub use optim::OptimizerKind;
pub use train::{train, TrainConfig, TrainedModel};
