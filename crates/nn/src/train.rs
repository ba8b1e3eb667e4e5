//! Mini-batch MLP training with validation-based early stopping.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::arena::ScratchArena;
use crate::dataset::Dataset;
use crate::matrix::Matrix;
use crate::net::Mlp;
use crate::optim::{Optimizer, OptimizerKind};
use crate::preprocess::Preprocessor;

/// Training configuration for one MLP fit.
#[derive(Debug, Clone)]
pub struct TrainConfig {
    /// Number of hidden layers (`num_layers` in Table II).
    pub hidden_layers: usize,
    /// Neurons per hidden layer (`num_neurons_per_layer` in Table II).
    pub width: usize,
    /// Optimizer choice.
    pub optimizer: OptimizerKind,
    /// Base learning rate. Scaled ×10 when SGD is chosen, as the paper does.
    pub learning_rate: f64,
    /// Maximum epochs.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Validation fraction held out of the dataset.
    pub val_frac: f64,
    /// Early stopping: stop after this many epochs without validation
    /// improvement. `0` disables early stopping.
    pub patience: usize,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            hidden_layers: 3,
            width: 128,
            optimizer: OptimizerKind::Adam,
            learning_rate: 1e-3,
            epochs: 120,
            batch_size: 64,
            val_frac: 0.15,
            patience: 20,
        }
    }
}

/// A fitted model: the MLP plus its preprocessing pipeline, predicting in
/// the original (raw) feature/target scale.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct TrainedModel {
    mlp: Mlp,
    pre: Preprocessor,
    /// Mean absolute percentage error on the held-out validation split, in
    /// the original target scale.
    pub val_mape: f64,
    /// Frozen inference weights, built on first batched prediction.
    /// Skipped by serde (it is derived state) and rebuilt lazily.
    #[serde(skip)]
    plan: std::sync::OnceLock<crate::net::InferencePlan>,
}

impl TrainedModel {
    /// Assembles a trained model from its parts.
    pub fn new(mlp: Mlp, pre: Preprocessor, val_mape: f64) -> Self {
        TrainedModel {
            mlp,
            pre,
            val_mape,
            plan: std::sync::OnceLock::new(),
        }
    }

    /// Predicts the target for one raw feature row.
    pub fn predict_one(&self, raw_features: &[f64]) -> f64 {
        let feats = self.pre.transform_features(raw_features);
        let pred = self.mlp.predict_one(&feats);
        self.pre.inverse_target(pred)
    }

    /// Predicts targets for many raw feature rows.
    pub fn predict(&self, raw_rows: &[Vec<f64>]) -> Vec<f64> {
        raw_rows.iter().map(|r| self.predict_one(r)).collect()
    }

    /// Predicts targets for many raw feature rows through the frozen
    /// inference plan: one blocked forward pass for the whole batch.
    /// Bitwise identical to [`TrainedModel::predict`] (preprocessing is
    /// row-wise, the planned MLP forward is bitwise equal to the scalar
    /// one, and the inverse target map is element-wise).
    pub fn predict_batch(&self, raw_rows: &[Vec<f64>]) -> Vec<f64> {
        if raw_rows.is_empty() {
            return Vec::new();
        }
        let x = Matrix::from_rows(raw_rows).expect("uniform non-empty feature rows");
        let mut arena = ScratchArena::new();
        let mut out = Vec::with_capacity(raw_rows.len());
        self.predict_flat_into(x.into_vec(), raw_rows.len(), &mut arena, &mut out);
        out
    }

    /// The zero-allocation batch path: consumes a flat row-major buffer of
    /// *raw* feature rows (checked out of `arena`, returned when done) and
    /// appends one prediction per row to `out`. Bitwise identical to
    /// [`TrainedModel::predict_batch`] / [`TrainedModel::predict`] — same
    /// per-element preprocessing, same planned forward, same inverse map.
    ///
    /// # Panics
    /// Panics if `feats.len() != rows * feature_count`.
    pub fn predict_flat_into(
        &self,
        mut feats: Vec<f64>,
        rows: usize,
        arena: &mut ScratchArena,
        out: &mut Vec<f64>,
    ) {
        if rows == 0 {
            assert!(feats.is_empty(), "feature count mismatch");
            arena.give(feats);
            return;
        }
        let plan = self.plan.get_or_init(|| self.mlp.plan());
        self.pre.transform_flat_inplace(&mut feats);
        let start = out.len();
        plan.predict_flat_into(feats, rows, arena, out);
        for v in &mut out[start..] {
            *v = self.pre.inverse_target(*v);
        }
    }
}

fn mape(pred: &[f64], actual: &[f64]) -> f64 {
    let n = pred.len() as f64;
    pred.iter()
        .zip(actual)
        .map(|(p, a)| ((p - a) / a.max(1e-12)).abs())
        .sum::<f64>()
        / n
}

/// Trains an MLP regressor on a raw dataset (features and targets in their
/// natural units; log + z-score preprocessing is applied internally).
///
/// # Panics
/// Panics if the dataset is empty or the configuration is degenerate
/// (zero epochs / batch size).
pub fn train(raw: &Dataset, cfg: &TrainConfig, seed: u64) -> TrainedModel {
    assert!(!raw.is_empty(), "cannot train on an empty dataset");
    assert!(
        cfg.epochs > 0 && cfg.batch_size > 0,
        "degenerate training config"
    );

    let pre = Preprocessor::fit(raw);
    let data = pre.transform(raw);
    // Split raw to keep validation MAPE in original scale. Validation rows
    // are taken already preprocessed (the same per-row transform as
    // `TrainedModel::predict_one`), so each epoch validates with one
    // forward, bitwise equal to predicting them one at a time.
    let (train_set, val_x, val_y_raw) = {
        let mut idx: Vec<usize> = (0..raw.len()).collect();
        idx.shuffle(&mut StdRng::seed_from_u64(seed ^ 0xbeef));
        let n_val = ((raw.len() as f64 * cfg.val_frac).round() as usize).clamp(1, raw.len() - 1);
        let (val_idx, train_idx) = idx.split_at(n_val);
        let val_y_raw: Vec<f64> = val_idx.iter().map(|&i| raw.y[i]).collect();
        (
            data.select(train_idx),
            data.x.select_rows(val_idx),
            val_y_raw,
        )
    };

    let lr = match cfg.optimizer {
        OptimizerKind::Sgd => cfg.learning_rate * 10.0,
        OptimizerKind::Adam => cfg.learning_rate,
    };
    let mut mlp = Mlp::new(raw.feature_count(), cfg.hidden_layers, cfg.width, seed);
    let mut opt = Optimizer::new(cfg.optimizer, lr);
    let mut rng = StdRng::seed_from_u64(seed ^ 0xfeed);

    let mut best: Option<(f64, Mlp)> = None;
    let mut stale = 0usize;

    for _epoch in 0..cfg.epochs {
        let mut order: Vec<usize> = (0..train_set.len()).collect();
        order.shuffle(&mut rng);
        for chunk in order.chunks(cfg.batch_size) {
            let batch = train_set.select(chunk);
            let (y, tape) = mlp.forward_train(batch.x);
            let n = y.rows() as f64;
            // MSE gradient.
            let grad = Matrix::from_fn(y.rows(), 1, |r, _| 2.0 * (y.at(r, 0) - batch.y[r]) / n);
            let grads = mlp.backward(tape, grad);
            opt.step(mlp.layers_mut(), &grads);
        }

        // Validation in the original scale.
        let preds: Vec<f64> = mlp
            .forward(&val_x)
            .as_slice()
            .iter()
            .map(|&v| pre.inverse_target(v))
            .collect();
        let err = mape(&preds, &val_y_raw);
        if best.as_ref().is_none_or(|(b, _)| err < *b) {
            best = Some((err, mlp.clone()));
            stale = 0;
        } else {
            stale += 1;
            if cfg.patience > 0 && stale >= cfg.patience {
                break;
            }
        }
    }

    let (val_mape, mlp) = best.expect("at least one epoch ran");
    TrainedModel::new(mlp, pre, val_mape)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Synthetic kernel-like dataset: t = a*x0 + b*x0*x1 with exponential
    /// size sweeps, mimicking a microbenchmark.
    fn synthetic() -> Dataset {
        let mut rows = Vec::new();
        let mut ys = Vec::new();
        for i in 3..12 {
            for j in 3..12 {
                let (x0, x1) = ((1u64 << i) as f64, (1u64 << j) as f64);
                rows.push(vec![x0, x1]);
                ys.push(0.5 + 1e-4 * x0 + 3e-7 * x0 * x1);
            }
        }
        Dataset::from_rows(&rows, &ys).unwrap()
    }

    #[test]
    fn learns_power_law_surface() {
        let cfg = TrainConfig {
            epochs: 300,
            width: 32,
            hidden_layers: 3,
            ..Default::default()
        };
        let model = train(&synthetic(), &cfg, 6);
        assert!(
            model.val_mape < 0.12,
            "val MAPE too high: {}",
            model.val_mape
        );
        // Interpolation at an unseen point inside the training grid.
        let pred = model.predict_one(&[700.0, 900.0]);
        let truth = 0.5 + 1e-4 * 700.0 + 3e-7 * 700.0 * 900.0;
        assert!(
            (pred - truth).abs() / truth < 0.3,
            "pred {pred} vs truth {truth}"
        );
    }

    #[test]
    fn sgd_variant_trains() {
        let cfg = TrainConfig {
            epochs: 200,
            width: 32,
            optimizer: OptimizerKind::Sgd,
            learning_rate: 1e-4, // scaled x10 internally
            ..Default::default()
        };
        let model = train(&synthetic(), &cfg, 5);
        assert!(model.val_mape < 0.5, "SGD val MAPE: {}", model.val_mape);
    }

    #[test]
    fn deterministic_given_seed() {
        let cfg = TrainConfig {
            epochs: 10,
            width: 16,
            ..Default::default()
        };
        let a = train(&synthetic(), &cfg, 3).val_mape;
        let b = train(&synthetic(), &cfg, 3).val_mape;
        assert_eq!(a, b);
    }

    #[test]
    fn batched_prediction_matches_scalar_bitwise() {
        let cfg = TrainConfig {
            epochs: 15,
            width: 16,
            ..Default::default()
        };
        let model = train(&synthetic(), &cfg, 9);
        let rows: Vec<Vec<f64>> = (0..13)
            .map(|i| vec![100.0 + 37.0 * i as f64, 650.0 / (i + 1) as f64])
            .collect();
        let scalar: Vec<u64> = model.predict(&rows).iter().map(|v| v.to_bits()).collect();
        let batch: Vec<u64> = model
            .predict_batch(&rows)
            .iter()
            .map(|v| v.to_bits())
            .collect();
        assert_eq!(batch, scalar);
        assert!(model.predict_batch(&[]).is_empty());
        // A serde roundtrip drops the cached plan; it must rebuild identically.
        let json = serde_json::to_string(&model).unwrap();
        let back: TrainedModel = serde_json::from_str(&json).unwrap();
        let again: Vec<u64> = back
            .predict_batch(&rows)
            .iter()
            .map(|v| v.to_bits())
            .collect();
        assert_eq!(again, scalar);
    }

    #[test]
    #[should_panic(expected = "degenerate")]
    fn zero_epochs_panics() {
        let cfg = TrainConfig {
            epochs: 0,
            ..Default::default()
        };
        train(&synthetic(), &cfg, 0);
    }
}
