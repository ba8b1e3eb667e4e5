//! Log + z-score preprocessing.
//!
//! The paper: "As the input sizes of the benchmark are chosen in an almost
//! exponential scale, e.g., 32, 64, 128, etc., we preprocess the dataset by
//! taking logarithm values of both the sizes and the results." On top of the
//! log we standardize to zero mean / unit variance, which keeps the MLP's
//! Xavier-initialized first layer in its linear regime.

use serde::{Deserialize, Serialize};

use crate::dataset::Dataset;
use crate::matrix::Matrix;

/// `log2(x + 1)` — safe for zero-valued features.
pub fn log2p1(x: f64) -> f64 {
    (x + 1.0).log2()
}

/// Inverse of [`log2p1`].
pub fn exp2m1(x: f64) -> f64 {
    x.exp2() - 1.0
}

/// Fitted preprocessing pipeline: log transform + per-feature z-score, and
/// the same for the target.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Preprocessor {
    feat_mean: Vec<f64>,
    feat_std: Vec<f64>,
    y_mean: f64,
    y_std: f64,
}

impl Preprocessor {
    /// Fits the pipeline on a raw dataset.
    ///
    /// # Panics
    /// Panics if the dataset is empty.
    pub fn fit(data: &Dataset) -> Self {
        assert!(
            !data.is_empty(),
            "cannot fit a preprocessor on an empty dataset"
        );
        let n = data.len() as f64;
        let f = data.feature_count();
        let mut mean = vec![0.0; f];
        let mut sq = vec![0.0; f];
        for r in 0..data.len() {
            for (c, (m, s)) in mean.iter_mut().zip(sq.iter_mut()).enumerate() {
                let v = log2p1(data.x.at(r, c));
                *m += v;
                *s += v * v;
            }
        }
        let mut std = vec![0.0; f];
        for c in 0..f {
            mean[c] /= n;
            std[c] = (sq[c] / n - mean[c] * mean[c]).max(1e-12).sqrt();
        }
        let ylog: Vec<f64> = data.y.iter().map(|&v| log2p1(v)).collect();
        let y_mean = ylog.iter().sum::<f64>() / n;
        let y_std = (ylog.iter().map(|v| (v - y_mean).powi(2)).sum::<f64>() / n)
            .max(1e-12)
            .sqrt();
        Preprocessor {
            feat_mean: mean,
            feat_std: std,
            y_mean,
            y_std,
        }
    }

    /// Transforms one raw feature row into model space.
    ///
    /// # Panics
    /// Panics if the feature count differs from the fitted one.
    pub fn transform_features(&self, raw: &[f64]) -> Vec<f64> {
        assert_eq!(raw.len(), self.feat_mean.len(), "feature count mismatch");
        raw.iter()
            .enumerate()
            .map(|(c, &v)| (log2p1(v) - self.feat_mean[c]) / self.feat_std[c])
            .collect()
    }

    /// Transforms a matrix of raw feature rows into model space, in place.
    /// Applies exactly the per-element operations of
    /// [`Preprocessor::transform_features`] (same log, same mean/std, same
    /// order), so the result is bitwise identical to transforming each row
    /// separately — without one allocation per row.
    ///
    /// # Panics
    /// Panics if the column count differs from the fitted feature count.
    pub fn transform_features_inplace(&self, m: &mut crate::matrix::Matrix) {
        assert_eq!(m.cols(), self.feat_mean.len(), "feature count mismatch");
        let cols = m.cols();
        for row in m.as_mut_slice().chunks_mut(cols) {
            for (c, v) in row.iter_mut().enumerate() {
                *v = (log2p1(*v) - self.feat_mean[c]) / self.feat_std[c];
            }
        }
    }

    /// Transforms a flat row-major buffer of raw feature rows into model
    /// space, in place — the zero-allocation sibling of
    /// [`Preprocessor::transform_features_inplace`] for arena-backed
    /// buffers. Identical per-element operations, so bitwise identical
    /// results.
    ///
    /// # Panics
    /// Panics if `data.len()` is not a multiple of the fitted feature count.
    pub fn transform_flat_inplace(&self, data: &mut [f64]) {
        let cols = self.feat_mean.len();
        assert_eq!(data.len() % cols, 0, "feature count mismatch");
        for row in data.chunks_mut(cols) {
            for (c, v) in row.iter_mut().enumerate() {
                *v = (log2p1(*v) - self.feat_mean[c]) / self.feat_std[c];
            }
        }
    }

    /// Transforms a whole raw dataset into model space.
    pub fn transform(&self, data: &Dataset) -> Dataset {
        let rows: Vec<Vec<f64>> = (0..data.len())
            .map(|r| self.transform_features(data.x.row(r)))
            .collect();
        let ys: Vec<f64> = data
            .y
            .iter()
            .map(|&v| (log2p1(v) - self.y_mean) / self.y_std)
            .collect();
        Dataset {
            x: Matrix::from_rows(&rows).expect("non-empty dataset"),
            y: ys,
        }
    }

    /// Maps a model-space prediction back to the original target scale.
    pub fn inverse_target(&self, pred: f64) -> f64 {
        exp2m1(pred * self.y_std + self.y_mean)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> Dataset {
        let rows: Vec<Vec<f64>> = (1..=64).map(|i| vec![i as f64, (i * i) as f64]).collect();
        let ys: Vec<f64> = (1..=64).map(|i| (i * 3) as f64).collect();
        Dataset::from_rows(&rows, &ys).unwrap()
    }

    #[test]
    fn transformed_features_standardized() {
        let d = toy();
        let p = Preprocessor::fit(&d);
        let t = p.transform(&d);
        for c in 0..t.feature_count() {
            let n = t.len() as f64;
            let mean: f64 = (0..t.len()).map(|r| t.x.at(r, c)).sum::<f64>() / n;
            let var: f64 = (0..t.len())
                .map(|r| (t.x.at(r, c) - mean).powi(2))
                .sum::<f64>()
                / n;
            assert!(mean.abs() < 1e-9, "col {c} mean {mean}");
            assert!((var - 1.0).abs() < 1e-6, "col {c} var {var}");
        }
    }

    #[test]
    fn target_roundtrip() {
        let d = toy();
        let p = Preprocessor::fit(&d);
        let t = p.transform(&d);
        for (raw, model) in d.y.iter().zip(&t.y) {
            let back = p.inverse_target(*model);
            assert!((back - raw).abs() / raw < 1e-9);
        }
    }

    #[test]
    fn log_helpers_inverse() {
        for v in [0.0, 0.5, 1.0, 100.0, 1e6] {
            assert!((exp2m1(log2p1(v)) - v).abs() < 1e-6 * (v + 1.0));
        }
    }

    #[test]
    #[should_panic(expected = "empty dataset")]
    fn empty_fit_panics() {
        let d = Dataset {
            x: Matrix::zeros(0, 1),
            y: vec![],
        };
        Preprocessor::fit(&d);
    }
}
