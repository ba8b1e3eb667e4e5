//! Regression datasets: feature rows plus scalar targets.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::matrix::Matrix;

/// A regression dataset.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// Features, one row per sample.
    pub x: Matrix,
    /// Targets, one per sample.
    pub y: Vec<f64>,
}

impl Dataset {
    /// Builds a dataset from rows and targets.
    ///
    /// Returns `None` if shapes disagree, rows are ragged, or empty.
    pub fn from_rows(rows: &[Vec<f64>], targets: &[f64]) -> Option<Self> {
        if rows.len() != targets.len() || rows.is_empty() {
            return None;
        }
        Some(Dataset {
            x: Matrix::from_rows(rows)?,
            y: targets.to_vec(),
        })
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.y.len()
    }

    /// True if the dataset has no samples.
    pub fn is_empty(&self) -> bool {
        self.y.is_empty()
    }

    /// Number of features.
    pub fn feature_count(&self) -> usize {
        self.x.cols()
    }

    /// Copy of selected samples, in order.
    pub fn select(&self, idx: &[usize]) -> Dataset {
        Dataset {
            x: self.x.select_rows(idx),
            y: idx.iter().map(|&i| self.y[i]).collect(),
        }
    }

    /// Deterministic shuffled split into `(train, validation)` with the
    /// given validation fraction.
    ///
    /// # Panics
    /// Panics if `val_frac` is outside `(0, 1)` or either side would be
    /// empty.
    pub fn split(&self, val_frac: f64, seed: u64) -> (Dataset, Dataset) {
        assert!(
            val_frac > 0.0 && val_frac < 1.0,
            "val_frac must be in (0, 1)"
        );
        let mut idx: Vec<usize> = (0..self.len()).collect();
        idx.shuffle(&mut StdRng::seed_from_u64(seed));
        let n_val = ((self.len() as f64 * val_frac).round() as usize).clamp(1, self.len() - 1);
        let (val_idx, train_idx) = idx.split_at(n_val);
        (self.select(train_idx), self.select(val_idx))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy(n: usize) -> Dataset {
        let rows: Vec<Vec<f64>> = (0..n).map(|i| vec![i as f64]).collect();
        let ys: Vec<f64> = (0..n).map(|i| i as f64 * 2.0).collect();
        Dataset::from_rows(&rows, &ys).unwrap()
    }

    #[test]
    fn split_is_partition() {
        let d = toy(100);
        let (tr, va) = d.split(0.2, 9);
        assert_eq!(tr.len() + va.len(), 100);
        assert_eq!(va.len(), 20);
        let mut all: Vec<i64> = tr.y.iter().chain(va.y.iter()).map(|&v| v as i64).collect();
        all.sort_unstable();
        assert_eq!(all, (0..100).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn split_deterministic() {
        let d = toy(50);
        let (a, _) = d.split(0.3, 7);
        let (b, _) = d.split(0.3, 7);
        assert_eq!(a.y, b.y);
    }

    #[test]
    fn mismatched_lengths_rejected() {
        assert!(Dataset::from_rows(&[vec![1.0]], &[1.0, 2.0]).is_none());
        assert!(Dataset::from_rows(&[], &[]).is_none());
    }

    #[test]
    #[should_panic(expected = "val_frac")]
    fn bad_val_frac_panics() {
        toy(10).split(1.0, 0);
    }
}
