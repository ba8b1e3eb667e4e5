//! Synthetic Criteo-like categorical data.
//!
//! The paper trains *DLRM_MLPerf* on the Kaggle Criteo dataset. We have no
//! dataset here, but the performance model only depends on the index-stream
//! *statistics* (table cardinalities, lookups per sample, skew), so this
//! module provides the published Kaggle cardinalities plus a seeded
//! generator producing uniform or Zipf-distributed index batches.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rand_distr::{Distribution, Zipf};

/// Cardinalities of the 26 categorical features of the Criteo Kaggle
/// display-advertising dataset (the embedding-table row counts of
/// *DLRM_MLPerf*; the largest is ≈10 M, "up to 14 M" with the full dataset).
pub const KAGGLE_TABLE_ROWS: [u64; 26] = [
    1_460, 583, 10_131_227, 2_202_608, 305, 24, 12_517, 633, 3, 93_145, 5_683, 8_351_593, 3_194,
    27, 14_992, 5_461_306, 10, 5_652, 2_173, 4, 7_046_547, 18, 15, 286_181, 105, 142_572,
];

/// Index-stream skew.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum IndexDistribution {
    /// Uniform over the table.
    Uniform,
    /// Zipf with the given exponent (> 0); real CTR categorical features are
    /// heavily skewed.
    Zipf(f64),
}

/// A seeded generator of synthetic categorical index batches.
#[derive(Debug)]
pub struct IndexGenerator {
    rows_per_table: Vec<u64>,
    lookups: u64,
    distribution: IndexDistribution,
    rng: StdRng,
}

impl IndexGenerator {
    /// Creates a generator for the given tables, pooling factor, and skew.
    ///
    /// # Panics
    /// Panics if any table is empty, `lookups` is zero, or a non-positive
    /// Zipf exponent is requested.
    pub fn new(
        rows_per_table: &[u64],
        lookups: u64,
        distribution: IndexDistribution,
        seed: u64,
    ) -> Self {
        assert!(!rows_per_table.is_empty() && rows_per_table.iter().all(|&r| r > 0));
        assert!(lookups > 0, "lookups per sample must be positive");
        if let IndexDistribution::Zipf(s) = distribution {
            assert!(s > 0.0, "Zipf exponent must be positive");
        }
        IndexGenerator {
            rows_per_table: rows_per_table.to_vec(),
            lookups,
            distribution,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Generates one batch: `indices[table][sample * lookups + j]`, each in
    /// `0..rows_per_table[table]`.
    pub fn batch(&mut self, batch_size: u64) -> Vec<Vec<u64>> {
        self.rows_per_table
            .clone()
            .iter()
            .map(|&rows| {
                (0..batch_size * self.lookups)
                    .map(|_| match self.distribution {
                        IndexDistribution::Uniform => self.rng.gen_range(0..rows),
                        IndexDistribution::Zipf(s) => {
                            let z = Zipf::new(rows, s).expect("valid zipf");
                            (z.sample(&mut self.rng) as u64)
                                .saturating_sub(1)
                                .min(rows - 1)
                        }
                    })
                    .collect()
            })
            .collect()
    }

    /// Fraction of *distinct* rows touched in a batch, per table — the
    /// locality statistic the embedding-lookup cache model depends on.
    pub fn distinct_fraction(&mut self, batch_size: u64) -> Vec<f64> {
        self.batch(batch_size)
            .into_iter()
            .map(|idx| {
                let total = idx.len() as f64;
                let mut unique = idx;
                unique.sort_unstable();
                unique.dedup();
                unique.len() as f64 / total
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kaggle_tables_shape() {
        assert_eq!(KAGGLE_TABLE_ROWS.len(), 26);
        assert!(KAGGLE_TABLE_ROWS.iter().all(|&r| r >= 3));
        assert_eq!(KAGGLE_TABLE_ROWS.iter().max(), Some(&10_131_227));
    }

    #[test]
    fn batch_indices_in_range() {
        let mut gen = IndexGenerator::new(&[100, 10], 4, IndexDistribution::Uniform, 1);
        let batch = gen.batch(16);
        assert_eq!(batch.len(), 2);
        assert_eq!(batch[0].len(), 64);
        assert!(batch[0].iter().all(|&i| i < 100));
        assert!(batch[1].iter().all(|&i| i < 10));
    }

    #[test]
    fn zipf_is_more_concentrated_than_uniform() {
        let rows = [100_000u64];
        let mut uni = IndexGenerator::new(&rows, 1, IndexDistribution::Uniform, 7);
        let mut zip = IndexGenerator::new(&rows, 1, IndexDistribution::Zipf(1.2), 7);
        let u = uni.distinct_fraction(4096)[0];
        let z = zip.distinct_fraction(4096)[0];
        assert!(z < u, "zipf distinct {z} should be below uniform {u}");
    }

    #[test]
    fn deterministic_given_seed() {
        let mk = || IndexGenerator::new(&[1000], 2, IndexDistribution::Uniform, 42).batch(8);
        assert_eq!(mk(), mk());
    }

    #[test]
    #[should_panic(expected = "lookups per sample")]
    fn zero_lookups_panics() {
        IndexGenerator::new(&[10], 0, IndexDistribution::Uniform, 0);
    }
}
