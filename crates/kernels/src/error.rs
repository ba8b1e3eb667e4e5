//! Prediction-error statistics: the GMAE / mean / std columns of Table IV.

/// Error statistics over a set of (prediction, actual) pairs, as absolute
/// relative errors.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ErrorStats {
    /// Geometric mean of the absolute relative errors (the paper's GMAE).
    pub gmae: f64,
    /// Arithmetic mean of the absolute relative errors.
    pub mean: f64,
    /// Standard deviation of the absolute relative errors.
    pub std: f64,
    /// Number of pairs.
    pub count: usize,
}

/// Why a set of (prediction, actual) pairs cannot yield error statistics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ErrorStatsError {
    /// The two slices have different lengths.
    LengthMismatch {
        /// Number of predictions.
        pred: usize,
        /// Number of ground-truth values.
        actual: usize,
    },
    /// No pairs were given.
    Empty,
    /// An actual value was zero or negative (relative error undefined).
    NonPositiveActual {
        /// Index of the offending pair.
        index: usize,
        /// The offending actual value.
        value: f64,
    },
}

impl std::fmt::Display for ErrorStatsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ErrorStatsError::LengthMismatch { pred, actual } => {
                write!(
                    f,
                    "paired slices must match: {pred} predictions vs {actual} actuals"
                )
            }
            ErrorStatsError::Empty => write!(f, "need at least one pair"),
            ErrorStatsError::NonPositiveActual { index, value } => {
                write!(f, "actual values must be positive: pair {index} is {value}")
            }
        }
    }
}

impl std::error::Error for ErrorStatsError {}

impl ErrorStats {
    /// Computes error statistics from paired predictions and ground truth.
    ///
    /// # Errors
    /// Returns [`ErrorStatsError`] if the slices differ in length, are
    /// empty, or an actual value is not positive.
    pub fn try_from_pairs(pred: &[f64], actual: &[f64]) -> Result<Self, ErrorStatsError> {
        if pred.len() != actual.len() {
            return Err(ErrorStatsError::LengthMismatch {
                pred: pred.len(),
                actual: actual.len(),
            });
        }
        if pred.is_empty() {
            return Err(ErrorStatsError::Empty);
        }
        let mut errs = Vec::with_capacity(pred.len());
        for (i, (p, a)) in pred.iter().zip(actual).enumerate() {
            if *a <= 0.0 {
                return Err(ErrorStatsError::NonPositiveActual {
                    index: i,
                    value: *a,
                });
            }
            errs.push(((p - a) / a).abs().max(1e-9));
        }
        let n = errs.len() as f64;
        let mean = errs.iter().sum::<f64>() / n;
        let std = (errs.iter().map(|e| (e - mean).powi(2)).sum::<f64>() / n).sqrt();
        let gmae = (errs.iter().map(|e| e.ln()).sum::<f64>() / n).exp();
        Ok(ErrorStats {
            gmae,
            mean,
            std,
            count: errs.len(),
        })
    }

    /// Computes error statistics from paired predictions and ground truth.
    ///
    /// Thin panicking wrapper over [`ErrorStats::try_from_pairs`] for
    /// contexts where malformed pairs are a programming error.
    ///
    /// # Panics
    /// Panics if the slices differ in length, are empty, or an actual value
    /// is not positive.
    pub fn from_pairs(pred: &[f64], actual: &[f64]) -> Self {
        Self::try_from_pairs(pred, actual).unwrap_or_else(|e| panic!("{e}"))
    }
}

impl std::fmt::Display for ErrorStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "GMAE {:.2}% mean {:.2}% std {:.2}% (n={})",
            self.gmae * 100.0,
            self.mean * 100.0,
            self.std * 100.0,
            self.count
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_prediction_is_zero_error() {
        let s = ErrorStats::from_pairs(&[1.0, 2.0, 3.0], &[1.0, 2.0, 3.0]);
        assert!(s.gmae < 1e-8);
        assert!(s.mean < 1e-8);
    }

    #[test]
    fn known_errors() {
        // +10% and -10% errors: GMAE = mean = 10%.
        let s = ErrorStats::from_pairs(&[1.1, 0.9], &[1.0, 1.0]);
        assert!((s.gmae - 0.1).abs() < 1e-9);
        assert!((s.mean - 0.1).abs() < 1e-9);
        assert!(s.std < 1e-9);
    }

    #[test]
    fn gmae_below_mean_for_skewed_errors() {
        // One large outlier: the geometric mean is robust, the mean is not.
        let s = ErrorStats::from_pairs(&[1.01, 1.01, 1.01, 3.0], &[1.0; 4]);
        assert!(s.gmae < s.mean);
    }

    #[test]
    fn try_from_pairs_reports_typed_errors() {
        assert_eq!(
            ErrorStats::try_from_pairs(&[1.0], &[1.0, 2.0]),
            Err(ErrorStatsError::LengthMismatch { pred: 1, actual: 2 })
        );
        assert_eq!(
            ErrorStats::try_from_pairs(&[], &[]),
            Err(ErrorStatsError::Empty)
        );
        assert_eq!(
            ErrorStats::try_from_pairs(&[1.0, 2.0], &[1.0, -3.0]),
            Err(ErrorStatsError::NonPositiveActual {
                index: 1,
                value: -3.0
            })
        );
    }

    #[test]
    fn try_from_pairs_matches_panicking_wrapper() {
        let (p, a) = ([1.1, 0.9, 2.0], [1.0, 1.0, 2.5]);
        assert_eq!(
            ErrorStats::try_from_pairs(&p, &a).unwrap(),
            ErrorStats::from_pairs(&p, &a)
        );
    }

    #[test]
    #[should_panic(expected = "must match")]
    fn mismatched_lengths_panic() {
        ErrorStats::from_pairs(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_actual_panics() {
        ErrorStats::from_pairs(&[1.0], &[0.0]);
    }
}
