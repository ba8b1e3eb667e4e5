//! Order statistics for reported timings.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
//! default "exclusive" method), so the spreads this benchmark prints can
//! be checked against the same computation done on its output.

/// The median of `xs` (mean of the middle two for an even count).
///
/// # Panics
/// Panics on an empty slice: a metric with no samples is a benchmark bug.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// The three quartile cut points of `xs`, exactly as Python's
/// `statistics.quantiles(xs, n=4)` computes them.
///
/// # Panics
/// Panics with fewer than two samples (Python raises there too).
pub fn quartiles(xs: &[f64]) -> [f64; 3] {
    assert!(xs.len() >= 2, "quartiles need at least two samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        // Python clamps the lower index to 1..=len-1 first and lets the
        // interpolation weight leave [0, 4], extrapolating from the end
        // points on tiny samples.
        let j = (i * m / 4).clamp(1, v.len() - 1);
        let delta = (i * m) as f64 - (4 * j) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// Interquartile range over the median: the spread the acceptance check
/// compares against each metric's bound.
pub fn iqr_over_median(xs: &[f64]) -> f64 {
    let [q1, _, q3] = quartiles(xs);
    (q3 - q1) / median(xs)
}

/// The `p`-th percentile (0 < p < 100) by the nearest-rank rule: the
/// smallest sample with at least `p`% of the samples at or below it.
///
/// # Panics
/// Panics on an empty slice or a `p` outside (0, 100).
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    assert!(!xs.is_empty(), "percentile of no samples");
    assert!(p > 0.0 && p < 100.0, "percentile {p} out of range");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = nearest_rank(v.len(), p);
    v[rank.clamp(1, v.len()) - 1]
}

/// `ceil(p% of n)`, with a tolerance so that a decimal `p` such as 99.9
/// does not round one rank too high.
fn nearest_rank(n: usize, p: f64) -> usize {
    (p * n as f64 / 100.0 - 1e-9).ceil() as usize
}

/// Samples strictly beyond the `p`-th percentile's rank.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n.saturating_sub(nearest_rank(n, p).max(1))
}

/// The highest of `candidates` (ascending percentiles) that leaves at
/// least ten samples beyond it out of `n` — the tail this benchmark is
/// willing to report. `None` when even the lowest leaves fewer.
pub fn highest_reportable(n: usize, candidates: &[f64]) -> Option<f64> {
    candidates
        .iter()
        .copied()
        .filter(|&p| samples_beyond(n, p) >= 10)
        .reduce(f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), [2.75, 5.5, 8.25]);
        // statistics.quantiles([4, 1, 3, 2], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 1.0, 3.0, 2.0]), [1.25, 2.5, 3.75]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
    }

    #[test]
    fn iqr_is_relative_to_the_median() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_over_median(&xs) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(iqr_over_median(&[7.0; 10]), 0.0);
    }

    #[test]
    fn median_handles_both_parities() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 100.0);
        assert_eq!(percentile(&xs, 90.0), 180.0);
        assert_eq!(samples_beyond(200, 90.0), 20);
        assert_eq!(samples_beyond(200, 99.0), 2);
    }

    #[test]
    fn a_percentile_is_reported_only_with_ten_samples_beyond_it() {
        let ladder = [50.0, 90.0, 99.0, 99.9];
        assert_eq!(highest_reportable(19, &ladder), None);
        assert_eq!(highest_reportable(20, &ladder), Some(50.0));
        assert_eq!(highest_reportable(99, &ladder), Some(50.0));
        assert_eq!(highest_reportable(100, &ladder), Some(90.0));
        assert_eq!(highest_reportable(600, &ladder), Some(90.0));
        assert_eq!(highest_reportable(999, &ladder), Some(90.0));
        assert_eq!(highest_reportable(1000, &ladder), Some(99.0));
        assert_eq!(highest_reportable(10_000, &ladder), Some(99.9));
    }
}
