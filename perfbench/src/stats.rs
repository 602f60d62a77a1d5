//! Order statistics: the percentile rule every timing in the report uses.

/// The nearest-rank `p`-th percentile of an ascending sample: the
/// smallest value with at least `p` % of the sample at or below it. The
/// median of an even-sized sample is therefore its lower middle value.
///
/// # Panics
///
/// On an empty sample or `p` outside `(0, 100]`.
#[must_use]
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    assert!(p > 0.0 && p <= 100.0, "percentile {p} outside (0, 100]");
    sorted[rank(sorted.len(), p) - 1]
}

/// The 1-based nearest rank of the `p`-th percentile in a sample of `n`.
#[allow(
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    clippy::cast_precision_loss
)]
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// How many of `n` samples lie above their `p`-th percentile. A
/// percentile is supported by the sample when at least ten do.
#[must_use]
pub fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, p)
    }
}

/// The median of an unsorted sample (nearest rank).
///
/// # Panics
///
/// On an empty sample.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile(&sorted, 50.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_the_nearest_rank() {
        let sample: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&sample, 50.0), 50.0);
        assert_eq!(percentile(&sample, 99.0), 99.0);
        assert_eq!(percentile(&sample, 100.0), 100.0);
        assert_eq!(percentile(&sample, 0.5), 1.0);
        // Lower middle for an even count, the middle for an odd one.
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        // One sample is every percentile.
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn p99_needs_a_thousand_samples_for_ten_beyond_it() {
        assert_eq!(beyond(1000, 99.0), 10);
        assert_eq!(beyond(999, 99.0), 9);
        assert_eq!(beyond(100, 50.0), 50);
        assert_eq!(beyond(0, 99.0), 0);
    }
}
