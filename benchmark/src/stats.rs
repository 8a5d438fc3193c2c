//! The ledger's own arithmetic: percentile selection and the sample-count
//! rule that decides which percentile a sample supports.

/// Nearest-rank percentile of an ascending-sorted sample: the smallest value
/// with at least `q` of the sample at or below it.
pub fn percentile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    assert!((0.0..=1.0).contains(&q), "percentile rank outside [0, 1]");
    // 0.9 × 100 is 90.00000000000001 in binary; do not let that round up.
    let rank = (q * sorted.len() as f64 - 1e-9).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sort in place (NaN-free input) and return the nearest-rank percentile.
pub fn percentile(values: &mut [f64], q: f64) -> f64 {
    values.sort_by(|a, b| a.partial_cmp(b).expect("NaN in a sample"));
    percentile_sorted(values, q)
}

/// Median as the mean of the two middle values for even counts, so the
/// median of a few repetitions does not jump with which one is picked.
pub fn median(values: &mut [f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    values.sort_by(|a, b| a.partial_cmp(b).expect("NaN in a sample"));
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// The sample-count rule: a percentile is reported only when at least ten
/// samples lie beyond it. Returns the highest of p50/p90/p99/p99.9 the
/// sample supports (0.0 when even the median is unsupported).
pub fn highest_supported_percentile(samples: usize) -> f64 {
    [999usize, 990, 900, 500]
        .into_iter()
        .find(|per_mille| samples * (1000 - per_mille) / 1000 >= 10)
        .map_or(0.0, |per_mille| per_mille as f64 / 1000.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_the_documented_element() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile_sorted(&v, 0.5), 5.0);
        assert_eq!(percentile_sorted(&v, 0.9), 9.0);
        assert_eq!(percentile_sorted(&v, 0.91), 10.0);
        assert_eq!(percentile_sorted(&v, 1.0), 10.0);
        assert_eq!(percentile_sorted(&v, 0.0), 1.0);
        assert_eq!(percentile_sorted(&[7.0], 0.99), 7.0);
        let c: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_sorted(&c, 0.9), 90.0);
        assert_eq!(percentile_sorted(&c, 0.99), 99.0);
    }

    #[test]
    fn percentile_sorts_first() {
        let mut v = vec![9.0, 1.0, 5.0, 3.0];
        assert_eq!(percentile(&mut v, 0.5), 3.0);
        assert_eq!(percentile(&mut v, 0.75), 5.0);
    }

    #[test]
    fn median_interpolates_even_counts() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&mut [8.0]), 8.0);
    }

    #[test]
    fn sample_count_rule_needs_ten_beyond() {
        assert_eq!(highest_supported_percentile(19), 0.0);
        assert_eq!(highest_supported_percentile(20), 0.5);
        assert_eq!(highest_supported_percentile(99), 0.5);
        assert_eq!(highest_supported_percentile(100), 0.9);
        assert_eq!(highest_supported_percentile(999), 0.9);
        assert_eq!(highest_supported_percentile(1000), 0.99);
        assert_eq!(highest_supported_percentile(10_000), 0.999);
    }
}
