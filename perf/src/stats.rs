//! Order statistics over latency samples.

/// Nearest-rank percentile of an ascending `sorted` slice at `q` in
/// `[0, 1]`: the sample of rank `ceil(q · n)` (rank 1 is the minimum).
/// `None` when there are no samples.
pub fn percentile(sorted: &[u64], q: f64) -> Option<u64> {
    if sorted.is_empty() {
        return None;
    }
    let n = sorted.len();
    let rank = ((q.clamp(0.0, 1.0) * n as f64).ceil() as usize).clamp(1, n);
    Some(sorted[rank - 1])
}

/// Median of `values` (mean of the two middle values for an even count);
/// `None` when empty. Reorders `values`.
pub fn median(values: &mut [f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    Some(if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    })
}

/// `num / den`, or 0 when nothing was counted (`den == 0`).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_of_no_samples_is_none() {
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(percentile(&[], 0.99), None);
    }

    #[test]
    fn percentile_of_one_sample_is_that_sample() {
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(percentile(&[7], q), Some(7));
        }
    }

    #[test]
    fn percentile_on_tiny_samples_uses_nearest_rank() {
        assert_eq!(percentile(&[1, 2], 0.5), Some(1));
        assert_eq!(percentile(&[1, 2], 0.99), Some(2));
        assert_eq!(percentile(&[1, 2, 3], 0.5), Some(2));
        assert_eq!(percentile(&[1, 2, 3], 0.0), Some(1));
        // Out-of-range quantiles clamp instead of indexing out of bounds.
        assert_eq!(percentile(&[1, 2, 3], 1.5), Some(3));
        assert_eq!(percentile(&[1, 2, 3], -1.0), Some(1));
    }

    #[test]
    fn p99_of_a_hundred_samples_is_the_99th() {
        let samples: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&samples, 0.99), Some(99));
        assert_eq!(percentile(&samples, 0.50), Some(50));
    }

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&mut []), None);
        assert_eq!(median(&mut [3.0]), Some(3.0));
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn ratio_of_nothing_is_zero() {
        assert_eq!(ratio(5.0, 0.0), 0.0);
        assert_eq!(ratio(6.0, 3.0), 2.0);
    }
}
