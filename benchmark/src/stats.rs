//! Order statistics for the benchmark's reported numbers.
//!
//! Everything here works on `f64` samples that are finite by
//! construction (durations and counts), so `total_cmp` ordering is the
//! numeric one.

/// Sorts samples ascending in place.
pub fn sort(values: &mut [f64]) {
    values.sort_by(f64::total_cmp);
}

/// The nearest-rank `q`-quantile of an ascending slice: the smallest
/// sample with at least `q · n` samples at or below it.
///
/// # Panics
///
/// On an empty slice or `q` outside `[0, 1]` — both are harness bugs.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0, 1]");
    sorted[rank(sorted.len(), q) - 1]
}

/// The 1-based nearest rank of the `q`-quantile among `n >= 1` samples.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// The median of unsorted samples (mean of the two middle samples when
/// the count is even). Sorts its argument.
pub fn median(values: &mut [f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    sort(values);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// The geometric mean of strictly positive samples.
pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geomean of no samples");
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    (log_sum / values.len() as f64).exp()
}

/// The fewest samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// How many of `n` samples lie beyond their nearest-rank `q`-quantile.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, q)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&[7.0], 0.8), 7.0);
    }

    #[test]
    fn median_handles_even_and_odd_counts() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&mut [9.0]), 9.0);
    }

    #[test]
    fn geomean_weights_every_sample_equally() {
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
        assert!((geomean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
        // One slow cell moves the geomean far less than the sum.
        assert!(geomean(&[1.0, 1.0, 1.0, 1000.0]) < 6.0);
    }

    #[test]
    fn samples_beyond_a_quantile_are_counted_by_rank() {
        assert_eq!(samples_beyond(66, 0.8), 13);
        assert_eq!(samples_beyond(20, 0.8), 4);
        assert_eq!(samples_beyond(8, 0.75), 2);
        assert_eq!(samples_beyond(7920, 0.99), 79);
        assert_eq!(samples_beyond(5, 1.0), 0);
        assert_eq!(samples_beyond(0, 0.5), 0);
        // It is the count `quantile` leaves above the value it returns.
        let v: Vec<f64> = (1..=23).map(f64::from).collect();
        let at = quantile(&v, 0.8);
        assert_eq!(
            v.iter().filter(|&&x| x > at).count(),
            samples_beyond(23, 0.8)
        );
    }
}
