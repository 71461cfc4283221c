//! Order statistics over exact samples.

/// Fewest samples that must lie strictly beyond a reported percentile.
/// With fewer, the figure would be decided by a handful of outliers, so it
/// is not reported at all.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank `q`-quantile (`q` in `[0, 1]`) of `samples`, or `None` when
/// fewer than [`MIN_BEYOND`] samples lie beyond it (p99 therefore needs at
/// least 1000 samples, p50 at least 20).
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    let n = samples.len();
    if n == 0 {
        return None;
    }
    let rank = ((q.clamp(0.0, 1.0) * n as f64).ceil() as usize).clamp(1, n);
    if n - rank < MIN_BEYOND {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank - 1])
}

/// Median (mean of the two middle values for even counts); `NaN` when empty.
pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        // p99 of 999 samples would leave only 9 beyond it.
        assert_eq!(percentile(&ramp(999), 0.99), None);
        assert_eq!(percentile(&ramp(1000), 0.99), Some(990.0));
        assert_eq!(percentile(&ramp(19), 0.5), None);
        assert_eq!(percentile(&ramp(20), 0.5), Some(10.0));
        assert_eq!(percentile(&[], 0.5), None);
        // Every sample equal: still only reported with enough beyond.
        assert_eq!(percentile(&[3.0; 70], 0.99), None);
    }

    #[test]
    fn percentile_ignores_input_order() {
        let mut shuffled: Vec<f64> = ramp(2000);
        shuffled.reverse();
        assert_eq!(percentile(&shuffled, 0.5), Some(1000.0));
        assert_eq!(percentile(&shuffled, 0.99), Some(1980.0));
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }
}
