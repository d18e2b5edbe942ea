//! Order statistics used by every workload.
//!
//! Timings are reported as medians; tails follow the percentile rule:
//! a percentile is reported only when at least [`MIN_BEYOND`] samples
//! lie beyond it, otherwise the highest percentile of the ladder that
//! the sample does support is reported in its place.

/// Samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// The percentile ladder, ascending.
const LADDER: [f64; 5] = [0.5, 0.9, 0.99, 0.999, 0.9999];

/// Median of `values` (mean of the middle pair for an even count);
/// NaN when empty. Sorts a copy, so infinities sort last.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Nearest-rank position of quantile `q` among `n` samples: the
/// 0-based index of the smallest sample with at least `q·n` samples at
/// or below it.
fn rank(n: usize, q: f64) -> usize {
    let r = (q * n as f64).ceil() as usize;
    r.clamp(1, n) - 1
}

/// Samples strictly beyond the nearest-rank `q` quantile of `n`.
pub fn beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - 1 - rank(n, q)
    }
}

/// The highest ladder percentile with at least [`MIN_BEYOND`] samples
/// beyond it, or `None` when even the median is unsupported.
pub fn highest_supported(n: usize) -> Option<f64> {
    LADDER
        .iter()
        .rev()
        .copied()
        .find(|&q| beyond(n, q) >= MIN_BEYOND)
}

/// A tail percentile under the percentile rule: `wanted` if the sample
/// supports it, else the highest supported ladder percentile. Returns
/// the percentile actually used and its nearest-rank value from the
/// ascending `sorted` samples (which may hold `+inf` for failures), or
/// `None` when the sample supports no percentile at all.
pub fn tail(sorted: &[f64], wanted: f64) -> Option<(f64, f64)> {
    let q = highest_supported(sorted.len())?.min(wanted);
    Some((q, sorted[rank(sorted.len(), q)]))
}

/// Sorts samples ascending, infinities last.
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        // 1000 samples: exactly 10 lie beyond p99, so p99 is supported
        // and p999 (0 beyond) is not.
        assert_eq!(beyond(1000, 0.99), 10);
        assert_eq!(highest_supported(1000), Some(0.99));
        // One fewer and p99 has only 9 beyond: fall back to p90.
        assert_eq!(beyond(999, 0.99), 9);
        assert_eq!(highest_supported(999), Some(0.9));
        // 20 samples support the median (10 beyond) and nothing more.
        assert_eq!(highest_supported(20), Some(0.5));
        assert_eq!(highest_supported(19), None);
        assert_eq!(highest_supported(10_000), Some(0.999));
    }

    #[test]
    fn tail_falls_back_and_counts_failures_at_infinity() {
        let mut values: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&values, 0.99), Some((0.99, 990.0)));
        assert_eq!(tail(&values, 0.5), Some((0.5, 500.0)));
        // Asking for p999 on 1000 samples reports p99 instead.
        assert_eq!(tail(&values, 0.999), Some((0.99, 990.0)));
        // Failures sit at +inf: with 11 of them p99 is infinite.
        values.truncate(989);
        values.extend(std::iter::repeat_n(f64::INFINITY, 11));
        let values = sorted(values);
        assert_eq!(tail(&values, 0.99).map(|t| t.1), Some(f64::INFINITY));
        assert!(tail(&values[..5], 0.5).is_none());
    }
}
