//! Order statistics over samples: medians, quartiles and tail
//! percentiles, computed the same way Python's `statistics` module does so
//! the benchmark's own summaries agree with an outside check.

/// Median of `xs` (mean of the two middle values for even lengths).
/// Returns `NaN` for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let s = sorted(xs);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// First and third quartiles by `statistics.quantiles(xs, n=4)`'s default
/// exclusive method. Needs at least two samples.
pub fn quartiles(xs: &[f64]) -> Option<(f64, f64)> {
    if xs.len() < 2 {
        return None;
    }
    let s = sorted(xs);
    let q = |i: usize| -> f64 {
        let (n, ld) = (4usize, s.len());
        let m = ld + 1;
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        (s[j - 1] * (n as f64 - delta) + s[j] * delta) / n as f64
    };
    Some((q(1), q(3)))
}

/// Interquartile range as a share of the median.
pub fn iqr_share(xs: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(xs)?;
    Some((q3 - q1) / median(xs))
}

/// Nearest-rank percentile: the smallest sample with at least `p` of the
/// samples at or below it. Infinite samples (failed requests) sort last.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let s = sorted(xs);
    let rank = (p * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// The highest percentile (a fraction) that leaves at least `beyond`
/// samples above it, or `None` when there are too few samples.
pub fn tail_fraction(n: usize, beyond: usize) -> Option<f64> {
    (n > beyond).then(|| 1.0 - beyond as f64 / n as f64)
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_lengths() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12], n=4)
        // == [3.25, 6.5, 9.75]
        let xs: Vec<f64> = (1..=12).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some((3.25, 9.75)));
        // statistics.quantiles([5, 1], n=4) == [0.0, 3.0, 6.0]
        assert_eq!(quartiles(&[5.0, 1.0]), Some((0.0, 6.0)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn iqr_share_is_relative_to_the_median() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        let share = iqr_share(&xs).expect("enough samples");
        assert!((share - (8.25 - 2.75) / 5.5).abs() < 1e-12);
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        // 1000 samples 1..=1000: nearest-rank p99 is 990, with exactly ten
        // samples (991..=1000) beyond it.
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.99), 990.0);
        assert_eq!(xs.iter().filter(|&&x| x > 990.0).count(), 10);
        assert_eq!(tail_fraction(1000, 10), Some(0.99));
        assert_eq!(tail_fraction(10, 10), None);
        assert_eq!(percentile(&xs, 0.5), 500.0);
    }

    #[test]
    fn failed_samples_count_as_over_any_limit() {
        let mut xs: Vec<f64> = (1..=100).map(f64::from).collect();
        xs[0] = f64::INFINITY;
        assert_eq!(percentile(&xs, 1.0), f64::INFINITY);
        assert_eq!(percentile(&xs, 0.99), 100.0);
    }
}
