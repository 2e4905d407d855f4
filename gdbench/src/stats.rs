//! Exact sorted-rank quantiles over raw samples — never histogram buckets.

/// Median of `xs` (mean of the two middle ranks for an even count);
/// 0 for no samples.
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The tail the sample supports: p90 where there are at least 100
/// samples, otherwise the highest rank with ten samples beyond it, and
/// the maximum when there are ten or fewer.
pub fn tail(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n >= 100 => v[(n * 9).div_ceil(10) - 1],
        n if n > 10 => v[n - 11],
        n => v[n - 1],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_is_the_middle_rank() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond_it() {
        let xs: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(tail(&xs), 180.0);
        let xs: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(tail(&xs), 30.0);
        assert_eq!(tail(&[5.0, 9.0]), 9.0);
    }
}
