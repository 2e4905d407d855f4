//! Small exact-statistics helpers (percentiles, weighted means).

/// Exact p-th percentile (0–100) using the nearest-rank method.
pub fn percentile_u32(vals: &mut [u32], p: f64) -> u32 {
    if vals.is_empty() {
        return 0;
    }
    let p = p.clamp(0.0, 100.0);
    let rank = ((p / 100.0) * vals.len() as f64).ceil().max(1.0) as usize - 1;
    let rank = rank.min(vals.len() - 1);
    *vals.select_nth_unstable(rank).1
}

/// Weighted average: `sum(v * w) / sum(w)` (0 when weights sum to 0).
pub fn weighted_mean(pairs: impl Iterator<Item = (f64, f64)>) -> f64 {
    let (mut num, mut den) = (0.0, 0.0);
    for (v, w) in pairs {
        num += v * w;
        den += w;
    }
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
    fn percentiles() {
        let mut v: Vec<u32> = (1..=100).collect();
        assert_eq!(percentile_u32(&mut v, 50.0), 50);
        assert_eq!(percentile_u32(&mut v, 100.0), 100);
        assert_eq!(percentile_u32(&mut v, 1.0), 1);
        assert_eq!(percentile_u32(&mut v, 0.0), 1);
        assert_eq!(percentile_u32(&mut [], 50.0), 0);
    }

    #[test]
    fn weighted_mean_basics() {
        assert_eq!(weighted_mean(std::iter::empty()), 0.0);
        let wm = weighted_mean([(1.0, 1.0), (10.0, 3.0)].into_iter());
        assert!((wm - 7.75).abs() < 1e-12);
    }
}
