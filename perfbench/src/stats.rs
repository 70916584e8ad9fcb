//! Order statistics over the benchmark's samples.

/// Linearly interpolated quantile of `values` at `q` in `[0, 1]`; 0 for
/// an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The highest percentile on a fixed ladder that leaves at least ten of
/// `samples` beyond it. Tied to a workload's fixed sample count, not to
/// the count a run happens to reach, so every run reports the same
/// percentile.
pub fn tail_percentile(samples: usize) -> f64 {
    const LADDER: [f64; 9] = [99.9, 99.5, 99.0, 98.0, 97.5, 95.0, 90.0, 75.0, 50.0];
    LADDER.into_iter().find(|p| samples as f64 * (100.0 - p) / 100.0 >= 10.0 - 1e-6).unwrap_or(50.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_percentile_leaves_ten_samples_beyond() {
        assert_eq!(tail_percentile(10_000), 99.9);
        assert_eq!(tail_percentile(1_000), 99.0);
        assert_eq!(tail_percentile(600), 98.0);
        assert_eq!(tail_percentile(40), 75.0);
        assert_eq!(tail_percentile(5), 50.0);
    }
}
