//! Sortedness metrics and the Wilson interval for sorted fractions.

/// Number of inversions (Kendall-tau distance to the sorted order).
/// `O(n log n)` merge-count.
pub fn inversions(v: &[u32]) -> u64 {
    fn rec(v: &mut Vec<u32>, buf: &mut Vec<u32>, lo: usize, hi: usize) -> u64 {
        if hi - lo <= 1 {
            return 0;
        }
        let mid = (lo + hi) / 2;
        let mut inv = rec(v, buf, lo, mid) + rec(v, buf, mid, hi);
        buf.clear();
        let (mut i, mut j) = (lo, mid);
        while i < mid && j < hi {
            if v[i] <= v[j] {
                buf.push(v[i]);
                i += 1;
            } else {
                inv += (mid - i) as u64;
                buf.push(v[j]);
                j += 1;
            }
        }
        buf.extend_from_slice(&v[i..mid]);
        buf.extend_from_slice(&v[j..hi]);
        v[lo..hi].copy_from_slice(buf);
        inv
    }
    let mut work = v.to_vec();
    let mut buf = Vec::with_capacity(v.len());
    rec(&mut work, &mut buf, 0, v.len())
}

/// Maximum dislocation: `max_i |v[i] − i|` for a permutation of `0..n`.
pub fn max_dislocation(v: &[u32]) -> u32 {
    v.iter()
        .enumerate()
        .map(|(i, &x)| (x as i64 - i as i64).unsigned_abs() as u32)
        .max()
        .unwrap_or(0)
}

/// Mean dislocation.
pub fn mean_dislocation(v: &[u32]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let total: u64 = v.iter().enumerate().map(|(i, &x)| (x as i64 - i as i64).unsigned_abs()).sum();
    total as f64 / v.len() as f64
}

/// Wilson 95% confidence interval for a binomial proportion — the right
/// interval for fraction-sorted estimates near 0 or 1.
pub fn wilson95(successes: u64, trials: u64) -> (f64, f64) {
    if trials == 0 {
        return (0.0, 1.0);
    }
    let z = 1.96f64;
    let n = trials as f64;
    let p = successes as f64 / n;
    let z2 = z * z;
    let denom = 1.0 + z2 / n;
    let center = (p + z2 / (2.0 * n)) / denom;
    let half = (z / denom) * ((p * (1.0 - p) / n + z2 / (4.0 * n * n)).sqrt());
    ((center - half).max(0.0), (center + half).min(1.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inversions_basics() {
        assert_eq!(inversions(&[]), 0);
        assert_eq!(inversions(&[1]), 0);
        assert_eq!(inversions(&[0, 1, 2, 3]), 0);
        assert_eq!(inversions(&[3, 2, 1, 0]), 6);
        assert_eq!(inversions(&[1, 0, 3, 2]), 2);
    }

    #[test]
    fn inversions_matches_quadratic_reference() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        for _ in 0..50 {
            let n = rng.gen_range(0..40);
            let v: Vec<u32> = (0..n).map(|_| rng.gen_range(0..50)).collect();
            let quad = v
                .iter()
                .enumerate()
                .flat_map(|(i, &x)| v[i + 1..].iter().map(move |&y| (x, y)))
                .filter(|(x, y)| x > y)
                .count() as u64;
            assert_eq!(inversions(&v), quad);
        }
    }

    #[test]
    fn dislocation_metrics() {
        assert_eq!(max_dislocation(&[0, 1, 2]), 0);
        assert_eq!(max_dislocation(&[2, 1, 0]), 2);
        assert!((mean_dislocation(&[2, 1, 0]) - 4.0 / 3.0).abs() < 1e-12);
        assert_eq!(mean_dislocation(&[]), 0.0);
    }

    #[test]
    fn wilson_interval_sane() {
        let (lo, hi) = wilson95(0, 100);
        assert!(lo < 1e-9);
        assert!(hi < 0.05);
        let (lo, hi) = wilson95(100, 100);
        assert!(lo > 0.95);
        assert!(hi > 1.0 - 1e-9);
        let (lo, hi) = wilson95(50, 100);
        assert!(lo < 0.5 && 0.5 < hi);
        assert_eq!(wilson95(0, 0), (0.0, 1.0));
    }
}
