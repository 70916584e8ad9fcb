//! Seeded workload generators for the experiments.

use rand::SeedableRng;
use snet_core::perm::Permutation;

/// A reproducible workload source. All experiment binaries print the seed
/// they use so every table is regenerable.
#[derive(Debug)]
pub struct Workload {
    rng: rand::rngs::StdRng,
}

impl Workload {
    /// Creates a workload source from a seed.
    pub fn new(seed: u64) -> Self {
        Workload { rng: rand::rngs::StdRng::seed_from_u64(seed) }
    }

    /// A uniformly random permutation of `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<u32> {
        Permutation::random(n, &mut self.rng).images().to_vec()
    }

    /// `count` random permutations.
    pub fn permutations(&mut self, n: usize, count: usize) -> Vec<Vec<u32>> {
        (0..count).map(|_| self.permutation(n)).collect()
    }

    /// Access to the underlying RNG for ad-hoc sampling.
    pub fn rng(&mut self) -> &mut rand::rngs::StdRng {
        &mut self.rng
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let mut a = Workload::new(7);
        let mut b = Workload::new(7);
        assert_eq!(a.permutation(32), b.permutation(32));
        assert_eq!(a.permutations(8, 3), b.permutations(8, 3));
    }

    #[test]
    fn permutations_are_permutations() {
        let mut w = Workload::new(1);
        for p in w.permutations(20, 10) {
            let mut s = p.clone();
            s.sort_unstable();
            assert_eq!(s, (0..20).collect::<Vec<u32>>());
        }
    }
}
