//! Deciding and refuting the sorting property.
//!
//! A comparator network *sorts* if it maps every input permutation to the
//! sorted order; equivalently (0-1 principle, cited in Section 5 of the
//! paper) if it sorts all `2ⁿ` inputs over `{0,1}`. This module provides:
//!
//! * exhaustive 0-1 verification (feasible to n ≈ 24),
//! * exhaustive permutation verification (tiny n, used to cross-validate
//!   the 0-1 principle itself),
//! * randomized refutation search,
//! * sortedness predicates and counterexample extraction.
//!
//! Every checker compiles the network once through
//! [`crate::ir::Executor`] and replays the compiled program, so the whole
//! module gets the engine speedup; the differential suites in
//! `xtask-tests` pin these results to the interpreter's.

use crate::ir::Executor;
use crate::network::ComparatorNetwork;
use crate::perm::Permutation;

/// True iff the slice is non-decreasing.
pub fn is_sorted<T: Ord>(v: &[T]) -> bool {
    v.windows(2).all(|w| w[0] <= w[1])
}

/// Outcome of a sorting check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SortCheck {
    /// Every tested input was sorted. For the exhaustive checkers this is a
    /// proof; for the randomized checker it is only evidence.
    AllSorted {
        /// Number of inputs covered: `2ⁿ` for the exhaustive checkers,
        /// even where they evaluate only the first level's image (which
        /// stands for every input); the trial count for the randomized one.
        tested: u64,
    },
    /// A counterexample input whose output is not sorted.
    Counterexample {
        /// The unsorted input.
        input: Vec<u32>,
        /// The network's (unsorted) output on it.
        output: Vec<u32>,
    },
}

impl SortCheck {
    /// True iff no counterexample was found.
    pub fn is_sorting(&self) -> bool {
        matches!(self, SortCheck::AllSorted { .. })
    }
}

/// Exhaustively checks all `2ⁿ` zero-one inputs: compiles and runs
/// [`Executor::check_zero_one`] on one thread (lowest failing index
/// first; above `2¹⁶` inputs, usually on the first level's image). By the
/// 0-1 principle the result is definitive for arbitrary inputs. Panics if
/// `n > 30` (would not terminate in reasonable time anyway).
pub fn check_zero_one_exhaustive(net: &ComparatorNetwork) -> SortCheck {
    Executor::compile(net).check_zero_one(1)
}

/// Exhaustively checks all `n!` permutation inputs. Only sensible for tiny
/// `n` (panics above 10); exists to cross-validate the 0-1 principle.
pub fn check_permutations_exhaustive(net: &ComparatorNetwork) -> SortCheck {
    let n = net.wires();
    assert!(n <= 10, "exhaustive permutation check limited to n <= 10 (got {n})");
    let exec = Executor::compile(net);
    let mut perm: Vec<u32> = (0..n as u32).collect();
    let mut scratch: Vec<u32> = Vec::with_capacity(n);
    let mut tested = 0u64;
    // Heap's algorithm, iterative.
    let mut c = vec![0usize; n];
    loop {
        let mut values = perm.clone();
        exec.run_scalar_in_place(&mut values, &mut scratch);
        tested += 1;
        if !is_sorted(&values) {
            return SortCheck::Counterexample { input: perm, output: values };
        }
        // Advance to next permutation (Heap's algorithm step).
        let mut i = 0;
        loop {
            if i >= n {
                return SortCheck::AllSorted { tested };
            }
            if c[i] < i {
                if i % 2 == 0 {
                    perm.swap(0, i);
                } else {
                    perm.swap(c[i], i);
                }
                c[i] += 1;
                break;
            }
            c[i] = 0;
            i += 1;
        }
    }
}

/// Randomized refutation: evaluates `trials` random input permutations,
/// returning the first counterexample found. `AllSorted` here is evidence,
/// not proof.
pub fn check_random_permutations<R: rand::Rng>(
    net: &ComparatorNetwork,
    trials: u64,
    rng: &mut R,
) -> SortCheck {
    let n = net.wires();
    let exec = Executor::compile(net);
    let mut scratch: Vec<u32> = Vec::with_capacity(n);
    for _ in 0..trials {
        let input: Vec<u32> = Permutation::random(n, rng).images().to_vec();
        let mut values = input.clone();
        exec.run_scalar_in_place(&mut values, &mut scratch);
        if !is_sorted(&values) {
            return SortCheck::Counterexample { input, output: values };
        }
    }
    SortCheck::AllSorted { tested: trials }
}

/// Counts the 0-1 inputs the network fails to sort, exhaustively (compiled
/// engine, 64 inputs per pass; definitive by the 0-1 principle). The
/// failure *density* is this over `2ⁿ`.
pub fn count_unsorted_01(net: &ComparatorNetwork) -> u64 {
    Executor::compile(net).count_unsorted_01()
}

/// Fraction of `trials` random permutations the network sorts. Used by the
/// Section 5 average-case experiments (E7).
pub fn fraction_sorted<R: rand::Rng>(net: &ComparatorNetwork, trials: u64, rng: &mut R) -> f64 {
    let n = net.wires();
    let exec = Executor::compile(net);
    let mut scratch: Vec<u32> = Vec::with_capacity(n);
    let mut sorted = 0u64;
    let mut values: Vec<u32> = vec![0; n];
    for _ in 0..trials {
        let p = Permutation::random(n, rng);
        values.copy_from_slice(p.images());
        exec.run_scalar_in_place(&mut values, &mut scratch);
        if is_sorted(&values) {
            sorted += 1;
        }
    }
    sorted as f64 / trials as f64
}

/// Verifies the defining property of a sorting network stated in Section 1:
/// it "maps every possible input permutation to the same output
/// permutation". Checks over all permutations for tiny n. Returns the
/// common output wire assignment if it exists.
pub fn common_output_map(net: &ComparatorNetwork) -> Option<Vec<u32>> {
    let n = net.wires();
    assert!(n <= 8, "common_output_map is exhaustive over n! inputs (n <= 8)");
    let exec = Executor::compile(net);
    let mut reference: Option<Vec<u32>> = None;
    let mut perm: Vec<u32> = (0..n as u32).collect();
    let mut c = vec![0usize; n];
    loop {
        // Output position of each value: out_pos[v] = wire where value v lands.
        let out = exec.evaluate(&perm);
        let mut out_pos = vec![0u32; n];
        for (w, &v) in out.iter().enumerate() {
            out_pos[v as usize] = w as u32;
        }
        // The "permutation performed" relative to input positions: value at
        // input wire w lands at out_pos[perm[w]].
        let performed: Vec<u32> = perm.iter().map(|&v| out_pos[v as usize]).collect();
        // For a sorting network, value v must land at wire v; i.e.
        // performed[w] == perm[w].
        match &reference {
            None => {
                if performed != perm {
                    return None;
                }
                reference = Some(performed);
            }
            Some(_) => {
                if performed != perm {
                    return None;
                }
            }
        }
        let mut i = 0;
        loop {
            if i >= n {
                return Some((0..n as u32).collect());
            }
            if c[i] < i {
                if i % 2 == 0 {
                    perm.swap(0, i);
                } else {
                    perm.swap(c[i], i);
                }
                c[i] += 1;
                break;
            }
            c[i] = 0;
            i += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::element::Element;
    use crate::network::Level;
    use rand::SeedableRng;

    /// Bubble-sort ("brick wall") network: n(n-1)/2 comparators, always sorts.
    fn brick_wall(n: usize) -> ComparatorNetwork {
        let mut net = ComparatorNetwork::empty(n);
        for round in 0..n {
            let start = round % 2;
            let elements = (start..n.saturating_sub(1))
                .step_by(2)
                .map(|i| Element::cmp(i as u32, i as u32 + 1))
                .collect();
            net.push_elements(elements).unwrap();
        }
        net
    }

    #[test]
    fn brick_wall_passes_zero_one() {
        for n in 1..=10 {
            let net = brick_wall(n);
            assert!(check_zero_one_exhaustive(&net).is_sorting(), "n={n}");
        }
    }

    #[test]
    fn brick_wall_passes_permutations() {
        for n in 1..=7 {
            let net = brick_wall(n);
            assert!(check_permutations_exhaustive(&net).is_sorting(), "n={n}");
        }
    }

    #[test]
    fn truncated_brick_wall_fails_with_counterexample() {
        // Drop the last round: some input must remain unsorted.
        let n = 6;
        let full = brick_wall(n);
        let truncated = ComparatorNetwork::new(n, full.levels()[..n - 2].to_vec()).unwrap();
        let res = check_zero_one_exhaustive(&truncated);
        match res {
            SortCheck::Counterexample { input, output } => {
                assert!(!is_sorted(&output));
                // Re-verify the counterexample independently through the
                // interpreter (the checker itself ran the compiled IR).
                assert_eq!(truncated.evaluate(&input), output);
            }
            _ => panic!("expected a counterexample"),
        }
    }

    #[test]
    fn counterexample_is_the_lowest_failing_index() {
        // The deterministic lowest-index rule, pinned against a scalar
        // interpreter scan.
        let n = 6;
        let full = brick_wall(n);
        let truncated = ComparatorNetwork::new(n, full.levels()[..2].to_vec()).unwrap();
        let mut lowest = None;
        for mask in 0..(1u64 << n) {
            let input: Vec<u32> = (0..n).map(|w| ((mask >> w) & 1) as u32).collect();
            if !is_sorted(&truncated.evaluate(&input)) {
                lowest = Some(input);
                break;
            }
        }
        match check_zero_one_exhaustive(&truncated) {
            SortCheck::Counterexample { input, .. } => assert_eq!(Some(input), lowest),
            _ => panic!("expected a counterexample"),
        }
    }

    #[test]
    fn zero_one_and_permutation_checks_agree() {
        // Cross-validate the 0-1 principle on a batch of random shallow nets.
        use rand::Rng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        for _ in 0..30 {
            let n = 6;
            let mut net = brick_wall(n);
            // Randomly delete one level to sometimes break sorting.
            if rng.gen_bool(0.7) {
                let keep = rng.gen_range(0..net.depth());
                let levels: Vec<Level> = net
                    .levels()
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| *i != keep)
                    .map(|(_, l)| l.clone())
                    .collect();
                net = ComparatorNetwork::new(n, levels).unwrap();
            }
            assert_eq!(
                check_zero_one_exhaustive(&net).is_sorting(),
                check_permutations_exhaustive(&net).is_sorting(),
                "0-1 principle violated?!"
            );
        }
    }

    #[test]
    fn random_check_finds_obvious_failures() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let net = ComparatorNetwork::empty(8);
        let res = check_random_permutations(&net, 100, &mut rng);
        assert!(!res.is_sorting(), "identity network on 8 wires cannot sort");
    }

    #[test]
    fn fraction_sorted_bounds() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let sorter = brick_wall(8);
        assert_eq!(fraction_sorted(&sorter, 200, &mut rng), 1.0);
        let id = ComparatorNetwork::empty(8);
        let f = fraction_sorted(&id, 2000, &mut rng);
        assert!(f < 0.01, "identity sorts ~1/8! of inputs, got {f}");
    }

    #[test]
    fn common_output_map_for_sorter() {
        let net = brick_wall(5);
        assert!(common_output_map(&net).is_some());
        let id = ComparatorNetwork::empty(5);
        assert!(common_output_map(&id).is_none());
    }

    #[test]
    fn count_unsorted_01_matches_exhaustive_scan() {
        for n in 2..=8usize {
            let full = brick_wall(n);
            assert_eq!(count_unsorted_01(&full), 0, "sorter has zero failures");
            let truncated = ComparatorNetwork::new(n, full.levels()[..n / 2].to_vec()).unwrap();
            // Reference count by scalar enumeration.
            let mut expect = 0u64;
            for mask in 0..(1u64 << n) {
                let input: Vec<u32> = (0..n).map(|w| ((mask >> w) & 1) as u32).collect();
                if !is_sorted(&truncated.evaluate(&input)) {
                    expect += 1;
                }
            }
            assert_eq!(count_unsorted_01(&truncated), expect, "n={n}");
        }
    }

    #[test]
    fn is_sorted_basics() {
        assert!(is_sorted::<u32>(&[]));
        assert!(is_sorted(&[1]));
        assert!(is_sorted(&[1, 1, 2]));
        assert!(!is_sorted(&[2, 1]));
    }
}
