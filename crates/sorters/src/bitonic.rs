//! Batcher's bitonic sorting network — the `Θ(lg²n)` upper bound the paper
//! cites for shuffle-based sorting.
//!
//! Three constructions:
//!
//! * [`bitonic_circuit`] — the classic circuit: `lg n (lg n + 1)/2` levels,
//!   level `(p, q)` comparing pairs differing in bit `q` with direction
//!   chosen by bit `p+1` of the index;
//! * [`bitonic_flip`] — the *unidirectional* bitonic sorter: every element
//!   is a plain `+` comparator (min to the lower-indexed wire) and each
//!   merge phase opens with a **reversal layer** pairing wire `i` of a run
//!   with wire `k−1−i` instead of flipping comparator directions. Same
//!   depth and size as the circuit form. This is the layout of the
//!   Aspnes–Herlihy–Shavit bitonic *counting* network, which is why
//!   `snet-runtime` builds its balancer networks from these levels —
//!   direction-normalizing [`bitonic_circuit`] does **not** yield a
//!   counting network (see `snet-runtime`'s differential tests);
//! * [`bitonic_shuffle`] — the same sorter as a **genuine shuffle-based
//!   network** (`Π_i = σ` everywhere, Stone's embedding): each merge phase
//!   becomes one block of `lg n` shuffle stages, with the early stages of a
//!   phase idling (`Pass`) until the descending bit order of the shuffle
//!   (`lg n − 1, …, 1, 0`) reaches the phase's first comparison bit. The
//!   comparator depth is exactly `lg n (lg n + 1)/2`; idle stages cost no
//!   comparator depth.
//!
//! `bitonic_shuffle(n).to_iterated_reverse_delta()` is the canonical
//! nontrivial input for the Section 4 adversary experiments: a *sorting*
//! network in the class, whose prefixes the adversary refutes.

use snet_core::element::{Element, ElementKind};
use snet_core::network::ComparatorNetwork;
use snet_topology::ShuffleNetwork;

/// The classic bitonic sorting circuit on `n = 2^l` wires:
/// depth `l(l+1)/2`, size `n·l(l+1)/4`.
pub fn bitonic_circuit(n: usize) -> ComparatorNetwork {
    assert!(n.is_power_of_two() && n >= 1);
    let mut net = ComparatorNetwork::empty(n);
    let mut k = 2usize;
    while k <= n {
        let mut j = k / 2;
        while j > 0 {
            let mut elements = Vec::with_capacity(n / 2);
            for i in 0..n {
                let partner = i ^ j;
                if partner > i {
                    // Ascending iff bit `k` of i is clear.
                    let kind = if i & k == 0 { ElementKind::Cmp } else { ElementKind::CmpRev };
                    elements.push(Element { a: i as u32, b: partner as u32, kind });
                }
            }
            net.push_elements(elements).expect("bitonic levels are wire-disjoint");
            j /= 2;
        }
        k *= 2;
    }
    net
}

/// The unidirectional bitonic sorter on `n = 2^l` wires: identical
/// depth/size profile to [`bitonic_circuit`], but every element is a plain
/// `+` comparator. Phase `p` merges runs of length `k = 2^{p+1}` by first
/// pairing wire `base+i` with its reflection `base+k−1−i` (the layer that
/// replaces the circuit form's `-` comparators), then running the butterfly
/// half-cleaners `(i, i+s/2)` for `s = k/2, k/4, …, 2` inside each run.
///
/// Replacing each comparator with a balancer (top output = wire `a`) turns
/// this network into the Aspnes–Herlihy–Shavit bitonic counting network —
/// the construction `snet_runtime::CountingNetwork::bitonic` reuses.
pub fn bitonic_flip(n: usize) -> ComparatorNetwork {
    assert!(n.is_power_of_two() && n >= 1);
    let mut net = ComparatorNetwork::empty(n);
    let mut k = 2usize;
    while k <= n {
        let mut reversal = Vec::with_capacity(n / 2);
        for base in (0..n).step_by(k) {
            for i in 0..k / 2 {
                reversal.push(Element::cmp((base + i) as u32, (base + k - 1 - i) as u32));
            }
        }
        net.push_elements(reversal).expect("reflection pairs are wire-disjoint");
        let mut s = k / 2;
        while s > 1 {
            let mut cleaners = Vec::with_capacity(n / 2);
            for base in (0..n).step_by(s) {
                for i in 0..s / 2 {
                    cleaners.push(Element::cmp((base + i) as u32, (base + i + s / 2) as u32));
                }
            }
            net.push_elements(cleaners).expect("half-cleaner pairs are wire-disjoint");
            s /= 2;
        }
        k *= 2;
    }
    net
}

/// Batcher's bitonic sorter as a shuffle-based network (`Π_i = σ` for every
/// stage): `lg²n` stages of which `lg n (lg n + 1)/2` contain comparators.
pub fn bitonic_shuffle(n: usize) -> ShuffleNetwork {
    assert!(n.is_power_of_two() && n >= 2);
    let l = n.trailing_zeros() as usize;
    let mut stages: Vec<Vec<ElementKind>> = Vec::with_capacity(l * l);
    // Phase p ∈ 0..l sorts runs of length 2^{p+1}; it needs comparisons on
    // bits p, p-1, …, 0, which the shuffle's descending bit order reaches at
    // in-block stages i = l-p .. l (stage i pairs bit l-i).
    for p in 0..l {
        let k = 1usize << (p + 1);
        for i in 1..=l {
            let q = l - i; // bit compared by in-block stage i
            if q > p {
                stages.push(vec![ElementKind::Pass; n / 2]);
                continue;
            }
            let stage: Vec<ElementKind> = (0..n / 2)
                .map(|kk| {
                    // Register pair (2kk, 2kk+1) sits, in the fixed frame,
                    // on wires (rotr^i(2kk), rotr^i(2kk+1)); the first has
                    // bit q clear. Direction by bit `k` of that wire, min
                    // towards it when ascending — matching the circuit.
                    let (w, _) = ShuffleNetwork::stage_pair(n, i, kk);
                    debug_assert_eq!(w & (1 << q), 0);
                    if (w as usize) & k == 0 {
                        ElementKind::Cmp
                    } else {
                        ElementKind::CmpRev
                    }
                })
                .collect();
            stages.push(stage);
        }
    }
    ShuffleNetwork::new(n, stages)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use snet_core::perm::Permutation;
    use snet_core::sortcheck::{check_zero_one_exhaustive, is_sorted};

    #[test]
    fn circuit_sorts_exhaustively() {
        for l in 0..=4usize {
            let n = 1 << l;
            let net = bitonic_circuit(n);
            assert!(check_zero_one_exhaustive(&net).is_sorting(), "n={n}");
        }
    }

    #[test]
    fn circuit_depth_and_size() {
        for l in 1..=6usize {
            let n = 1 << l;
            let net = bitonic_circuit(n);
            assert_eq!(net.depth(), l * (l + 1) / 2, "depth at n={n}");
            assert_eq!(net.size(), n * l * (l + 1) / 4, "size at n={n}");
        }
    }

    #[test]
    fn flip_form_sorts_exhaustively() {
        for l in 0..=4usize {
            let n = 1 << l;
            let net = bitonic_flip(n);
            assert!(check_zero_one_exhaustive(&net).is_sorting(), "n={n}");
        }
    }

    #[test]
    fn flip_form_matches_circuit_profile_and_is_unidirectional() {
        for l in 1..=6usize {
            let n = 1 << l;
            let net = bitonic_flip(n);
            let circuit = bitonic_circuit(n);
            assert_eq!(net.depth(), circuit.depth(), "depth at n={n}");
            assert_eq!(net.size(), circuit.size(), "size at n={n}");
            for level in net.levels() {
                assert!(level.route.is_none());
                for e in &level.elements {
                    assert_eq!(e.kind, ElementKind::Cmp, "all elements are plain + comparators");
                    assert!(e.a < e.b, "min output on the lower-indexed wire");
                }
            }
        }
    }

    #[test]
    fn shuffle_form_sorts_exhaustively() {
        for l in 1..=4usize {
            let n = 1 << l;
            let net = bitonic_shuffle(n).to_network();
            assert!(check_zero_one_exhaustive(&net).is_sorting(), "n={n}");
        }
    }

    #[test]
    fn shuffle_form_sorts_random_large() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(55);
        for l in [5usize, 6, 8] {
            let n = 1 << l;
            let net = bitonic_shuffle(n).to_network();
            let exec = snet_core::ir::Executor::compile(&net);
            for _ in 0..20 {
                let input: Vec<u32> = Permutation::random(n, &mut rng).images().to_vec();
                assert!(is_sorted(&exec.evaluate(&input)), "n={n}");
            }
        }
    }

    #[test]
    fn shuffle_form_matches_circuit_behaviour() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(56);
        for l in 2..=5usize {
            let n = 1 << l;
            let circuit = snet_core::ir::Executor::compile(&bitonic_circuit(n));
            let shuffled = snet_core::ir::Executor::compile(&bitonic_shuffle(n).to_network());
            for _ in 0..30 {
                let input: Vec<u32> = Permutation::random(n, &mut rng).images().to_vec();
                assert_eq!(circuit.evaluate(&input), shuffled.evaluate(&input), "n={n}");
            }
        }
    }

    #[test]
    fn shuffle_form_comparator_depth_is_batcher() {
        for l in 1..=8usize {
            let n = 1 << l;
            let sn = bitonic_shuffle(n);
            assert_eq!(sn.depth(), l * l, "total stages");
            let net = sn.to_network();
            assert_eq!(net.comparator_depth(), l * (l + 1) / 2, "comparator stages");
        }
    }

    #[test]
    fn embeds_into_iterated_reverse_delta() {
        let n = 16;
        let sn = bitonic_shuffle(n);
        let ird = sn.to_iterated_reverse_delta();
        assert_eq!(ird.block_count(), 4, "one block per merge phase");
        assert!(ird.post_route().is_none());
        // The embedding is behaviour-preserving (spot check).
        let mut rng = rand::rngs::StdRng::seed_from_u64(57);
        let net_a = snet_core::ir::Executor::compile(&sn.to_network());
        let net_b = snet_core::ir::Executor::compile(&ird.to_network());
        for _ in 0..20 {
            let input: Vec<u32> = Permutation::random(n, &mut rng).images().to_vec();
            assert_eq!(net_a.evaluate(&input), net_b.evaluate(&input));
        }
    }
}
