//! Hypercube dimension-schedule networks — the bridge to the paper's
//! framing of "sorting networks based on hypercubic networks".
//!
//! A *normal* hypercube algorithm touches one dimension per step; a block
//! that uses each of the `l` dimensions **exactly once, in any order**
//! `b_1, …, b_l` is a reverse delta network: the final level's bit `b_l`
//! splits the wires into two halves that the earlier levels never cross
//! (they pair other bits), and the same argument recurses. Hence *every*
//! iterated one-dimension-per-level network with per-block distinct
//! dimensions falls inside the class the lower bound covers — descending
//! order being the shuffle/butterfly special case.
//!
//! [`reverse_delta_from_dimensions`] constructs the recursion tree for an
//! arbitrary distinct-dimension order, and
//! [`iterated_from_schedules`] chains blocks (with free inter-block
//! routes) into an [`IteratedReverseDelta`] ready for the adversary
//! (Experiment E15).

use crate::delta::{bit_split_forest, Block, DeltaError, IteratedReverseDelta, ReverseDelta};
use rand::Rng;
use snet_core::element::{Element, ElementKind};
use snet_core::perm::Permutation;

/// One hypercube block: a distinct-dimension order and, per level, the op
/// kind for every wire pair of that dimension.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DimensionBlock {
    /// The dimension (bit) used by each level, each in `0..l`, all
    /// distinct.
    pub bits: Vec<usize>,
    /// `kinds[i][p]` is the op applied at level `i+1` to its `p`-th pair
    /// (pairs enumerated over wires with bit `bits[i]` clear, ascending).
    pub kinds: Vec<Vec<ElementKind>>,
}

impl DimensionBlock {
    /// An all-`+` block with the given dimension order on `n = 2^l` wires.
    pub fn all_plus(n: usize, bits: Vec<usize>) -> Self {
        let kinds = vec![vec![ElementKind::Cmp; n / 2]; bits.len()];
        DimensionBlock { bits, kinds }
    }

    /// A random block with the given dimension order: random comparator
    /// directions everywhere.
    pub fn random<R: Rng>(n: usize, bits: Vec<usize>, rng: &mut R) -> Self {
        let kinds = bits
            .iter()
            .map(|_| {
                (0..n / 2)
                    .map(|_| if rng.gen_bool(0.5) { ElementKind::Cmp } else { ElementKind::CmpRev })
                    .collect()
            })
            .collect();
        DimensionBlock { bits, kinds }
    }
}

/// Builds the reverse delta network performed by `l` hypercube levels with
/// distinct dimension order `block.bits` on `n = 2^l` wires.
///
/// Panics if the dimension list is not a permutation of `0..l` or the kind
/// vectors have the wrong shape.
pub fn reverse_delta_from_dimensions(
    n: usize,
    block: &DimensionBlock,
) -> Result<ReverseDelta, DeltaError> {
    assert!(n.is_power_of_two() && n >= 2);
    let l = n.trailing_zeros() as usize;
    assert_eq!(block.bits.len(), l, "need exactly lg n levels");
    let mut seen = vec![false; l];
    for &b in &block.bits {
        assert!(b < l, "dimension {b} out of range");
        assert!(!seen[b], "dimension {b} repeated — not a reverse delta block");
        seen[b] = true;
    }
    assert_eq!(block.kinds.len(), l);
    for k in &block.kinds {
        assert_eq!(k.len(), n / 2, "each level needs n/2 pair kinds");
    }

    // Per-level elements: level i pairs (w, w | bit) for w with the bit
    // clear, pair index = rank of w among such wires. The node of height m
    // splits on bits[m-1].
    let levels = block.bits.iter().zip(&block.kinds).map(|(&b, kinds)| {
        let bit = 1u32 << b;
        let elems = (0..n as u32)
            .filter(|w| w & bit == 0)
            .zip(kinds)
            .filter(|&(_, &kind)| kind != ElementKind::Pass)
            .map(|(w, &kind)| Element { a: w, b: w | bit, kind })
            .collect();
        (b as u32, elems)
    });
    let mut roots = bit_split_forest(n, levels)?;
    ReverseDelta::new(roots.pop().expect("distinct dimensions build one tree"))
}

/// Chains hypercube blocks into an iterated reverse delta network, with
/// optional free routes between blocks.
pub fn iterated_from_schedules(
    n: usize,
    blocks: &[DimensionBlock],
    routes: Option<&[Permutation]>,
) -> IteratedReverseDelta {
    let built: Vec<Block> = blocks
        .iter()
        .enumerate()
        .map(|(i, b)| Block {
            pre_route: routes.and_then(|r| if i > 0 { r.get(i - 1).cloned() } else { None }),
            rdn: reverse_delta_from_dimensions(n, b)
                .expect("distinct-dimension blocks are reverse delta networks"),
        })
        .collect();
    IteratedReverseDelta::new(built, None)
}

/// Convenience schedules on `l` dimensions.
pub mod schedules {
    /// Descending `l-1, …, 0` — the shuffle/butterfly order.
    pub fn descending(l: usize) -> Vec<usize> {
        (0..l).rev().collect()
    }

    /// Ascending `0, 1, …, l-1`.
    pub fn ascending(l: usize) -> Vec<usize> {
        (0..l).collect()
    }

    /// Cyclic shift of the descending order, starting the block at
    /// dimension `start` — the dimension pattern of normal algorithms on
    /// the cube-connected cycles (each processor cycle walks the
    /// dimensions in cyclic order), so CCC-style comparator schedules also
    /// fall to the bound (cf. the Cypher CCC result cited in §1).
    pub fn cyclic_descending(l: usize, start: usize) -> Vec<usize> {
        (0..l).map(|i| (start + l - i) % l).collect()
    }

    /// A seeded random dimension permutation.
    pub fn random<R: rand::Rng>(l: usize, rng: &mut R) -> Vec<usize> {
        let mut v: Vec<usize> = (0..l).collect();
        for i in (1..l).rev() {
            let j = rng.gen_range(0..=i);
            v.swap(i, j);
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn descending_schedule_is_the_butterfly() {
        for l in 1..=5usize {
            let n = 1 << l;
            let block = DimensionBlock::all_plus(n, schedules::descending(l));
            let rdn = reverse_delta_from_dimensions(n, &block).unwrap();
            let bf = ReverseDelta::butterfly(l);
            // Same flattened network (level order and pairings).
            let (a, b) = (rdn.to_network(), bf.to_network());
            for (la, lb) in a.levels().iter().zip(b.levels()) {
                let mut ea = la.elements.clone();
                let mut eb = lb.elements.clone();
                ea.sort_by_key(|e| (e.a, e.b));
                eb.sort_by_key(|e| (e.a, e.b));
                assert_eq!(ea, eb, "l={l}");
            }
        }
    }

    #[test]
    fn every_dimension_order_is_a_reverse_delta() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        for l in 2..=6usize {
            let n = 1 << l;
            for _ in 0..5 {
                let bits = schedules::random(l, &mut rng);
                let block = DimensionBlock::random(n, bits.clone(), &mut rng);
                let rdn = reverse_delta_from_dimensions(n, &block)
                    .unwrap_or_else(|e| panic!("l={l} bits={bits:?}: {e}"));
                assert_eq!(rdn.levels(), l);
                // Root splits on the LAST dimension used.
                let (zero, _, gamma) = rdn.root().as_split().unwrap();
                let split_bit = 1u32 << bits[l - 1];
                for e in gamma {
                    assert_eq!(e.a ^ e.b, split_bit);
                }
                assert!(zero.wires().iter().all(|w| w & split_bit == 0));
            }
        }
    }

    #[test]
    fn ascending_schedule_network_matches_direct_evaluation() {
        // The tree flattening must equal the directly-built leveled network.
        let mut rng = rand::rngs::StdRng::seed_from_u64(6);
        let l = 4usize;
        let n = 1 << l;
        let block = DimensionBlock::random(n, schedules::ascending(l), &mut rng);
        let rdn = reverse_delta_from_dimensions(n, &block).unwrap();
        let net = rdn.to_network();
        // Direct: apply level by level.
        for _ in 0..30 {
            let input: Vec<u32> = Permutation::random(n, &mut rng).images().to_vec();
            let mut direct = input.clone();
            for (i, &b) in block.bits.iter().enumerate() {
                let bit = 1u32 << b;
                let mut p = 0usize;
                for w in 0..n as u32 {
                    if w & bit == 0 {
                        let kind = block.kinds[i][p];
                        p += 1;
                        Element { a: w, b: w | bit, kind }.apply(&mut direct);
                    }
                }
            }
            assert_eq!(snet_core::ir::evaluate(&net, &input), direct);
        }
    }

    #[test]
    fn dimension_blocks_match_the_filtering_recursion() {
        use crate::delta::reference::filtered_tree;
        use rand::Rng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(18);
        for l in 1..=8usize {
            let n = 1 << l;
            for _ in 0..4 {
                let bits = schedules::random(l, &mut rng);
                let mut block = DimensionBlock::random(n, bits.clone(), &mut rng);
                for kind in block.kinds.iter_mut().flatten() {
                    if rng.gen_bool(0.2) {
                        *kind = ElementKind::Pass;
                    }
                }
                // The per-level elements, as the recursion consumed them.
                let levels: Vec<Vec<Element>> = (0..l)
                    .map(|i| {
                        let bit = 1u32 << bits[i];
                        let mut elems = Vec::new();
                        for (p, w) in (0..n as u32).filter(|w| w & bit == 0).enumerate() {
                            let kind = block.kinds[i][p];
                            if kind != ElementKind::Pass {
                                elems.push(Element { a: w, b: w | bit, kind });
                            }
                        }
                        elems
                    })
                    .collect();
                let split_bit = |m: usize| 1u32 << bits[m - 1];
                let expect = filtered_tree(&split_bit, l, 0, 0, &levels).unwrap();
                let rdn = reverse_delta_from_dimensions(n, &block).unwrap();
                assert_eq!(rdn.root(), &expect, "l={l} bits={bits:?}");
            }
        }
    }

    #[test]
    fn repeated_dimension_is_rejected() {
        let n = 8;
        let block = DimensionBlock::all_plus(n, vec![0, 1, 0]);
        assert!(std::panic::catch_unwind(|| reverse_delta_from_dimensions(n, &block)).is_err());
    }

    #[test]
    fn cyclic_schedules_are_valid_blocks() {
        // CCC-style cyclic dimension orders: valid reverse delta blocks at
        // every rotation, refuted like the rest (E15 class).
        let l = 4usize;
        let n = 1 << l;
        for start in 0..l {
            let bits = schedules::cyclic_descending(l, start);
            let mut sorted = bits.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..l).collect::<Vec<_>>(), "rotation {start} is a permutation");
            let block = DimensionBlock::all_plus(n, bits);
            let rdn = reverse_delta_from_dimensions(n, &block).unwrap();
            assert_eq!(rdn.levels(), l);
        }
        // start = l-1 reproduces plain descending.
        assert_eq!(schedules::cyclic_descending(l, l - 1), schedules::descending(l));
    }

    #[test]
    fn iterated_with_routes() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let l = 3usize;
        let n = 1 << l;
        let blocks: Vec<DimensionBlock> = (0..3)
            .map(|_| DimensionBlock::random(n, schedules::random(l, &mut rng), &mut rng))
            .collect();
        let routes: Vec<Permutation> = (0..2).map(|_| Permutation::random(n, &mut rng)).collect();
        let ird = iterated_from_schedules(n, &blocks, Some(&routes));
        assert_eq!(ird.block_count(), 3);
        assert!(ird.blocks()[1].pre_route.is_some());
        assert_eq!(ird.comparator_depth(), 9);
    }
}
