//! Shuffle-based comparator networks: the class the paper's title refers
//! to. A network is *based on the shuffle permutation* if, in the register
//! model, `Π_i = σ` for every stage.
//!
//! [`ShuffleNetwork`] stores only the per-stage op vectors `x̄_i`; the
//! routing is implicitly the shuffle. It lowers to the register model, the
//! circuit model, and — the embedding the lower bound rests on — to an
//! [`IteratedReverseDelta`] whose blocks are groups of `lg n` stages
//! (Section 1: "the butterfly network … is equivalent to a shuffle-based
//! network of depth lg n").

use crate::delta::{Block, IteratedReverseDelta, ReverseDelta};
use snet_core::element::{ElementKind, WireId};
use snet_core::network::ComparatorNetwork;
use snet_core::perm::Permutation;
use snet_core::register::{RegisterNetwork, RegisterStage};

/// A shuffle-based comparator network on `n = 2^l` wires: `d` stages, each
/// routing by the shuffle `σ` and then applying `ops[i][k] ∈ {+,-,0,1}` to
/// registers `(2k, 2k+1)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShuffleNetwork {
    n: usize,
    stages: Vec<Vec<ElementKind>>,
}

impl ShuffleNetwork {
    /// Builds from explicit stage op vectors; each must have length `n/2`.
    ///
    /// # Panics
    ///
    /// Panics where [`ShuffleNetwork::try_new`] returns an error.
    pub fn new(n: usize, stages: Vec<Vec<ElementKind>>) -> Self {
        Self::try_new(n, stages).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Builds from explicit stage op vectors, or says why they do not form
    /// a shuffle network: `n` must be `2^l >= 2` and every stage must have
    /// `n/2` ops. Network files and service requests are checked here.
    pub fn try_new(n: usize, stages: Vec<Vec<ElementKind>>) -> Result<Self, String> {
        if !n.is_power_of_two() || n < 2 {
            return Err(format!("shuffle networks need n = 2^l >= 2 (got {n})"));
        }
        if let Some((i, s)) = stages.iter().enumerate().find(|(_, s)| s.len() != n / 2) {
            let (ops, half) = (s.len(), n / 2);
            return Err(format!("stage {i} has {ops} ops; every stage needs n/2 = {half}"));
        }
        Ok(ShuffleNetwork { n, stages })
    }

    /// A network of `d` stages, all ops `+` (ascending comparators). `d = lg n`
    /// of these form the canonical butterfly.
    pub fn all_plus(n: usize, d: usize) -> Self {
        Self::new(n, vec![vec![ElementKind::Cmp; n / 2]; d])
    }

    /// The wires, in the fixed frame of a block of `lg n` stages, that
    /// in-block stage `i` (1-based) applies op `k` to: registers
    /// `(2k, 2k+1)` sit on `(rotr^i(2k), rotr^i(2k+1))`, two wires
    /// differing in bit `lg n − (i mod lg n)`.
    pub fn stage_pair(n: usize, i: usize, k: usize) -> (WireId, WireId) {
        let l = n.trailing_zeros() as usize;
        let rotr = |x: u32| match i % l {
            0 => x,
            r => ((x >> r) | (x << (l - r))) & (n as u32 - 1),
        };
        (rotr(2 * k as u32), rotr(2 * k as u32 + 1))
    }

    /// Number of wires.
    pub fn wires(&self) -> usize {
        self.n
    }

    /// Number of stages `d` (= comparator depth when every stage has a
    /// comparator).
    pub fn depth(&self) -> usize {
        self.stages.len()
    }

    /// The stage op vectors.
    pub fn stages(&self) -> &[Vec<ElementKind>] {
        &self.stages
    }

    /// Total comparator count.
    pub fn size(&self) -> usize {
        self.stages.iter().map(|s| s.iter().filter(|o| o.is_comparator()).count()).sum()
    }

    /// Lowers to the register model (each stage becomes `(σ, x̄_i)`).
    pub fn to_register(&self) -> RegisterNetwork {
        let sigma = Permutation::shuffle(self.n);
        let stages = self
            .stages
            .iter()
            .map(|ops| RegisterStage { perm: sigma.clone(), ops: ops.clone() })
            .collect();
        RegisterNetwork::new(self.n, stages).expect("validated stage shapes")
    }

    /// Lowers to the leveled circuit model.
    pub fn to_network(&self) -> ComparatorNetwork {
        self.to_register().to_network()
    }

    /// Enumerates every legal stage op vector for an `n`-wire shuffle
    /// network: all `|kinds|^(n/2)` assignments of the allowed element
    /// kinds to the register pairs `(2k, 2k+1)`, in lexicographic order of
    /// the `kinds` slice (pair 0 varies slowest). This is the move set of
    /// the shuffle-legal depth search: a layer is legal iff it routes by
    /// `σ` and then applies one of these vectors.
    ///
    /// The order is deterministic, which the search's reproducibility
    /// guarantee leans on.
    pub fn legal_stage_vectors(n: usize, kinds: &[ElementKind]) -> Vec<Vec<ElementKind>> {
        assert!(n.is_power_of_two() && n >= 2, "shuffle networks need n = 2^l >= 2");
        assert!(!kinds.is_empty(), "at least one element kind required");
        let half = n / 2;
        let total = kinds.len().checked_pow(half as u32).expect("stage space overflows usize");
        let mut out = Vec::with_capacity(total);
        let mut current = vec![kinds[0]; half];
        fill_stage_vectors(kinds, &mut current, 0, &mut out);
        out
    }

    /// Embeds into the iterated-reverse-delta class: stages are grouped into
    /// blocks of `lg n`; each block, having cumulative route `σ^{lg n} = id`,
    /// is a route-free reverse delta network
    /// (see [`ReverseDelta::from_shuffle_stages`]).
    ///
    /// If `d` is not a multiple of `lg n`, the final block is padded with
    /// all-`Pass` stages; the resulting extra shuffles are compensated by a
    /// `post_route` of `σ^{d mod lg n}` so the flattened behaviour matches
    /// exactly (checked in tests).
    pub fn to_iterated_reverse_delta(&self) -> IteratedReverseDelta {
        let l = self.n.trailing_zeros() as usize;
        let mut blocks = Vec::new();
        let mut idx = 0;
        while idx < self.stages.len() {
            let mut group: Vec<Vec<ElementKind>> = Vec::with_capacity(l);
            for j in 0..l {
                group.push(
                    self.stages
                        .get(idx + j)
                        .cloned()
                        .unwrap_or_else(|| vec![ElementKind::Pass; self.n / 2]),
                );
            }
            let rdn = ReverseDelta::from_shuffle_stages(self.n, &group)
                .expect("shuffle stages always form a reverse delta network");
            blocks.push(Block { pre_route: None, rdn });
            idx += l;
        }
        let pad = self.stages.len() % l;
        let post_route = if pad == 0 {
            None
        } else {
            // The padded block applies the full σ^l = id, but the original
            // network stops after `pad` more shuffles: its outputs sit in
            // the σ^{pad} frame.
            let sigma = Permutation::shuffle(self.n);
            let mut p = Permutation::identity(self.n);
            for _ in 0..pad {
                p = sigma.compose(&p);
            }
            Some(p)
        };
        IteratedReverseDelta::new(blocks, post_route)
    }
}

/// Depth-first expansion of the stage vector space for
/// [`ShuffleNetwork::legal_stage_vectors`].
fn fill_stage_vectors(
    kinds: &[ElementKind],
    current: &mut Vec<ElementKind>,
    pair: usize,
    out: &mut Vec<Vec<ElementKind>>,
) {
    if pair == current.len() {
        out.push(current.clone());
        return;
    }
    for &k in kinds {
        current[pair] = k;
        fill_stage_vectors(kinds, current, pair + 1, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use snet_core::sortcheck::is_sorted;

    fn random_shuffle_net(n: usize, d: usize, seed: u64) -> ShuffleNetwork {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let stages = (0..d)
            .map(|_| {
                (0..n / 2)
                    .map(|_| match rng.gen_range(0..4) {
                        0 => ElementKind::Cmp,
                        1 => ElementKind::CmpRev,
                        2 => ElementKind::Pass,
                        _ => ElementKind::Swap,
                    })
                    .collect()
            })
            .collect();
        ShuffleNetwork::new(n, stages)
    }

    #[test]
    fn lg_n_plus_stages_equal_butterfly() {
        for l in 1..=4usize {
            let n = 1 << l;
            let sn = ShuffleNetwork::all_plus(n, l);
            let ird = sn.to_iterated_reverse_delta();
            assert_eq!(ird.block_count(), 1);
            assert!(ird.post_route().is_none());
            let bf = snet_core::ir::Executor::compile(&ReverseDelta::butterfly(l).to_network());
            let direct = snet_core::ir::Executor::compile(&sn.to_network());
            let mut rng = rand::rngs::StdRng::seed_from_u64(l as u64);
            for _ in 0..40 {
                let input: Vec<u32> = Permutation::random(n, &mut rng).images().to_vec();
                assert_eq!(direct.evaluate(&input), bf.evaluate(&input));
            }
        }
    }

    #[test]
    fn iterated_embedding_is_behaviour_preserving() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(100);
        for seed in 0..8u64 {
            for d in [1usize, 2, 3, 4, 6, 7, 9] {
                let n = 8;
                let sn = random_shuffle_net(n, d, seed * 100 + d as u64);
                let direct = snet_core::ir::Executor::compile(&sn.to_network());
                let embedded =
                    snet_core::ir::Executor::compile(&sn.to_iterated_reverse_delta().to_network());
                for _ in 0..30 {
                    let input: Vec<u32> = Permutation::random(n, &mut rng).images().to_vec();
                    assert_eq!(
                        direct.evaluate(&input),
                        embedded.evaluate(&input),
                        "seed={seed} d={d}: embedding changed behaviour"
                    );
                }
            }
        }
    }

    #[test]
    fn embedding_preserves_size_and_depth() {
        let sn = random_shuffle_net(16, 10, 5);
        let ird = sn.to_iterated_reverse_delta();
        assert_eq!(
            ird.blocks().iter().map(|b| b.rdn.size()).sum::<usize>(),
            sn.size(),
            "comparator count preserved"
        );
        assert_eq!(ird.block_count(), 3, "10 stages / lg 16 = ceil 2.5 = 3 blocks");
    }

    #[test]
    fn all_plus_single_stage_compares_adjacent_after_shuffle() {
        let sn = ShuffleNetwork::all_plus(4, 1);
        // Stage: route by σ then sort pairs (0,1) and (2,3).
        // σ on 4: 0→0, 1→2, 2→1, 3→3. Input [3,1,2,0] routes to [3,2,1,0],
        // pairs sort to [2,3,0,1].
        assert_eq!(snet_core::ir::evaluate(&sn.to_network(), &[3, 1, 2, 0]), vec![2, 3, 0, 1]);
    }

    #[test]
    fn deep_all_plus_does_not_sort() {
        // All-plus shuffle stages are a balanced merger, not a sorter: even
        // many of them fail on some inputs (this is exactly why bitonic
        // needs direction patterns). Sanity-check with a refutation search.
        let n = 8;
        let sn = ShuffleNetwork::all_plus(n, 6);
        let res = snet_core::sortcheck::check_zero_one_exhaustive(&sn.to_network());
        assert!(!res.is_sorting(), "all-plus is not a sorting network");
    }

    #[test]
    fn legal_stage_vectors_enumerate_the_full_space_in_order() {
        use ElementKind::{Cmp, CmpRev, Pass, Swap};
        let all = ShuffleNetwork::legal_stage_vectors(4, &[Cmp, CmpRev, Pass, Swap]);
        assert_eq!(all.len(), 16, "4 kinds on 2 pairs");
        assert_eq!(all[0], vec![Cmp, Cmp]);
        assert_eq!(all[1], vec![Cmp, CmpRev]);
        assert_eq!(all[15], vec![Swap, Swap]);
        // Deterministic and duplicate-free.
        let rerun = ShuffleNetwork::legal_stage_vectors(4, &[Cmp, CmpRev, Pass, Swap]);
        assert_eq!(all, rerun);
        let mut seen = std::collections::HashSet::new();
        for v in &all {
            let key: String = v.iter().map(|k| k.symbol()).collect();
            assert!(seen.insert(key), "duplicate stage vector");
        }
        // Every vector builds a valid one-stage network.
        for v in &all {
            let _ = ShuffleNetwork::new(4, vec![v.clone()]);
        }
        // Restricted alphabets shrink the space accordingly.
        assert_eq!(ShuffleNetwork::legal_stage_vectors(8, &[Cmp, CmpRev]).len(), 16);
    }

    #[test]
    fn stage_shapes_validated() {
        let result =
            std::panic::catch_unwind(|| ShuffleNetwork::new(4, vec![vec![ElementKind::Cmp; 3]]));
        assert!(result.is_err());
    }

    #[test]
    fn sorted_input_stays_sorted_under_all_plus() {
        let sn = ShuffleNetwork::all_plus(8, 3);
        let out = snet_core::ir::evaluate(&sn.to_network(), &[0, 1, 2, 3, 4, 5, 6, 7]);
        assert!(is_sorted(&out));
    }
}
