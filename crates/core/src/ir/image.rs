//! The first level's image, packed straight into 64-lane slot words.
//!
//! By the 0-1 principle a network sorts iff it sorts every 0-1 input, so
//! it sorts iff the ops after its first level sort every vector that
//! level can output. A level of `p` disjoint comparators on `n` wires
//! outputs `3^p · 2^(n−2p)` vectors, not `2ⁿ`: a comparator's `(min, max)`
//! slots carry `(0,0)`, `(0,1)` or `(1,1)`, and a free slot 0 or 1,
//! independently.
//!
//! Each free slot and each comparator is one mixed-radix digit (radix 2
//! and 3) of an image vector's index. The lowest digits, chosen so their
//! product is the most lanes `2^k · 3^m ≤ 64`, become fixed lane masks;
//! the rest form a block index advanced like an odometer, each such digit
//! a per-block constant (0 or all-ones words). No transpose and no
//! per-block allocation: a block is one copy of `n` words.

use super::program::Program;
use crate::element::ElementKind;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, Ordering};

/// One digit of an image vector's index: a comparator's output slots
/// (radix 3) or a free slot (radix 2, `min == max`).
#[derive(Debug, Clone, Copy)]
struct Digit {
    radix: u64,
    min: usize,
    max: usize,
}

impl Digit {
    /// Whether the `min` and `max` slots hold 1 for digit value `v`: a
    /// comparator's slots read `(0,0)`, `(0,1)`, `(1,1)` for `v` = 0, 1, 2; a
    /// free slot (`min == max`) reads `v`.
    #[inline]
    fn ones(v: u64) -> (bool, bool) {
        (v == 2, v >= 1)
    }

    /// Writes value `v` as a per-block constant (0 or all-ones words). For
    /// a free slot the second write wins.
    #[inline]
    fn write(&self, v: u64, slots: &mut [u64]) {
        let (min, max) = Self::ones(v);
        slots[self.min] = if min { u64::MAX } else { 0 };
        slots[self.max] = if max { u64::MAX } else { 0 };
    }
}

/// The image of a program's leading run of disjoint comparators: for a
/// leveled network its first level, plus any leading comparators of the
/// next level on wires the first leaves free.
#[derive(Debug, Clone)]
pub(crate) struct FirstLevelImage {
    /// Index of the first op after the leading comparators.
    suffix: usize,
    /// Slot words of every block before its odometer digits are written:
    /// the lane masks, zero elsewhere.
    lane_words: Vec<u64>,
    /// The per-block digits, least significant first.
    digits: Vec<Digit>,
    lanes: u32,
    blocks: u64,
}

/// One worker's reusable state for [`FirstLevelImage::sorts_blocks`].
pub(crate) struct ImageScratch {
    /// The current block's slot words before the suffix runs.
    block: Vec<u64>,
    /// The current block's digit values.
    odometer: Vec<u64>,
    /// The words the suffix runs on.
    slots: Vec<u64>,
}

impl FirstLevelImage {
    /// The image plan for `program`, or `None` when it does not start
    /// with a comparator. The leading run ends at the first `Pass` or
    /// `Swap` or the first comparator sharing a slot with an earlier one.
    pub(crate) fn of(program: &Program) -> Option<Self> {
        let n = program.wires();
        let mut used = vec![false; n];
        let mut comparators = Vec::new();
        for op in program.ops() {
            let (min, max) = match op.kind {
                ElementKind::Cmp => (op.a as usize, op.b as usize),
                ElementKind::CmpRev => (op.b as usize, op.a as usize),
                ElementKind::Pass | ElementKind::Swap => break,
            };
            if used[min] || used[max] {
                break;
            }
            used[min] = true;
            used[max] = true;
            comparators.push(Digit { radix: 3, min, max });
        }
        if comparators.is_empty() {
            return None;
        }
        let suffix = comparators.len();
        let free: Vec<Digit> =
            (0..n).filter(|&w| !used[w]).map(|w| Digit { radix: 2, min: w, max: w }).collect();
        // The most lanes 2^k·3^m ≤ 64 the level offers.
        let (k, m) = (0..=comparators.len().min(3))
            .map(|m| (free.len().min((64 / 3u64.pow(m as u32)).ilog2() as usize), m))
            .max_by_key(|&(k, m)| (1u64 << k) * 3u64.pow(m as u32))
            .expect("m = 0 is always a candidate");
        let lane_digits: Vec<Digit> = free[..k].iter().chain(&comparators[..m]).copied().collect();
        let digits: Vec<Digit> = free[k..].iter().chain(&comparators[m..]).copied().collect();
        let lanes = lane_digits.iter().map(|d| d.radix).product::<u64>();
        let mut lane_words = vec![0u64; n];
        for lane in 0..lanes {
            let mut rest = lane;
            for d in &lane_digits {
                let (min, max) = Digit::ones(rest % d.radix);
                rest /= d.radix;
                lane_words[d.min] |= u64::from(min) << lane;
                lane_words[d.max] |= u64::from(max) << lane;
            }
        }
        let blocks = digits.iter().map(|d| d.radix).product();
        Some(FirstLevelImage { suffix, lane_words, digits, lanes: lanes as u32, blocks })
    }

    /// Image vectors: `3^p · 2^(n−2p)` for `p` leading comparators.
    pub(crate) fn size(&self) -> u64 {
        u64::from(self.lanes) * self.blocks
    }

    /// Image vectors per block (at most 64).
    pub(crate) fn lanes(&self) -> u32 {
        self.lanes
    }

    /// Number of blocks; every image vector lies in exactly one.
    pub(crate) fn blocks(&self) -> u64 {
        self.blocks
    }

    /// Fresh worker state.
    pub(crate) fn scratch(&self) -> ImageScratch {
        ImageScratch {
            block: self.lane_words.clone(),
            odometer: vec![0; self.digits.len()],
            slots: vec![0; self.lane_words.len()],
        }
    }

    /// Runs the ops after the leading comparators on every vector of
    /// blocks `range`: false iff some output is unsorted. Returns early
    /// once `stop` is set, as another worker has then found one.
    pub(crate) fn sorts_blocks(
        &self,
        program: &Program,
        range: Range<u64>,
        stop: &AtomicBool,
        s: &mut ImageScratch,
    ) -> bool {
        let valid = if self.lanes == 64 { u64::MAX } else { (1u64 << self.lanes) - 1 };
        let slots = &mut s.slots;
        let mut sorted = true;
        self.walk(range, &mut s.block, &mut s.odometer, |block| {
            if stop.load(Ordering::Relaxed) {
                return false;
            }
            slots.copy_from_slice(block);
            program.run_suffix_01x64(self.suffix, slots);
            sorted = program.unsorted_lanes_in_slots(slots) & valid == 0;
            sorted
        });
        sorted
    }

    /// Calls `visit` with the slot words of each block of `range` in
    /// turn, until it returns false. The odometer is set once, at
    /// `range.start`; each step rewrites only the digits that change.
    #[inline]
    fn walk(
        &self,
        range: Range<u64>,
        block: &mut [u64],
        odometer: &mut [u64],
        mut visit: impl FnMut(&[u64]) -> bool,
    ) {
        let mut rest = range.start;
        for (d, v) in self.digits.iter().zip(odometer.iter_mut()) {
            *v = rest % d.radix;
            rest /= d.radix;
            d.write(*v, block);
        }
        for _ in range {
            if !visit(block) {
                return;
            }
            for (d, v) in self.digits.iter().zip(odometer.iter_mut()) {
                *v = if *v + 1 == d.radix { 0 } else { *v + 1 };
                d.write(*v, block);
                if *v != 0 {
                    break;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::element::Element;
    use crate::ir::{Executor, PassManager};
    use crate::network::{ComparatorNetwork, Level};
    use crate::register::{RegisterNetwork, RegisterStage};
    use crate::sortcheck::SortCheck;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// A level pairing the first `2p` wires of a random wire order.
    fn random_level(n: usize, p: usize, rng: &mut StdRng) -> Level {
        let mut wires: Vec<u32> = (0..n as u32).collect();
        for i in (1..n).rev() {
            wires.swap(i, rng.gen_range(0..=i));
        }
        Level::of_elements(
            wires[..2 * p]
                .chunks_exact(2)
                .map(|w| {
                    let (a, b) = (w[0].min(w[1]), w[0].max(w[1]));
                    if rng.gen_bool(0.5) {
                        Element::cmp(a, b)
                    } else {
                        Element { a, b, kind: ElementKind::CmpRev }
                    }
                })
                .collect(),
        )
    }

    /// Every vector the plan's blocks hold, lane by lane, walking the
    /// blocks in ranges cut at random, as workers claim them.
    fn packed_vectors(plan: &FirstLevelImage, rng: &mut StdRng) -> Vec<u64> {
        let mut cuts: Vec<u64> = (0..3).map(|_| rng.gen_range(0..=plan.blocks())).collect();
        cuts.extend([0, plan.blocks()]);
        cuts.sort_unstable();
        let mut s = plan.scratch();
        let mut out = Vec::new();
        for range in cuts.windows(2) {
            plan.walk(range[0]..range[1], &mut s.block, &mut s.odometer, |block| {
                for lane in 0..plan.lanes() {
                    let v = block
                        .iter()
                        .enumerate()
                        .fold(0u64, |acc, (w, word)| acc | ((word >> lane) & 1) << w);
                    out.push(v);
                }
                true
            });
        }
        out
    }

    #[test]
    fn blocks_hold_exactly_the_first_levels_image() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut lanes = Vec::new();
        // Free-slot counts from 0 (27 lanes) through 1..5 (54) to 6+ (64).
        let cases = [(6, 3, 3), (7, 3, 3), (8, 4, 4), (8, 2, 4), (9, 1, 4), (11, 3, 5), (12, 2, 1)];
        for (n, p, q) in cases {
            let first = random_level(n, p, &mut rng);
            let rest = random_level(n, q, &mut rng);
            let program = Program::from_network(
                &ComparatorNetwork::new(n, vec![first, rest]).expect("valid"),
            );
            let plan = FirstLevelImage::of(&program).expect("starts with comparators");
            // The run takes the first level, and any comparators of the
            // second that reach no wire used before them.
            let s = plan.suffix;
            assert!(s >= p, "n={n} p={p}: the run covers the first level");
            assert_eq!(plan.size(), 3u64.pow(s as u32) << (n - 2 * s));
            let leading: Vec<Element> = program.ops()[..s]
                .iter()
                .map(|op| Element { a: op.a, b: op.b, kind: op.kind })
                .collect();
            let first_only = ComparatorNetwork::new(n, vec![Level::of_elements(leading)])
                .expect("the leading run is one level of disjoint comparators");
            let mut image: Vec<u64> = (0..1u64 << n)
                .map(|x| {
                    let input: Vec<u32> = (0..n).map(|w| ((x >> w) & 1) as u32).collect();
                    let out = first_only.evaluate(&input);
                    out.iter().enumerate().fold(0u64, |acc, (w, &v)| acc | (v as u64) << w)
                })
                .collect();
            image.sort_unstable();
            image.dedup();
            let mut packed = packed_vectors(&plan, &mut rng);
            packed.sort_unstable();
            assert_eq!(packed.len() as u64, plan.size(), "n={n} p={p}: no vector twice");
            assert_eq!(packed, image, "n={n} p={p}");
            lanes.push(plan.lanes());
        }
        for l in [27, 54, 64] {
            assert!(lanes.contains(&l), "a case packs {l} lanes");
        }
    }

    #[test]
    fn leading_non_comparators_have_no_plan_but_routes_do() {
        let mut net = ComparatorNetwork::empty(8);
        net.push_elements(vec![
            Element { a: 0, b: 1, kind: ElementKind::Swap },
            Element::cmp(2, 3),
        ])
        .expect("valid");
        assert!(FirstLevelImage::of(&Program::from_network(&net)).is_none());
        let pass = Level::of_elements(vec![Element { a: 0, b: 1, kind: ElementKind::Pass }]);
        let net = ComparatorNetwork::new(8, vec![pass]).expect("valid");
        assert!(FirstLevelImage::of(&Program::from_network(&net)).is_none());
        // Lowering absorbs routes, so a routed first level is planned on
        // the slots its comparators land on.
        let shuffle = crate::perm::Permutation::shuffle(8);
        let routed = Level { route: Some(shuffle.clone()), elements: vec![Element::cmp(0, 1)] };
        let net = ComparatorNetwork::new(8, vec![routed]).expect("valid");
        let plan = FirstLevelImage::of(&Program::from_network(&net)).expect("a plan");
        assert_eq!(plan.size(), 3 << 6);
        let stage = RegisterStage { perm: shuffle, ops: vec![ElementKind::Cmp; 4] };
        let reg = RegisterNetwork::new(8, vec![stage]).expect("valid");
        let plan = FirstLevelImage::of(&Program::from_register(&reg)).expect("a plan");
        assert_eq!(plan.size(), 81);
    }

    /// Pratt's Shellsort network: increments `2^a·3^b < n` in decreasing
    /// order, each one sweep of `(i, i+h)` split into two wire-disjoint
    /// levels by the parity of `⌊i/h⌋`. Sorts every input.
    fn pratt(n: usize) -> Vec<Level> {
        let mut incs = Vec::new();
        let mut pow2 = 1;
        while pow2 < n {
            let mut h = pow2;
            while h < n {
                incs.push(h);
                h *= 3;
            }
            pow2 *= 2;
        }
        incs.sort_unstable_by(|a, b| b.cmp(a));
        incs.into_iter()
            .flat_map(|h| {
                (0..2).map(move |parity| {
                    Level::of_elements(
                        (0..n - h)
                            .filter(|i| (i / h) % 2 == parity)
                            .map(|i| Element::cmp(i as u32, (i + h) as u32))
                            .collect(),
                    )
                })
            })
            .filter(|level| !level.elements.is_empty())
            .collect()
    }

    /// The plain full scan's verdict: the lowest failing input, its output
    /// taken from the interpreter.
    fn full_scan(net: &ComparatorNetwork, exec: &Executor) -> SortCheck {
        let n = net.wires();
        match exec.first_unsorted_01() {
            None => SortCheck::AllSorted { tested: 1 << n },
            Some(idx) => {
                let input: Vec<u32> = (0..n).map(|w| ((idx >> w) & 1) as u32).collect();
                SortCheck::Counterexample { output: net.evaluate(&input), input }
            }
        }
    }

    /// `net` with a random route on its first level and a routing-only
    /// level at a random place among the rest.
    fn with_routes(net: &ComparatorNetwork, rng: &mut StdRng) -> ComparatorNetwork {
        let n = net.wires();
        let mut levels = net.levels().to_vec();
        levels[0].route = Some(crate::perm::Permutation::random(n, rng));
        let at = rng.gen_range(1..=levels.len());
        levels.insert(at, Level::of_route(crate::perm::Permutation::random(n, rng)));
        ComparatorNetwork::new(n, levels).expect("valid network")
    }

    #[test]
    fn image_path_matches_the_full_scan() {
        let mut rng = StdRng::seed_from_u64(17);
        for n in 17..=22usize {
            let sorter = pratt(n);
            let swap = Level::of_elements(vec![Element { a: 0, b: 1, kind: ElementKind::Swap }]);
            // First levels from empty to pairing every wire (no free wire
            // at even n: 27 lanes per block).
            for p in [0, n / 8, n / 4, 3 * n / 8, n / 2] {
                let front = random_level(n, p, &mut rng);
                let mut suffixes = vec![
                    sorter.clone(),
                    // Not sorting: Pratt's last level is its only one on
                    // the pairs (i, i+1) with i odd.
                    sorter[..sorter.len() - 1].to_vec(),
                    // Not sorting, usually inside the 2^16 prefix.
                    vec![random_level(n, n / 2, &mut rng), random_level(n, n / 2, &mut rng)],
                ];
                if n % 2 == 0 && p == n / 4 {
                    // Fails only on weight n − 1, first at 2^(n−1) − 1:
                    // past the prefix, so the check resumes the scan.
                    suffixes.push([sorter.clone(), vec![swap.clone()]].concat());
                }
                for suffix in suffixes {
                    let net = ComparatorNetwork::new(n, [vec![front.clone()], suffix].concat())
                        .expect("valid network");
                    let empty = PassManager::empty();
                    // The empty pipeline keeps `CmpRev` (min on `b`) and
                    // `Swap`; routes are absorbed by lowering under any
                    // pipeline, so the routed twin takes the image path too.
                    let routed = with_routes(&net, &mut rng);
                    let mut compiles = vec![
                        (net.clone(), Executor::compile(&net)),
                        (routed.clone(), Executor::compile(&routed)),
                    ];
                    if p == n / 8 {
                        compiles.extend([
                            (net.clone(), Executor::compile_with(&net, &empty)),
                            (routed.clone(), Executor::compile_with(&routed, &empty)),
                        ]);
                    }
                    if n == 18 {
                        let reg = RegisterNetwork::from_network(&net);
                        compiles.push((net.clone(), Executor::compile_register(&reg)));
                    }
                    for (net, exec) in compiles {
                        assert!(FirstLevelImage::of(exec.program()).is_some(), "n={n} p={p}");
                        let reference = full_scan(&net, &exec);
                        if net.levels().last() == Some(&swap) && net.levels()[0].route.is_none() {
                            let lowest: Vec<u32> = (0..n).map(|w| u32::from(w + 1 < n)).collect();
                            assert!(matches!(&reference,
                                SortCheck::Counterexample { input, .. } if *input == lowest));
                        }
                        for threads in [1, 2] {
                            assert_eq!(exec.check_zero_one(threads), reference, "n={n} p={p}");
                        }
                    }
                }
            }
        }
    }
}
