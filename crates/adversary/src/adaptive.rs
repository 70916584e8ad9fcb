//! The **adaptive** model of Section 5: the labeling `x̄_i` of each level
//! may depend on the outcomes of all comparisons made in previous levels.
//!
//! The lower bound survives because the Lemma 4.1 refinements only ever
//! depend on the network prefix seen so far: the construction is run
//! *level-synchronously* here (all recursion-tree nodes of height `h` are
//! processed as soon as stage `h` arrives), and the outcome of every
//! comparison in stage `h` is reported to the builder before it must choose
//! stage `h+1`.
//!
//! ## Outcome consistency
//!
//! The adversary must never contradict an outcome it has revealed. Strict
//! symbol orders are preserved by all refinement steps, but ties (equal
//! symbols) must be broken, and later merges (the Lemma 3.4 collapse)
//! would break a naive fixed tie-break. We therefore maintain a *persistent
//! candidate order* over the values: a total order that is always a linear
//! extension of the current pattern, updated after every refinement by a
//! **stable sort on the new symbols**. Stability preserves the relative
//! order of every pair whose symbols tie or merge, and the paper's
//! refinement steps never strictly reorder a previously-compared pair
//! (evicted wires are parked *just below* their own `M_i` band, which is
//! exactly what makes this work). Every answer is read from this order, and
//! the final witness input is the order itself — so consistency holds by
//! construction and is re-verified by replay in [`AdaptiveRun::finish`].

use crate::lemma41::Engine;
use crate::setfam::SetFamily;
use crate::witness::SortingRefutation;
use snet_core::element::{Element, ElementKind, WireId};
use snet_core::network::{ComparatorNetwork, Level};
use snet_pattern::pattern::Pattern;
use snet_pattern::symbol::Symbol;
use snet_topology::ShuffleNetwork;

/// Outcome of one comparator, reported to the adaptive builder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CmpOutcome {
    /// Stage-local op index `k` (the comparator on registers `2k, 2k+1`).
    pub pair: usize,
    /// True iff the value arriving at the pair's first slot was smaller.
    pub first_smaller: bool,
}

/// The adversary side of the adaptive game on `n = 2^l` wires.
///
/// Drive it with [`AdaptiveRun::submit_stage`] once per level (the builder
/// inspects the returned outcomes before choosing the next level), then
/// call [`AdaptiveRun::finish`].
#[derive(Debug)]
pub struct AdaptiveRun {
    n: usize,
    l: usize,
    k: usize,
    stage_in_block: usize,
    engine: Engine,
    /// Set masses of the current height's nodes, indexed by the nodes'
    /// fixed low bits.
    masses: Vec<usize>,
    /// Network-input pattern (over `{S_0, M_0, L_0}`), updated per block.
    input_pattern: Pattern,
    /// Value `v`'s wire at the start of the current block.
    entry_start: Vec<WireId>,
    /// Value currently on each (fixed-frame) wire.
    val_at: Vec<u32>,
    /// Persistent candidate order: `pos_of[v]` = rank of value `v`.
    pos_of: Vec<u32>,
    /// All stages seen, for the final replay.
    stages: Vec<Vec<ElementKind>>,
    /// Log of every comparator outcome revealed: (stage, fixed element,
    /// first_smaller).
    log: Vec<(usize, Element, bool)>,
    /// The set index `i₀` chosen at the most recent block boundary.
    last_chosen: u32,
}

/// Result of an adaptive game.
#[derive(Debug, Clone)]
pub struct AdaptiveOutput {
    /// Final network-input pattern.
    pub input_pattern: Pattern,
    /// Final noncolliding `[M_0]`-set.
    pub d_set: Vec<WireId>,
    /// The network the builder constructed, in the fixed wire frame (one
    /// element level per stage; behaviourally the shuffle-based network up
    /// to a final free relabeling).
    pub fixed_network: ComparatorNetwork,
    /// The self-verified refutation, when `|D| ≥ 2`.
    pub refutation: Option<SortingRefutation>,
}

impl AdaptiveRun {
    /// Starts a game on `n = 2^l` wires with Lemma 4.1 parameter `k`.
    pub fn new(n: usize, k: usize) -> Self {
        assert!(n.is_power_of_two() && n >= 2);
        let l = n.trailing_zeros() as usize;
        let pat = Pattern::uniform(n, Symbol::M(0));
        let engine = Engine::new(pat.clone(), k);
        AdaptiveRun {
            n,
            l,
            k,
            stage_in_block: 0,
            masses: (0..n as WireId).map(|w| engine.leaf_mass(w)).collect(),
            engine,
            input_pattern: pat,
            entry_start: (0..n as WireId).collect(),
            val_at: (0..n as u32).collect(),
            pos_of: (0..n as u32).collect(),
            stages: Vec::new(),
            log: Vec::new(),
            last_chosen: 0,
        }
    }

    /// Current symbol of value `v` (via its block-entry wire).
    fn sym_of(&self, v: u32) -> Symbol {
        self.engine.pat.get(self.entry_start[v as usize])
    }

    /// Stable re-sort of the candidate order by current symbols.
    fn resort(&mut self) {
        let mut order: Vec<u32> = (0..self.n as u32).collect();
        order.sort_by_key(|&v| self.pos_of[v as usize]);
        order.sort_by_key(|&v| self.sym_of(v)); // stable: preserves prior order on ties
        for (rank, &v) in order.iter().enumerate() {
            self.pos_of[v as usize] = rank as u32;
        }
    }

    /// Submits the next stage's op vector (length `n/2`; `ops[k]` acts on
    /// registers `2k, 2k+1` after the shuffle) and returns the outcome of
    /// every comparator in the stage.
    pub fn submit_stage(&mut self, ops: &[ElementKind]) -> Vec<CmpOutcome> {
        assert_eq!(ops.len(), self.n / 2, "stage must have n/2 ops");
        let h = self.stage_in_block + 1;
        // Fixed-frame elements for this stage.
        let elems: Vec<Element> = ops
            .iter()
            .enumerate()
            .map(|(kk, &kind)| {
                let (a, b) = ShuffleNetwork::stage_pair(self.n, h, kk);
                Element { a, b, kind }
            })
            .collect();

        // Process all height-h nodes: node c owns wires with low l-h bits c.
        let low_mask = (1u32 << (self.l - h)) - 1;
        let mut gamma_of: Vec<Vec<Element>> = vec![Vec::new(); 1usize << (self.l - h)];
        for e in &elems {
            if e.kind == ElementKind::Pass {
                continue;
            }
            debug_assert_eq!(e.a & low_mask, e.b & low_mask);
            gamma_of[(e.a & low_mask) as usize].push(*e);
        }
        let mut new_masses = Vec::with_capacity(1usize << (self.l - h));
        let child_stride = 1u32 << (self.l - h + 1);
        // Children are indexed by their fixed low l-h+1 bits in `masses`.
        let old_masses = std::mem::take(&mut self.masses);
        for c in 0..1u32 << (self.l - h) {
            let cz = c;
            let co = c | (1u32 << (self.l - h));
            let zero_wires: Vec<WireId> =
                (0..1u32 << (h - 1)).map(|j| cz + j * child_stride).collect();
            let one_wires: Vec<WireId> =
                (0..1u32 << (h - 1)).map(|j| co + j * child_stride).collect();
            let mass = self.engine.process_node(
                &zero_wires,
                &one_wires,
                &gamma_of[c as usize],
                h,
                (old_masses[cz as usize], old_masses[co as usize]),
            );
            new_masses.push(mass);
        }
        self.masses = new_masses;

        // Refresh the candidate order against the refined symbols, then
        // answer and advance the concrete value placement.
        self.resort();
        let mut outcomes = Vec::new();
        for (kk, e) in elems.iter().enumerate() {
            let (ia, ib) = (e.a as usize, e.b as usize);
            match e.kind {
                ElementKind::Pass => {}
                ElementKind::Swap => self.val_at.swap(ia, ib),
                ElementKind::Cmp | ElementKind::CmpRev => {
                    let (va, vb) = (self.val_at[ia], self.val_at[ib]);
                    let first_smaller = self.pos_of[va as usize] < self.pos_of[vb as usize];
                    outcomes.push(CmpOutcome { pair: kk, first_smaller });
                    self.log.push((self.stages.len(), *e, first_smaller));
                    // Route the concrete values like the element would.
                    let min_to_a = e.kind == ElementKind::Cmp;
                    if first_smaller != min_to_a {
                        self.val_at.swap(ia, ib);
                    }
                }
            }
        }
        self.stages.push(ops.to_vec());
        self.stage_in_block += 1;
        if self.stage_in_block == self.l {
            self.end_block();
        }
        outcomes
    }

    /// Finishes a block: applies the family to the network-input pattern,
    /// collapses the frontier around the chosen set, and re-arms the engine.
    fn end_block(&mut self) {
        debug_assert_eq!(self.masses.len(), 1);
        self.apply_block_result(self.engine.family(0..self.n as WireId));
        // Reset block state.
        self.stage_in_block = 0;
        let frontier = self.engine.tracer.frontier();
        let i0 = self.last_chosen;
        let collapsed = frontier.collapse_around_m(i0);
        self.engine = Engine::new(collapsed, self.k);
        // entry_start: value v's current wire.
        for (w, &v) in self.val_at.iter().enumerate() {
            self.entry_start[v as usize] = w as WireId;
        }
        self.masses = (0..self.n as WireId).map(|w| self.engine.leaf_mass(w)).collect();
        self.resort();
    }

    /// Applies a completed (or final partial) block family to the
    /// network-input pattern. Sets `last_chosen`.
    fn apply_block_result(&mut self, family: SetFamily) {
        let i0 = family.largest().map(|(i, _)| i).unwrap_or(0);
        self.last_chosen = i0;
        let m_chosen = Symbol::M(i0);
        for v in 0..self.n as u32 {
            if self.input_pattern.get(v) != Symbol::M(0) {
                continue;
            }
            let s = self.engine.pat.get(self.entry_start[v as usize]);
            let collapsed = if s < m_chosen {
                Symbol::S(0)
            } else if s > m_chosen {
                Symbol::L(0)
            } else {
                Symbol::M(0)
            };
            self.input_pattern.set(v, collapsed);
        }
    }

    /// Ends the game: finalizes any partial block, builds the witness pair,
    /// and **replays** the whole network on the witness to check that every
    /// revealed outcome was honored. Panics on any inconsistency (that
    /// would be an adversary bug, not a builder win).
    pub fn finish(mut self) -> AdaptiveOutput {
        if self.stage_in_block > 0 {
            // Union the current height's node families by symbol index:
            // the nodes are wire-disjoint and the network has ended, so
            // merged sets remain noncolliding.
            self.apply_block_result(self.engine.family(0..self.n as WireId));
            self.resort();
        }

        // Build the fixed-frame network: stage s is one element level.
        let mut levels = Vec::with_capacity(self.stages.len());
        for (s, ops) in self.stages.iter().enumerate() {
            let h = s % self.l + 1;
            let elems = ops
                .iter()
                .enumerate()
                .filter(|(_, &kind)| kind != ElementKind::Pass)
                .map(|(kk, &kind)| {
                    let (a, b) = ShuffleNetwork::stage_pair(self.n, h, kk);
                    Element { a, b, kind }
                })
                .collect();
            levels.push(Level::of_elements(elems));
        }
        let fixed_network =
            ComparatorNetwork::new(self.n, levels).expect("stage levels are wire-disjoint");

        // Witness input: the candidate order itself.
        let input_a: Vec<u32> = self.pos_of.clone();
        assert!(
            self.input_pattern.refines_to_input(&input_a),
            "candidate order must refine the final pattern"
        );

        // Replay: every logged outcome must hold on input_a. The compiled
        // IR's canonical pipeline preserves the source comparator order, so
        // the traced event stream is identical to the interpreter's.
        let exec = snet_core::ir::Executor::compile(&fixed_network);
        let mut cursor = 0usize;
        exec.evaluate_traced(&input_a, |ev| {
            let (stage, elem, first_smaller) = self.log[cursor];
            assert_eq!(ev.level, stage, "replay out of sync");
            assert_eq!(ev.element, elem, "replay element mismatch");
            assert_eq!(
                ev.va < ev.vb,
                first_smaller,
                "revealed outcome contradicted at stage {stage}, element {elem:?}"
            );
            cursor += 1;
        });
        assert_eq!(cursor, self.log.len(), "replay must cover the full log");

        // Refutation, if two uncompared adjacent wires remain.
        let d_set = self.input_pattern.symbol_set(Symbol::M(0));
        let refutation = if d_set.len() >= 2 {
            // The two lowest-ranked D values are adjacent in input_a.
            let mut dd: Vec<WireId> = d_set.clone();
            dd.sort_by_key(|&w| input_a[w as usize]);
            let (w0, w1) = (dd[0], dd[1]);
            let m = input_a[w0 as usize];
            debug_assert_eq!(input_a[w1 as usize], m + 1);
            let mut input_b = input_a.clone();
            input_b.swap(w0 as usize, w1 as usize);
            let output_a = exec.evaluate(&input_a);
            let output_b = exec.evaluate(&input_b);
            let r = SortingRefutation {
                input_a: input_a.clone(),
                input_b,
                m,
                wire_pair: (w0, w1),
                output_a,
                output_b,
            };
            r.verify(&fixed_network).expect("adaptive refutation must verify");
            Some(r)
        } else {
            None
        };

        AdaptiveOutput { input_pattern: self.input_pattern, d_set, fixed_network, refutation }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    /// An oblivious builder: ignores outcomes, plays all-`+`.
    fn play_all_plus(n: usize, k: usize, stages: usize) -> AdaptiveOutput {
        let mut run = AdaptiveRun::new(n, k);
        for _ in 0..stages {
            run.submit_stage(&vec![ElementKind::Cmp; n / 2]);
        }
        run.finish()
    }

    #[test]
    fn oblivious_builder_is_refuted() {
        let l = 4;
        let n = 1usize << l;
        let out = play_all_plus(n, l, l); // one full block
        assert!(out.d_set.len() >= 2, "|D| = {}", out.d_set.len());
        assert!(out.refutation.is_some());
    }

    #[test]
    fn adaptive_greedy_builder_is_refuted() {
        // A builder that adapts: flips each comparator's direction based on
        // the previous stage's outcome at the same index (a cheap attempt
        // to "chase" the adversary's values).
        let l = 4;
        let n = 1usize << l;
        let mut run = AdaptiveRun::new(n, l);
        let mut last: Vec<CmpOutcome> = Vec::new();
        for s in 0..2 * l {
            let ops: Vec<ElementKind> = (0..n / 2)
                .map(|kk| {
                    let flip = last
                        .iter()
                        .find(|o| o.pair == kk)
                        .map(|o| o.first_smaller)
                        .unwrap_or(s % 2 == 0);
                    if flip {
                        ElementKind::CmpRev
                    } else {
                        ElementKind::Cmp
                    }
                })
                .collect();
            last = run.submit_stage(&ops);
            assert_eq!(last.len(), n / 2);
        }
        let out = run.finish();
        // After 2 blocks on n = 16 the adversary must still hold ≥ 2 wires.
        assert!(out.d_set.len() >= 2, "|D| = {}", out.d_set.len());
        out.refutation.unwrap().verify(&out.fixed_network).unwrap();
    }

    #[test]
    fn randomized_builder_consistency_fuzz() {
        // The real test is the replay inside finish(): every outcome the
        // adversary revealed must hold on the final witness input. Fuzz it
        // with random adaptive builders (mixing all four element kinds and
        // keying decisions off the outcome stream).
        let mut rng = rand::rngs::StdRng::seed_from_u64(909);
        for trial in 0..25u64 {
            let l = 3;
            let n = 1usize << l;
            let mut run = AdaptiveRun::new(n, 2);
            let stages = rng.gen_range(1..=3 * l);
            let mut bias = 0u32;
            for _ in 0..stages {
                let ops: Vec<ElementKind> = (0..n / 2)
                    .map(|_| match (rng.gen_range(0..6u32) + bias) % 6 {
                        0 | 1 => ElementKind::Cmp,
                        2 | 3 => ElementKind::CmpRev,
                        4 => ElementKind::Swap,
                        _ => ElementKind::Pass,
                    })
                    .collect();
                let outcomes = run.submit_stage(&ops);
                bias = outcomes.iter().filter(|o| o.first_smaller).count() as u32;
            }
            let out = run.finish(); // panics on any inconsistency
            let _ = (trial, out);
        }
    }

    #[test]
    fn partial_block_finish_is_sound() {
        let l = 4;
        let n = 1usize << l;
        let out = play_all_plus(n, l, l + 2); // one block + 2 stages
        if out.d_set.len() >= 2 {
            out.refutation.unwrap().verify(&out.fixed_network).unwrap();
        }
    }

    #[test]
    fn deep_play_eventually_shrinks_d() {
        let l = 3;
        let n = 1usize << l;
        let shallow = play_all_plus(n, l, l);
        let deep = play_all_plus(n, l, 6 * l);
        assert!(deep.d_set.len() <= shallow.d_set.len());
    }
}
