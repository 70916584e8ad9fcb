//! Input patterns and refinement (Definitions 3.1–3.3 and Lemma 3.4).
//!
//! An input pattern is a total mapping from the wires `W` to the pattern
//! alphabet `P`. A pattern `p` *can be refined* to `q` (written `p ⊐ q`)
//! if every strict order `p(w) < p(w')` is preserved by `q`; refinement to a
//! concrete input (a permutation of `{0,…,n-1}`) is the special case where
//! `q`'s codomain is the values themselves.
//!
//! We store patterns densely: `syms[w]` is the symbol on wire `w`.

use crate::symbol::Symbol;
use snet_core::element::WireId;
use snet_core::perm::Permutation;

/// An input pattern on wires `0..n`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pattern {
    syms: Vec<Symbol>,
}

impl Pattern {
    /// A pattern assigning `sym` to every wire.
    pub fn uniform(n: usize, sym: Symbol) -> Self {
        Pattern { syms: vec![sym; n] }
    }

    /// Builds from an explicit symbol vector.
    pub fn from_symbols(syms: Vec<Symbol>) -> Self {
        Pattern { syms }
    }

    /// Number of wires.
    pub fn len(&self) -> usize {
        self.syms.len()
    }

    /// True iff the pattern has no wires.
    pub fn is_empty(&self) -> bool {
        self.syms.is_empty()
    }

    /// Symbol on wire `w`.
    pub fn get(&self, w: WireId) -> Symbol {
        self.syms[w as usize]
    }

    /// Sets the symbol on wire `w`.
    pub fn set(&mut self, w: WireId, sym: Symbol) {
        self.syms[w as usize] = sym;
    }

    /// The underlying symbol slice.
    pub fn symbols(&self) -> &[Symbol] {
        &self.syms
    }

    /// The `[P]`-set of this pattern: all wires carrying `sym`.
    pub fn symbol_set(&self, sym: Symbol) -> Vec<WireId> {
        self.syms.iter().enumerate().filter(|(_, &s)| s == sym).map(|(w, _)| w as WireId).collect()
    }

    /// Counts wires carrying `sym`.
    pub fn symbol_count(&self, sym: Symbol) -> usize {
        self.syms.iter().filter(|&&s| s == sym).count()
    }

    /// Checks `self ⊐_W other` (Definition 3.1b): every strict order among
    /// symbols of `self` is preserved in `other`.
    ///
    /// Runs in `O(n log n)`: wires are bucketed by `self`-symbol; refinement
    /// holds iff, walking the buckets in `<_P` order, the `other`-symbol
    /// ranges of consecutive buckets are strictly separated.
    pub fn refines_to(&self, other: &Pattern) -> bool {
        assert_eq!(self.len(), other.len(), "patterns on different wire sets");
        if self.is_empty() {
            return true;
        }
        let mut order: Vec<u32> = (0..self.len() as u32).collect();
        order.sort_by_key(|&w| self.syms[w as usize]);
        // For each maximal run of equal self-symbols, track (min, max) of
        // other-symbols; require max(prev run) < min(next run).
        let mut prev_max: Option<Symbol> = None;
        let mut i = 0;
        while i < order.len() {
            let run_sym = self.syms[order[i] as usize];
            let mut run_min = other.syms[order[i] as usize];
            let mut run_max = run_min;
            let mut j = i;
            while j < order.len() && self.syms[order[j] as usize] == run_sym {
                let s = other.syms[order[j] as usize];
                run_min = run_min.min(s);
                run_max = run_max.max(s);
                j += 1;
            }
            if let Some(pm) = prev_max {
                if pm >= run_min {
                    return false;
                }
            }
            prev_max = Some(run_max);
            i = j;
        }
        true
    }

    /// Checks `self ⊐_U other` (Definition 3.2b): refinement that only
    /// changes wires inside `U`.
    pub fn refines_to_within(&self, other: &Pattern, u: &[WireId]) -> bool {
        if !self.refines_to(other) {
            return false;
        }
        let mut in_u = vec![false; self.len()];
        for &w in u {
            in_u[w as usize] = true;
        }
        (0..self.len()).all(|w| in_u[w] || self.syms[w] == other.syms[w])
    }

    /// Checks `self ⊐_W π` for a concrete input permutation (Definition
    /// 3.1c): value order must respect every strict symbol order.
    pub fn refines_to_input(&self, input: &[u32]) -> bool {
        assert_eq!(self.len(), input.len());
        let mut order: Vec<u32> = (0..self.len() as u32).collect();
        order.sort_by_key(|&w| self.syms[w as usize]);
        let mut prev_max: Option<u32> = None;
        let mut i = 0;
        while i < order.len() {
            let run_sym = self.syms[order[i] as usize];
            let mut run_min = input[order[i] as usize];
            let mut run_max = run_min;
            let mut j = i;
            while j < order.len() && self.syms[order[j] as usize] == run_sym {
                let v = input[order[j] as usize];
                run_min = run_min.min(v);
                run_max = run_max.max(v);
                j += 1;
            }
            if let Some(pm) = prev_max {
                if pm >= run_min {
                    return false;
                }
            }
            prev_max = Some(run_max);
            i = j;
        }
        true
    }

    /// Equivalence: mutual refinement (the patterns describe the same input
    /// set and differ only by an order-preserving renaming).
    pub fn equivalent(&self, other: &Pattern) -> bool {
        self.refines_to(other) && other.refines_to(self)
    }

    /// Refines the pattern to a concrete input permutation of `{0,…,n-1}`.
    /// Within each symbol class, values are assigned in ascending wire
    /// order; classes receive consecutive value blocks in `<_P` order. The
    /// result always satisfies `self ⊐_W result`.
    pub fn to_input(&self) -> Vec<u32> {
        let mut order: Vec<u32> = (0..self.len() as u32).collect();
        // Stable sort keeps ascending wire order within classes.
        order.sort_by_key(|&w| self.syms[w as usize]);
        let mut input = vec![0u32; self.len()];
        for (rank, &w) in order.iter().enumerate() {
            input[w as usize] = rank as u32;
        }
        input
    }

    /// Refines to a concrete input with a caller-supplied tie-break: wires
    /// within one symbol class are ranked by `tie(w)` ascending (then wire
    /// id). Useful for placing chosen adjacent values on chosen wires.
    pub fn to_input_with<F: Fn(WireId) -> u32>(&self, tie: F) -> Vec<u32> {
        let mut order: Vec<u32> = (0..self.len() as u32).collect();
        order.sort_by_key(|&w| (self.syms[w as usize], tie(w), w));
        let mut input = vec![0u32; self.len()];
        for (rank, &w) in order.iter().enumerate() {
            input[w as usize] = rank as u32;
        }
        input
    }

    /// The `ρ_i` collapse of Lemma 3.4: symbols `< M_i` become `S_0`,
    /// symbols `> M_i` become `L_0`, and `M_i` becomes `M_0`. Preserves
    /// noncollision of the `[M_i]`-set.
    pub fn collapse_around_m(&self, i: u32) -> Pattern {
        let m = Symbol::M(i);
        let syms = self
            .syms
            .iter()
            .map(|&s| {
                if s < m {
                    Symbol::S(0)
                } else if s > m {
                    Symbol::L(0)
                } else {
                    Symbol::M(0)
                }
            })
            .collect();
        Pattern { syms }
    }

    /// Routes the pattern through a fixed permutation: the symbol on wire
    /// `w` moves to wire `perm(w)` (matching value routing in the network).
    pub fn route(&self, perm: &Permutation) -> Pattern {
        assert_eq!(perm.len(), self.len());
        let mut syms = self.syms.clone();
        perm.route(&self.syms, &mut syms);
        Pattern { syms }
    }

    /// Restriction of the pattern to a wire subset, re-indexed densely in
    /// the order given by `wires` (Definition 3.2a up to re-indexing).
    pub fn restrict(&self, wires: &[WireId]) -> Pattern {
        Pattern { syms: wires.iter().map(|&w| self.syms[w as usize]).collect() }
    }

    /// The canonical form of the pattern: symbols are renamed, order
    /// preserved, onto the dense prefix `M_0 < M_1 < …` of the `M` band.
    /// Since order-preserving renamings are exactly the pattern
    /// equivalences (see after Definition 3.3), two patterns are
    /// **equivalent iff their canonical forms are identical** — tested in
    /// this module and used for fast equivalence checks.
    pub fn canonicalize(&self) -> Pattern {
        // Rank the distinct symbols in <_P order.
        let mut distinct: Vec<Symbol> = self.syms.clone();
        distinct.sort_unstable();
        distinct.dedup();
        let rank_of =
            |s: Symbol| -> u32 { distinct.binary_search(&s).expect("symbol present") as u32 };
        Pattern { syms: self.syms.iter().map(|&s| Symbol::M(rank_of(s))).collect() }
    }

    /// The combination `p₀ ⊕ p₁` of Definition 3.3: `p₀` lives on the wires
    /// `u0` and `p₁` on the disjoint wires `u1`; together they must cover
    /// `0..n`. `q|_{U₀} = p₀` and `q|_{U₁} = p₁`.
    ///
    /// Panics if the domains overlap or fail to cover `0..n`
    /// (`n = u0.len() + u1.len()`).
    pub fn combine(u0: &[WireId], p0: &Pattern, u1: &[WireId], p1: &Pattern) -> Pattern {
        assert_eq!(u0.len(), p0.len(), "p0 must live exactly on u0");
        assert_eq!(u1.len(), p1.len(), "p1 must live exactly on u1");
        let n = u0.len() + u1.len();
        let mut syms = vec![None; n];
        for (i, &w) in u0.iter().enumerate() {
            assert!(syms[w as usize].replace(p0.get(i as WireId)).is_none(), "overlap at {w}");
        }
        for (i, &w) in u1.iter().enumerate() {
            assert!(syms[w as usize].replace(p1.get(i as WireId)).is_none(), "overlap at {w}");
        }
        Pattern {
            syms: syms
                .into_iter()
                .enumerate()
                .map(|(w, s)| s.unwrap_or_else(|| panic!("wire {w} uncovered")))
                .collect(),
        }
    }
}

impl std::fmt::Display for Pattern {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[")?;
        for (i, s) in self.syms.iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            write!(f, "{s}")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use Symbol::{L, M, S, X};

    #[test]
    fn example_3_1_refinement() {
        // W = {w0..w4}; p: L on w0,w1; M on the rest. Refines to inputs
        // assigning the two largest values to w0, w1.
        let p = Pattern::from_symbols(vec![L(0), L(0), M(0), M(0), M(0)]);
        assert!(p.refines_to_input(&[3, 4, 0, 1, 2]));
        assert!(p.refines_to_input(&[4, 3, 2, 0, 1]));
        assert!(!p.refines_to_input(&[0, 4, 1, 2, 3]), "w0 must be above all M wires");

        // p' refines p: also pins w2 to Small.
        let p2 = Pattern::from_symbols(vec![L(0), L(0), S(0), M(0), M(0)]);
        assert!(p.refines_to(&p2));
        assert!(!p2.refines_to(&p), "p2 is strictly finer");
        assert!(p2.refines_to_input(&[3, 4, 0, 1, 2]));
        assert!(!p2.refines_to_input(&[3, 4, 1, 0, 2]), "w2 must be smallest");
    }

    #[test]
    fn example_3_2_equivalence_by_shift() {
        // Shifting every M index by a constant is an order-preserving
        // renaming: the patterns are equivalent.
        let p = Pattern::from_symbols(vec![M(0), M(2), M(1)]);
        let q = Pattern::from_symbols(vec![M(5), M(7), M(6)]);
        assert!(p.equivalent(&q));
        assert!(p.refines_to(&q) && q.refines_to(&p));
    }

    #[test]
    fn refinement_is_set_containment() {
        // (p0 ⊐ p1) ⇔ (p0[V] ⊇ p1[V]) — verified by enumerating all inputs
        // for a small wire count.
        let p0 = Pattern::from_symbols(vec![M(0), M(0), M(0), L(0)]);
        let p1 = Pattern::from_symbols(vec![S(0), M(0), M(0), L(0)]);
        assert!(p0.refines_to(&p1));
        let mut all0 = Vec::new();
        let mut all1 = Vec::new();
        let perms = all_perms(4);
        for input in &perms {
            if p0.refines_to_input(input) {
                all0.push(input.clone());
            }
            if p1.refines_to_input(input) {
                all1.push(input.clone());
            }
        }
        assert!(!all1.is_empty());
        for i in &all1 {
            assert!(all0.contains(i), "p1's inputs are a subset of p0's");
        }
        assert!(all0.len() > all1.len());
    }

    fn all_perms(n: usize) -> Vec<Vec<u32>> {
        let mut out = Vec::new();
        let mut p: Vec<u32> = (0..n as u32).collect();
        let mut c = vec![0usize; n];
        out.push(p.clone());
        let mut i = 0;
        while i < n {
            if c[i] < i {
                if i % 2 == 0 {
                    p.swap(0, i);
                } else {
                    p.swap(c[i], i);
                }
                out.push(p.clone());
                c[i] += 1;
                i = 0;
            } else {
                c[i] = 0;
                i += 1;
            }
        }
        out
    }

    #[test]
    fn to_input_always_refines() {
        let p = Pattern::from_symbols(vec![L(1), M(0), S(0), M(0), X(0, 1), L(0)]);
        let input = p.to_input();
        assert!(p.refines_to_input(&input));
        // L(1) < L(0): wire 0 gets a smaller value than wire 5.
        assert!(input[0] < input[5]);
        // S(0) smallest.
        assert_eq!(input[2], 0);
    }

    #[test]
    fn to_input_with_tiebreak_orders_class() {
        let p = Pattern::uniform(4, M(0));
        let input = p.to_input_with(|w| 3 - w);
        assert_eq!(input, vec![3, 2, 1, 0]);
        assert!(p.refines_to_input(&input));
    }

    #[test]
    fn collapse_around_m_matches_lemma_3_4() {
        let p = Pattern::from_symbols(vec![S(3), X(2, 0), M(1), M(2), X(3, 1), L(7), M(3)]);
        let c = p.collapse_around_m(2);
        assert_eq!(
            c.symbols(),
            &[S(0), S(0), S(0), M(0), L(0), L(0), L(0)],
            "everything below M_2 collapses to S_0, above to L_0"
        );
        // ρ_i is a *coarsening*: the collapsed pattern admits every input the
        // original admits (but not vice versa).
        assert!(c.refines_to(&p), "the original is a refinement of its collapse");
        assert!(c.refines_to_input(&p.to_input()));
    }

    #[test]
    fn restriction_reindexes() {
        let p = Pattern::from_symbols(vec![S(0), M(0), L(0), M(1)]);
        let r = p.restrict(&[3, 1]);
        assert_eq!(r.symbols(), &[M(1), M(0)]);
    }

    #[test]
    fn route_moves_symbols_with_values() {
        let p = Pattern::from_symbols(vec![S(0), M(0), L(0)]);
        let perm = Permutation::from_images_unchecked(vec![2, 0, 1]);
        let routed = p.route(&perm);
        assert_eq!(routed.symbols(), &[M(0), L(0), S(0)]);
    }

    #[test]
    fn refines_within_u() {
        let p = Pattern::from_symbols(vec![M(0), M(0), L(0)]);
        let q = Pattern::from_symbols(vec![M(0), M(1), L(0)]);
        assert!(p.refines_to_within(&q, &[1]));
        assert!(!p.refines_to_within(&q, &[0]), "wire 1 changed but is outside U");
    }

    #[test]
    fn canonical_forms_characterize_equivalence() {
        // Equivalent patterns canonicalize identically…
        let p = Pattern::from_symbols(vec![M(0), M(2), M(1)]);
        let q = Pattern::from_symbols(vec![M(5), M(7), M(6)]);
        let r = Pattern::from_symbols(vec![S(3), L(0), X(4, 2)]);
        assert_eq!(p.canonicalize(), q.canonicalize());
        // …including across different symbol families with the same order
        // type (S(3) < X(4,2) < L(0) has the shape 0 < 2 < 1).
        assert_eq!(p.canonicalize(), r.canonicalize());
        assert!(p.equivalent(&r));
        // Non-equivalent patterns canonicalize differently.
        let s = Pattern::from_symbols(vec![M(0), M(0), M(1)]);
        assert_ne!(p.canonicalize(), s.canonicalize());
        // The canonical form is equivalent to the original and idempotent.
        assert!(p.equivalent(&p.canonicalize()));
        assert_eq!(p.canonicalize().canonicalize(), p.canonicalize());
    }

    proptest! {
        #[test]
        fn canonicalization_agrees_with_mutual_refinement(
            a in arb_small_pattern(5),
            b in arb_small_pattern(5),
        ) {
            prop_assert_eq!(a.equivalent(&b), a.canonicalize() == b.canonicalize());
        }
    }

    #[test]
    fn combine_definition_3_3() {
        let p0 = Pattern::from_symbols(vec![S(0), M(0)]);
        let p1 = Pattern::from_symbols(vec![L(0), M(1)]);
        let q = Pattern::combine(&[0, 2], &p0, &[3, 1], &p1);
        assert_eq!(q.symbols(), &[S(0), M(1), M(0), L(0)]);
        // Restrictions recover the parts.
        assert_eq!(q.restrict(&[0, 2]), p0);
        assert_eq!(q.restrict(&[3, 1]), p1);
    }

    #[test]
    #[should_panic(expected = "overlap")]
    fn combine_rejects_overlap() {
        let p = Pattern::from_symbols(vec![M(0)]);
        let _ = Pattern::combine(&[0], &p, &[0], &p);
    }

    #[test]
    fn symbol_sets() {
        let p = Pattern::from_symbols(vec![M(0), S(0), M(0), L(0)]);
        assert_eq!(p.symbol_set(M(0)), vec![0, 2]);
        assert_eq!(p.symbol_count(M(0)), 2);
        assert_eq!(p.symbol_set(M(9)), Vec::<u32>::new());
    }

    fn arb_small_pattern(n: usize) -> impl Strategy<Value = Pattern> {
        proptest::collection::vec(
            prop_oneof![
                (0u32..3).prop_map(S),
                ((0u32..3), (0u32..3)).prop_map(|(i, j)| X(i, j)),
                (0u32..3).prop_map(M),
                (0u32..3).prop_map(L),
            ],
            n,
        )
        .prop_map(Pattern::from_symbols)
    }

    proptest! {
        #[test]
        fn refinement_is_reflexive_and_to_input_consistent(p in arb_small_pattern(6)) {
            prop_assert!(p.refines_to(&p));
            prop_assert!(p.refines_to_input(&p.to_input()));
        }

        #[test]
        fn collapse_is_coarsening_and_transitivity_holds(p in arb_small_pattern(5)) {
            // c = ρ_1(p) is coarser: c ⊐ p ⊐ to_input(p), hence c ⊐ to_input(p).
            let c = p.collapse_around_m(1);
            prop_assert!(c.refines_to(&p));
            let input = p.to_input();
            prop_assert!(p.refines_to_input(&input));
            prop_assert!(c.refines_to_input(&input), "transitivity through the collapse");
        }

        #[test]
        fn route_then_restrict_consistent(p in arb_small_pattern(8), seed in 0u64..1000) {
            use rand::SeedableRng;
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let perm = Permutation::random(8, &mut rng);
            let routed = p.route(&perm);
            for w in 0..8u32 {
                prop_assert_eq!(routed.get(perm.apply(w as usize) as u32), p.get(w));
            }
        }
    }
}
