//! Reachable 0-1 set states: the Bundala–Závodný abstraction driving
//! depth-optimal search.
//!
//! By the 0-1 principle a comparator network sorts iff it sorts every
//! vector in `{0,1}^n`. A *prefix* of a network is therefore fully
//! characterised, for the purpose of extending it into a sorter, by the
//! **set of 0-1 vectors it can still emit** — the image of the full cube
//! under the prefix. [`ZeroOneSet`] is that set as a membership bitset
//! over the `2^n` vector indices (bit `w` of an index is the value on
//! wire `w`).
//!
//! Key facts the search engine builds on, all phrased over this type:
//!
//! * a suffix network sorts the prefix iff it maps the set into the
//!   `n + 1` sorted vectors ([`ZeroOneSet::is_sorted_only`]);
//! * if `S ⊆ T`, every suffix sorting `T` sorts `S`
//!   ([`ZeroOneSet::is_subset`]) — the *subsumption* prune;
//! * applying a comparator layer is an index remap
//!   ([`ZeroOneSet::apply_elements_into`]), as is a routing permutation
//!   ([`ZeroOneSet::apply_route_into`]);
//! * reversing the wire order while complementing all values preserves
//!   sortability at equal depth ([`ZeroOneSet::dual_into`]) — the state
//!   and its dual are interchangeable for lower-bound caching.

use crate::element::{Element, ElementKind};
use crate::perm::Permutation;

/// Largest supported wire count: `2^24` membership bits = 2 MiB per set.
pub const MAX_WIRES: usize = 24;

/// A set of 0-1 vectors on `n` wires, stored as a `2^n`-bit membership
/// bitset. Vector index encoding: bit `w` of the index is the value
/// carried by wire `w`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ZeroOneSet {
    n: usize,
    words: Vec<u64>,
}

#[inline]
fn word_count(n: usize) -> usize {
    if n >= 6 {
        1 << (n - 6)
    } else {
        1
    }
}

/// Mask of the valid index bits within the (single) word when `n < 6`.
#[inline]
fn tail_mask(n: usize) -> u64 {
    if n >= 6 {
        u64::MAX
    } else {
        (1u64 << (1usize << n)) - 1
    }
}

impl ZeroOneSet {
    /// The empty set on `n` wires.
    pub fn empty(n: usize) -> Self {
        assert!((1..=MAX_WIRES).contains(&n), "ZeroOneSet supports 1..={MAX_WIRES} wires");
        ZeroOneSet { n, words: vec![0; word_count(n)] }
    }

    /// The full cube `{0,1}^n` — the state before any comparator.
    pub fn full(n: usize) -> Self {
        let mut s = Self::empty(n);
        for w in s.words.iter_mut() {
            *w = u64::MAX;
        }
        let last = s.words.len() - 1;
        s.words[last] &= tail_mask(n);
        s
    }

    /// The set containing exactly the `n + 1` sorted vectors
    /// (`0^{n-k} 1^k` in wire order, i.e. nondecreasing values).
    pub fn sorted_only(n: usize) -> Self {
        let mut s = Self::empty(n);
        for k in 0..=n {
            s.insert(Self::sorted_index(n, k));
        }
        s
    }

    /// Index of the sorted vector with `k` ones: ones on the top `k`
    /// wires, `(2^k - 1) << (n - k)`.
    #[inline]
    pub fn sorted_index(n: usize, ones: usize) -> u64 {
        debug_assert!(ones <= n);
        if ones == 0 {
            0
        } else {
            ((1u64 << ones) - 1) << (n - ones)
        }
    }

    /// Number of wires.
    #[inline]
    pub fn wires(&self) -> usize {
        self.n
    }

    /// The raw membership words (LSB of word 0 = vector index 0).
    #[inline]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Adds vector index `x`.
    #[inline]
    pub fn insert(&mut self, x: u64) {
        debug_assert!(x < (1u64 << self.n));
        self.words[(x >> 6) as usize] |= 1u64 << (x & 63);
    }

    /// True iff vector index `x` is a member.
    #[inline]
    pub fn contains(&self, x: u64) -> bool {
        (self.words[(x >> 6) as usize] >> (x & 63)) & 1 == 1
    }

    /// Number of member vectors.
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// True iff no vectors are members.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Removes all members.
    pub fn clear(&mut self) {
        for w in self.words.iter_mut() {
            *w = 0;
        }
    }

    /// Iterates member vector indices in increasing order.
    pub fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &word)| {
            let base = (wi as u64) << 6;
            BitIter { word }.map(move |b| base + b)
        })
    }

    /// True iff every member of `self` is a member of `other`.
    pub fn is_subset(&self, other: &ZeroOneSet) -> bool {
        debug_assert_eq!(self.n, other.n);
        self.words.iter().zip(&other.words).all(|(&a, &b)| a & !b == 0)
    }

    /// True iff every member is one of the `n + 1` sorted vectors — the
    /// success condition of the depth search.
    pub fn is_sorted_only(&self) -> bool {
        // Cheap path: at most n + 1 members, then verify each.
        if self.len() > self.n + 1 {
            return false;
        }
        self.iter().all(|x| self.index_is_sorted(x))
    }

    #[inline]
    fn index_is_sorted(&self, x: u64) -> bool {
        x == Self::sorted_index(self.n, x.count_ones() as usize)
    }

    /// Size of the largest same-popcount class `{x ∈ S : |x| = k}`.
    /// Drives the admissible collapse bound: a single comparator layer
    /// with `c` comparators merges at most `2^c` vectors onto one.
    pub fn max_class_len(&self) -> usize {
        let mut counts = vec![0usize; self.n + 1];
        for x in self.iter() {
            counts[x.count_ones() as usize] += 1;
        }
        counts.into_iter().max().unwrap_or(0)
    }

    /// Applies the index transform of one element to `x` (standard 0-1
    /// semantics: `Cmp` = min to `a`, `CmpRev` = max to `a`, `Swap` =
    /// exchange, `Pass` = identity).
    #[inline]
    pub fn apply_element_to_index(x: u64, e: &Element) -> u64 {
        let (ba, bb) = ((x >> e.a) & 1, (x >> e.b) & 1);
        let flip = (1u64 << e.a) | (1u64 << e.b);
        match e.kind {
            // Fires when `a` carries 1 and `b` carries 0: both bits flip.
            ElementKind::Cmp => {
                if ba == 1 && bb == 0 {
                    x ^ flip
                } else {
                    x
                }
            }
            // Mirrored firing condition.
            ElementKind::CmpRev => {
                if ba == 0 && bb == 1 {
                    x ^ flip
                } else {
                    x
                }
            }
            ElementKind::Pass => x,
            ElementKind::Swap => {
                if ba != bb {
                    x ^ flip
                } else {
                    x
                }
            }
        }
    }

    /// Applies a layer of elements (disjoint wire pairs) to every member,
    /// writing the image set into `out`. `out` is cleared first.
    pub fn apply_elements_into(&self, elements: &[Element], out: &mut ZeroOneSet) {
        debug_assert_eq!(self.n, out.n);
        out.clear();
        for x in self.iter() {
            let mut y = x;
            for e in elements {
                y = Self::apply_element_to_index(y, e);
            }
            out.insert(y);
        }
    }

    /// Routes every member by `perm` (the value on wire `i` moves to wire
    /// `perm(i)`, matching [`Permutation::route`]), writing into `out`.
    pub fn apply_route_into(&self, perm: &Permutation, out: &mut ZeroOneSet) {
        debug_assert_eq!(self.n, out.n);
        debug_assert_eq!(self.n, perm.len());
        out.clear();
        let images = perm.images();
        for x in self.iter() {
            let mut y = 0u64;
            let mut bits = x;
            while bits != 0 {
                let w = bits.trailing_zeros() as usize;
                y |= 1u64 << images[w];
                bits &= bits - 1;
            }
            out.insert(y);
        }
    }

    /// Applies a final output gather (`output_map[w]` = slot read by
    /// output wire `w`, as in the IR), writing into `out`.
    pub fn apply_output_map_into(&self, output_map: &[u32], out: &mut ZeroOneSet) {
        debug_assert_eq!(self.n, out.n);
        debug_assert_eq!(self.n, output_map.len());
        out.clear();
        for x in self.iter() {
            let mut y = 0u64;
            for (w, &slot) in output_map.iter().enumerate() {
                y |= ((x >> slot) & 1) << w;
            }
            out.insert(y);
        }
    }

    /// The *dual* state: wire order reversed and all values complemented.
    /// A suffix sorts `S` in depth `d` iff the conjugate-standardized
    /// suffix sorts `dual(S)` in depth `d`, so `S` and `dual(S)` share
    /// their minimum remaining depth (unrestricted layers).
    pub fn dual_into(&self, out: &mut ZeroOneSet) {
        debug_assert_eq!(self.n, out.n);
        out.clear();
        let n = self.n;
        let mask = (1u64 << n) - 1;
        for x in self.iter() {
            // Reverse the low n bits, then complement within the mask.
            let rev = x.reverse_bits() >> (64 - n);
            out.insert(!rev & mask);
        }
    }

    /// True if the dual of `self` is lexicographically smaller (as word
    /// vectors) than `self` — used to pick a canonical representative of
    /// the `{S, dual(S)}` pair for transposition-table keys.
    pub fn dual_is_smaller(&self, scratch: &mut ZeroOneSet) -> bool {
        self.dual_into(scratch);
        scratch.words < self.words
    }
}

/// One masked-shift pass over the membership words: indices selected by
/// `up` move `delta` bit positions towards the high end, indices selected
/// by `down` move `delta` positions towards the low end, everything else
/// stays. A comparator, swap, or index-bit transposition is exactly one
/// such pass (see [`CompiledLayer`]).
#[derive(Debug, Clone)]
struct CompiledStep {
    up: Vec<u64>,
    down: Vec<u64>,
    delta: usize,
}

/// A comparator layer (optionally preceded by a routing permutation)
/// compiled to a sequence of masked word shifts, so applying it to a
/// [`ZeroOneSet`] costs `O(steps × words)` regardless of how many
/// vectors the set holds — the bitset-parallel analogue of
/// [`ZeroOneSet::apply_elements_into`]. This is the inner loop of the
/// depth-optimal search, where each DFS node applies every candidate
/// layer to its state.
///
/// The translation rests on the index encoding: an element on wires
/// `(a, b)` with `a < b` only ever moves an index by `±(2^b − 2^a)` —
/// `Cmp` fires on `(1, 0)` and adds, `CmpRev` fires on `(0, 1)` and
/// subtracts, `Swap` does both — and a routing permutation decomposes
/// into wire transpositions, each of which is a `Swap` step.
#[derive(Debug, Clone)]
pub struct CompiledLayer {
    n: usize,
    steps: Vec<CompiledStep>,
}

impl CompiledLayer {
    /// Compiles `route` (applied first, if present) followed by
    /// `elements` into masked-shift form. Mask construction scans the
    /// `2^n` indices once per step, so compile once and reuse.
    ///
    /// # Panics
    ///
    /// Panics if `n > 16` (masks would be impractically large) or if an
    /// element touches a wire `>= n`.
    pub fn compile(n: usize, route: Option<&Permutation>, elements: &[Element]) -> Self {
        assert!(n <= 16, "compiled layers support n <= 16 (got {n})");
        let mut pairs: Vec<(u32, u32, ElementKind)> = Vec::new();
        if let Some(perm) = route {
            assert_eq!(perm.len(), n, "route length must match wire count");
            for (i, j) in route_transpositions(perm) {
                pairs.push((i, j, ElementKind::Swap));
            }
        }
        for e in elements {
            assert!((e.b as usize) < n, "element wire out of range");
            let (a, b) = (e.a.min(e.b), e.a.max(e.b));
            // Element orientation is defined on the ordered pair the
            // element stores; normalise to a < b for the mask scan.
            let kind = if e.a <= e.b {
                e.kind
            } else {
                match e.kind {
                    ElementKind::Cmp => ElementKind::CmpRev,
                    ElementKind::CmpRev => ElementKind::Cmp,
                    other => other,
                }
            };
            pairs.push((a, b, kind));
        }

        let words = word_count(n);
        let steps = pairs
            .into_iter()
            .filter(|(_, _, kind)| *kind != ElementKind::Pass)
            .map(|(a, b, kind)| {
                let mut up = vec![0u64; words];
                let mut down = vec![0u64; words];
                for x in 0..(1u64 << n) {
                    let ba = (x >> a) & 1;
                    let bb = (x >> b) & 1;
                    let fires_up = ba == 1 && bb == 0; // x + (2^b - 2^a)
                    let fires_down = ba == 0 && bb == 1; // x - (2^b - 2^a)
                    match kind {
                        ElementKind::Cmp if fires_up => up[(x >> 6) as usize] |= 1 << (x & 63),
                        ElementKind::CmpRev if fires_down => {
                            down[(x >> 6) as usize] |= 1 << (x & 63)
                        }
                        ElementKind::Swap if fires_up => up[(x >> 6) as usize] |= 1 << (x & 63),
                        ElementKind::Swap if fires_down => down[(x >> 6) as usize] |= 1 << (x & 63),
                        _ => {}
                    }
                }
                CompiledStep { up, down, delta: (1usize << b) - (1usize << a) }
            })
            .collect();
        CompiledLayer { n, steps }
    }

    /// Number of wires the layer acts on.
    pub fn wires(&self) -> usize {
        self.n
    }

    /// Applies the layer: `dst` receives the image of `src`; `scratch`
    /// is clobbered. All three sets must share the wire count.
    pub fn apply(&self, src: &ZeroOneSet, dst: &mut ZeroOneSet, scratch: &mut ZeroOneSet) {
        debug_assert_eq!(src.n, self.n);
        debug_assert_eq!(dst.n, self.n);
        debug_assert_eq!(scratch.n, self.n);
        dst.words.copy_from_slice(&src.words);
        for step in &self.steps {
            scratch.words.fill(0);
            for i in 0..dst.words.len() {
                scratch.words[i] = dst.words[i] & !(step.up[i] | step.down[i]);
            }
            or_shifted_up(&dst.words, &step.up, step.delta, &mut scratch.words);
            or_shifted_down(&dst.words, &step.down, step.delta, &mut scratch.words);
            std::mem::swap(&mut dst.words, &mut scratch.words);
        }
    }
}

/// Decomposes a routing permutation into wire transpositions `(i, j)`
/// with `i < j`, ordered so that applying the corresponding swaps in
/// sequence reproduces [`Permutation::route`].
fn route_transpositions(perm: &Permutation) -> Vec<(u32, u32)> {
    let mut a: Vec<u32> = perm.images().to_vec();
    let mut ts: Vec<(u32, u32)> = Vec::new();
    for w in 0..a.len() as u32 {
        // Invariant: a[0..w] is already the identity, so a[w] >= w.
        loop {
            let v = a[w as usize];
            if v == w {
                break;
            }
            ts.push((w.min(v), w.max(v)));
            for x in a.iter_mut() {
                if *x == v {
                    *x = w;
                } else if *x == w {
                    *x = v;
                }
            }
        }
    }
    ts.reverse();
    ts
}

/// ORs `src & mask`, shifted `delta` bit positions towards the high end,
/// into `out`.
#[inline]
fn or_shifted_up(src: &[u64], mask: &[u64], delta: usize, out: &mut [u64]) {
    let w = delta >> 6;
    let b = delta & 63;
    let len = src.len();
    for i in 0..len.saturating_sub(w) {
        let m = src[i] & mask[i];
        if b == 0 {
            out[i + w] |= m;
        } else {
            out[i + w] |= m << b;
            if i + w + 1 < len {
                out[i + w + 1] |= m >> (64 - b);
            }
        }
    }
}

/// ORs `src & mask`, shifted `delta` bit positions towards the low end,
/// into `out`.
#[inline]
fn or_shifted_down(src: &[u64], mask: &[u64], delta: usize, out: &mut [u64]) {
    let w = delta >> 6;
    let b = delta & 63;
    let len = src.len();
    for i in w..len {
        let m = src[i] & mask[i];
        if b == 0 {
            out[i - w] |= m;
        } else {
            out[i - w] |= m >> b;
            if i > w {
                out[i - w - 1] |= m << (64 - b);
            }
        }
    }
}

/// Iterator over the set bit positions of one word.
struct BitIter {
    word: u64,
}

impl Iterator for BitIter {
    type Item = u64;
    #[inline]
    fn next(&mut self) -> Option<u64> {
        if self.word == 0 {
            return None;
        }
        let b = self.word.trailing_zeros() as u64;
        self.word &= self.word - 1;
        Some(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::element::Element;

    /// Reference implementation for [`CompiledLayer`]: per-vector route
    /// and element application.
    fn slow_apply(
        n: usize,
        route: Option<&Permutation>,
        elements: &[Element],
        set: &ZeroOneSet,
    ) -> ZeroOneSet {
        let mut cur = set.clone();
        let mut tmp = ZeroOneSet::empty(n);
        if let Some(r) = route {
            cur.apply_route_into(r, &mut tmp);
            std::mem::swap(&mut cur, &mut tmp);
        }
        if !elements.is_empty() {
            cur.apply_elements_into(elements, &mut tmp);
            std::mem::swap(&mut cur, &mut tmp);
        }
        cur
    }

    #[test]
    fn compiled_layer_matches_per_vector_application() {
        use crate::element::ElementKind;
        // Exhaustive over element kinds and a spread of wire pairs, on
        // random-ish subsets of the cube.
        for n in [3usize, 5, 6, 7, 8] {
            let mut set = ZeroOneSet::empty(n);
            let mut x = 1u64;
            for _ in 0..(1 << n.min(6)) {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                set.insert(x % (1 << n));
            }
            for a in 0..n as u32 {
                for b in (a + 1)..n as u32 {
                    for kind in [
                        ElementKind::Cmp,
                        ElementKind::CmpRev,
                        ElementKind::Swap,
                        ElementKind::Pass,
                    ] {
                        let e = Element { a, b, kind };
                        let compiled = CompiledLayer::compile(n, None, &[e]);
                        let mut dst = ZeroOneSet::empty(n);
                        let mut scratch = ZeroOneSet::empty(n);
                        compiled.apply(&set, &mut dst, &mut scratch);
                        assert_eq!(
                            dst,
                            slow_apply(n, None, &[e], &set),
                            "n={n} ({a},{b}) {kind:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn compiled_layer_matches_routed_multi_element_layers() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        for n in [4usize, 6, 8] {
            for trial in 0..40 {
                let route = if trial % 3 == 0 && n.is_power_of_two() {
                    Some(Permutation::shuffle(n))
                } else {
                    Some(Permutation::random(n, &mut rng))
                };
                // A random matching with random kinds.
                let mut wires: Vec<u32> = (0..n as u32).collect();
                for i in (1..wires.len()).rev() {
                    let j = rng.gen_range(0..=i);
                    wires.swap(i, j);
                }
                let elements: Vec<Element> = wires
                    .chunks_exact(2)
                    .take(rng.gen_range(0..=n / 2))
                    .map(|p| Element {
                        a: p[0].min(p[1]),
                        b: p[0].max(p[1]),
                        kind: match rng.gen_range(0..3) {
                            0 => crate::element::ElementKind::Cmp,
                            1 => crate::element::ElementKind::CmpRev,
                            _ => crate::element::ElementKind::Swap,
                        },
                    })
                    .collect();
                let mut set = ZeroOneSet::empty(n);
                for _ in 0..rng.gen_range(1..(1usize << n)) {
                    set.insert(rng.gen_range(0..(1u64 << n)));
                }
                let compiled = CompiledLayer::compile(n, route.as_ref(), &elements);
                let mut dst = ZeroOneSet::empty(n);
                let mut scratch = ZeroOneSet::empty(n);
                compiled.apply(&set, &mut dst, &mut scratch);
                assert_eq!(
                    dst,
                    slow_apply(n, route.as_ref(), &elements, &set),
                    "n={n} trial={trial}"
                );
            }
        }
    }

    #[test]
    fn route_transposition_decomposition_reproduces_route() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        for n in [2usize, 4, 8, 11] {
            for _ in 0..20 {
                let perm = Permutation::random(n, &mut rng);
                let compiled = CompiledLayer::compile(n, Some(&perm), &[]);
                let set = ZeroOneSet::full(n);
                let mut dst = ZeroOneSet::empty(n);
                let mut scratch = ZeroOneSet::empty(n);
                compiled.apply(&set, &mut dst, &mut scratch);
                assert_eq!(dst, set, "routing permutes the full cube onto itself");
                // And on a singleton the route must match Permutation::route.
                let mut single = ZeroOneSet::empty(n);
                let x = 0b10110101u64 % (1 << n);
                single.insert(x);
                compiled.apply(&single, &mut dst, &mut scratch);
                let mut expect = ZeroOneSet::empty(n);
                single.apply_route_into(&perm, &mut expect);
                assert_eq!(dst, expect);
            }
        }
    }

    #[test]
    fn full_and_sorted_sets_have_expected_sizes() {
        for n in 1..=10usize {
            assert_eq!(ZeroOneSet::full(n).len(), 1 << n);
            assert_eq!(ZeroOneSet::sorted_only(n).len(), n + 1);
            assert!(ZeroOneSet::sorted_only(n).is_sorted_only());
            assert!(!ZeroOneSet::full(n).is_sorted_only() || n == 1);
        }
    }

    #[test]
    fn sorted_indices_are_nondecreasing_in_wire_order() {
        // n = 4, two ones: wires 2 and 3 carry the ones -> index 0b1100.
        assert_eq!(ZeroOneSet::sorted_index(4, 2), 0b1100);
        assert_eq!(ZeroOneSet::sorted_index(4, 0), 0);
        assert_eq!(ZeroOneSet::sorted_index(4, 4), 0b1111);
    }

    #[test]
    fn comparator_transition_matches_min_max_semantics() {
        // Cmp(0, 1) on x = 0b01 (wire0 = 1, wire1 = 0) fires -> 0b10.
        let e = Element::cmp(0, 1);
        assert_eq!(ZeroOneSet::apply_element_to_index(0b01, &e), 0b10);
        assert_eq!(ZeroOneSet::apply_element_to_index(0b10, &e), 0b10);
        assert_eq!(ZeroOneSet::apply_element_to_index(0b11, &e), 0b11);
        assert_eq!(ZeroOneSet::apply_element_to_index(0b00, &e), 0b00);
    }

    #[test]
    fn layer_application_matches_per_vector_evaluation() {
        use crate::network::{ComparatorNetwork, Level};
        let n = 5;
        let layer = vec![Element::cmp(0, 3), Element::cmp(1, 4)];
        let net =
            ComparatorNetwork::new(n, vec![Level::of_elements(layer.clone())]).expect("valid");
        let full = ZeroOneSet::full(n);
        let mut image = ZeroOneSet::empty(n);
        full.apply_elements_into(&layer, &mut image);
        let mut expect = ZeroOneSet::empty(n);
        for x in 0..(1u64 << n) {
            let input: Vec<u32> = (0..n).map(|w| ((x >> w) & 1) as u32).collect();
            let out = net.evaluate(&input);
            let y = out.iter().enumerate().fold(0u64, |acc, (w, &v)| acc | ((v as u64) << w));
            expect.insert(y);
        }
        assert_eq!(image, expect);
    }

    #[test]
    fn route_moves_values_like_permutation_route() {
        let n = 4;
        let sigma = Permutation::shuffle(n);
        let mut out = ZeroOneSet::empty(n);
        let mut one = ZeroOneSet::empty(n);
        one.insert(0b0010); // wire 1 carries the 1
        one.apply_route_into(&sigma, &mut out);
        // Value on wire 1 moves to wire sigma(1).
        let expect = 1u64 << sigma.apply(1);
        assert!(out.contains(expect) && out.len() == 1);
    }

    #[test]
    fn subset_and_subsumption_basics() {
        let n = 4;
        let full = ZeroOneSet::full(n);
        let sorted = ZeroOneSet::sorted_only(n);
        assert!(sorted.is_subset(&full));
        assert!(!full.is_subset(&sorted));
        assert!(full.is_subset(&full));
    }

    #[test]
    fn dual_is_an_involution_preserving_size() {
        let n = 6;
        let mut s = ZeroOneSet::empty(n);
        for x in [0u64, 3, 17, 40, 63] {
            s.insert(x);
        }
        let mut d = ZeroOneSet::empty(n);
        let mut dd = ZeroOneSet::empty(n);
        s.dual_into(&mut d);
        d.dual_into(&mut dd);
        assert_eq!(s, dd);
        assert_eq!(s.len(), d.len());
        // Sorted vectors map to sorted vectors under the dual.
        let sorted = ZeroOneSet::sorted_only(n);
        let mut dual_sorted = ZeroOneSet::empty(n);
        sorted.dual_into(&mut dual_sorted);
        assert_eq!(sorted, dual_sorted);
    }

    #[test]
    fn max_class_len_counts_popcount_classes() {
        let n = 4;
        let full = ZeroOneSet::full(n);
        assert_eq!(full.max_class_len(), 6); // C(4, 2)
        assert_eq!(ZeroOneSet::sorted_only(n).max_class_len(), 1);
    }

    #[test]
    fn small_n_tail_masking() {
        for n in 1..6usize {
            let full = ZeroOneSet::full(n);
            assert_eq!(full.len(), 1 << n);
            assert_eq!(full.words().len(), 1);
        }
    }
}
