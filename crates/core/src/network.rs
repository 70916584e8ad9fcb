//! Leveled comparator networks.
//!
//! A [`ComparatorNetwork`] is a sequence of [`Level`]s over `n` wires. Each
//! level optionally routes the wire contents by a fixed [`Permutation`] and
//! then applies a set of wire-disjoint two-wire [`Element`]s. This directly
//! generalizes both models from Section 1 of the paper:
//!
//! * the *circuit model* uses levels with `route = None` and arbitrary
//!   element wiring;
//! * the *register model* uses `route = Some(Π_i)` and elements confined to
//!   the pairs `(2k, 2k+1)` (see [`crate::register`]).
//!
//! Evaluation is defined over any `Ord + Copy` value type, and a tracing
//! evaluator reports every comparator event, which is what Definition 3.6's
//! collision notion is built on (see [`crate::trace`]).

use crate::element::{Element, ElementKind, WireId};
use crate::perm::Permutation;
use serde::{Deserialize, Serialize};

/// One level of a network: an optional routing permutation followed by
/// wire-disjoint elements.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Level {
    /// Applied first: the value on wire `w` moves to wire `route(w)`.
    pub route: Option<Permutation>,
    /// Wire-disjoint two-wire elements, applied after the route.
    pub elements: Vec<Element>,
}

impl Level {
    /// A level with elements only.
    pub fn of_elements(elements: Vec<Element>) -> Self {
        Level { route: None, elements }
    }

    /// A level that only routes.
    pub fn of_route(route: Permutation) -> Self {
        Level { route: Some(route), elements: Vec::new() }
    }

    /// Number of true comparators (`+`/`-`) in this level.
    pub fn comparator_count(&self) -> usize {
        self.elements.iter().filter(|e| e.is_comparator()).count()
    }

    /// Validates wire-disjointness and range of the elements.
    fn validate(&self, n: usize) -> Result<(), NetworkError> {
        if let Some(p) = &self.route {
            if p.len() != n {
                return Err(NetworkError::RouteSize { expected: n, got: p.len() });
            }
        }
        // Marks up to the largest wire in range, not `n`: a document that
        // names a huge `n` allocates no more than the wires it lists.
        let largest = self.elements.iter().flat_map(|e| [e.a, e.b]).filter(|&w| (w as usize) < n);
        let mut used = vec![false; largest.max().map_or(0, |w| w as usize + 1)];
        for e in &self.elements {
            for w in [e.a, e.b] {
                if (w as usize) >= n {
                    return Err(NetworkError::WireOutOfRange { wire: w, n });
                }
            }
            if e.a == e.b {
                return Err(NetworkError::SelfLoop { wire: e.a });
            }
            for w in [e.a, e.b] {
                if used[w as usize] {
                    return Err(NetworkError::WireReuse { wire: w });
                }
                used[w as usize] = true;
            }
        }
        Ok(())
    }
}

/// Construction errors for [`ComparatorNetwork`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[allow(missing_docs)] // variant payload fields are self-describing
pub enum NetworkError {
    /// A level's route permutation has the wrong size.
    RouteSize { expected: usize, got: usize },
    /// An element references a wire `>= n`.
    WireOutOfRange { wire: WireId, n: usize },
    /// An element connects a wire to itself.
    SelfLoop { wire: WireId },
    /// Two elements of one level share a wire.
    WireReuse { wire: WireId },
    /// Input slice length does not match the wire count.
    InputSize { expected: usize, got: usize },
}

impl std::fmt::Display for NetworkError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetworkError::RouteSize { expected, got } => {
                write!(f, "route permutation on {got} wires, network has {expected}")
            }
            NetworkError::WireOutOfRange { wire, n } => {
                write!(f, "element wire {wire} out of range for n={n}")
            }
            NetworkError::SelfLoop { wire } => write!(f, "element connects wire {wire} to itself"),
            NetworkError::WireReuse { wire } => write!(f, "wire {wire} used twice in one level"),
            NetworkError::InputSize { expected, got } => {
                write!(f, "input of length {got}, network has {expected} wires")
            }
        }
    }
}

impl std::error::Error for NetworkError {}

/// A comparator-event callback receives `(level index, element, lesser value
/// came from wire a?)` — see [`ComparatorNetwork::evaluate_traced`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CmpEvent<T> {
    /// Level at which the comparison happened.
    pub level: usize,
    /// The comparator element (after routing, so wires are post-route).
    pub element: Element,
    /// Value that arrived on `element.a`.
    pub va: T,
    /// Value that arrived on `element.b`.
    pub vb: T,
}

/// A leveled comparator network on `n` wires.
///
/// Deserialization re-validates every level, so serialized networks cannot
/// smuggle in wire reuse or out-of-range elements.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
#[serde(try_from = "NetworkRepr", into = "NetworkRepr")]
pub struct ComparatorNetwork {
    n: usize,
    levels: Vec<Level>,
}

/// Serde shadow of [`ComparatorNetwork`], funneled through the validating
/// constructor on deserialize.
#[derive(Serialize, Deserialize)]
struct NetworkRepr {
    n: usize,
    levels: Vec<Level>,
}

impl TryFrom<NetworkRepr> for ComparatorNetwork {
    type Error = NetworkError;
    fn try_from(r: NetworkRepr) -> Result<Self, NetworkError> {
        ComparatorNetwork::new(r.n, r.levels)
    }
}

impl From<ComparatorNetwork> for NetworkRepr {
    fn from(net: ComparatorNetwork) -> NetworkRepr {
        NetworkRepr { n: net.n, levels: net.levels }
    }
}

impl ComparatorNetwork {
    /// The empty network on `n` wires (identity mapping).
    pub fn empty(n: usize) -> Self {
        ComparatorNetwork { n, levels: Vec::new() }
    }

    /// Builds a network from explicit levels, validating each one.
    pub fn new(n: usize, levels: Vec<Level>) -> Result<Self, NetworkError> {
        for level in &levels {
            level.validate(n)?;
        }
        Ok(ComparatorNetwork { n, levels })
    }

    /// Number of wires.
    #[inline]
    pub fn wires(&self) -> usize {
        self.n
    }

    /// The levels of the network.
    #[inline]
    pub fn levels(&self) -> &[Level] {
        &self.levels
    }

    /// Total number of levels, including pure-routing levels.
    #[inline]
    pub fn depth(&self) -> usize {
        self.levels.len()
    }

    /// Number of levels containing at least one true comparator. This is the
    /// depth measure the paper's bounds are stated in (routing levels are
    /// free: Section 3.2 allows arbitrary permutations between blocks).
    pub fn comparator_depth(&self) -> usize {
        self.levels.iter().filter(|l| l.comparator_count() > 0).count()
    }

    /// Total number of true comparators (network *size*).
    pub fn size(&self) -> usize {
        self.levels.iter().map(|l| l.comparator_count()).sum()
    }

    /// Appends a validated level.
    pub fn push_level(&mut self, level: Level) -> Result<(), NetworkError> {
        level.validate(self.n)?;
        self.levels.push(level);
        Ok(())
    }

    /// Appends a level of elements (no routing), validating it.
    pub fn push_elements(&mut self, elements: Vec<Element>) -> Result<(), NetworkError> {
        self.push_level(Level::of_elements(elements))
    }

    /// Evaluates the network in place. `values[w]` is the input on wire `w`;
    /// on return it is the output on wire `w`. `scratch` must be the same
    /// length and is clobbered (it exists so batch callers avoid
    /// re-allocating per input).
    pub fn evaluate_in_place<T: Ord + Copy>(&self, values: &mut [T], scratch: &mut Vec<T>) {
        assert_eq!(values.len(), self.n, "input length mismatch");
        for level in &self.levels {
            if let Some(route) = &level.route {
                scratch.clear();
                scratch.extend_from_slice(values);
                route.route(scratch, values);
            }
            for e in &level.elements {
                e.apply(values);
            }
        }
    }

    /// Evaluates the network on an input slice, returning the output vector.
    pub fn evaluate<T: Ord + Copy>(&self, input: &[T]) -> Vec<T> {
        let mut values = input.to_vec();
        let mut scratch = Vec::with_capacity(self.n);
        self.evaluate_in_place(&mut values, &mut scratch);
        values
    }

    /// Evaluates while reporting every comparator event (a `+`/`-` element
    /// actually comparing two values — `Pass`/`Swap` do not report, matching
    /// the collision notion of Definition 3.6).
    pub fn evaluate_traced<T: Ord + Copy, F: FnMut(CmpEvent<T>)>(
        &self,
        input: &[T],
        mut on_cmp: F,
    ) -> Vec<T> {
        assert_eq!(input.len(), self.n, "input length mismatch");
        let mut values = input.to_vec();
        let mut scratch: Vec<T> = Vec::with_capacity(self.n);
        for (li, level) in self.levels.iter().enumerate() {
            if let Some(route) = &level.route {
                scratch.clear();
                scratch.extend_from_slice(&values);
                route.route(&scratch, &mut values);
            }
            for e in &level.elements {
                if e.is_comparator() {
                    on_cmp(CmpEvent {
                        level: li,
                        element: *e,
                        va: values[e.a as usize],
                        vb: values[e.b as usize],
                    });
                }
                e.apply(&mut values);
            }
        }
        values
    }

    /// Serial composition (the paper's `⊗`): `self` followed by `other`,
    /// with an optional wire relabeling in between (output wire `w` of
    /// `self` feeds input wire `link(w)` of `other`).
    pub fn then(&self, link: Option<&Permutation>, other: &ComparatorNetwork) -> Self {
        assert_eq!(self.n, other.n, "serial composition requires equal wire counts");
        if let Some(p) = link {
            assert_eq!(p.len(), self.n);
        }
        let mut levels = self.levels.clone();
        let mut tail = other.levels.clone();
        match (link, tail.first_mut()) {
            (None, _) => {}
            (Some(p), Some(first)) => {
                // Fold the link into the first level of `other`.
                first.route = Some(match &first.route {
                    Some(r) => r.compose(p),
                    None => p.clone(),
                });
            }
            (Some(p), None) => {
                tail.push(Level::of_route(p.clone()));
            }
        }
        levels.extend(tail);
        ComparatorNetwork { n: self.n, levels }
    }

    /// Parallel composition (the paper's `⊕`): `self` on wires
    /// `0..self.wires()`, `other` on the following `other.wires()` wires.
    /// The two operands are padded to a common depth with empty levels so
    /// per-level structure is preserved.
    pub fn beside(&self, other: &ComparatorNetwork) -> Self {
        let n = self.n + other.n;
        let depth = self.levels.len().max(other.levels.len());
        let off = self.n as u32;
        let mut levels = Vec::with_capacity(depth);
        let empty = Level::of_elements(Vec::new());
        for i in 0..depth {
            let la = self.levels.get(i).unwrap_or(&empty);
            let lb = other.levels.get(i).unwrap_or(&empty);
            // Merge routes: extend each side's route with identity on the
            // other side's wires.
            let route = match (&la.route, &lb.route) {
                (None, None) => None,
                (ra, rb) => {
                    let mut map = Vec::with_capacity(n);
                    match ra {
                        Some(p) => map.extend(p.images().iter().copied()),
                        None => map.extend(0..self.n as u32),
                    }
                    match rb {
                        Some(p) => map.extend(p.images().iter().map(|&v| v + off)),
                        None => map.extend(self.n as u32..n as u32),
                    }
                    Some(Permutation::from_images(map).expect("merged route is a bijection"))
                }
            };
            let mut elements = la.elements.clone();
            elements.extend(lb.elements.iter().map(|e| Element {
                a: e.a + off,
                b: e.b + off,
                kind: e.kind,
            }));
            levels.push(Level { route, elements });
        }
        ComparatorNetwork { n, levels }
    }

    /// The *topological flip* of the network: levels in reverse order
    /// (routes inverted and applied on the way "back"). This is the
    /// graph-theoretic operation relating delta and reverse delta networks
    /// in Section 1 ("a reverse delta network is obtained from a delta
    /// network by flipping the network") — it reverses the wiring diagram,
    /// not the computation (comparators are not invertible).
    pub fn flipped(&self) -> Self {
        let levels = self
            .levels
            .iter()
            .rev()
            .map(|level| Level {
                route: level.route.as_ref().map(Permutation::inverse),
                elements: level.elements.clone(),
            })
            .collect();
        ComparatorNetwork::new(self.n, levels).expect("flip preserves validity")
    }

    /// Renders the network as ASCII art (one column per level), for
    /// debugging and examples. Wires are rows; `x`–`x` marks a comparator
    /// with the min end annotated.
    pub fn render_ascii(&self) -> String {
        let mut out = String::new();
        for w in 0..self.n {
            out.push_str(&format!("{w:>3} "));
            for level in &self.levels {
                let mut c = "──";
                for e in &level.elements {
                    let (lo, hi, kind) = (e.a.min(e.b), e.a.max(e.b), e.kind);
                    if w as u32 == lo || w as u32 == hi {
                        c = match kind {
                            ElementKind::Cmp | ElementKind::CmpRev => {
                                let min_wire = if kind == ElementKind::Cmp { e.a } else { e.b };
                                if w as u32 == min_wire {
                                    "─m"
                                } else {
                                    "─M"
                                }
                            }
                            ElementKind::Pass => "─0",
                            ElementKind::Swap => "─1",
                        };
                    }
                }
                out.push_str(c);
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_wire_sorter() -> ComparatorNetwork {
        ComparatorNetwork::new(2, vec![Level::of_elements(vec![Element::cmp(0, 1)])]).unwrap()
    }

    #[test]
    fn empty_network_is_identity() {
        let net = ComparatorNetwork::empty(4);
        assert_eq!(net.evaluate(&[3, 1, 2, 0]), vec![3, 1, 2, 0]);
        assert_eq!(net.depth(), 0);
        assert_eq!(net.size(), 0);
    }

    #[test]
    fn two_wire_sorter_sorts() {
        let net = two_wire_sorter();
        assert_eq!(net.evaluate(&[9, 2]), vec![2, 9]);
        assert_eq!(net.evaluate(&[2, 9]), vec![2, 9]);
        assert_eq!(net.size(), 1);
        assert_eq!(net.comparator_depth(), 1);
    }

    #[test]
    fn validation_rejects_wire_reuse() {
        let err = ComparatorNetwork::new(
            3,
            vec![Level::of_elements(vec![Element::cmp(0, 1), Element::cmp(1, 2)])],
        )
        .unwrap_err();
        assert_eq!(err, NetworkError::WireReuse { wire: 1 });
    }

    #[test]
    fn validation_rejects_self_loop() {
        let err = ComparatorNetwork::new(2, vec![Level::of_elements(vec![Element::cmp(1, 1)])])
            .unwrap_err();
        assert_eq!(err, NetworkError::SelfLoop { wire: 1 });
    }

    #[test]
    fn validation_rejects_out_of_range() {
        let err = ComparatorNetwork::new(2, vec![Level::of_elements(vec![Element::cmp(0, 5)])])
            .unwrap_err();
        assert_eq!(err, NetworkError::WireOutOfRange { wire: 5, n: 2 });
    }

    #[test]
    fn a_huge_wire_count_allocates_only_for_the_wires_listed() {
        let level = || Level::of_elements(vec![Element::cmp(0, 1), Element::cmp(3, 2)]);
        let net = ComparatorNetwork::new(usize::MAX, vec![level(), level()]).unwrap();
        assert_eq!(net.wires(), usize::MAX);
        // The first error is still the first in element order: a reuse
        // before an out-of-range wire, an out-of-range wire before a reuse.
        let reuse_first =
            Level::of_elements(vec![Element::cmp(0, 1), Element::cmp(1, 2), Element::cmp(0, 9)]);
        let err = ComparatorNetwork::new(4, vec![reuse_first]).unwrap_err();
        assert_eq!(err, NetworkError::WireReuse { wire: 1 });
        let range_first = Level::of_elements(vec![Element::cmp(0, 9), Element::cmp(0, 1)]);
        let err = ComparatorNetwork::new(4, vec![range_first]).unwrap_err();
        assert_eq!(err, NetworkError::WireOutOfRange { wire: 9, n: 4 });
        let none_in_range = Level::of_elements(vec![Element::cmp(7, 8)]);
        let err = ComparatorNetwork::new(4, vec![none_in_range]).unwrap_err();
        assert_eq!(err, NetworkError::WireOutOfRange { wire: 7, n: 4 });
    }

    #[test]
    fn route_level_moves_values() {
        let p = Permutation::from_images_unchecked(vec![1, 2, 0]);
        let net = ComparatorNetwork::new(3, vec![Level::of_route(p)]).unwrap();
        assert_eq!(net.evaluate(&[10, 20, 30]), vec![30, 10, 20]);
        assert_eq!(net.comparator_depth(), 0, "pure routing is free depth");
    }

    #[test]
    fn traced_reports_comparators_only() {
        let net = ComparatorNetwork::new(
            2,
            vec![
                Level::of_elements(vec![Element::swap(0, 1)]),
                Level::of_elements(vec![Element::cmp(0, 1)]),
            ],
        )
        .unwrap();
        let mut events = Vec::new();
        let out = net.evaluate_traced(&[1, 2], |e| events.push(e));
        assert_eq!(out, vec![1, 2]);
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].level, 1);
        assert_eq!((events[0].va, events[0].vb), (2, 1), "values after the swap");
    }

    #[test]
    fn serial_composition_appends() {
        let a = two_wire_sorter();
        let b = two_wire_sorter();
        let ab = a.then(None, &b);
        assert_eq!(ab.depth(), 2);
        assert_eq!(ab.evaluate(&[5, 1]), vec![1, 5]);
    }

    #[test]
    fn serial_composition_with_link_routes_between() {
        // Link swaps the wires between two stages; with a reversing link the
        // composite of two ascending sorters still sorts ascending.
        let a = two_wire_sorter();
        let link = Permutation::from_images_unchecked(vec![1, 0]);
        let ab = a.then(Some(&link), &two_wire_sorter());
        assert_eq!(ab.evaluate(&[5, 1]), vec![1, 5]);
        // And the link really happened: with only a final Pass stage the
        // output would be swapped.
        let pass_only =
            ComparatorNetwork::new(2, vec![Level::of_elements(vec![Element::pass(0, 1)])]).unwrap();
        let a_link_pass = two_wire_sorter().then(Some(&link), &pass_only);
        assert_eq!(a_link_pass.evaluate(&[5, 1]), vec![5, 1]);
    }

    #[test]
    fn serial_composition_with_link_into_empty_tail() {
        let a = two_wire_sorter();
        let link = Permutation::from_images_unchecked(vec![1, 0]);
        let ab = a.then(Some(&link), &ComparatorNetwork::empty(2));
        assert_eq!(ab.evaluate(&[5, 1]), vec![5, 1], "sorted then swapped");
    }

    #[test]
    fn parallel_composition_offsets_wires() {
        let a = two_wire_sorter();
        let b = two_wire_sorter();
        let ab = a.beside(&b);
        assert_eq!(ab.wires(), 4);
        assert_eq!(ab.evaluate(&[4, 3, 2, 1]), vec![3, 4, 1, 2]);
    }

    #[test]
    fn parallel_composition_merges_routes() {
        let rot = Permutation::from_images_unchecked(vec![1, 2, 0]);
        let left = ComparatorNetwork::new(3, vec![Level::of_route(rot.clone())]).unwrap();
        let right = ComparatorNetwork::new(3, vec![Level::of_route(rot)]).unwrap();
        let both = left.beside(&right);
        assert_eq!(both.evaluate(&[0, 1, 2, 3, 4, 5]), vec![2, 0, 1, 5, 3, 4]);
    }

    #[test]
    fn parallel_composition_pads_depth() {
        let deep = two_wire_sorter().then(None, &two_wire_sorter());
        let shallow = two_wire_sorter();
        let both = deep.beside(&shallow);
        assert_eq!(both.depth(), 2);
        assert_eq!(both.evaluate(&[2, 1, 4, 3]), vec![1, 2, 3, 4]);
    }

    #[test]
    fn evaluate_in_place_matches_evaluate() {
        let net = two_wire_sorter().beside(&two_wire_sorter());
        let input = [9u32, 0, 7, 7];
        let mut v = input.to_vec();
        let mut scratch = Vec::new();
        net.evaluate_in_place(&mut v, &mut scratch);
        assert_eq!(v, net.evaluate(&input));
    }

    #[test]
    fn flip_is_an_involution_and_reverses_levels() {
        let p = Permutation::from_images_unchecked(vec![1, 2, 0]);
        let net = ComparatorNetwork::new(
            3,
            vec![
                Level { route: Some(p.clone()), elements: vec![Element::cmp(0, 1)] },
                Level::of_elements(vec![Element::cmp(1, 2)]),
            ],
        )
        .unwrap();
        let flip = net.flipped();
        assert_eq!(flip.depth(), 2);
        assert_eq!(flip.levels()[0].elements, net.levels()[1].elements);
        assert_eq!(flip.levels()[1].route, Some(p.inverse()));
        assert_eq!(flip.flipped(), net, "flip is an involution");
    }

    #[test]
    fn ascii_render_mentions_all_wires() {
        let art = two_wire_sorter().render_ascii();
        assert!(art.contains('m') && art.contains('M'));
        assert_eq!(art.lines().count(), 2);
    }
}
