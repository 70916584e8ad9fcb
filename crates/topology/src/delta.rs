//! Reverse delta networks (Definition 3.4) and iterated reverse delta
//! networks — the network class the paper's lower bound applies to.
//!
//! A `2^l`-input **reverse delta network** is either a single wire
//! (`l = 0`) or two parallel `2^{l-1}`-input reverse delta networks
//! followed by one level `Γ_l` of at most `2^{l-1}` elements, each taking
//! one input from each subnetwork. We keep the *recursion tree* explicit
//! ([`RdNode`]) because the adversary of Section 4 inducts over exactly
//! this structure: at every split it needs the two subnetworks' wire sets
//! and the cross level `Γ`.
//!
//! A **(k, l)-iterated reverse delta network** is `k` consecutive `l`-level
//! reverse delta networks with arbitrary fixed permutations in between
//! ([`IteratedReverseDelta`]).
//!
//! Shuffle-based networks embed into this class: the shuffle `σ` on
//! `n = 2^l` wires has order `l`, so a block of `l` consecutive shuffle
//! stages composes to the identity route, and rewriting each stage's
//! elements into the fixed wire frame (stage `i` touches wire pairs
//! differing in bit `l - i`) yields a route-free reverse delta network —
//! see [`ReverseDelta::from_shuffle_stages`]. Shuffle blocks, truncated
//! shuffle forests and hypercube dimension schedules all split on one
//! address bit per level, and one function builds their trees: it buckets
//! each level's elements by node in a single pass, and
//! [`RdNode::split`] validates each node with one merge of its children's
//! wire sets and a binary search per `Γ` endpoint.

use crate::shuffle_net::ShuffleNetwork;
use serde::{Deserialize, Serialize};
use snet_core::element::{Element, ElementKind, WireId};
use snet_core::network::{ComparatorNetwork, Level};
use snet_core::perm::Permutation;

/// Errors constructing reverse delta networks.
#[derive(Debug, Clone, PartialEq, Eq)]
#[allow(missing_docs)] // variant payload fields are self-describing
pub enum DeltaError {
    /// Subtree wire-set sizes differ or are not powers of two.
    BadSplit { zero: usize, one: usize },
    /// The two subtrees share a wire.
    OverlappingWires { wire: WireId },
    /// A `Γ` element does not take one input from each subnetwork.
    GammaNotCrossing { a: WireId, b: WireId },
    /// A `Γ` element reuses a wire.
    GammaWireReuse { wire: WireId },
    /// Too many `Γ` elements for the subnetwork size.
    GammaTooLarge { len: usize, max: usize },
}

impl std::fmt::Display for DeltaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeltaError::BadSplit { zero, one } => {
                write!(f, "subnetworks of sizes {zero} and {one} cannot be siblings")
            }
            DeltaError::OverlappingWires { wire } => {
                write!(f, "wire {wire} appears in both subnetworks")
            }
            DeltaError::GammaNotCrossing { a, b } => {
                write!(f, "Γ element ({a},{b}) does not cross the two subnetworks")
            }
            DeltaError::GammaWireReuse { wire } => write!(f, "Γ reuses wire {wire}"),
            DeltaError::GammaTooLarge { len, max } => {
                write!(f, "Γ has {len} elements, maximum is {max}")
            }
        }
    }
}

impl std::error::Error for DeltaError {}

/// A node of the reverse-delta recursion tree.
///
/// Serde note: nodes serialize as a compact tagged form; deserialization
/// of a full [`ReverseDelta`] revalidates the tree (see its serde impl).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RdNode {
    /// A 1-input reverse delta network: a bare wire.
    Leaf(WireId),
    /// Two parallel subnetworks followed by a crossing level `Γ`.
    Split {
        /// First subnetwork (`Δ₀`).
        zero: Box<RdNode>,
        /// Second subnetwork (`Δ₁`).
        one: Box<RdNode>,
        /// The crossing level `Γ`; every element has one endpoint in each
        /// subnetwork. May contain comparators and `Pass`/`Swap` elements.
        gamma: Vec<Element>,
        /// Cached sorted wire set of this subtree.
        wires: Vec<WireId>,
        /// Number of levels of this subtree (`log₂ |wires|`).
        height: usize,
    },
}

impl RdNode {
    /// Builds and validates a split node from two subtrees and a `Γ` level.
    ///
    /// The children's sorted wire sets are merged in one pass (a wire in
    /// both is the smallest overlap), and each `Γ` endpoint, found by
    /// binary search, is marked at its merged position, which says which
    /// side it is on and how often `Γ` uses it.
    pub fn split(zero: RdNode, one: RdNode, gamma: Vec<Element>) -> Result<RdNode, DeltaError> {
        const IN_ONE: u8 = 1;
        const USED: u8 = 2;
        const REUSED: u8 = 4;
        let (wz, wo) = (zero.wires(), one.wires());
        if wz.len() != wo.len() || !wz.len().is_power_of_two() {
            return Err(DeltaError::BadSplit { zero: wz.len(), one: wo.len() });
        }
        if gamma.len() > wz.len() {
            return Err(DeltaError::GammaTooLarge { len: gamma.len(), max: wz.len() });
        }
        // Merge, marking each merged position: `IN_ONE` if the wire is in
        // Δ₁, then `USED` and `REUSED` as Γ takes it once and again.
        let mut wires = Vec::with_capacity(wz.len() + wo.len());
        let mut mark = Vec::with_capacity(wz.len() + wo.len());
        let (mut i, mut j) = (0, 0);
        while i < wz.len() && j < wo.len() {
            if wz[i] == wo[j] {
                return Err(DeltaError::OverlappingWires { wire: wz[i] });
            }
            if wz[i] < wo[j] {
                wires.push(wz[i]);
                mark.push(0);
                i += 1;
            } else {
                wires.push(wo[j]);
                mark.push(IN_ONE);
                j += 1;
            }
        }
        wires.extend_from_slice(&wz[i..]);
        mark.resize(wires.len(), 0);
        wires.extend_from_slice(&wo[j..]);
        mark.resize(wires.len(), IN_ONE);
        for e in &gamma {
            let crossing = match (wires.binary_search(&e.a), wires.binary_search(&e.b)) {
                (Ok(pa), Ok(pb)) if (mark[pa] ^ mark[pb]) & IN_ONE != 0 => Some((pa, pb)),
                _ => None,
            };
            let Some((pa, pb)) = crossing else {
                return Err(DeltaError::GammaNotCrossing { a: e.a, b: e.b });
            };
            for p in [pa, pb] {
                mark[p] |= if mark[p] & USED != 0 { REUSED } else { USED };
            }
        }
        if let Some(p) = mark.iter().position(|&m| m & REUSED != 0) {
            return Err(DeltaError::GammaWireReuse { wire: wires[p] });
        }
        let height = zero.height() + 1;
        Ok(RdNode::Split { zero: Box::new(zero), one: Box::new(one), gamma, wires, height })
    }

    /// The sorted wire set of this subtree.
    pub fn wires(&self) -> &[WireId] {
        match self {
            RdNode::Leaf(w) => std::slice::from_ref(w),
            RdNode::Split { wires, .. } => wires,
        }
    }

    /// Number of levels of this subtree.
    pub fn height(&self) -> usize {
        match self {
            RdNode::Leaf(_) => 0,
            RdNode::Split { height, .. } => *height,
        }
    }

    /// Number of wires (`2^height`).
    pub fn width(&self) -> usize {
        match self {
            RdNode::Leaf(_) => 1,
            RdNode::Split { wires, .. } => wires.len(),
        }
    }

    /// Children and `Γ` of a split node, or `None` for a leaf.
    pub fn as_split(&self) -> Option<(&RdNode, &RdNode, &[Element])> {
        match self {
            RdNode::Leaf(_) => None,
            RdNode::Split { zero, one, gamma, .. } => Some((zero, one, gamma)),
        }
    }

    /// Collects the per-level elements of this subtree into `levels`
    /// (1-based level `i` stored at `levels[i-1]`): a node of height `h`
    /// contributes its `Γ` at level `h`.
    fn collect_levels(&self, levels: &mut [Vec<Element>]) {
        if let RdNode::Split { zero, one, gamma, height, .. } = self {
            levels[height - 1].extend(gamma.iter().copied());
            zero.collect_levels(levels);
            one.collect_levels(levels);
        }
    }

    /// Total comparator count of the subtree.
    pub fn size(&self) -> usize {
        match self {
            RdNode::Leaf(_) => 0,
            RdNode::Split { zero, one, gamma, .. } => {
                zero.size() + one.size() + gamma.iter().filter(|e| e.is_comparator()).count()
            }
        }
    }
}

/// Compact serialized form of an [`RdNode`]: either a leaf wire or a
/// `(zero, one, gamma)` triple. Rebuilt through the validating
/// constructors on deserialize.
#[derive(Debug, Clone, Serialize, Deserialize)]
#[serde(untagged)]
enum RdNodeRepr {
    Leaf(WireId),
    Split(Box<RdNodeRepr>, Box<RdNodeRepr>, Vec<Element>),
}

impl From<&RdNode> for RdNodeRepr {
    fn from(node: &RdNode) -> Self {
        match node {
            RdNode::Leaf(w) => RdNodeRepr::Leaf(*w),
            RdNode::Split { zero, one, gamma, .. } => RdNodeRepr::Split(
                Box::new(RdNodeRepr::from(zero.as_ref())),
                Box::new(RdNodeRepr::from(one.as_ref())),
                gamma.clone(),
            ),
        }
    }
}

impl RdNodeRepr {
    fn build(self) -> Result<RdNode, DeltaError> {
        match self {
            RdNodeRepr::Leaf(w) => Ok(RdNode::Leaf(w)),
            RdNodeRepr::Split(zero, one, gamma) => {
                RdNode::split(zero.build()?, one.build()?, gamma)
            }
        }
    }
}

/// An `l`-level reverse delta network on wires `0..2^l` (Definition 3.4),
/// with its recursion tree retained.
///
/// Deserialization rebuilds and revalidates the whole tree, so serialized
/// networks cannot violate Definition 3.4.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
#[serde(try_from = "RdNodeRepr", into = "RdNodeRepr")]
pub struct ReverseDelta {
    root: RdNode,
}

impl TryFrom<RdNodeRepr> for ReverseDelta {
    type Error = DeltaError;
    fn try_from(repr: RdNodeRepr) -> Result<Self, DeltaError> {
        ReverseDelta::new(repr.build()?)
    }
}

impl From<ReverseDelta> for RdNodeRepr {
    fn from(rd: ReverseDelta) -> RdNodeRepr {
        RdNodeRepr::from(&rd.root)
    }
}

impl ReverseDelta {
    /// Wraps a validated root node. The root's wire set must be exactly
    /// `0..2^height` (the canonical global wire frame).
    pub fn new(root: RdNode) -> Result<Self, DeltaError> {
        let wires = root.wires();
        if !wires.iter().copied().eq(0..wires.len() as WireId) {
            // Reuse BadSplit for a non-canonical frame; callers construct
            // through the provided builders in practice.
            return Err(DeltaError::BadSplit { zero: wires.len(), one: 0 });
        }
        Ok(ReverseDelta { root })
    }

    /// The recursion tree root.
    pub fn root(&self) -> &RdNode {
        &self.root
    }

    /// Number of levels `l`.
    pub fn levels(&self) -> usize {
        self.root.height()
    }

    /// Number of wires `2^l`.
    pub fn wires(&self) -> usize {
        self.root.width()
    }

    /// Total comparator count.
    pub fn size(&self) -> usize {
        self.root.size()
    }

    /// Flattens to a leveled [`ComparatorNetwork`] (level `i` of the network
    /// is the union of all `Γ`s of height-`i` nodes; no routing levels).
    pub fn to_network(&self) -> ComparatorNetwork {
        let l = self.levels();
        let mut levels: Vec<Vec<Element>> = vec![Vec::new(); l];
        self.root.collect_levels(&mut levels);
        let levels = levels.into_iter().map(Level::of_elements).collect();
        ComparatorNetwork::new(self.wires(), levels).expect("validated tree flattens cleanly")
    }

    /// The canonical butterfly: level `i` pairs wires differing in bit
    /// `l - i`, all elements ascending comparators (`min` to the wire with
    /// the 0 bit). This is the unique topology that is both a delta and a
    /// reverse delta network (Kruskal–Snir, cited in Section 2).
    pub fn butterfly(l: usize) -> Self {
        if l == 0 {
            return ReverseDelta { root: RdNode::Leaf(0) };
        }
        let ops = vec![vec![ElementKind::Cmp; 1 << (l - 1)]; l];
        Self::from_shuffle_stages(1usize << l, &ops).expect("butterfly stages are well-formed")
    }

    /// Builds the reverse delta network performed by `l = lg n` consecutive
    /// shuffle stages of the register model.
    ///
    /// Stage `i` (1-based) of a shuffle-based network routes by `σ` and then
    /// applies `ops[i-1][k]` to registers `(2k, 2k+1)`. Because `σ` has
    /// order `l`, the block's cumulative route is the identity, and stage
    /// `i`'s element on registers `(2k, 2k+1)` acts, in the fixed wire
    /// frame, on wires `rotr^i(2k), rotr^i(2k+1)` — pairs differing in bit
    /// `l - i` ([`ShuffleNetwork::stage_pair`]). The recursion tree splits
    /// on bit 0 at the root, bit 1 below, and so on.
    ///
    /// Requires `ops.len() == l` and each `ops[i].len() == n/2`.
    pub fn from_shuffle_stages(n: usize, ops: &[Vec<ElementKind>]) -> Result<Self, DeltaError> {
        assert!(n.is_power_of_two() && n >= 2, "n must be a power of two >= 2");
        let l = n.trailing_zeros() as usize;
        assert_eq!(ops.len(), l, "need exactly lg n = {l} stages");
        let mut roots = shuffle_forest(n, ops)?;
        ReverseDelta::new(roots.pop().expect("lg n stages build one tree"))
    }

    /// Builds the *forest* of reverse delta networks performed by
    /// `f ≤ lg n` consecutive shuffle stages (the truncated blocks of the
    /// Section 5 extension), in the block-input wire frame.
    ///
    /// Stage `i ∈ 1..=f` pairs wires differing in bit `lg n − i`, so the
    /// block decomposes into `2^{lg n − f}` independent `f`-level reverse
    /// delta networks, one per value of the untouched low bits.
    ///
    /// Note the frame convention: after `f < lg n` stages a real shuffle
    /// network leaves its values in the `σ^f` frame; callers composing
    /// blocks absorb that relabeling into the (arbitrary, free) inter-block
    /// permutation.
    pub fn shuffle_stage_forest(
        n: usize,
        ops: &[Vec<ElementKind>],
    ) -> Result<Vec<RdNode>, DeltaError> {
        assert!(n.is_power_of_two() && n >= 2, "n must be a power of two >= 2");
        let l = n.trailing_zeros() as usize;
        let f = ops.len();
        assert!((1..=l).contains(&f), "need 1..=lg n stages, got {f}");
        shuffle_forest(n, ops)
    }

    /// Flattens a forest built by [`ReverseDelta::shuffle_stage_forest`]
    /// into a single `f`-level comparator network on `n` wires.
    pub fn forest_to_network(n: usize, roots: &[RdNode]) -> ComparatorNetwork {
        let f = roots.iter().map(RdNode::height).max().unwrap_or(0);
        let mut levels: Vec<Vec<Element>> = vec![Vec::new(); f];
        for root in roots {
            root.collect_levels(&mut levels);
        }
        let levels = levels.into_iter().map(Level::of_elements).collect();
        ComparatorNetwork::new(n, levels).expect("validated forest flattens cleanly")
    }
}

/// The forest of `ops.len() ≤ lg n` shuffle stages in the fixed wire
/// frame: stage `i` is level `i`, pairing wires that differ in bit
/// `lg n − i`.
fn shuffle_forest(n: usize, ops: &[Vec<ElementKind>]) -> Result<Vec<RdNode>, DeltaError> {
    let l = n.trailing_zeros();
    let levels = ops.iter().enumerate().map(|(i0, stage)| {
        assert_eq!(stage.len(), n / 2, "stage {i0} must have n/2 ops");
        let elems = stage
            .iter()
            .enumerate()
            .filter(|&(_, &kind)| kind != ElementKind::Pass)
            .map(|(k, &kind)| {
                let (a, b) = ShuffleNetwork::stage_pair(n, i0 + 1, k);
                Element { a, b, kind }
            })
            .collect();
        (l - 1 - i0 as u32, elems)
    });
    bit_split_forest(n, levels)
}

/// Builds the bit-split reverse delta trees on wires `0..n`, bottom up.
///
/// `levels` yields, for heights `1, 2, …`, the bit the height's nodes
/// split on and the level's elements, each pairing two wires that differ
/// in that bit (distinct bits per level). A node is named by the bits it
/// fixes — those of the levels above it and those no level splits on —
/// so one pass buckets a level's elements into the `Γ`s of its nodes, in
/// their order within the level. One tree per value of the bits no level
/// splits on, in ascending order.
pub(crate) fn bit_split_forest(
    n: usize,
    levels: impl IntoIterator<Item = (u32, Vec<Element>)>,
) -> Result<Vec<RdNode>, DeltaError> {
    let mut fixed = n as u32 - 1;
    let mut nodes: Vec<Option<RdNode>> = (0..n as WireId).map(|w| Some(RdNode::Leaf(w))).collect();
    let mut gammas: Vec<Vec<Element>> = vec![Vec::new(); n];
    for (bit, elems) in levels {
        let split = 1u32 << bit;
        fixed &= !split;
        for e in elems {
            gammas[(e.a & fixed) as usize].push(e);
        }
        for key in (0..n as u32).filter(|key| key & !fixed == 0) {
            let zero = nodes[key as usize].take().expect("children are built first");
            let one = nodes[(key | split) as usize].take().expect("children are built first");
            let gamma = std::mem::take(&mut gammas[key as usize]);
            nodes[key as usize] = Some(RdNode::split(zero, one, gamma)?);
        }
    }
    Ok(nodes.into_iter().flatten().collect())
}

/// One block of an iterated reverse delta network: an optional fixed
/// permutation (free, per Section 3.2) followed by a reverse delta network.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Block {
    /// Arbitrary fixed routing applied before the block.
    pub pre_route: Option<Permutation>,
    /// The reverse delta network itself.
    pub rdn: ReverseDelta,
}

/// A `(k, l)`-iterated reverse delta network: `k` consecutive `l`-level
/// reverse delta networks with arbitrary fixed permutations between them
/// (and optionally after the last one).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
#[serde(try_from = "IrdRepr", into = "IrdRepr")]
pub struct IteratedReverseDelta {
    n: usize,
    blocks: Vec<Block>,
    /// Final fixed routing (used when embedding shuffle-based networks
    /// whose stage count is not a multiple of `lg n`).
    post_route: Option<Permutation>,
}

/// Serde shadow of [`IteratedReverseDelta`] (width re-derived + validated).
#[derive(Serialize, Deserialize)]
struct IrdRepr {
    blocks: Vec<Block>,
    post_route: Option<Permutation>,
}

impl TryFrom<IrdRepr> for IteratedReverseDelta {
    type Error = String;
    fn try_from(r: IrdRepr) -> Result<Self, String> {
        let n = r.blocks.first().map(|b| b.rdn.wires()).unwrap_or(0);
        for (i, b) in r.blocks.iter().enumerate() {
            if b.rdn.wires() != n {
                return Err(format!("block {i} has width {} != {n}", b.rdn.wires()));
            }
            if let Some(p) = &b.pre_route {
                if p.len() != n {
                    return Err(format!("block {i} pre-route width mismatch"));
                }
            }
        }
        if let Some(p) = &r.post_route {
            if p.len() != n {
                return Err("post-route width mismatch".into());
            }
        }
        Ok(IteratedReverseDelta::new(r.blocks, r.post_route))
    }
}

impl From<IteratedReverseDelta> for IrdRepr {
    fn from(ird: IteratedReverseDelta) -> IrdRepr {
        IrdRepr { blocks: ird.blocks, post_route: ird.post_route }
    }
}

impl IteratedReverseDelta {
    /// Builds from blocks; all blocks must have the same width `n`.
    pub fn new(blocks: Vec<Block>, post_route: Option<Permutation>) -> Self {
        let n = blocks.first().map(|b| b.rdn.wires()).unwrap_or(0);
        for b in &blocks {
            assert_eq!(b.rdn.wires(), n, "all blocks must share the wire count");
            if let Some(p) = &b.pre_route {
                assert_eq!(p.len(), n);
            }
        }
        if let Some(p) = &post_route {
            assert_eq!(p.len(), n);
        }
        IteratedReverseDelta { n, blocks, post_route }
    }

    /// Number of wires.
    pub fn wires(&self) -> usize {
        self.n
    }

    /// The blocks in order.
    pub fn blocks(&self) -> &[Block] {
        &self.blocks
    }

    /// Number of blocks `k`.
    pub fn block_count(&self) -> usize {
        self.blocks.len()
    }

    /// The trailing fixed route, if any.
    pub fn post_route(&self) -> Option<&Permutation> {
        self.post_route.as_ref()
    }

    /// Total comparator depth (`k · l`; routing is free).
    pub fn comparator_depth(&self) -> usize {
        self.blocks.iter().map(|b| b.rdn.levels()).sum()
    }

    /// Flattens to a single [`ComparatorNetwork`].
    pub fn to_network(&self) -> ComparatorNetwork {
        let mut net = ComparatorNetwork::empty(self.n);
        for block in &self.blocks {
            if let Some(p) = &block.pre_route {
                net = net.then(Some(p), &block.rdn.to_network());
            } else {
                net = net.then(None, &block.rdn.to_network());
            }
        }
        if let Some(p) = &self.post_route {
            net = net.then(Some(p), &ComparatorNetwork::empty(self.n));
        }
        net
    }
}

/// The tree constructions as they were before `bit_split_forest`, kept as the
/// oracle of the differential tests: every node re-filters its whole level
/// and validates by sorting copies of its children's wire sets.
#[cfg(test)]
pub(crate) mod reference {
    use super::*;

    /// The tree of height `m` whose nodes fix `fixed_mask` to
    /// `fixed_bits`; the height-`h` node splits on `split_bit(h)` and
    /// takes its `Γ` from `levels[h-1]`.
    pub(crate) fn filtered_tree(
        split_bit: &dyn Fn(usize) -> u32,
        m: usize,
        fixed_mask: u32,
        fixed_bits: u32,
        levels: &[Vec<Element>],
    ) -> Result<RdNode, DeltaError> {
        if m == 0 {
            return Ok(RdNode::Leaf(fixed_bits));
        }
        let bit = split_bit(m);
        let zero = filtered_tree(split_bit, m - 1, fixed_mask | bit, fixed_bits, levels)?;
        let one = filtered_tree(split_bit, m - 1, fixed_mask | bit, fixed_bits | bit, levels)?;
        let gamma =
            levels[m - 1].iter().filter(|e| (e.a & fixed_mask) == fixed_bits).copied().collect();
        sorted_split(zero, one, gamma)
    }

    /// `RdNode::split` as it was: clone, concatenate and sort the wire
    /// sets, look endpoints up per child, sort the used wires.
    pub(crate) fn sorted_split(
        zero: RdNode,
        one: RdNode,
        gamma: Vec<Element>,
    ) -> Result<RdNode, DeltaError> {
        let (wz, wo) = (zero.wires().to_vec(), one.wires().to_vec());
        if wz.len() != wo.len() || !wz.len().is_power_of_two() {
            return Err(DeltaError::BadSplit { zero: wz.len(), one: wo.len() });
        }
        if gamma.len() > wz.len() {
            return Err(DeltaError::GammaTooLarge { len: gamma.len(), max: wz.len() });
        }
        let mut wires: Vec<WireId> = wz.iter().chain(wo.iter()).copied().collect();
        wires.sort_unstable();
        for w in wires.windows(2) {
            if w[0] == w[1] {
                return Err(DeltaError::OverlappingWires { wire: w[0] });
            }
        }
        let in_zero = |w: WireId| wz.binary_search(&w).is_ok();
        let in_one = |w: WireId| wo.binary_search(&w).is_ok();
        let mut used: Vec<WireId> = Vec::with_capacity(gamma.len() * 2);
        for e in &gamma {
            let crossing = (in_zero(e.a) && in_one(e.b)) || (in_one(e.a) && in_zero(e.b));
            if !crossing {
                return Err(DeltaError::GammaNotCrossing { a: e.a, b: e.b });
            }
            used.push(e.a);
            used.push(e.b);
        }
        used.sort_unstable();
        for w in used.windows(2) {
            if w[0] == w[1] {
                return Err(DeltaError::GammaWireReuse { wire: w[0] });
            }
        }
        let height = zero.height() + 1;
        Ok(RdNode::Split { zero: Box::new(zero), one: Box::new(one), gamma, wires, height })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snet_core::sortcheck::is_sorted;

    #[test]
    fn butterfly_structure() {
        let bf = ReverseDelta::butterfly(3);
        assert_eq!(bf.levels(), 3);
        assert_eq!(bf.wires(), 8);
        assert_eq!(bf.size(), 12, "3 levels × 4 comparators");
        let net = bf.to_network();
        assert_eq!(net.depth(), 3);
        // Level i pairs wires differing in bit l - i.
        for (i, level) in net.levels().iter().enumerate() {
            let bit = 1u32 << (3 - (i + 1));
            assert_eq!(level.elements.len(), 4);
            for e in &level.elements {
                assert_eq!(e.a ^ e.b, bit, "level {} pairs differ in bit {}", i + 1, bit);
            }
        }
    }

    #[test]
    fn butterfly_root_splits_on_bit_zero() {
        let bf = ReverseDelta::butterfly(3);
        let (zero, one, gamma) = bf.root().as_split().unwrap();
        assert_eq!(zero.wires(), [0, 2, 4, 6]);
        assert_eq!(one.wires(), [1, 3, 5, 7]);
        assert_eq!(gamma.len(), 4);
        for e in gamma {
            assert_eq!(e.a ^ e.b, 1);
        }
    }

    #[test]
    fn butterfly_merges_two_sorted_halves_interleaved() {
        // A +-directed butterfly is a bitonic merger for inputs whose two
        // shuffled halves are sorted; minimal sanity check: it sorts the
        // "descending then ascending" 0-1 inputs it is famous for when those
        // are arranged per the bit-reversal convention. Here we just check
        // behaviour is monotone-preserving on an already-sorted input.
        let net = ReverseDelta::butterfly(3).to_network();
        let out = snet_core::ir::evaluate(&net, &[0, 1, 2, 3, 4, 5, 6, 7]);
        assert!(is_sorted(&out));
    }

    #[test]
    fn from_shuffle_stages_matches_register_semantics() {
        use rand::SeedableRng;
        use snet_core::register::{RegisterNetwork, RegisterStage};
        let mut rng = rand::rngs::StdRng::seed_from_u64(21);
        for seed in 0..10u64 {
            use rand::Rng;
            let mut seed_rng = rand::rngs::StdRng::seed_from_u64(seed);
            let l = 3usize;
            let n = 1usize << l;
            let ops: Vec<Vec<ElementKind>> = (0..l)
                .map(|_| {
                    (0..n / 2)
                        .map(|_| match seed_rng.gen_range(0..4) {
                            0 => ElementKind::Cmp,
                            1 => ElementKind::CmpRev,
                            2 => ElementKind::Pass,
                            _ => ElementKind::Swap,
                        })
                        .collect()
                })
                .collect();
            // Register model: l stages of (σ, ops).
            let stages = ops
                .iter()
                .map(|stage_ops| RegisterStage {
                    perm: Permutation::shuffle(n),
                    ops: stage_ops.clone(),
                })
                .collect();
            let reg = RegisterNetwork::new(n, stages).unwrap();
            let rdn = ReverseDelta::from_shuffle_stages(n, &ops).unwrap();
            let exec = snet_core::ir::Executor::compile(&rdn.to_network());
            for _ in 0..50 {
                let input: Vec<u32> = Permutation::random(n, &mut rng).images().to_vec();
                assert_eq!(
                    reg.evaluate(&input),
                    exec.evaluate(&input),
                    "seed={seed}: shuffle block ≠ reverse delta flattening"
                );
            }
        }
    }

    fn random_ops(n: usize, stages: usize, rng: &mut impl rand::Rng) -> Vec<Vec<ElementKind>> {
        let kinds = [ElementKind::Cmp, ElementKind::CmpRev, ElementKind::Pass, ElementKind::Swap];
        (0..stages).map(|_| (0..n / 2).map(|_| kinds[rng.gen_range(0..4usize)]).collect()).collect()
    }

    #[test]
    fn bucketed_forest_matches_the_filtering_recursion() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(18);
        for l in 1..=9usize {
            let n = 1usize << l;
            for f in 1..=l {
                let ops = random_ops(n, f, &mut rng);
                // The fixed-frame levels, as the parent built them.
                let levels: Vec<Vec<Element>> = ops
                    .iter()
                    .enumerate()
                    .map(|(i0, stage)| {
                        let pairs = (0..n / 2).map(|k| ShuffleNetwork::stage_pair(n, i0 + 1, k));
                        pairs
                            .zip(stage)
                            .filter(|&(_, &kind)| kind != ElementKind::Pass)
                            .map(|((a, b), &kind)| Element { a, b, kind })
                            .collect()
                    })
                    .collect();
                let split_bit = |m: usize| 1u32 << (l - m);
                let low_mask = (1u32 << (l - f)) - 1;
                let expect: Vec<RdNode> = (0..1u32 << (l - f))
                    .map(|c| reference::filtered_tree(&split_bit, f, low_mask, c, &levels).unwrap())
                    .collect();
                let forest = ReverseDelta::shuffle_stage_forest(n, &ops).unwrap();
                assert_eq!(forest, expect, "n={n} f={f}");
                if f == l {
                    let rdn = ReverseDelta::from_shuffle_stages(n, &ops).unwrap();
                    assert_eq!(rdn.root(), &expect[0], "n={n}");
                }
            }
        }
    }

    #[test]
    fn merging_split_reports_what_the_sorting_split_did() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(19);
        // Subtrees over a small wire universe, so overlaps happen; Γs drawn
        // from both sides and beyond, so every rule gets broken.
        let subtree = |rng: &mut rand::rngs::StdRng, h: usize| -> RdNode {
            let mut wires: Vec<WireId> = (0..24).collect();
            for i in (1..wires.len()).rev() {
                wires.swap(i, rng.gen_range(0..=i));
            }
            let mut nodes: Vec<RdNode> = wires[..1 << h].iter().map(|&w| RdNode::Leaf(w)).collect();
            while nodes.len() > 1 {
                let one = nodes.pop().unwrap();
                let zero = nodes.pop().unwrap();
                nodes.insert(0, RdNode::split(zero, one, vec![]).unwrap());
            }
            nodes.pop().unwrap()
        };
        let mut outcomes = std::collections::BTreeMap::new();
        for _ in 0..4000 {
            let (hz, ho) = (rng.gen_range(0..4), rng.gen_range(0..4));
            let hz = if rng.gen_bool(0.8) { ho } else { hz };
            let (zero, one) = (subtree(&mut rng, hz), subtree(&mut rng, ho));
            let pool: Vec<WireId> =
                zero.wires().iter().chain(one.wires()).copied().chain([30, 31]).collect();
            let gamma: Vec<Element> = (0..rng.gen_range(0..=zero.width() + 1))
                .map(|_| {
                    let a = pool[rng.gen_range(0..pool.len())];
                    let b = pool[rng.gen_range(0..pool.len())];
                    Element::cmp(a, b)
                })
                .collect();
            let got = RdNode::split(zero.clone(), one.clone(), gamma.clone());
            let want = reference::sorted_split(zero, one, gamma);
            assert_eq!(got, want);
            let kind = match &want {
                Ok(_) => "ok",
                Err(DeltaError::BadSplit { .. }) => "bad-split",
                Err(DeltaError::OverlappingWires { .. }) => "overlap",
                Err(DeltaError::GammaNotCrossing { .. }) => "not-crossing",
                Err(DeltaError::GammaWireReuse { .. }) => "reuse",
                Err(DeltaError::GammaTooLarge { .. }) => "too-large",
            };
            *outcomes.entry(kind).or_insert(0) += 1;
        }
        assert_eq!(outcomes.len(), 6, "every outcome exercised: {outcomes:?}");
    }

    #[test]
    fn gamma_must_cross() {
        let zero = RdNode::split(RdNode::Leaf(0), RdNode::Leaf(1), vec![]).unwrap();
        let one = RdNode::split(RdNode::Leaf(2), RdNode::Leaf(3), vec![]).unwrap();
        let err = RdNode::split(zero, one, vec![Element::cmp(0, 1)]).unwrap_err();
        assert!(matches!(err, DeltaError::GammaNotCrossing { .. }));
    }

    #[test]
    fn gamma_wire_reuse_rejected() {
        let zero = RdNode::split(RdNode::Leaf(0), RdNode::Leaf(1), vec![]).unwrap();
        let one = RdNode::split(RdNode::Leaf(2), RdNode::Leaf(3), vec![]).unwrap();
        let err =
            RdNode::split(zero, one, vec![Element::cmp(0, 2), Element::cmp(0, 3)]).unwrap_err();
        assert!(matches!(err, DeltaError::GammaWireReuse { wire: 0 }));
    }

    #[test]
    fn overlapping_wires_rejected() {
        let a = RdNode::Leaf(0);
        let b = RdNode::Leaf(0);
        let err = RdNode::split(a, b, vec![]).unwrap_err();
        assert!(matches!(err, DeltaError::OverlappingWires { wire: 0 }));
    }

    #[test]
    fn unbalanced_split_rejected() {
        let pair = RdNode::split(RdNode::Leaf(0), RdNode::Leaf(1), vec![]).unwrap();
        let err = RdNode::split(pair, RdNode::Leaf(2), vec![]).unwrap_err();
        assert!(matches!(err, DeltaError::BadSplit { .. }));
    }

    #[test]
    fn non_canonical_frame_rejected() {
        let pair = RdNode::split(RdNode::Leaf(3), RdNode::Leaf(7), vec![]).unwrap();
        assert!(ReverseDelta::new(pair).is_err());
    }

    #[test]
    fn empty_gamma_allowed() {
        // "0 and 1 elements" correspond to allowing fewer comparators;
        // a level may even be empty.
        let pair = RdNode::split(RdNode::Leaf(0), RdNode::Leaf(1), vec![]).unwrap();
        let rdn = ReverseDelta::new(pair).unwrap();
        assert_eq!(rdn.size(), 0);
        assert_eq!(snet_core::ir::evaluate(&rdn.to_network(), &[5, 1]), vec![5, 1]);
    }

    #[test]
    fn iterated_flattening_composes_blocks() {
        let l = 2;
        let bf = || ReverseDelta::butterfly(l);
        let rev = Permutation::from_images_unchecked(vec![3, 2, 1, 0]);
        let ird = IteratedReverseDelta::new(
            vec![
                Block { pre_route: None, rdn: bf() },
                Block { pre_route: Some(rev.clone()), rdn: bf() },
            ],
            None,
        );
        assert_eq!(ird.comparator_depth(), 4);
        let net = snet_core::ir::Executor::compile(&ird.to_network());
        let manual = snet_core::ir::Executor::compile(
            &bf().to_network().then(Some(&rev), &bf().to_network()),
        );
        for input in [[3u32, 1, 2, 0], [0, 3, 1, 2], [2, 2, 1, 1]] {
            assert_eq!(net.evaluate(&input), manual.evaluate(&input));
        }
    }

    #[test]
    fn post_route_applies() {
        let bf = ReverseDelta::butterfly(1);
        let swap = Permutation::from_images_unchecked(vec![1, 0]);
        let ird = IteratedReverseDelta::new(vec![Block { pre_route: None, rdn: bf }], Some(swap));
        assert_eq!(
            snet_core::ir::evaluate(&ird.to_network(), &[9, 3]),
            vec![9, 3],
            "sorted then swapped"
        );
    }
}
