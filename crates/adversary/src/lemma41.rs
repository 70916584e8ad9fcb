//! The inductive construction of **Lemma 4.1** — the heart of the paper.
//!
//! Given an `l`-level reverse delta network `Δ` and a pattern `p` over
//! `{S_0, M_0, L_0}` with `[M_0]`-set `A`, the lemma produces a refinement
//! `q` and `t(l) = k³ + l·k²` disjoint sets `M_0, …, M_{t(l)-1}` such that
//! every `M_i` is the (noncolliding) `[M_i]`-set of `q` and the total mass
//! `|B| ≥ |A|·(1 − l/k²)`.
//!
//! The implementation mirrors the induction exactly:
//!
//! * recurse into the two subnetworks (`Δ₀`, `Δ₁`), obtaining two set
//!   families and a frontier [`Tracer`] whose tracked tokens sit at the
//!   subnetwork outputs (their positions are *determined* because the sets
//!   are noncolliding — Lemma 3.2);
//! * at the crossing level `Γ`, read off the collision sets `C_{i,j}`
//!   positionally (a left token and a right token collide iff they arrive
//!   at the same comparator);
//! * choose the matching offset `i₀ ∈ [0, k²)` minimizing the loss
//!   `|L_{i₀}| = Σ_j |C_{j, j−i₀}|` (the paper's averaging argument
//!   guarantees a loss ≤ |B₀|/k²; the argmin can only do better, and in
//!   practice usually finds a *zero-loss* offset);
//! * evict `C_{j, j−i₀}` from the left sets — refinement step 2, parking
//!   the evicted wires as `X_{j, j₀}` with a globally fresh `j₀` — and
//!   shift the right sets up by `i₀` — refinement step 2′;
//! * apply `Γ` to the tracer; the families merge by themselves, because
//!   the refined pattern is the set index (`M_i` is the wires carrying
//!   `M_i`), so a node costs `O(|Γ|)`, plus `O(|Δ₁|)` when `i₀ > 0` —
//!   `O(n·lg n)` per block.
//!
//! The tracer *panics* if two tracked tokens with equal symbols ever meet a
//! comparator, so every run dynamically re-verifies the noncolliding
//! invariant the induction promises.

use crate::setfam::SetFamily;
use snet_core::element::{Element, WireId};
use snet_pattern::pattern::Pattern;
use snet_pattern::symbol::Symbol;
use snet_pattern::symbolic::Tracer;
use snet_topology::{RdNode, ReverseDelta};

/// `t(l) = k³ + l·k²`, the number of sets after an `l`-level network.
pub fn t_of(k: usize, l: usize) -> usize {
    k * k * k + l * k * k
}

/// Checks that Lemma 4.1 can run with parameter `k` on blocks of `levels`
/// levels: `k ≥ 1`, and the `t(levels) = k³ + levels·k²` set indices fit
/// a `u32`. Front ends check a requested `k` here before running the
/// adversary (with `levels = lg n`).
pub fn check_k(k: usize, levels: usize) -> Result<(), String> {
    if k == 0 {
        return Err("k must be at least 1".into());
    }
    let t = k.checked_mul(k).and_then(|k2| k2.checked_mul(k)?.checked_add(k2.checked_mul(levels)?));
    match t {
        Some(t) if t <= u32::MAX as usize => Ok(()),
        _ => Err(format!(
            "k = {k} is too large: t(lg n) = k³ + lg n·k² must fit a u32 set index (lg n = {levels})"
        )),
    }
}

/// How the matching offset `i₀` is chosen at each split node (the design
/// choice the paper's averaging argument leaves open; ablated in E12).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OffsetPolicy {
    /// Minimize the loss over all `k²` offsets (the implementation
    /// default — the averaging argument guarantees the minimum is
    /// ≤ `|B₀|/k²`, and in practice it is usually 0).
    #[default]
    ArgMin,
    /// Take the first offset meeting the paper's guarantee
    /// `|L_{i₀}| ≤ |B₀|/k²` — exactly what the existence proof promises,
    /// no more.
    FirstFeasible,
    /// Always use offset 0 (no matching freedom at all). *Inadmissible*:
    /// the mass guarantee may fail; used only to show the matching is
    /// load-bearing.
    AlwaysZero,
}

/// How the surviving set is chosen at a block boundary (Theorem 4.1's
/// averaging step; ablated in E12).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SetChoice {
    /// The largest set (the theorem's averaging argument).
    #[default]
    Largest,
    /// The nonempty set with the smallest index (no averaging).
    FirstNonempty,
}

/// Tunable adversary configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdversaryConfig {
    /// The Lemma 4.1 parameter `k` (the paper uses `lg n`).
    pub k: usize,
    /// Matching-offset policy.
    pub offset: OffsetPolicy,
    /// Block-boundary set choice.
    pub set_choice: SetChoice,
}

impl AdversaryConfig {
    /// The paper's parameters for an `n`-wire network: `k = lg n`, argmin
    /// offsets, largest-set choice.
    pub fn paper(n: usize) -> Self {
        AdversaryConfig {
            k: (n.max(2)).trailing_zeros() as usize,
            offset: OffsetPolicy::ArgMin,
            set_choice: SetChoice::Largest,
        }
    }

    /// Same but with an explicit `k`.
    pub fn with_k(k: usize) -> Self {
        AdversaryConfig { k, offset: OffsetPolicy::ArgMin, set_choice: SetChoice::Largest }
    }

    /// True when the offset policy honors the averaging guarantee (so the
    /// Lemma 4.1 mass floor must hold).
    pub fn is_admissible(&self) -> bool {
        self.offset != OffsetPolicy::AlwaysZero
    }
}

/// Per-height aggregate statistics of one Lemma 4.1 run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HeightStats {
    /// Nodes processed at this height.
    pub nodes: usize,
    /// Comparators in the `Γ` levels at this height.
    pub gamma_comparators: usize,
    /// Tracked-vs-tracked comparator meetings observed (candidate
    /// collisions `Σ|C_{i,j}|`).
    pub tracked_meets: usize,
    /// Wires actually evicted (`Σ|L_{i₀}|` over nodes).
    pub loss: usize,
    /// Nodes where a zero-loss offset existed.
    pub zero_loss_nodes: usize,
    /// Total set mass after processing this height.
    pub mass_after: usize,
}

/// Audit record of one Lemma 4.1 run, used by Experiments E1/E6.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Lemma41Audit {
    /// The `k` parameter.
    pub k: usize,
    /// Initial `[M_0]`-set size `|A|`.
    pub initial_mass: usize,
    /// Index `h-1` holds stats for height `h`.
    pub per_height: Vec<HeightStats>,
}

impl Lemma41Audit {
    /// Total eviction loss across all heights.
    pub fn total_loss(&self) -> usize {
        self.per_height.iter().map(|h| h.loss).sum()
    }
}

/// The mutable state shared across a Lemma 4.1 run (and, for the adaptive
/// game, across incremental level submissions).
///
/// The engine is wire-indexed: the refined pattern is the set index — a
/// tracked token whose origin is `o` belongs to `M_i` exactly when
/// `pat[o] = M_i` — so a node costs its `Γ`, plus one renaming pass over
/// `Δ₁`'s wires when the matching offset is nonzero. The set family is
/// materialized from the pattern once, when the run ends.
#[derive(Debug)]
pub struct Engine {
    k: usize,
    k2: u32,
    offset_policy: OffsetPolicy,
    /// The input pattern being refined (indexed by block-input wire).
    pub pat: Pattern,
    /// Frontier state; tracked tokens are exactly the current set members.
    pub tracer: Tracer,
    next_xj: u32,
    /// Audit accumulator.
    pub audit: Lemma41Audit,
    /// Reused per node: the tracked meetings at `Γ` as `(i, j, o)`, the
    /// left token's origin `o` being a member of `C_{i,j}`.
    meets: Vec<(u32, u32, WireId)>,
    /// Reused per node: the meetings' offsets `i − j ∈ [0, k²)`.
    offsets: Vec<u32>,
    /// Reused per node: `(offset, |L_offset|)` for every offset with a
    /// meeting, ascending.
    losses: Vec<(u32, usize)>,
}

impl Engine {
    /// Starts an engine from a block-input pattern containing only
    /// `S_0`, `M_0`, `L_0` (the Lemma 4.1 precondition; checked), using the
    /// default (paper/argmin) policies.
    pub fn new(pat: Pattern, k: usize) -> Self {
        Self::with_config(pat, &AdversaryConfig::with_k(k))
    }

    /// Starts an engine with explicit policies.
    pub fn with_config(pat: Pattern, cfg: &AdversaryConfig) -> Self {
        let k = cfg.k;
        assert!(k >= 1, "k must be positive");
        let k2 = k.checked_mul(k).and_then(|k2| u32::try_from(k2).ok());
        let k2 = k2.expect("k² must fit a u32 set index");
        for w in 0..pat.len() as WireId {
            let s = pat.get(w);
            assert!(
                matches!(s, Symbol::S(0) | Symbol::M(0) | Symbol::L(0)),
                "Lemma 4.1 precondition: only S_0/M_0/L_0 may occur (wire {w} has {s})"
            );
        }
        let initial_mass = pat.symbol_count(Symbol::M(0));
        let tracer = Tracer::new(&pat, |s| s.is_m());
        Engine {
            k,
            k2,
            offset_policy: cfg.offset,
            pat,
            tracer,
            next_xj: 0,
            audit: Lemma41Audit { k, initial_mass, per_height: Vec::new() },
            meets: Vec::new(),
            offsets: Vec::new(),
            losses: Vec::new(),
        }
    }

    /// The set mass of the leaf on wire `w`: 1 if `w` carries `M_0`.
    pub fn leaf_mass(&self, w: WireId) -> usize {
        usize::from(self.pat.get(w) == Symbol::M(0))
    }

    /// The set family over `wires`: `M_i` holds those carrying `M_i`.
    pub fn family(&self, wires: impl IntoIterator<Item = WireId>) -> SetFamily {
        let members = wires.into_iter().filter_map(|w| Some((self.pat.get(w).m_index()?, w)));
        SetFamily::from_members(members)
    }

    fn set_of(&self, origin: WireId) -> u32 {
        self.pat.get(origin).m_index().expect("tracked tokens are set members")
    }

    fn height_stats(&mut self, height: usize) -> &mut HeightStats {
        while self.audit.per_height.len() < height {
            self.audit.per_height.push(HeightStats::default());
        }
        &mut self.audit.per_height[height - 1]
    }

    /// Processes one split node (the induction step): reads the collision
    /// sets off `Γ`, performs the matching/eviction/renaming, and applies
    /// `Γ` to the tracer.
    ///
    /// `zero_wires`/`one_wires` are the subnetworks' (sorted) wire sets,
    /// `height` is the node's height (its `Γ` is the `height`-th level),
    /// and `masses` are the subnetworks' set masses `(|B₀|, |B₁|)`.
    /// Returns the node's set mass.
    pub fn process_node(
        &mut self,
        zero_wires: &[WireId],
        one_wires: &[WireId],
        gamma: &[Element],
        height: usize,
        (mass0, mass1): (usize, usize),
    ) -> usize {
        // --- Collision sets C_{i,j}, read positionally at Γ. ---
        self.meets.clear();
        let mut gamma_comparators = 0usize;
        for e in gamma.iter().filter(|e| e.is_comparator()) {
            gamma_comparators += 1;
            let (Some(oa), Some(ob)) = (self.tracer.origin_at(e.a), self.tracer.origin_at(e.b))
            else {
                continue;
            };
            // Orient: o0 came from the Δ₀ side, o1 from the Δ₁ side.
            let (o0, o1) = if zero_wires.binary_search(&e.a).is_ok() {
                (oa, ob)
            } else {
                debug_assert!(one_wires.binary_search(&e.a).is_ok());
                (ob, oa)
            };
            let meet = (self.set_of(o0), self.set_of(o1), o0);
            self.meets.push(meet);
        }
        let meets = self.meets.len();

        // --- Offset choice (the averaging argument, improved to argmin). ---
        let k2 = self.k2;
        self.offsets.clear();
        self.offsets.extend(
            self.meets.iter().filter(|&&(i, j, _)| i >= j && i - j < k2).map(|&(i, j, _)| i - j),
        );
        self.offsets.sort_unstable();
        self.losses.clear();
        for &off in &self.offsets {
            match self.losses.last_mut() {
                Some((last, loss)) if *last == off => *loss += 1,
                _ => self.losses.push((off, 1)),
            }
        }
        let losses = &self.losses;
        let loss_of =
            |off: u32| losses.binary_search_by_key(&off, |&(o, _)| o).map_or(0, |p| losses[p].1);
        let (i0, chosen_loss) = match self.offset_policy {
            OffsetPolicy::ArgMin => {
                if (losses.len() as u32) < k2 {
                    // The smallest offset no meeting has.
                    let free = (0..).zip(losses).find(|&(off, &(o, _))| o != off);
                    (free.map_or(losses.len() as u32, |(off, _)| off), 0usize)
                } else {
                    let &(off, l) = losses.iter().min_by_key(|&&(_, l)| l).expect("nonempty");
                    (off, l)
                }
            }
            OffsetPolicy::FirstFeasible => {
                let budget = mass0 / (k2 as usize).max(1);
                // An offset no meeting has costs nothing.
                let mut off = 0;
                for &(o, loss) in losses {
                    if o > off || loss <= budget {
                        break;
                    }
                    off = o + 1;
                }
                assert!(off < k2, "averaging guarantees a feasible offset");
                (off, loss_of(off))
            }
            OffsetPolicy::AlwaysZero => (0, loss_of(0)),
        };
        debug_assert!(
            self.offset_policy == OffsetPolicy::AlwaysZero || chosen_loss * (k2 as usize) <= mass0,
            "averaging guarantee violated: loss {chosen_loss} > |B0|/k² = {mass0}/{k2}"
        );

        // --- Refinement step 2: evict C_{i, i−i0} from the left sets. ---
        let j0 = self.next_xj;
        self.next_xj += 1;
        for &(i, j, origin) in &self.meets {
            if i >= i0 && i - i0 == j {
                self.pat.set(origin, Symbol::X(i, j0));
                let pos = self.tracer.position_of(origin).expect("set members are tracked");
                self.tracer.set_symbol_at(pos, Symbol::X(i, j0));
                self.tracer.untrack_origin(origin);
            }
        }

        // --- Refinement step 2′: shift the right side up by i0. ---
        if i0 > 0 {
            let shift = |s: Symbol| match s {
                Symbol::M(i) => Symbol::M(i + i0),
                Symbol::X(i, j) => Symbol::X(i + i0, j),
                other => other,
            };
            for &w in one_wires {
                self.pat.set(w, shift(self.pat.get(w)));
            }
            self.tracer.rename_at(one_wires, shift);
        }

        // --- Apply Γ to the frontier; all meetings must now be determined.
        for e in gamma {
            let out = self.tracer.apply_element(e, |_| {});
            assert!(out.is_determined(), "noncolliding invariant violated at a Γ level: {out:?}");
        }

        // --- Bound check: indices stay below t(height) (Lemma 4.1
        //     property (1) precondition for the next level up). ---
        debug_assert!(
            zero_wires.iter().chain(one_wires).all(|&w| {
                self.pat.get(w).m_index().is_none_or(|i| (i as usize) < t_of(self.k, height))
            }),
            "set index exceeded t(l)"
        );

        // --- Audit. ---
        let mass_after = mass0 - chosen_loss + mass1;
        let stats = self.height_stats(height);
        stats.nodes += 1;
        stats.gamma_comparators += gamma_comparators;
        stats.tracked_meets += meets;
        stats.loss += chosen_loss;
        if chosen_loss == 0 {
            stats.zero_loss_nodes += 1;
        }
        stats.mass_after += mass_after;
        mass_after
    }

    /// Runs the full induction over a reverse-delta recursion tree and
    /// returns the root's set mass.
    pub fn run_tree(&mut self, node: &RdNode) -> usize {
        match node {
            RdNode::Leaf(w) => self.leaf_mass(*w),
            RdNode::Split { zero, one, gamma, height, .. } => {
                let masses = (self.run_tree(zero), self.run_tree(one));
                self.process_node(zero.wires(), one.wires(), gamma, *height, masses)
            }
        }
    }
}

/// Result of a Lemma 4.1 run.
#[derive(Debug, Clone)]
pub struct Lemma41Output {
    /// The refined pattern `q` (over the block's input wires).
    pub refined: Pattern,
    /// The set family `M_0, …` — each `M_i` is the `[M_i]`-set of
    /// `refined`, noncolliding in the network.
    pub family: SetFamily,
    /// Frontier tracer at the block's output: each surviving set member's
    /// token position is its (determined) output wire.
    pub tracer: Tracer,
    /// Run statistics.
    pub audit: Lemma41Audit,
}

/// Runs Lemma 4.1 on a single reverse delta network with the paper/argmin
/// policies.
///
/// `p` must contain only `S_0`, `M_0`, `L_0`. Panics if the paper's mass
/// guarantee `|B| ≥ |A|·(1 − l/k²)` fails (it cannot, short of a bug).
pub fn lemma41(delta: &ReverseDelta, p: &Pattern, k: usize) -> Lemma41Output {
    lemma41_with(delta, p, &AdversaryConfig::with_k(k))
}

/// Runs Lemma 4.1 with an explicit [`AdversaryConfig`] (for the E12
/// ablations). The mass-guarantee check is skipped for inadmissible
/// offset policies.
pub fn lemma41_with(delta: &ReverseDelta, p: &Pattern, cfg: &AdversaryConfig) -> Lemma41Output {
    assert_eq!(p.len(), delta.wires(), "pattern/network width mismatch");
    let mut span = snet_obs::span("adversary.lemma41")
        .attr("wires", delta.wires())
        .attr("levels", delta.levels())
        .attr("k", cfg.k);
    let mut engine = Engine::with_config(p.clone(), cfg);
    span.add_attr("initial_mass", engine.audit.initial_mass);
    engine.run_tree(delta.root());
    let family = engine.family(0..delta.wires() as WireId);
    let out = finish(engine, family, delta.levels(), cfg.is_admissible());
    span.add_attr("retained_mass", out.family.mass());
    span.add_attr("evicted", out.audit.total_loss());
    snet_obs::counter("adversary.evictions", out.audit.total_loss() as u64);
    out
}

/// Runs Lemma 4.1 over a *forest* of disjoint reverse-delta trees under a
/// single global pattern (used by the Section 5 truncated variant, where a
/// block of `f < lg n` shuffle stages decomposes into `2^{lg n − f}`
/// parallel `f`-level reverse delta networks). Families are merged across
/// trees by set index — sound because trees are wire-disjoint, so members
/// of a merged set still never meet inside the block.
pub fn lemma41_forest(roots: &[&RdNode], p: &Pattern, k: usize, levels: usize) -> Lemma41Output {
    let mut engine = Engine::new(p.clone(), k);
    for root in roots {
        engine.run_tree(root);
    }
    let family = engine.family(roots.iter().flat_map(|root| root.wires().iter().copied()));
    finish(engine, family, levels, true)
}

fn finish(engine: Engine, family: SetFamily, levels: usize, admissible: bool) -> Lemma41Output {
    let a = engine.audit.initial_mass as f64;
    let k2 = (engine.k * engine.k) as f64;
    let guaranteed = a * (1.0 - levels as f64 / k2);
    assert!(
        !admissible || family.mass() as f64 >= guaranteed - 1e-9,
        "Lemma 4.1 mass guarantee violated: |B| = {} < {}",
        family.mass(),
        guaranteed
    );
    debug_assert!(family.is_disjoint());
    let Engine { pat, tracer, audit, .. } = engine;
    Lemma41Output { refined: pat, family, tracer, audit }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use snet_pattern::collision::is_noncolliding_exact;
    use snet_topology::random::{random_reverse_delta, RandomDeltaConfig, SplitStyle};

    fn uniform_m0(n: usize) -> Pattern {
        Pattern::uniform(n, Symbol::M(0))
    }

    #[test]
    fn t_of_matches_paper() {
        assert_eq!(t_of(2, 0), 8);
        assert_eq!(t_of(2, 3), 8 + 12);
        // Theorem 4.1 uses l = k = lg n: t(lg n) = 2 lg³ n.
        for lgn in [4usize, 8, 16] {
            assert_eq!(t_of(lgn, lgn), 2 * lgn * lgn * lgn);
        }
    }

    #[test]
    fn check_k_rejects_zero_and_set_indices_past_u32() {
        assert!(check_k(1, 10).is_ok());
        assert!(check_k(10, 10).is_ok());
        assert!(check_k(0, 10).unwrap_err().contains("at least 1"));
        // t(10) = 1622³ + 10·1622² = 4 293 602 688 fits a u32;
        // 1623³ + 10·1623² = 4 301 532 657 does not.
        assert!(check_k(1622, 10).is_ok());
        assert!(check_k(1623, 10).unwrap_err().contains("u32"));
        assert!(check_k(u32::MAX as usize, 10).is_err());
        assert!(check_k(usize::MAX, 10).is_err(), "checked arithmetic, no overflow");
    }

    #[test]
    fn zero_level_network_keeps_everything() {
        let delta = ReverseDelta::butterfly(0);
        let out = lemma41(&delta, &uniform_m0(1), 3);
        assert_eq!(out.family.mass(), 1);
        assert_eq!(out.family.get(0), &[0]);
        assert_eq!(out.refined, uniform_m0(1));
    }

    #[test]
    fn butterfly_mass_guarantee() {
        for l in 1..=6usize {
            let delta = ReverseDelta::butterfly(l);
            let n = 1 << l;
            let k = l.max(2);
            let out = lemma41(&delta, &uniform_m0(n), k);
            let floor = n as f64 * (1.0 - l as f64 / (k * k) as f64);
            assert!(
                out.family.mass() as f64 >= floor,
                "l={l}: mass {} < floor {floor}",
                out.family.mass()
            );
            // Properties (1): each family set is the [M_i]-set of q.
            for (i, wires) in out.family.iter() {
                assert_eq!(out.refined.symbol_set(Symbol::M(i)), wires, "set {i}");
            }
            // Property (3): B ⊆ A (here A is everything).
            assert!(out.family.mass() <= n);
        }
    }

    #[test]
    fn refinement_relation_holds() {
        // q must be an A-refinement of p.
        let l = 4;
        let n = 1 << l;
        let delta = ReverseDelta::butterfly(l);
        let p = uniform_m0(n);
        let out = lemma41(&delta, &p, 3);
        assert!(p.refines_to(&out.refined), "p ⊐ q");
        // And with a nontrivial S/L fringe, non-A wires are untouched.
        let mut p2 = uniform_m0(n);
        p2.set(0, Symbol::S(0));
        p2.set(1, Symbol::L(0));
        let out2 = lemma41(&delta, &p2, 3);
        assert_eq!(out2.refined.get(0), Symbol::S(0));
        assert_eq!(out2.refined.get(1), Symbol::L(0));
        let a: Vec<WireId> = p2.symbol_set(Symbol::M(0));
        assert!(p2.refines_to_within(&out2.refined, &a), "q is an A-refinement");
    }

    #[test]
    fn sets_are_noncolliding_exhaustively_small() {
        // Brute-force Definition 3.7 check of property (2) on all refining
        // inputs, for every set, on small random networks.
        let mut rng = rand::rngs::StdRng::seed_from_u64(31);
        for seed in 0..15u64 {
            let _ = seed;
            for split in [SplitStyle::BitSplit, SplitStyle::FreeSplit] {
                let cfg = RandomDeltaConfig {
                    split,
                    comparator_density: 0.8,
                    reverse_bias: 0.4,
                    swap_density: 0.5,
                };
                let l = 3;
                let n = 1 << l;
                let delta = random_reverse_delta(l, &cfg, &mut rng);
                let net = delta.to_network();
                let out = lemma41(&delta, &uniform_m0(n), 2);
                for (i, wires) in out.family.iter() {
                    assert!(
                        is_noncolliding_exact(&net, &out.refined, wires),
                        "set M_{i} = {wires:?} collides (split {split:?})"
                    );
                }
            }
        }
    }

    #[test]
    fn largest_set_is_substantial() {
        // With k = l = lg n the paper guarantees a set of size
        // ≥ n(1 − 1/lg n)/(2 lg³ n); the argmin offset usually does much
        // better. Check the guarantee.
        for l in [3usize, 4, 5, 6, 7] {
            let n = 1 << l;
            let delta = ReverseDelta::butterfly(l);
            let out = lemma41(&delta, &uniform_m0(n), l);
            let (_, biggest) = out.family.largest().unwrap();
            let floor = n as f64 * (1.0 - 1.0 / l as f64) / (2 * l * l * l) as f64;
            assert!(
                biggest.len() as f64 >= floor,
                "l={l}: largest {} < averaged floor {floor}",
                biggest.len()
            );
        }
    }

    #[test]
    fn tracer_positions_are_output_wires() {
        let l = 4;
        let n = 1 << l;
        let delta = ReverseDelta::butterfly(l);
        let out = lemma41(&delta, &uniform_m0(n), 3);
        // Each surviving member's token position is a valid wire and all
        // positions are distinct.
        let mut seen = std::collections::BTreeSet::new();
        for (_, wires) in out.family.iter() {
            for &w in wires {
                let pos = out.tracer.position_of(w).expect("tracked");
                assert!(seen.insert(pos), "positions must be distinct");
            }
        }
    }

    #[test]
    fn empty_m0_set_is_fine() {
        let delta = ReverseDelta::butterfly(3);
        let p = Pattern::uniform(8, Symbol::S(0));
        let out = lemma41(&delta, &p, 2);
        assert_eq!(out.family.mass(), 0);
        assert_eq!(out.refined, p);
    }

    #[test]
    fn forest_variant_matches_single_tree() {
        let l = 3;
        let n = 1 << l;
        let delta = ReverseDelta::butterfly(l);
        let p = uniform_m0(n);
        let single = lemma41(&delta, &p, 2);
        let forest = lemma41_forest(&[delta.root()], &p, 2, l);
        assert_eq!(single.family, forest.family);
        assert_eq!(single.refined, forest.refined);
    }

    #[test]
    fn precondition_enforced() {
        let delta = ReverseDelta::butterfly(2);
        let mut p = uniform_m0(4);
        p.set(2, Symbol::M(1));
        assert!(std::panic::catch_unwind(|| lemma41(&delta, &p, 2)).is_err());
    }

    #[test]
    fn audit_accounts_for_mass() {
        let l = 5;
        let n = 1 << l;
        let delta = ReverseDelta::butterfly(l);
        let out = lemma41(&delta, &uniform_m0(n), l);
        assert_eq!(out.audit.initial_mass, n);
        assert_eq!(out.audit.initial_mass - out.audit.total_loss(), out.family.mass());
        // Top height has exactly one node.
        assert_eq!(out.audit.per_height.last().unwrap().nodes, 1);
        assert_eq!(out.audit.per_height.len(), l);
        // mass_after at the top equals the final mass.
        assert_eq!(out.audit.per_height.last().unwrap().mass_after, out.family.mass());
    }
}
