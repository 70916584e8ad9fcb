//! The Lemma 4.1 engine and the runs on top of it as they were before the engine
//! became wire-indexed: per node it built `HashMap` indexes of both child
//! families, `BTreeMap`s of the collision sets and the offsets' losses,
//! and merged copied families. Kept verbatim as the oracle of the
//! differential tests in `crate::differential`, which require the
//! wire-indexed engine and every run on top of it to reproduce its outputs
//! exactly.

use crate::adaptive::{AdaptiveOutput, CmpOutcome};
use crate::lemma41::{
    t_of, AdversaryConfig, HeightStats, Lemma41Audit, Lemma41Output, OffsetPolicy, SetChoice,
};
use crate::setfam::SetFamily;
use crate::theorem41::{BlockStats, Theorem41Output};
use crate::witness::SortingRefutation;
use snet_core::element::{Element, ElementKind, WireId};
use snet_core::network::{ComparatorNetwork, Level};
use snet_pattern::pattern::Pattern;
use snet_pattern::symbol::Symbol;
use snet_pattern::symbolic::Tracer;
use snet_topology::{IteratedReverseDelta, RdNode, ReverseDelta};
use std::collections::{BTreeMap, HashMap};

/// The mutable state shared across a Lemma 4.1 run (and, for the adaptive
/// game, across incremental level submissions).
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
            k2: (k * k) as u32,
            offset_policy: cfg.offset,
            pat,
            tracer,
            next_xj: 0,
            audit: Lemma41Audit { k, initial_mass, per_height: Vec::new() },
        }
    }

    /// The leaf family for wire `w`: `{M_0 ↦ {w}}` if `w` carries `M_0`.
    pub fn leaf_family(&self, w: WireId) -> SetFamily {
        if self.pat.get(w) == Symbol::M(0) {
            SetFamily::singleton(0, vec![w])
        } else {
            SetFamily::new()
        }
    }

    fn height_stats(&mut self, height: usize) -> &mut HeightStats {
        while self.audit.per_height.len() < height {
            self.audit.per_height.push(HeightStats::default());
        }
        &mut self.audit.per_height[height - 1]
    }

    /// Processes one split node (the induction step): consumes the two
    /// child families, performs the matching/eviction/renaming, applies
    /// `Γ` to the tracer, and returns the merged family.
    ///
    /// `zero_wires`/`one_wires` are the subnetworks' (sorted) wire sets and
    /// `height` is the node's height (its `Γ` is the `height`-th level).
    pub fn process_node(
        &mut self,
        fam0: SetFamily,
        fam1: SetFamily,
        zero_wires: &[WireId],
        one_wires: &[WireId],
        gamma: &[Element],
        height: usize,
    ) -> SetFamily {
        // --- Collision sets C_{i,j}, read positionally at Γ. ---
        let idx0: HashMap<WireId, u32> =
            fam0.iter().flat_map(|(i, ws)| ws.iter().map(move |&w| (w, i))).collect();
        let idx1: HashMap<WireId, u32> =
            fam1.iter().flat_map(|(i, ws)| ws.iter().map(move |&w| (w, i))).collect();
        let mut c: BTreeMap<(u32, u32), Vec<WireId>> = BTreeMap::new();
        let mut meets = 0usize;
        let mut gamma_comparators = 0usize;
        for e in gamma {
            if !e.is_comparator() {
                continue;
            }
            gamma_comparators += 1;
            // Orient: w0 on the Δ₀ side, w1 on the Δ₁ side.
            let (w0, w1) = if zero_wires.binary_search(&e.a).is_ok() {
                (e.a, e.b)
            } else {
                debug_assert!(one_wires.binary_search(&e.a).is_ok());
                (e.b, e.a)
            };
            if let (Some(o0), Some(o1)) = (self.tracer.origin_at(w0), self.tracer.origin_at(w1)) {
                // Tracked tokens are exactly the family members.
                let i = *idx0.get(&o0).expect("left token belongs to a left set");
                let j = *idx1.get(&o1).expect("right token belongs to a right set");
                c.entry((i, j)).or_default().push(o0);
                meets += 1;
            }
        }

        // --- Offset choice (the averaging argument, improved to argmin). ---
        let mut loss_by_offset: BTreeMap<u32, usize> = BTreeMap::new();
        for (&(i, j), wires) in &c {
            if i >= j && i - j < self.k2 {
                *loss_by_offset.entry(i - j).or_default() += wires.len();
            }
        }
        let loss_of = |off: u32| loss_by_offset.get(&off).copied().unwrap_or(0);
        let (i0, chosen_loss) = match self.offset_policy {
            OffsetPolicy::ArgMin => {
                if (loss_by_offset.len() as u32) < self.k2 {
                    let free = (0..self.k2)
                        .find(|off| !loss_by_offset.contains_key(off))
                        .expect("free offset");
                    (free, 0usize)
                } else {
                    let (&off, &l) =
                        loss_by_offset.iter().min_by_key(|&(_, &l)| l).expect("nonempty");
                    (off, l)
                }
            }
            OffsetPolicy::FirstFeasible => {
                let budget = fam0.mass() / (self.k2 as usize).max(1);
                let off = (0..self.k2)
                    .find(|&off| loss_of(off) <= budget)
                    .expect("averaging guarantees a feasible offset");
                (off, loss_of(off))
            }
            OffsetPolicy::AlwaysZero => (0, loss_of(0)),
        };
        debug_assert!(
            self.offset_policy == OffsetPolicy::AlwaysZero
                || chosen_loss * (self.k2 as usize) <= fam0.mass(),
            "averaging guarantee violated: loss {} > |B0|/k² = {}/{}",
            chosen_loss,
            fam0.mass(),
            self.k2
        );

        // --- Refinement step 2: evict C_{i, i−i0} from the left sets. ---
        let j0 = self.next_xj;
        self.next_xj += 1;
        let mut fam_new = SetFamily::new();
        for (i, wires) in fam0.iter() {
            let evicted: &[WireId] =
                if i >= i0 { c.get(&(i, i - i0)).map(Vec::as_slice).unwrap_or(&[]) } else { &[] };
            if evicted.is_empty() {
                fam_new.put(i, wires.to_vec());
                continue;
            }
            let evict_set: std::collections::BTreeSet<WireId> = evicted.iter().copied().collect();
            for &w in &evict_set {
                self.pat.set(w, Symbol::X(i, j0));
                let pos = self.tracer.position_of(w).expect("set members are tracked");
                self.tracer.set_symbol_at(pos, Symbol::X(i, j0));
                self.tracer.untrack_origin(w);
            }
            let survivors: Vec<WireId> =
                wires.iter().copied().filter(|w| !evict_set.contains(w)).collect();
            fam_new.put(i, survivors);
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

        // --- Merge the right family into the left survivors. ---
        for (j, wires) in fam1.iter() {
            let target = j + i0;
            let mut merged = fam_new.take(target);
            merged.extend_from_slice(wires);
            merged.sort_unstable();
            fam_new.put(target, merged);
        }

        // --- Apply Γ to the frontier; all meetings must now be determined.
        for e in gamma {
            let out = self.tracer.apply_element(e, |_| {});
            assert!(out.is_determined(), "noncolliding invariant violated at a Γ level: {out:?}");
        }

        // --- Bound check: indices stay below t(height) (Lemma 4.1
        //     property (1) precondition for the next level up). ---
        debug_assert!(
            fam_new.max_index().is_none_or(|i| (i as usize) < t_of(self.k, height)),
            "set index exceeded t(l)"
        );

        // --- Audit. ---
        let mass_after = fam_new.mass();
        let stats = self.height_stats(height);
        stats.nodes += 1;
        stats.gamma_comparators += gamma_comparators;
        stats.tracked_meets += meets;
        stats.loss += chosen_loss;
        if chosen_loss == 0 {
            stats.zero_loss_nodes += 1;
        }
        stats.mass_after += mass_after;
        fam_new
    }

    /// Runs the full induction over a reverse-delta recursion tree.
    pub fn run_tree(&mut self, node: &RdNode) -> SetFamily {
        match node {
            RdNode::Leaf(w) => self.leaf_family(*w),
            RdNode::Split { zero, one, gamma, height, .. } => {
                let fam0 = self.run_tree(zero);
                let fam1 = self.run_tree(one);
                self.process_node(fam0, fam1, zero.wires(), one.wires(), gamma, *height)
            }
        }
    }
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
    let family = engine.run_tree(delta.root());
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
    let mut family = SetFamily::new();
    for root in roots {
        let fam = engine.run_tree(root);
        for (i, wires) in fam.iter() {
            let mut merged = family.take(i);
            merged.extend_from_slice(wires);
            merged.sort_unstable();
            family.put(i, merged);
        }
    }
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

/// Runs the Theorem 4.1 adversary with explicit policies (E12 ablations).
pub fn theorem41_with(ird: &IteratedReverseDelta, cfg: &AdversaryConfig) -> Theorem41Output {
    let n = ird.wires();
    assert!(n >= 2, "need at least two wires");
    let mut run_span = snet_obs::span("adversary.theorem41")
        .attr("wires", n)
        .attr("blocks", ird.blocks().len())
        .attr("k", cfg.k);
    let lg_n = (n as f64).log2();

    let mut input_pattern = Pattern::uniform(n, Symbol::M(0));
    // Pattern at the current block's input.
    let mut block_pattern = input_pattern.clone();
    // For each block-frontier wire: the network-input wire whose value sits
    // there (tracked only for current [M_0] members).
    let mut origin: Vec<Option<WireId>> = (0..n as WireId).map(Some).collect();

    let mut blocks = Vec::new();
    let mut audits = Vec::new();
    let mut d_input: Vec<WireId> = (0..n as WireId).collect();

    for (bi, block) in ird.blocks().iter().enumerate() {
        let mut block_span = snet_obs::span("adversary.block").attr("block", bi);
        // 1. Free pre-route.
        if let Some(p) = &block.pre_route {
            block_pattern = block_pattern.route(p);
            let old = origin.clone();
            p.route(&old, &mut origin);
        }

        // Current [M_0]-set at the block input (B'), before refinement.
        let b_prime = block_pattern.symbol_set(Symbol::M(0));

        // 2. Lemma 4.1 on this block.
        let out = lemma41_with(&block.rdn, &block_pattern, cfg);
        audits.push(out.audit.clone());

        // 3. Choose the surviving set (Largest = the theorem's averaging).
        let chosen = match cfg.set_choice {
            SetChoice::Largest => out.family.largest(),
            SetChoice::FirstNonempty => out.family.iter().next(),
        };
        let Some((i0, d_block)) = chosen else {
            blocks.push(BlockStats {
                block: bi,
                d_size: 0,
                paper_bound: n as f64 / lg_n.powi(4 * (bi as i32 + 1)),
                retained_mass: 0,
                nonempty_sets: 0,
                chosen_index: 0,
            });
            d_input.clear();
            input_pattern = relabel_all_non_m(&input_pattern);
            block_span.add_attr("d_size", 0);
            break;
        };
        let d_block: Vec<WireId> = d_block.to_vec();

        // 4. Pull back to the network input (Lemma 3.3) and collapse
        //    (Lemma 3.4): previously-M_0 input wires are reclassified by
        //    comparing their refined block symbol against M_{i0}.
        let m_chosen = Symbol::M(i0);
        for &w in &b_prime {
            let a = origin[w as usize].expect("B' members carry tracked tokens");
            let s = out.refined.get(w);
            let collapsed = if s < m_chosen {
                Symbol::S(0)
            } else if s > m_chosen {
                Symbol::L(0)
            } else {
                Symbol::M(0)
            };
            input_pattern.set(a, collapsed);
        }
        d_input = d_block
            .iter()
            .map(|&w| origin[w as usize].expect("chosen set members are tracked"))
            .collect();
        d_input.sort_unstable();
        debug_assert_eq!(input_pattern.symbol_set(Symbol::M(0)), d_input);

        // 5. Push the collapsed pattern through the block (strict tracer:
        //    any ambiguous meeting would falsify the noncolliding claim).
        let collapsed_q = out.refined.collapse_around_m(i0);
        let mut tracer = Tracer::new(&collapsed_q, |s| s.is_m());
        tracer.apply_network_strict(&block.rdn.to_network(), |_, _| {
            panic!("two [M_0] tokens met a comparator: noncollision violated")
        });
        block_pattern = tracer.frontier();
        let mut new_origin: Vec<Option<WireId>> = vec![None; n];
        for &w in &d_block {
            let pos = tracer.position_of(w).expect("tracked through the block");
            new_origin[pos as usize] = origin[w as usize];
        }
        origin = new_origin;

        blocks.push(BlockStats {
            block: bi,
            d_size: d_block.len(),
            paper_bound: n as f64 / lg_n.powi(4 * (bi as i32 + 1)),
            retained_mass: out.family.mass(),
            nonempty_sets: out.family.nonempty_count(),
            chosen_index: i0,
        });
        block_span.add_attr("d_size", d_block.len());
        block_span.add_attr("retained_mass", out.family.mass());
        block_span.add_attr("nonempty_sets", out.family.nonempty_count());
        snet_obs::counter("adversary.retained_mass", out.family.mass() as u64);

        if d_block.len() <= 1 {
            break;
        }
    }

    run_span.add_attr("blocks_run", blocks.len());
    run_span.add_attr("d_final", d_input.len());
    Theorem41Output { input_pattern, d_set: d_input, blocks, audits }
}

/// Degenerate fallback when every set died: make the input pattern still
/// well-formed (no `M_0` at all).
fn relabel_all_non_m(p: &Pattern) -> Pattern {
    let syms =
        p.symbols().iter().map(|&s| if s == Symbol::M(0) { Symbol::S(0) } else { s }).collect();
    Pattern::from_symbols(syms)
}

/// The adversary side of the adaptive game on `n = 2^l` wires.
///
/// Drive it with [`AdaptiveRun::submit_stage`] once per level (the network's side
/// inspects the returned outcomes before choosing the next level), then
/// call [`AdaptiveRun::finish`].
#[derive(Debug)]
pub struct AdaptiveRun {
    n: usize,
    l: usize,
    k: usize,
    stage_in_block: usize,
    engine: Engine,
    /// Families of the current height's nodes, indexed by the nodes' fixed
    /// low bits.
    fams: Vec<SetFamily>,
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
            fams: (0..n as WireId).map(|w| engine.leaf_family(w)).collect(),
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

    fn rotr(&self, x: u32, i: usize) -> u32 {
        let i = i % self.l;
        if i == 0 {
            x
        } else {
            ((x >> i) | (x << (self.l - i))) & (self.n as u32 - 1)
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
            .map(|(kk, &kind)| Element {
                a: self.rotr(2 * kk as u32, h),
                b: self.rotr(2 * kk as u32 + 1, h),
                kind,
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
        let mut new_fams = Vec::with_capacity(1usize << (self.l - h));
        let child_stride = 1u32 << (self.l - h + 1);
        // Children are indexed by their fixed low l-h+1 bits in `fams`.
        let mut old_fams = std::mem::take(&mut self.fams);
        for c in 0..1u32 << (self.l - h) {
            let cz = c;
            let co = c | (1u32 << (self.l - h));
            let zero_wires: Vec<WireId> =
                (0..1u32 << (h - 1)).map(|j| cz + j * child_stride).collect();
            let one_wires: Vec<WireId> =
                (0..1u32 << (h - 1)).map(|j| co + j * child_stride).collect();
            let fam0 = std::mem::take(&mut old_fams[cz as usize]);
            let fam1 = std::mem::take(&mut old_fams[co as usize]);
            let fam = self.engine.process_node(
                fam0,
                fam1,
                &zero_wires,
                &one_wires,
                &gamma_of[c as usize],
                h,
            );
            new_fams.push(fam);
        }
        self.fams = new_fams;

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
        debug_assert_eq!(self.fams.len(), 1);
        let family = std::mem::take(&mut self.fams[0]);
        self.apply_block_result(family);
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
        self.fams = (0..self.n as WireId).map(|w| self.engine.leaf_family(w)).collect();
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
    /// would be an adversary bug, not a win for the network's side).
    pub fn finish(mut self) -> AdaptiveOutput {
        if self.stage_in_block > 0 {
            // Union the remaining per-node families by symbol index: the
            // nodes are wire-disjoint and the network has ended, so merged
            // sets remain noncolliding.
            let mut family = SetFamily::new();
            for fam in std::mem::take(&mut self.fams) {
                for (i, wires) in fam.iter() {
                    let mut merged = family.take(i);
                    merged.extend_from_slice(wires);
                    merged.sort_unstable();
                    family.put(i, merged);
                }
            }
            self.apply_block_result(family);
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
                .map(|(kk, &kind)| Element {
                    a: self.rotr(2 * kk as u32, h),
                    b: self.rotr(2 * kk as u32 + 1, h),
                    kind,
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
