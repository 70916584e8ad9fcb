//! The compiled intermediate representation: a flat [`Program`] of two-slot
//! ops grouped into levels, with provenance and wire-relabeling metadata.
//!
//! A `Program` is a *faithful lowering* of either Section 1 model — the
//! leveled circuit model ([`Program::from_network`]) or the register model
//! ([`Program::from_register`]) — into one uniform data structure:
//!
//! * a flat op list in execution order (`(a, b, kind)` over physical
//!   *slots*),
//! * a parallel, nondecreasing level assignment (`level_of`),
//! * per-level optional routing permutations (present right after lowering;
//!   normally removed by the `AbsorbRoutes` pass),
//! * a final `output_map` gather realizing any relabeling accumulated by
//!   passes, and
//! * an [`Origin`] per op recording the source `(level, element index)` and
//!   the original [`Element`] — this is what redundancy analysis and traced
//!   execution map results back through.
//!
//! The freshly-lowered program replays the source network exactly; the
//! pass pipeline in [`crate::ir::passes`] then rewrites it (absorbing
//! routes, normalizing `CmpRev`, stripping `Pass`/`Swap`, eliminating
//! provably inert comparators, re-layering) while preserving the
//! input→output mapping. All backends in [`crate::ir::exec`] replay this
//! one representation.

use crate::element::{Element, ElementKind};
use crate::network::{CmpEvent, ComparatorNetwork};
use crate::perm::Permutation;
use crate::register::RegisterNetwork;

/// Lane masks for packing 64 consecutive inputs `base..base+64` (with
/// `base` 64-aligned): for wire `w < 6`, bit `i` of the lane word is bit
/// `w` of `i`, a constant pattern independent of `base`.
const PERIODIC: [u64; 6] = [
    0xAAAA_AAAA_AAAA_AAAA,
    0xCCCC_CCCC_CCCC_CCCC,
    0xF0F0_F0F0_F0F0_F0F0,
    0xFF00_FF00_FF00_FF00,
    0xFFFF_0000_FFFF_0000,
    0xFFFF_FFFF_0000_0000,
];

/// One IR op: an element kind applied to two physical slots.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Op {
    /// First slot (min-output for `Cmp`, max-output for `CmpRev`).
    pub a: u32,
    /// Second slot.
    pub b: u32,
    /// The operation. Lowering is faithful: all four element kinds appear
    /// until the pipeline normalizes/strips them.
    pub kind: ElementKind,
}

impl Op {
    /// True if this op compares its inputs (`Cmp`/`CmpRev`).
    #[inline]
    pub fn is_comparator(&self) -> bool {
        self.kind.is_comparator()
    }
}

/// Source provenance of an IR op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Origin {
    /// Level (circuit model) or stage (register model) index in the source.
    pub level: u32,
    /// Element index within the source level / op index within the stage.
    pub index: u32,
    /// The source element verbatim (source-model wire ids, original kind).
    /// Traced execution reports this element even after slot relabeling and
    /// `CmpRev` normalization.
    pub element: Element,
}

/// A comparator network lowered to a flat program over physical slots.
///
/// Invariants (checked by [`Program::validate`]):
/// * `ops`, `origins`, and `level_of` are parallel;
/// * `level_of` is nondecreasing and `< level_count`;
/// * `routes.len() == level_count`;
/// * every slot index is `< n` and each op has `a != b`;
/// * `output_map` is a permutation of `0..n`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Program {
    pub(crate) n: usize,
    pub(crate) ops: Vec<Op>,
    pub(crate) origins: Vec<Origin>,
    pub(crate) level_of: Vec<u32>,
    pub(crate) routes: Vec<Option<Permutation>>,
    pub(crate) level_count: u32,
    pub(crate) output_map: Vec<u32>,
}

impl Program {
    /// Faithfully lowers a circuit-model network: one IR level per network
    /// level, routes copied, every element (including `Pass`/`Swap`)
    /// becoming one op on its own wires, `output_map` the identity.
    pub fn from_network(net: &ComparatorNetwork) -> Self {
        let _span = snet_obs::span("ir.lower")
            .attr("model", "circuit")
            .attr("wires", net.wires())
            .attr("size", net.size());
        let n = net.wires();
        let mut ops = Vec::with_capacity(net.size());
        let mut origins = Vec::with_capacity(net.size());
        let mut level_of = Vec::with_capacity(net.size());
        let mut routes = Vec::with_capacity(net.depth());
        for (li, level) in net.levels().iter().enumerate() {
            routes.push(level.route.clone());
            for (ei, e) in level.elements.iter().enumerate() {
                ops.push(Op { a: e.a, b: e.b, kind: e.kind });
                origins.push(Origin { level: li as u32, index: ei as u32, element: *e });
                level_of.push(li as u32);
            }
        }
        Program {
            n,
            ops,
            origins,
            level_of,
            routes,
            level_count: net.depth() as u32,
            output_map: (0..n as u32).collect(),
        }
    }

    /// Lowers a register-model network through the **same** IR: stage `i`
    /// becomes level `i` with `route = Some(Π_i)` and op `k` on slots
    /// `(2k, 2k+1)`. Both Section 1 models thus share one execution path.
    pub fn from_register(reg: &RegisterNetwork) -> Self {
        let _span = snet_obs::span("ir.lower")
            .attr("model", "register")
            .attr("wires", reg.registers())
            .attr("size", reg.size());
        let n = reg.registers();
        let mut ops = Vec::new();
        let mut origins = Vec::new();
        let mut level_of = Vec::new();
        let mut routes = Vec::with_capacity(reg.depth());
        for (si, stage) in reg.stages().iter().enumerate() {
            routes.push(Some(stage.perm.clone()));
            for (k, &kind) in stage.ops.iter().enumerate() {
                let (a, b) = (2 * k as u32, 2 * k as u32 + 1);
                ops.push(Op { a, b, kind });
                origins.push(Origin {
                    level: si as u32,
                    index: k as u32,
                    element: Element { a, b, kind },
                });
                level_of.push(si as u32);
            }
        }
        Program {
            n,
            ops,
            origins,
            level_of,
            routes,
            level_count: reg.depth() as u32,
            output_map: (0..n as u32).collect(),
        }
    }

    /// Raises the program back to a leveled circuit: ops grouped by level
    /// (per-level routes preserved verbatim), plus — when passes have
    /// accumulated a non-identity relabeling — one final routing-only
    /// level realizing the output gather. The result replays the program's
    /// input→output mapping exactly; after the canonical pipeline it is a
    /// route-free circuit suitable for structural analyses that reject
    /// routes (e.g. `recognize`).
    pub fn to_network(&self) -> ComparatorNetwork {
        let mut levels: Vec<crate::network::Level> = (0..self.level_count as usize)
            .map(|li| crate::network::Level {
                route: self.routes[li].clone(),
                elements: Vec::new(),
            })
            .collect();
        for (op, &li) in self.ops.iter().zip(&self.level_of) {
            levels[li as usize].elements.push(Element { a: op.a, b: op.b, kind: op.kind });
        }
        if self.output_map.iter().enumerate().any(|(w, &s)| w as u32 != s) {
            // Output wire `w` reads slot `output_map[w]`, so the gather
            // moves the value on slot `s` to the wire reading it.
            let mut images = vec![0u32; self.n];
            for (w, &s) in self.output_map.iter().enumerate() {
                images[s as usize] = w as u32;
            }
            let gather = Permutation::from_images(images).expect("output map is a permutation");
            levels.push(crate::network::Level::of_route(gather));
        }
        ComparatorNetwork::new(self.n, levels).expect("valid program raises to a valid network")
    }

    /// Number of wires (= physical slots).
    #[inline]
    pub fn wires(&self) -> usize {
        self.n
    }

    /// Total op count, including non-comparators that passes have not yet
    /// stripped.
    #[inline]
    pub fn op_count(&self) -> usize {
        self.ops.len()
    }

    /// The ops in execution order.
    #[inline]
    pub fn ops(&self) -> &[Op] {
        &self.ops
    }

    /// Source provenance, parallel to [`ops`](Self::ops).
    #[inline]
    pub fn origins(&self) -> &[Origin] {
        &self.origins
    }

    /// Level of each op, parallel to [`ops`](Self::ops) and nondecreasing.
    #[inline]
    pub fn level_of(&self) -> &[u32] {
        &self.level_of
    }

    /// Final gather: logical output wire `w` reads slot `output_map[w]`.
    #[inline]
    pub fn output_map(&self) -> &[u32] {
        &self.output_map
    }

    /// Number of levels (routing-only levels included).
    #[inline]
    pub fn depth(&self) -> usize {
        self.level_count as usize
    }

    /// Number of levels containing at least one comparator op — the paper's
    /// depth measure (routing is free).
    pub fn comparator_depth(&self) -> usize {
        let mut last = u32::MAX;
        let mut depth = 0usize;
        for (op, &lvl) in self.ops.iter().zip(&self.level_of) {
            if op.is_comparator() && lvl != last {
                depth += 1;
                last = lvl;
            }
        }
        depth
    }

    /// Number of comparator ops (network *size*).
    pub fn size(&self) -> usize {
        self.ops.iter().filter(|op| op.is_comparator()).count()
    }

    /// True if any level still carries a routing permutation (i.e. the
    /// `AbsorbRoutes` pass has not run, or lowering was from the register
    /// model).
    pub fn has_routes(&self) -> bool {
        self.routes.iter().any(|r| r.is_some())
    }

    /// Checks the structural invariants; returns a description of the first
    /// violation. Used by the pass differential tests.
    pub fn validate(&self) -> Result<(), String> {
        if self.ops.len() != self.origins.len() || self.ops.len() != self.level_of.len() {
            return Err("parallel arrays disagree in length".into());
        }
        if self.routes.len() != self.level_count as usize {
            return Err("routes length != level count".into());
        }
        let mut prev = 0u32;
        for (i, (&lvl, op)) in self.level_of.iter().zip(&self.ops).enumerate() {
            if lvl < prev {
                return Err(format!("op {i}: level_of decreases"));
            }
            if lvl >= self.level_count {
                return Err(format!("op {i}: level {lvl} out of range"));
            }
            if op.a == op.b || op.a as usize >= self.n || op.b as usize >= self.n {
                return Err(format!("op {i}: bad slots ({}, {})", op.a, op.b));
            }
            prev = lvl;
        }
        let mut seen = vec![false; self.n];
        for &s in &self.output_map {
            if s as usize >= self.n || seen[s as usize] {
                return Err("output_map is not a permutation".into());
            }
            seen[s as usize] = true;
        }
        if self.output_map.len() != self.n {
            return Err("output_map length mismatch".into());
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Backends. Every runner handles routed (freshly lowered) programs;
    // after `AbsorbRoutes` the flat fast path applies.
    // ------------------------------------------------------------------

    /// Applies op `k` to scalar slots.
    #[inline]
    fn apply_scalar<T: Ord + Copy>(op: &Op, slots: &mut [T]) {
        let (ia, ib) = (op.a as usize, op.b as usize);
        let (x, y) = (slots[ia], slots[ib]);
        match op.kind {
            ElementKind::Cmp => {
                if y < x {
                    slots[ia] = y;
                    slots[ib] = x;
                }
            }
            ElementKind::CmpRev => {
                if x < y {
                    slots[ia] = y;
                    slots[ib] = x;
                }
            }
            ElementKind::Pass => {}
            ElementKind::Swap => {
                slots[ia] = y;
                slots[ib] = x;
            }
        }
    }

    /// Iterates `f` over `(level, ops of that level)` runs, applying routes
    /// to `slots` via `route` first. `level_of` is nondecreasing, so one
    /// forward scan suffices.
    #[inline]
    fn for_each_level<S, R: FnMut(&Permutation, &mut [S]), F: FnMut(&[Op], &mut [S])>(
        &self,
        slots: &mut [S],
        mut route: R,
        mut f: F,
    ) {
        let mut start = 0usize;
        for lvl in 0..self.level_count {
            if let Some(r) = &self.routes[lvl as usize] {
                route(r, slots);
            }
            let end = start + self.level_of[start..].iter().take_while(|&&l| l == lvl).count();
            f(&self.ops[start..end], slots);
            start = end;
        }
    }

    /// Evaluates in place: `values` is the input on entry and the output on
    /// exit, exactly like [`ComparatorNetwork::evaluate_in_place`].
    /// `scratch` is reused across calls to avoid allocation.
    pub fn run_scalar_in_place<T: Ord + Copy>(&self, values: &mut [T], scratch: &mut Vec<T>) {
        assert_eq!(values.len(), self.n, "input length mismatch");
        scratch.clear();
        scratch.extend_from_slice(values);
        let slots = scratch.as_mut_slice();
        if self.has_routes() {
            self.for_each_level(
                slots,
                |r, s| {
                    // `values` doubles as the routing buffer; it is fully
                    // rewritten by the output gather below.
                    values.copy_from_slice(s);
                    r.route(values, s);
                },
                |ops, s| {
                    for op in ops {
                        Self::apply_scalar(op, s);
                    }
                },
            );
        } else {
            for op in &self.ops {
                Self::apply_scalar(op, slots);
            }
        }
        for (w, v) in values.iter_mut().enumerate() {
            *v = slots[self.output_map[w] as usize];
        }
    }

    /// Allocating convenience wrapper over
    /// [`run_scalar_in_place`](Self::run_scalar_in_place).
    pub fn evaluate<T: Ord + Copy>(&self, input: &[T]) -> Vec<T> {
        let mut values = input.to_vec();
        self.run_scalar_in_place(&mut values, &mut Vec::new());
        values
    }

    /// Scalar evaluation reporting every comparator event, like
    /// [`ComparatorNetwork::evaluate_traced`]: the event carries the
    /// **source** level and element (from [`Origin`]), and `va`/`vb` are the
    /// values arriving on the source element's `a`/`b` wires — slot
    /// relabeling and `CmpRev` normalization are undone for reporting.
    ///
    /// Event order equals the interpreter's as long as the pipeline
    /// preserved program order (every pass except `Relayer` does; the
    /// canonical pipeline is order-preserving).
    pub fn run_traced<T: Ord + Copy, F: FnMut(CmpEvent<T>)>(
        &self,
        input: &[T],
        mut on_cmp: F,
    ) -> Vec<T> {
        assert_eq!(input.len(), self.n, "input length mismatch");
        let mut values = input.to_vec();
        let mut slots_buf = input.to_vec();
        let slots = slots_buf.as_mut_slice();
        let mut emit = |k: usize, s: &[T]| {
            let (op, origin) = (&self.ops[k], &self.origins[k]);
            if !op.is_comparator() {
                return;
            }
            // `NormalizeCmpRev` exchanges operands; detect whether this op's
            // operand order still matches the source element's.
            let swapped =
                (origin.element.kind == ElementKind::CmpRev) != (op.kind == ElementKind::CmpRev);
            let (va, vb) = if swapped {
                (s[op.b as usize], s[op.a as usize])
            } else {
                (s[op.a as usize], s[op.b as usize])
            };
            on_cmp(CmpEvent { level: origin.level as usize, element: origin.element, va, vb });
        };
        let mut start = 0usize;
        for lvl in 0..self.level_count {
            if let Some(r) = &self.routes[lvl as usize] {
                values.copy_from_slice(slots);
                r.route(&values, slots);
            }
            let end = start + self.level_of[start..].iter().take_while(|&&l| l == lvl).count();
            for k in start..end {
                emit(k, slots);
                Self::apply_scalar(&self.ops[k], slots);
            }
            start = end;
        }
        for (w, v) in values.iter_mut().enumerate() {
            *v = slots[self.output_map[w] as usize];
        }
        values
    }

    /// Applies op `k` to 64-lane 0-1 slot words (`min = AND`, `max = OR`).
    #[inline]
    fn apply_lanes(op: &Op, slots: &mut [u64]) {
        let (ia, ib) = (op.a as usize, op.b as usize);
        let (x, y) = (slots[ia], slots[ib]);
        match op.kind {
            ElementKind::Cmp => {
                slots[ia] = x & y;
                slots[ib] = x | y;
            }
            ElementKind::CmpRev => {
                slots[ia] = x | y;
                slots[ib] = x & y;
            }
            ElementKind::Pass => {}
            ElementKind::Swap => {
                slots[ia] = y;
                slots[ib] = x;
            }
        }
    }

    /// Replays the op list over 64-lane slot words without the output
    /// gather. `route_scratch` is only touched when routes are present.
    #[inline]
    pub fn run_block_01x64(&self, slots: &mut [u64], route_scratch: &mut Vec<u64>) {
        if self.has_routes() {
            self.for_each_level(
                slots,
                |r, s| {
                    route_scratch.clear();
                    route_scratch.extend_from_slice(s);
                    r.route(route_scratch, s);
                },
                |ops, s| {
                    for op in ops {
                        Self::apply_lanes(op, s);
                    }
                },
            );
        } else {
            for op in &self.ops {
                Self::apply_lanes(op, slots);
            }
        }
    }

    /// Replays ops `from..` of a route-free program over 64-lane slot
    /// words, without the output gather: the rest of the network after a
    /// prefix the caller has already applied.
    #[inline]
    pub(crate) fn run_suffix_01x64(&self, from: usize, slots: &mut [u64]) {
        debug_assert!(!self.has_routes(), "a routed program runs level by level");
        for op in &self.ops[from..] {
            Self::apply_lanes(op, slots);
        }
    }

    /// 64-lane 0-1 evaluation in place: `lanes[w]` carries bit `i` = the
    /// value of input `i` on wire `w`. Includes the output gather.
    pub fn run_01x64_in_place(&self, lanes: &mut [u64], scratch: &mut Vec<u64>) {
        assert_eq!(lanes.len(), self.n, "lane count mismatch");
        scratch.clear();
        scratch.extend_from_slice(lanes);
        let mut route_scratch = Vec::new();
        self.run_block_01x64(scratch, &mut route_scratch);
        for (w, lane) in lanes.iter_mut().enumerate() {
            *lane = scratch[self.output_map[w] as usize];
        }
    }

    /// Like [`run_block_01x64`](Self::run_block_01x64), but also
    /// accumulates, per op, a bitmask of the lanes on which the op *fired*
    /// (a comparator actually exchanged its inputs). `valid` masks out
    /// lanes that do not correspond to real inputs. Non-comparator ops
    /// never fire. Powers redundancy analysis.
    pub fn run_block_01x64_fired(
        &self,
        slots: &mut [u64],
        valid: u64,
        fired: &mut [u64],
        route_scratch: &mut Vec<u64>,
    ) {
        assert_eq!(slots.len(), self.n, "lane count mismatch");
        assert_eq!(fired.len(), self.ops.len(), "fired accumulator mismatch");
        let mut start = 0usize;
        for lvl in 0..self.level_count {
            if let Some(r) = &self.routes[lvl as usize] {
                route_scratch.clear();
                route_scratch.extend_from_slice(slots);
                r.route(route_scratch, slots);
            }
            let end = start + self.level_of[start..].iter().take_while(|&&l| l == lvl).count();
            for (op, f) in self.ops[start..end].iter().zip(&mut fired[start..end]) {
                let (x, y) = (slots[op.a as usize], slots[op.b as usize]);
                match op.kind {
                    // `Cmp` exchanges iff `a` holds 1 and `b` holds 0.
                    ElementKind::Cmp => *f |= (x & !y) & valid,
                    // `CmpRev` exchanges iff `a` holds 0 and `b` holds 1.
                    ElementKind::CmpRev => *f |= (!x & y) & valid,
                    ElementKind::Pass | ElementKind::Swap => {}
                }
                Self::apply_lanes(op, slots);
            }
            start = end;
        }
    }

    /// Packs the 64 consecutive inputs `base..base+64` (`base` must be
    /// 64-aligned) into slot words: slot `w` gets bit `w` of each input
    /// index. Wires below 6 use constant periodic masks; higher wires are
    /// constant across the block.
    pub fn pack_block(&self, base: u64, slots: &mut [u64]) {
        debug_assert_eq!(base % 64, 0, "blocks are lane-aligned");
        for (w, slot) in slots.iter_mut().enumerate() {
            *slot = if w < 6 {
                PERIODIC[w]
            } else if (base >> w) & 1 == 1 {
                u64::MAX
            } else {
                0
            };
        }
    }

    /// Bitmask of lanes whose *output* (slots read through the output
    /// gather) is unsorted — some 1 above a 0 in output wire order.
    pub fn unsorted_lanes_in_slots(&self, slots: &[u64]) -> u64 {
        let mut bad = 0u64;
        for w in 0..self.n.saturating_sub(1) {
            let hi = slots[self.output_map[w] as usize];
            let lo = slots[self.output_map[w + 1] as usize];
            bad |= hi & !lo;
        }
        bad
    }
}
