//! The compiled intermediate representation: a flat [`Program`] of two-slot
//! ops grouped into levels, with provenance and wire-relabeling metadata.
//!
//! A `Program` lowers either Section 1 model — the leveled circuit model
//! ([`Program::from_network`]) or the register model
//! ([`Program::from_register`]) — into one uniform data structure:
//!
//! * a flat op list in execution order (`(a, b, kind)` over physical
//!   *slots*),
//! * a parallel, nondecreasing level assignment (`level_of`),
//! * a final `output_map` gather realizing the relabeling that absorbed
//!   routes and later passes accumulated, and
//! * an [`Origin`] per op recording the source `(level, element index)` and
//!   the original [`Element`] — this is what redundancy analysis and traced
//!   execution map results back through.
//!
//! A route only renames which slot holds which wire and moves no data
//! (the paper's Section 1 shows the register model `(Π_i, x̄_i)`
//! equivalent to the circuit model), so lowering absorbs every route into
//! the slot numbering and no program carries one: every runner is one
//! loop over the ops. The lowered program replays the source network
//! exactly; the pass pipeline in [`crate::ir::passes`] then rewrites it
//! (normalizing `CmpRev`, stripping `Pass`/`Swap`, eliminating provably
//! inert comparators, re-layering) while preserving the input→output
//! mapping. All backends in [`crate::ir::exec`] replay this one
//! representation.

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
/// * every slot index is `< n` and each op has `a != b`;
/// * `output_map` is a permutation of `0..n`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Program {
    pub(crate) n: usize,
    pub(crate) ops: Vec<Op>,
    pub(crate) origins: Vec<Origin>,
    pub(crate) level_of: Vec<u32>,
    pub(crate) level_count: u32,
    pub(crate) output_map: Vec<u32>,
}

impl Program {
    /// Lowers a circuit-model network: one IR level per network level,
    /// every element (including `Pass`/`Swap`) becoming one op. Each route
    /// is absorbed as it is met: the ops after it are renumbered through
    /// the wire→slot map it leaves, and the final map is the `output_map`.
    pub fn from_network(net: &ComparatorNetwork) -> Self {
        let _span = snet_obs::span("ir.lower")
            .attr("model", "circuit")
            .attr("wires", net.wires())
            .attr("size", net.size());
        let levels = net.levels().iter().map(|l| (l.route.as_ref(), l.elements.iter().copied()));
        Self::lower(net.wires(), net.size(), levels)
    }

    /// Lowers a register-model network through the **same** IR: stage `i`
    /// becomes level `i`, its route `Π_i` absorbed like a circuit route,
    /// and op `k` acts on registers `(2k, 2k+1)`. Both Section 1 models
    /// thus share one execution path.
    pub fn from_register(reg: &RegisterNetwork) -> Self {
        let _span = snet_obs::span("ir.lower")
            .attr("model", "register")
            .attr("wires", reg.registers())
            .attr("size", reg.size());
        let levels = reg.stages().iter().map(|stage| {
            let ops = stage.ops.iter().enumerate();
            let elements =
                ops.map(|(k, &kind)| Element { a: 2 * k as u32, b: 2 * k as u32 + 1, kind });
            (Some(&stage.perm), elements)
        });
        Self::lower(reg.registers(), reg.size(), levels)
    }

    /// Lowers `levels`, each an optional route followed by elements on
    /// wires, absorbing every route as it is met. `phys[w]` is the slot
    /// holding the value the source network has on wire `w`: routing by
    /// `p` moves wire `s`'s value to wire `p(s)`, so it renames
    /// `phys[p(s)] = phys[s]` and moves nothing.
    fn lower<'a, E: Iterator<Item = Element>>(
        n: usize,
        size: usize,
        levels: impl Iterator<Item = (Option<&'a Permutation>, E)>,
    ) -> Self {
        let mut ops = Vec::with_capacity(size);
        let mut origins = Vec::with_capacity(size);
        let mut level_of = Vec::with_capacity(size);
        let mut phys: Vec<u32> = (0..n as u32).collect();
        let mut scratch = vec![0u32; n];
        let mut level_count = 0u32;
        for (route, elements) in levels {
            if let Some(route) = route {
                scratch.copy_from_slice(&phys);
                route.route(&scratch, &mut phys);
            }
            for (index, element) in elements.enumerate() {
                let (a, b) = (phys[element.a as usize], phys[element.b as usize]);
                ops.push(Op { a, b, kind: element.kind });
                origins.push(Origin { level: level_count, index: index as u32, element });
                level_of.push(level_count);
            }
            level_count += 1;
        }
        Program { n, ops, origins, level_of, level_count, output_map: phys }
    }

    /// Raises the program back to a leveled circuit: ops grouped by level,
    /// plus — when the slot numbering differs from the wire numbering —
    /// one final routing-only level realizing the output gather. The
    /// result replays the program's input→output mapping exactly, and
    /// only that last level routes, so structural analyses that reject
    /// routes (e.g. `recognize`) take the rest as it is.
    pub fn to_network(&self) -> ComparatorNetwork {
        let mut levels: Vec<crate::network::Level> =
            (0..self.level_count).map(|_| crate::network::Level::of_elements(Vec::new())).collect();
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

    /// Checks the structural invariants; returns a description of the first
    /// violation. Used by the pass differential tests.
    pub fn validate(&self) -> Result<(), String> {
        if self.ops.len() != self.origins.len() || self.ops.len() != self.level_of.len() {
            return Err("parallel arrays disagree in length".into());
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

    /// Keeps op `k`, with its origin and level, iff `keep[k]`.
    pub(crate) fn retain_ops(&mut self, keep: &[bool]) {
        let flags = || keep.iter().copied();
        let (mut ops, mut origins, mut levels) = (flags(), flags(), flags());
        self.ops.retain(|_| ops.next() == Some(true));
        self.origins.retain(|_| origins.next() == Some(true));
        self.level_of.retain(|_| levels.next() == Some(true));
    }

    // ------------------------------------------------------------------
    // Backends: each replays the op list in order, then reads outputs
    // through `output_map`.
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

    /// Evaluates in place: `values` is the input on entry and the output on
    /// exit, exactly like [`ComparatorNetwork::evaluate_in_place`].
    /// `scratch` is reused across calls to avoid allocation.
    pub fn run_scalar_in_place<T: Ord + Copy>(&self, values: &mut [T], scratch: &mut Vec<T>) {
        assert_eq!(values.len(), self.n, "input length mismatch");
        scratch.clear();
        scratch.extend_from_slice(values);
        let slots = scratch.as_mut_slice();
        for op in &self.ops {
            Self::apply_scalar(op, slots);
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
        let mut slots = input.to_vec();
        for (op, origin) in self.ops.iter().zip(&self.origins) {
            if op.is_comparator() {
                // `NormalizeCmpRev` exchanges operands; detect whether this
                // op's operand order still matches the source element's.
                let swapped = (origin.element.kind == ElementKind::CmpRev)
                    != (op.kind == ElementKind::CmpRev);
                let (va, vb) = if swapped {
                    (slots[op.b as usize], slots[op.a as usize])
                } else {
                    (slots[op.a as usize], slots[op.b as usize])
                };
                on_cmp(CmpEvent { level: origin.level as usize, element: origin.element, va, vb });
            }
            Self::apply_scalar(op, &mut slots);
        }
        self.output_map.iter().map(|&s| slots[s as usize]).collect()
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
    /// gather.
    #[inline]
    pub fn run_block_01x64(&self, slots: &mut [u64]) {
        for op in &self.ops {
            Self::apply_lanes(op, slots);
        }
    }

    /// Replays ops `from..` over 64-lane slot words, without the output
    /// gather: the rest of the network after a prefix the caller has
    /// already applied.
    #[inline]
    pub(crate) fn run_suffix_01x64(&self, from: usize, slots: &mut [u64]) {
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
        self.run_block_01x64(scratch);
        for (w, lane) in lanes.iter_mut().enumerate() {
            *lane = scratch[self.output_map[w] as usize];
        }
    }

    /// Like [`run_block_01x64`](Self::run_block_01x64), but also
    /// accumulates, per op, a bitmask of the lanes on which the op *fired*
    /// (a comparator actually exchanged its inputs). `valid` masks out
    /// lanes that do not correspond to real inputs. Non-comparator ops
    /// never fire. Powers redundancy analysis.
    pub fn run_block_01x64_fired(&self, slots: &mut [u64], valid: u64, fired: &mut [u64]) {
        assert_eq!(slots.len(), self.n, "lane count mismatch");
        assert_eq!(fired.len(), self.ops.len(), "fired accumulator mismatch");
        for (op, f) in self.ops.iter().zip(fired) {
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
