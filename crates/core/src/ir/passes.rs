//! The pass pipeline: composable, individually-testable rewrites of a
//! [`Program`].
//!
//! Every pass preserves the program's input→output mapping exactly (the
//! differential suite in `xtask-tests` checks this for *any* pass order
//! against the interpreter). Two standard pipelines exist:
//!
//! * [`PassManager::canonical`] — [`NormalizeCmpRev`], [`StripPassSwap`].
//!   These also preserve the comparator *sequence* (count and execution
//!   order), so traced replay through [`Program::run_traced`] reports the
//!   interpreter's exact event stream. This is what
//!   [`crate::ir::Executor::compile`] runs.
//! * [`PassManager::optimizing`] — canonical plus [`RedundantElim`] and
//!   [`Relayer`]. Behaviour-preserving but not sequence-preserving; used by
//!   optimization workflows (`snetctl passes`, redundancy experiments).
//!
//! Each [`PassManager::run`] returns one [`PassRecord`] per pass with
//! before/after metrics and wall-clock cost, which is what the
//! `ir_passes_*` baselines (the `baselines` bench binary) and the CLI
//! table report.

use super::program::{Op, Program};
use crate::element::ElementKind;

/// A semantics-preserving rewrite of a [`Program`].
pub trait Pass {
    /// Stable display name (used in [`PassRecord`], benches, and the CLI).
    fn name(&self) -> &'static str;
    /// Rewrites the program in place. Must preserve the input→output
    /// mapping for every input.
    fn run(&self, prog: &mut Program);
}

/// Metrics around one pass execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PassRecord {
    /// [`Pass::name`] of the executed pass.
    pub name: &'static str,
    /// Total op count before / after (comparators plus `Pass`/`Swap`).
    pub ops_before: usize,
    /// See `ops_before`.
    pub ops_after: usize,
    /// Comparator count (network *size*) before / after.
    pub size_before: usize,
    /// See `size_before`.
    pub size_after: usize,
    /// Level count before / after.
    pub depth_before: usize,
    /// See `depth_before`.
    pub depth_after: usize,
    /// Wall-clock cost of the pass in nanoseconds.
    pub nanos: u128,
}

impl PassRecord {
    /// Ops removed by this pass (never negative: passes only drop ops).
    pub fn ops_eliminated(&self) -> usize {
        self.ops_before.saturating_sub(self.ops_after)
    }
}

/// An ordered pipeline of passes.
pub struct PassManager {
    passes: Vec<Box<dyn Pass + Send + Sync>>,
}

impl PassManager {
    /// A pipeline that runs nothing: the lowering (its routes absorbed)
    /// is executed as it is, `CmpRev`, `Pass` and `Swap` included.
    pub fn empty() -> Self {
        PassManager { passes: Vec::new() }
    }

    /// The order- and comparator-preserving pipeline every [`Executor`]
    /// runs by default: normalize `CmpRev`, strip `Pass`/`Swap`.
    ///
    /// [`Executor`]: crate::ir::Executor
    pub fn canonical() -> Self {
        PassManager::empty().with(NormalizeCmpRev).with(StripPassSwap)
    }

    /// The canonical pipeline plus redundant-comparator elimination and
    /// greedy re-layering. Behaviour-preserving, but reorders and removes
    /// comparators, so traced replay no longer mirrors the interpreter.
    pub fn optimizing() -> Self {
        PassManager::canonical().with(RedundantElim::default()).with(Relayer)
    }

    /// Appends a pass to the pipeline.
    pub fn with<P: Pass + Send + Sync + 'static>(mut self, pass: P) -> Self {
        self.passes.push(Box::new(pass));
        self
    }

    /// Number of passes in the pipeline.
    pub fn len(&self) -> usize {
        self.passes.len()
    }

    /// True iff the pipeline runs no passes.
    pub fn is_empty(&self) -> bool {
        self.passes.is_empty()
    }

    /// Runs every pass in order, returning one record per pass.
    pub fn run(&self, prog: &mut Program) -> Vec<PassRecord> {
        self.passes
            .iter()
            .map(|pass| {
                let (ops_before, size_before, depth_before) =
                    (prog.op_count(), prog.size(), prog.depth());
                let mut span = snet_obs::span("ir.pass").attr("pass", pass.name());
                let t0 = std::time::Instant::now();
                pass.run(prog);
                let nanos = t0.elapsed().as_nanos();
                // Per-pass timing distribution in the metrics registry,
                // labeled by pass name (the span above carries the same
                // timing into the event stream).
                snet_obs::observe("ir.pass.ns", &[("pass", pass.name())], nanos as u64);
                debug_assert_eq!(prog.validate(), Ok(()), "pass {} broke the IR", pass.name());
                let rec = PassRecord {
                    name: pass.name(),
                    ops_before,
                    ops_after: prog.op_count(),
                    size_before,
                    size_after: prog.size(),
                    depth_before,
                    depth_after: prog.depth(),
                    nanos,
                };
                span.add_attr("ops_before", rec.ops_before);
                span.add_attr("ops_after", rec.ops_after);
                rec
            })
            .collect()
    }
}

impl std::fmt::Debug for PassManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let names: Vec<_> = self.passes.iter().map(|p| p.name()).collect();
        f.debug_struct("PassManager").field("passes", &names).finish()
    }
}

/// Rewrites every `CmpRev` op as `Cmp` with its operands exchanged
/// (`max → a, min → b` ≡ `min → b, max → a`), so downstream backends can
/// specialize on a homogeneous `Cmp` op list. Origins keep the source
/// element, letting traced replay undo the exchange when reporting.
#[derive(Debug, Clone, Copy, Default)]
pub struct NormalizeCmpRev;

impl Pass for NormalizeCmpRev {
    fn name(&self) -> &'static str {
        "normalize-cmprev"
    }

    fn run(&self, prog: &mut Program) {
        for op in &mut prog.ops {
            if op.kind == ElementKind::CmpRev {
                *op = Op { a: op.b, b: op.a, kind: ElementKind::Cmp };
            }
        }
    }
}

/// Drops every `Pass` op and absorbs every `Swap` op into a slot
/// relabeling (an unconditional exchange is a compile-time renaming). The
/// final relabeling folds into `output_map`.
#[derive(Debug, Clone, Copy, Default)]
pub struct StripPassSwap;

impl Pass for StripPassSwap {
    fn name(&self) -> &'static str {
        "strip-pass-swap"
    }

    fn run(&self, prog: &mut Program) {
        // phi[s] = slot of the rewritten program holding slot s's value.
        let mut phi: Vec<u32> = (0..prog.n as u32).collect();
        let mut keep = vec![false; prog.ops.len()];
        for (op, kept) in prog.ops.iter_mut().zip(&mut keep) {
            match op.kind {
                ElementKind::Pass => {}
                ElementKind::Swap => phi.swap(op.a as usize, op.b as usize),
                ElementKind::Cmp | ElementKind::CmpRev => {
                    *op = Op { a: phi[op.a as usize], b: phi[op.b as usize], kind: op.kind };
                    *kept = true;
                }
            }
        }
        for m in &mut prog.output_map {
            *m = phi[*m as usize];
        }
        prog.retain_ops(&keep);
    }
}

/// Returns, for each op, the bitmask union over **all** `2ⁿ` 0-1 inputs of
/// the lanes on which the op fired (actually exchanged its values).
/// A comparator with mask 0 never exchanges on any 0-1 input, hence — by
/// the monotone threshold argument behind the 0-1 principle — on no input
/// at all. Exhaustive: caller is responsible for keeping `n` sane.
pub fn exhaustive_fired_masks(prog: &Program) -> Vec<u64> {
    let n = prog.wires();
    assert!(n <= 26, "fired analysis is exhaustive over 2^n inputs (n={n})");
    let total: u64 = 1u64 << n;
    let mut fired = vec![0u64; prog.op_count()];
    let mut slots = vec![0u64; n];
    let mut base = 0u64;
    while base < total {
        let valid: u64 = if total - base >= 64 { u64::MAX } else { (1u64 << (total - base)) - 1 };
        prog.pack_block(base, &mut slots);
        prog.run_block_01x64_fired(&mut slots, valid, &mut fired);
        base += 64;
    }
    fired
}

/// Removes comparators that provably never exchange their inputs:
///
/// * **structurally** — a comparator identical to the previous op that
///   touched both of its slots can never fire (the pair is already
///   ordered); works at any `n`;
/// * **exhaustively** — when `n ≤ exhaustive_limit`, every comparator
///   whose [`exhaustive_fired_masks`] entry is 0 is removed. This subsumes
///   the structural rule and is exact (never removes a load-bearing
///   comparator); by the 0-1 principle it is sound for arbitrary inputs.
///
/// `Pass`/`Swap` ops are left alone (run [`StripPassSwap`] for those).
#[derive(Debug, Clone, Copy)]
pub struct RedundantElim {
    /// Run the exhaustive `2ⁿ` analysis when `wires() <= exhaustive_limit`;
    /// above it only the structural rule applies.
    pub exhaustive_limit: usize,
}

impl Default for RedundantElim {
    /// The default limit (16) keeps optimizing compiles sub-millisecond;
    /// [`crate::optimize::redundant_comparators`] opts into the analysis
    /// cap of 26.
    fn default() -> Self {
        RedundantElim { exhaustive_limit: 16 }
    }
}

impl Pass for RedundantElim {
    fn name(&self) -> &'static str {
        "redundant-elim"
    }

    fn run(&self, prog: &mut Program) {
        let n = prog.n;
        let mut keep = vec![true; prog.op_count()];
        if n <= self.exhaustive_limit {
            for ((&mask, op), kept) in
                exhaustive_fired_masks(prog).iter().zip(&prog.ops).zip(&mut keep)
            {
                *kept = mask != 0 || !op.is_comparator();
            }
        } else {
            // last[s] = index of the last surviving op touching slot s.
            let mut last: Vec<Option<usize>> = vec![None; n];
            for (k, (&op, kept)) in prog.ops.iter().zip(&mut keep).enumerate() {
                let (ia, ib) = (op.a as usize, op.b as usize);
                if op.is_comparator()
                    && last[ia].is_some()
                    && last[ia] == last[ib]
                    && prog.ops[last[ia].expect("checked")] == op
                {
                    *kept = false;
                    continue;
                }
                last[ia] = Some(k);
                last[ib] = Some(k);
            }
        }
        prog.retain_ops(&keep);
    }
}

/// Greedily re-packs ops into minimal-depth levels (ASAP scheduling): each
/// op lands at `max(earliest[a], earliest[b])`. Ops assigned the same
/// level are automatically slot-disjoint, and relative order within every
/// slot's dependency chain is preserved, so the rewrite is
/// behaviour-preserving; depth never increases on a valid program.
#[derive(Debug, Clone, Copy, Default)]
pub struct Relayer;

impl Pass for Relayer {
    fn name(&self) -> &'static str {
        "relayer"
    }

    fn run(&self, prog: &mut Program) {
        let n = prog.n;
        if prog.ops.is_empty() {
            prog.level_of.clear();
            prog.level_count = 0;
            return;
        }
        let mut earliest = vec![0u32; n];
        let mut new_level = vec![0u32; prog.ops.len()];
        let mut max_level = 0u32;
        for (k, op) in prog.ops.iter().enumerate() {
            let lvl = earliest[op.a as usize].max(earliest[op.b as usize]);
            new_level[k] = lvl;
            earliest[op.a as usize] = lvl + 1;
            earliest[op.b as usize] = lvl + 1;
            max_level = max_level.max(lvl);
        }
        let level_count = max_level + 1;
        // Stable counting sort by new level: same-level ops are
        // slot-disjoint, and cross-level order respects every dependency.
        let mut counts = vec![0usize; level_count as usize + 1];
        for &lvl in &new_level {
            counts[lvl as usize + 1] += 1;
        }
        for i in 1..counts.len() {
            counts[i] += counts[i - 1];
        }
        let mut ops = vec![prog.ops[0]; prog.ops.len()];
        let mut origins = vec![prog.origins[0]; prog.origins.len()];
        let mut level_of = vec![0u32; prog.ops.len()];
        for (k, &lvl) in new_level.iter().enumerate() {
            let slot = counts[lvl as usize];
            counts[lvl as usize] += 1;
            ops[slot] = prog.ops[k];
            origins[slot] = prog.origins[k];
            level_of[slot] = lvl;
        }
        prog.ops = ops;
        prog.origins = origins;
        prog.level_of = level_of;
        prog.level_count = level_count;
    }
}
