//! The [`Executor`]: one compiled entry point over every evaluation
//! backend — scalar, traced, 64-lane 0-1, sharded exhaustive verification,
//! and batched/parallel map-reduce.
//!
//! An `Executor` owns a [`Program`] that has been run through a
//! [`PassManager`] (the canonical pipeline by default) plus the per-pass
//! [`PassRecord`]s from compilation. It is immutable and `Sync`, so one
//! compile is shared across worker threads.

use super::image::FirstLevelImage;
use super::passes::{PassManager, PassRecord};
use super::program::Program;
use crate::element::Element;
use crate::network::{CmpEvent, ComparatorNetwork};
use crate::register::RegisterNetwork;
use crate::sortcheck::SortCheck;
use crate::zeroone::ZeroOneSet;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Parses an `SNET_THREADS`-style override. Only a trimmed positive
/// integer is accepted: `None`, empty, non-numeric, and `0` all yield
/// `None`, so a malformed override can never produce a zero-worker
/// engine — callers fall back to the machine's parallelism instead.
pub fn parse_engine_threads(var: Option<&str>) -> Option<usize> {
    var?.trim().parse::<usize>().ok().filter(|&t| t >= 1)
}

/// Worker count for the sharded checker and batched runners when the
/// caller does not specify one: the `SNET_THREADS` environment variable if
/// set to a positive integer (see [`parse_engine_threads`]), else
/// [`std::thread::available_parallelism`].
pub fn default_engine_threads() -> usize {
    parse_engine_threads(std::env::var("SNET_THREADS").ok().as_deref())
        .unwrap_or_else(|| std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1))
}

/// Shared progress state for one exhaustive check: a running total the
/// workers add covered-input counts to, published as the `check.inputs`
/// counter and, when a sink is installed, the `check.zero_one.progress`
/// gauge (its `done`, `total`, `per_sec` and `eta_s` attributes feed
/// `snetctl --progress`).
struct ProgressTracker {
    done: Mutex<u64>,
    total: u64,
    t0: Instant,
}

impl ProgressTracker {
    fn new(total: u64) -> ProgressTracker {
        ProgressTracker { done: Mutex::new(0), total, t0: Instant::now() }
    }

    /// Credits `covered` inputs and publishes a snapshot. Publishing under
    /// the lock keeps `done` monotone across workers.
    fn record(&self, covered: u64) {
        let mut done = self.done.lock().expect("a progress publisher panicked");
        *done += covered;
        snet_obs::counter("check.inputs", covered);
        if snet_obs::enabled() {
            let done = (*done).min(self.total);
            let secs = self.t0.elapsed().as_secs_f64();
            let per_sec = if secs > 0.0 { done as f64 / secs } else { 0.0 };
            let mut attrs = vec![
                ("done".to_string(), done.to_string()),
                ("total".to_string(), self.total.to_string()),
                ("per_sec".to_string(), format!("{per_sec:.0}")),
            ];
            if per_sec > 0.0 {
                let eta = (self.total - done) as f64 / per_sec;
                attrs.push(("eta_s".to_string(), format!("{eta:.1}")));
            }
            snet_obs::gauge_with("check.zero_one.progress", done as f64 / self.total as f64, attrs);
        }
    }
}

/// The exhaustive check's prefix: inputs `0..IMAGE_PREFIX` are scanned
/// before the first level's image is checked, and only checks over more
/// inputs take the image path. A non-sorting network with many failing
/// inputs ends inside the prefix.
const IMAGE_PREFIX: u64 = 1 << 16;

/// Runs `work` over claims that partition `0..units`, taken in increasing
/// order from one cursor. One worker runs inline, in at most 256 claims of
/// at least 256 units so progress stays coarse. More run on scoped
/// threads, about 8 claims each so stragglers rebalance, each claim in a
/// `check.shard` span under `check`. A worker stops when `work` returns
/// false; `scratch` makes its reusable state.
fn for_each_claim<S>(
    units: u64,
    threads: usize,
    check: u64,
    phase: &'static str,
    scratch: impl Fn() -> S + Sync,
    work: impl Fn(&mut S, Range<u64>) -> bool + Sync,
) {
    let claim = if threads == 1 {
        units.div_ceil(256).max(256)
    } else {
        units.div_ceil(8 * threads as u64)
    };
    let cursor = AtomicU64::new(0);
    let worker = || {
        let mut s = scratch();
        loop {
            let k = cursor.fetch_add(1, Ordering::Relaxed);
            let start = k * claim;
            if start >= units {
                break;
            }
            let _span = (threads > 1).then(|| {
                snet_obs::span_under("check.shard", check).attr("shard", k).attr("phase", phase)
            });
            if !work(&mut s, start..(start + claim).min(units)) {
                break;
            }
        }
    };
    if threads == 1 {
        worker();
    } else {
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(worker);
            }
        });
    }
}

/// A network compiled through the IR pass pipeline, exposing every
/// evaluation backend behind one type. See the [module docs](self).
#[derive(Debug, Clone)]
pub struct Executor {
    program: Program,
    records: Vec<PassRecord>,
}

impl Executor {
    /// Compiles a circuit-model network: lowering absorbs its routes, then
    /// the canonical pipeline normalizes `CmpRev` and eliminates
    /// `Pass`/`Swap`. The result replays the network exactly, including
    /// traced event order.
    pub fn compile(net: &ComparatorNetwork) -> Self {
        Self::compile_with(net, &PassManager::canonical())
    }

    /// Compiles through an explicit pipeline.
    pub fn compile_with(net: &ComparatorNetwork, pm: &PassManager) -> Self {
        let mut span = snet_obs::span("ir.compile")
            .attr("wires", net.wires())
            .attr("size", net.size())
            .attr("passes", pm.len());
        let exec = Self::from_program(Program::from_network(net), pm);
        span.add_attr("ops", exec.op_count());
        exec
    }

    /// Compiles a register-model network through the canonical pipeline —
    /// both Section 1 models execute through the same IR.
    pub fn compile_register(reg: &RegisterNetwork) -> Self {
        let pm = PassManager::canonical();
        let mut span = snet_obs::span("ir.compile")
            .attr("wires", reg.registers())
            .attr("size", reg.size())
            .attr("passes", pm.len());
        let exec = Self::from_program(Program::from_register(reg), &pm);
        span.add_attr("ops", exec.op_count());
        exec
    }

    /// Runs `pm` over an already-lowered program.
    pub fn from_program(mut program: Program, pm: &PassManager) -> Self {
        let records = pm.run(&mut program);
        Executor { program, records }
    }

    /// A program the passes that made `records` already ran over.
    pub(super) fn from_parts(program: Program, records: Vec<PassRecord>) -> Self {
        Executor { program, records }
    }

    /// The compiled program.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// Per-pass compilation metrics, in pipeline order.
    pub fn pass_records(&self) -> &[PassRecord] {
        &self.records
    }

    /// Number of wires.
    #[inline]
    pub fn wires(&self) -> usize {
        self.program.wires()
    }

    /// Number of ops surviving compilation.
    #[inline]
    pub fn op_count(&self) -> usize {
        self.program.op_count()
    }

    // ------------------------------------------------------------------
    // Scalar backend.
    // ------------------------------------------------------------------

    /// Evaluates in place: `values` is the input on entry and the output
    /// on exit, exactly like [`ComparatorNetwork::evaluate_in_place`].
    /// `scratch` is reused across calls to avoid allocation.
    pub fn run_scalar_in_place<T: Ord + Copy>(&self, values: &mut [T], scratch: &mut Vec<T>) {
        self.program.run_scalar_in_place(values, scratch);
    }

    /// Evaluates the network on an input slice, returning the output.
    pub fn evaluate<T: Ord + Copy>(&self, input: &[T]) -> Vec<T> {
        self.program.evaluate(input)
    }

    /// Evaluates while reporting every comparator event in source-network
    /// coordinates, like [`ComparatorNetwork::evaluate_traced`]. Event
    /// order matches the interpreter's exactly under the canonical
    /// pipeline (optimizing pipelines reorder and drop comparators).
    pub fn evaluate_traced<T: Ord + Copy, F: FnMut(CmpEvent<T>)>(
        &self,
        input: &[T],
        on_cmp: F,
    ) -> Vec<T> {
        self.program.run_traced(input, on_cmp)
    }

    // ------------------------------------------------------------------
    // 64-lane 0-1 backend.
    // ------------------------------------------------------------------

    /// 64-lane 0-1 evaluation in place: `lanes[w]` carries bit `i` = the
    /// value of input `i` on wire `w`.
    pub fn run_01x64_in_place(&self, lanes: &mut [u64], scratch: &mut Vec<u64>) {
        self.program.run_01x64_in_place(lanes, scratch);
    }

    /// Replays the op list over 64-lane slot words without the output
    /// gather (read results through
    /// [`unsorted_lanes_in_slots`](Self::unsorted_lanes_in_slots), which
    /// applies the gather implicitly).
    #[inline]
    pub fn run_block_01x64(&self, slots: &mut [u64]) {
        self.program.run_block_01x64(slots);
    }

    /// Like [`run_block_01x64`](Self::run_block_01x64), but also
    /// accumulates, per op, a bitmask of the lanes on which the op fired.
    /// `valid` masks out lanes not corresponding to real inputs.
    pub fn run_01x64_fired(&self, slots: &mut [u64], valid: u64, fired: &mut [u64]) {
        self.program.run_block_01x64_fired(slots, valid, fired);
    }

    /// Packs the 64 consecutive inputs `base..base+64` into slot words;
    /// see [`Program::pack_block`].
    pub fn pack_block(&self, base: u64, slots: &mut [u64]) {
        self.program.pack_block(base, slots);
    }

    /// Bitmask of lanes whose output is unsorted; see
    /// [`Program::unsorted_lanes_in_slots`].
    pub fn unsorted_lanes_in_slots(&self, slots: &[u64]) -> u64 {
        self.program.unsorted_lanes_in_slots(slots)
    }

    // ------------------------------------------------------------------
    // Reachable-set 0-1 backend (the depth-search state abstraction).
    // ------------------------------------------------------------------

    /// Pushes a reachable 0-1 set through program levels
    /// `levels.start..levels.end`, in slot coordinates — the final output
    /// gather excluded. This is the incremental per-layer entry point the
    /// depth-search engine drives: seed with [`ZeroOneSet::full`], apply a
    /// level at a time, and test [`ZeroOneSet::is_sorted_only`].
    ///
    /// `scratch` must match `set` in wire count; both are rewritten.
    pub fn apply_levels_01_set(
        &self,
        levels: std::ops::Range<usize>,
        set: &mut ZeroOneSet,
        scratch: &mut ZeroOneSet,
    ) {
        let p = &self.program;
        assert!(levels.end <= p.depth(), "level range out of bounds");
        assert_eq!(set.wires(), p.wires(), "set wire count mismatch");
        assert_eq!(scratch.wires(), p.wires(), "scratch wire count mismatch");
        let level_of = p.level_of();
        let mut start = level_of.partition_point(|&l| (l as usize) < levels.start);
        for lvl in levels {
            let end = start + level_of[start..].iter().take_while(|&&l| l as usize == lvl).count();
            let ops = &p.ops()[start..end];
            if !ops.is_empty() {
                // Ops within a level touch disjoint slots, so applying them
                // jointly per member index is exact.
                let elements: Vec<Element> =
                    ops.iter().map(|op| Element { a: op.a, b: op.b, kind: op.kind }).collect();
                set.apply_elements_into(&elements, scratch);
                std::mem::swap(set, scratch);
            }
            start = end;
        }
    }

    /// The network's full reachable 0-1 output set: the image of the
    /// `2^n` cube under the whole program (all levels plus the output
    /// gather). A network sorts iff this is exactly the sorted set — the
    /// set-level restatement of the 0-1 principle, differentially tested
    /// against the lane scan.
    pub fn reachable_01_set(&self) -> ZeroOneSet {
        let n = self.wires();
        let mut set = ZeroOneSet::full(n);
        let mut scratch = ZeroOneSet::empty(n);
        self.apply_levels_01_set(0..self.program.depth(), &mut set, &mut scratch);
        set.apply_output_map_into(self.program.output_map(), &mut scratch);
        scratch
    }

    /// Scans inputs `[from, to)` (both 64-aligned except `to == total`)
    /// for the lowest unsorted input, using `slots` as reusable lane
    /// storage. Skips blocks that cannot beat `ceiling` (an already-known
    /// failing index).
    fn scan_range(
        &self,
        from: u64,
        to: u64,
        total: u64,
        ceiling: &AtomicU64,
        slots: &mut [u64],
    ) -> Option<u64> {
        let mut base = from;
        while base < to {
            if base >= ceiling.load(Ordering::Acquire) {
                // Any failure here has index >= base >= the known failing
                // index, so it cannot lower the minimum.
                return None;
            }
            self.program.pack_block(base, slots);
            self.program.run_block_01x64(slots);
            let valid: u64 =
                if total - base >= 64 { u64::MAX } else { (1u64 << (total - base)) - 1 };
            let bad = self.program.unsorted_lanes_in_slots(slots) & valid;
            if bad != 0 {
                // Lowest lane in this block is the lowest in the whole
                // remaining range, since blocks are scanned in order.
                return Some(base + bad.trailing_zeros() as u64);
            }
            base += 64;
        }
        None
    }

    /// The lowest 0-1 input index the network fails to sort, scanning
    /// sequentially over all `2ⁿ` inputs (64 per pass). `None` means the
    /// network sorts. This is the full-scan reference the differential
    /// tests hold [`check_zero_one`](Self::check_zero_one) and its image
    /// path to; checkers call `check_zero_one`.
    pub fn first_unsorted_01(&self) -> Option<u64> {
        let n = self.wires();
        assert!(n <= 32, "exhaustive check caps at n = 32");
        let total: u64 = 1u64 << n;
        let mut slots = vec![0u64; n];
        self.scan_range(0, total, total, &AtomicU64::new(u64::MAX), &mut slots)
    }

    /// Counts the 0-1 inputs the network fails to sort, exhaustively.
    pub fn count_unsorted_01(&self) -> u64 {
        let n = self.wires();
        assert!(n <= 26, "exhaustive over 2^n inputs");
        let total: u64 = 1u64 << n;
        let mut slots = vec![0u64; n];
        let mut count = 0u64;
        let mut base = 0u64;
        while base < total {
            self.program.pack_block(base, &mut slots);
            self.program.run_block_01x64(&mut slots);
            let valid: u64 =
                if total - base >= 64 { u64::MAX } else { (1u64 << (total - base)) - 1 };
            count += (self.program.unsorted_lanes_in_slots(&slots) & valid).count_ones() as u64;
            base += 64;
        }
        count
    }

    // ------------------------------------------------------------------
    // Sharded exhaustive verification.
    // ------------------------------------------------------------------

    /// Exhaustive 0-1 sorting check over all `2ⁿ` inputs, sharded across
    /// `threads` workers. Deterministic: the reported counterexample is
    /// always the **lowest** failing input index regardless of thread
    /// interleaving, and a sorting network gets `AllSorted { tested: 2ⁿ }`.
    /// [`crate::sortcheck::check_zero_one_exhaustive`] is this with one
    /// thread. Panics if `n > 30`.
    ///
    /// A program over more than `2¹⁶` inputs that starts with comparators
    /// is checked on its first level's image: the rest of the program runs
    /// on the `3^p · 2^(n−2p)` vectors `p` leading disjoint comparators can
    /// output, which by the 0-1 principle covers every input. Inputs
    /// `0..2¹⁶` are scanned first; if some image vector comes out unsorted,
    /// the scan resumes at `2¹⁶`, so the counterexample is still the
    /// lowest failing index. Other programs are scanned in full.
    ///
    /// Progress is published as obs events when a sink is installed: the
    /// `check.inputs` counter, the `check.zero_one.progress` gauge, and
    /// one `check.shard` span per claim when sharded. The image path
    /// credits the `2ⁿ − 2¹⁶` inputs the prefix scan leaves in proportion
    /// to the image blocks checked, so a sorting check's progress ends at
    /// exactly `2ⁿ`; a resumed scan credits the inputs it scans again.
    pub fn check_zero_one(&self, threads: usize) -> SortCheck {
        let n = self.wires();
        assert!(n <= 30, "exhaustive 0-1 check limited to n <= 30 (got {n})");
        let total: u64 = 1u64 << n;
        let threads = threads.max(1);
        let mut span = snet_obs::span("check.zero_one")
            .attr("wires", n)
            .attr("total", total)
            .attr("threads", threads);
        let image = if total > IMAGE_PREFIX { FirstLevelImage::of(&self.program) } else { None };
        if let Some(image) = &image {
            span.add_attr("image", image.size());
            span.add_attr("lanes", image.lanes());
        }
        let check = span.id();
        let progress = ProgressTracker::new(total);
        let scan = |from, to| self.scan(from, to, threads, &progress, check);
        let found = match &image {
            None => scan(0, total),
            Some(image) => scan(0, IMAGE_PREFIX).or_else(|| {
                if self.image_sorts(image, threads, &progress, check) {
                    None
                } else {
                    scan(IMAGE_PREFIX, total)
                }
            }),
        };
        span.add_attr("sorted", found.is_none());
        match found {
            None => SortCheck::AllSorted { tested: total },
            Some(idx) => self.counterexample_at(idx),
        }
    }

    /// The lowest unsorted input in `from..to`. Ranges of at most
    /// `IMAGE_PREFIX` inputs are scanned inline, which keeps thread
    /// spawn/join away from sub-millisecond scans.
    fn scan(
        &self,
        from: u64,
        to: u64,
        threads: usize,
        progress: &ProgressTracker,
        check: u64,
    ) -> Option<u64> {
        let n = self.wires();
        let total = 1u64 << n;
        let threads = if to - from <= IMAGE_PREFIX { 1 } else { threads };
        let best = AtomicU64::new(u64::MAX);
        for_each_claim(
            (to - from).div_ceil(64),
            threads,
            check,
            "scan",
            || vec![0u64; n],
            |slots, blocks| {
                let lo = from + 64 * blocks.start;
                if lo >= best.load(Ordering::Acquire) {
                    // Every later claim starts even later; nothing below
                    // the known minimum is left.
                    return false;
                }
                let hi = (from + 64 * blocks.end).min(to);
                match self.scan_range(lo, hi, total, &best, slots) {
                    Some(idx) => {
                        best.fetch_min(idx, Ordering::AcqRel);
                        progress.record(idx + 1 - lo);
                        false
                    }
                    None => {
                        progress.record(hi - lo);
                        true
                    }
                }
            },
        );
        match best.load(Ordering::Acquire) {
            u64::MAX => None,
            idx => Some(idx),
        }
    }

    /// True iff the rest of the program sorts every vector of the first
    /// level's image. Each claim of image blocks credits its share of the
    /// inputs the prefix scan left.
    fn image_sorts(
        &self,
        image: &FirstLevelImage,
        threads: usize,
        progress: &ProgressTracker,
        check: u64,
    ) -> bool {
        let rest = (1u64 << self.wires()) - IMAGE_PREFIX;
        let blocks = image.blocks();
        let share = |b: u64| rest * b / blocks;
        let failed = AtomicBool::new(false);
        for_each_claim(
            blocks,
            threads,
            check,
            "image",
            || image.scratch(),
            |s, claim| {
                if !image.sorts_blocks(&self.program, claim.clone(), &failed, s) {
                    failed.store(true, Ordering::Relaxed);
                }
                if failed.load(Ordering::Relaxed) {
                    return false;
                }
                progress.record(share(claim.end) - share(claim.start));
                true
            },
        );
        !failed.load(Ordering::Relaxed)
    }

    /// Rebuilds the [`SortCheck::Counterexample`] for input index `idx` by
    /// re-evaluating (passes are semantics-preserving, so the output is
    /// bit-identical to the interpreter's).
    fn counterexample_at(&self, idx: u64) -> SortCheck {
        let n = self.wires();
        let input: Vec<u32> = (0..n).map(|w| ((idx >> w) & 1) as u32).collect();
        let output = self.evaluate(&input);
        SortCheck::Counterexample { input, output }
    }

    // ------------------------------------------------------------------
    // Batched / parallel evaluation.
    // ------------------------------------------------------------------

    /// Evaluates every row of `inputs` sequentially, reusing one scratch
    /// buffer.
    pub fn evaluate_batch<T: Ord + Copy>(&self, inputs: &[Vec<T>]) -> Vec<Vec<T>> {
        let mut scratch: Vec<T> = Vec::with_capacity(self.wires());
        inputs
            .iter()
            .map(|input| {
                let mut v = input.clone();
                self.run_scalar_in_place(&mut v, &mut scratch);
                v
            })
            .collect()
    }

    /// Applies `f` to the output on every input, folding per-thread
    /// partial results with `fold`. Deterministic: chunk boundaries are
    /// fixed by `threads`, and partials are returned in chunk order.
    pub fn map_reduce_outputs<T, A, F, M>(
        &self,
        inputs: &[Vec<T>],
        threads: usize,
        f: F,
        fold: M,
    ) -> Vec<A>
    where
        T: Ord + Copy + Send + Sync,
        A: Default + Send,
        F: Fn(usize, &[T]) -> A + Sync,
        M: Fn(A, A) -> A + Sync,
    {
        assert!(threads >= 1);
        let threads = threads.min(inputs.len().max(1));
        let chunk = inputs.len().div_ceil(threads.max(1)).max(1);
        std::thread::scope(|s| {
            let mut handles = Vec::new();
            for (ci, slice) in inputs.chunks(chunk).enumerate() {
                let f = &f;
                let fold = &fold;
                let exec = &self;
                handles.push(s.spawn(move || {
                    let mut scratch: Vec<T> = Vec::with_capacity(exec.wires());
                    let mut acc = A::default();
                    let mut buf: Vec<T> = Vec::new();
                    for (i, input) in slice.iter().enumerate() {
                        buf.clear();
                        buf.extend_from_slice(input);
                        exec.run_scalar_in_place(&mut buf, &mut scratch);
                        acc = fold(acc, f(ci * chunk + i, &buf));
                    }
                    acc
                }));
            }
            handles.into_iter().map(|h| h.join().expect("batch worker panicked")).collect()
        })
    }

    /// Counts, in parallel, how many of the inputs the network sorts.
    pub fn count_sorted(&self, inputs: &[Vec<u32>], threads: usize) -> u64 {
        self.map_reduce_outputs(
            inputs,
            threads,
            |_, out| u64::from(crate::sortcheck::is_sorted(out)),
            |a, b| a + b,
        )
        .into_iter()
        .sum()
    }
}

/// Compiles and evaluates in one call. Convenience for one-shot call
/// sites (tests, examples); compile repeatedly-evaluated networks once
/// via [`Executor::compile`] instead.
pub fn evaluate<T: Ord + Copy>(net: &ComparatorNetwork, input: &[T]) -> Vec<T> {
    Executor::compile(net).evaluate(input)
}

/// Exhaustive sharded 0-1 check of a network: compile +
/// [`Executor::check_zero_one`].
pub fn check_zero_one_sharded(net: &ComparatorNetwork, threads: usize) -> SortCheck {
    Executor::compile(net).check_zero_one(threads)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engine_thread_parsing_rejects_garbage() {
        assert_eq!(parse_engine_threads(None), None);
        assert_eq!(parse_engine_threads(Some("")), None);
        assert_eq!(parse_engine_threads(Some("0")), None);
        assert_eq!(parse_engine_threads(Some("-3")), None);
        assert_eq!(parse_engine_threads(Some("four")), None);
        assert_eq!(parse_engine_threads(Some("4.5")), None);
        assert_eq!(parse_engine_threads(Some("4")), Some(4));
        assert_eq!(parse_engine_threads(Some("  12\t")), Some(12));
        assert_eq!(parse_engine_threads(Some("1")), Some(1));
    }

    #[test]
    fn env_override_path_clamps_and_falls_back() {
        // The only test mutating SNET_THREADS; restore whatever was set so
        // concurrently-running tests observing the default are unaffected.
        let prev = std::env::var("SNET_THREADS").ok();
        std::env::set_var("SNET_THREADS", "3");
        assert_eq!(default_engine_threads(), 3);
        std::env::set_var("SNET_THREADS", "0");
        let fallback = default_engine_threads();
        assert!(fallback >= 1, "a zero override must not produce zero workers");
        std::env::set_var("SNET_THREADS", "not-a-number");
        assert_eq!(default_engine_threads(), fallback);
        match prev {
            Some(v) => std::env::set_var("SNET_THREADS", v),
            None => std::env::remove_var("SNET_THREADS"),
        }
    }

    #[test]
    fn check_progress_gauge_reaches_total_and_is_monotone() {
        use snet_obs::EventKind;
        // Odd-even transposition sorts, so each check runs to completion
        // and progress must reach 2^n: at n = 8 by the plain scan, at
        // n = 18 on the first level's image, inline and sharded.
        for (n, threads) in [(8usize, 1usize), (18, 1), (18, 2)] {
            let exec = Executor::compile(&odd_even_transposition(n, n));
            let mut result = None;
            let events = snet_obs::test_capture(|| result = Some(exec.check_zero_one(threads)));
            assert_eq!(result, Some(SortCheck::AllSorted { tested: 1 << n }));

            // The sink is global: keep this thread's check and its shards.
            let me = snet_obs::thread_ordinal();
            let check = events
                .iter()
                .find(|e| {
                    e.kind == EventKind::SpanEnd && e.name == "check.zero_one" && e.thread == me
                })
                .expect("the check's span");
            let image = (n > 16).then(|| 3u64.pow(n as u32 / 2).to_string());
            assert_eq!(check.attr("image").map(str::to_string), image, "n={n}");
            let ours: Vec<u64> = events
                .iter()
                .filter(|e| e.kind == EventKind::SpanEnd && e.name == "check.shard")
                .filter(|e| e.parent == check.id)
                .map(|e| e.id)
                .chain([check.id])
                .collect();
            let ours = |kind: EventKind, name: &'static str| {
                events
                    .iter()
                    .filter(move |e| e.kind == kind && e.name == name)
                    .filter(|e| ours.contains(&e.parent))
            };
            let done: Vec<u64> = ours(EventKind::Gauge, "check.zero_one.progress")
                .map(|e| e.attr("done").expect("done").parse().expect("a count"))
                .collect();
            assert!(!done.is_empty(), "n={n} t={threads}: at least one progress gauge");
            assert!(done.windows(2).all(|w| w[0] <= w[1]), "n={n} t={threads}: {done:?}");
            assert_eq!(done.last(), Some(&(1u64 << n)), "n={n} t={threads}");
            let inputs: f64 = ours(EventKind::Counter, "check.inputs").map(|e| e.value).sum();
            assert_eq!(inputs, (1u64 << n) as f64, "check.inputs covers every input once");
        }
    }

    /// Brute-force reachable output set: evaluate every 0-1 input and
    /// collect the outputs — the reference the set backend must match.
    fn brute_force_reachable(exec: &Executor) -> ZeroOneSet {
        let n = exec.wires();
        let mut out = ZeroOneSet::empty(n);
        for x in 0..(1u64 << n) {
            let input: Vec<u32> = (0..n).map(|w| ((x >> w) & 1) as u32).collect();
            let output = exec.evaluate(&input);
            let y = output.iter().enumerate().fold(0u64, |acc, (w, &v)| acc | ((v as u64) << w));
            out.insert(y);
        }
        out
    }

    fn odd_even_transposition(n: usize, passes: usize) -> ComparatorNetwork {
        use crate::element::{Element, ElementKind};
        use crate::network::Level;
        let levels = (0..passes)
            .map(|pass| {
                Level::of_elements(
                    (pass % 2..n - 1)
                        .step_by(2)
                        .map(|w| Element { a: w as u32, b: w as u32 + 1, kind: ElementKind::Cmp })
                        .collect(),
                )
            })
            .collect();
        ComparatorNetwork::new(n, levels).expect("valid network")
    }

    #[test]
    fn reachable_01_set_matches_brute_force_and_lane_scan() {
        for (n, passes) in [(6usize, 6usize), (6, 3), (7, 7), (7, 4), (5, 2)] {
            let net = odd_even_transposition(n, passes);
            for exec in
                [Executor::compile(&net), Executor::compile_with(&net, &PassManager::empty())]
            {
                let reach = exec.reachable_01_set();
                assert_eq!(reach, brute_force_reachable(&exec), "n={n} passes={passes}");
                // Set-level sortedness agrees with the lane scan verdict.
                assert_eq!(
                    reach.is_sorted_only(),
                    exec.first_unsorted_01().is_none(),
                    "n={n} passes={passes}"
                );
            }
        }
    }

    #[test]
    fn apply_levels_01_set_is_incremental() {
        // A register-model lowering, its routes absorbed into the slot
        // numbering: applying levels one at a time must equal one
        // whole-range application.
        use crate::element::ElementKind;
        use crate::register::{RegisterNetwork, RegisterStage};
        let n = 8usize;
        let sigma = crate::perm::Permutation::shuffle(n);
        let stages = (0..4)
            .map(|i| RegisterStage {
                perm: sigma.clone(),
                ops: (0..n / 2)
                    .map(|k| if (i + k) % 3 == 0 { ElementKind::CmpRev } else { ElementKind::Cmp })
                    .collect(),
            })
            .collect();
        let reg = RegisterNetwork::new(n, stages).expect("valid register network");
        let exec = Executor::compile_register(&reg);
        let depth = exec.program().depth();
        let mut whole = ZeroOneSet::full(n);
        let mut scratch = ZeroOneSet::empty(n);
        exec.apply_levels_01_set(0..depth, &mut whole, &mut scratch);
        let mut stepped = ZeroOneSet::full(n);
        for lvl in 0..depth {
            exec.apply_levels_01_set(lvl..lvl + 1, &mut stepped, &mut scratch);
        }
        assert_eq!(whole, stepped);
        // And the gathered set matches brute force.
        assert_eq!(exec.reachable_01_set(), brute_force_reachable(&exec));
    }
}
