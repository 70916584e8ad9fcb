//! The iterative-deepening, parallel search engine.
//!
//! # Algorithm
//!
//! The state of a network prefix is its reachable 0-1 set
//! ([`ZeroOneSet`]): the image of the full cube `{0,1}^n` under the
//! prefix. A suffix completes the prefix into a sorting network iff it
//! maps that set into the `n + 1` sorted vectors, so prefixes with equal
//! states are interchangeable and the search runs over states, not
//! networks.
//!
//! For each depth budget `b = floor, floor+1, …` (the floor comes from
//! [`DepthOracle::network_floor`], seeded in shuffle mode by the paper's
//! mixing bound) the engine enumerates symmetry-reduced two-layer
//! prefixes ([`crate::layers`]), dedups them by state, and runs one DFS
//! task per surviving prefix. A task's DFS prunes with, in order:
//!
//! 1. **Sat-on-entry** — sorted states succeed before the budget is
//!    consulted, which keeps budget rounds monotone;
//! 2. the **oracle cut** — [`DepthOracle::residual_floor`] exceeding the
//!    remaining budget (admissible, so never cuts an optimal network);
//! 3. the **transposition table** — canonical state (lexicographic
//!    minimum of the state and, in unrestricted mode, its dual) known to
//!    fail at least this budget;
//! 4. **no-op skipping** — children whose layer leaves the state
//!    unchanged (a minimal solution never needs such a layer);
//! 5. **subsumption** — a child whose state contains another child's
//!    state is dominated: any suffix sorting the superset sorts the
//!    subset. Children are kept `⊆`-minimal, ties broken by lowest move
//!    id, and visited in `(|state|, id)` order.
//!
//! # Determinism
//!
//! The result is identical for every thread count. Tasks are indexed in
//! a fixed enumeration order; the first Sat *by index* wins. Workers
//! claim tasks in that order from one atomic cursor, so no task waits
//! behind a higher-indexed one. A worker aborts a task only when a
//! strictly lower-indexed task has already succeeded, so every task
//! below the winning index runs to completion
//! (and is Unsat), making the winner — and its DFS path, which visits
//! children in a fixed order — schedule-independent. The transposition
//! table stores only refutations (true facts about states), so sharing
//! it across threads prunes Unsat subtrees without ever changing which
//! network is found. Node and cache counters *are* timing-dependent;
//! they are reported in [`SearchStats`] for the frontier artifact and
//! must be kept out of any output that claims byte-stability.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

use snet_adversary::DepthOracle;
use snet_core::ir::Executor;
use snet_core::network::{ComparatorNetwork, Level};
use snet_core::verdict::{verdict_zero_one, Verdict};
use snet_core::zeroone::{CompiledLayer, ZeroOneSet};
use snet_obs::{HistSnapshot, Histogram};
use snet_store::{load_tt_facts, save_tt_facts, ArtifactStore, TtFacts};
use snet_topology::ShuffleNetwork;

use crate::layers::{
    canonical_first_layer, second_layer_reps, shuffle_first_stages, Layer, MoveSet,
};
use crate::tt::TransTable;

/// Which layer discipline to search over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SearchMode {
    /// Layers are arbitrary non-empty matchings of the wires.
    Unrestricted,
    /// Every layer routes by the shuffle `σ` and acts on register pairs.
    ShuffleLegal,
}

impl SearchMode {
    /// Stable name used in CLI flags and result artifacts.
    pub fn name(&self) -> &'static str {
        match self {
            SearchMode::Unrestricted => "unrestricted",
            SearchMode::ShuffleLegal => "shuffle-legal",
        }
    }
}

/// A cooperative cancellation handle for a running [`search`].
///
/// Cloning shares the flag: a service job manager keeps one clone and
/// hands the other to the engine via [`SearchConfig::cancel`]; calling
/// [`CancelToken::cancel`] from any thread makes workers abandon their
/// DFS at the next heartbeat (the same cadence as the lower-index abort
/// path). Cancellation is **safe for the transposition table**: aborted
/// subtrees never record refutations, so every fact in the final spill
/// is complete and the spill stays resumable — a later run warm-starts
/// from it exactly as from an uncancelled run's.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Requests cancellation; idempotent, callable from any thread.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Relaxed)
    }
}

/// Search parameters.
#[derive(Debug, Clone)]
pub struct SearchConfig {
    /// Number of wires (`2..=16` unrestricted; a power of two in shuffle
    /// mode — the practical frontier is n ≤ 8).
    pub n: usize,
    /// Layer discipline.
    pub mode: SearchMode,
    /// Largest depth budget to try before giving up. When every budget up
    /// to this is refuted the outcome carries `optimal_depth: None`,
    /// itself a proof that no such network of depth ≤ `max_depth` exists.
    pub max_depth: usize,
    /// Worker threads (0 ⇒ 1). The result does not depend on this.
    pub threads: usize,
    /// Transposition-table capacity in facts.
    pub tt_capacity: usize,
    /// Artifact store for transposition-table spills. When set, the
    /// search pre-loads the refutation facts a previous run with the
    /// same `(mode, n)` persisted and spills the merged table back at
    /// the end. Warm facts only prune subtrees that would fail anyway,
    /// so the found network is unaffected (node counts are not).
    pub store: Option<ArtifactStore>,
    /// Cooperative cancellation handle. When the token fires, workers
    /// abandon their tasks at the next heartbeat, the deepening loop
    /// stops, and the outcome reports [`SearchOutcome::cancelled`] with
    /// no witness — but the TT spill still runs, so the partial frontier
    /// is preserved for a resumed run.
    pub cancel: Option<CancelToken>,
}

impl SearchConfig {
    /// Defaults: 12-layer ceiling, single thread, 2^20-fact table, no
    /// spill store.
    pub fn new(n: usize, mode: SearchMode) -> Self {
        SearchConfig {
            n,
            mode,
            max_depth: 12,
            threads: 1,
            tt_capacity: 1 << 20,
            store: None,
            cancel: None,
        }
    }

    /// The store label transposition spills for this `(mode, n)` live
    /// under. The label deliberately excludes `max_depth`: a refutation
    /// is a fact about a state and a budget, valid in any deepening run.
    pub fn tt_label(&self) -> String {
        format!("search-tt/{}/n={}", self.mode.name(), self.n)
    }
}

/// Pruning and traversal counters. **Timing-dependent** under parallelism
/// (which thread records a transposition fact first changes hit/miss
/// splits) — report these in artifacts, never in byte-stable output.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// DFS nodes entered.
    pub nodes: u64,
    /// Transposition probes answered by a stored refutation.
    pub tt_hits: u64,
    /// Transposition probes that missed (or hit a too-shallow fact).
    pub tt_misses: u64,
    /// Refutations recorded.
    pub tt_stores: u64,
    /// Branches cut by the adversary oracle's residual floor.
    pub oracle_cuts: u64,
    /// Children dropped by subsumption.
    pub subsumed: u64,
    /// Children skipped because their layer left the state unchanged.
    pub noop_skips: u64,
    /// Last-layer candidates rejected by the single-witness fast path
    /// (the move could not even fix one unsorted vector).
    pub witness_skips: u64,
    /// New transposition facts dropped because their shard was full.
    pub tt_evicts: u64,
    /// Prefix tasks executed to completion.
    pub tasks_run: u64,
    /// Prefix tasks abandoned after a lower-indexed task succeeded.
    pub tasks_aborted: u64,
}

impl SearchStats {
    fn absorb(&mut self, other: &SearchStats) {
        self.nodes += other.nodes;
        self.tt_hits += other.tt_hits;
        self.tt_misses += other.tt_misses;
        self.tt_stores += other.tt_stores;
        self.oracle_cuts += other.oracle_cuts;
        self.subsumed += other.subsumed;
        self.noop_skips += other.noop_skips;
        self.witness_skips += other.witness_skips;
        self.tt_evicts += other.tt_evicts;
        self.tasks_run += other.tasks_run;
        self.tasks_aborted += other.tasks_aborted;
    }

    /// Fraction of transposition probes answered by a stored refutation
    /// (0 when no probe ran).
    pub fn tt_hit_rate(&self) -> f64 {
        let probes = self.tt_hits + self.tt_misses;
        if probes == 0 {
            0.0
        } else {
            self.tt_hits as f64 / probes as f64
        }
    }

    /// Emits the counters as obs metrics under the `search.` namespace.
    pub fn emit_counters(&self) {
        snet_obs::counter("search.nodes", self.nodes);
        snet_obs::counter("search.tt.hit", self.tt_hits);
        snet_obs::counter("search.tt.miss", self.tt_misses);
        snet_obs::counter("search.tt.store", self.tt_stores);
        snet_obs::counter("search.tt.evict", self.tt_evicts);
        snet_obs::counter("search.oracle.cut", self.oracle_cuts);
        snet_obs::counter("search.subsumed", self.subsumed);
        snet_obs::counter("search.noop.skip", self.noop_skips);
        snet_obs::counter("search.witness.skip", self.witness_skips);
    }
}

/// Per-round task-granularity histograms. Recording is wait-free and
/// always on (a handful of relaxed atomic adds per *task*, not per node);
/// snapshots ride in the outcome so `--stats` works without any sink.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RoundHists {
    /// DFS nodes per prefix task.
    pub task_nodes: HistSnapshot,
    /// Wall microseconds per prefix task.
    pub task_us: HistSnapshot,
}

impl RoundHists {
    /// Adds another round's histograms into this one.
    pub fn merge(&mut self, other: &RoundHists) {
        self.task_nodes.merge(&other.task_nodes);
        self.task_us.merge(&other.task_us);
    }
}

/// One worker's share of a round, for balance reporting. Worker
/// identity is the spawn index, so rows are stable across runs even
/// though the *assignment* of tasks to workers is timing-dependent.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerBalance {
    /// Spawn index of the worker thread.
    pub worker: u64,
    /// Tasks this worker ran to completion.
    pub tasks_run: u64,
    /// Tasks this worker abandoned after a lower-indexed Sat.
    pub tasks_aborted: u64,
    /// DFS nodes this worker expanded.
    pub nodes: u64,
}

/// One iterative-deepening round.
#[derive(Debug, Clone)]
pub struct BudgetRound {
    /// The depth budget this round explored.
    pub budget: usize,
    /// Whether a sorting network of this depth was found.
    pub sat: bool,
    /// Symmetry- and state-deduplicated prefix tasks enumerated.
    pub tasks: usize,
    /// Total moves in the layer model (before symmetry reduction).
    pub moves_total: usize,
    /// First-layer candidates after symmetry reduction.
    pub firsts_kept: usize,
    /// Second-layer candidates after symmetry reduction (0 when the
    /// budget admits only a one-layer prefix).
    pub seconds_kept: usize,
    /// Counters for this round (timing-dependent; see [`SearchStats`]).
    pub stats: SearchStats,
    /// Task-granularity histograms for this round.
    pub hists: RoundHists,
    /// Per-worker task balance, ordered by spawn index.
    pub workers: Vec<WorkerBalance>,
    /// Wall-clock milliseconds spent in the round.
    pub elapsed_ms: u64,
}

/// Result of a depth-optimal search.
#[derive(Debug, Clone)]
pub struct SearchOutcome {
    /// Number of wires searched.
    pub n: usize,
    /// Layer discipline searched.
    pub mode: SearchMode,
    /// The admissible total-depth floor the deepening started from.
    pub floor: usize,
    /// The configured budget ceiling.
    pub max_depth: usize,
    /// Minimum depth of a sorting network in this model, or `None` if
    /// every budget up to `max_depth` was refuted.
    pub optimal_depth: Option<usize>,
    /// A witness network of that depth (leveled circuit form).
    pub network: Option<ComparatorNetwork>,
    /// The same witness as stage op vectors (shuffle mode only).
    pub shuffle: Option<ShuffleNetwork>,
    /// The witness network's exhaustive 0-1 [`Verdict`] — a sort
    /// certificate when the check passes, a counterexample otherwise
    /// (`None` when there is no witness). Content-addressed by the
    /// witness's canonical hash, so it is the artifact the store caches.
    pub verdict: Option<Verdict>,
    /// Per-budget round records, in deepening order.
    pub rounds: Vec<BudgetRound>,
    /// Counters summed over all rounds.
    pub totals: SearchStats,
    /// Histograms merged over all rounds.
    pub hists: RoundHists,
    /// Transposition facts resident when the search finished.
    pub tt_facts: u64,
    /// Facts pre-loaded from a store spill before the first round.
    pub tt_preloaded: u64,
    /// Facts persisted back to the store spill (0 when no store).
    pub tt_spilled: u64,
    /// Whether the run was stopped by its [`CancelToken`]. A cancelled
    /// run claims no witness (`optimal_depth`/`network` are `None`) even
    /// if one turned up mid-round, because the lowest-index-wins
    /// determinism guarantee needs every lower task to complete.
    pub cancelled: bool,
}

impl SearchOutcome {
    /// Whether the witness passed the exhaustive 0-1 check (`None` when
    /// there is no witness) — a view of [`SearchOutcome::verdict`].
    pub fn verified(&self) -> Option<bool> {
        self.verdict.as_ref().map(Verdict::is_sorting)
    }
}

/// A two-layer (or shorter) prefix run as one parallel task. Its index in
/// the round's task list orders it for lowest-index-wins.
struct PrefixTask {
    layer_ids: Vec<u32>,
    state: ZeroOneSet,
}

enum Dfs {
    Sat(Vec<u32>),
    Unsat,
    Aborted,
}

/// Runs the full iterative-deepening search described in the module docs.
///
/// # Panics
///
/// Panics if `n` is outside `2..=16`, if `max_depth` is below the model
/// floor, or (shuffle mode) if `n` is not a power of two.
pub fn search(cfg: &SearchConfig) -> SearchOutcome {
    assert!((2..=16).contains(&cfg.n), "search supports 2..=16 wires (got {})", cfg.n);
    let mut span = snet_obs::span("search.run");
    span.add_attr("n", cfg.n);
    span.add_attr("mode", cfg.mode.name());

    let (moves, oracle) = match cfg.mode {
        SearchMode::Unrestricted => {
            (MoveSet::unrestricted(cfg.n), DepthOracle::unrestricted(cfg.n))
        }
        SearchMode::ShuffleLegal => {
            (MoveSet::shuffle_legal(cfg.n), DepthOracle::shuffle_legal(cfg.n))
        }
    };
    let floor = oracle.network_floor();
    assert!(
        cfg.max_depth >= floor,
        "max_depth {} is below the admissible floor {floor}",
        cfg.max_depth
    );
    let tt = TransTable::new(cfg.tt_capacity);
    let tt_preloaded = match &cfg.store {
        Some(store) => match load_tt_facts(store, &cfg.tt_label()) {
            Some(spill) => {
                let absorbed = tt.absorb(spill.facts().iter().cloned()) as u64;
                snet_obs::counter("search.tt.preloaded", absorbed);
                absorbed
            }
            None => 0,
        },
        None => 0,
    };
    let threads = cfg.threads.max(1);
    // Compile every move to masked-shift form once; DFS expansion then
    // costs O(words) per candidate layer instead of O(set size).
    let compiled: Vec<CompiledLayer> = moves
        .moves
        .iter()
        .map(|layer| CompiledLayer::compile(cfg.n, moves.route.as_ref(), &layer.elements))
        .collect();

    let mut rounds = Vec::new();
    let mut totals = SearchStats::default();
    let mut hists = RoundHists::default();
    let mut witness_ids: Option<Vec<u32>> = None;
    let mut evicts_seen = 0u64;

    let cancel = cfg.cancel.clone().unwrap_or_default();
    for budget in floor..=cfg.max_depth {
        if cancel.is_cancelled() {
            break;
        }
        let started = Instant::now();
        let mut round_span = snet_obs::span_under("search.round", span.id());
        round_span.add_attr("budget", budget);
        let (tasks, symmetry) = prefix_tasks(cfg, &moves, budget);
        let task_count = tasks.len();
        round_span.add_attr("tasks", task_count);
        let (winner, mut stats, round_hists, workers) = run_round(
            cfg,
            &moves,
            &compiled,
            &oracle,
            &tt,
            budget,
            &tasks,
            threads,
            round_span.id(),
            &cancel,
        );
        // Eviction counts live in the (cross-round) table; report the
        // delta so per-round stats stay additive.
        let evicts_total = tt.evictions();
        stats.tt_evicts = evicts_total - evicts_seen;
        evicts_seen = evicts_total;
        let sat = winner.is_some();
        round_span.add_attr("sat", sat);
        stats.emit_counters();
        if snet_obs::enabled() {
            snet_obs::hist("search.task.nodes", &round_hists.task_nodes);
            snet_obs::hist("search.task.us", &round_hists.task_us);
        }
        totals.absorb(&stats);
        hists.merge(&round_hists);
        rounds.push(BudgetRound {
            budget,
            sat,
            tasks: task_count,
            moves_total: symmetry.moves_total,
            firsts_kept: symmetry.firsts_kept,
            seconds_kept: symmetry.seconds_kept,
            stats,
            hists: round_hists,
            workers,
            elapsed_ms: started.elapsed().as_millis() as u64,
        });
        snet_obs::counter("search.rounds", 1);
        if let Some(ids) = winner {
            witness_ids = Some(ids);
            break;
        }
    }

    let cancelled = cancel.is_cancelled();
    if cancelled {
        // A Sat surfaced by a cancelled round is schedule-dependent (the
        // lower-indexed tasks that could have beaten it were aborted), so
        // a cancelled run never claims a witness.
        witness_ids = None;
        snet_obs::counter("search.cancelled", 1);
    }
    let optimal_depth = witness_ids.as_ref().map(|_| rounds.last().expect("sat round").budget);
    let (network, shuffle) = match &witness_ids {
        Some(ids) => reconstruct(cfg, &moves, ids),
        None => (None, None),
    };
    let verdict = network.as_ref().map(|net| verdict_zero_one(&Executor::compile(net), threads));
    let tt_spilled = match &cfg.store {
        Some(store) => {
            let facts = TtFacts::from_pairs(tt.export());
            match save_tt_facts(store, &cfg.tt_label(), &facts, cfg.tt_capacity) {
                Ok(persisted) => {
                    snet_obs::counter("search.tt.spilled", persisted as u64);
                    persisted as u64
                }
                Err(_) => 0, // spill is best-effort; losing it only costs warmth
            }
        }
        None => 0,
    };
    span.add_attr("optimal_depth", optimal_depth.map(|d| d as i64).unwrap_or(-1));
    SearchOutcome {
        n: cfg.n,
        mode: cfg.mode,
        floor,
        max_depth: cfg.max_depth,
        optimal_depth,
        network,
        shuffle,
        verdict,
        rounds,
        totals,
        hists,
        tt_facts: tt.len() as u64,
        tt_preloaded,
        tt_spilled,
        cancelled,
    }
}

/// Finds the move id of a layer by structural equality.
fn move_id_of(moves: &MoveSet, layer: &Layer) -> u32 {
    moves.moves.iter().position(|m| m == layer).expect("generated prefix layer is in the move set")
        as u32
}

/// Applies one move to `state` (route, then elements), reusing `tmp`.
fn apply_move(moves: &MoveSet, id: u32, state: &ZeroOneSet, tmp: &mut ZeroOneSet) -> ZeroOneSet {
    let mut cur = state.clone();
    if let Some(route) = &moves.route {
        cur.apply_route_into(route, tmp);
        std::mem::swap(&mut cur, tmp);
    }
    let layer = &moves.moves[id as usize];
    if !layer.elements.is_empty() {
        cur.apply_elements_into(&layer.elements, tmp);
        std::mem::swap(&mut cur, tmp);
    }
    cur
}

/// How much the symmetry reduction shrank one round's prefix frontier
/// (the `--stats` "prefix symmetry" section).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PrefixSummary {
    /// Moves in the layer model before any reduction.
    pub moves_total: usize,
    /// First-layer candidates kept.
    pub firsts_kept: usize,
    /// Second-layer candidates kept (0 for one-layer prefixes).
    pub seconds_kept: usize,
}

/// Enumerates the symmetry-reduced, state-deduplicated prefix tasks for
/// one budget round, in the fixed order that defines task indices.
fn prefix_tasks(
    cfg: &SearchConfig,
    moves: &MoveSet,
    budget: usize,
) -> (Vec<PrefixTask>, PrefixSummary) {
    let n = cfg.n;
    let prefix_len = budget.min(2);
    // First-layer candidates (already symmetry-reduced).
    let firsts: Vec<u32> = match cfg.mode {
        SearchMode::Unrestricted => vec![move_id_of(moves, &canonical_first_layer(n))],
        SearchMode::ShuffleLegal => {
            shuffle_first_stages(n).iter().map(|l| move_id_of(moves, l)).collect()
        }
    };
    // Second-layer candidates (orbit representatives in unrestricted
    // mode, the full move set in shuffle mode).
    let seconds: Vec<u32> = if prefix_len < 2 {
        Vec::new()
    } else {
        match cfg.mode {
            SearchMode::Unrestricted => {
                second_layer_reps(n).iter().map(|l| move_id_of(moves, l)).collect()
            }
            SearchMode::ShuffleLegal => (0..moves.moves.len() as u32).collect(),
        }
    };

    let full = ZeroOneSet::full(n);
    let mut tmp = ZeroOneSet::empty(n);
    let mut seen: std::collections::HashMap<Box<[u64]>, usize> = std::collections::HashMap::new();
    let mut tasks = Vec::new();
    for &f in &firsts {
        let after_first = apply_move(moves, f, &full, &mut tmp);
        let prefixes: Vec<(Vec<u32>, ZeroOneSet)> = if prefix_len < 2 {
            vec![(vec![f], after_first)]
        } else {
            seconds
                .iter()
                .map(|&s| (vec![f, s], apply_move(moves, s, &after_first, &mut tmp)))
                .collect()
        };
        for (layer_ids, state) in prefixes {
            let key: Box<[u64]> = state.words().into();
            if seen.contains_key(&key) {
                continue; // equal states are interchangeable; first index wins
            }
            seen.insert(key, tasks.len());
            tasks.push(PrefixTask { layer_ids, state });
        }
    }
    let summary = PrefixSummary {
        moves_total: moves.moves.len(),
        firsts_kept: firsts.len(),
        seconds_kept: seconds.len(),
    };
    (tasks, summary)
}

/// Runs one budget round over its prefix tasks. Workers claim tasks in
/// index order from one atomic cursor. Returns the winning full move-id
/// list (lowest task index with a Sat DFS), the merged round stats, the
/// round's task histograms, and the per-worker balance.
#[allow(clippy::too_many_arguments)]
fn run_round(
    cfg: &SearchConfig,
    moves: &MoveSet,
    compiled: &[CompiledLayer],
    oracle: &DepthOracle,
    tt: &TransTable,
    budget: usize,
    tasks: &[PrefixTask],
    threads: usize,
    round_span_id: u64,
    cancel: &CancelToken,
) -> (Option<Vec<u32>>, SearchStats, RoundHists, Vec<WorkerBalance>) {
    let cursor = AtomicUsize::new(0);
    let best = AtomicUsize::new(usize::MAX);
    // Locked without minding poison: a panicking worker then fails the
    // round once, at the scope's join, not again in every other worker.
    let results: Mutex<Vec<Option<Vec<u32>>>> = Mutex::new(vec![None; tasks.len()]);
    let stats = Mutex::new(SearchStats::default());
    let balances: Mutex<Vec<WorkerBalance>> = Mutex::new(Vec::with_capacity(threads));
    // Shared wait-free histograms; workers record once per *task*, so the
    // cost is negligible against the task's DFS whether or not a sink is
    // installed.
    let task_nodes_hist = Histogram::new();
    let task_us_hist = Histogram::new();

    std::thread::scope(|scope| {
        for worker_index in 0..threads {
            let (cursor, best, results) = (&cursor, &best, &results);
            let (stats, balances) = (&stats, &balances);
            let (task_nodes_hist, task_us_hist) = (&task_nodes_hist, &task_us_hist);
            scope.spawn(move || {
                snet_obs::thread_lane(format!("search-worker-{worker_index}"));
                // Explicit parent: this thread has no span stack, so
                // without `span_under` the worker span would orphan to a
                // root in the report tree.
                let mut worker_span = snet_obs::span_under("search.worker", round_span_id);
                worker_span.add_attr("worker", worker_index);
                let mut worker = TaskWorker {
                    moves,
                    compiled,
                    oracle,
                    tt,
                    best,
                    cancel,
                    my_index: usize::MAX,
                    use_dual: cfg.mode == SearchMode::Unrestricted,
                    tmp: ZeroOneSet::empty(cfg.n),
                    scratch: ZeroOneSet::empty(cfg.n),
                    dual_scratch: ZeroOneSet::empty(cfg.n),
                    keybuf: Vec::new(),
                    stats: SearchStats::default(),
                };
                loop {
                    let index = cursor.fetch_add(1, Ordering::Relaxed);
                    let Some(task) = tasks.get(index) else { break };
                    if best.load(Ordering::SeqCst) < index || cancel.is_cancelled() {
                        worker.stats.tasks_aborted += 1;
                        continue;
                    }
                    worker.my_index = index;
                    let used = task.layer_ids.len();
                    let task_started = Instant::now();
                    let nodes_before = worker.stats.nodes;
                    match worker.dfs(&task.state, used, budget - used) {
                        Dfs::Sat(suffix) => {
                            best.fetch_min(index, Ordering::SeqCst);
                            let mut ids = task.layer_ids.clone();
                            ids.extend(suffix);
                            results.lock().unwrap_or_else(PoisonError::into_inner)[index] =
                                Some(ids);
                            worker.stats.tasks_run += 1;
                        }
                        Dfs::Unsat => worker.stats.tasks_run += 1,
                        Dfs::Aborted => worker.stats.tasks_aborted += 1,
                    }
                    task_nodes_hist.record(worker.stats.nodes - nodes_before);
                    task_us_hist.record(task_started.elapsed().as_micros() as u64);
                }
                worker_span.add_attr("tasks", worker.stats.tasks_run);
                worker_span.add_attr("nodes", worker.stats.nodes);
                balances.lock().unwrap_or_else(PoisonError::into_inner).push(WorkerBalance {
                    worker: worker_index as u64,
                    tasks_run: worker.stats.tasks_run,
                    tasks_aborted: worker.stats.tasks_aborted,
                    nodes: worker.stats.nodes,
                });
                stats.lock().unwrap_or_else(PoisonError::into_inner).absorb(&worker.stats);
            });
        }
    });

    let winner_index = best.load(Ordering::SeqCst);
    let winner = if winner_index == usize::MAX {
        None
    } else {
        // Every task below `winner_index` ran to completion and was Unsat
        // (aborts require an even lower Sat index), so this is the
        // schedule-independent minimum.
        results.lock().unwrap_or_else(PoisonError::into_inner)[winner_index].clone()
    };
    let hists =
        RoundHists { task_nodes: task_nodes_hist.snapshot(), task_us: task_us_hist.snapshot() };
    let mut workers = balances.into_inner().unwrap_or_else(PoisonError::into_inner);
    workers.sort_by_key(|w| w.worker);
    (winner, stats.into_inner().unwrap_or_else(PoisonError::into_inner), hists, workers)
}

/// Applies one move to a single vector index: route the index bits, then
/// run the layer's elements. Used to pre-filter candidate last layers
/// against one unsorted witness before paying for a full set application.
fn apply_move_to_index(moves: &MoveSet, id: u32, n: usize, x: u64) -> u64 {
    let mut y = x;
    if let Some(route) = &moves.route {
        let images = route.images();
        let mut r = 0u64;
        for (w, &img) in images.iter().enumerate().take(n) {
            if (y >> w) & 1 == 1 {
                r |= 1 << img;
            }
        }
        y = r;
    }
    for e in &moves.moves[id as usize].elements {
        y = ZeroOneSet::apply_element_to_index(y, e);
    }
    y
}

struct TaskWorker<'a> {
    moves: &'a MoveSet,
    compiled: &'a [CompiledLayer],
    oracle: &'a DepthOracle,
    tt: &'a TransTable,
    best: &'a AtomicUsize,
    cancel: &'a CancelToken,
    my_index: usize,
    use_dual: bool,
    tmp: ZeroOneSet,
    scratch: ZeroOneSet,
    dual_scratch: ZeroOneSet,
    keybuf: Vec<u64>,
    stats: SearchStats,
}

impl TaskWorker<'_> {
    fn cancelled(&self) -> bool {
        self.best.load(Ordering::Relaxed) < self.my_index || self.cancel.is_cancelled()
    }

    /// Fills `keybuf` with the canonical transposition key of `state`:
    /// in unrestricted mode the lexicographic minimum of the state and
    /// its dual (which share their minimum remaining depth), otherwise
    /// the raw words.
    fn compute_key(&mut self, state: &ZeroOneSet) {
        self.keybuf.clear();
        if self.use_dual && state.dual_is_smaller(&mut self.dual_scratch) {
            self.keybuf.extend_from_slice(self.dual_scratch.words());
        } else {
            self.keybuf.extend_from_slice(state.words());
        }
    }

    fn dfs(&mut self, state: &ZeroOneSet, used: usize, remaining: usize) -> Dfs {
        self.stats.nodes += 1;
        if self.stats.nodes.is_multiple_of(128) {
            // Liveness cadence for the flight recorder: round-boundary
            // events are minutes apart in a deep search, so the recorder
            // would hold a near-empty window when a worker dies mid-round.
            // Cost when observation is off: the relaxed load in counter().
            snet_obs::counter("search.heartbeat", 128);
            if self.cancelled() {
                return Dfs::Aborted;
            }
        }
        if state.is_sorted_only() {
            return Dfs::Sat(Vec::new());
        }
        if remaining == 0 {
            return Dfs::Unsat;
        }
        if self.oracle.residual_floor(state, used) > remaining {
            self.stats.oracle_cuts += 1;
            return Dfs::Unsat;
        }
        self.compute_key(state);
        if let Some(failed) = self.tt.failed_budget(&self.keybuf) {
            if failed as usize >= remaining {
                self.stats.tt_hits += 1;
                return Dfs::Unsat;
            }
        }
        self.stats.tt_misses += 1;

        if remaining == 1 {
            // Last layer: a single candidate layer must sort the state.
            // Pre-filter against one unsorted witness vector — a move
            // that cannot fix the witness cannot sort the set — and only
            // pay the full application for survivors.
            let n = state.wires();
            let witness = state
                .iter()
                .find(|&x| x != ZeroOneSet::sorted_index(n, x.count_ones() as usize))
                .expect("state is not sorted-only");
            for id in 0..self.moves.moves.len() as u32 {
                let y = apply_move_to_index(self.moves, id, n, witness);
                if y != ZeroOneSet::sorted_index(n, y.count_ones() as usize) {
                    self.stats.witness_skips += 1;
                    continue;
                }
                self.compiled[id as usize].apply(state, &mut self.tmp, &mut self.scratch);
                if self.tmp.is_sorted_only() {
                    return Dfs::Sat(vec![id]);
                }
            }
            self.compute_key(state);
            if self.tt.record_failure(&self.keybuf, 1) {
                self.stats.tt_stores += 1;
            }
            return Dfs::Unsat;
        }

        // Expand children, skipping layers that do not change the state.
        let mut children: Vec<(u32, ZeroOneSet)> = Vec::new();
        for id in 0..self.moves.moves.len() as u32 {
            self.compiled[id as usize].apply(state, &mut self.tmp, &mut self.scratch);
            if self.tmp == *state {
                self.stats.noop_skips += 1;
                continue;
            }
            children.push((id, self.tmp.clone()));
        }
        // Keep ⊆-minimal children: visiting order is (|state|, move id),
        // and since a subset has at most the superset's cardinality, each
        // child only needs checking against already-kept ones.
        children.sort_by_key(|(id, s)| (s.len(), *id));
        let mut kept: Vec<(u32, ZeroOneSet)> = Vec::new();
        'next_child: for (id, s) in children {
            for (_, k) in &kept {
                if k.is_subset(&s) {
                    self.stats.subsumed += 1;
                    continue 'next_child;
                }
            }
            kept.push((id, s));
        }

        for (id, child) in &kept {
            match self.dfs(child, used + 1, remaining - 1) {
                Dfs::Sat(mut suffix) => {
                    suffix.insert(0, *id);
                    return Dfs::Sat(suffix);
                }
                Dfs::Unsat => {}
                Dfs::Aborted => return Dfs::Aborted,
            }
        }
        // All children refuted with budget `remaining - 1`; the state
        // itself is refuted at `remaining`. Aborted subtrees never reach
        // this line, so only complete refutations are recorded.
        self.compute_key(state);
        if self.tt.record_failure(&self.keybuf, remaining.min(u8::MAX as usize) as u8) {
            self.stats.tt_stores += 1;
        }
        Dfs::Unsat
    }
}

/// Rebuilds the witness network from the winning move-id list.
fn reconstruct(
    cfg: &SearchConfig,
    moves: &MoveSet,
    ids: &[u32],
) -> (Option<ComparatorNetwork>, Option<ShuffleNetwork>) {
    match cfg.mode {
        SearchMode::Unrestricted => {
            let levels = ids
                .iter()
                .map(|&id| Level::of_elements(moves.moves[id as usize].elements.clone()))
                .collect();
            let net = ComparatorNetwork::new(cfg.n, levels).expect("search layers are matchings");
            (Some(net), None)
        }
        SearchMode::ShuffleLegal => {
            let stages = ids
                .iter()
                .map(|&id| {
                    moves.moves[id as usize]
                        .stage_ops
                        .clone()
                        .expect("shuffle moves carry stage ops")
                })
                .collect();
            let sn = ShuffleNetwork::new(cfg.n, stages);
            let net = sn.to_network();
            (Some(net), Some(sn))
        }
    }
}
