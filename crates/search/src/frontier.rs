//! The `snet-search-frontier/2` document: the run manifest plus
//! per-budget frontier statistics, in the two shapes DESIGN §8
//! documents. Unlike `snetctl search` stdout, it includes the
//! timing-dependent counters (nodes, table hits, aborts).

use crate::engine::{SearchOutcome, SearchStats};
use serde::{Serialize, Value};
use snet_obs::json::obj;
use snet_obs::RunManifest;

/// Schema tag of the frontier document.
pub const FRONTIER_SCHEMA: &str = "snet-search-frontier/2";

/// Which outcomes a frontier document holds, and so its shape.
#[derive(Debug, Clone, Copy)]
pub enum Frontier<'a> {
    /// One run, its fields inline after the manifest (`snetctl search
    /// --frontier-out`).
    Run(&'a SearchOutcome),
    /// A `runs` array, each run with derived `elapsed_ms`,
    /// `states_per_sec` and `tt_hit_rate` (the `baselines` bench binary).
    Runs(&'a [SearchOutcome]),
}

impl Frontier<'_> {
    /// The document, stamped with the producing run's `manifest`.
    pub fn to_value(self, manifest: &RunManifest) -> Value {
        let mut fields = vec![
            ("schema", FRONTIER_SCHEMA.serialize()),
            ("schema_version", 2u64.serialize()),
            ("manifest", manifest.serialize()),
        ];
        match self {
            Frontier::Run(outcome) => fields.extend(run_fields(outcome, false)),
            Frontier::Runs(outcomes) => {
                let runs = outcomes.iter().map(|o| obj(run_fields(o, true))).collect();
                fields.push(("runs", Value::Array(runs)));
            }
        }
        obj(fields)
    }
}

fn run_fields(outcome: &SearchOutcome, derived: bool) -> Vec<(&'static str, Value)> {
    let mut fields = vec![
        ("n", outcome.n.serialize()),
        ("mode", outcome.mode.name().serialize()),
        ("floor", outcome.floor.serialize()),
        ("max_depth", outcome.max_depth.serialize()),
        ("optimal_depth", outcome.optimal_depth.serialize()),
        ("verified", outcome.verified().serialize()),
    ];
    if derived {
        let totals = &outcome.totals;
        let elapsed_ms: u64 = outcome.rounds.iter().map(|r| r.elapsed_ms).sum();
        let probes = totals.tt_hits + totals.tt_misses;
        // A sub-millisecond run cannot resolve a rate: null, not 0.
        let states_per_sec =
            (elapsed_ms > 0).then(|| totals.nodes as f64 * 1000.0 / elapsed_ms as f64);
        let tt_hit_rate = (probes > 0).then(|| totals.tt_hits as f64 / probes as f64);
        fields.push(("elapsed_ms", elapsed_ms.serialize()));
        fields.push(("states_per_sec", states_per_sec.serialize()));
        fields.push(("tt_hit_rate", tt_hit_rate.serialize()));
    }
    let rounds = outcome
        .rounds
        .iter()
        .map(|r| {
            obj(vec![
                ("budget", r.budget.serialize()),
                ("sat", r.sat.serialize()),
                ("tasks", r.tasks.serialize()),
                ("elapsed_ms", r.elapsed_ms.serialize()),
                ("stats", stats_value(&r.stats)),
            ])
        })
        .collect();
    fields.push(("rounds", Value::Array(rounds)));
    fields.push(("totals", stats_value(&outcome.totals)));
    fields
}

fn stats_value(s: &SearchStats) -> Value {
    obj(vec![
        ("nodes", s.nodes.serialize()),
        ("tt_hits", s.tt_hits.serialize()),
        ("tt_misses", s.tt_misses.serialize()),
        ("tt_stores", s.tt_stores.serialize()),
        ("tt_evicts", s.tt_evicts.serialize()),
        ("oracle_cuts", s.oracle_cuts.serialize()),
        ("subsumed", s.subsumed.serialize()),
        ("noop_skips", s.noop_skips.serialize()),
        ("witness_skips", s.witness_skips.serialize()),
        ("tasks_run", s.tasks_run.serialize()),
        ("tasks_aborted", s.tasks_aborted.serialize()),
    ])
}
