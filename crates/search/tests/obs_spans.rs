//! Regression tests for search telemetry: worker spans from the engine's
//! scoped threads must nest under the round span (not orphan to roots),
//! and the emitted trace must reconstruct into the expected tree through
//! the report machinery.

use snet_obs::{report, EventKind};
use snet_search::{search, SearchConfig, SearchMode};

fn run_search(threads: usize) -> Vec<snet_obs::Event> {
    snet_obs::test_capture(|| {
        let mut cfg = SearchConfig::new(5, SearchMode::Unrestricted);
        cfg.threads = threads;
        let outcome = search(&cfg);
        assert_eq!(outcome.optimal_depth, Some(5));
    })
}

#[test]
fn worker_spans_attach_under_their_round_span() {
    let events = run_search(4);
    let ends: Vec<_> = events.iter().filter(|e| e.kind == EventKind::SpanEnd).collect();
    let run_ids: Vec<u64> = ends.iter().filter(|e| e.name == "search.run").map(|e| e.id).collect();
    assert_eq!(run_ids.len(), 1, "one root search span");
    let round_ids: Vec<u64> =
        ends.iter().filter(|e| e.name == "search.round").map(|e| e.id).collect();
    assert!(!round_ids.is_empty(), "at least one budget round");
    for round in ends.iter().filter(|e| e.name == "search.round") {
        assert_eq!(round.parent, run_ids[0], "rounds nest under the run");
    }
    let workers: Vec<_> = ends.iter().filter(|e| e.name == "search.worker").collect();
    assert_eq!(workers.len(), 4 * round_ids.len(), "every worker in every round leaves a span");
    for w in &workers {
        assert!(
            round_ids.contains(&w.parent),
            "worker span {} parents a round span (got parent {})",
            w.id,
            w.parent
        );
        assert!(w.attr("worker").is_some(), "worker spans carry their index");
        assert!(w.attr("nodes").is_some());
    }
    // Worker spans really do come from other threads.
    let round_threads: Vec<u64> =
        ends.iter().filter(|e| e.name == "search.round").map(|e| e.thread).collect();
    assert!(
        workers.iter().any(|w| !round_threads.contains(&w.thread)),
        "with 4 workers at least one span is emitted off the coordinator thread"
    );
}

#[test]
fn trace_roundtrip_reconstructs_workers_inside_rounds() {
    let events = run_search(2);
    let text: String = events.iter().map(|e| e.to_json_line() + "\n").collect();
    let parsed = report::parse_trace(&text).expect("trace parses");
    assert!(parsed.has_span("search.run"));
    assert!(parsed.has_span("search.worker"));
    let run = parsed
        .roots
        .iter()
        .find(|r| r.name == "search.run")
        .expect("search.run is a root, not an orphan");
    let round = run.children.iter().find(|c| c.name == "search.round").expect("round under run");
    assert_eq!(
        round.children.iter().filter(|c| c.name == "search.worker").count(),
        2,
        "workers render inside their round"
    );
    // Histogram events made it into the report with real samples.
    let nodes_hist = parsed.hists.get("search.task.nodes").expect("task-nodes histogram");
    assert!(nodes_hist.count > 0);
    assert!(parsed.counters["search.nodes"].total > 0.0);
}

#[test]
fn stats_populate_without_any_sink() {
    // No sink installed: telemetry must still ride in the outcome.
    let mut cfg = SearchConfig::new(5, SearchMode::Unrestricted);
    cfg.threads = 2;
    let outcome = search(&cfg);
    assert!(outcome.totals.nodes > 0);
    assert!(outcome.totals.tt_hits + outcome.totals.tt_misses > 0);
    assert!(!outcome.hists.task_nodes.is_empty());
    assert!(!outcome.hists.task_us.is_empty());
    assert_eq!(outcome.hists.task_nodes.count, outcome.hists.task_us.count);
    let last = outcome.rounds.last().expect("rounds recorded");
    assert_eq!(last.workers.len(), 2);
    assert_eq!(
        last.workers.iter().map(|w| w.nodes).sum::<u64>(),
        last.stats.nodes,
        "worker balance partitions the round's nodes"
    );
    assert!(last.moves_total > 0);
    assert!(last.firsts_kept >= 1);
}
