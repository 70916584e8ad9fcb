//! Records the depth-optimal search frontier to
//! `results/search_frontier.json` (schema `snet-search-frontier/2`, the
//! same per-run shape `snetctl search --frontier-out` writes, wrapped in
//! a `runs` array with derived throughput metrics).
//!
//! Per scenario (unrestricted n = 5..7, shuffle-legal n = 4): the
//! adversary floor, measured optimal depth, per-budget round statistics,
//! states/sec, and the transposition-table hit rate. The embedded run
//! manifest pins commit, toolchain, and parallelism for provenance.
//!
//! Each scenario also writes a perf baseline (schema
//! `snet-bench-baseline/1`) to `<baseline-dir>/<label>.json` with
//! states/sec, TT hit rate, and wall time — the inputs `snetctl bench
//! diff` compares across runs.
//!
//! Usage: `cargo run --release -p snet-bench --bin search_frontier
//! [-- -o results/search_frontier.json] [--threads N] [--full]
//! [--baseline-dir DIR] [--only LABEL] [--flight]`
//!
//! `--flight` enables the in-memory flight recorder for the scenario
//! runs, so CI can diff a flight-on baseline against a flight-off one
//! and gate the recorder's overhead.

use snet_obs::Baseline;
use snet_search::{search, Frontier, SearchConfig, SearchMode, SearchOutcome};

/// The stable per-scenario label, also the baseline file stem.
fn scenario_label(n: usize, mode: SearchMode) -> String {
    match mode {
        SearchMode::Unrestricted => format!("search_n{n}"),
        SearchMode::ShuffleLegal => format!("search_shuffle_n{n}"),
    }
}

/// Derives the cross-run comparison metrics for one scenario and writes
/// them as a baseline file.
fn write_baseline(outcome: &SearchOutcome, dir: &str) {
    let label = scenario_label(outcome.n, outcome.mode);
    let elapsed_ms: u64 = outcome.rounds.iter().map(|r| r.elapsed_ms).sum();
    let manifest = snet_obs::RunManifest::capture("search_frontier");
    let mut baseline = Baseline::new(&label, &manifest)
        .metric("wall_ms", elapsed_ms as f64)
        .metric("nodes_total", outcome.totals.nodes as f64)
        .metric("tt_hit_rate", outcome.totals.tt_hit_rate());
    if elapsed_ms > 0 {
        baseline = baseline
            .metric("states_per_sec", outcome.totals.nodes as f64 * 1000.0 / elapsed_ms as f64);
    }
    let path = std::path::Path::new(dir).join(format!("{label}.json"));
    baseline.save(&path).expect("write baseline");
    eprintln!("baseline written to {}", path.display());
}

fn report(outcome: &SearchOutcome) {
    eprintln!(
        "[{} n={}] optimal depth {:?}, {} nodes in {} ms, tt hit rate {:.3}",
        outcome.mode.name(),
        outcome.n,
        outcome.optimal_depth,
        outcome.totals.nodes,
        outcome.rounds.iter().map(|r| r.elapsed_ms).sum::<u64>(),
        outcome.totals.tt_hit_rate(),
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out = String::from("results/search_frontier.json");
    let mut baseline_dir = String::from("results/baselines");
    let mut only: Option<String> = None;
    let mut threads = 0usize;
    let mut full = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "-o" => {
                i += 1;
                out = args[i].clone();
            }
            "--baseline-dir" => {
                i += 1;
                baseline_dir = args[i].clone();
            }
            "--only" => {
                i += 1;
                only = Some(args[i].clone());
            }
            "--threads" => {
                i += 1;
                threads = args[i].parse().expect("--threads takes a count");
            }
            "--full" => full = true,
            "--flight" => snet_obs::enable_flight(None),
            other => {
                eprintln!("unknown flag {other}");
                std::process::exit(2);
            }
        }
        i += 1;
    }

    let mut scenarios: Vec<(usize, SearchMode)> = vec![
        (5, SearchMode::Unrestricted),
        (6, SearchMode::Unrestricted),
        (7, SearchMode::Unrestricted),
        (4, SearchMode::ShuffleLegal),
    ];
    if full {
        // ~2 minutes in release: the depth-5 refutation at n = 8.
        scenarios.push((8, SearchMode::Unrestricted));
    }
    if let Some(label) = &only {
        scenarios.retain(|&(n, mode)| &scenario_label(n, mode) == label);
        if scenarios.is_empty() {
            eprintln!("--only {label} matches no scenario");
            std::process::exit(2);
        }
    }

    let runs: Vec<SearchOutcome> = scenarios
        .iter()
        .map(|&(n, mode)| {
            let mut cfg = SearchConfig::new(n, mode);
            if threads > 0 {
                cfg.threads = threads;
            }
            let outcome = search(&cfg);
            write_baseline(&outcome, &baseline_dir);
            report(&outcome);
            outcome
        })
        .collect();

    let manifest = snet_obs::RunManifest::capture("search_frontier");
    let doc = Frontier::Runs(&runs).to_value(&manifest);
    if let Some(dir) = std::path::Path::new(&out).parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    let text = serde_json::to_string_pretty(&doc).expect("serialize frontier");
    std::fs::write(&out, text).expect("write frontier");
    eprintln!("wrote {out}");
}
