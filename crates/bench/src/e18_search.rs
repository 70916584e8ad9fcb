//! **E18 — measured optimal depths vs. the adversary floor.**
//!
//! The search subsystem sandwiches small networks: `snet_search` finds
//! the exact minimum depth from above (iterative-deepening DFS over the
//! reachable-0-1-set abstraction), while the `adversary` oracle supplies
//! the admissible floor the search itself prunes with. This experiment
//! tabulates both sides for every feasible n, in both move models.
//!
//! Findings this table pins down: unrestricted minimum depths reproduce
//! the literature values (1, 3, 3, 5, 5, 6, 6 for n = 2..8), the
//! shuffle-legal optimum at n = 4 exceeds the unrestricted one (the
//! σ-route + register-pair model pays for its rigid wiring), and the
//! floor-to-optimum gap — the price of an *admissible* bound — widens
//! with n. Every reported witness is re-verified by the sharded 0-1
//! checker before it reaches the table.

use crate::common::{emit, ExpConfig};
use crate::Table;
use snet_search::{search, SearchConfig, SearchMode};

/// Runs E18 and prints/saves its table.
pub fn run(cfg: &ExpConfig) {
    // Unrestricted n = 8 refutes depth 5 over ~10^8 nodes — release-scale
    // work, so it rides behind --full like the other deep sweeps.
    let unrestricted: Vec<usize> = if cfg.full { (2..=8).collect() } else { (2..=7).collect() };
    let shuffle: Vec<usize> = vec![2, 4];

    let mut table = Table::new(
        "E18 — measured optimal depth vs. adversary floor (search sandwich)",
        &["n", "mode", "floor", "optimal depth", "gap", "nodes", "tt hit rate", "verified"],
    );
    let mut scenarios: Vec<(usize, SearchMode)> =
        unrestricted.iter().map(|&n| (n, SearchMode::Unrestricted)).collect();
    scenarios.extend(shuffle.iter().map(|&n| (n, SearchMode::ShuffleLegal)));

    // The engine parallelizes internally — run scenarios sequentially and
    // give each the full worker budget instead of sweeping.
    for (n, mode) in scenarios {
        let mut sc = SearchConfig::new(n, mode);
        sc.threads = cfg.threads;
        let out = search(&sc);
        let depth = out.optimal_depth.expect("default ceiling suffices for n <= 8");
        let probes = out.totals.tt_hits + out.totals.tt_misses;
        table.row(vec![
            n.to_string(),
            out.mode.name().to_string(),
            out.floor.to_string(),
            depth.to_string(),
            (depth - out.floor).to_string(),
            out.totals.nodes.to_string(),
            if probes == 0 {
                "-".to_string()
            } else {
                format!("{:.1}%", 100.0 * out.totals.tt_hits as f64 / probes as f64)
            },
            out.verified().unwrap_or(false).to_string(),
        ]);
    }
    emit(&table, "e18_search.csv");
}
