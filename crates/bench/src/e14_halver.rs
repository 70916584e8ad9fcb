//! **E14 — approximate sorting with ε-halvers (the AKS/LP-flavoured
//! substitute, see DESIGN.md).**
//!
//! Where truncated Batcher has an average-case cliff (E7), halver-based
//! circuits have the smooth profile the Section 5 discussion requires:
//! measured ε of random-matching halvers drops geometrically with depth,
//! and a halver tree plus a short odd-even cleanup sorts a rapidly growing
//! fraction of random inputs at `O(lg n)`-ish depth — while, being just
//! comparator networks, they remain *worst-case* incorrect (random
//! refutation search finds counterexamples), in line with the paper's
//! worst-vs-average separation.

use crate::common::{emit, ExpConfig};
use crate::{fmt_f, sweep, Table, Workload};
use snet_core::ir::Executor;
use snet_core::sortcheck::check_random_permutations;
use snet_sorters::halver::{
    halver_sorter, halver_tree_parallel_depth, measure_epsilon, random_halver,
};

/// Runs E14 and prints/saves its tables.
pub fn run(cfg: &ExpConfig) {
    let l = if cfg.full { 9 } else { 7 };
    let n = 1usize << l;
    let seed = cfg.seed;

    // Part A: ε vs halver depth.
    let depths: Vec<usize> = vec![1, 2, 4, 6, 8, 12];
    let rows = sweep(depths.clone(), cfg.threads, |&d| {
        let mut w = Workload::new(seed ^ d as u64);
        let halver = random_halver(n, d, w.rng());
        let eps = measure_epsilon(&halver, 600, w.rng());
        vec![n.to_string(), d.to_string(), fmt_f(eps)]
    });
    let mut ta = Table::new(
        "E14a — measured ε of random-matching halvers vs depth",
        &["n", "matchings", "ε (max observed)"],
    );
    for r in rows {
        ta.row(r);
    }
    emit(&ta, "e14a_epsilon.csv");

    // Part B: fraction sorted of halver tree + cleanup.
    let mut points = Vec::new();
    for hd in [2usize, 4, 6] {
        for cleanup in [0usize, l, 2 * l, 4 * l] {
            points.push((hd, cleanup));
        }
    }
    let trials = cfg.trials() / 2;
    let threads = cfg.threads;
    let rows = sweep(points, 1, |&(hd, cleanup)| {
        let mut w = Workload::new(seed ^ ((hd as u64) << 8) ^ cleanup as u64);
        let net = halver_sorter(n, hd, cleanup, w.rng());
        let inputs = w.permutations(n, trials as usize);
        let sorted = Executor::compile(&net).count_sorted(&inputs, threads);
        // Worst case: still refutable by search?
        let worst = if check_random_permutations(&net, 30_000, w.rng()).is_sorting() {
            "none found"
        } else {
            "counterexample"
        };
        vec![
            n.to_string(),
            hd.to_string(),
            cleanup.to_string(),
            (halver_tree_parallel_depth(n, hd) + cleanup).to_string(),
            fmt_f(sorted as f64 / trials as f64),
            worst.to_string(),
        ]
    });
    let mut tb = Table::new(
        "E14b — halver tree + odd-even cleanup: fraction of random inputs sorted",
        &["n", "halver depth", "cleanup", "total depth", "frac sorted", "worst case"],
    );
    for r in rows {
        tb.row(r);
    }
    emit(&tb, "e14b_halver_sorter.csv");
}
