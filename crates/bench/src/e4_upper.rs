//! **E4 — the upper-bound side: Batcher-class sorters.**
//!
//! Claim (Section 1): the best known shuffle-based sorter remains Batcher's
//! bitonic network at `Θ(lg²n)` depth, leaving a `Θ(lg lg n)` gap above the
//! paper's `Ω(lg²n / lg lg n)`. The table reports depth/size/sorting-status
//! of every baseline and the numeric gap `depth / (lg²n / lg lg n)`.

use crate::common::{emit, ExpConfig};
use crate::{fmt_f, sweep, Table, Workload};
use snet_core::network::ComparatorNetwork;
use snet_core::sortcheck::{check_random_permutations, check_zero_one_exhaustive};
use snet_sorters::{
    bitonic_circuit, bitonic_shuffle, brick_wall, odd_even_mergesort, periodic_balanced,
    pratt_network,
};

fn build(name: &str, n: usize) -> (ComparatorNetwork, bool) {
    match name {
        "bitonic-circuit" => (bitonic_circuit(n), true),
        "bitonic-shuffle" => (bitonic_shuffle(n).to_network(), true),
        "odd-even" => (odd_even_mergesort(n), false),
        "pratt-shellsort" => (pratt_network(n), false),
        "periodic-balanced" => (periodic_balanced(n), false),
        "brick-wall" => (brick_wall(n), false),
        other => panic!("unknown sorter {other}"),
    }
}

/// Runs E4 and prints/saves its table.
pub fn run(cfg: &ExpConfig) {
    let sorters = [
        "bitonic-circuit",
        "bitonic-shuffle",
        "odd-even",
        "pratt-shellsort",
        "periodic-balanced",
        "brick-wall",
    ];
    let mut points = Vec::new();
    for &l in &cfg.lg_sizes() {
        for s in sorters {
            points.push((l, s));
        }
    }
    let seed = cfg.seed;
    let trials = cfg.trials();
    let rows = sweep(points, cfg.threads, |&(l, name)| {
        let n = 1usize << l;
        let (net, shuffle_based) = build(name, n);
        let sorts = if n <= 16 {
            if check_zero_one_exhaustive(&net).is_sorting() {
                "proved (0-1)"
            } else {
                "NO"
            }
        } else {
            let mut w = Workload::new(seed ^ l as u64);
            if check_random_permutations(&net, trials, w.rng()).is_sorting() {
                "all sampled"
            } else {
                "NO"
            }
        };
        let lg = l as f64;
        let lb = lg * lg / lg.log2().max(1.0);
        vec![
            n.to_string(),
            name.to_string(),
            if shuffle_based { "yes" } else { "no" }.to_string(),
            net.comparator_depth().to_string(),
            net.size().to_string(),
            sorts.to_string(),
            fmt_f(net.comparator_depth() as f64 / lb),
        ]
    });

    let mut table = Table::new(
        "E4 — upper bounds vs the lower bound lg²n/lg lg n",
        &["n", "sorter", "shuffle-based", "cmp depth", "size", "sorts?", "depth / LB"],
    );
    for r in rows {
        table.row(r);
    }
    emit(&table, "e4_upper.csv");
}
