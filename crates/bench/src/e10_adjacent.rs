//! **E10 — the Section 2 observation: sorting networks compare every
//! adjacent value pair.**
//!
//! For every input, a sorting network must compare `{m, m+1}` for all `m`
//! (otherwise swapping them is invisible). We measure adjacent-pair
//! coverage over random inputs for true sorters (always total) and
//! truncated networks (gaps = exactly the adversary's leverage).

use crate::common::{emit, ExpConfig};
use crate::{sweep, Table, Workload};
use snet_core::network::ComparatorNetwork;
use snet_core::trace::AdjacentCoverage;
use snet_sorters::randomized::bitonic_prefix;
use snet_sorters::{bitonic_circuit, brick_wall, odd_even_mergesort};

/// Runs E10 and prints/saves its table.
pub fn run(cfg: &ExpConfig) {
    let l = if cfg.full { 9 } else { 7 };
    let n = 1usize << l;
    let nets: Vec<(String, ComparatorNetwork)> = vec![
        ("bitonic".into(), bitonic_circuit(n)),
        ("odd-even".into(), odd_even_mergesort(n)),
        ("brick-wall".into(), brick_wall(n)),
        ("bitonic-prefix-1/4".into(), bitonic_prefix(n, l * l / 4).to_network()),
        ("bitonic-prefix-1/2".into(), bitonic_prefix(n, l * l / 2).to_network()),
        ("bitonic-prefix-3/4".into(), bitonic_prefix(n, 3 * l * l / 4).to_network()),
        ("empty".into(), ComparatorNetwork::empty(n)),
    ];
    let seed = cfg.seed;
    let rows = sweep(nets, cfg.threads, |(name, net)| {
        let mut w = Workload::new(seed ^ 0xE10);
        let inputs = w.permutations(n, 300);
        let cov = AdjacentCoverage::measure(net, inputs.iter().map(|v| v.as_slice()));
        vec![
            n.to_string(),
            name.clone(),
            cov.inputs.to_string(),
            cov.fully_covered.to_string(),
            format!("{}/{}", cov.min_covered, cov.total_adjacent),
        ]
    });

    let mut table = Table::new(
        "E10 — adjacent value-pair comparison coverage over random inputs",
        &["n", "network", "inputs", "fully covered", "min covered"],
    );
    for r in rows {
        table.row(r);
    }
    emit(&table, "e10_adjacent.csv");
}
