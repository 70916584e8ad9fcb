//! **E17 — comparator redundancy in the classic sorters.**
//!
//! A comparator that never exchanges on any 0-1 input can be replaced by a
//! pass-through without changing the network's behaviour at all (monotone
//! map argument). The bit-parallel exhaustive analysis counts such dead
//! weight in each baseline. Finding: Batcher's recursions and the brick
//! wall carry none, but the periodic balanced sorter's identical-block
//! design leaves ~40% of its comparators provably inert — context for the
//! size column of E4.

use crate::common::{emit, ExpConfig};
use crate::{sweep, Table};
use snet_core::optimize::{redundant_comparators, with_comparators_passed};
use snet_core::sortcheck::check_zero_one_exhaustive;
use snet_sorters::{
    bitonic_circuit, bitonic_shuffle, brick_wall, odd_even_mergesort, periodic_balanced,
    pratt_network,
};

/// Runs E17 and prints/saves its table.
pub fn run(cfg: &ExpConfig) {
    // Exhaustive over 2^n: n = 16 is already 65k inputs per sorter, plenty.
    let _ = cfg.full;
    let sizes: Vec<usize> = vec![4, 8, 16];
    let mut points = Vec::new();
    for &n in &sizes {
        for s in ["bitonic", "bitonic-shuffle", "odd-even", "pratt", "periodic", "brick-wall"] {
            points.push((n, s));
        }
    }
    let rows = sweep(points, cfg.threads, |&(n, name)| {
        let net = match name {
            "bitonic" => bitonic_circuit(n),
            "bitonic-shuffle" => bitonic_shuffle(n).to_network(),
            "odd-even" => odd_even_mergesort(n),
            "pratt" => pratt_network(n),
            "periodic" => periodic_balanced(n),
            _ => brick_wall(n),
        };
        let dead = redundant_comparators(&net);
        // Sanity: stripping them preserves the sorting property.
        let slim = with_comparators_passed(&net, &dead);
        let still_sorts = check_zero_one_exhaustive(&slim).is_sorting();
        vec![
            n.to_string(),
            name.to_string(),
            net.size().to_string(),
            dead.len().to_string(),
            format!("{:.1}%", 100.0 * dead.len() as f64 / net.size().max(1) as f64),
            still_sorts.to_string(),
        ]
    });

    let mut table = Table::new(
        "E17 — redundant comparators (never swap on any input; removable for free)",
        &["n", "sorter", "comparators", "redundant", "fraction", "still sorts after strip"],
    );
    for r in rows {
        table.row(r);
    }
    emit(&table, "e17_redundancy.csv");
}
