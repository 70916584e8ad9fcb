//! **E12 — ablations of the adversary's design choices.**
//!
//! The proof leaves two choices open, and the implementation adds a third:
//!
//! * **offset policy** — the averaging argument only promises *some*
//!   offset with loss ≤ `|B₀|/k²`; we ablate argmin (ours) vs the first
//!   feasible offset (the proof's promise verbatim) vs no matching at all
//!   (`AlwaysZero`, inadmissible — shows the matching is load-bearing);
//! * **set choice** — largest set (the theorem's averaging) vs first
//!   nonempty;
//! * **k** — the paper fixes `k = lg n`; we sweep it.
//!
//! Metric: blocks survived (`|D| ≥ 2`) and final `|D|` on bitonic (a true
//! sorter: survival is capped at `lg n − 1`) and deep random IRDs.

use crate::common::{dense_cfg, emit, ExpConfig};
use crate::{sweep, Table};
use rand::SeedableRng;
use snet_adversary::{theorem41_with, AdversaryConfig, OffsetPolicy, SetChoice};
use snet_sorters::bitonic_shuffle;
use snet_topology::random::{random_iterated, SplitStyle};

/// Runs E12 and prints/saves its table.
pub fn run(cfg: &ExpConfig) {
    let l = if cfg.full { 10 } else { 8 };
    let n = 1usize << l;
    let mut points = Vec::new();
    for topo in ["bitonic", "random-ird"] {
        for offset in [OffsetPolicy::ArgMin, OffsetPolicy::FirstFeasible, OffsetPolicy::AlwaysZero]
        {
            points.push((topo, offset, SetChoice::Largest, l));
        }
        points.push((topo, OffsetPolicy::ArgMin, SetChoice::FirstNonempty, l));
        for k in [2usize, l / 2, 2 * l] {
            points.push((topo, OffsetPolicy::ArgMin, SetChoice::Largest, k));
        }
    }
    let seed = cfg.seed;
    let rows = sweep(points, cfg.threads, |&(topo, offset, set_choice, k)| {
        let ird = match topo {
            "bitonic" => bitonic_shuffle(n).to_iterated_reverse_delta(),
            _ => {
                let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0xE12);
                random_iterated(2 * l, l, &dense_cfg(SplitStyle::BitSplit), true, &mut rng)
            }
        };
        let acfg = AdversaryConfig { k, offset, set_choice };
        let out = theorem41_with(&ird, &acfg);
        let total_loss: usize = out.audits.iter().map(|a| a.total_loss()).sum();
        vec![
            topo.to_string(),
            format!("{offset:?}"),
            format!("{set_choice:?}"),
            k.to_string(),
            out.blocks_survived().to_string(),
            out.d_set.len().to_string(),
            total_loss.to_string(),
        ]
    });

    let mut table = Table::new(
        format!("E12 — adversary ablations (n = {n}; bitonic caps survival at lg n − 1)"),
        &["network", "offset policy", "set choice", "k", "blocks survived", "|D| final", "evicted"],
    );
    for r in rows {
        table.row(r);
    }
    emit(&table, "e12_ablation.csv");
}
