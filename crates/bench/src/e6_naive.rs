//! **E6 — figure: naive single-set argument vs the pattern technique.**
//!
//! Section 2's motivation: tracking one special set loses up to half its
//! members per level (`Ω(lg n)` only), while the collection-of-sets
//! technique retains all but a `1/k²` fraction per level. We plot both
//! decays, level by level, over consecutive butterfly blocks.

use crate::common::{emit, ExpConfig};
use crate::Table;
use snet_adversary::naive::naive_adversary;
use snet_adversary::theorem41;
use snet_sorters::bitonic_shuffle;
use snet_topology::{Block, IteratedReverseDelta, ReverseDelta};

/// Runs E6 and prints/saves its figure series.
pub fn run(cfg: &ExpConfig) {
    let l = if cfg.full { 12 } else { 10 };
    let n = 1usize << l;
    // The bitonic sorter's blocks make the most interesting subject: its
    // changing direction patterns force real losses, and since it *does*
    // sort, |D| must reach 1 by the last block — the figure shows how much
    // longer the pattern technique holds out than the naive one.
    let ird = bitonic_shuffle(n).to_iterated_reverse_delta();

    // Naive technique: set size after every level of the flattened network.
    let naive = naive_adversary(&ird.to_network());

    // Pattern technique: per block, the Lemma 4.1 audit gives the mass
    // after each height; between blocks the driver keeps only the largest
    // set (the polylog haircut).
    let out = theorem41(&ird, l);

    let mut table = Table::new(
        "E6 — special-set mass per level: naive (§2) vs pattern technique (§4), butterfly blocks",
        &["n", "level", "naive |S|", "pattern mass |B|", "pattern |D| (post-block)"],
    );
    let mut level = 0usize;
    for (bi, audit) in out.audits.iter().enumerate() {
        for h in &audit.per_height {
            level += 1;
            let naive_size = naive
                .sizes_per_level
                .get(level - 1)
                .copied()
                .map(|s| s.to_string())
                .unwrap_or_else(|| "-".into());
            let post = if std::ptr::eq(h, audit.per_height.last().unwrap()) {
                out.blocks.get(bi).map(|b| b.d_size.to_string()).unwrap_or_else(|| "-".into())
            } else {
                "-".into()
            };
            table.row(vec![
                n.to_string(),
                level.to_string(),
                naive_size,
                h.mass_after.to_string(),
                post,
            ]);
        }
    }
    emit(&table, "e6_naive_vs_pattern.csv");

    // Contrast: against iterated plain butterflies (all-`+`, a non-sorting
    // network) the pattern technique plateaus — it loses nothing after the
    // first block, refuting arbitrarily deep iterates.
    let plain = IteratedReverseDelta::new(
        (0..l).map(|_| Block { pre_route: None, rdn: ReverseDelta::butterfly(l) }).collect(),
        None,
    );
    let naive_plain = naive_adversary(&plain.to_network());
    let out_plain = theorem41(&plain, l);
    let mut t2 = Table::new(
        "E6b — same comparison on iterated identical butterflies (non-sorting)",
        &["n", "blocks", "naive final |S|", "pattern final |D|"],
    );
    t2.row(vec![
        n.to_string(),
        l.to_string(),
        naive_plain.special.len().to_string(),
        out_plain.d_set.len().to_string(),
    ]);
    emit(&t2, "e6b_plain_butterflies.csv");
}
