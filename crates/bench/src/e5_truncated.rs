//! **E5 — the Section 5 `f(n)`-stage extension.**
//!
//! Claim: if an arbitrary permutation is allowed every `f(n)` stages, the
//! technique yields `Ω((lg n / lg f) · f)` depth, vs an `O(lg n · f)` upper
//! bound. We sweep `f` and measure the comparator depth the adversary
//! refutes (`f ·` blocks survived) on random truncated networks, alongside
//! the paper's shape `f · lg n / lg f`.

use crate::common::{emit, ExpConfig};
use crate::{fmt_f, sweep, Table};
use rand::SeedableRng;
use snet_adversary::truncated::{truncated_adversary, TruncatedNetwork};

/// Runs E5 and prints/saves its table.
pub fn run(cfg: &ExpConfig) {
    let l = if cfg.full { 12 } else { 8 };
    let n = 1usize << l;
    let mut points = Vec::new();
    for f in [1usize, 2, 3, 4, l / 2, l] {
        if f >= 1 && f <= l {
            for k in [2usize, f.max(2), l] {
                points.push((f, k));
            }
        }
    }
    points.sort_unstable();
    points.dedup();
    let seed = cfg.seed;
    let rows = sweep(points, cfg.threads, |&(f, k)| {
        // Give the adversary plenty of blocks; it stops when |D| ≤ 1. If it
        // outlives every block we supplied, the refuted depth is a lower
        // bound and is marked "≥".
        let blocks = (16 * l.div_ceil(f)).max(8);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ ((f as u64) << 20) ^ k as u64);
        let tn = TruncatedNetwork::random(n, f, blocks, &mut rng);
        let out = truncated_adversary(&tn, k);
        let survived = out.blocks_survived();
        let capped = survived == tn.blocks().len();
        let refuted_depth = survived * f;
        let shape = f as f64 * l as f64 / (f as f64).log2().max(1.0);
        vec![
            n.to_string(),
            f.to_string(),
            k.to_string(),
            format!("{}{}", if capped { "≥" } else { "" }, survived),
            format!("{}{}", if capped { "≥" } else { "" }, refuted_depth),
            fmt_f(shape),
            fmt_f(refuted_depth as f64 / shape),
        ]
    });

    let mut table = Table::new(
        "E5 — truncated blocks: refuted comparator depth vs f (paper shape f·lg n/lg f)",
        &["n", "f", "k", "blocks survived", "refuted depth", "paper shape", "ratio"],
    );
    for r in rows {
        table.row(r);
    }
    emit(&table, "e5_truncated.csv");
}
