//! **E1 — Lemma 4.1 on a single reverse delta network.**
//!
//! Claim (Lemma 4.1): with `t(l) = k³ + l·k²` sets, the surviving mass is
//! `|B| ≥ |A|·(1 − l/k²)`. We run the constructive lemma with `k = lg n`
//! on three topologies and report measured mass, the guaranteed floor, the
//! largest single set, and how often a zero-loss matching offset existed.

use crate::common::{dense_cfg, emit, ExpConfig};
use crate::{fmt_f, sweep, Table};
use rand::SeedableRng;
use snet_adversary::lemma41::{lemma41, t_of};
use snet_pattern::{Pattern, Symbol};
use snet_topology::random::{random_reverse_delta, SplitStyle};
use snet_topology::ReverseDelta;

/// Runs E1 and prints/saves its table.
pub fn run(cfg: &ExpConfig) {
    let mut points = Vec::new();
    for &l in &cfg.lg_sizes() {
        for topo in ["butterfly", "random-bit", "random-free"] {
            points.push((l, topo));
        }
    }
    let seed = cfg.seed;
    let rows = sweep(points, cfg.threads, |&(l, topo)| {
        let n = 1usize << l;
        let delta = match topo {
            "butterfly" => ReverseDelta::butterfly(l),
            "random-bit" => {
                let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ l as u64);
                random_reverse_delta(l, &dense_cfg(SplitStyle::BitSplit), &mut rng)
            }
            _ => {
                let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ (l as u64) << 8);
                random_reverse_delta(l, &dense_cfg(SplitStyle::FreeSplit), &mut rng)
            }
        };
        let k = l;
        let p = Pattern::uniform(n, Symbol::M(0));
        let out = lemma41(&delta, &p, k);
        let guaranteed = n as f64 * (1.0 - l as f64 / (k * k) as f64);
        let largest = out.family.largest().map(|(_, s)| s.len()).unwrap_or(0);
        let zero_nodes: usize = out.audit.per_height.iter().map(|h| h.zero_loss_nodes).sum();
        let nodes: usize = out.audit.per_height.iter().map(|h| h.nodes).sum();
        vec![
            n.to_string(),
            topo.to_string(),
            t_of(k, l).to_string(),
            out.family.mass().to_string(),
            fmt_f(guaranteed),
            out.family.nonempty_count().to_string(),
            largest.to_string(),
            out.audit.total_loss().to_string(),
            format!("{:.0}%", 100.0 * zero_nodes as f64 / nodes.max(1) as f64),
        ]
    });

    let mut table = Table::new(
        "E1 — Lemma 4.1 survival on one reverse delta network (k = lg n)",
        &[
            "n",
            "topology",
            "t(l) sets",
            "|B| measured",
            "|B| guaranteed",
            "nonempty",
            "largest set",
            "evicted",
            "zero-loss nodes",
        ],
    );
    for r in rows {
        table.row(r);
    }
    emit(&table, "e1_lemma.csv");
}
