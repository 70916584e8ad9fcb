//! **E2 — Theorem 4.1 across blocks (figure series).**
//!
//! Claim: after `d` blocks, the surviving noncolliding set has
//! `|D| ≥ n / lg^{4d} n`. The paper's bound is extremely loose for
//! practical `n` (it drops below 1 after one block for `n ≤ 2^16`); the
//! measured series shows how much the constructive adversary actually
//! retains — the empirical "who wins by what factor" shape.

use crate::common::{dense_cfg, emit, ExpConfig};
use crate::{ascii_chart, fmt_f, sweep, Series, Table};
use rand::SeedableRng;
use snet_adversary::theorem41;
use snet_sorters::bitonic_shuffle;
use snet_topology::random::{random_iterated, SplitStyle};

/// Runs E2 and prints/saves its series.
pub fn run(cfg: &ExpConfig) {
    let mut points = Vec::new();
    for &l in &cfg.lg_sizes() {
        points.push((l, "bitonic"));
        points.push((l, "random-ird"));
    }
    let seed = cfg.seed;
    let rows_per_point = sweep(points, cfg.threads, |&(l, topo)| {
        let n = 1usize << l;
        let ird = match topo {
            "bitonic" => bitonic_shuffle(n).to_iterated_reverse_delta(),
            _ => {
                let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ (l as u64) << 4);
                random_iterated(l, l, &dense_cfg(SplitStyle::BitSplit), true, &mut rng)
            }
        };
        let out = theorem41(&ird, l);
        out.blocks
            .iter()
            .map(|b| {
                vec![
                    n.to_string(),
                    topo.to_string(),
                    (b.block + 1).to_string(),
                    b.d_size.to_string(),
                    fmt_f(b.paper_bound),
                    b.retained_mass.to_string(),
                    b.nonempty_sets.to_string(),
                ]
            })
            .collect::<Vec<_>>()
    });

    let mut table = Table::new(
        "E2 — Theorem 4.1: |D| per block vs the paper bound n/lg^{4d} n",
        &["n", "network", "block d", "|D| measured", "paper bound", "mass |B''|", "sets"],
    );
    let mut series: Vec<Series> = Vec::new();
    for rows in rows_per_point {
        if let Some(first) = rows.first() {
            let label = format!("{}@n={}", &first[1], &first[0]);
            let glyph_label =
                if first[1] == "bitonic" { format!("b {label}") } else { format!("r {label}") };
            let ys: Vec<f64> = rows.iter().map(|r| r[3].parse::<f64>().unwrap_or(0.0)).collect();
            series.push(Series::from_ys(glyph_label, &ys));
        }
        for r in rows {
            table.row(r);
        }
    }
    emit(&table, "e2_theorem.csv");
    // Figure: |D| decay per block, log scale (largest n only, both nets).
    let last_two: Vec<Series> = series.iter().rev().take(2).rev().cloned().collect();
    println!("{}", ascii_chart("Figure E2 — |D| per block (log scale)", &last_two, 50, 12, true));
}
