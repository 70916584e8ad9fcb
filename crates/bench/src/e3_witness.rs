//! **E3 — Corollary 4.1.1: end-to-end refutation.**
//!
//! Claim: every `(d, lg n)`-iterated reverse delta network with
//! `d < lg n / (4 lg lg n)` fails to sort, witnessed by two inputs the
//! network maps to the same output permutation. For each `(n, d)` we run
//! the adversary, extract the witness pair, and *re-verify it against the
//! real network* — the `verified` column is an independent evaluation, not
//! the adversary's bookkeeping. We also report the empirical maximum depth
//! refuted (blocks survived), which far exceeds the theoretical cutoff.

use crate::common::{dense_cfg, emit, ExpConfig};
use crate::{fmt_f, sweep, Table};
use rand::SeedableRng;
use snet_adversary::{refute, theorem41};
use snet_sorters::bitonic_shuffle;
use snet_topology::random::{random_iterated, SplitStyle};
use snet_topology::IteratedReverseDelta;

/// Runs E3 and prints/saves its table.
pub fn run(cfg: &ExpConfig) {
    let mut points: Vec<(usize, usize, &str)> = Vec::new();
    for &l in &cfg.lg_sizes() {
        for d in [1usize, 2, 3, l / 2, l] {
            if d >= 1 && d <= l {
                points.push((l, d, "random-ird"));
            }
        }
        points.push((l, l, "bitonic"));
    }
    points.dedup();
    let seed = cfg.seed;
    let rows = sweep(points, cfg.threads, |&(l, d, topo)| {
        let n = 1usize << l;
        let ird: IteratedReverseDelta = match topo {
            "bitonic" => bitonic_shuffle(n).to_iterated_reverse_delta(),
            _ => {
                let mut rng =
                    rand::rngs::StdRng::seed_from_u64(seed ^ ((l as u64) << 16) ^ d as u64);
                random_iterated(d, l, &dense_cfg(SplitStyle::BitSplit), true, &mut rng)
            }
        };
        let out = theorem41(&ird, l);
        let survived = out.blocks_survived();
        let theory_cutoff = l as f64 / (4.0 * (l as f64).log2());
        let (witness, verified) = if out.d_set.len() >= 2 {
            let net = ird.to_network();
            match refute(&net, &out.input_pattern) {
                Ok(r) => ("yes".to_string(), r.verify(&net).is_ok().to_string()),
                Err(_) => ("no".into(), "-".into()),
            }
        } else {
            ("no".into(), "-".into())
        };
        vec![
            n.to_string(),
            topo.to_string(),
            d.to_string(),
            out.d_set.len().to_string(),
            survived.to_string(),
            fmt_f(theory_cutoff),
            witness,
            verified,
        ]
    });

    let mut table = Table::new(
        "E3 — Corollary 4.1.1: witnesses that the network does not sort",
        &[
            "n",
            "network",
            "blocks d",
            "|D| final",
            "blocks survived",
            "theory cutoff d*",
            "witness",
            "verified",
        ],
    );
    for r in rows {
        table.row(r);
    }
    emit(&table, "e3_witness.csv");
}
