//! **E8 — inter-block permutations are free (Section 3.2).**
//!
//! The paper may insert an arbitrary fixed permutation between blocks
//! because any permutation routes through `O(lg n)` switch levels (the
//! cited `3d−4` shuffle-exchange results; here the Beneš looping algorithm,
//! `2 lg n − 1` levels). We route batches of random and structured
//! permutations and verify realization; comparator count is always zero,
//! so routing adds nothing to comparator depth.

use crate::common::{emit, ExpConfig};
use crate::{sweep, Table, Workload};
use snet_core::perm::Permutation;
use snet_topology::benes::{realizes, route_permutation};

/// Runs E8 and prints/saves its table.
pub fn run(cfg: &ExpConfig) {
    let mut points = Vec::new();
    for &l in &cfg.lg_sizes() {
        points.push(l);
    }
    if cfg.full {
        points.push(16);
    }
    let seed = cfg.seed;
    let rows = sweep(points, cfg.threads, |&l| {
        let n = 1usize << l;
        let mut w = Workload::new(seed ^ (l as u64) << 3);
        let batch = 50usize;
        let mut ok = 0usize;
        let mut depth = 0usize;
        let mut comparators = 0usize;
        for _ in 0..batch {
            let p = Permutation::random(n, w.rng());
            let net = route_permutation(&p);
            depth = net.depth();
            comparators += net.size();
            if realizes(&net, &p) {
                ok += 1;
            }
        }
        for p in [Permutation::bit_reversal(n), Permutation::shuffle(n), Permutation::unshuffle(n)]
        {
            let net = route_permutation(&p);
            if realizes(&net, &p) {
                ok += 1;
            }
        }
        vec![
            n.to_string(),
            format!("{}", batch + 3),
            ok.to_string(),
            depth.to_string(),
            (2 * l - 1).to_string(),
            comparators.to_string(),
        ]
    });

    let mut table = Table::new(
        "E8 — Beneš routing of arbitrary permutations (switch levels only)",
        &["n", "perms routed", "verified", "depth", "2 lg n - 1", "comparators"],
    );
    for r in rows {
        table.row(r);
    }
    emit(&table, "e8_routing.csv");
}
