//! **E13 — probing the Section 6 open question: networks based on a single
//! permutation.**
//!
//! The paper asks whether a small-depth sorting network exists that is
//! based on one fixed permutation `ρ` (the shuffle being the case it
//! settles from below). We compute the *comparison-closure depth* of `ρ`
//! — the first stage by which every wire pair could have been compared —
//! which is a **necessary** lower bound on the depth of any `ρ`-based
//! sorting network, with `never` meaning no such network exists at any
//! depth. The shuffle closes in ≈ lg n stages (consistent with `lg n`
//! being the trivial lower bound the paper improves on); low-order
//! permutations (identity, bit-reversal) never close; random permutations
//! close in `O(lg n)`-ish stages, so the mixing condition alone does not
//! separate them from the shuffle — the paper's question is genuinely
//! about *sorting*, not mixing.

use crate::common::{emit, ExpConfig};
use crate::{sweep, Table};
use rand::SeedableRng;
use snet_core::perm::Permutation;
use snet_topology::mixing::comparison_closure_depth;

/// Runs E13 and prints/saves its table.
pub fn run(cfg: &ExpConfig) {
    let mut points = Vec::new();
    for &l in &cfg.lg_sizes() {
        for rho in ["shuffle", "unshuffle", "identity", "bit-reversal", "random-a", "random-b"] {
            points.push((l, rho));
        }
    }
    let seed = cfg.seed;
    let rows = sweep(points, cfg.threads, |&(l, rho_name)| {
        let n = 1usize << l;
        let rho = match rho_name {
            "shuffle" => Permutation::shuffle(n),
            "unshuffle" => Permutation::unshuffle(n),
            "identity" => Permutation::identity(n),
            "bit-reversal" => Permutation::bit_reversal(n),
            name => {
                let salt = if name.ends_with('a') { 1 } else { 2 };
                let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ (l as u64) ^ salt);
                Permutation::random(n, &mut rng)
            }
        };
        let closure = comparison_closure_depth(&rho, 8 * n);
        let (depth, verdict) = match closure {
            Some(t) => (t.to_string(), "sorting possible (necessary cond. met)"),
            None => ("never".into(), "NO sorting network exists on ρ"),
        };
        vec![
            n.to_string(),
            rho_name.to_string(),
            rho.order().to_string(),
            depth,
            l.to_string(),
            verdict.to_string(),
        ]
    });

    let mut table = Table::new(
        "E13 — §6 probe: comparison-closure depth of single-permutation networks",
        &["n", "ρ", "order(ρ)", "closure depth", "lg n", "verdict"],
    );
    for r in rows {
        table.row(r);
    }
    emit(&table, "e13_single_perm.csv");
}
