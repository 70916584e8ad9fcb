//! **E7 — figure: average-case vs worst-case (Section 5).**
//!
//! The paper's point: the `Ω(lg²n/lg lg n)` bound is inherently worst-case
//! — by Leighton–Plaxton, shallow shuffle-based circuits already sort
//! *almost all* inputs, so no such bound can hold on average. We measure,
//! for bitonic prefixes of increasing depth:
//!
//! * the fraction of random permutations sorted **perfectly** (a step
//!   function — it only lifts in the final merge phase),
//! * mean normalized inversions and mean/max dislocation (honest finding:
//!   for *bitonic* these stay near the random baseline until the final
//!   merge phase — Batcher sorts "suddenly", which is precisely why the
//!   Leighton–Plaxton average-case circuit needs a different construction),
//! * the paper's own §5 average-case notion, the **settle depth** (first
//!   level after which the input stops moving), whose mean over random
//!   inputs sits measurably below the worst case,
//! * and whether the Section 4 adversary still **refutes** the prefix in
//!   the worst case — it does, at every depth short of the full sorter.

use crate::common::{emit, ExpConfig};
use crate::{fmt_f, sweep, wilson95, Table, Workload};
use crate::{inversions, max_dislocation, mean_dislocation};
use snet_adversary::theorem41;
use snet_core::sortcheck::is_sorted;
use snet_core::trace::settle_depth;
use snet_sorters::randomized::{bitonic_prefix, randomizing_block};

/// Runs E7 and prints/saves its figure series.
pub fn run(cfg: &ExpConfig) {
    let l = if cfg.full { 10 } else { 8 };
    let n = 1usize << l;
    let full_stages = l * l;
    // Coarse cuts through the body plus fine cuts through the final block.
    let mut cuts: Vec<usize> = (0..=4).map(|i| i * full_stages / 4).collect();
    for dl in 1..l {
        cuts.push(full_stages - dl);
    }
    cuts.sort_unstable();
    cuts.dedup();
    let seed = cfg.seed;
    let trials = (cfg.trials() / 4).max(200);
    let rows = sweep(cuts, cfg.threads, |&stages| {
        let prefix = bitonic_prefix(n, stages);
        let net = prefix.to_network();
        let exec = crate::common::compiled(&net);
        let mut w = Workload::new(seed ^ stages as u64);
        let mut sorted = 0u64;
        let mut inv_sum = 0.0f64;
        let mut disl_sum = 0.0f64;
        let mut maxdisl = 0u32;
        let mut settle_sum = 0usize;
        let mut settle_max = 0usize;
        let max_inv = (n * (n - 1) / 2) as f64;
        for t in 0..trials {
            let input = w.permutation(n);
            let out = exec.evaluate(&input);
            if is_sorted(&out) {
                sorted += 1;
            }
            inv_sum += inversions(&out) as f64 / max_inv;
            disl_sum += mean_dislocation(&out);
            maxdisl = maxdisl.max(max_dislocation(&out));
            if t < 100 {
                // Settle depth is a full per-level resimulation; sample it.
                let s = settle_depth(&net, &input);
                settle_sum += s;
                settle_max = settle_max.max(s);
            }
        }
        let (lo, hi) = wilson95(sorted, trials);

        // Randomized-head variant (Section 5 randomizing elements).
        let rand_net =
            randomizing_block(n, l, w.rng()).to_network().then(None, &prefix.to_network());
        let rand_exec = crate::common::compiled(&rand_net);
        let mut sorted_r = 0u64;
        for _ in 0..trials.min(500) {
            let input = w.permutation(n);
            if is_sorted(&rand_exec.evaluate(&input)) {
                sorted_r += 1;
            }
        }

        // Worst case: does the adversary still refute this prefix?
        let refuted = if stages == 0 {
            "refuted"
        } else {
            let ird = prefix.to_iterated_reverse_delta();
            let out = theorem41(&ird, l);
            if out.d_set.len() >= 2 {
                "refuted"
            } else {
                "-"
            }
        };
        vec![
            n.to_string(),
            stages.to_string(),
            fmt_f(sorted as f64 / trials as f64),
            format!("[{},{}]", fmt_f(lo), fmt_f(hi)),
            fmt_f(inv_sum / trials as f64),
            fmt_f(disl_sum / trials as f64),
            maxdisl.to_string(),
            format!("{:.1}/{}", settle_sum as f64 / trials.min(100) as f64, settle_max),
            fmt_f(sorted_r as f64 / trials.min(500) as f64),
            refuted.to_string(),
        ]
    });

    // Settle-depth distribution of the FULL sorter (the paper's §5
    // average-case measure): most inputs settle before the last level.
    {
        use snet_sorters::bitonic_shuffle;
        let net = bitonic_shuffle(n).to_network();
        let mut w = Workload::new(seed ^ 0x5E77);
        let mut depths: Vec<usize> =
            (0..200).map(|_| settle_depth(&net, &w.permutation(n))).collect();
        depths.sort_unstable();
        let mean = depths.iter().sum::<usize>() as f64 / depths.len() as f64;
        let quantile = |q: f64| depths[(q * (depths.len() - 1) as f64).round() as usize];
        println!(
            "Settle-depth distribution, full bitonic (n = {n}, {} levels): mean {mean:.1}, p50 {}, p95 {}, max {}",
            net.depth(),
            quantile(0.5),
            quantile(0.95),
            quantile(1.0),
        );
    }

    let mut table = Table::new(
        "E7 — average-case sortedness vs prefix depth (bitonic prefixes)",
        &[
            "n",
            "stages",
            "frac sorted",
            "wilson 95%",
            "norm inversions",
            "mean dislocation",
            "max dislocation",
            "settle mean/max",
            "frac (rand head)",
            "worst case",
        ],
    );
    for r in rows {
        table.row(r);
    }
    emit(&table, "e7_average.csv");
}
