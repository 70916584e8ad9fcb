//! **E16 — the verification-cost landscape.**
//!
//! Where does the constructive adversary sit among the ways of deciding
//! "does this network sort"? We compare, per network:
//!
//! * exhaustive 0-1 checking (definitive, cost `2ⁿ`),
//! * randomized fuzzing (cost ≈ `1/p` where `p` = fraction of random
//!   inputs mis-sorted — hopeless when the failure set is a needle),
//! * the Section 4 adversary (deterministic `O(n·lg²n)`-ish, applies to
//!   class prefixes; cannot see single-comparator needles at full depth).
//!
//! Subjects: truncated bitonic (adversary's home turf), bitonic with one
//! comparator direction flipped deep inside (a needle: tiny failure set),
//! and a random full-depth IRD.

use crate::common::{dense_cfg, emit, ExpConfig};
use crate::{fmt_f, sweep, Table, Workload};
use rand::SeedableRng;
use snet_adversary::theorem41;
use snet_core::element::ElementKind;
use snet_core::network::ComparatorNetwork;
use snet_core::sortcheck::{check_zero_one_exhaustive, is_sorted, SortCheck};
use snet_sorters::bitonic_shuffle;
use snet_topology::random::{random_iterated, SplitStyle};
use snet_topology::ShuffleNetwork;

/// Bitonic with the direction of one comparator flipped at (stage, pair).
fn flipped_bitonic(n: usize, stage: usize, pair: usize) -> ShuffleNetwork {
    let base = bitonic_shuffle(n);
    let mut stages = base.stages().to_vec();
    stages[stage][pair] = match stages[stage][pair] {
        ElementKind::Cmp => ElementKind::CmpRev,
        ElementKind::CmpRev => ElementKind::Cmp,
        other => other,
    };
    ShuffleNetwork::new(n, stages)
}

fn fuzz_trials_to_failure(net: &ComparatorNetwork, cap: u64, w: &mut Workload) -> Option<u64> {
    let n = net.wires();
    let exec = crate::common::compiled(net);
    for t in 1..=cap {
        let input = w.permutation(n);
        if !is_sorted(&exec.evaluate(&input)) {
            return Some(t);
        }
    }
    None
}

/// Runs E16 and prints/saves its table.
pub fn run(cfg: &ExpConfig) {
    let l = 4usize; // n = 16 so the 0-1 ground truth stays exhaustive
    let n = 1usize << l;
    let full = l * l;
    let subjects: Vec<(&str, ShuffleNetwork)> = vec![
        ("bitonic (intact)", bitonic_shuffle(n)),
        ("bitonic prefix −1 stage", {
            let base = bitonic_shuffle(n);
            ShuffleNetwork::new(n, base.stages()[..full - 1].to_vec())
        }),
        // Flip one comparator in the LAST stage (shallow needle) and one in
        // the middle of the final merge phase (deeper needle).
        ("bitonic, flip @ last stage", flipped_bitonic(n, full - 1, 3)),
        ("bitonic, flip mid-final-phase", flipped_bitonic(n, full - 3, 2)),
        ("random IRD (lg n blocks)", {
            // Represent as shuffle network-equivalent? keep as marker; the
            // row is built below from the IRD directly.
            bitonic_shuffle(n)
        }),
    ];
    let seed = cfg.seed;
    let rows = sweep(subjects, cfg.threads, |(name, sn)| {
        let (net, adversary_d) = if *name == "random IRD (lg n blocks)" {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0xE16);
            let ird = random_iterated(l, l, &dense_cfg(SplitStyle::BitSplit), true, &mut rng);
            let out = theorem41(&ird, l);
            (ird.to_network(), out.d_set.len())
        } else {
            let ird = sn.to_iterated_reverse_delta();
            let out = theorem41(&ird, l);
            (ird.to_network(), out.d_set.len())
        };
        // Ground truth: count unsorted 0-1 inputs exhaustively (64 lanes
        // per pass through the compiled IR).
        let unsorted_01 = match check_zero_one_exhaustive(&net) {
            SortCheck::AllSorted { .. } => 0u64,
            SortCheck::Counterexample { .. } => crate::common::compiled(&net).count_unsorted_01(),
        };
        let mut w = Workload::new(seed ^ name.len() as u64);
        let fuzz = fuzz_trials_to_failure(&net, 200_000, &mut w);
        vec![
            name.to_string(),
            fmt_f(unsorted_01 as f64 / (1u64 << n) as f64),
            match fuzz {
                Some(t) => t.to_string(),
                None => "> 2e5".into(),
            },
            adversary_d.to_string(),
            if adversary_d >= 2 { "refuted" } else { "exhausted" }.to_string(),
        ]
    });

    let mut table = Table::new(
        format!("E16 — verification costs at n = {n} (0-1 ground truth exhaustive)"),
        &["network", "0-1 failure density", "fuzz trials to fail", "adversary |D|", "adversary"],
    );
    for r in rows {
        table.row(r);
    }
    emit(&table, "e16_verification.csv");
}
