//! End-to-end search correctness: known optimal depths, shuffle-legal
//! optima bracketed by the adversary floor, witness verification, and
//! thread-count independence of the full outcome.
//!
//! The larger instances (`n = 7, 8` unrestricted and `n = 8` shuffle)
//! are release-only: debug builds skip them via `cfg_attr(debug_assertions,
//! ignore)`, CI runs them under `cargo test --release`.

use snet_search::{search, SearchConfig, SearchMode};

fn config(n: usize, mode: SearchMode, threads: usize) -> SearchConfig {
    let mut cfg = SearchConfig::new(n, mode);
    cfg.threads = threads;
    cfg
}

fn assert_optimal(n: usize, mode: SearchMode, expect: usize) {
    let out = search(&config(n, mode, 2));
    assert_eq!(out.optimal_depth, Some(expect), "n={n} {}", mode.name());
    assert_eq!(out.verified(), Some(true), "witness must pass the sharded 0-1 check");
    let net = out.network.expect("witness present");
    assert_eq!(net.wires(), n);
    assert_eq!(net.comparator_depth(), expect, "witness depth matches the reported optimum");
    // Every earlier budget round was refuted, and the floor was respected.
    assert_eq!(out.rounds.last().map(|r| r.budget), Some(expect));
    for round in &out.rounds[..out.rounds.len() - 1] {
        assert!(!round.sat);
    }
    assert!(out.floor <= expect, "floor must stay admissible");
}

#[test]
fn unrestricted_optimal_depths_small() {
    for (n, d) in [(2usize, 1usize), (3, 3), (4, 3), (5, 5), (6, 5)] {
        assert_optimal(n, SearchMode::Unrestricted, d);
    }
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release-only: deep refutation rounds")]
fn unrestricted_optimal_depth_n7() {
    assert_optimal(7, SearchMode::Unrestricted, 6);
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release-only: deep refutation rounds")]
fn unrestricted_optimal_depth_n8() {
    assert_optimal(8, SearchMode::Unrestricted, 6);
}

#[test]
fn shuffle_legal_optima_bracket_the_bound() {
    // n = 2: σ is the identity, one comparator stage sorts.
    let out2 = search(&config(2, SearchMode::ShuffleLegal, 1));
    assert_eq!(out2.optimal_depth, Some(1));
    assert_eq!(out2.verified(), Some(true));

    // n = 4: the shuffle-legal optimum must be sandwiched between the
    // adversary floor and well above the unrestricted optimum 3.
    let out4 = search(&config(4, SearchMode::ShuffleLegal, 2));
    let d4 = out4.optimal_depth.expect("a shuffle-legal sorter exists within 12 stages");
    assert!(d4 >= out4.floor, "optimum below the admissible floor");
    assert!(d4 >= 3, "shuffle-legal cannot beat the unrestricted optimum");
    assert_eq!(out4.verified(), Some(true));
    let sn = out4.shuffle.expect("shuffle witness present");
    assert_eq!(sn.depth(), d4);
    // The stage-vector witness lowers to the very network that was checked.
    assert_eq!(sn.to_network(), out4.network.expect("network present"));
}

#[test]
fn outcome_is_independent_of_thread_count() {
    for (n, mode) in [
        (5usize, SearchMode::Unrestricted),
        (6, SearchMode::Unrestricted),
        (4, SearchMode::ShuffleLegal),
    ] {
        let runs: Vec<_> = [1, 2, 8].map(|t| (t, search(&config(n, mode, t)))).into();
        let one = &runs[0].1;
        for (threads, many) in &runs {
            let what = format!("n={n} {} threads={threads}", mode.name());
            assert_eq!(one.optimal_depth, many.optimal_depth, "{what}");
            assert_eq!(one.network, many.network, "witness must not depend on SNET_THREADS");
            assert_eq!(one.shuffle, many.shuffle);
            assert_eq!(one.floor, many.floor);
            assert_eq!(
                one.rounds.iter().map(|r| (r.budget, r.sat, r.tasks)).collect::<Vec<_>>(),
                many.rounds.iter().map(|r| (r.budget, r.sat, r.tasks)).collect::<Vec<_>>(),
                "round structure must be schedule-independent"
            );
            // Every prefix task is dispatched exactly once: run or aborted.
            for r in &many.rounds {
                let dispatched: u64 = r.workers.iter().map(|w| w.tasks_run + w.tasks_aborted).sum();
                assert_eq!(dispatched, r.tasks as u64, "{what} budget={}", r.budget);
            }
        }
    }
}

#[test]
fn refutation_outcome_when_ceiling_is_below_the_optimum() {
    // n = 4 needs depth 3; capping at 2 must yield a proven refutation.
    let mut cfg = config(4, SearchMode::Unrestricted, 2);
    cfg.max_depth = 2;
    let out = search(&cfg);
    assert_eq!(out.optimal_depth, None);
    assert!(out.network.is_none() && out.verified().is_none());
    assert_eq!(out.rounds.len(), 1, "floor 2 to ceiling 2 is one round");
    assert!(!out.rounds[0].sat);
}

#[test]
fn search_agrees_with_a_known_good_sorter() {
    // Cross-check against snet-sorters: Batcher's odd-even mergesort on 4
    // wires sorts at depth >= the search optimum, and the search witness
    // really sorts.
    let out = search(&config(4, SearchMode::Unrestricted, 2));
    let opt = out.optimal_depth.expect("n=4 optimum");
    let oem = snet_sorters::odd_even_mergesort(4);
    assert!(oem.comparator_depth() >= opt, "no classical sorter beats the proven optimum");
    let check = snet_core::ir::Executor::compile(&out.network.expect("witness")).check_zero_one(2);
    assert!(check.is_sorting());
}
