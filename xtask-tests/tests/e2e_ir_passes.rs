//! Differential suite for the IR pass pipeline. This file is one of the
//! designated interpreter-vs-IR comparison points: the leveled
//! interpreter (`ComparatorNetwork::evaluate`,
//! `sortcheck::check_zero_one_exhaustive`) serves as the independent
//! reference semantics, so direct interpreter calls are deliberate here.
//!
//! Properties pinned:
//!  * *any* sequence of passes, in any order with repetition, preserves
//!    evaluation semantics on random networks;
//!  * no pass ever increases op count, comparator count, or depth;
//!  * the pipeline is idempotent (a second run is a fixed point);
//!  * exhaustive verification reports the deterministic lowest-index
//!    counterexample, invariant under pipeline choice and thread count;
//!  * the full sorter zoo at n ≤ 8 is bit-identical between interpreter
//!    and every compiled configuration.

use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use snet_core::element::{Element, ElementKind};
use snet_core::ir::{
    Executor, NormalizeCmpRev, PassManager, Program, RedundantElim, Relayer, StripPassSwap,
};
use snet_core::network::{ComparatorNetwork, Level};
use snet_core::perm::Permutation;
use snet_core::sortcheck::{check_zero_one_exhaustive, SortCheck};
use snet_sorters::{
    bitonic_shuffle, brick_wall, odd_even_mergesort, periodic_balanced, pratt_network,
};

/// A random leveled circuit exercising routes and all four element kinds.
fn random_net(n: usize, depth: usize, seed: u64) -> ComparatorNetwork {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut net = ComparatorNetwork::empty(n);
    for _ in 0..depth {
        let route = if rng.gen_bool(0.4) { Some(Permutation::random(n, &mut rng)) } else { None };
        let mut wires: Vec<u32> = (0..n as u32).collect();
        for i in (1..n).rev() {
            let j = rng.gen_range(0..=i);
            wires.swap(i, j);
        }
        let pairs = rng.gen_range(0..=n / 2);
        let elements = (0..pairs)
            .map(|k| Element {
                a: wires[2 * k],
                b: wires[2 * k + 1],
                kind: match rng.gen_range(0..4) {
                    0 => ElementKind::Cmp,
                    1 => ElementKind::CmpRev,
                    2 => ElementKind::Pass,
                    _ => ElementKind::Swap,
                },
            })
            .collect();
        net.push_level(Level { route, elements }).unwrap();
    }
    net
}

/// Builds a pipeline from an arbitrary index sequence (with repetition).
fn pipeline_of(order: &[u8]) -> PassManager {
    let mut pm = PassManager::empty();
    for &i in order {
        pm = match i % 4 {
            0 => pm.with(NormalizeCmpRev),
            1 => pm.with(StripPassSwap),
            2 => pm.with(RedundantElim::default()),
            _ => pm.with(Relayer),
        };
    }
    pm
}

fn zoo(n: usize) -> Vec<(&'static str, ComparatorNetwork)> {
    vec![
        ("bitonic_shuffle", bitonic_shuffle(n).to_network()),
        ("odd_even", odd_even_mergesort(n)),
        ("pratt", pratt_network(n)),
        ("periodic", periodic_balanced(n)),
        ("brick_wall", brick_wall(n)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 40, ..ProptestConfig::default() })]

    #[test]
    fn any_pass_order_preserves_semantics(
        seed in 0u64..100_000,
        n in 2usize..=12,
        depth in 0usize..6,
        order in proptest::collection::vec(0u8..4, 0..8),
    ) {
        let net = random_net(n, depth, seed);
        let exec = Executor::compile_with(&net, &pipeline_of(&order));
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0xD1FF);
        for trial in 0..8u64 {
            let input: Vec<u32> = Permutation::random(n, &mut rng).images().to_vec();
            prop_assert_eq!(
                net.evaluate(&input),
                exec.evaluate(&input),
                "pipeline {:?} diverged from interpreter on trial {}",
                &order,
                trial
            );
        }
    }

    #[test]
    fn passes_never_increase_ops_size_or_depth(
        seed in 0u64..100_000,
        n in 2usize..=12,
        depth in 0usize..6,
        order in proptest::collection::vec(0u8..4, 0..8),
    ) {
        let net = random_net(n, depth, seed);
        let exec = Executor::compile_with(&net, &pipeline_of(&order));
        for r in exec.pass_records() {
            prop_assert!(r.ops_after <= r.ops_before, "{} grew ops", r.name);
            prop_assert!(r.size_after <= r.size_before, "{} grew size", r.name);
            prop_assert!(r.depth_after <= r.depth_before, "{} grew depth", r.name);
        }
        let raw = Program::from_network(&net);
        prop_assert!(exec.program().op_count() <= raw.op_count());
        prop_assert!(exec.program().size() <= raw.size());
        prop_assert!(exec.program().depth() <= raw.depth());
    }

    #[test]
    fn optimizing_pipeline_is_idempotent(
        seed in 0u64..100_000,
        n in 2usize..=10,
        depth in 0usize..6,
    ) {
        // A second run over an already-optimized program is a fixed point,
        // so compilation is deterministic and convergent.
        let net = random_net(n, depth, seed);
        let pm = PassManager::optimizing();
        let once = Executor::compile_with(&net, &pm);
        let mut again = once.program().clone();
        pm.run(&mut again);
        prop_assert_eq!(once.program(), &again);
    }

    #[test]
    fn counterexample_is_lowest_index_and_pipeline_invariant(
        seed in 0u64..100_000,
        n in 2usize..=10,
        depth in 0usize..5,
    ) {
        let net = random_net(n, depth, seed);
        let reference = check_zero_one_exhaustive(&net);
        let configs = [
            Executor::compile(&net),
            Executor::compile_with(&net, &PassManager::empty()),
            Executor::compile_with(&net, &PassManager::optimizing()),
        ];
        for exec in &configs {
            for threads in [1usize, 4] {
                let got = exec.check_zero_one(threads);
                prop_assert_eq!(
                    &got,
                    &reference,
                    "threads={} diverged from interpreter checker",
                    threads
                );
            }
        }
        // `first_unsorted_01` agrees with the checker verdict and is
        // invariant under the pipeline choice.
        let first = configs[0].first_unsorted_01();
        for exec in &configs[1..] {
            prop_assert_eq!(exec.first_unsorted_01(), first);
        }
        match (&reference, first) {
            (SortCheck::AllSorted { .. }, None) => {}
            (SortCheck::Counterexample { .. }, Some(_)) => {}
            (r, f) => prop_assert!(false, "checker said {:?} but first index is {:?}", r, f),
        }
    }
}

#[test]
fn sorter_zoo_bit_identical_at_n8() {
    // Every 0-1 input and a spread of permutation inputs, interpreter vs
    // raw, canonical, and optimizing compilations: bit-identical outputs.
    let n = 8usize;
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    for (name, net) in zoo(n) {
        let raw = Executor::compile_with(&net, &PassManager::empty());
        let canonical = Executor::compile(&net);
        let optimized = Executor::compile_with(&net, &PassManager::optimizing());
        for idx in 0u32..(1 << n) {
            let input: Vec<u32> = (0..n).map(|w| (idx >> w) & 1).collect();
            let expect = net.evaluate(&input);
            assert_eq!(expect, raw.evaluate(&input), "{name}: raw diverged at {idx:#b}");
            assert_eq!(
                expect,
                canonical.evaluate(&input),
                "{name}: canonical diverged at {idx:#b}"
            );
            assert_eq!(
                expect,
                optimized.evaluate(&input),
                "{name}: optimizing diverged at {idx:#b}"
            );
        }
        for _ in 0..50 {
            let input: Vec<u32> = Permutation::random(n, &mut rng).images().to_vec();
            let expect = net.evaluate(&input);
            assert_eq!(expect, canonical.evaluate(&input), "{name}: permutation input diverged");
            assert_eq!(expect, optimized.evaluate(&input), "{name}: permutation input diverged");
        }
        assert!(canonical.check_zero_one(2).is_sorting(), "{name} must sort");
    }
}

#[test]
fn zoo_survives_every_single_pass_alone_at_n8() {
    // Each pass applied in isolation is individually sound on the zoo.
    for (name, net) in zoo(8) {
        let reference = check_zero_one_exhaustive(&net);
        assert!(reference.is_sorting(), "{name} must sort");
        for pass in 0u8..4 {
            let exec = Executor::compile_with(&net, &pipeline_of(&[pass]));
            assert!(
                exec.check_zero_one(1).is_sorting(),
                "{name}: pass #{pass} alone broke sorting"
            );
        }
    }
}
