//! Algebraic laws of network composition (the `⊗`/`⊕` operators of
//! Section 3.2) and structural invariants, property-tested.

use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use snet_core::element::{Element, ElementKind};
use snet_core::network::{ComparatorNetwork, Level};
use snet_core::perm::Permutation;

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

proptest! {
    #![proptest_config(ProptestConfig { cases: 40, ..ProptestConfig::default() })]

    #[test]
    fn serial_composition_is_associative(seed in 0u64..100_000) {
        let n = 8;
        let a = random_net(n, 2, seed);
        let b = random_net(n, 2, seed ^ 1);
        let c = random_net(n, 2, seed ^ 2);
        let left = snet_core::ir::Executor::compile(&a.then(None, &b).then(None, &c));
        let right = snet_core::ir::Executor::compile(&a.then(None, &b.then(None, &c)));
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 3);
        for _ in 0..10 {
            let input: Vec<u32> = Permutation::random(n, &mut rng).images().to_vec();
            prop_assert_eq!(left.evaluate(&input), right.evaluate(&input));
        }
    }

    #[test]
    fn serial_with_links_composes_permutations(seed in 0u64..100_000) {
        // (A ⊗_p B) ⊗_q C behaves like evaluating A, routing by p, B,
        // routing by q, C.
        let n = 8;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let a = random_net(n, 2, seed ^ 10);
        let b = random_net(n, 2, seed ^ 11);
        let p = Permutation::random(n, &mut rng);
        let q = Permutation::random(n, &mut rng);
        let composed = a.then(Some(&p), &b).then(Some(&q), &ComparatorNetwork::empty(n));
        let (ca, cb) =
            (snet_core::ir::Executor::compile(&a), snet_core::ir::Executor::compile(&b));
        let cc = snet_core::ir::Executor::compile(&composed);
        for _ in 0..10 {
            let input: Vec<u32> = Permutation::random(n, &mut rng).images().to_vec();
            let manual = q.route_vec(&cb.evaluate(&p.route_vec(&ca.evaluate(&input))));
            prop_assert_eq!(cc.evaluate(&input), manual);
        }
    }

    #[test]
    fn parallel_composition_acts_independently(seed in 0u64..100_000) {
        let (na, nb) = (4usize, 8usize);
        let a = random_net(na, 3, seed ^ 20);
        let b = random_net(nb, 3, seed ^ 21);
        let ab = a.beside(&b);
        prop_assert_eq!(ab.wires(), na + nb);
        prop_assert_eq!(ab.size(), a.size() + b.size());
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 22);
        for _ in 0..10 {
            let ia: Vec<u32> = Permutation::random(na, &mut rng).images().to_vec();
            let ib: Vec<u32> =
                Permutation::random(nb, &mut rng).images().iter().map(|&v| v + 100).collect();
            let joint: Vec<u32> = ia.iter().chain(ib.iter()).copied().collect();
            let out = snet_core::ir::evaluate(&ab, &joint);
            let ea = snet_core::ir::evaluate(&a, &ia);
            let eb = snet_core::ir::evaluate(&b, &ib);
            prop_assert_eq!(&out[..na], ea.as_slice());
            prop_assert_eq!(&out[na..], eb.as_slice());
        }
    }

    #[test]
    fn depth_and_size_accounting(seed in 0u64..100_000, d1 in 0usize..4, d2 in 0usize..4) {
        let n = 8;
        let a = random_net(n, d1, seed ^ 30);
        let b = random_net(n, d2, seed ^ 31);
        let ab = a.then(None, &b);
        prop_assert_eq!(ab.depth(), a.depth() + b.depth());
        prop_assert_eq!(ab.size(), a.size() + b.size());
        prop_assert!(ab.comparator_depth() <= ab.depth());
    }

    #[test]
    fn viz_outputs_scale_with_network(seed in 0u64..100_000, d in 0usize..5) {
        let n = 8;
        let net = random_net(n, d, seed ^ 40);
        let svg = snet_core::viz::to_svg(&net);
        prop_assert!(svg.starts_with("<svg") && svg.trim_end().ends_with("</svg>"));
        // Two circles per comparator.
        prop_assert_eq!(svg.matches("<circle").count(), 2 * net.size());
        let dot = snet_core::viz::to_dot(&net);
        let dot_closed = dot.starts_with("digraph") && dot.trim_end().ends_with('\u{7d}');
        prop_assert!(dot_closed);
        // One continuation edge per wire per level.
        prop_assert_eq!(dot.matches(" -> ").count(), n * d + net.levels().iter().map(|l| l.elements.len()).sum::<usize>());
    }
}

#[test]
fn flipped_butterfly_recognizes_as_reverse_delta() {
    // §1: "a reverse delta network is obtained from a delta network by
    // flipping". The butterfly flattens identically from both recursions;
    // its topological flip reverses the level order (bits ascending), which
    // is still a one-distinct-bit-per-level block — and therefore still a
    // reverse delta network (split on the new last level's bit).
    use snet_topology::recognize::recognize_reverse_delta;
    use snet_topology::ReverseDelta;
    for l in 2..=5usize {
        let bf = ReverseDelta::butterfly(l).to_network();
        let flipped = bf.flipped();
        let rec = recognize_reverse_delta(&flipped).unwrap_or_else(|e| panic!("l={l}: {e}"));
        assert_eq!(rec.levels(), l);
        // Root now splits on bit l-1 (the flipped last level's bit).
        let (zero, _, gamma) = rec.root().as_split().unwrap();
        for e in gamma {
            assert_eq!(e.a ^ e.b, 1 << (l - 1));
        }
        assert_eq!(zero.wires().len(), 1 << (l - 1));
    }
}

#[test]
fn certificates_survive_json_and_all_pairs_verify() {
    use snet_adversary::{refute_all_pairs, theorem41, LowerBoundCertificate};
    use snet_topology::{Block, IteratedReverseDelta, ReverseDelta};
    let l = 4usize;
    let ird = IteratedReverseDelta::new(
        vec![Block { pre_route: None, rdn: ReverseDelta::butterfly(l) }],
        None,
    );
    let out = theorem41(&ird, l);
    let net = ird.to_network();
    // Every adjacent D pair verifies independently.
    let all = refute_all_pairs(&net, &out.input_pattern).unwrap();
    assert_eq!(all.len(), out.d_set.len() - 1);
    for r in &all {
        r.verify(&net).unwrap();
    }
    // The certificate round-trips through JSON and re-checks.
    let cert = LowerBoundCertificate::from_run(&net, &out).unwrap();
    let json = serde_json::to_string(&cert).unwrap();
    let back: LowerBoundCertificate = serde_json::from_str(&json).unwrap();
    back.check(100, 5).unwrap();
}
