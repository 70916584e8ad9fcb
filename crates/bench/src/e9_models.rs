//! **E9 — equivalence of the two comparator-network models (Section 1).**
//!
//! "Given any network in one model, there exists a network in the other
//! model with the same size and depth that performs the same mapping." The
//! constructive conversions are exercised over random circuits and random
//! shuffle networks; behaviour equality is checked on batches of inputs.

use crate::common::{emit, ExpConfig};
use crate::{sweep, Table, Workload};
use rand::{Rng, SeedableRng};
use snet_core::element::{Element, ElementKind};
use snet_core::network::{ComparatorNetwork, Level};
use snet_core::perm::Permutation;
use snet_core::register::RegisterNetwork;
use snet_topology::random::random_shuffle_network;

fn random_circuit(n: usize, depth: usize, seed: u64) -> ComparatorNetwork {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut net = ComparatorNetwork::empty(n);
    for _ in 0..depth {
        let route = if rng.gen_bool(0.5) { Some(Permutation::random(n, &mut rng)) } else { None };
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

/// Runs E9 and prints/saves its table.
pub fn run(cfg: &ExpConfig) {
    let points: Vec<usize> = cfg.lg_sizes();
    let seed = cfg.seed;
    let rows = sweep(points, cfg.threads, |&l| {
        let n = 1usize << l;
        let mut w = Workload::new(seed ^ (l as u64) << 7);
        let trials = 20usize;
        let inputs_per = 25usize;
        let mut agree = 0usize;
        let mut size_preserved = 0usize;
        for t in 0..trials {
            // Circuit → register.
            let circuit = random_circuit(n, l + 2, seed ^ ((l as u64) << 9) ^ t as u64);
            let reg = RegisterNetwork::from_network(&circuit);
            if reg.size() == circuit.size() {
                size_preserved += 1;
            }
            let circuit_exec = crate::common::compiled(&circuit);
            let mut all_match = true;
            for _ in 0..inputs_per {
                let input = w.permutation(n);
                if circuit_exec.evaluate(&input) != reg.evaluate(&input) {
                    all_match = false;
                }
            }
            if all_match {
                agree += 1;
            }
            // Register (shuffle) → circuit.
            let sn = random_shuffle_network(n, l, 0.7, w.rng());
            let reg2 = sn.to_register();
            let circ2 = reg2.to_network();
            let circ2_exec = crate::common::compiled(&circ2);
            let mut all_match2 = true;
            for _ in 0..inputs_per {
                let input = w.permutation(n);
                if circ2_exec.evaluate(&input) != reg2.evaluate(&input) {
                    all_match2 = false;
                }
            }
            if all_match2 && circ2.size() == reg2.size() {
                agree += 1;
                size_preserved += 1;
            }
        }
        vec![
            n.to_string(),
            (2 * trials).to_string(),
            agree.to_string(),
            size_preserved.to_string(),
            (trials * inputs_per * 2).to_string(),
        ]
    });

    let mut table = Table::new(
        "E9 — circuit ⇄ register model equivalence (behaviour + size preservation)",
        &["n", "conversions", "behaviour-equal", "size-preserved", "inputs checked"],
    );
    for r in rows {
        table.row(r);
    }
    emit(&table, "e9_models.csv");
}
