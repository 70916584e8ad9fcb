//! Scenario: the plumbing behind the lower bound's "free" assumptions.
//!
//! Two claims the paper leans on get demonstrated concretely:
//!
//! 1. *Inter-block permutations are free* (Section 3.2) — any fixed
//!    permutation routes through `2 lg n − 1` switch-only levels (Beneš),
//!    adding zero comparator depth.
//! 2. *The two comparator-network models are equivalent* (Section 1) —
//!    we lower a shuffle-based register network to the circuit model, raise
//!    an arbitrary circuit back into `(Π_i, x̄_i)` form, and check that all
//!    representations agree on every input.
//!
//! ```text
//! cargo run --release -p snet-bench --example route_and_models
//! ```

use snet_bench::Workload;
use snet_core::perm::Permutation;
use snet_core::register::RegisterNetwork;
use snet_topology::benes::{realizes, route_permutation};
use snet_topology::ShuffleNetwork;

fn main() {
    let mut w = Workload::new(7);

    // --- 1. Beneš routing. ---
    let n = 64usize;
    let target = Permutation::random(n, w.rng());
    let router = route_permutation(&target);
    println!(
        "Beneš route on n = {n}: {} switch levels (2 lg n − 1 = {}), {} comparators",
        router.depth(),
        2 * n.trailing_zeros() as usize - 1,
        router.size()
    );
    assert!(realizes(&router, &target));
    println!("requested permutation realized exactly.\n");

    // Structured permutations route just as well.
    for (name, p) in [
        ("bit reversal", Permutation::bit_reversal(n)),
        ("shuffle σ", Permutation::shuffle(n)),
        ("unshuffle σ⁻¹", Permutation::unshuffle(n)),
    ] {
        let net = route_permutation(&p);
        println!("  {name:<13} routed and verified: {}", realizes(&net, &p));
    }

    // --- 2. Model equivalence. ---
    let n = 16usize;
    let shuffle_net = ShuffleNetwork::all_plus(n, 4); // one butterfly block
    let register = shuffle_net.to_register();
    let circuit = register.to_network();
    let register_again = RegisterNetwork::from_network(&circuit);

    println!("\nmodel round-trip on a {n}-wire butterfly block:");
    println!("  register form : {} stages, {} comparators", register.depth(), register.size());
    println!("  circuit form  : {} levels, {} comparators", circuit.depth(), circuit.size());
    println!(
        "  re-raised     : {} stages, {} comparators",
        register_again.depth(),
        register_again.size()
    );

    let mut agree = true;
    for _ in 0..200 {
        let input = w.permutation(n);
        let a = register.evaluate(&input);
        let b = circuit.evaluate(&input);
        let c = register_again.evaluate(&input);
        agree &= a == b && b == c;
    }
    println!("  200 random inputs through all three forms: identical = {agree}");
    assert!(agree);
}
