//! Scenario: auditing a proposed shuffle-based sorting unit.
//!
//! A hardware team proposes a "fast sorter" for a 256-lane shuffle
//! datapath: 2.5·lg n blocks of randomly tuned compare-exchange stages —
//! much shallower than Batcher. Randomized testing with a few thousand
//! inputs finds no failure. The Section 4 adversary settles the question
//! constructively: it either *derives* an input the unit mis-sorts (with a
//! machine-checked witness), or runs out of leverage.
//!
//! ```text
//! cargo run --release -p snet-bench --example audit_custom_network
//! ```

use snet_adversary::{refute, theorem41};
use snet_bench::Workload;
use snet_core::sortcheck::{check_random_permutations, is_sorted};
use snet_topology::random::random_shuffle_network;

fn main() {
    let l = 8usize;
    let n = 1usize << l;
    let seed = 2026u64;
    let mut w = Workload::new(seed);

    // The proposed unit: 2.5 lg n stages ≈ 20 levels at n = 256 (a real
    // sorter needs ~36).
    let stages = 5 * l / 2;
    let unit = random_shuffle_network(n, stages, 1.0, w.rng());
    let net = unit.to_network();
    println!("proposed unit: n = {n}, {} stages, {} comparators", unit.depth(), net.size());

    // Phase 1: black-box random testing — often green, proving nothing.
    let fuzz = check_random_permutations(&net, 5_000, w.rng());
    println!("random testing (5000 inputs): {:?}", fuzz.is_sorting());

    // Phase 2: the adversary. Embed into the iterated-reverse-delta class
    // and run Theorem 4.1.
    let ird = unit.to_iterated_reverse_delta();
    let adversary = theorem41(&ird, l);
    for b in &adversary.blocks {
        println!(
            "  block {}: |D| = {:>5}   (paper floor {:.3e})",
            b.block + 1,
            b.d_size,
            b.paper_bound
        );
    }

    if adversary.d_set.len() >= 2 {
        // The embedded network differs from the unit only by a final fixed
        // relabeling (σ^pad), which cannot fix sorting: refute the embedded
        // form and demonstrate on it.
        let embedded = ird.to_network();
        let r = refute(&embedded, &adversary.input_pattern).expect("witness exists");
        r.verify(&embedded).expect("witness must verify");
        let out = embedded.evaluate(r.unsorted_witness());
        println!("\nVERDICT: not a sorting network.");
        println!("adjacent values never compared: {} and {}", r.m, r.m + 1);
        println!("failing input : {:?}", r.unsorted_witness());
        println!("unit output   : {out:?}");
        assert!(!is_sorted(&out));
        let misplaced = out.iter().enumerate().filter(|(i, &v)| v != *i as u32).count();
        println!("{misplaced} of {n} lanes end up wrong — found by construction, not search.");
    } else {
        println!("\nadversary exhausted: no witness at this depth (unit may sort).");
    }
}
