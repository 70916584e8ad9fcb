//! Scenario: shipping a refutation to someone who doesn't trust you.
//!
//! Your adversary run says a proposed 64-lane shuffle unit cannot sort.
//! The unit's designers won't take your word (or your library's) for it —
//! so you hand them a [`LowerBoundCertificate`]: a JSON bundle containing
//! the network, the final pattern, the uncompared set, and the witness
//! pair. Their auditor re-checks everything against base semantics only:
//! evaluation, comparison tracing, and pattern refinement.
//!
//! ```text
//! cargo run --release -p snet-bench --example certificates
//! ```

use snet_adversary::{theorem41, LowerBoundCertificate};
use snet_bench::Workload;
use snet_topology::random::random_shuffle_network;

fn main() {
    let n = 64usize;
    let l = 6usize;
    let mut w = Workload::new(31);

    // The disputed unit: 2 blocks of shuffle stages.
    let unit = random_shuffle_network(n, 2 * l, 1.0, w.rng());
    let ird = unit.to_iterated_reverse_delta();
    let net = ird.to_network();

    // Your side: run the adversary and assemble the certificate.
    let run = theorem41(&ird, l);
    println!("adversary: |D| = {} mutually-uncompared wires", run.d_set.len());
    let cert = LowerBoundCertificate::from_run(&net, &run).expect("refutable");
    let json = serde_json::to_string_pretty(&cert).unwrap();
    println!("certificate: {} bytes of JSON, D = {:?}", json.len(), cert.d_set);

    // Their side: parse and audit with independent checks.
    let received: LowerBoundCertificate = serde_json::from_str(&json).unwrap();
    received.check(500, 0xA0D17).expect("the auditor's sampled check must pass");
    println!("auditor: certificate VALID (500 sampled refinements, witness re-verified)");

    // Tampering is caught.
    let mut forged = received.clone();
    forged.witness.m = forged.witness.m.wrapping_add(1);
    match forged.check(50, 1) {
        Err(e) => println!("auditor vs forgery: REJECTED ({e})"),
        Ok(()) => unreachable!("forgeries must not pass"),
    }

    // And the certificate is more than two bad inputs: all |D|! orderings
    // of the uncompared block are indistinguishable to the unit.
    let class = snet_adversary::witness::IndistinguishableClass::from_pattern(&run.input_pattern);
    println!(
        "bonus: the unit cannot distinguish {} input orderings of the D block (|D|! = {})",
        class.size(),
        class.size()
    );
}
