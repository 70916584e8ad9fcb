//! **Corollary 4.1.1** made executable: from a pattern whose `[M_0]`-set
//! `D` has ≥ 2 elements and is noncolliding in a network `Λ`, construct two
//! concrete inputs `π, π'` that differ by exchanging the adjacent values
//! `m, m+1` across two wires of `D` — and demonstrate that `Λ` produces the
//! same permutation on both, hence fails to sort at least one of them.
//!
//! The [`SortingRefutation`] is self-verifying: [`SortingRefutation::verify`]
//! re-evaluates the *actual* network with the reference interpreter, not the
//! compiled IR [`refute`] evaluated it with, so the adversary's bookkeeping
//! cannot vouch for itself.

use serde::{Deserialize, Serialize};
use snet_core::element::WireId;
use snet_core::ir::Executor;
use snet_core::network::ComparatorNetwork;
use snet_core::sortcheck::is_sorted;
use snet_core::verdict::{Verdict, VerdictKind};
use snet_pattern::pattern::Pattern;
use snet_pattern::symbol::Symbol;

/// A machine-checkable proof that a network is not a sorting network.
/// Its JSON form is the witness file `snetctl refute -o` writes.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SortingRefutation {
    /// First witness input `π`.
    pub input_a: Vec<u32>,
    /// Second witness input `π'` (equal to `π` with the values `m`, `m+1`
    /// exchanged between `wire_pair`).
    pub input_b: Vec<u32>,
    /// The smaller of the two exchanged adjacent values.
    pub m: u32,
    /// The wires of `D` carrying `m` and `m+1` in `input_a`.
    pub wire_pair: (WireId, WireId),
    /// Network output on `input_a`.
    pub output_a: Vec<u32>,
    /// Network output on `input_b`.
    pub output_b: Vec<u32>,
}

/// Why a refutation attempt failed to materialize.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RefuteError {
    /// The pattern's `[M_0]`-set has fewer than two wires — the adversary
    /// ran out of uncompared material (the network may well sort).
    SetTooSmall {
        /// The actual size.
        size: usize,
    },
}

impl std::fmt::Display for RefuteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RefuteError::SetTooSmall { size } => {
                write!(f, "[M_0]-set has {size} < 2 wires; no witness available")
            }
        }
    }
}

impl std::error::Error for RefuteError {}

impl SortingRefutation {
    /// Independently re-verifies the refutation against `net`:
    ///
    /// 1. the two inputs are permutations differing exactly by exchanging
    ///    `m` and `m+1` between `wire_pair`;
    /// 2. re-evaluating the network reproduces the stored outputs;
    /// 3. the outputs are identical up to the `m ↔ m+1` value swap — i.e.
    ///    the network performed the *same permutation* on both inputs;
    /// 4. the two values were never compared (checked on `input_a`);
    /// 5. at least one output is unsorted.
    pub fn verify(&self, net: &ComparatorNetwork) -> Result<(), String> {
        let mut span =
            snet_obs::span("adversary.verify_witness").attr("wires", net.wires()).attr("m", self.m);
        let r = self.verify_inner(net);
        span.add_attr("ok", r.is_ok());
        r
    }

    fn verify_inner(&self, net: &ComparatorNetwork) -> Result<(), String> {
        let n = net.wires();
        let (w0, w1) = self.wire_pair;
        if self.input_a.len() != n || self.input_b.len() != n {
            return Err("input width mismatch".into());
        }
        if w0 as usize >= n || w1 as usize >= n {
            return Err("wire_pair is out of range".into());
        }
        // 1. Permutation + adjacent-transposition relation.
        let mut sorted = self.input_a.clone();
        sorted.sort_unstable();
        if sorted != (0..n as u32).collect::<Vec<_>>() {
            return Err("input_a is not a permutation".into());
        }
        if self.input_a[w0 as usize] != self.m || self.input_a[w1 as usize] != self.m + 1 {
            return Err("wire_pair does not carry m, m+1 in input_a".into());
        }
        for w in 0..n {
            let expect = if w == w0 as usize {
                self.m + 1
            } else if w == w1 as usize {
                self.m
            } else {
                self.input_a[w]
            };
            if self.input_b[w] != expect {
                return Err(format!("input_b differs from the transposition at wire {w}"));
            }
        }
        // 2. Outputs reproduce under the reference interpreter, a code
        // path independent of the compiled IR `refute` produced them with
        // (the designated verifier exception to the migration rule,
        // DESIGN §6). The pass over `input_a` also records whether the
        // values `m` and `m+1` meet a comparator, for step 4.
        let pair = (self.m, self.m + 1);
        let mut met = false;
        let output_a = net.evaluate_traced(&self.input_a, |ev| {
            met |= (ev.va.min(ev.vb), ev.va.max(ev.vb)) == pair;
        });
        if output_a != self.output_a {
            return Err("stored output_a does not match re-evaluation".into());
        }
        if net.evaluate(&self.input_b) != self.output_b {
            return Err("stored output_b does not match re-evaluation".into());
        }
        // 3. Same permutation performed.
        let swap = |v: u32| {
            if v == self.m {
                self.m + 1
            } else if v == self.m + 1 {
                self.m
            } else {
                v
            }
        };
        for w in 0..n {
            if self.output_b[w] != swap(self.output_a[w]) {
                return Err(format!(
                    "outputs are not the same permutation: wire {w} has {} vs {}",
                    self.output_a[w], self.output_b[w]
                ));
            }
        }
        // 4. The adjacent values never met a comparator.
        if met {
            return Err(format!("values {} and {} were compared", self.m, self.m + 1));
        }
        // 5. Refutation.
        if is_sorted(&self.output_a) && is_sorted(&self.output_b) {
            return Err("both outputs sorted?! outputs must differ".into());
        }
        Ok(())
    }

    /// The input whose output is unsorted (at least one exists).
    pub fn unsorted_witness(&self) -> &[u32] {
        if !is_sorted(&self.output_a) {
            &self.input_a
        } else {
            &self.input_b
        }
    }

    /// Packages the refutation as a content-addressed [`Verdict`]
    /// keyed by `net`'s canonical hash — the artifact the `snet-store`
    /// cache replays instead of re-running the adversary.
    pub fn to_verdict(&self, net: &ComparatorNetwork) -> Verdict {
        let hash = snet_core::ir::CanonicalHash::of_network(net);
        Verdict::with_kind(hash, net.wires() as u32, self.verdict_kind())
    }

    /// The [`VerdictKind::AdversaryWitness`] this refutation is stored as.
    pub fn verdict_kind(&self) -> VerdictKind {
        VerdictKind::AdversaryWitness {
            input_a: self.input_a.clone(),
            input_b: self.input_b.clone(),
            m: self.m,
            wire_a: self.wire_pair.0,
            wire_b: self.wire_pair.1,
            output_a: self.output_a.clone(),
            output_b: self.output_b.clone(),
        }
    }

    /// Reads a stored witness verdict back (`None` for the other kinds).
    /// What comes back is a claim: [`verify`](Self::verify) it before
    /// trusting it.
    pub fn from_verdict(verdict: &Verdict) -> Option<SortingRefutation> {
        let VerdictKind::AdversaryWitness {
            input_a,
            input_b,
            m,
            wire_a,
            wire_b,
            output_a,
            output_b,
        } = verdict.kind.clone()
        else {
            return None;
        };
        Some(SortingRefutation {
            input_a,
            input_b,
            m,
            wire_pair: (wire_a, wire_b),
            output_a,
            output_b,
        })
    }
}

/// Builds the Corollary 4.1.1 witness pair from a pattern over
/// `{S_0, M_0, L_0}` whose `[M_0]`-set is noncolliding in `net`.
///
/// The pattern is refined to a concrete input placing the `[M_0]`-set's
/// first two wires on adjacent values `m, m+1`; the swapped twin is derived
/// and both are evaluated. Compiles `net`; [`refute_compiled`] takes a
/// compiled network instead.
pub fn refute(
    net: &ComparatorNetwork,
    pattern: &Pattern,
) -> Result<SortingRefutation, RefuteError> {
    refute_compiled(&Executor::compile(net), pattern)
}

/// [`refute`] with `net` already compiled, as `exec`.
pub fn refute_compiled(
    exec: &Executor,
    pattern: &Pattern,
) -> Result<SortingRefutation, RefuteError> {
    let d = pattern.symbol_set(Symbol::M(0));
    let _span =
        snet_obs::span("adversary.refute").attr("wires", exec.wires()).attr("d_size", d.len());
    if d.len() < 2 {
        return Err(RefuteError::SetTooSmall { size: d.len() });
    }
    let (w0, w1) = (d[0], d[1]);
    // Tie-break within the M_0 class: w0 first, w1 second, rest by wire id.
    let input_a = pattern.to_input_with(|w| {
        if w == w0 {
            0
        } else if w == w1 {
            1
        } else {
            2
        }
    });
    debug_assert!(pattern.refines_to_input(&input_a));
    let m = input_a[w0 as usize];
    debug_assert_eq!(input_a[w1 as usize], m + 1, "w0, w1 are class-adjacent");
    let mut input_b = input_a.clone();
    input_b.swap(w0 as usize, w1 as usize);
    let output_a = exec.evaluate(&input_a);
    let output_b = exec.evaluate(&input_b);
    Ok(SortingRefutation { input_a, input_b, m, wire_pair: (w0, w1), output_a, output_b })
}

/// Builds a refutation for **every** adjacent pair of the `[M_0]`-set:
/// `|D| − 1` independent witness pairs from one adversary run (the `i`-th
/// exchanges the values on the `i`-th and `i+1`-st `D` wires). Each is
/// self-verifying like [`refute`]'s.
pub fn refute_all_pairs(
    net: &ComparatorNetwork,
    pattern: &Pattern,
) -> Result<Vec<SortingRefutation>, RefuteError> {
    let d = pattern.symbol_set(Symbol::M(0));
    if d.len() < 2 {
        return Err(RefuteError::SetTooSmall { size: d.len() });
    }
    // One base input ranks the D wires in index order; pair i then swaps
    // the adjacent values m+i, m+i+1 sitting on d[i], d[i+1]. Compile once:
    // the |D| − 1 evaluations replay the same program.
    let exec = Executor::compile(net);
    let input_base = pattern.to_input();
    let mut out = Vec::with_capacity(d.len() - 1);
    let output_base = exec.evaluate(&input_base);
    for i in 0..d.len() - 1 {
        let (w0, w1) = (d[i], d[i + 1]);
        let m = input_base[w0 as usize];
        debug_assert_eq!(input_base[w1 as usize], m + 1);
        let mut input_b = input_base.clone();
        input_b.swap(w0 as usize, w1 as usize);
        let output_b = exec.evaluate(&input_b);
        out.push(SortingRefutation {
            input_a: input_base.clone(),
            input_b,
            m,
            wire_pair: (w0, w1),
            output_a: output_base.clone(),
            output_b,
        });
    }
    Ok(out)
}

/// The *indistinguishability class* behind the witness: because the wires
/// of `D` are pairwise uncompared, the network performs the **same**
/// permutation on every input that permutes the `|D|` adjacent middle
/// values among the `D` wires — a class of `|D|!` inputs of which at most
/// one can be sorted.
#[derive(Debug, Clone)]
pub struct IndistinguishableClass {
    /// The base input (D values assigned in ascending wire order).
    pub base_input: Vec<u32>,
    /// The wires of `D`, ascending.
    pub d_wires: Vec<WireId>,
    /// The (consecutive) values occupying the `D` wires, ascending.
    pub d_values: Vec<u32>,
}

impl IndistinguishableClass {
    /// Builds the class from a pattern over `{S_0, M_0, L_0}`.
    pub fn from_pattern(pattern: &Pattern) -> Self {
        let d_wires = pattern.symbol_set(Symbol::M(0));
        let base_input = pattern.to_input();
        let mut d_values: Vec<u32> = d_wires.iter().map(|&w| base_input[w as usize]).collect();
        d_values.sort_unstable();
        IndistinguishableClass { base_input, d_wires, d_values }
    }

    /// Class size as `|D|!`, saturating at `u128::MAX`.
    pub fn size(&self) -> u128 {
        let mut acc: u128 = 1;
        for i in 2..=self.d_wires.len() as u128 {
            acc = acc.saturating_mul(i);
        }
        acc
    }

    /// The member of the class obtained by assigning `d_values` to
    /// `d_wires` in the order given by `assignment` (a permutation of
    /// `0..|D|`: wire `d_wires[i]` receives `d_values[assignment[i]]`).
    pub fn member(&self, assignment: &[usize]) -> Vec<u32> {
        assert_eq!(assignment.len(), self.d_wires.len());
        let mut input = self.base_input.clone();
        for (i, &w) in self.d_wires.iter().enumerate() {
            input[w as usize] = self.d_values[assignment[i]];
        }
        input
    }

    /// Verifies, for every given assignment, that the network performs the
    /// same permutation as on the base input — i.e. each value of the `D`
    /// block exits at the wire determined by *which `D`-wire it entered on*,
    /// independent of the assignment. Returns the number of **unsorted**
    /// members among those checked.
    pub fn verify_members(
        &self,
        net: &ComparatorNetwork,
        assignments: &[Vec<usize>],
    ) -> Result<u64, String> {
        // Compile once; the per-assignment loop replays the flat program.
        let compiled = Executor::compile(net);
        let mut scratch = Vec::new();
        // Output wire of each D-slot under the base input.
        let base_out = compiled.evaluate(&self.base_input);
        let mut slot_exit = vec![0usize; self.d_wires.len()];
        for (i, &w) in self.d_wires.iter().enumerate() {
            let v = self.base_input[w as usize];
            slot_exit[i] = base_out.iter().position(|&x| x == v).expect("value present");
        }
        let mut unsorted = 0u64;
        for assignment in assignments {
            let mut out = self.member(assignment);
            let input = out.clone();
            compiled.run_scalar_in_place(&mut out, &mut scratch);
            for (i, _) in self.d_wires.iter().enumerate() {
                let v = input[self.d_wires[i] as usize];
                if out[slot_exit[i]] != v {
                    return Err(format!(
                        "assignment {assignment:?}: D-slot {i} exited elsewhere — \
                         the class is distinguishable"
                    ));
                }
            }
            if !is_sorted(&out) {
                unsorted += 1;
            }
        }
        Ok(unsorted)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::theorem41::theorem41;
    use rand::SeedableRng;
    use snet_topology::random::{random_iterated, RandomDeltaConfig, SplitStyle};
    use snet_topology::{Block, IteratedReverseDelta, ReverseDelta};

    fn butterfly_ird(d: usize, l: usize) -> IteratedReverseDelta {
        let blocks =
            (0..d).map(|_| Block { pre_route: None, rdn: ReverseDelta::butterfly(l) }).collect();
        IteratedReverseDelta::new(blocks, None)
    }

    #[test]
    fn refutes_single_butterfly() {
        for l in 2..=6usize {
            let ird = butterfly_ird(1, l);
            let out = theorem41(&ird, l.max(2));
            let net = ird.to_network();
            let refutation = refute(&net, &out.input_pattern).expect("|D| >= 2");
            refutation.verify(&net).expect("refutation must verify");
            assert!(!snet_core::sortcheck::is_sorted(&snet_core::ir::evaluate(
                &net,
                refutation.unsorted_witness()
            )));
        }
    }

    #[test]
    fn refutes_multi_block_networks() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(404);
        for trial in 0..12u64 {
            let cfg = RandomDeltaConfig {
                split: if trial % 2 == 0 { SplitStyle::BitSplit } else { SplitStyle::FreeSplit },
                comparator_density: 1.0,
                reverse_bias: 0.5,
                swap_density: 0.0,
            };
            let ird = random_iterated(2, 4, &cfg, true, &mut rng);
            let out = theorem41(&ird, 4);
            if out.d_set.len() >= 2 {
                let net = ird.to_network();
                let refutation = refute(&net, &out.input_pattern).unwrap();
                refutation.verify(&net).unwrap_or_else(|e| panic!("trial {trial}: {e}"));
            }
        }
    }

    #[test]
    fn too_small_set_reports_error() {
        let net = ComparatorNetwork::empty(4);
        let p = Pattern::from_symbols(vec![Symbol::S(0), Symbol::M(0), Symbol::L(0), Symbol::L(0)]);
        let err = refute(&net, &p).unwrap_err();
        assert_eq!(err, RefuteError::SetTooSmall { size: 1 });
    }

    #[test]
    fn verify_rejects_tampered_refutations() {
        let l = 3;
        let ird = butterfly_ird(1, l);
        let out = theorem41(&ird, l);
        let net = ird.to_network();
        let good = refute(&net, &out.input_pattern).unwrap();
        good.verify(&net).unwrap();

        // Tamper with the output.
        let mut bad = good.clone();
        bad.output_a[0] ^= 1;
        assert!(bad.verify(&net).is_err());

        // Tamper with the inputs (no longer a transposition of m, m+1).
        let mut bad2 = good.clone();
        bad2.input_b = bad2.input_a.clone();
        assert!(bad2.verify(&net).is_err());

        // Wrong m.
        let mut bad3 = good.clone();
        bad3.m += 1;
        assert!(bad3.verify(&net).is_err());

        // A wire past the network's width is rejected, not indexed.
        let mut bad4 = good.clone();
        bad4.wire_pair.1 = 99;
        assert!(bad4.verify(&net).is_err());
    }

    #[test]
    fn refute_all_pairs_yields_d_minus_one_verified_witnesses() {
        let l = 4;
        let ird = butterfly_ird(1, l);
        let out = theorem41(&ird, l);
        let net = ird.to_network();
        let all = refute_all_pairs(&net, &out.input_pattern).unwrap();
        assert_eq!(all.len(), out.d_set.len() - 1);
        for (i, r) in all.iter().enumerate() {
            r.verify(&net).unwrap_or_else(|e| panic!("pair {i}: {e}"));
        }
        // Distinct pairs, consecutive m values.
        for w in all.windows(2) {
            assert_eq!(w[1].m, w[0].m + 1);
            assert_ne!(w[0].wire_pair, w[1].wire_pair);
        }
    }

    #[test]
    fn indistinguishable_class_all_members_small() {
        // For a small |D|, enumerate every assignment and confirm the
        // network cannot tell the members apart; all but (at most) one are
        // unsorted.
        let l = 3;
        let ird = butterfly_ird(1, l);
        let out = theorem41(&ird, l);
        let net = ird.to_network();
        let class = IndistinguishableClass::from_pattern(&out.input_pattern);
        let d = class.d_wires.len();
        assert!(d >= 2);
        // All permutations of 0..d (Heap's algorithm).
        let mut assignments = Vec::new();
        let mut p: Vec<usize> = (0..d).collect();
        let mut c = vec![0usize; d];
        assignments.push(p.clone());
        let mut i = 0;
        while i < d {
            if c[i] < i {
                if i % 2 == 0 {
                    p.swap(0, i);
                } else {
                    p.swap(c[i], i);
                }
                assignments.push(p.clone());
                c[i] += 1;
                i = 0;
            } else {
                c[i] = 0;
                i += 1;
            }
        }
        assert_eq!(assignments.len() as u128, class.size());
        let unsorted = class.verify_members(&net, &assignments).expect("indistinguishable");
        assert!(
            unsorted >= assignments.len() as u64 - 1,
            "at most one member may be sorted: {unsorted}/{}",
            assignments.len()
        );
    }

    #[test]
    fn class_size_exact_and_saturating() {
        let p = Pattern::uniform(20, Symbol::M(0));
        let class = IndistinguishableClass::from_pattern(&p);
        assert_eq!(class.size(), (1..=20u128).product::<u128>());
        assert_eq!(class.d_wires.len(), 20);
        // 40! exceeds u128: the size saturates instead of overflowing.
        let p = Pattern::uniform(40, Symbol::M(0));
        let class = IndistinguishableClass::from_pattern(&p);
        assert_eq!(class.size(), u128::MAX);
    }

    #[test]
    fn verify_evaluates_with_the_interpreter_not_the_compiled_ir() {
        let ird = butterfly_ird(1, 4);
        let out = theorem41(&ird, 4);
        let net = ird.to_network();
        let r = refute(&net, &out.input_pattern).unwrap();
        let me = snet_obs::thread_ordinal();
        let events = snet_obs::test_capture(|| r.verify(&net).unwrap());
        let names: Vec<&str> =
            events.iter().filter(|e| e.thread == me).map(|e| e.name.as_str()).collect();
        assert!(names.contains(&"adversary.verify_witness"), "the capture saw verify: {names:?}");
        assert!(!names.contains(&"ir.compile"), "verify must not compile: {names:?}");
    }

    #[test]
    fn verdict_roundtrip_preserves_the_refutation() {
        let ird = butterfly_ird(1, 3);
        let net = ird.to_network();
        let r = refute(&net, &theorem41(&ird, 3).input_pattern).unwrap();
        assert_eq!(SortingRefutation::from_verdict(&r.to_verdict(&net)), Some(r));
        let sorts = snet_core::verdict::verdict_zero_one_exhaustive(&net);
        assert_eq!(SortingRefutation::from_verdict(&sorts), None);
    }

    #[test]
    fn verify_detects_compared_values() {
        // A 2-wire sorter compares its only adjacent pair: a fabricated
        // "refutation" over it must fail verification.
        let net = ComparatorNetwork::new(
            2,
            vec![snet_core::network::Level::of_elements(vec![snet_core::element::Element::cmp(
                0, 1,
            )])],
        )
        .unwrap();
        let fake = SortingRefutation {
            input_a: vec![0, 1],
            input_b: vec![1, 0],
            m: 0,
            wire_pair: (0, 1),
            output_a: vec![0, 1],
            output_b: vec![0, 1],
        };
        let err = fake.verify(&net).unwrap_err();
        assert!(
            err.contains("same permutation") || err.contains("compared"),
            "unexpected error: {err}"
        );
    }
}
