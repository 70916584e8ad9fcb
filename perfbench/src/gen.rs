//! Seeded inputs for the three workloads. The seed is a benchmark
//! argument; the daemon only ever sees the generated request bytes.
//!
//! Every input carries the answer it must get, known from how it was
//! built:
//!
//! * A check network is one random comparator level in front of Pratt's
//!   Shellsort network, which sorts every input, so the whole network
//!   sorts. Its non-sorting twin drops Pratt's last level, which holds the
//!   only comparators on the pairs `(i, i+1)` with `i` odd. The front level
//!   never pairs wires 1 and 2, so the 0-1 input `0 1 0 1 1 … 1` meets no
//!   comparator that can move it and leaves the network unsorted.
//! * An adversary network is a random full-density shuffle network of
//!   [`ADV_DEPTH`] stages on [`ADV_WIRES`] wires, shallow enough that the
//!   Theorem 4.1 adversary answers it with a witness.
//! * A search asks for the optimal depth on 6 or 7 wires: 5 and 6.
//! * A warm request relabels a working-set network without changing its
//!   canonical form, so its answer must be the recorded cold bytes.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Serialize, Value};
use snet_core::api::{AdversaryRequest, CheckRequest, SearchRequest};
use snet_core::element::Element;
use snet_core::network::{ComparatorNetwork, Level};
use snet_topology::ShuffleNetwork;

/// Wire counts of the cold checks, cycled in this order.
pub const COLD_CHECK_WIRES: [usize; 3] = [20, 21, 22];
/// Wires of the warm working-set checks and of the fresh coalescing forms.
pub const WARM_CHECK_WIRES: usize = 16;
/// Wires of every adversary network.
pub const ADV_WIRES: usize = 1024;
/// Stages of every adversary network.
pub const ADV_DEPTH: usize = 40;
/// Check networks in the `replay_warm` working set.
pub const WARM_CHECKS: usize = 24;
/// Adversary networks in the `replay_warm` working set.
pub const WARM_ADVERSARIES: usize = 6;
/// One pair of `replay_warm` slots in this many sends one fresh form twice
/// at once; every other slot replays a relabelled working-set entry.
pub const PAIR_EVERY: usize = 8;
/// One replayed slot in this many relabels an adversary entry.
pub const ADV_EVERY: usize = 5;
/// Search sizes of `search_stream`, cycled from a seed-chosen start. Two
/// n = 7 searches per n = 6 one keep the median inside one cluster of
/// latencies instead of between the two.
pub const SEARCH_CYCLE: [usize; 3] = [6, 7, 7];

/// What a request asks about.
#[derive(Debug, Clone)]
pub enum Subject {
    /// `POST /v1/check` of a circuit.
    Check(ComparatorNetwork),
    /// `POST /v1/adversary` of a shuffle network.
    Adversary(ShuffleNetwork),
    /// `POST /v1/search` on this many wires.
    Search(usize),
}

/// The answer a request must get.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    /// A sort certificate over all `2^n` inputs.
    Sorts,
    /// A counterexample that the re-run leaves unsorted.
    Counterexample,
    /// An adversary witness that the re-run confirms.
    Witness,
    /// The recorded cold bytes of working-set entry `i`, byte for byte.
    Replay(usize),
    /// This optimal depth, with a witness network that sorts.
    Depth(usize),
}

/// One generated request.
#[derive(Debug, Clone)]
pub struct Req {
    pub subject: Subject,
    pub expect: Expect,
    pub body: Vec<u8>,
}

impl Req {
    /// The endpoint the request goes to.
    pub fn path(&self) -> &'static str {
        match self.subject {
            Subject::Check(_) => "/v1/check",
            Subject::Adversary(_) => "/v1/adversary",
            Subject::Search(_) => "/v1/search",
        }
    }

    /// Wires of the subject network.
    pub fn wires(&self) -> usize {
        match &self.subject {
            Subject::Check(net) => net.wires(),
            Subject::Adversary(sn) => sn.wires(),
            Subject::Search(n) => *n,
        }
    }

    /// The request as `snet_service::client` writes it to the socket.
    pub fn wire_bytes(&self, addr: &str) -> Vec<u8> {
        let mut out = format!(
            "POST {} HTTP/1.1\r\nhost: {addr}\r\nconnection: close\r\n\
             content-type: application/json\r\ncontent-length: {}\r\n\r\n",
            self.path(),
            self.body.len()
        )
        .into_bytes();
        out.extend_from_slice(&self.body);
        out
    }
}

/// Independent random streams, one per kind of generated item.
#[derive(Clone, Copy)]
enum Stream {
    ColdCheck = 1,
    ColdAdversary,
    WarmCheck,
    WarmAdversary,
    Fresh,
    Relabel,
    Probe,
}

/// The SplitMix64 finalizer: a bijection, so distinct inputs give
/// distinct generator seeds.
fn mix(z: u64) -> u64 {
    let z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The generator of item `index` of `stream`, independent of every other
/// item, so any request can be rebuilt from its index alone.
fn rng(seed: u64, stream: Stream, index: u64) -> StdRng {
    StdRng::seed_from_u64(mix(mix(seed ^ ((stream as u64) << 56)) ^ index))
}

fn shuffle<T>(items: &mut [T], rng: &mut StdRng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..=i));
    }
}

/// A random level of `Cmp` comparators on `n` wires that never pairs
/// wires 1 and 2.
fn front_level(n: usize, rng: &mut StdRng) -> Level {
    let mut wires: Vec<u32> = (0..n as u32).collect();
    shuffle(&mut wires, rng);
    let mut elements = Vec::new();
    for pair in wires.chunks_exact(2) {
        let (a, b) = (pair[0].min(pair[1]), pair[0].max(pair[1]));
        if (a, b) != (1, 2) && rng.gen_bool(0.75) {
            elements.push(Element::cmp(a, b));
        }
    }
    Level::of_elements(elements)
}

/// A check network on `n` wires that sorts exactly when `sorts` (see the
/// module docs).
pub fn check_network(n: usize, sorts: bool, rng: &mut StdRng) -> ComparatorNetwork {
    let sorter = snet_sorters::pratt_network(n);
    let keep = sorter.depth() - usize::from(!sorts);
    let mut levels = vec![front_level(n, rng)];
    levels.extend_from_slice(&sorter.levels()[..keep]);
    ComparatorNetwork::new(n, levels).expect("a comparator level and sorter levels are valid")
}

/// A random full-density shuffle network: the adversary's input.
pub fn adversary_network(rng: &mut StdRng) -> ShuffleNetwork {
    snet_topology::random::random_shuffle_network(ADV_WIRES, ADV_DEPTH, 1.0, rng)
}

fn check_req(net: ComparatorNetwork, sorts: bool) -> Req {
    let body = serde_json::to_string(&CheckRequest { network: net.clone() })
        .expect("check requests serialize");
    let expect = if sorts { Expect::Sorts } else { Expect::Counterexample };
    Req { subject: Subject::Check(net), expect, body: body.into_bytes() }
}

/// An adversary request. Variant 0 is the plain form; bit 0 spells out
/// the default `k = lg n`, bit 1 lists the fields in reverse order. Every
/// variant names the same network.
fn adversary_req(net: ShuffleNetwork, variant: u8, expect: Expect) -> Req {
    let req = AdversaryRequest {
        n: ADV_WIRES as u32,
        stages: net.stages().to_vec(),
        k: (variant & 1 == 1).then_some(ADV_WIRES.trailing_zeros()),
    };
    let mut value = req.serialize();
    if variant & 2 == 2 {
        if let Value::Object(fields) = &mut value {
            fields.reverse();
        }
    }
    let body = serde_json::to_string(&value).expect("adversary requests serialize");
    Req { subject: Subject::Adversary(net), expect, body: body.into_bytes() }
}

/// A sorting n = 8 check for set-up; no workload sends an 8-wire form.
pub fn warm_up_check() -> Req {
    check_req(snet_sorters::pratt_network(8), true)
}

/// A streamed unrestricted search on `n` wires.
pub fn search_req(n: usize) -> Req {
    let req =
        SearchRequest { n: n as u32, mode: "unrestricted".into(), max_depth: None, threads: None };
    let body = serde_json::to_string(&req).expect("search requests serialize");
    Req {
        subject: Subject::Search(n),
        expect: Expect::Depth(optimal_depth(n)),
        body: body.into_bytes(),
    }
}

/// Known optimal sorting-network depths for n = 2..=8.
pub fn optimal_depth(n: usize) -> usize {
    [0, 0, 1, 3, 3, 5, 5, 6, 6][n]
}

/// Request `i` of `verify_cold`: even indices are checks cycling through
/// 20, 21 and 22 wires, sorting and not; odd ones are adversary networks.
pub fn cold_request(seed: u64, i: usize) -> Req {
    let j = (i / 2) as u64;
    if i.is_multiple_of(2) {
        let n = COLD_CHECK_WIRES[(j % 3) as usize];
        let sorts = (j / 3).is_multiple_of(2);
        check_req(check_network(n, sorts, &mut rng(seed, Stream::ColdCheck, j)), sorts)
    } else {
        let net = adversary_network(&mut rng(seed, Stream::ColdAdversary, j));
        adversary_req(net, 0, Expect::Witness)
    }
}

/// The `replay_warm` working set, computed cold during set-up: n = 16
/// checks, half of them sorting, then n = 1024 adversary networks.
pub fn warm_set(seed: u64) -> Vec<Req> {
    let checks = (0..WARM_CHECKS).map(|j| {
        let sorts = j.is_multiple_of(2);
        let net =
            check_network(WARM_CHECK_WIRES, sorts, &mut rng(seed, Stream::WarmCheck, j as u64));
        check_req(net, sorts)
    });
    let adversaries = (0..WARM_ADVERSARIES).map(|j| {
        let net = adversary_network(&mut rng(seed, Stream::WarmAdversary, j as u64));
        adversary_req(net, 0, Expect::Witness)
    });
    checks.chain(adversaries).collect()
}

/// A presentation of `net` with the same canonical form, using only the
/// invariances the canonical hash is pinned to: per-level element order
/// shuffled, `Cmp(a, b)` rewritten as `CmpRev(b, a)` (always for the first
/// comparator, so the bytes differ), `Pass` elements on free wire pairs,
/// and cancelling `Swap` level pairs spliced in.
pub fn relabel(net: &ComparatorNetwork, rng: &mut StdRng) -> ComparatorNetwork {
    let n = net.wires();
    let mut levels = Vec::new();
    let mut flipped = false;
    for level in net.levels() {
        let mut elements = level.elements.clone();
        for e in elements.iter_mut() {
            if e.is_comparator() && (!flipped || rng.gen_bool(0.5)) {
                *e = e.flipped();
                flipped = true;
            }
        }
        let mut used = vec![false; n];
        for e in &elements {
            used[e.a as usize] = true;
            used[e.b as usize] = true;
        }
        let free: Vec<u32> = (0..n as u32).filter(|&w| !used[w as usize]).collect();
        for pair in free.chunks_exact(2) {
            if rng.gen_bool(0.5) {
                elements.push(Element::pass(pair[0], pair[1]));
            }
        }
        shuffle(&mut elements, rng);
        levels.push(Level { route: level.route.clone(), elements });
        if rng.gen_bool(0.2) {
            let a = rng.gen_range(0..n as u32 - 1);
            let swap = Level::of_elements(vec![Element::swap(a, a + 1)]);
            levels.push(swap.clone());
            levels.push(swap);
        }
    }
    ComparatorNetwork::new(n, levels).expect("relabelling keeps every level valid")
}

/// Slot `k` of `replay_warm`, and whether it shares its send time with
/// slot `k - 1`. Slots pair up as `(2m, 2m + 1)`; one pair in
/// [`PAIR_EVERY`] sends one fresh n = 16 form twice at once, which
/// exercises coalescing. Every other slot relabels a random working-set
/// entry, an adversary entry for one slot in [`ADV_EVERY`].
pub fn warm_slot(seed: u64, ws: &[Req], k: usize) -> (Req, bool) {
    let m = k / 2;
    if m % PAIR_EVERY == PAIR_EVERY - 1 {
        let f = (m / PAIR_EVERY) as u64;
        let sorts = f.is_multiple_of(2);
        let net = check_network(WARM_CHECK_WIRES, sorts, &mut rng(seed, Stream::Fresh, f));
        return (check_req(net, sorts), k % 2 == 1);
    }
    let mut rng = rng(seed, Stream::Relabel, k as u64);
    let req = if k % ADV_EVERY == ADV_EVERY - 1 {
        let i = WARM_CHECKS + rng.gen_range(0..WARM_ADVERSARIES);
        let Subject::Adversary(sn) = &ws[i].subject else {
            unreachable!("the working set lists its adversary networks after its checks")
        };
        adversary_req(sn.clone(), rng.gen_range(1..4u8), Expect::Replay(i))
    } else {
        let i = rng.gen_range(0..WARM_CHECKS);
        let Subject::Check(net) = &ws[i].subject else {
            unreachable!("the working set lists its checks first")
        };
        let mut req = check_req(relabel(net, &mut rng), true);
        req.expect = Expect::Replay(i);
        req
    };
    (req, false)
}

/// Request `k` of `search_stream`.
pub fn search_request(seed: u64, k: usize) -> Req {
    search_req(SEARCH_CYCLE[(k + (seed % 3) as usize) % SEARCH_CYCLE.len()])
}

/// A small seeded probe for the layers `search_stream` does not exercise
/// (n = 16 checks and n = 1024 adversary networks), so its traced run
/// reports every layer too.
pub fn probe(seed: u64) -> Vec<Req> {
    let checks = (0..8u64).map(|j| {
        let sorts = j.is_multiple_of(2);
        check_req(check_network(WARM_CHECK_WIRES, sorts, &mut rng(seed, Stream::Probe, j)), sorts)
    });
    let adversaries = (8..10).map(|j| {
        adversary_req(adversary_network(&mut rng(seed, Stream::Probe, j)), 0, Expect::Witness)
    });
    checks.chain(adversaries).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::{is_sorted, run_network};
    use snet_core::ir::CanonicalHash;
    use std::collections::HashSet;

    /// The canonical hash of what the daemon parses out of the body.
    fn daemon_hash(req: &Req) -> CanonicalHash {
        let text = std::str::from_utf8(&req.body).unwrap();
        match req.subject {
            Subject::Check(_) => {
                let parsed: CheckRequest = serde_json::from_str(text).unwrap();
                CanonicalHash::of_network(&parsed.network)
            }
            Subject::Adversary(_) => {
                let parsed: AdversaryRequest = serde_json::from_str(text).unwrap();
                let sn = ShuffleNetwork::new(parsed.n as usize, parsed.stages);
                CanonicalHash::of_network(&sn.to_iterated_reverse_delta().to_network())
            }
            Subject::Search(_) => unreachable!("searches have no canonical form"),
        }
    }

    #[test]
    fn inputs_repeat_exactly_for_one_seed_and_differ_across_seeds() {
        for i in 0..4 {
            assert_eq!(cold_request(7, i).body, cold_request(7, i).body);
        }
        assert_ne!(cold_request(7, 0).body, cold_request(8, 0).body);
        let ws = warm_set(7);
        assert_eq!(warm_slot(7, &ws, 3).0.body, warm_slot(7, &ws, 3).0.body);
    }

    #[test]
    fn relabel_variants_hash_equal_to_their_base() {
        let ws = warm_set(11);
        let mut adversaries = 0;
        for k in 0..120 {
            let (req, _) = warm_slot(11, &ws, k);
            if let Expect::Replay(i) = req.expect {
                assert_ne!(req.body, ws[i].body, "slot {k} repeats its base bytes");
                assert_eq!(daemon_hash(&req), daemon_hash(&ws[i]), "slot {k} left the orbit");
                adversaries += usize::from(matches!(req.subject, Subject::Adversary(_)));
            }
        }
        assert!(adversaries > 0, "the slots include adversary relabels");
    }

    #[test]
    fn fresh_forms_are_pairwise_distinct() {
        let mut seen = HashSet::new();
        for i in 0..48 {
            assert!(
                seen.insert(daemon_hash(&cold_request(3, i))),
                "cold request {i} repeats a form"
            );
        }
        let ws = warm_set(3);
        for (i, req) in ws.iter().enumerate() {
            assert!(seen.insert(daemon_hash(req)), "working-set entry {i} repeats a form");
        }
        for k in (0..8 * PAIR_EVERY * 2).step_by(2) {
            let (a, _) = warm_slot(3, &ws, k);
            let (b, twin) = warm_slot(3, &ws, k + 1);
            if twin {
                assert_eq!(a.body, b.body, "a coalescing pair sends one form twice");
                assert!(seen.insert(daemon_hash(&a)), "fresh form at slot {k} is not fresh");
            }
        }
    }

    #[test]
    fn check_answers_are_known_by_construction() {
        let mut reqs: Vec<Req> = (0..12).step_by(2).map(|i| cold_request(5, i)).collect();
        reqs.extend(warm_set(5).into_iter().take(4));
        for req in &reqs {
            let Subject::Check(net) = &req.subject else { unreachable!() };
            let verdict = snet_core::verdict::verdict_zero_one_exhaustive(net);
            assert_eq!(verdict.is_sorting(), req.expect == Expect::Sorts, "n = {}", net.wires());
            if req.expect == Expect::Counterexample {
                let mut input = vec![1u32; net.wires()];
                input[0] = 0;
                input[2] = 0;
                assert!(!is_sorted(&run_network(net, &input)), "the inversion at (1, 2) survives");
            }
        }
    }

    #[test]
    fn adversary_inputs_get_witnesses() {
        for i in [1usize, 3] {
            let Subject::Adversary(sn) = cold_request(9, i).subject else { unreachable!() };
            let out = snet_adversary::theorem41(
                &sn.to_iterated_reverse_delta(),
                ADV_WIRES.trailing_zeros() as usize,
            );
            assert!(out.d_set.len() >= 2, "request {i}: |D| = {}", out.d_set.len());
        }
    }

    #[test]
    fn searches_expect_the_known_optima() {
        assert_eq!((optimal_depth(6), optimal_depth(7)), (5, 6));
        let ns: Vec<usize> = (0..3).map(|k| search_request(1, k).wires()).collect();
        assert_eq!(ns.iter().filter(|&&n| n == 7).count(), 2);
        assert!(ns.contains(&6));
    }
}
