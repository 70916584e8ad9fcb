//! Independent answer checks. The benchmark re-runs every counterexample
//! and witness through its own interpreter and its own shuffle lowering,
//! not the daemon's executor, so a wrong answer from any layer is caught
//! and counted as a failure.

use crate::gen::{Expect, Req, Subject};
use serde::{Deserialize, Value};
use snet_core::api::{FrameKind, JobState, JobStatus, ProgressFrame};
use snet_core::element::ElementKind;
use snet_core::network::ComparatorNetwork;
use snet_core::verdict::{Verdict, VerdictKind};
use snet_topology::ShuffleNetwork;

fn apply(kind: ElementKind, a: usize, b: usize, v: &mut [u32]) {
    let (x, y) = (v[a], v[b]);
    let (p, q) = match kind {
        ElementKind::Cmp => (x.min(y), x.max(y)),
        ElementKind::CmpRev => (x.max(y), x.min(y)),
        ElementKind::Swap => (y, x),
        ElementKind::Pass => (x, y),
    };
    v[a] = p;
    v[b] = q;
}

/// The outputs of `net` on `input`.
pub fn run_network(net: &ComparatorNetwork, input: &[u32]) -> Vec<u32> {
    let mut v = input.to_vec();
    for level in net.levels() {
        if let Some(route) = &level.route {
            let mut routed = v.clone();
            for (w, &x) in v.iter().enumerate() {
                routed[route.apply(w)] = x;
            }
            v = routed;
        }
        for e in &level.elements {
            apply(e.kind, e.a as usize, e.b as usize, &mut v);
        }
    }
    v
}

/// The outputs of the shuffle network on `input`: every stage moves the
/// value on wire `j` to the left bit rotation of `j`, then applies op `k`
/// to wires `2k` and `2k + 1`.
pub fn run_shuffle(net: &ShuffleNetwork, input: &[u32]) -> Vec<u32> {
    let n = net.wires();
    let top = n.trailing_zeros() - 1;
    let mut v = input.to_vec();
    let mut routed = vec![0; n];
    for ops in net.stages() {
        for (j, &x) in v.iter().enumerate() {
            routed[((j << 1) & (n - 1)) | (j >> top)] = x;
        }
        std::mem::swap(&mut v, &mut routed);
        for (k, &op) in ops.iter().enumerate() {
            apply(op, 2 * k, 2 * k + 1, &mut v);
        }
    }
    v
}

pub fn is_sorted(v: &[u32]) -> bool {
    v.windows(2).all(|w| w[0] <= w[1])
}

/// Checks a `/v1/check` or `/v1/adversary` answer body. `cold` holds the
/// recorded cold bodies of the working set. A sort certificate passes only
/// for an input built to sort.
pub fn verdict_answer(req: &Req, body: &[u8], cold: &[Vec<u8>]) -> Result<(), String> {
    if let Expect::Replay(i) = req.expect {
        return match cold.get(i) {
            Some(bytes) if bytes.as_slice() == body => Ok(()),
            _ => Err(format!("warm body differs from the recorded cold bytes of entry {i}")),
        };
    }
    let text = std::str::from_utf8(body).map_err(|_| "verdict body is not UTF-8".to_string())?;
    let verdict = Verdict::parse(text)?;
    match (&req.subject, req.expect, &verdict.kind) {
        (Subject::Check(net), Expect::Sorts, VerdictKind::SortCertificate { tested }) => {
            let all = 1u64 << net.wires();
            if *tested == all {
                Ok(())
            } else {
                Err(format!("certificate tested {tested} of {all} inputs"))
            }
        }
        (
            Subject::Check(net),
            Expect::Counterexample,
            VerdictKind::Counterexample { index, input, output },
        ) => {
            let spells_index = input.len() == net.wires()
                && input.iter().enumerate().all(|(w, &b)| u64::from(b) == (index >> w) & 1);
            if !spells_index {
                return Err(format!("counterexample input does not spell index {index}"));
            }
            let rerun = run_network(net, input);
            if &rerun != output {
                return Err("counterexample output differs from the re-run".into());
            }
            if is_sorted(&rerun) {
                return Err("counterexample input comes out sorted".into());
            }
            Ok(())
        }
        (
            Subject::Adversary(sn),
            Expect::Witness,
            VerdictKind::AdversaryWitness {
                input_a,
                input_b,
                m,
                wire_a,
                wire_b,
                output_a,
                output_b,
            },
        ) => {
            let n = sn.wires();
            let mut values = input_a.clone();
            values.sort_unstable();
            if values != (0..n as u32).collect::<Vec<_>>() {
                return Err("witness input is not a permutation".into());
            }
            let (wa, wb) = (*wire_a as usize, *wire_b as usize);
            if wa >= n || wb >= n || input_a[wa] != *m || input_a[wb] != m.wrapping_add(1) {
                return Err("witness wires do not carry m and m + 1".into());
            }
            let mut twin = input_a.clone();
            twin.swap(wa, wb);
            if &twin != input_b {
                return Err("witness inputs differ by more than exchanging m and m + 1".into());
            }
            let (out_a, out_b) = (run_shuffle(sn, input_a), run_shuffle(sn, input_b));
            if &out_a != output_a || &out_b != output_b {
                return Err("witness outputs differ from the re-run".into());
            }
            if is_sorted(&out_a) && is_sorted(&out_b) {
                return Err("both witness inputs come out sorted".into());
            }
            Ok(())
        }
        (_, expect, _) => Err(format!("expected {expect:?}, got {}", verdict.summary())),
    }
}

/// Checks a finished `/v1/search` stream and its job document: the frames
/// end in `done`, and the result names the optimal `depth` with a witness
/// network that sorts all `2^n` 0-1 inputs.
pub fn search_answer(
    n: usize,
    depth: usize,
    frames: &[String],
    status: &JobStatus,
) -> Result<(), String> {
    let last = ProgressFrame::parse_line(frames.last().ok_or("empty progress stream")?)?;
    if last.kind != (FrameKind::Lifecycle { state: JobState::Done }) {
        return Err(format!("stream ended with {:?}", last.kind));
    }
    if status.state != JobState::Done {
        return Err(format!("search job is {:?}", status.state));
    }
    let result = status.result.as_ref().ok_or("done search job has no result")?;
    let field = |key: &str| {
        result.as_object().and_then(|o| o.iter().find(|(k, _)| k == key)).map(|(_, v)| v)
    };
    let found = field("optimal_depth").and_then(Value::as_u64);
    if found != Some(depth as u64) {
        return Err(format!("optimal depth {found:?}, expected {depth}"));
    }
    let net = ComparatorNetwork::deserialize(field("network").ok_or("no witness network")?)
        .map_err(|e| format!("witness network: {e}"))?;
    if net.wires() != n || net.comparator_depth() != depth {
        return Err(format!(
            "witness has {} wires and depth {}",
            net.wires(),
            net.comparator_depth()
        ));
    }
    for x in 0u32..1 << n {
        let input: Vec<u32> = (0..n).map(|w| (x >> w) & 1).collect();
        if !is_sorted(&run_network(&net, &input)) {
            return Err(format!("witness network leaves 0-1 input {x} unsorted"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn own_evaluators_agree_with_the_library_lowering() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let sn = snet_topology::random::random_shuffle_network(16, 9, 0.7, &mut rng);
        let lowered = sn.to_iterated_reverse_delta().to_network();
        for shift in 0..16u32 {
            let input: Vec<u32> = (0..16).map(|w| (w * 7 + shift) % 16).collect();
            assert_eq!(run_shuffle(&sn, &input), lowered.evaluate(&input));
            assert_eq!(run_network(&lowered, &input), lowered.evaluate(&input));
        }
    }

    #[test]
    fn tampered_answers_fail() {
        let req = crate::gen::cold_request(2, 6); // n = 20, not sorting
        let Subject::Check(net) = &req.subject else { unreachable!() };
        let verdict = snet_core::verdict::verdict_zero_one_exhaustive(net);
        let good = verdict.to_json();
        assert_eq!(verdict_answer(&req, good.as_bytes(), &[]), Ok(()));
        let mut wrong = verdict.clone();
        if let VerdictKind::Counterexample { output, .. } = &mut wrong.kind {
            output.sort_unstable();
        }
        assert!(verdict_answer(&req, wrong.to_json().as_bytes(), &[]).is_err());
        let sorts = crate::gen::cold_request(2, 0);
        assert!(verdict_answer(&sorts, good.as_bytes(), &[]).is_err(), "wrong kind");
    }
}
