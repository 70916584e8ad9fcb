//! The verdict path both front ends share: `snetctl check --exhaustive`,
//! `refute`, `search` and `certify` call it, and snetd's
//! [`JobManager`](crate::JobManager) wraps it in coalescing and jobs.
//!
//! Each kind, the exhaustive check and the adversary witness, has a
//! lookup and a compute step, both handed the caller's one canonical
//! hash. A lookup re-checks the stored claim (DESIGN §11: a sort
//! certificate is served as stored, a counterexample is re-run, a witness
//! [`verify`](SortingRefutation::verify)d) before it serves the stored
//! bytes; a claim that fails is quarantined and reads as a miss. A
//! compute builds the [`Verdict`] from the hash in hand and [`persist`]s
//! it. Both kinds lower once: the [`Canonical`] form the hash came from
//! becomes the executor of a miss.

use snet_adversary::{refute_compiled, theorem41, SortingRefutation, Theorem41Output};
use snet_core::ir::{Canonical, CanonicalHash, Executor};
use snet_core::network::ComparatorNetwork;
use snet_core::sortcheck::is_sorted;
use snet_core::verdict::{Verdict, VerdictKind};
use snet_store::{ArtifactStore, KIND_VERDICT};
use snet_topology::IteratedReverseDelta;

/// A verdict and the one encoding of it that is served and stored.
#[derive(Debug, Clone)]
pub struct Served {
    /// The verdict: re-checked on a hit, just computed on a miss.
    pub verdict: Verdict,
    /// Its bytes: the stored ones on a hit, the one encoding on a miss.
    pub bytes: Vec<u8>,
    /// Why storing a computed verdict failed (the store counts it in
    /// `store.write_errors`): snetd logs it, the CLI fails the command.
    pub write_error: Option<String>,
}

/// The stored verdict for `hash`, of any kind, re-checked against `net`.
pub fn lookup_check(
    store: Option<&ArtifactStore>,
    net: &ComparatorNetwork,
    hash: &CanonicalHash,
) -> Option<Served> {
    let store = store?;
    recheck(store, net, hash, store.get_verdict(hash)?)
}

/// Serves a stored `(verdict, bytes)` entry for `hash` if its claim
/// holds for `net`; quarantines it otherwise.
fn recheck(
    store: &ArtifactStore,
    net: &ComparatorNetwork,
    hash: &CanonicalHash,
    (verdict, bytes): (Verdict, Vec<u8>),
) -> Option<Served> {
    if !holds(&verdict, net, hash) {
        store.quarantine(hash);
        return None;
    }
    Some(Served { verdict, bytes, write_error: None })
}

/// The exhaustive 0-1 check of a miss, run on `exec`: `net`'s
/// [`Canonical`] form made an executor, or a raw compile of `net`.
pub fn compute_check(
    store: Option<&ArtifactStore>,
    net: &ComparatorNetwork,
    hash: &CanonicalHash,
    exec: &Executor,
    threads: usize,
) -> Served {
    let check = exec.check_zero_one(threads);
    persist(store, Verdict::of_check(*hash, net.wires() as u32, check))
}

/// The stored adversary witness for `hash`, verified against `net`. A
/// verdict of another kind that holds reads as a miss and stays stored.
///
/// `canon` is `net`'s canonical form, kept for [`compute_witness`] on a
/// miss. A stored entry drops it before the witness is verified: the
/// re-check runs the reference interpreter, and holding the program
/// across it would only raise a warm hit's peak memory.
pub fn lookup_witness(
    store: Option<&ArtifactStore>,
    net: &ComparatorNetwork,
    hash: &CanonicalHash,
    canon: &mut Option<Canonical>,
) -> Option<Served> {
    let store = store?;
    let entry = store.get_verdict(hash)?;
    *canon = None;
    let is_witness = |s: &Served| matches!(s.verdict.kind, VerdictKind::AdversaryWitness { .. });
    recheck(store, net, hash, entry).filter(is_witness)
}

/// Runs the Theorem 4.1 adversary with parameter `k` on a miss: the run
/// (for its `|D|` report), and the verified, persisted witness unless
/// `|D| < 2`. `ird` builds the iterated reverse delta form of `net`, so
/// a hit never pays for it. The witness runs on `canon`, `net`'s
/// canonical form, turned into an executor without running the passes
/// again; only when a lookup dropped it is `net` compiled afresh. `Err`
/// is internal: a witness failed `verify`.
pub fn compute_witness(
    store: Option<&ArtifactStore>,
    net: &ComparatorNetwork,
    hash: &CanonicalHash,
    k: usize,
    ird: impl FnOnce() -> IteratedReverseDelta,
    canon: Option<Canonical>,
) -> Result<(Theorem41Output, Option<Served>), String> {
    let run = theorem41(&ird(), k);
    if run.d_set.len() < 2 {
        return Ok((run, None));
    }
    let exec = canon.map_or_else(|| Executor::compile(net), Canonical::into_executor);
    let r = refute_compiled(&exec, &run.input_pattern).map_err(|e| e.to_string())?;
    drop(exec);
    r.verify(net).map_err(|e| format!("internal: witness failed verification: {e}"))?;
    let verdict = Verdict::with_kind(*hash, net.wires() as u32, r.verdict_kind());
    Ok((run, Some(persist(store, verdict))))
}

/// Encodes `verdict` once and writes exactly those bytes under its hash.
pub fn persist(store: Option<&ArtifactStore>, verdict: Verdict) -> Served {
    let bytes = {
        let _span = snet_obs::span("verdict.encode");
        verdict.to_json().into_bytes()
    };
    let write_error = store.and_then(|s| s.put(&verdict.hash, KIND_VERDICT, &bytes).err());
    Served { verdict, bytes, write_error: write_error.map(|e| e.to_string()) }
}

/// Whether a stored claim survives its re-check against `net`. A
/// counterexample came from the compiled IR, so it is re-run on the
/// reference interpreter (a verifier exception to DESIGN §6's rule).
fn holds(verdict: &Verdict, net: &ComparatorNetwork, hash: &CanonicalHash) -> bool {
    let n = net.wires();
    verdict.hash == *hash
        && verdict.wires as usize == n
        && match &verdict.kind {
            VerdictKind::SortCertificate { .. } => true,
            VerdictKind::Counterexample { index, input, output } => {
                input.len() == n
                    && input.iter().enumerate().all(|(w, &bit)| u64::from(bit) == (index >> w) & 1)
                    && net.evaluate(input) == *output
                    && !is_sorted(output)
            }
            VerdictKind::AdversaryWitness { .. } => {
                SortingRefutation::from_verdict(verdict).is_some_and(|r| r.verify(net).is_ok())
            }
        }
}
