//! The [`Verdict`] artifact: one self-describing, serializable answer to
//! "does this network sort?" (or "which §4 witness refutes it?").
//!
//! A verdict is the unit the `snet-store` content-addressed cache stores
//! and replays: it carries the [`CanonicalHash`] it answers for, the
//! outcome ([`VerdictKind`] — a sort certificate, the deterministic
//! lowest-index 0-1 counterexample, or an adversary witness pair), and
//! the producing run's [`RunManifest`](snet_obs::RunManifest) fields, so
//! a replayed result is always traceable to the toolchain and commit
//! that computed it.
//!
//! The JSON form ([`Verdict::to_json`] / [`Verdict::parse`]) is the
//! canonical byte representation: field order is fixed, so a cache hit
//! can return the stored bytes verbatim and be byte-identical to the
//! cold run that produced them.

use crate::ir::{CanonicalHash, Executor};
use crate::network::ComparatorNetwork;
use crate::sortcheck::SortCheck;
use serde::{Deserialize, Error as SerdeError, Serialize, Value};
use snet_obs::json::{obj, str_map};
use std::sync::OnceLock;

/// Schema tag stamped into every verdict; bump on breaking changes so
/// stale store entries miss instead of misparse.
pub const VERDICT_SCHEMA: &str = "snet-verdict/1";

/// The outcome a [`Verdict`] certifies.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VerdictKind {
    /// Every 0-1 input sorts: a proof by the 0-1 principle.
    SortCertificate {
        /// Number of inputs exercised (`2ⁿ` for the exhaustive checker).
        tested: u64,
    },
    /// The network fails; `input` is the **lowest** failing 0-1 input
    /// index, matching the deterministic checker contract.
    Counterexample {
        /// The failing input's index in the `2ⁿ` enumeration.
        index: u64,
        /// The unsorted input (wire `w` carries bit `w` of `index`).
        input: Vec<u32>,
        /// The network's (unsorted) output on it.
        output: Vec<u32>,
    },
    /// A §4 adversary witness: two inputs the network maps to outputs
    /// that disagree below the claimed sorted prefix — a refutation
    /// that never enumerates the input space.
    AdversaryWitness {
        /// First witness input.
        input_a: Vec<u32>,
        /// Second witness input.
        input_b: Vec<u32>,
        /// The witness threshold `m` (the two inputs agree on rank `m`).
        m: u32,
        /// First wire of the output pair exhibiting the disagreement.
        wire_a: u32,
        /// Second wire of the output pair.
        wire_b: u32,
        /// Network output on `input_a`.
        output_a: Vec<u32>,
        /// Network output on `input_b`.
        output_b: Vec<u32>,
    },
}

/// A stored, replayable answer for one canonical form. See the
/// [module docs](self).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Verdict {
    /// Always [`VERDICT_SCHEMA`] on verdicts this code writes.
    pub schema: String,
    /// The canonical form this verdict answers for.
    pub hash: CanonicalHash,
    /// Number of wires of the subject network.
    pub wires: u32,
    /// The certified outcome.
    pub kind: VerdictKind,
    /// Flat manifest fields of the producing run (see
    /// [`snet_obs::RunManifest::fields`]).
    pub manifest: Vec<(String, String)>,
}

/// The current process's manifest fields, captured once (the capture
/// shells out to `git`/`rustc`; a warm cache hit must not pay that).
fn process_manifest() -> &'static Vec<(String, String)> {
    static FIELDS: OnceLock<Vec<(String, String)>> = OnceLock::new();
    FIELDS.get_or_init(|| {
        let tool = std::env::args()
            .next()
            .as_deref()
            .map(|p| {
                std::path::Path::new(p)
                    .file_name()
                    .map(|f| f.to_string_lossy().into_owned())
                    .unwrap_or_else(|| p.to_string())
            })
            .unwrap_or_else(|| "snet".to_string());
        snet_obs::RunManifest::capture(&tool).fields()
    })
}

impl Verdict {
    /// A verdict with an explicit kind, stamped with this process's
    /// manifest fields.
    pub fn with_kind(hash: CanonicalHash, wires: u32, kind: VerdictKind) -> Verdict {
        Verdict {
            schema: VERDICT_SCHEMA.to_string(),
            hash,
            wires,
            kind,
            manifest: process_manifest().clone(),
        }
    }

    /// Wraps an exhaustive check's outcome for `hash`: a sort
    /// certificate, or the counterexample with its index in the `2ⁿ`
    /// enumeration.
    pub fn of_check(hash: CanonicalHash, wires: u32, check: SortCheck) -> Verdict {
        let kind = match check {
            SortCheck::AllSorted { tested } => VerdictKind::SortCertificate { tested },
            SortCheck::Counterexample { input, output } => {
                let index =
                    input.iter().enumerate().fold(0, |acc, (w, &bit)| acc | (u64::from(bit) << w));
                VerdictKind::Counterexample { index, input, output }
            }
        };
        Verdict::with_kind(hash, wires, kind)
    }

    /// True iff this verdict certifies the network sorts.
    pub fn is_sorting(&self) -> bool {
        matches!(self.kind, VerdictKind::SortCertificate { .. })
    }

    /// The legacy [`SortCheck`] view (adversary witnesses map to a
    /// counterexample-free refusal and return `None`).
    pub fn to_sortcheck(&self) -> Option<SortCheck> {
        match &self.kind {
            VerdictKind::SortCertificate { tested } => {
                Some(SortCheck::AllSorted { tested: *tested })
            }
            VerdictKind::Counterexample { input, output, .. } => {
                Some(SortCheck::Counterexample { input: input.clone(), output: output.clone() })
            }
            VerdictKind::AdversaryWitness { .. } => None,
        }
    }

    /// One-line human summary, e.g. for `snetctl store ls`.
    pub fn summary(&self) -> String {
        match &self.kind {
            VerdictKind::SortCertificate { tested } => {
                format!("sorts ({tested} inputs)")
            }
            VerdictKind::Counterexample { index, .. } => {
                format!("counterexample at index {index}")
            }
            VerdictKind::AdversaryWitness { m, wire_a, wire_b, .. } => {
                format!("adversary witness (m={m}, wires {wire_a}/{wire_b})")
            }
        }
    }

    /// The canonical compact JSON byte form (fixed field order).
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("verdict serializes")
    }

    /// Parses [`Verdict::to_json`] output back; `Err` explains what is
    /// malformed (including an unrecognized schema).
    pub fn parse(text: &str) -> Result<Verdict, String> {
        let v: Verdict = serde_json::from_str(text).map_err(|e| e.to_string())?;
        if v.schema != VERDICT_SCHEMA {
            return Err(format!("unrecognized verdict schema {:?}", v.schema));
        }
        Ok(v)
    }
}

/// Runs the exhaustive 0-1 check through `exec` (compiled with the
/// canonical pipeline) and wraps the outcome as a [`Verdict`] keyed by
/// the executor's canonical form. `threads` as in
/// [`Executor::check_zero_one`]; the counterexample, when one exists, is
/// the deterministic lowest failing index for any thread count.
pub fn verdict_zero_one(exec: &Executor, threads: usize) -> Verdict {
    let hash = CanonicalHash::of_program(exec.program());
    Verdict::of_check(hash, exec.wires() as u32, exec.check_zero_one(threads))
}

/// Compiles `net` and produces its exhaustive 0-1 [`Verdict`]
/// single-threaded — the verdict-typed sibling of
/// [`crate::sortcheck::check_zero_one_exhaustive`].
pub fn verdict_zero_one_exhaustive(net: &ComparatorNetwork) -> Verdict {
    let n = net.wires();
    assert!(n <= 30, "exhaustive 0-1 check limited to n <= 30 (got {n})");
    verdict_zero_one(&Executor::compile(net), 1)
}

// ---------------------------------------------------------------------------
// Serialization. Hand-written so the byte layout (field order) is an
// explicit contract: cache hits return stored bytes verbatim.
// ---------------------------------------------------------------------------

impl Serialize for VerdictKind {
    fn serialize(&self) -> Value {
        match self {
            VerdictKind::SortCertificate { tested } => {
                obj(vec![("kind", "sort-certificate".serialize()), ("tested", tested.serialize())])
            }
            VerdictKind::Counterexample { index, input, output } => obj(vec![
                ("kind", "counterexample".serialize()),
                ("index", index.serialize()),
                ("input", input.serialize()),
                ("output", output.serialize()),
            ]),
            VerdictKind::AdversaryWitness {
                input_a,
                input_b,
                m,
                wire_a,
                wire_b,
                output_a,
                output_b,
            } => obj(vec![
                ("kind", "adversary-witness".serialize()),
                ("input_a", input_a.serialize()),
                ("input_b", input_b.serialize()),
                ("m", m.serialize()),
                ("wire_a", wire_a.serialize()),
                ("wire_b", wire_b.serialize()),
                ("output_a", output_a.serialize()),
                ("output_b", output_b.serialize()),
            ]),
        }
    }
}

/// Field `name` of an object, or a "missing field" error.
pub(crate) fn field<'v>(v: &'v Value, name: &str) -> Result<&'v Value, SerdeError> {
    v.get(name).ok_or_else(|| SerdeError::custom(format!("missing field `{name}`")))
}

fn u32_vec(v: &Value, name: &str) -> Result<Vec<u32>, SerdeError> {
    Vec::<u32>::deserialize(field(v, name)?)
}

impl Deserialize for VerdictKind {
    fn deserialize(v: &Value) -> Result<Self, SerdeError> {
        let kind = String::deserialize(field(v, "kind")?)?;
        match kind.as_str() {
            "sort-certificate" => {
                Ok(VerdictKind::SortCertificate { tested: u64::deserialize(field(v, "tested")?)? })
            }
            "counterexample" => Ok(VerdictKind::Counterexample {
                index: u64::deserialize(field(v, "index")?)?,
                input: u32_vec(v, "input")?,
                output: u32_vec(v, "output")?,
            }),
            "adversary-witness" => Ok(VerdictKind::AdversaryWitness {
                input_a: u32_vec(v, "input_a")?,
                input_b: u32_vec(v, "input_b")?,
                m: u32::deserialize(field(v, "m")?)?,
                wire_a: u32::deserialize(field(v, "wire_a")?)?,
                wire_b: u32::deserialize(field(v, "wire_b")?)?,
                output_a: u32_vec(v, "output_a")?,
                output_b: u32_vec(v, "output_b")?,
            }),
            other => Err(SerdeError::custom(format!("unknown verdict kind {other:?}"))),
        }
    }
}

impl Serialize for Verdict {
    fn serialize(&self) -> Value {
        obj(vec![
            ("schema", self.schema.serialize()),
            ("hash", self.hash.to_hex().serialize()),
            ("wires", self.wires.serialize()),
            ("verdict", self.kind.serialize()),
            ("manifest", str_map(&self.manifest)),
        ])
    }
}

impl Deserialize for Verdict {
    fn deserialize(v: &Value) -> Result<Self, SerdeError> {
        let hash_hex = String::deserialize(field(v, "hash")?)?;
        let hash = CanonicalHash::from_hex(&hash_hex)
            .ok_or_else(|| SerdeError::custom(format!("malformed verdict hash {hash_hex:?}")))?;
        let manifest = field(v, "manifest")?
            .as_object()
            .ok_or_else(|| SerdeError::custom("verdict manifest is not an object"))?
            .iter()
            .map(|(k, val)| {
                String::deserialize(val).map(|s| (k.clone(), s)).map_err(|_| {
                    SerdeError::custom(format!("manifest field {k:?} is not a string"))
                })
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Verdict {
            schema: String::deserialize(field(v, "schema")?)?,
            hash,
            wires: u32::deserialize(field(v, "wires")?)?,
            kind: VerdictKind::deserialize(field(v, "verdict")?)?,
            manifest,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::element::Element;
    use crate::network::ComparatorNetwork;

    fn brick_wall(n: usize) -> ComparatorNetwork {
        let mut net = ComparatorNetwork::empty(n);
        for round in 0..n {
            let start = round % 2;
            let elements = (start..n.saturating_sub(1))
                .step_by(2)
                .map(|i| Element::cmp(i as u32, i as u32 + 1))
                .collect();
            net.push_elements(elements).unwrap();
        }
        net
    }

    #[test]
    fn certificate_roundtrips_byte_identically() {
        let v = verdict_zero_one_exhaustive(&brick_wall(6));
        assert!(v.is_sorting());
        assert_eq!(v.summary(), "sorts (64 inputs)");
        let json = v.to_json();
        let back = Verdict::parse(&json).expect("parses");
        assert_eq!(back, v);
        assert_eq!(back.to_json(), json, "serialization is byte-stable");
    }

    #[test]
    fn counterexample_verdict_matches_sortcheck_and_is_lowest_index() {
        let full = brick_wall(6);
        let truncated = ComparatorNetwork::new(6, full.levels()[..2].to_vec()).unwrap();
        let v = verdict_zero_one_exhaustive(&truncated);
        match &v.kind {
            VerdictKind::Counterexample { index, input, output } => {
                // Index encodes the input bits.
                for (w, &bit) in input.iter().enumerate() {
                    assert_eq!((index >> w) & 1, u64::from(bit));
                }
                assert_eq!(
                    v.to_sortcheck(),
                    Some(SortCheck::Counterexample {
                        input: input.clone(),
                        output: output.clone()
                    })
                );
                // Same answer as the legacy checker.
                assert_eq!(
                    crate::sortcheck::check_zero_one_exhaustive(&truncated),
                    v.to_sortcheck().unwrap()
                );
            }
            other => panic!("expected counterexample, got {other:?}"),
        }
        let adv = Verdict::with_kind(
            v.hash,
            6,
            VerdictKind::AdversaryWitness {
                input_a: vec![0; 6],
                input_b: vec![1; 6],
                m: 3,
                wire_a: 0,
                wire_b: 1,
                output_a: vec![0; 6],
                output_b: vec![1; 6],
            },
        );
        assert_eq!(adv.to_sortcheck(), None);
        let back = Verdict::parse(&adv.to_json()).expect("adversary roundtrip");
        assert_eq!(back, adv);
    }

    #[test]
    fn parse_rejects_garbage_and_wrong_schema() {
        assert!(Verdict::parse("not json").is_err());
        assert!(Verdict::parse("{}").is_err());
        let mut v = verdict_zero_one_exhaustive(&brick_wall(4));
        v.schema = "something-else/9".into();
        assert!(Verdict::parse(&v.to_json()).is_err());
    }

    #[test]
    fn manifest_rides_in_the_verdict() {
        let v = verdict_zero_one_exhaustive(&brick_wall(4));
        let get = |k: &str| v.manifest.iter().find(|(key, _)| key == k).map(|(_, v)| v.clone());
        assert_eq!(get("schema").as_deref(), Some(snet_obs::MANIFEST_SCHEMA));
        assert!(get("tool").is_some());
        assert!(get("rustc_version").is_some());
    }
}
