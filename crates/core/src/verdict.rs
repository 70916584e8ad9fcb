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
use serde::de::{self, read_field, required, Source, Token};
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
        /// Number of inputs covered: `2ⁿ` for the exhaustive checker, which
        /// may evaluate only the first level's image (see
        /// [`crate::ir::Executor::check_zero_one`]).
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

/// The keys of a [`VerdictKind`] object, in the order of its slots.
const KIND_KEYS: [&str; 12] = [
    "kind", "tested", "index", "m", "wire_a", "wire_b", "input", "output", "input_a", "input_b",
    "output_a", "output_b",
];

/// `kind` may come after the fields it selects, so each field's first
/// value is read into its slot, and only the fields `kind` names are
/// checked, in the order a lookup in a finished tree checked them.
impl Deserialize for VerdictKind {
    fn read<S: Source>(src: &mut S) -> Result<Self, SerdeError> {
        let (mut kind, mut tested, mut index) = (None, None, None);
        let mut nums: [Option<Result<u32, SerdeError>>; 3] = Default::default();
        let mut vecs: [Option<Result<Vec<u32>, SerdeError>>; 6] = Default::default();
        if matches!(src.next()?, Token::Object) {
            de::fields(src, &KIND_KEYS, |src, i| match i {
                0 => read_field(src, &mut kind, String::read),
                1 => read_field(src, &mut tested, u64::read),
                2 => read_field(src, &mut index, u64::read),
                3..=5 => read_field(src, &mut nums[i - 3], u32::read),
                _ => read_field(src, &mut vecs[i - 6], Vec::<u32>::read),
            })?;
        }
        let [m, wire_a, wire_b] = nums;
        let [input, output, input_a, input_b, output_a, output_b] = vecs;
        match required(kind, "kind")?.as_str() {
            "sort-certificate" => {
                Ok(VerdictKind::SortCertificate { tested: required(tested, "tested")? })
            }
            "counterexample" => Ok(VerdictKind::Counterexample {
                index: required(index, "index")?,
                input: required(input, "input")?,
                output: required(output, "output")?,
            }),
            "adversary-witness" => Ok(VerdictKind::AdversaryWitness {
                input_a: required(input_a, "input_a")?,
                input_b: required(input_b, "input_b")?,
                m: required(m, "m")?,
                wire_a: required(wire_a, "wire_a")?,
                wire_b: required(wire_b, "wire_b")?,
                output_a: required(output_a, "output_a")?,
                output_b: required(output_b, "output_b")?,
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

/// Checked in the order `hash`, `manifest`, `schema`, `wires`, `verdict`.
impl Deserialize for Verdict {
    fn read<S: Source>(src: &mut S) -> Result<Self, SerdeError> {
        let (mut schema, mut hash, mut wires, mut kind, mut manifest) =
            (None, None, None, None, None);
        if matches!(src.next()?, Token::Object) {
            de::fields(
                src,
                &["schema", "hash", "wires", "verdict", "manifest"],
                |src, i| match i {
                    0 => read_field(src, &mut schema, String::read),
                    1 => read_field(src, &mut hash, String::read),
                    2 => read_field(src, &mut wires, u32::read),
                    3 => read_field(src, &mut kind, VerdictKind::read),
                    _ => read_field(src, &mut manifest, read_manifest),
                },
            )?;
        }
        let hash_hex = required(hash, "hash")?;
        let hash = CanonicalHash::from_hex(&hash_hex)
            .ok_or_else(|| SerdeError::custom(format!("malformed verdict hash {hash_hex:?}")))?;
        let manifest = required(manifest, "manifest")?;
        Ok(Verdict {
            schema: required(schema, "schema")?,
            hash,
            wires: required(wires, "wires")?,
            kind: required(kind, "verdict")?,
            manifest,
        })
    }
}

/// A verdict's manifest: an object of strings, in document order. The
/// first value that is no string is named, once the object has been read.
fn read_manifest<S: Source>(src: &mut S) -> Result<Vec<(String, String)>, SerdeError> {
    if !matches!(src.next()?, Token::Object) {
        return Err(SerdeError::custom("verdict manifest is not an object"));
    }
    let (mut pairs, mut bad) = (Vec::new(), None);
    while let Some(key) = src.next_key()? {
        let key = key.into_owned();
        let mut value = None;
        read_field(src, &mut value, String::read)?;
        match value {
            Some(Ok(value)) => pairs.push((key, value)),
            _ => {
                bad.get_or_insert(key);
            }
        }
    }
    match bad {
        Some(key) => Err(SerdeError::custom(format!("manifest field {key:?} is not a string"))),
        None => Ok(pairs),
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
