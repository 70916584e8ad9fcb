//! The `snetctl` on-disk network format: a tagged JSON document holding
//! either a flat circuit or a shuffle-based network (which retains the
//! block structure the adversary needs).

use serde::{Deserialize, Serialize};
use snet_core::element::ElementKind;
use snet_core::network::ComparatorNetwork;
use snet_topology::{IteratedReverseDelta, ShuffleNetwork};

/// A network document as stored on disk.
#[derive(Debug, Clone, Serialize, Deserialize)]
#[serde(tag = "type", rename_all = "kebab-case")]
pub enum NetworkFile {
    /// An arbitrary leveled comparator network.
    Circuit {
        /// The network itself (validated on deserialize).
        network: ComparatorNetwork,
    },
    /// A shuffle-based network: `Π_i = σ` every stage; only the op vectors
    /// are stored.
    Shuffle {
        /// Number of wires (`2^l`).
        n: usize,
        /// Per-stage op vectors (`n/2` ops each).
        stages: Vec<Vec<ElementKind>>,
    },
    /// An iterated reverse delta network with its recursion trees — the
    /// full generality of the class the lower bound covers.
    Ird {
        /// The network (tree structure revalidated on load).
        network: IteratedReverseDelta,
    },
}

impl NetworkFile {
    /// Lowers to a flat circuit for evaluation/checking.
    pub fn to_network(&self) -> ComparatorNetwork {
        match self {
            NetworkFile::Circuit { network } => network.clone(),
            NetworkFile::Shuffle { n, stages } => {
                ShuffleNetwork::new(*n, stages.clone()).to_network()
            }
            NetworkFile::Ird { network } => network.to_network(),
        }
    }

    /// The shuffle form, if this document is shuffle-based.
    pub fn as_shuffle(&self) -> Option<ShuffleNetwork> {
        match self {
            NetworkFile::Shuffle { n, stages } => Some(ShuffleNetwork::new(*n, stages.clone())),
            _ => None,
        }
    }

    /// The iterated-reverse-delta form the adversary runs on, when this
    /// document belongs to the class (shuffle files embed; IRD files are
    /// native; flat circuits go through structural *recognition* — sound,
    /// not complete, see `snet_topology::recognize`).
    pub fn as_ird(&self) -> Option<IteratedReverseDelta> {
        match self {
            NetworkFile::Circuit { network } => {
                snet_topology::recognize::recognize_iterated(network).ok()
            }
            NetworkFile::Shuffle { .. } => {
                self.as_shuffle().map(|sn| sn.to_iterated_reverse_delta())
            }
            NetworkFile::Ird { network } => Some(network.clone()),
        }
    }

    /// Wraps a shuffle network.
    pub fn from_shuffle(sn: &ShuffleNetwork) -> Self {
        NetworkFile::Shuffle { n: sn.wires(), stages: sn.stages().to_vec() }
    }

    /// Reads a document from a JSON file. A shuffle document must have the
    /// shape [`ShuffleNetwork::try_new`] accepts.
    pub fn load(path: &str) -> Result<Self, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let doc: NetworkFile = serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))?;
        if let NetworkFile::Shuffle { n, stages } = &doc {
            ShuffleNetwork::try_new(*n, stages.clone()).map_err(|e| format!("{path}: {e}"))?;
        }
        Ok(doc)
    }

    /// The iterated-reverse-delta form the Theorem 4.1 adversary runs on,
    /// or why the document at `path` cannot give one: it is not in the
    /// class, or it has no block for the adversary to play against.
    pub fn adversary_input(&self, path: &str) -> Result<IteratedReverseDelta, String> {
        let ird = self.as_ird().ok_or_else(|| {
            format!(
                "{path}: the adversary needs a shuffle-based or IRD file, or a circuit \
                 that structurally recognizes as one"
            )
        })?;
        if ird.blocks().is_empty() || ird.wires() < 2 {
            return Err(format!(
                "{path}: the adversary needs at least one stage, on 2 or more wires"
            ));
        }
        Ok(ird)
    }

    /// Writes the document as pretty JSON.
    pub fn save(&self, path: &str) -> Result<(), String> {
        let text = serde_json::to_string_pretty(self).map_err(|e| e.to_string())?;
        std::fs::write(path, text).map_err(|e| format!("{path}: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use proptest::test_runner::TestRng;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use serde_json::Value;
    use snet_core::element::Element;
    use snet_core::network::Level;
    use snet_core::perm::Permutation;
    use snet_topology::random::{random_iterated, random_shuffle_network, RandomDeltaConfig};

    /// What a broken document is spliced from: JSON syntax, the format's
    /// keys and tags, numbers past `u64` and out of range, non-ASCII text.
    #[rustfmt::skip]
    const PIECES: &[&str] = &[
        "{", "}", "[", "]", ":", ",", "\"", " ", "null", "true", "0", "1", "7", "-1", "1.5",
        "1e400", "18446744073709551616", "\"type\"", "\"circuit\"", "\"shuffle\"", "\"ird\"",
        "\"network\"", "\"n\"", "\"stages\"", "\"levels\"", "\"blocks\"", "\"rdn\"",
        "\"pre_route\"", "\"Cmp\"", "\"Pass\"", "\"x\"", "é", "\\u",
    ];

    /// Values a member of a valid document is replaced with.
    #[rustfmt::skip]
    const SUBSTITUTES: &[&str] = &[
        "null", "0", "3", "-1", "2.5", "18446744073709551616", "\"Cmp\"", "\"ird\"", "[]",
        "[0]", "[0,1,[]]", "{}", "{\"type\":\"circuit\"}",
    ];

    fn pick<'a>(rng: &mut TestRng, items: &[&'a str]) -> &'a str {
        items[rng.below(items.len() as u64) as usize]
    }

    /// A circuit, shuffle or IRD document as `save` writes it, or compact.
    fn valid(rng: &mut TestRng) -> String {
        let mut seeded = StdRng::seed_from_u64(rng.next_u64());
        let doc = match rng.below(3) {
            0 => {
                let route = Permutation::from_images_unchecked(vec![1, 0, 3, 2]);
                let levels = vec![
                    Level::of_elements(vec![Element::cmp(0, 1), Element::cmp_rev(2, 3)]),
                    Level { route: Some(route), elements: vec![Element::cmp(1, 2)] },
                ];
                NetworkFile::Circuit { network: ComparatorNetwork::new(4, levels).unwrap() }
            }
            1 => {
                let n = 1 << (1 + rng.below(3));
                let sn = random_shuffle_network(n, 1 + rng.below(4) as usize, 0.5, &mut seeded);
                NetworkFile::from_shuffle(&sn)
            }
            _ => {
                let (k, l) = (1 + rng.below(2) as usize, 1 + rng.below(3) as usize);
                let cfg = RandomDeltaConfig::default();
                NetworkFile::Ird { network: random_iterated(k, l, &cfg, true, &mut seeded) }
            }
        };
        if rng.below(2) == 0 {
            serde_json::to_string_pretty(&doc).unwrap()
        } else {
            serde_json::to_string(&doc).unwrap()
        }
    }

    /// The `k`-th node of `v` in pre-order, if it has that many.
    fn node<'v>(v: &'v mut Value, k: &mut u64) -> Option<&'v mut Value> {
        if *k == 0 {
            return Some(v);
        }
        *k -= 1;
        match v {
            Value::Array(items) => items.iter_mut().find_map(|c| node(c, k)),
            Value::Object(members) => members.iter_mut().find_map(|(_, c)| node(c, k)),
            _ => None,
        }
    }

    /// Valid documents, then changed: a member's value replaced, a member
    /// dropped or repeated; then the text truncated, spliced with syntax,
    /// or with a range deleted (on `char` boundaries).
    struct Documents;

    impl Documents {
        fn boundary(s: &str, rng: &mut TestRng) -> usize {
            let mut at = rng.below(s.len() as u64 + 1) as usize;
            while !s.is_char_boundary(at) {
                at -= 1;
            }
            at
        }
    }

    impl Strategy for Documents {
        type Value = String;
        fn gen_value(&self, rng: &mut TestRng) -> String {
            let mut doc: Value = serde_json::from_str(&valid(rng)).unwrap();
            for _ in 0..rng.below(3) {
                let mut k = rng.below(60);
                let Some(at) = node(&mut doc, &mut k) else { continue };
                match (rng.below(3), at) {
                    (0, Value::Object(members)) if !members.is_empty() => {
                        members.remove(rng.below(members.len() as u64) as usize);
                    }
                    (1, Value::Object(members)) if !members.is_empty() => {
                        let i = rng.below(members.len() as u64) as usize;
                        let (key, _) = members[i].clone();
                        let value = serde_json::from_str(pick(rng, SUBSTITUTES)).unwrap();
                        members.insert(rng.below(members.len() as u64 + 1) as usize, (key, value));
                    }
                    (_, at) => *at = serde_json::from_str(pick(rng, SUBSTITUTES)).unwrap(),
                }
            }
            let mut s = serde_json::to_string(&doc).unwrap();
            for _ in 0..rng.below(3) {
                let at = Self::boundary(&s, rng);
                match rng.below(3) {
                    0 => s.truncate(at),
                    1 => s.insert_str(at, pick(rng, PIECES)),
                    _ => {
                        let end = Self::boundary(&s, rng).max(at);
                        s.replace_range(at..end, "");
                    }
                }
            }
            s
        }
    }

    /// `text` decoded as a network file from the text and from its `Value`
    /// tree: `Err` unless both give the same document (compared by its
    /// encoding) or the same error text.
    fn text_and_tree(text: &str) -> Result<(), String> {
        let decode = || {
            let encode = |doc: NetworkFile| serde_json::to_string(&doc).unwrap();
            let direct = serde_json::from_str(text).map(encode).map_err(|e| e.to_string());
            let walked = serde_json::from_str::<Value>(text)
                .and_then(serde_json::from_value)
                .map(encode)
                .map_err(|e| e.to_string());
            (direct, walked)
        };
        let (direct, walked) = std::panic::catch_unwind(decode)
            .map_err(|_| format!("decoding panicked on {text:?}"))?;
        if direct == walked {
            Ok(())
        } else {
            Err(format!("from text {direct:?}, from the tree {walked:?}, on {text:?}"))
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 1000, ..ProptestConfig::default() })]

        #[test]
        fn arbitrary_text_decodes_alike_from_text_and_tree(
            pieces in proptest::collection::vec(0usize..PIECES.len(), 0..40),
        ) {
            let text: String = pieces.iter().map(|&i| PIECES[i]).collect();
            prop_assert!(text_and_tree(&text).is_ok(), "{:?}", text_and_tree(&text));
        }

        #[test]
        fn mangled_documents_decode_alike_from_text_and_tree(text in Documents) {
            prop_assert!(text_and_tree(&text).is_ok(), "{:?}", text_and_tree(&text));
        }
    }

    #[test]
    fn every_kind_round_trips() {
        let mut rng = TestRng::deterministic("every_kind_round_trips");
        let mut kinds = [0; 3];
        for _ in 0..30 {
            let text = valid(&mut rng);
            let doc: NetworkFile = serde_json::from_str(&text).unwrap();
            kinds[match doc {
                NetworkFile::Circuit { .. } => 0,
                NetworkFile::Shuffle { .. } => 1,
                NetworkFile::Ird { .. } => 2,
            }] += 1;
            let again = serde_json::to_string(&doc).unwrap();
            let compact = serde_json::to_string(&serde_json::from_str::<Value>(&text).unwrap());
            assert_eq!(again, compact.unwrap());
        }
        assert!(kinds.iter().all(|&k| k > 0), "{kinds:?}");
    }
}
