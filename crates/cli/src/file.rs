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

    /// Reads a document from a JSON file.
    pub fn load(path: &str) -> Result<Self, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))
    }

    /// Writes the document as pretty JSON.
    pub fn save(&self, path: &str) -> Result<(), String> {
        let text = serde_json::to_string_pretty(self).map_err(|e| e.to_string())?;
        std::fs::write(path, text).map_err(|e| format!("{path}: {e}"))
    }
}
