//! # snet-adversary — the constructive lower bound of Section 4
//!
//! The paper's `Ω(lg²n / lg lg n)` bound is proved by an adversary that,
//! given any iterated reverse delta network, constructs an input pattern
//! whose `[M_0]`-set is noncolliding — and from it two concrete inputs the
//! network maps to the same output permutation. This crate makes every
//! step executable:
//!
//! * [`lemma41`][mod@crate::lemma41] — the inductive set-maintenance construction (Lemma 4.1),
//!   with a wire-indexed [`lemma41::Engine`] that every Lemma 4.1 run shares;
//! * [`theorem41`][mod@crate::theorem41] — iteration over blocks (Theorem 4.1), with per-block
//!   measured-vs-guaranteed statistics;
//! * [`witness`] — Corollary 4.1.1: the self-verifying
//!   [`witness::SortingRefutation`];
//! * [`naive`] — the Section 2 strawman (single special set, `Ω(lg n)`);
//! * [`adaptive`] — the Section 5 adaptive game, where the builder chooses
//!   each level after seeing all previous comparison outcomes;
//! * [`truncated`] — the Section 5 `f(n)`-stage variant over forests of
//!   truncated reverse delta networks;
//! * [`setfam`] — sparse disjoint set families;
//! * [`oracle`] — the bound repackaged as an admissible residual-depth
//!   floor ([`DepthOracle`]) pruning the `snet-search` depth-optimal
//!   engine.

//!
//! ## Example
//!
//! ```
//! use snet_adversary::{refute, theorem41};
//! use snet_topology::{Block, IteratedReverseDelta, ReverseDelta};
//!
//! // One butterfly block cannot sort: the adversary proves it.
//! let ird = IteratedReverseDelta::new(
//!     vec![Block { pre_route: None, rdn: ReverseDelta::butterfly(4) }],
//!     None,
//! );
//! let out = theorem41(&ird, 4);
//! assert!(out.d_set.len() >= 2);
//!
//! let net = ird.to_network();
//! let witness = refute(&net, &out.input_pattern).unwrap();
//! witness.verify(&net).unwrap(); // independent re-evaluation
//! ```

#![warn(missing_docs)]

pub mod adaptive;
pub mod certificate;
#[cfg(test)]
mod differential;
pub mod lemma41;
pub mod naive;
pub mod oracle;
#[cfg(test)]
mod reference;
pub mod setfam;
pub mod theorem41;
pub mod truncated;
pub mod witness;

pub use certificate::LowerBoundCertificate;
pub use lemma41::{
    check_k, lemma41, lemma41_forest, lemma41_with, AdversaryConfig, Lemma41Output, OffsetPolicy,
    SetChoice,
};
pub use oracle::{DepthOracle, LayerModel};
pub use theorem41::theorem41_with;
pub use theorem41::{theorem41, Theorem41Output};
pub use witness::{refute, refute_all_pairs, refute_compiled, RefuteError, SortingRefutation};
