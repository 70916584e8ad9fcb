//! # snet-search — depth-optimal search, sandwiching the lower bound
//!
//! The paper proves networks *based on the shuffle permutation* need
//! `Ω(lg²n / lg lg n)` depth; this crate attacks the same quantity from
//! above, searching for minimum-depth sorting networks by iterative
//! deepening over comparator layers with the adversary bound
//! ([`snet_adversary::DepthOracle`]) as an admissible pruning oracle.
//! Two layer disciplines:
//!
//! * [`SearchMode::Unrestricted`] — layers are arbitrary matchings;
//!   reproduces the known optimal depths `1, 3, 3, 5, 5, 6, 6` for
//!   `n = 2..=8`;
//! * [`SearchMode::ShuffleLegal`] — every layer routes by the shuffle
//!   `σ` and acts on register pairs, the paper's model; measured optima
//!   here sit between the adversary floor and the unrestricted optimum,
//!   making the lower bound's slack directly observable.
//!
//! The engine ([`search`]) runs on reachable 0-1 sets
//! ([`snet_core::zeroone::ZeroOneSet`]) with subsumption, a shared
//! refutation-only transposition table ([`tt::TransTable`]), symmetry-
//! broken two-layer prefixes ([`layers`]), and a worker pool that claims
//! prefix tasks in index order and whose result is bit-identical for
//! every thread count (see the determinism argument in [`engine`]'s
//! module docs). Every witness is
//! re-verified by the sharded exhaustive 0-1 checker before it is
//! reported.

#![warn(missing_docs)]

pub mod engine;
pub mod frontier;
pub mod layers;
pub mod tt;

pub use engine::{
    search, BudgetRound, CancelToken, PrefixSummary, RoundHists, SearchConfig, SearchMode,
    SearchOutcome, SearchStats, WorkerBalance,
};
pub use frontier::{Frontier, FRONTIER_SCHEMA};
pub use layers::{Layer, MoveSet};
pub use tt::TransTable;
