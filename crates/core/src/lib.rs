//! # snet-core — comparator-network substrate
//!
//! The foundation of the `shufflebound` workspace, an executable
//! reproduction of *Plaxton & Suel, "A Lower Bound for Sorting Networks
//! Based on the Shuffle Permutation" (SPAA 1992)*.
//!
//! This crate implements both comparator-network models from Section 1 of
//! the paper:
//!
//! * the **circuit model** — leveled networks of two-wire elements
//!   ([`network::ComparatorNetwork`]), and
//! * the **register model** — `(Π_i, x̄_i)` stages over registers
//!   ([`register::RegisterNetwork`]),
//!
//! together with validated [`perm::Permutation`]s (including the shuffle
//! `σ` the paper is named after), the `{+,-,0,1}` circuit elements,
//! sorting-property checkers built on the 0-1 principle
//! ([`sortcheck`]), comparison tracing realizing Definition 3.6's collision
//! notion on concrete inputs ([`trace`]), and batched/parallel evaluation
//! ([`ir::Executor::evaluate_batch`], [`ir::Executor::count_sorted`]).
//!
//! All evaluation funnels through the compiled IR in [`ir`]: both models
//! lower into one flat [`ir::Program`], a [`ir::PassManager`] rewrites it
//! (route absorption, `CmpRev` normalization, `Pass`/`Swap` and redundant
//! comparator elimination, re-layering), and a single [`ir::Executor`]
//! runs the scalar, 64-lane 0-1, sharded, and batched backends. The
//! interpreters in [`network`]/[`register`] are kept as the reference
//! semantics the differential suites compare against.
//!
//! Higher layers build on this: `snet-topology` (shuffle/butterfly/reverse
//! delta networks), `snet-pattern` (the §3 input-pattern calculus), and
//! `snet-adversary` (the §4 lower-bound construction).
//!
//! ## Example
//!
//! ```
//! use snet_core::prelude::*;
//!
//! // A 2-wire sorter, checked exhaustively via the 0-1 principle.
//! let net = ComparatorNetwork::new(
//!     2,
//!     vec![Level::of_elements(vec![Element::cmp(0, 1)])],
//! ).unwrap();
//! assert!(check_zero_one_exhaustive(&net).is_sorting());
//! assert_eq!(net.evaluate(&[9, 3]), vec![3, 9]);
//! ```

#![warn(missing_docs)]

pub mod api;
#[cfg(test)]
mod batch;
pub mod element;
pub mod ir;
pub mod network;
pub mod optimize;
pub mod perm;
pub mod register;
pub mod sortcheck;
pub mod trace;
pub mod verdict;
pub mod viz;
pub mod zeroone;

/// Convenient glob-import of the most-used items.
pub mod prelude {
    pub use crate::element::{Element, ElementKind, WireId};
    pub use crate::ir::{
        check_zero_one_sharded, default_engine_threads, CanonicalHash, Executor, PassManager,
        PassRecord, Program,
    };
    pub use crate::network::{CmpEvent, ComparatorNetwork, Level, NetworkError};
    pub use crate::perm::Permutation;
    pub use crate::register::{RegisterNetwork, RegisterStage};
    pub use crate::sortcheck::{
        check_permutations_exhaustive, check_random_permutations, check_zero_one_exhaustive,
        fraction_sorted, is_sorted, SortCheck,
    };
    pub use crate::trace::{AdjacentCoverage, ComparisonTrace};
    pub use crate::verdict::{verdict_zero_one_exhaustive, Verdict, VerdictKind};
    pub use crate::zeroone::{CompiledLayer, ZeroOneSet};
}
