//! `snet-store` — the workspace's content-addressed artifact cache.
//!
//! Every verdict-producing path (checking, search, the adversary
//! commands) keys its result by [`snet_core::ir::CanonicalHash`] — a
//! stable digest of the circuit's *canonical form*, computed after a
//! lowering that absorbs routes and the canonical passes
//! (`normalize-cmprev`, `strip-pass-swap`). Two presentations of the
//! same circuit (different pass orderings, `Cmp`/`CmpRev` spellings,
//! element listing order, inert `Pass`/`Swap` padding) share one
//! address, so a verdict computed once is replayed byte-identically
//! forever after.
//!
//! The crate provides:
//!
//! * [`ArtifactStore`] — the sharded on-disk store: crash-safe writes
//!   (temp file + rename), checksum-verified reads, quarantine (never
//!   abort) on corruption, generation-based GC;
//! * [`tt`] — a spill/load format for the search engine's UNSAT
//!   transposition table, so warm searches start with the previous run's
//!   refutation facts.
//!
//! Lookups and writes tick the `store.hits` / `store.misses` /
//! `store.bytes` obs counters, so cache behaviour lands in run reports
//! next to the engine's own metrics.

#![warn(missing_docs)]

pub mod store;
pub mod tt;

pub use store::{
    ArtifactStore, EntryMeta, GcReport, StoreStats, StoredEntry, ENTRY_SCHEMA, KIND_TT_FACTS,
    KIND_VERDICT, META_SCHEMA,
};
pub use tt::{load_tt_facts, save_tt_facts, TtFacts};
