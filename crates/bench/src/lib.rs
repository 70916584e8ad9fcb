//! # snet-bench — experiment harness
//!
//! One module per experiment in EXPERIMENTS.md (E1–E18), each regenerating
//! its table/figure series; run them via the `experiments` binary:
//!
//! ```text
//! cargo run --release -p snet-bench --bin experiments -- all
//! cargo run --release -p snet-bench --bin experiments -- e3 --full
//! ```
//!
//! The `baselines` binary, the workspace's one timing harness, records
//! every committed `results/baselines/*.json` measurement.
//!
//! The experiments share seeded [`workload`] generators, sortedness
//! [`metrics`], a deterministic parallel [`sweep`][mod@sweep] driver,
//! and uniform [`table`] (text + CSV) and [`plot`] rendering:
//!
//! ```
//! use snet_bench::{sweep, Table, Workload};
//!
//! let mut w = Workload::new(42);
//! let inputs = w.permutations(8, 4);
//! let rows = sweep(inputs, 2, |p| p.iter().copied().max().unwrap());
//! assert_eq!(rows, vec![7, 7, 7, 7]);
//!
//! let mut t = Table::new("demo", &["max"]);
//! t.row(vec![rows[0].to_string()]);
//! assert!(t.render().contains("demo"));
//! ```

#![warn(missing_docs)]

pub mod common;
pub mod e10_adjacent;
pub mod e11_adaptive;
pub mod e12_ablation;
pub mod e13_single_perm;
pub mod e14_halver;
pub mod e15_hypercube;
pub mod e16_verification;
pub mod e17_redundancy;
pub mod e18_search;
pub mod e1_lemma;
pub mod e2_theorem;
pub mod e3_witness;
pub mod e4_upper;
pub mod e5_truncated;
pub mod e6_naive;
pub mod e7_average;
pub mod e8_routing;
pub mod e9_models;
pub mod metrics;
pub mod plot;
mod registry_tests;
pub mod sweep;
pub mod table;
pub mod workload;

pub use common::ExpConfig;
pub use metrics::{inversions, max_dislocation, mean_dislocation, wilson95};
pub use plot::{ascii_chart, Series};
pub use sweep::sweep;
pub use table::{fmt_f, Table};
pub use workload::Workload;

/// Runs one experiment by id ("e1" … "e18") or "all".
pub fn run_experiment(id: &str, cfg: &ExpConfig) -> bool {
    match id {
        "e1" => e1_lemma::run(cfg),
        "e2" => e2_theorem::run(cfg),
        "e3" => e3_witness::run(cfg),
        "e4" => e4_upper::run(cfg),
        "e5" => e5_truncated::run(cfg),
        "e6" => e6_naive::run(cfg),
        "e7" => e7_average::run(cfg),
        "e8" => e8_routing::run(cfg),
        "e9" => e9_models::run(cfg),
        "e10" => e10_adjacent::run(cfg),
        "e11" => e11_adaptive::run(cfg),
        "e12" => e12_ablation::run(cfg),
        "e13" => e13_single_perm::run(cfg),
        "e14" => e14_halver::run(cfg),
        "e15" => e15_hypercube::run(cfg),
        "e16" => e16_verification::run(cfg),
        "e17" => e17_redundancy::run(cfg),
        "e18" => e18_search::run(cfg),
        "all" => {
            for e in [
                "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10", "e11", "e12", "e13",
                "e14", "e15", "e16", "e17", "e18",
            ] {
                println!("=== {} ===", e.to_uppercase());
                run_experiment(e, cfg);
            }
        }
        _ => return false,
    }
    true
}
