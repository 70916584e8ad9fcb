//! Shared configuration for the experiment binaries.

use snet_core::ir::{default_engine_threads, Executor};
use snet_core::network::ComparatorNetwork;
use snet_topology::random::{RandomDeltaConfig, SplitStyle};

/// Global experiment configuration (sizes scale with `full`).
#[derive(Debug, Clone, Copy)]
pub struct ExpConfig {
    /// Master seed; every experiment derives sub-seeds from it.
    pub seed: u64,
    /// Larger instance sizes and more trials.
    pub full: bool,
    /// Worker threads for sweeps.
    pub threads: usize,
}

impl Default for ExpConfig {
    fn default() -> Self {
        ExpConfig { seed: 0x5EED_CAFE, full: false, threads: default_engine_threads() }
    }
}

impl ExpConfig {
    /// Log-sizes for the main sweeps.
    pub fn lg_sizes(&self) -> Vec<usize> {
        if self.full {
            vec![4, 6, 8, 10, 12, 14]
        } else {
            vec![4, 6, 8, 10]
        }
    }

    /// Monte-Carlo trial count.
    pub fn trials(&self) -> u64 {
        if self.full {
            20_000
        } else {
            2_000
        }
    }
}

/// The random reverse-delta configuration used across experiments: full
/// comparator density (hardest for the adversary — every slot compares),
/// balanced directions.
pub fn dense_cfg(split: SplitStyle) -> RandomDeltaConfig {
    RandomDeltaConfig { split, comparator_density: 1.0, reverse_bias: 0.5, swap_density: 0.0 }
}

/// Compiles a network once through the IR's canonical pipeline. The
/// experiment binaries funnel evaluation through this helper so the whole
/// E1–E17 suite runs on the same compiled backend as the library — none
/// of them walk the interpreter directly.
pub fn compiled(net: &ComparatorNetwork) -> Executor {
    Executor::compile(net)
}

/// Writes a table to stdout and appends its CSV form under `results/`.
pub fn emit(table: &crate::Table, csv_name: &str) {
    println!("{}", table.render());
    let dir = std::path::Path::new("results");
    if std::fs::create_dir_all(dir).is_ok() {
        let _ = std::fs::write(dir.join(csv_name), table.to_csv());
    }
}
