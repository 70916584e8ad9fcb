//! Experiment dispatcher: regenerates every table and figure series in
//! EXPERIMENTS.md.
//!
//! Usage: `experiments <e1|…|e18|all> [--full] [--seed N] [--threads N]`

use snet_bench::{run_experiment, ExpConfig};

/// Exit code 2 with `msg`: a flag, or a flag value, this binary does
/// not take.
fn bad_flag(msg: &str) -> ! {
    eprintln!("experiments: {msg}");
    std::process::exit(2)
}

fn main() {
    let mut cfg = ExpConfig::default();
    let mut id = String::from("all");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = || args.next().unwrap_or_else(|| bad_flag(&format!("{arg} takes a value")));
        match arg.as_str() {
            "--full" => cfg.full = true,
            "--seed" => {
                cfg.seed = value().parse().unwrap_or_else(|_| bad_flag("--seed takes a u64"))
            }
            "--threads" => {
                cfg.threads =
                    value().parse().unwrap_or_else(|_| bad_flag("--threads takes a count"))
            }
            other if !other.starts_with('-') => id = other.to_string(),
            other => bad_flag(&format!("unknown flag {other}")),
        }
    }
    println!(
        "shufflebound experiments — id={id} seed={} full={} threads={}\n",
        cfg.seed, cfg.full, cfg.threads
    );
    if !run_experiment(&id, &cfg) {
        eprintln!("unknown experiment id {id}; use e1..e18 or all");
        std::process::exit(2);
    }
}
