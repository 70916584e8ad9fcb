//! Records the IR pass-pipeline effect table to `results/ir_passes.json`.
//!
//! For every sorter in the zoo (bitonic shuffle, odd-even mergesort,
//! Pratt, periodic balanced, brick wall — each at two sizes), runs the
//! optimizing pipeline and records, per pass: compile cost in
//! nanoseconds and the ops/size/depth before and after. The canonical
//! prefix shows what route absorption and Pass/Swap elimination cost on
//! the shuffle-based forms; the `redundant-elim`/`relayer` rows show what
//! the optimizing tail buys on each construction (E17's finding — the
//! periodic balanced sorter's inert comparators — shows up here as a
//! size drop).
//!
//! Usage: `cargo run --release -p snet-bench --bin ir_passes
//! [-- -o results/ir_passes.json]`

use serde::Serialize;
use serde_json::Value;
use snet_core::ir::{PassManager, Program};
use snet_core::network::ComparatorNetwork;
use snet_obs::json::obj;
use snet_sorters::{
    bitonic_shuffle, brick_wall, odd_even_mergesort, periodic_balanced, pratt_network,
};

fn zoo() -> Vec<(String, ComparatorNetwork)> {
    let mut out = Vec::new();
    for n in [16usize, 64] {
        out.push((format!("bitonic_shuffle_{n}"), bitonic_shuffle(n).to_network()));
        out.push((format!("odd_even_{n}"), odd_even_mergesort(n)));
        out.push((format!("pratt_{n}"), pratt_network(n)));
        out.push((format!("periodic_{n}"), periodic_balanced(n)));
        out.push((format!("brick_wall_{n}"), brick_wall(n)));
    }
    out
}

fn network_entry(name: &str, net: &ComparatorNetwork) -> Value {
    let mut prog = Program::from_network(net);
    let raw_ops = prog.op_count() as u64;
    let records = PassManager::optimizing().run(&mut prog);
    let passes: Vec<Value> = records
        .iter()
        .map(|r| {
            obj(vec![
                ("pass", r.name.serialize()),
                ("ops_before", r.ops_before.serialize()),
                ("ops_after", r.ops_after.serialize()),
                ("size_before", r.size_before.serialize()),
                ("size_after", r.size_after.serialize()),
                ("depth_before", r.depth_before.serialize()),
                ("depth_after", r.depth_after.serialize()),
                ("ops_eliminated", r.ops_eliminated().serialize()),
                ("nanos", (r.nanos as u64).serialize()),
            ])
        })
        .collect();
    eprintln!(
        "[{name}] {} raw ops → {} ops ({} comparators), depth {} → {}",
        raw_ops,
        prog.op_count(),
        prog.size(),
        net.depth(),
        prog.depth()
    );
    obj(vec![
        ("network", name.serialize()),
        ("wires", net.wires().serialize()),
        ("source_levels", net.depth().serialize()),
        ("source_comparators", net.size().serialize()),
        ("raw_ops", raw_ops.serialize()),
        ("final_ops", prog.op_count().serialize()),
        ("final_size", prog.size().serialize()),
        ("final_depth", prog.depth().serialize()),
        ("passes", Value::Array(passes)),
    ])
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out = String::from("results/ir_passes.json");
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "-o" => {
                i += 1;
                out = args[i].clone();
            }
            other => {
                eprintln!("unknown flag {other}");
                std::process::exit(2);
            }
        }
        i += 1;
    }
    let entries: Vec<Value> = zoo().iter().map(|(name, net)| network_entry(name, net)).collect();
    let doc = obj(vec![
        ("schema", "snet-ir-passes/2".serialize()),
        ("schema_version", 2u64.serialize()),
        ("manifest", snet_obs::RunManifest::capture("ir_passes").serialize()),
        (
            "pipeline",
            "absorb-routes, normalize-cmprev, strip-pass-swap, redundant-elim, relayer".serialize(),
        ),
        ("networks", Value::Array(entries)),
    ]);
    if let Some(dir) = std::path::Path::new(&out).parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    let text = serde_json::to_string_pretty(&doc).expect("serialize pass table");
    std::fs::write(&out, text).expect("write pass table");
    eprintln!("wrote {out}");
}
