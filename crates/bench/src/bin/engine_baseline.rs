//! Records the verification-engine perf baseline to
//! `results/engine_baseline.json`.
//!
//! Measures, with plain wall-clock timing (median of `--reps` runs):
//!
//! * the seed scalar exhaustive 0-1 scan
//!   ([`snet_core::sortcheck::check_zero_one_exhaustive`]),
//! * the compiled sharded checker
//!   ([`snet_core::ir::check_zero_one_sharded`]) at 1/2/4/8 threads,
//! * interpreted vs compiled single scalar evaluation,
//!
//! on `bitonic_shuffle(16)` (routes every level — the case compilation
//! targets) and `brick_wall(20)` (the 2²⁰-input space; bitonic itself is
//! power-of-two-only so the 20-wire row uses the brick wall).
//!
//! Usage: `cargo run --release -p snet-bench --bin engine_baseline
//! [-- --reps R -o results/engine_baseline.json]`

use serde::Serialize;
use serde_json::Value;
use snet_core::ir::{check_zero_one_sharded, Executor};
use snet_core::network::ComparatorNetwork;
use snet_core::sortcheck::check_zero_one_exhaustive;
use snet_obs::json::obj;
use snet_sorters::{bitonic_shuffle, brick_wall};
use std::time::Instant;

fn median_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut samples: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    samples[samples.len() / 2]
}

fn check_scenarios(name: &str, net: &ComparatorNetwork, reps: usize) -> Value {
    let n = net.wires();
    eprintln!("[{name}] n={n}, {} comparators, depth {}", net.size(), net.depth());
    let seed_ms = median_ms(reps, || {
        assert!(check_zero_one_exhaustive(net).is_sorting());
    });
    eprintln!("  seed scalar exhaustive: {seed_ms:.2} ms");
    let mut rows = Vec::new();
    for threads in [1usize, 2, 4, 8] {
        let ms = median_ms(reps, || {
            assert!(check_zero_one_sharded(net, threads).is_sorting());
        });
        eprintln!("  sharded t={threads}: {ms:.2} ms ({:.1}x vs seed)", seed_ms / ms);
        rows.push(obj(vec![
            ("threads", threads.serialize()),
            ("millis", ms.serialize()),
            ("speedup_vs_seed", (seed_ms / ms).serialize()),
        ]));
    }
    obj(vec![
        ("network", name.serialize()),
        ("wires", n.serialize()),
        ("comparators", net.size().serialize()),
        ("inputs", (1u64 << n).serialize()),
        ("seed_scalar_millis", seed_ms.serialize()),
        ("sharded", Value::Array(rows)),
    ])
}

fn scalar_scenario(reps: usize) -> Value {
    let n = 1024usize;
    let net = bitonic_shuffle(n).to_network();
    let compiled = Executor::compile(&net);
    let input: Vec<u32> = (0..n as u32).rev().collect();
    let interp_ms = median_ms(reps, || {
        std::hint::black_box(net.evaluate(&input));
    });
    let mut values = input.clone();
    let mut scratch = Vec::new();
    let compiled_ms = median_ms(reps, || {
        values.copy_from_slice(&input);
        compiled.run_scalar_in_place(&mut values, &mut scratch);
        std::hint::black_box(&values);
    });
    eprintln!(
        "[scalar n={n}] interpreter {interp_ms:.4} ms, compiled {compiled_ms:.4} ms \
         ({:.1}x)",
        interp_ms / compiled_ms
    );
    obj(vec![
        ("network", "bitonic_shuffle".serialize()),
        ("wires", n.serialize()),
        ("interpreter_millis", interp_ms.serialize()),
        ("compiled_millis", compiled_ms.serialize()),
        ("speedup", (interp_ms / compiled_ms).serialize()),
    ])
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut reps = 5usize;
    let mut out = String::from("results/engine_baseline.json");
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--reps" => {
                i += 1;
                reps = args[i].parse().expect("--reps takes a count");
            }
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
    let cores = std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1);
    let doc = obj(vec![
        ("schema", "snet-engine-baseline/2".serialize()),
        ("schema_version", 2u64.serialize()),
        ("manifest", snet_obs::RunManifest::capture("engine_baseline").serialize()),
        ("units", "milliseconds, median".serialize()),
        (
            "hardware",
            obj(vec![
                ("logical_cores", cores.serialize()),
                ("os", std::env::consts::OS.serialize()),
                ("arch", std::env::consts::ARCH.serialize()),
            ]),
        ),
        ("reps", reps.serialize()),
        ("scalar_single_eval", scalar_scenario(reps.max(5) * 40)),
        (
            "exhaustive_01",
            Value::Array(vec![
                check_scenarios("bitonic_shuffle", &bitonic_shuffle(16).to_network(), reps),
                check_scenarios("brick_wall", &brick_wall(20), reps),
            ]),
        ),
    ]);
    let text = serde_json::to_string_pretty(&doc).expect("serialize baseline");
    std::fs::write(&out, text).expect("write baseline");
    eprintln!("wrote {out}");
}
