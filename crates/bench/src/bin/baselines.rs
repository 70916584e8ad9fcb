//! Records every committed perf baseline: one `snet-bench-baseline/1`
//! file per scenario, `<baseline-dir>/<label>.json`, the files `snetctl
//! bench diff` compares fresh runs against in CI.
//!
//! Scenarios, in run order, with their metrics:
//!
//! * `store_warm_n7` — a `brick_wall(7)` verdict through a temporary
//!   artifact store: `cold_us` (compile, exhaustive check, manifest
//!   capture, serialize — what `snetctl check --exhaustive` pays on a
//!   miss), `warm_us` (hash, read, checksum, parse — a hit, median of
//!   32) and `speedup`. It runs first, so its cold leg pays the
//!   process's one `git`/`rustc` probe, as a miss in a fresh CLI does.
//! * `engine_bitonic_shuffle_16`, `engine_brick_wall_20` — the compiled
//!   exhaustive 0-1 check ([`check_zero_one_sharded`]):
//!   `threads{1,2,4,8}_ms`, median of 5. The brick wall covers the
//!   2²⁰-input space (bitonic is power-of-two-only).
//! * `engine_scalar_bitonic_shuffle_1024` — one scalar evaluation,
//!   interpreted vs compiled: `interpreter_ms`, `compiled_ms`, `speedup`.
//! * `ir_passes_<network>_<n>` — the optimizing pass pipeline over the
//!   sorter zoo: `raw_{ops,size,depth}_total`, per pass
//!   `<pass>_{ops,size,depth}_after_total` and `<pass>_ns`, and
//!   `final_{ops,size,depth}_total`.
//! * `counter_atomic`, `counter_bitonic_w{4,8,16}`,
//!   `counter_periodic_w8` — 4 threads × 200,000 increments of one
//!   shared atomic or a counting network: `wall_ms`, `ops_per_sec`.
//! * `search_n{5,6,7}`, `search_shuffle_n4`, and `search_n8` under
//!   `--full` (about 2 minutes) — depth-optimal search: `wall_ms`,
//!   `nodes_total`, `tt_hit_rate`, `states_per_sec`. The runs also go to
//!   `-o` as one `snet-search-frontier/2` document.
//!
//! A scenario checks what it measured (sorted verdicts, byte-identical
//! replays, the counters' step property) before its file is written: a
//! baseline from broken code is worse than none.
//!
//! Usage: `cargo run --release -p snet-bench --bin baselines [--
//! --only PREFIX] [--baseline-dir DIR] [--threads N] [--full] [--flight]
//! [-o FILE]`
//!
//! * `--only PREFIX` runs the scenarios whose label starts with PREFIX
//!   (exit 2 if none does);
//! * `--baseline-dir` defaults to `results/baselines`;
//! * `--threads` sets the search workers (default 1);
//! * `--flight` turns the flight recorder on, so CI can diff a flight-on
//!   baseline against a flight-off one and gate the recorder's overhead;
//! * `-o` defaults to `results/search_frontier.json`, written only when a
//!   search scenario ran.

use snet_core::ir::{check_zero_one_sharded, CanonicalHash, Executor, PassManager, Program};
use snet_core::network::ComparatorNetwork;
use snet_core::verdict::verdict_zero_one;
use snet_obs::{Baseline, RunManifest};
use snet_runtime::CountingNetwork;
use snet_search::{search, Frontier, SearchConfig, SearchMode, SearchOutcome};
use snet_sorters::{
    bitonic_shuffle, brick_wall, odd_even_mergesort, periodic_balanced, pratt_network,
};
use snet_store::ArtifactStore;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Timed repetitions per engine measurement (the median is recorded).
const ENGINE_REPS: usize = 5;
/// Threads and increments per thread of every counter scenario.
const COUNTER_THREADS: usize = 4;
const COUNTER_OPS: usize = 200_000;

/// A scenario's metrics, in the order they are reported.
type Metrics = Vec<(String, f64)>;

/// Measures one scenario. Search scenarios also keep their outcome for
/// the frontier document.
type Measure = Box<dyn FnOnce(&mut Vec<SearchOutcome>) -> Metrics>;

/// A scenario that keeps no outcome.
fn plain(measure: impl FnOnce() -> Metrics + 'static) -> Measure {
    Box::new(|_| measure())
}

fn metric(name: &str, value: f64) -> (String, f64) {
    (name.to_string(), value)
}

fn millis(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn median_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            millis(t.elapsed())
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// Every scenario, labelled, in run order. Building the list measures
/// nothing.
fn scenarios(search_threads: usize, full: bool) -> Vec<(String, Measure)> {
    let mut out: Vec<(String, Measure)> = vec![("store_warm_n7".into(), plain(|| store_warm(7)))];
    for (name, net) in [
        ("bitonic_shuffle_16", bitonic_shuffle(16).to_network()),
        ("brick_wall_20", brick_wall(20)),
    ] {
        out.push((format!("engine_{name}"), plain(move || engine_check(&net))));
    }
    out.push(("engine_scalar_bitonic_shuffle_1024".into(), plain(|| scalar(1024))));
    for n in [16usize, 64] {
        for (name, net) in [
            ("bitonic_shuffle", bitonic_shuffle(n).to_network()),
            ("odd_even", odd_even_mergesort(n)),
            ("pratt", pratt_network(n)),
            ("periodic", periodic_balanced(n)),
            ("brick_wall", brick_wall(n)),
        ] {
            out.push((format!("ir_passes_{name}_{n}"), plain(move || ir_passes(&net))));
        }
    }
    out.push(("counter_atomic".into(), plain(|| counter(|| None))));
    for (name, width, build) in [
        ("bitonic", 4, CountingNetwork::bitonic as fn(usize) -> CountingNetwork),
        ("bitonic", 8, CountingNetwork::bitonic),
        ("bitonic", 16, CountingNetwork::bitonic),
        ("periodic", 8, CountingNetwork::periodic),
    ] {
        out.push((
            format!("counter_{name}_w{width}"),
            plain(move || counter(|| Some(build(width)))),
        ));
    }
    let mut searches = vec![
        (5, SearchMode::Unrestricted),
        (6, SearchMode::Unrestricted),
        (7, SearchMode::Unrestricted),
        (4, SearchMode::ShuffleLegal),
    ];
    if full {
        searches.push((8, SearchMode::Unrestricted));
    }
    for (n, mode) in searches {
        let label = match mode {
            SearchMode::Unrestricted => format!("search_n{n}"),
            SearchMode::ShuffleLegal => format!("search_shuffle_n{n}"),
        };
        out.push((
            label,
            Box::new(move |runs: &mut Vec<SearchOutcome>| {
                let mut cfg = SearchConfig::new(n, mode);
                if search_threads > 0 {
                    cfg.threads = search_threads;
                }
                let outcome = search(&cfg);
                let metrics = search_metrics(&outcome);
                runs.push(outcome);
                metrics
            }),
        ));
    }
    out
}

/// Cold verdict (a miss's full cost) against warm store hits, with the
/// replayed bytes checked against the cold bytes.
fn store_warm(n: usize) -> Metrics {
    let net = brick_wall(n);
    let root = std::env::temp_dir().join(format!("snet-store-warm-{}", std::process::id()));
    let store = ArtifactStore::open(&root).expect("open store");

    let cold_start = Instant::now();
    let exec = Executor::compile(&net);
    let hash = CanonicalHash::of_program(exec.program());
    let verdict = verdict_zero_one(&exec, 1);
    let cold_bytes = verdict.to_json().into_bytes();
    let cold = cold_start.elapsed();
    assert!(verdict.is_sorting(), "brick_wall({n}) must sort");
    assert_eq!(verdict.hash, hash);
    store.put_verdict(&verdict).expect("cache verdict");

    // The median of repeated hits, so one stray page fault cannot skew it.
    let mut samples = Vec::new();
    for _ in 0..32 {
        let warm_start = Instant::now();
        let exec = Executor::compile(&net);
        let hash = CanonicalHash::of_program(exec.program());
        let (cached, bytes) = store.get_verdict(&hash).expect("warm hit");
        samples.push(warm_start.elapsed());
        assert!(cached.is_sorting());
        assert_eq!(bytes, cold_bytes, "a hit must replay the cold verdict byte for byte");
    }
    let _ = std::fs::remove_dir_all(&root);
    samples.sort();
    let cold_us = cold.as_secs_f64() * 1e6;
    let warm_us = samples[samples.len() / 2].as_secs_f64() * 1e6;
    vec![
        metric("cold_us", cold_us),
        metric("warm_us", warm_us),
        metric("speedup", cold_us / warm_us.max(1e-3)),
    ]
}

fn engine_check(net: &ComparatorNetwork) -> Metrics {
    [1usize, 2, 4, 8]
        .into_iter()
        .map(|threads| {
            let ms = median_ms(ENGINE_REPS, || {
                assert!(check_zero_one_sharded(net, threads).is_sorting());
            });
            (format!("threads{threads}_ms"), ms)
        })
        .collect()
}

fn scalar(n: usize) -> Metrics {
    let net = bitonic_shuffle(n).to_network();
    let compiled = Executor::compile(&net);
    let input: Vec<u32> = (0..n as u32).rev().collect();
    // One evaluation takes microseconds: more reps for a stable median.
    let reps = ENGINE_REPS * 40;
    let interpreter_ms = median_ms(reps, || {
        std::hint::black_box(net.evaluate(&input));
    });
    let mut values = input.clone();
    let mut scratch = Vec::new();
    let compiled_ms = median_ms(reps, || {
        values.copy_from_slice(&input);
        compiled.run_scalar_in_place(&mut values, &mut scratch);
        std::hint::black_box(&values);
    });
    assert!(values.windows(2).all(|w| w[0] <= w[1]), "bitonic_shuffle({n}) must sort");
    vec![
        metric("interpreter_ms", interpreter_ms),
        metric("compiled_ms", compiled_ms),
        metric("speedup", interpreter_ms / compiled_ms),
    ]
}

/// The optimizing pipeline's effect, pass by pass: each pass's "before"
/// is the previous pass's "after" (the first's is `raw_*`).
fn ir_passes(net: &ComparatorNetwork) -> Metrics {
    let mut prog = Program::from_network(net);
    let mut metrics = vec![
        metric("raw_ops_total", prog.op_count() as f64),
        metric("raw_size_total", prog.size() as f64),
        metric("raw_depth_total", prog.depth() as f64),
    ];
    for r in PassManager::optimizing().run(&mut prog) {
        let pass = r.name.replace('-', "_");
        metrics.push((format!("{pass}_ops_after_total"), r.ops_after as f64));
        metrics.push((format!("{pass}_size_after_total"), r.size_after as f64));
        metrics.push((format!("{pass}_depth_after_total"), r.depth_after as f64));
        metrics.push((format!("{pass}_ns"), r.nanos as f64));
    }
    metrics.push(metric("final_ops_total", prog.op_count() as f64));
    metrics.push(metric("final_size_total", prog.size() as f64));
    metrics.push(metric("final_depth_total", prog.depth() as f64));
    metrics
}

/// Times `COUNTER_THREADS × COUNTER_OPS` increments of one shared atomic
/// (`net` is `None`) or traversals of a fresh `net`, then checks the
/// total and the quiescent step property.
fn count_once(net: Option<CountingNetwork>) -> Duration {
    let shared = AtomicU64::new(0);
    let start = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..COUNTER_THREADS {
            s.spawn(|| match &net {
                Some(net) => (0..COUNTER_OPS).for_each(|_| {
                    net.traverse();
                }),
                None => (0..COUNTER_OPS).for_each(|_| {
                    shared.fetch_add(1, Ordering::Relaxed);
                }),
            });
        }
    });
    let elapsed = start.elapsed();
    let total = (COUNTER_THREADS * COUNTER_OPS) as u64;
    match &net {
        Some(net) => {
            assert_eq!(net.total(), total, "no lost traversals");
            net.check_step().expect("quiescent step property");
        }
        None => assert_eq!(shared.load(Ordering::Relaxed), total),
    }
    elapsed
}

fn counter(make: impl Fn() -> Option<CountingNetwork>) -> Metrics {
    // One untimed warm-up settles thread spawn and page faults.
    count_once(make());
    let elapsed = count_once(make());
    vec![
        metric("wall_ms", millis(elapsed)),
        metric(
            "ops_per_sec",
            (COUNTER_THREADS * COUNTER_OPS) as f64 / elapsed.as_secs_f64().max(1e-9),
        ),
    ]
}

fn search_metrics(outcome: &SearchOutcome) -> Metrics {
    let wall_ms: u64 = outcome.rounds.iter().map(|r| r.elapsed_ms).sum();
    let nodes = outcome.totals.nodes as f64;
    eprintln!(
        "[{} n={}] optimal depth {:?}",
        outcome.mode.name(),
        outcome.n,
        outcome.optimal_depth
    );
    let mut metrics = vec![
        metric("wall_ms", wall_ms as f64),
        metric("nodes_total", nodes),
        metric("tt_hit_rate", outcome.totals.tt_hit_rate()),
    ];
    if wall_ms > 0 {
        metrics.push(metric("states_per_sec", nodes * 1000.0 / wall_ms as f64));
    }
    metrics
}

/// Exit code 2 with `msg`: a flag this binary does not take.
fn bad_flag(msg: &str) -> ! {
    eprintln!("baselines: {msg}");
    std::process::exit(2)
}

fn main() {
    let mut only: Option<String> = None;
    let mut dir = String::from("results/baselines");
    let mut search_threads = 0usize;
    let mut full = false;
    let mut out = String::from("results/search_frontier.json");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = || args.next().unwrap_or_else(|| bad_flag(&format!("{arg} takes a value")));
        match arg.as_str() {
            "--only" => only = Some(value()),
            "--baseline-dir" => dir = value(),
            "--threads" => {
                search_threads =
                    value().parse().unwrap_or_else(|_| bad_flag("--threads takes a count"))
            }
            "-o" => out = value(),
            "--full" => full = true,
            "--flight" => snet_obs::enable_flight(),
            other => bad_flag(&format!("unknown flag {other}")),
        }
    }

    let mut selected = scenarios(search_threads, full);
    if let Some(prefix) = &only {
        selected.retain(|(label, _)| label.starts_with(prefix.as_str()));
        if selected.is_empty() {
            bad_flag(&format!("--only {prefix} matches no scenario"));
        }
    }

    let mut runs = Vec::new();
    for (label, measure) in selected {
        let metrics = measure(&mut runs);
        // Captured after measuring: the first capture shells out to git
        // and rustc, which belongs to store_warm's cold leg and nowhere
        // else.
        let mut baseline = Baseline::new(&label, &RunManifest::capture("baselines"));
        baseline.metrics.extend(metrics.iter().cloned());
        let path = std::path::Path::new(&dir).join(format!("{label}.json"));
        baseline.save(&path).expect("write baseline");
        let shown: Vec<String> = metrics
            .iter()
            .filter(|(name, _)| !name.ends_with("_after_total"))
            .map(|(name, value)| format!("{name} {value:.3}"))
            .collect();
        eprintln!("[{label}] {} → {}", shown.join(", "), path.display());
    }

    if !runs.is_empty() {
        let doc = Frontier::Runs(&runs).to_value(&RunManifest::capture("baselines"));
        if let Some(parent) = std::path::Path::new(&out).parent() {
            let _ = std::fs::create_dir_all(parent);
        }
        let text = serde_json::to_string_pretty(&doc).expect("serialize frontier");
        std::fs::write(&out, text).expect("write frontier");
        eprintln!("wrote {out}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_unique_and_cover_every_committed_baseline() {
        let labels: Vec<String> = scenarios(0, true).into_iter().map(|(label, _)| label).collect();
        let mut sorted = labels.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), labels.len(), "duplicate labels in {labels:?}");

        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results/baselines");
        let mut files = 0;
        for entry in std::fs::read_dir(&dir).expect("results/baselines exists") {
            let path = entry.expect("readable entry").path();
            let baseline = Baseline::load(&path).unwrap_or_else(|e| panic!("{e}"));
            assert_eq!(
                path.file_stem().and_then(|s| s.to_str()),
                Some(baseline.name.as_str()),
                "{} is not named after its label",
                path.display()
            );
            assert!(labels.contains(&baseline.name), "no scenario records {}", path.display());
            files += 1;
        }
        assert!(files > 0, "no committed baselines under {}", dir.display());
    }
}
