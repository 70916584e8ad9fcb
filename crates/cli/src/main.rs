//! `snetctl` — generate, inspect, check, refute, and route comparator
//! networks from the command line.
//!
//! ```text
//! snetctl gen --kind bitonic --n 16 -o sorter.json
//! snetctl info sorter.json
//! snetctl check sorter.json --exhaustive
//! snetctl gen --kind random-shuffle --n 64 --depth 12 --seed 7 -o unit.json
//! snetctl refute unit.json -o witness.json
//! snetctl verify unit.json witness.json
//! snetctl route --n 16 --seed 3
//! snetctl render sorter.json
//! ```

mod exit;
mod file;

/// With `--features alloc`, every allocation in the process is counted
/// and surfaced as `snet_mem_live_bytes` / `snet_alloc_total` in the
/// metrics exposition (a few percent overhead; off by default).
#[cfg(feature = "alloc")]
#[global_allocator]
static GLOBAL: snet_obs::alloc::CountingAlloc = snet_obs::alloc::CountingAlloc;

use exit::exit_flushed;
use file::NetworkFile;
use rand::SeedableRng;
use snet_adversary::SortingRefutation;
use snet_core::ir::{default_engine_threads, Canonical, Executor, PassManager};
use snet_core::perm::Permutation;
use snet_core::sortcheck::{check_random_permutations, is_sorted};
use snet_runtime::{BalancerModel, CountingNetwork, Explorer, Layout};
use snet_service::verdicts::{self, Served};
use snet_sorters::{
    bitonic_shuffle, brick_wall, odd_even_mergesort, periodic_balanced, pratt_network,
};
use snet_store::ArtifactStore;
use snet_topology::benes::{realizes, route_permutation};
use snet_topology::random::{
    random_iterated, random_shuffle_network, RandomDeltaConfig, SplitStyle,
};

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    // Global observability flags, accepted in any position and stripped
    // before subcommand dispatch.
    let code =
        setup_observability(&mut args).and_then(|()| match args.first().map(String::as_str) {
            Some("gen") => cmd_gen(&args[1..]),
            Some("info") => cmd_info(&args[1..]),
            Some("check") => cmd_check(&args[1..]),
            Some("refute") => cmd_refute(&args[1..]),
            Some("verify") => cmd_verify(&args[1..]),
            Some("route") => cmd_route(&args[1..]),
            Some("search") => cmd_search(&args[1..]),
            Some("render") => cmd_render(&args[1..]),
            Some("stats") => cmd_stats(&args[1..]),
            Some("passes") => cmd_passes(&args[1..]),
            Some("certify") => cmd_certify(&args[1..]),
            Some("audit") => cmd_audit(&args[1..]),
            Some("closure") => cmd_closure(&args[1..]),
            Some("duel") => cmd_duel(&args[1..]),
            Some("report") => cmd_report(&args[1..]),
            Some("bench") => cmd_bench(&args[1..]),
            Some("count") => cmd_count(&args[1..]),
            Some("store") => cmd_store(&args[1..]),
            Some("metrics") => cmd_metrics(&args[1..]),
            Some("serve") => cmd_serve(&args[1..]),
            Some("query") => cmd_query(&args[1..]),
            Some("trace") => cmd_trace(&args[1..]),
            Some("--help") | Some("-h") | None => {
                print_usage();
                Ok(())
            }
            Some(other) => Err(format!("unknown command '{other}' (try --help)")),
        });
    snet_obs::flush();
    exit::write_metrics_out();
    if let Err(e) = code {
        eprintln!("snetctl: {e}");
        std::process::exit(exit::GENERIC);
    }
}

/// Handles the global observability surface, removing its flags from
/// `args`: `--trace-out FILE.jsonl` (structured JSONL trace),
/// `--progress` (live progress meter on stderr), and `--metrics-out
/// FILE` (Prometheus exposition of the registry, written at exit). When
/// a sink is active, the run manifest leads the event stream.
///
/// The flight recorder turns on here for every command — that is its
/// point: a bounded in-memory record that costs nothing on a clean exit
/// (no file is written) and is dumped to `flight-<pid>.jsonl` by the
/// panic hook when the process dies. `SNET_FLIGHT=0` disables it. The
/// fault-injection hook `SNET_FAULT_PANIC_AFTER=N` (panic on the N-th
/// event) exists so CI can prove the dump path works on a real run.
fn setup_observability(args: &mut Vec<String>) -> Result<(), String> {
    use std::sync::Arc;
    let trace_out = take_flag_value(args, "--trace-out")?;
    let metrics_out = take_flag_value(args, "--metrics-out")?;
    let progress = take_flag(args, "--progress");
    if std::env::var("SNET_FLIGHT").ok().as_deref() != Some("0") {
        snet_obs::enable_flight();
    }
    if let Ok(n) = std::env::var("SNET_FAULT_PANIC_AFTER") {
        snet_obs::arm_fault_after(parse(&n, "SNET_FAULT_PANIC_AFTER")?);
    }
    if let Some(path) = metrics_out {
        exit::arm_metrics_out(path);
    }
    if let Some(path) = &trace_out {
        let sink = snet_obs::JsonlSink::create(path)
            .map_err(|e| format!("cannot create trace file {path}: {e}"))?;
        snet_obs::install_sink(Arc::new(sink));
    }
    if progress {
        snet_obs::install_sink(Arc::new(snet_obs::ProgressSink::new()));
    }
    if trace_out.is_some() || progress {
        let mut manifest = snet_obs::RunManifest::capture("snetctl");
        // Reproducibility: any subcommand seed is provenance — thread it
        // into the manifest so a trace file pins down the exact run.
        if let Some(seed) = flag(args, "--seed") {
            manifest.push_extra("seed", seed);
        }
        manifest.emit();
    }
    Ok(())
}

/// Removes every occurrence of the boolean flag `name`; true if present.
fn take_flag(args: &mut Vec<String>, name: &str) -> bool {
    let before = args.len();
    args.retain(|a| a != name);
    args.len() != before
}

/// Removes `name VALUE` from the argument list, returning the value.
fn take_flag_value(args: &mut Vec<String>, name: &str) -> Result<Option<String>, String> {
    let Some(i) = args.iter().position(|a| a == name) else {
        return Ok(None);
    };
    if i + 1 >= args.len() {
        return Err(format!("{name} requires a value"));
    }
    let value = args.remove(i + 1);
    args.remove(i);
    Ok(Some(value))
}

/// A verdict the store could not keep fails the command; the daemon
/// only logs it.
fn stored(served: Served) -> Result<Served, String> {
    match &served.write_error {
        Some(e) => Err(format!("cannot write verdict to store: {e}")),
        None => Ok(served),
    }
}

/// Resolves the artifact store a verdict-producing command should use:
/// `--no-store` disables caching outright, `--store DIR` names a
/// directory, and otherwise the `SNET_STORE` environment variable (when
/// set and non-empty) supplies the default location.
fn resolve_store(args: &[String]) -> Result<Option<ArtifactStore>, String> {
    if has_flag(args, "--no-store") {
        return Ok(None);
    }
    let dir = match flag(args, "--store") {
        Some(dir) => Some(dir.to_string()),
        None => std::env::var("SNET_STORE").ok().filter(|v| !v.is_empty()),
    };
    match dir {
        Some(dir) => ArtifactStore::open(&dir)
            .map(Some)
            .map_err(|e| format!("cannot open artifact store {dir}: {e}")),
        None => Ok(None),
    }
}

fn print_usage() {
    println!(
        "snetctl — comparator-network toolbox (shufflebound)\n\
         \n\
         commands:\n\
         \x20 gen     --kind <bitonic|odd-even|pratt|periodic|brick|random-shuffle|randomized> \
         --n N [--depth D] [--seed S] -o FILE\n\
         \x20 info    FILE                     print wires/depth/size\n\
         \x20 check   FILE [--exhaustive [--threads W]] [--trials T] [--seed S]\n\
         \x20         [--verdict-out FILE]   with --exhaustive and a store, the verdict is\n\
         \x20         cached by canonical hash and replayed byte-identically on later runs\n\
         \x20 refute  FILE [-o WITNESS] [--k K] [--explain]   (shuffle networks only)\n\
         \x20 verify  FILE WITNESS\n\
         \x20 route   --n N [--seed S | --perm a,b,c,…]\n\
         \x20 search  --n N [--shuffle-legal] [--max-depth D] [--threads W] [--stats]\n\
         \x20         [--frontier-out FILE.json] [-o FILE]   minimum-depth sorting network\n\
         \x20         (--stats prints prune breakdown, TT hit rate, task histograms,\n\
         \x20         and worker balance)\n\
         \x20 render  FILE [--svg | --dot]     diagram (ASCII default)\n\
         \x20 stats   FILE [--trials T] [--seed S]   sortedness statistics\n\
         \x20 passes  FILE                     run the optimizing IR pipeline, show per-pass effect\n\
         \x20 certify FILE -o CERT [--k K]    export a checkable proof bundle\n\
         \x20 audit   CERT [--samples N]      independently check a proof bundle\n\
         \x20 closure --n N (--rho shuffle|identity|bit-reversal|random) [--seed S]\n\
         \x20 duel    --n N [--k K]            interactive adaptive game on stdin\n\
         \x20 report  TRACE.jsonl [--chrome OUT.json]\n\
         \x20         render a --trace-out file: span tree + counters + histograms;\n\
         \x20         --chrome exports Chrome trace-event JSON (chrome://tracing, Perfetto)\n\
         \x20 bench   diff NEW.json [--against OLD.json] [--fail-on-regress PCT]\n\
         \x20         compare a bench baseline (schema snet-bench-baseline/1) against a\n\
         \x20         stored one; exit code 8 if any metric regressed beyond PCT (default 10)\n\
         \x20 count   --width W [--threads T] [--ops N] [--kind bitonic|periodic] [--seed S]\n\
         \x20         run the live counting-network runtime and check the step property;\n\
         \x20         --explore switches to the deterministic interleaving explorer\n\
         \x20         (--exhaustive for all schedules, else --schedules K seeded samples);\n\
         \x20         exit code 9 on any step-property violation (replayable schedule\n\
         \x20         strings are printed and recorded in the run manifest)\n\
         \x20 store   ls | get HASH | stat | gc --max-bytes N\n\
         \x20         inspect the content-addressed artifact store; get accepts unique\n\
         \x20         hex prefixes and exits 10 on a corrupt entry; stat also reports\n\
         \x20         this process's session hit/miss counters and hit rate\n\
         \x20 metrics [FILE] [--watch SECS]\n\
         \x20         Prometheus text exposition of the metrics registry; FILE validates\n\
         \x20         and reprints a --metrics-out dump, --watch repaints every SECS\n\
         \x20         (with FILE: re-reads it each tick, tolerating torn mid-write lines)\n\
         \x20 serve   [--addr HOST:PORT] [--store DIR] [--conn-threads N] [--max-jobs N]\n\
         \x20         [--search-threads N] [--check-threads N] [--max-body-bytes N]\n\
         \x20         [--access-log FILE.jsonl] [--slow-ms MS]\n\
         \x20         run the snetd verification service (default 127.0.0.1:7421); identical\n\
         \x20         in-flight requests compile once, warm store hits replay byte-identical\n\
         \x20         verdicts, SIGTERM drains gracefully; exit code 11 if it cannot start;\n\
         \x20         --access-log appends one JSONL line per request, --slow-ms dumps\n\
         \x20         requests at least that slow to slow-<trace>.jsonl\n\
         \x20 query   [--addr HOST:PORT] check FILE | adversary FILE [--k K]\n\
         \x20         | search --n N [--shuffle-legal] [--max-depth D] [--threads W]\n\
         \x20         | job ID | cancel ID | health | metrics | debug | trace ID\n\
         \x20         client for a running serve daemon; search streams ND-JSON progress\n\
         \x20         frames to stdout as they arrive; every request forwards an\n\
         \x20         x-snet-trace context and echoes the daemon's trace id on stderr\n\
         \x20 trace   ID [--addr HOST:PORT] [--client TRACE.jsonl] [--chrome OUT.json]\n\
         \x20         [-o OUT.jsonl]\n\
         \x20         fetch a stored server-side request trace; --client merges the query's\n\
         \x20         own --trace-out file into one cross-process timeline (server spans\n\
         \x20         nested under the client span that issued them)\n\
         \n\
         global flags (any command):\n\
         \x20 --trace-out FILE.jsonl           write structured trace events (spans, counters,\n\
         \x20                                  gauges, run manifest); read back with 'report'\n\
         \x20 --metrics-out FILE               write the Prometheus exposition of all metrics\n\
         \x20                                  at process exit; validate with 'metrics FILE'\n\
         \x20 --progress                       live progress meter on stderr for long scans\n\
         \n\
         flight recorder (always on; env-controlled):\n\
         \x20 SNET_FLIGHT=0                    disable the in-memory flight recorder (512 KiB\n\
         \x20                                  per thread); on panic the rings dump to\n\
         \x20                                  flight-<pid>.jsonl, renderable with 'report'\n\
         \n\
         store flags (check/search/refute/certify/store):\n\
         \x20 --store DIR                      cache verdicts and search transposition spills\n\
         \x20                                  in a content-addressed store at DIR (default:\n\
         \x20                                  $SNET_STORE when set)\n\
         \x20 --no-store                       disable the cache even if SNET_STORE is set"
    );
}

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter().position(|a| a == name).and_then(|i| args.get(i + 1)).map(String::as_str)
}

fn has_flag(args: &[String], name: &str) -> bool {
    args.iter().any(|a| a == name)
}

/// Fails on any argument that is not one of `switches`, a `valued` flag
/// with its value, or one of at most `positional` other arguments (the
/// command's files, ids or subcommand): a misspelt flag must not
/// silently change what a command does. Every command but `serve`
/// (whose parser is strict already) calls this before doing anything,
/// and reads its positional arguments from what it returns, in order,
/// so flags may come before or after them. `store` and `query` first
/// call it with every flag of their subcommands and no limit on
/// positionals, to find the subcommand word among them.
fn reject_unknown_flags<'a>(
    command: &str,
    args: &'a [String],
    positional: usize,
    switches: &[&str],
    valued: &[&str],
) -> Result<Vec<&'a str>, String> {
    let mut positionals = Vec::new();
    let mut rest = args.iter();
    while let Some(arg) = rest.next() {
        if valued.contains(&arg.as_str()) {
            rest.next().ok_or_else(|| format!("{arg} requires a value"))?;
        } else if !switches.contains(&arg.as_str()) {
            if arg.starts_with('-') || positionals.len() == positional {
                return Err(format!("{command} does not take '{arg}' (try --help)"));
            }
            positionals.push(arg.as_str());
        }
    }
    Ok(positionals)
}

fn parse<T: std::str::FromStr>(s: &str, what: &str) -> Result<T, String> {
    s.parse().map_err(|_| format!("invalid {what}: '{s}'"))
}

fn cmd_gen(args: &[String]) -> Result<(), String> {
    reject_unknown_flags(
        "gen",
        args,
        0,
        &[],
        &["--kind", "--n", "-o", "--seed", "--depth", "--stages", "--blocks"],
    )?;
    let kind = flag(args, "--kind").ok_or("gen requires --kind")?;
    let n: usize = parse(flag(args, "--n").ok_or("gen requires --n")?, "--n")?;
    let out = flag(args, "-o").ok_or("gen requires -o FILE")?;
    let seed: u64 = parse(flag(args, "--seed").unwrap_or("0"), "--seed")?;
    // Every generator but `pratt` and `brick` builds on n = 2^l wires.
    let power_of_two_kind = matches!(
        kind,
        "bitonic" | "odd-even" | "periodic" | "random-shuffle" | "randomized" | "random-ird"
    );
    if power_of_two_kind && !(n >= 2 && n.is_power_of_two()) {
        return Err(format!("gen --kind {kind} needs n = 2^l >= 2 (got {n})"));
    }
    let doc = match kind {
        "bitonic" => NetworkFile::from_shuffle(&bitonic_shuffle(n)),
        "odd-even" => NetworkFile::Circuit { network: odd_even_mergesort(n) },
        "pratt" => NetworkFile::Circuit { network: pratt_network(n) },
        "periodic" => NetworkFile::Circuit { network: periodic_balanced(n) },
        "brick" => NetworkFile::Circuit { network: brick_wall(n) },
        "random-shuffle" => {
            let depth: usize = parse(flag(args, "--depth").ok_or("--depth required")?, "--depth")?;
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            NetworkFile::from_shuffle(&random_shuffle_network(n, depth, 1.0, &mut rng))
        }
        "randomized" => {
            // The Section 5 randomized candidate: a seeded randomizing
            // prefix, then a truncated bitonic suffix. Same --seed, same
            // sampled network, byte for byte.
            let l = n.trailing_zeros() as usize;
            let depth: usize = parse(flag(args, "--depth").unwrap_or(&l.to_string()), "--depth")?;
            let stages: usize =
                parse(flag(args, "--stages").unwrap_or(&(l * l).to_string()), "--stages")?;
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            NetworkFile::Circuit {
                network: snet_sorters::randomized::randomized_then_bitonic(
                    n, depth, stages, &mut rng,
                ),
            }
        }
        "random-ird" => {
            let l = n.trailing_zeros() as usize;
            let blocks: usize = parse(flag(args, "--blocks").unwrap_or("2"), "--blocks")?;
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let cfg = RandomDeltaConfig {
                split: SplitStyle::FreeSplit,
                comparator_density: 1.0,
                reverse_bias: 0.5,
                swap_density: 0.0,
            };
            NetworkFile::Ird { network: random_iterated(blocks, l, &cfg, true, &mut rng) }
        }
        other => return Err(format!("unknown --kind {other}")),
    };
    doc.save(out)?;
    let net = doc.to_network();
    println!(
        "wrote {out}: {} wires, depth {}, {} comparators",
        net.wires(),
        net.depth(),
        net.size()
    );
    Ok(())
}

fn cmd_info(args: &[String]) -> Result<(), String> {
    let files = reject_unknown_flags("info", args, 1, &[], &[])?;
    let path = *files.first().ok_or("info requires FILE")?;
    let doc = NetworkFile::load(path)?;
    let net = doc.to_network();
    let kind = match &doc {
        NetworkFile::Circuit { .. } => "circuit",
        NetworkFile::Shuffle { .. } => "shuffle-based",
        NetworkFile::Ird { .. } => "iterated reverse delta",
    };
    println!("file            : {path}");
    println!("kind            : {kind}");
    println!("wires           : {}", net.wires());
    println!("levels          : {}", net.depth());
    println!("comparator depth: {}", net.comparator_depth());
    println!("comparators     : {}", net.size());
    Ok(())
}

fn cmd_check(args: &[String]) -> Result<(), String> {
    let files = reject_unknown_flags(
        "check",
        args,
        1,
        &["--exhaustive", "--no-store"],
        &["--threads", "--trials", "--seed", "--verdict-out", "--store"],
    )?;
    let path = *files.first().ok_or("check requires FILE")?;
    let doc = NetworkFile::load(path)?;
    let net = doc.to_network();
    if has_flag(args, "--exhaustive") {
        if net.wires() > 28 {
            return Err(format!("exhaustive 0-1 check infeasible for n = {}", net.wires()));
        }
        let threads: usize = match flag(args, "--threads") {
            Some(t) => parse(t, "--threads")?,
            None => default_engine_threads(),
        };
        let store = resolve_store(args)?;
        // The canonical hash is the cache key; a miss runs the canonical
        // program the hash came from.
        let canon = Canonical::of_network(&net);
        let hash = canon.hash();
        let (served, hit) = match verdicts::lookup_check(store.as_ref(), &net, &hash) {
            Some(served) => (served, true),
            None => {
                let exec = canon.into_executor();
                let computed = verdicts::compute_check(store.as_ref(), &net, &hash, &exec, threads);
                (stored(computed)?, false)
            }
        };
        if store.is_some() {
            println!("store: {} {hash}", if hit { "hit" } else { "miss" });
            if snet_obs::enabled() {
                let mut manifest = snet_obs::RunManifest::capture("snetctl-check");
                manifest.push_extra("store.result", if hit { "hit" } else { "miss" });
                manifest.push_extra("store.hash", hash.to_hex());
                manifest.emit();
            }
        }
        if let Some(out) = flag(args, "--verdict-out") {
            // The stored bytes verbatim: a warm hit re-emits the cold
            // run's artifact byte for byte.
            std::fs::write(out, &served.bytes).map_err(|e| format!("{out}: {e}"))?;
            println!("verdict written to {out}");
        }
        return match &served.verdict.kind {
            snet_core::verdict::VerdictKind::SortCertificate { tested } => {
                println!("sorted all {tested} tested inputs");
                Ok(())
            }
            snet_core::verdict::VerdictKind::Counterexample { input, output, .. } => {
                println!("NOT a sorting network");
                println!("counterexample input : {input:?}");
                println!("unsorted output      : {output:?}");
                exit_flushed(exit::CHECK_COUNTEREXAMPLE);
            }
            snet_core::verdict::VerdictKind::AdversaryWitness { .. } => {
                // An adversary verdict proves non-sorting but carries no
                // 0-1 counterexample; surface it the same way.
                println!("NOT a sorting network ({})", served.verdict.summary());
                exit_flushed(exit::CHECK_COUNTEREXAMPLE);
            }
        };
    }
    if flag(args, "--verdict-out").is_some() {
        return Err("--verdict-out requires --exhaustive (random trials are not canonical)".into());
    }
    let trials: u64 = parse(flag(args, "--trials").unwrap_or("10000"), "--trials")?;
    let seed: u64 = parse(flag(args, "--seed").unwrap_or("0"), "--seed")?;
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    match check_random_permutations(&net, trials, &mut rng) {
        snet_core::sortcheck::SortCheck::AllSorted { tested } => {
            println!("sorted all {tested} tested inputs");
            Ok(())
        }
        snet_core::sortcheck::SortCheck::Counterexample { input, output } => {
            println!("NOT a sorting network");
            println!("counterexample input : {input:?}");
            println!("unsorted output      : {output:?}");
            exit_flushed(exit::CHECK_COUNTEREXAMPLE);
        }
    }
}

fn cmd_refute(args: &[String]) -> Result<(), String> {
    let files = reject_unknown_flags(
        "refute",
        args,
        1,
        &["--explain", "--no-store"],
        &["-o", "--k", "--store"],
    )?;
    let path = *files.first().ok_or("refute requires FILE")?;
    let ird = NetworkFile::load(path)?.adversary_input(path)?;
    let l = ird.wires().trailing_zeros() as usize;
    let k: usize = parse(flag(args, "--k").unwrap_or(&l.to_string()), "--k")?;
    snet_adversary::check_k(k, l)?;
    let net = ird.to_network();
    let store = resolve_store(args)?;
    let canon = Canonical::of_network(&net);
    let hash = canon.hash();
    let mut canon = Some(canon);
    // A stored witness replays without re-running the adversary once it
    // passes `verify`, so a stale or forged entry cannot vouch for itself.
    let served = match verdicts::lookup_witness(store.as_ref(), &net, &hash, &mut canon) {
        Some(served) => {
            println!("store: hit {hash} (replaying cached adversary witness)");
            served
        }
        None => {
            let (run, witness) =
                verdicts::compute_witness(store.as_ref(), &net, &hash, k, || ird, canon)?;
            if has_flag(args, "--explain") {
                print!("{}", run.explain());
            }
            println!("adversary: |D| = {} after {} blocks", run.d_set.len(), run.blocks.len());
            let Some(served) = witness else {
                println!("no witness available at this depth (the network may sort).");
                exit_flushed(exit::ADVERSARY_EXHAUSTED);
            };
            let served = stored(served)?;
            if store.is_some() {
                println!("store: miss {hash} (witness verdict cached)");
            }
            served
        }
    };
    let r = SortingRefutation::from_verdict(&served.verdict).expect("a witness verdict");
    println!(
        "refuted: values {} and {} are never compared; witness pair differs on wires {:?}",
        r.m,
        r.m + 1,
        r.wire_pair
    );
    println!("unsorted on input: {:?}", r.unsorted_witness());
    if let Some(out_path) = flag(args, "-o") {
        std::fs::write(out_path, serde_json::to_string_pretty(&r).map_err(|e| e.to_string())?)
            .map_err(|e| e.to_string())?;
        println!("witness written to {out_path}");
    }
    Ok(())
}

fn cmd_verify(args: &[String]) -> Result<(), String> {
    let files = reject_unknown_flags("verify", args, 2, &[], &[])?;
    let [net_path, wit_path] = files[..] else {
        return Err("verify requires FILE WITNESS".into());
    };
    let doc = NetworkFile::load(net_path)?;
    // Witnesses produced by `refute` are against the embedded
    // iterated-reverse-delta form of a shuffle file.
    let net = match doc.as_ird() {
        Some(ird) => ird.to_network(),
        None => doc.to_network(),
    };
    let text = std::fs::read_to_string(wit_path).map_err(|e| e.to_string())?;
    let r: SortingRefutation = serde_json::from_str(&text).map_err(|e| e.to_string())?;
    r.verify(&net).map_err(|e| format!("witness REJECTED: {e}"))?;
    println!("witness verified: the network maps both inputs to the same permutation");
    // `verify` re-evaluated both stored outputs.
    println!("output on π  sorted: {}", is_sorted(&r.output_a));
    println!("output on π′ sorted: {}", is_sorted(&r.output_b));
    Ok(())
}

fn cmd_route(args: &[String]) -> Result<(), String> {
    reject_unknown_flags("route", args, 0, &[], &["--n", "--seed", "--perm"])?;
    let n: usize = parse(flag(args, "--n").ok_or("route requires --n")?, "--n")?;
    let perm = if let Some(spec) = flag(args, "--perm") {
        let images: Result<Vec<u32>, _> = spec.split(',').map(|s| s.trim().parse()).collect();
        let images = images.map_err(|_| format!("bad --perm '{spec}'"))?;
        Permutation::from_images(images).map_err(|e| e.to_string())?
    } else {
        let seed: u64 = parse(flag(args, "--seed").unwrap_or("0"), "--seed")?;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        Permutation::random(n, &mut rng)
    };
    if perm.len() != n {
        return Err(format!("--perm has {} images, --n is {n}", perm.len()));
    }
    let net = route_permutation(&perm);
    println!("permutation : {:?}", perm.images());
    println!("Beneš depth : {} switch levels, {} comparators", net.depth(), net.size());
    println!("realized    : {}", realizes(&net, &perm));
    Ok(())
}

fn cmd_search(args: &[String]) -> Result<(), String> {
    use snet_search::{SearchConfig, SearchMode};
    reject_unknown_flags(
        "search",
        args,
        0,
        &["--shuffle-legal", "--stats", "--no-store"],
        &["--n", "--max-depth", "--threads", "--store", "--frontier-out", "-o"],
    )?;
    let n: usize = parse(flag(args, "--n").ok_or("search requires --n")?, "--n")?;
    if !(2..=16).contains(&n) {
        return Err(format!("search supports 2 <= n <= 16 (got {n})"));
    }
    let mode = if has_flag(args, "--shuffle-legal") {
        if !n.is_power_of_two() {
            return Err(format!("--shuffle-legal requires n to be a power of two (got {n})"));
        }
        SearchMode::ShuffleLegal
    } else {
        SearchMode::Unrestricted
    };
    let mut cfg = SearchConfig::new(n, mode);
    if let Some(d) = flag(args, "--max-depth") {
        cfg.max_depth = parse(d, "--max-depth")?;
    }
    cfg.threads = match flag(args, "--threads") {
        Some(t) => parse(t, "--threads")?,
        None => default_engine_threads(),
    };
    cfg.store = resolve_store(args)?;
    let caching = cfg.store.is_some();

    let outcome = snet_search::search(&cfg);

    if caching {
        // Warm refutation facts only skip work; the outcome is the same.
        println!(
            "store: {} transposition facts preloaded, {} spilled ({})",
            outcome.tt_preloaded,
            outcome.tt_spilled,
            cfg.tt_label()
        );
        if let (Some(store), Some(v)) = (&cfg.store, &outcome.verdict) {
            // The witness's exhaustive verdict is content-addressed, so a
            // later `check` of the found network is a cache hit.
            stored(verdicts::persist(Some(store), v.clone()))?;
            println!("store: witness verdict cached under {}", v.hash);
        }
        if snet_obs::enabled() {
            let mut manifest = snet_obs::RunManifest::capture("snetctl-search");
            manifest.push_extra("store.tt_preloaded", outcome.tt_preloaded.to_string());
            manifest.push_extra("store.tt_spilled", outcome.tt_spilled.to_string());
            manifest.emit();
        }
    }

    // Everything printed here is schedule-independent (the per-round
    // node/hit counters are not — they live in the frontier document).
    println!(
        "search: n = {n}, mode = {}, adversary floor = {}",
        outcome.mode.name(),
        outcome.floor
    );
    for round in &outcome.rounds {
        let verdict = if round.sat { "satisfiable" } else { "refuted" };
        println!(
            "depth {:>2}: {verdict} ({} symmetry-broken prefix tasks)",
            round.budget, round.tasks
        );
    }

    if has_flag(args, "--stats") {
        print!("{}", search_stats_table(&outcome));
    }

    if let Some(path) = flag(args, "--frontier-out") {
        write_frontier(&outcome, path)?;
        println!("frontier written to {path}");
    }

    let Some(depth) = outcome.optimal_depth else {
        println!(
            "no sorting network on {n} wires within depth {} ({})",
            cfg.max_depth,
            outcome.mode.name()
        );
        exit_flushed(exit::SEARCH_REFUTED);
    };
    let net = outcome.network.as_ref().expect("witness network accompanies the depth");
    println!("optimal depth: {depth} ({} comparators over {} wires)", net.size(), net.wires());
    match outcome.verified() {
        Some(true) => println!("verified: sharded 0-1 check passed on all {} inputs", 1u64 << n),
        other => return Err(format!("internal: witness failed the sharded 0-1 check ({other:?})")),
    }
    if let Some(out) = flag(args, "-o") {
        let doc = match &outcome.shuffle {
            Some(sn) => NetworkFile::from_shuffle(sn),
            None => NetworkFile::Circuit { network: net.clone() },
        };
        doc.save(out)?;
        println!("wrote {out}");
    }
    Ok(())
}

/// Renders the `--stats` summary: prune breakdown as a percentage of
/// DFS nodes, transposition-table behaviour, prefix symmetry reduction,
/// task-granularity histogram percentiles, and per-worker balance — all
/// from counters carried in the outcome, so no sink is required.
fn search_stats_table(outcome: &snet_search::SearchOutcome) -> String {
    use snet_obs::report::{render_breakdown, render_hist_table};
    use std::fmt::Write as _;
    let t = &outcome.totals;
    let mut out = String::from("\n");
    let _ = writeln!(
        out,
        "search stats (timing-dependent; {} nodes over {} rounds):",
        t.nodes,
        outcome.rounds.len()
    );
    out.push('\n');
    out.push_str(&render_breakdown(
        "prune breakdown (vs nodes)",
        t.nodes,
        &[
            ("oracle floor cuts", t.oracle_cuts),
            ("transposition hits", t.tt_hits),
            ("subsumed children", t.subsumed),
            ("no-op layer skips", t.noop_skips),
            ("witness fast-path skips", t.witness_skips),
        ],
    ));
    out.push('\n');
    let _ = writeln!(out, "transposition table:");
    let _ = writeln!(out, "  probes         {:>14}", t.tt_hits + t.tt_misses);
    let _ = writeln!(out, "  hit rate       {:>13.1}%", 100.0 * t.tt_hit_rate());
    let _ = writeln!(out, "  facts stored   {:>14}", t.tt_stores);
    let _ = writeln!(out, "  facts resident {:>14}", outcome.tt_facts);
    let _ = writeln!(out, "  drops (full)   {:>14}", t.tt_evicts);
    if let Some(last) = outcome.rounds.last() {
        out.push('\n');
        let _ = writeln!(out, "prefix symmetry (last round, budget {}):", last.budget);
        let _ = writeln!(out, "  moves in model {:>14}", last.moves_total);
        let _ = writeln!(out, "  first layers   {:>14}", last.firsts_kept);
        let _ = writeln!(out, "  second layers  {:>14}", last.seconds_kept);
        let _ = writeln!(out, "  tasks (dedup)  {:>14}", last.tasks);
    }
    out.push('\n');
    out.push_str(&render_hist_table([
        ("task nodes", &outcome.hists.task_nodes),
        ("task wall µs", &outcome.hists.task_us),
    ]));
    if let Some(last) = outcome.rounds.last() {
        if !last.workers.is_empty() {
            out.push('\n');
            let _ =
                writeln!(out, "{:<10} {:>10} {:>10} {:>14}", "worker", "run", "aborted", "nodes");
            for w in &last.workers {
                let _ = writeln!(
                    out,
                    "{:<10} {:>10} {:>10} {:>14}",
                    w.worker, w.tasks_run, w.tasks_aborted, w.nodes
                );
            }
        }
    }
    out
}

/// Writes the single-run `snet-search-frontier/2` document
/// ([`snet_search::Frontier::Run`]).
fn write_frontier(outcome: &snet_search::SearchOutcome, path: &str) -> Result<(), String> {
    let manifest = snet_obs::RunManifest::capture("snetctl");
    let doc = snet_search::Frontier::Run(outcome).to_value(&manifest);
    if let Some(dir) = std::path::Path::new(path).parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    std::fs::write(path, serde_json::to_string_pretty(&doc).map_err(|e| e.to_string())?)
        .map_err(|e| format!("{path}: {e}"))
}

fn cmd_render(args: &[String]) -> Result<(), String> {
    let files = reject_unknown_flags("render", args, 1, &["--svg", "--dot"], &[])?;
    let path = *files.first().ok_or("render requires FILE")?;
    let doc = NetworkFile::load(path)?;
    let net = doc.to_network();
    if has_flag(args, "--svg") {
        print!("{}", snet_core::viz::to_svg(&net));
        return Ok(());
    }
    if has_flag(args, "--dot") {
        print!("{}", snet_core::viz::to_dot(&net));
        return Ok(());
    }
    if net.wires() > 64 {
        return Err("ASCII render is for small networks (n <= 64); try --svg/--dot".into());
    }
    print!("{}", net.render_ascii());
    Ok(())
}

fn cmd_stats(args: &[String]) -> Result<(), String> {
    let files = reject_unknown_flags("stats", args, 1, &[], &["--trials", "--seed"])?;
    let path = *files.first().ok_or("stats requires FILE")?;
    let doc = NetworkFile::load(path)?;
    let net = doc.to_network();
    let trials: u64 = parse(flag(args, "--trials").unwrap_or("2000"), "--trials")?;
    let seed: u64 = parse(flag(args, "--seed").unwrap_or("0"), "--seed")?;
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let n = net.wires();
    let exec = Executor::compile(&net);
    let mut sorted = 0u64;
    let mut disl_sum = 0.0f64;
    let mut settle_sum = 0usize;
    let mut settle_max = 0usize;
    for _ in 0..trials {
        let input: Vec<u32> = Permutation::random(n, &mut rng).images().to_vec();
        let out = exec.evaluate(&input);
        if is_sorted(&out) {
            sorted += 1;
        }
        disl_sum += out
            .iter()
            .enumerate()
            .map(|(i, &v)| (v as i64 - i as i64).unsigned_abs() as f64)
            .sum::<f64>()
            / n as f64;
        let s = snet_core::trace::settle_depth(&net, &input);
        settle_sum += s;
        settle_max = settle_max.max(s);
    }
    println!("inputs            : {trials} random permutations (seed {seed})");
    println!("fraction sorted   : {:.4}", sorted as f64 / trials as f64);
    println!("mean dislocation  : {:.3}", disl_sum / trials as f64);
    println!(
        "settle depth      : mean {:.1}, max {settle_max} (of {} levels)",
        settle_sum as f64 / trials as f64,
        net.depth()
    );
    Ok(())
}

fn cmd_passes(args: &[String]) -> Result<(), String> {
    let files = reject_unknown_flags("passes", args, 1, &[], &[])?;
    let path = *files.first().ok_or("passes requires FILE")?;
    let doc = NetworkFile::load(path)?;
    let net = doc.to_network();
    // RedundantElim is exhaustive over 2^n inputs below its limit; above
    // it the pass silently degrades to structural dedup, which is fine.
    let exec = Executor::compile_with(&net, &PassManager::optimizing());
    let raw = snet_core::ir::Program::from_network(&net);
    println!(
        "source: {} wires, {} levels, {} comparators, {} raw ops",
        net.wires(),
        net.depth(),
        net.size(),
        raw.op_count()
    );
    println!();
    println!(
        "{:<18} {:>12} {:>12} {:>10} {:>8} {:>10} {:>7}",
        "pass", "ops", "size", "depth", "elim", "time", "%"
    );
    let total_nanos: u128 = exec.pass_records().iter().map(|r| r.nanos).sum();
    for r in exec.pass_records() {
        println!(
            "{:<18} {:>5} → {:<4} {:>5} → {:<4} {:>4} → {:<3} {:>8} {:>10} {:>6.1}%",
            r.name,
            r.ops_before,
            r.ops_after,
            r.size_before,
            r.size_after,
            r.depth_before,
            r.depth_after,
            r.ops_eliminated(),
            human_nanos(r.nanos),
            if total_nanos > 0 { 100.0 * r.nanos as f64 / total_nanos as f64 } else { 0.0 }
        );
    }
    println!("{:<18} {:>49} {:>10}", "total", "", human_nanos(total_nanos));
    let prog = exec.program();
    println!();
    println!(
        "result: {} ops ({} comparators), depth {} — {} ops eliminated in total",
        prog.op_count(),
        prog.size(),
        prog.depth(),
        raw.op_count() - prog.op_count()
    );
    Ok(())
}

/// Adaptive-unit rendering of a nanosecond duration for the passes table.
fn human_nanos(ns: u128) -> String {
    if ns >= 10_000_000 {
        format!("{:.1}ms", ns as f64 / 1e6)
    } else if ns >= 10_000 {
        format!("{:.1}µs", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

fn cmd_report(args: &[String]) -> Result<(), String> {
    let files = reject_unknown_flags("report", args, 1, &[], &["--chrome"])?;
    let chrome_out = flag(args, "--chrome");
    let path = *files.first().ok_or("report requires TRACE.jsonl")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    if let Some(out) = chrome_out {
        let json = snet_obs::trace_to_chrome(&text)?;
        std::fs::write(out, json).map_err(|e| format!("{out}: {e}"))?;
        println!("chrome trace written to {out} (load in chrome://tracing or ui.perfetto.dev)");
        return Ok(());
    }
    // Lossy on purpose: flight-recorder dumps legitimately end (or,
    // after a ring wrap, begin) with a torn line. Anything else skipped
    // is surfaced, not hidden.
    let (report, skipped) = snet_obs::report::parse_trace_lossy(&text);
    if skipped > 0 {
        if report.is_empty() {
            return Err(format!("{path}: no parseable trace events ({skipped} malformed lines)"));
        }
        eprintln!("report: skipped {skipped} malformed line(s) (torn flight-ring tail?)");
    }
    print!("{}", snet_obs::report::render(&report));
    Ok(())
}

/// `metrics [FILE] [--watch SECS]` — Prometheus text exposition
/// (`text/plain; version=0.0.4`). With FILE, validates and re-prints a
/// previously written `--metrics-out` dump (CI uses this as the format
/// checker); without, snapshots this process's own registry, which
/// carries the process-level series (uptime, RSS, allocator stats with
/// the `alloc` feature).
///
/// `--watch SECS` repaints until interrupted. With FILE it re-reads the
/// file each tick through the lossy parser — a dump being rewritten by a
/// live daemon can hold a torn tail line mid-refresh, which is worth one
/// footer note, not a blank screen. The redraw is cursor-home plus
/// per-line and end-of-screen erases (never a full clear), so a frame
/// that shrinks leaves no stale lines and the repaint never flickers.
fn cmd_metrics(args: &[String]) -> Result<(), String> {
    let files = reject_unknown_flags("metrics", args, 1, &[], &["--watch"])?;
    let watch = flag(args, "--watch");
    let path = files.first().copied();
    let Some(secs) = watch else {
        match path {
            Some(path) => {
                let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
                let parsed =
                    snet_obs::promtext::parse(&text).map_err(|e| format!("{path}: {e}"))?;
                print!("{text}");
                eprintln!(
                    "metrics: {path} ok ({} series, {} typed families)",
                    parsed.series.len(),
                    parsed.types.len()
                );
            }
            None => print!("{}", snet_obs::registry::render_prometheus()),
        }
        return Ok(());
    };
    let secs: f64 = parse(secs, "--watch")?;
    loop {
        let frame = match &path {
            Some(p) => match std::fs::read_to_string(p) {
                Ok(text) => {
                    let (parsed, skipped) = snet_obs::promtext::parse_lossy(&text);
                    let mut frame = text;
                    if !frame.ends_with('\n') && !frame.is_empty() {
                        frame.push('\n');
                    }
                    frame.push_str(&format!(
                        "# metrics: {p}: {} series, {} typed families",
                        parsed.series.len(),
                        parsed.types.len()
                    ));
                    if skipped > 0 {
                        frame.push_str(&format!(", {skipped} torn line(s) skipped"));
                    }
                    frame.push('\n');
                    frame
                }
                // A vanished or unreadable file is a transient state
                // while watching (daemon restarting, dump mid-rename);
                // report it in-frame and keep polling.
                Err(e) => format!("metrics: {p}: {e}\n"),
            },
            None => snet_obs::registry::render_prometheus(),
        };
        // Home the cursor, erase each line as it is overwritten, then
        // erase whatever remains of the previous (possibly longer)
        // frame. Unlike a `\x1b[2J` full clear before the paint, this
        // never shows an intermediate blank screen.
        print!("\x1b[H{}\x1b[J", frame.replace('\n', "\x1b[K\n"));
        use std::io::Write as _;
        let _ = std::io::stdout().flush();
        std::thread::sleep(std::time::Duration::from_secs_f64(secs.max(0.1)));
    }
}

/// `serve FLAGS` — runs the snetd verification service in-process, its
/// flags parsed by [`snet_service::ServeConfig::from_args`], which reads
/// exactly those the usage lists. `--store` (or `$SNET_STORE`)
/// makes repeat queries warm store hits; SIGTERM/SIGINT drain
/// gracefully: running jobs are cancelled, search TT spills land in the
/// store, and buffered telemetry flushes. Exits 11 on a bad flag or if
/// the daemon cannot start.
fn cmd_serve(args: &[String]) -> Result<(), String> {
    let cfg = snet_service::ServeConfig::from_args(args).unwrap_or_else(|e| {
        eprintln!("snetctl: serve: {e}");
        exit_flushed(exit::DAEMON_FAILED)
    });
    snet_service::install_signal_handlers();
    if let Err(e) = snet_service::serve(cfg) {
        eprintln!("snetctl: serve: {e}");
        exit_flushed(exit::DAEMON_FAILED);
    }
    Ok(())
}

/// `query [--addr HOST:PORT] SUBCOMMAND` — the client for a running
/// `serve` daemon. `check FILE` and `adversary FILE` submit a network
/// document and print the verdict (cache provenance goes to stderr;
/// exit codes mirror the local `check`/`refute` commands). `search`
/// streams the job's ND-JSON progress frames to stdout as they arrive
/// and then prints the job's result document. `job ID` / `cancel ID`
/// inspect and stop jobs; `health` and `metrics` print the daemon's
/// liveness document and Prometheus exposition; `debug` fetches the
/// tracez-style request ring and `trace ID` a stored request trace.
///
/// Every invocation generates a trace context and forwards it as
/// `x-snet-trace`, so the daemon's spans, counters, and progress frames
/// for this request all carry one trace id — the id is echoed on stderr
/// and, with `--trace-out`, the client's own `query.request` span joins
/// the same trace, which `snetctl trace ID --client FILE` can merge
/// into a single cross-process timeline.
fn cmd_query(args: &[String]) -> Result<(), String> {
    use snet_service::client;
    let mut args = args.to_vec();
    let addr =
        take_flag_value(&mut args, "--addr")?.unwrap_or_else(|| "127.0.0.1:7421".to_string());
    // The subcommand is the first positional argument, wherever the flags
    // stand; its own flag table is checked below.
    let words = reject_unknown_flags(
        "query",
        &args,
        usize::MAX,
        &["--shuffle-legal"],
        &["--k", "--n", "--max-depth", "--threads"],
    )?;
    let sub = words.first().map(|w| w.to_string()).ok_or(
        "query requires a subcommand (try check, adversary, search, job, cancel, health, \
         metrics, debug, trace)",
    )?;
    let (positional, switches, valued): (usize, &[&str], &[&str]) = match sub.as_str() {
        "check" | "job" | "cancel" | "trace" => (2, &[], &[]),
        "adversary" => (2, &[], &["--k"]),
        "search" => (1, &["--shuffle-legal"], &["--n", "--max-depth", "--threads"]),
        _ => (1, &[], &[]),
    };
    let operands =
        reject_unknown_flags(&format!("query {sub}"), &args, positional, switches, valued)?;
    let operand = operands.get(1).copied();
    let tctx = snet_obs::TraceContext::generate();
    let qspan = snet_obs::span("query.request")
        .attr(snet_obs::TRACE_ATTR, tctx.trace.to_hex())
        .attr("subcommand", &sub);
    // The forwarded context parents the server's request span under
    // this client span (id 0 — "no recording client span" — when no
    // trace sink is installed).
    let trace_header =
        snet_obs::TraceContext { trace: tctx.trace, parent_span: qspan.id() }.to_header();
    let trace_headers: [(&str, &str); 1] = [(snet_obs::TRACE_HEADER, trace_header.as_str())];
    // One failure message shape for every transport error: the daemon
    // being down reads the same way regardless of subcommand.
    let send = |method: &str, path: &str, body: Option<&[u8]>| {
        client::request_with(&addr, method, path, body, &trace_headers)
            .map_err(|e| format!("query: {method} {addr}{path}: {e}"))
    };
    match sub.as_str() {
        "check" => {
            let path = operand.ok_or("query check requires a network FILE")?;
            let net = NetworkFile::load(path)?.to_network();
            let body = serde_json::to_string(&snet_core::api::CheckRequest { network: net })
                .map_err(|e| e.to_string())?;
            let resp = send("POST", "/v1/check", Some(body.as_bytes()))?;
            let text = print_query_answer(&resp)?;
            let verdict = snet_core::verdict::Verdict::parse(&text)
                .map_err(|e| format!("query: unparseable verdict from daemon: {e}"))?;
            if !verdict.is_sorting() {
                exit_flushed(exit::CHECK_COUNTEREXAMPLE);
            }
            Ok(())
        }
        "adversary" => {
            let path = operand.ok_or("query adversary requires a network FILE")?;
            let k = flag(&args, "--k").map(|v| parse::<u32>(v, "--k")).transpose()?;
            let file = NetworkFile::load(path)?;
            let Some(shuffle) = file.as_shuffle() else {
                return Err(format!(
                    "{path}: the adversary endpoint takes a shuffle-based network document"
                ));
            };
            let req = snet_core::api::AdversaryRequest {
                n: shuffle.wires() as u32,
                stages: shuffle.stages().to_vec(),
                k,
            };
            let body = serde_json::to_string(&req).map_err(|e| e.to_string())?;
            let resp = send("POST", "/v1/adversary", Some(body.as_bytes()))?;
            if resp.status == 422 && resp.text().contains("exhausted") {
                eprintln!("snetctl: query: {}", resp.text());
                exit_flushed(exit::ADVERSARY_EXHAUSTED);
            }
            print_query_answer(&resp)?;
            Ok(())
        }
        "search" => {
            let n: u32 = flag(&args, "--n")
                .ok_or("query search requires --n N")?
                .parse()
                .map_err(|_| "cannot parse --n".to_string())?;
            let mode =
                if has_flag(&args, "--shuffle-legal") { "shuffle-legal" } else { "unrestricted" };
            let max_depth =
                flag(&args, "--max-depth").map(|v| parse::<u32>(v, "--max-depth")).transpose()?;
            let threads =
                flag(&args, "--threads").map(|v| parse::<u32>(v, "--threads")).transpose()?;
            let req =
                snet_core::api::SearchRequest { n, mode: mode.to_string(), max_depth, threads };
            let body = serde_json::to_string(&req).map_err(|e| e.to_string())?;
            let resp = client::stream_lines_with(
                &addr,
                "POST",
                "/v1/search",
                Some(body.as_bytes()),
                &trace_headers,
                &mut |line| {
                    println!("{line}");
                    true
                },
            )
            .map_err(|e| format!("query: POST {addr}/v1/search: {e}"))?;
            if let Some(t) = resp.header(snet_obs::TRACE_HEADER) {
                eprintln!("snetctl: query: trace {t}");
            }
            if resp.status != 200 {
                return Err(format!("query: daemon answered {}: {}", resp.status, resp.text()));
            }
            let job = resp
                .header("x-snet-job")
                .ok_or("query: stream response carries no x-snet-job header")?
                .to_string();
            let status_resp = send("GET", &format!("/v1/jobs/{job}"), None)?;
            let status = snet_core::api::JobStatus::parse(&status_resp.text())
                .map_err(|e| format!("query: unparseable job status: {e}"))?;
            eprintln!("snetctl: query: job {job} {}", status.state.name());
            if let Some(result) = &status.result {
                println!("{}", serde_json::to_string(result).map_err(|e| e.to_string())?);
            }
            if status.state == snet_core::api::JobState::Failed {
                return Err(status.error.unwrap_or_else(|| "job failed".to_string()));
            }
            Ok(())
        }
        "job" => {
            let id = operand.ok_or("query job requires a job ID")?;
            let resp = send("GET", &format!("/v1/jobs/{id}"), None)?;
            print_query_answer(&resp)?;
            Ok(())
        }
        "cancel" => {
            let id = operand.ok_or("query cancel requires a job ID")?;
            let resp = send("DELETE", &format!("/v1/jobs/{id}"), None)?;
            print_query_answer(&resp)?;
            Ok(())
        }
        "health" => {
            let resp = send("GET", "/healthz", None)?;
            print_query_answer(&resp)?;
            Ok(())
        }
        "metrics" => {
            let resp = send("GET", "/metrics", None)?;
            print_query_answer(&resp)?;
            Ok(())
        }
        "debug" => {
            let resp = send("GET", "/v1/debug/requests", None)?;
            print_query_answer(&resp)?;
            Ok(())
        }
        "trace" => {
            let id = operand.ok_or("query trace requires a trace ID")?;
            let resp = send("GET", &format!("/v1/trace/{id}"), None)?;
            print_query_answer(&resp)?;
            Ok(())
        }
        other => Err(format!(
            "unknown query subcommand '{other}' (try check, adversary, search, job, cancel, \
             health, metrics, debug, trace)"
        )),
    }
}

/// Prints a query response body to stdout (newline-terminated) with the
/// cache/job provenance headers on stderr; non-2xx responses become
/// errors carrying the daemon's message.
fn print_query_answer(resp: &snet_service::client::Response) -> Result<String, String> {
    if resp.status / 100 != 2 {
        return Err(format!("query: daemon answered {}: {}", resp.status, resp.text()));
    }
    if let Some(cache) = resp.header("x-snet-cache") {
        match resp.header("x-snet-job") {
            Some(job) => eprintln!("snetctl: query: cache {cache} (job {job})"),
            None => eprintln!("snetctl: query: cache {cache}"),
        }
    }
    if let Some(t) = resp.header(snet_obs::TRACE_HEADER) {
        eprintln!("snetctl: query: trace {t}");
    }
    if let Some(link) = resp.header(snet_service::LINK_HEADER) {
        eprintln!("snetctl: query: linked trace {link}");
    }
    let text = resp.text();
    print!("{text}");
    if !text.ends_with('\n') && !text.is_empty() {
        println!();
    }
    Ok(text)
}

/// `trace ID [--addr HOST:PORT] [--client TRACE.jsonl] [--chrome OUT.json]
/// [-o OUT.jsonl]` — fetches a stored request trace from a running
/// daemon (`GET /v1/trace/{id}`; the ID is what `query` echoes on
/// stderr — a bare 32-hex trace id or the full `trace-span` header
/// value). With `--client`, the client-side `--trace-out` file of the
/// same query is merged in: server span/thread ids are remapped into
/// their own range, server timestamps are shifted onto the client's
/// clock (anchored at the `query.request` → `http.request` span pair),
/// and the server's request span is reparented under the client span
/// that issued it — one cross-process timeline. `--chrome` exports
/// Chrome trace-event JSON, `-o` the merged JSONL; the default renders
/// the span-tree report.
fn cmd_trace(args: &[String]) -> Result<(), String> {
    use snet_service::client;
    let ids =
        reject_unknown_flags("trace", args, 1, &[], &["--addr", "--client", "--chrome", "-o"])?;
    let addr = flag(args, "--addr").unwrap_or("127.0.0.1:7421");
    let client_path = flag(args, "--client");
    let chrome_out = flag(args, "--chrome");
    let jsonl_out = flag(args, "-o");
    // Accept the full `trace-span` value `query` echoes, or the bare id.
    let id = ids
        .first()
        .and_then(|full| full.split('-').next())
        .filter(|s| !s.is_empty())
        .ok_or("trace requires a trace ID (32 hex digits)")?
        .to_string();
    let resp = client::request(addr, "GET", &format!("/v1/trace/{id}"), None)
        .map_err(|e| format!("trace: GET {addr}/v1/trace/{id}: {e}"))?;
    if resp.status != 200 {
        return Err(format!("trace: daemon answered {}: {}", resp.status, resp.text()));
    }
    let server = snet_obs::report::parse_events(&resp.text())
        .map_err(|e| format!("trace: server events: {e}"))?;
    let merged = match &client_path {
        Some(path) => {
            let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            let client_events =
                snet_obs::report::parse_events(&text).map_err(|e| format!("trace: {path}: {e}"))?;
            let (merged, anchored) = merge_cross_process(&client_events, &server, &id);
            eprintln!(
                "snetctl: trace {id}: merged {} client + {} server events{}",
                client_events.len(),
                server.len(),
                if anchored { "" } else { " (no matching client span; left side by side)" }
            );
            merged
        }
        None => server,
    };
    if let Some(out) = chrome_out {
        let json = snet_obs::to_chrome_trace(&merged);
        std::fs::write(out, json).map_err(|e| format!("{out}: {e}"))?;
        println!("chrome trace written to {out} (load in chrome://tracing or ui.perfetto.dev)");
        return Ok(());
    }
    let mut text = String::new();
    for e in &merged {
        text.push_str(&e.to_json_line());
        text.push('\n');
    }
    if let Some(out) = jsonl_out {
        std::fs::write(out, text).map_err(|e| format!("{out}: {e}"))?;
        println!("merged trace written to {out}");
        return Ok(());
    }
    let (report, skipped) = snet_obs::report::parse_trace_lossy(&text);
    if skipped > 0 {
        eprintln!("trace: skipped {skipped} malformed line(s)");
    }
    print!("{}", snet_obs::report::render(&report));
    Ok(())
}

/// Stitches a server-side request trace onto the client trace that
/// issued it: server span/parent ids move up by a fixed offset (the two
/// processes' id counters both start near zero), server thread ordinals
/// move past the client's, server timestamps shift onto the client's
/// clock so the server's `http.request` span starts when the client's
/// `query.request` span does, and the server request span is reparented
/// under the client span. Returns the merged events and whether the
/// anchor pair was found (without it, events are still merged but keep
/// their own clocks and roots).
fn merge_cross_process(
    client: &[snet_obs::Event],
    server: &[snet_obs::Event],
    trace_hex: &str,
) -> (Vec<snet_obs::Event>, bool) {
    use snet_obs::EventKind;
    const ID_OFFSET: u64 = 1 << 32;
    let has_trace_attr =
        |e: &snet_obs::Event| e.attrs.iter().any(|(k, v)| k == "trace" && v == trace_hex);
    // Span attrs ride on the SpanEnd event, so identify the anchor span
    // by whichever event carries the trace attr, then take its
    // SpanStart time (falling back to end-minus-duration on a torn
    // trace missing the start line).
    let anchor_of = |events: &[snet_obs::Event], name: &str| -> Option<(u64, u64)> {
        let id = events.iter().find(|e| e.name == name && has_trace_attr(e))?.id;
        let start = events
            .iter()
            .find(|e| e.kind == EventKind::SpanStart && e.id == id)
            .map(|e| e.t_us)
            .or_else(|| {
                events
                    .iter()
                    .find(|e| e.kind == EventKind::SpanEnd && e.id == id)
                    .map(|e| e.t_us.saturating_sub(e.dur_us))
            })?;
        Some((id, start))
    };
    let client_anchor = anchor_of(client, "query.request");
    let server_anchor = anchor_of(server, "http.request");
    let anchored = client_anchor.is_some() && server_anchor.is_some();
    let delta: i128 = match (client_anchor, server_anchor) {
        (Some((_, ct)), Some((_, st))) => ct as i128 - st as i128,
        _ => 0,
    };
    let root_id = server_anchor.map(|(id, _)| id).unwrap_or(0);
    let client_parent = client_anchor.map(|(id, _)| id).unwrap_or(0);
    let thread_offset = client.iter().map(|e| e.thread).max().unwrap_or(0) + 1;
    let mut merged: Vec<snet_obs::Event> = client.to_vec();
    for e in server {
        let mut e = e.clone();
        let original_id = e.id;
        if e.id != 0 {
            e.id += ID_OFFSET;
        }
        if anchored && original_id == root_id {
            e.parent = client_parent;
        } else if e.parent != 0 {
            e.parent += ID_OFFSET;
        }
        e.thread += thread_offset;
        e.t_us = (e.t_us as i128 + delta).max(0) as u64;
        merged.push(e);
    }
    (merged, anchored)
}

/// `bench diff NEW.json [--against OLD.json] [--fail-on-regress PCT]` —
/// compares a fresh bench baseline against a stored one and exits with
/// code 8 when any metric regressed beyond the threshold.
fn cmd_bench(args: &[String]) -> Result<(), String> {
    let words = reject_unknown_flags("bench", args, 2, &[], &["--against", "--fail-on-regress"])?;
    match words.first().copied() {
        Some("diff") => cmd_bench_diff(args, words.get(1).copied()),
        Some(other) => Err(format!("unknown bench subcommand '{other}' (try 'diff')")),
        None => Err("bench requires a subcommand (try 'diff')".into()),
    }
}

fn cmd_bench_diff(args: &[String], new_path: Option<&str>) -> Result<(), String> {
    use snet_obs::baseline;
    let new_path = new_path.ok_or("bench diff requires NEW.json")?;
    let new = baseline::Baseline::load(std::path::Path::new(new_path))?;
    let against = match flag(args, "--against") {
        Some(p) => p.to_string(),
        // Default reference: the committed seed baseline for this scenario.
        None => format!("results/baselines/{}.json", new.name),
    };
    let old = baseline::Baseline::load(std::path::Path::new(&against))?;
    let fail_pct: f64 =
        parse(flag(args, "--fail-on-regress").unwrap_or("10"), "--fail-on-regress")?;
    if old.name != new.name {
        eprintln!("bench diff: comparing different scenarios ('{}' vs '{}')", old.name, new.name);
    }
    let d = baseline::diff(&old, &new, fail_pct);
    print!("{}", baseline::render_diff(&old, &new, &d));
    if !d.regressions().is_empty() {
        exit_flushed(exit::BENCH_REGRESS);
    }
    Ok(())
}

fn cmd_closure(args: &[String]) -> Result<(), String> {
    reject_unknown_flags("closure", args, 0, &[], &["--n", "--rho", "--seed"])?;
    let n: usize = parse(flag(args, "--n").ok_or("closure requires --n")?, "--n")?;
    let rho_name = flag(args, "--rho").unwrap_or("shuffle");
    let rho = match rho_name {
        "shuffle" => Permutation::shuffle(n),
        "unshuffle" => Permutation::unshuffle(n),
        "identity" => Permutation::identity(n),
        "bit-reversal" => Permutation::bit_reversal(n),
        "random" => {
            let seed: u64 = parse(flag(args, "--seed").unwrap_or("0"), "--seed")?;
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            Permutation::random(n, &mut rng)
        }
        other => return Err(format!("unknown --rho {other}")),
    };
    match snet_topology::mixing::comparison_closure_depth(&rho, 8 * n) {
        Some(t) => {
            println!("ρ = {rho_name}: comparison closure completes at stage {t}");
            println!("⇒ any sorting network based on ρ needs depth ≥ {t}");
        }
        None => {
            println!("ρ = {rho_name}: closure never completes");
            println!("⇒ NO sorting network based on ρ exists at any depth");
            exit_flushed(exit::CLOSURE_IMPOSSIBLE);
        }
    }
    Ok(())
}

fn cmd_duel(args: &[String]) -> Result<(), String> {
    use snet_adversary::adaptive::AdaptiveRun;
    use snet_core::element::ElementKind;
    use std::io::BufRead;
    reject_unknown_flags("duel", args, 0, &[], &["--n", "--k"])?;
    let n: usize = parse(flag(args, "--n").ok_or("duel requires --n")?, "--n")?;
    snet_topology::ShuffleNetwork::try_new(n, Vec::new())?;
    let l = n.trailing_zeros() as usize;
    let k: usize = parse(flag(args, "--k").unwrap_or(&l.to_string()), "--k")?;
    snet_adversary::check_k(k, l)?;
    println!(
        "adaptive duel on n = {n}: enter one stage per line as {} ops from {{+,-,0,1}} \
         (e.g. '++-0'), blank line or EOF to finish",
        n / 2
    );
    let mut run = AdaptiveRun::new(n, k);
    let stdin = std::io::stdin();
    for line in stdin.lock().lines() {
        let line = line.map_err(|e| e.to_string())?;
        let line = line.trim();
        if line.is_empty() {
            break;
        }
        if line.len() != n / 2 {
            return Err(format!("stage needs exactly {} ops, got {}", n / 2, line.len()));
        }
        let ops: Result<Vec<ElementKind>, String> = line
            .chars()
            .map(|c| ElementKind::from_symbol(c).ok_or(format!("bad op '{c}'")))
            .collect();
        let outcomes = run.submit_stage(&ops?);
        let summary: String =
            outcomes.iter().map(|o| if o.first_smaller { '<' } else { '>' }).collect();
        println!("outcomes: {summary}");
    }
    let out = run.finish();
    println!("surviving |D| = {}", out.d_set.len());
    match out.refutation {
        Some(r) => {
            println!(
                "adversary wins: values {} and {} never compared; unsorted witness {:?}",
                r.m,
                r.m + 1,
                r.unsorted_witness()
            );
        }
        None => println!("builder survives: |D| < 2 (network may sort)"),
    }
    Ok(())
}

fn cmd_certify(args: &[String]) -> Result<(), String> {
    use snet_adversary::LowerBoundCertificate;
    let files =
        reject_unknown_flags("certify", args, 1, &["--no-store"], &["-o", "--k", "--store"])?;
    let path = *files.first().ok_or("certify requires FILE")?;
    let out_path = flag(args, "-o").ok_or("certify requires -o CERT")?;
    let ird = NetworkFile::load(path)?.adversary_input(path)?;
    let l = ird.wires().trailing_zeros() as usize;
    let k: usize = parse(flag(args, "--k").unwrap_or(&l.to_string()), "--k")?;
    snet_adversary::check_k(k, l)?;
    let net = ird.to_network();
    let store = resolve_store(args)?;
    let canon = Canonical::of_network(&net);
    let hash = canon.hash();
    let (run, witness) =
        verdicts::compute_witness(store.as_ref(), &net, &hash, k, || ird, Some(canon))?;
    let Some(served) = witness else {
        println!("adversary exhausted (|D| = {}): nothing to certify", run.d_set.len());
        exit_flushed(exit::ADVERSARY_EXHAUSTED);
    };
    let r = SortingRefutation::from_verdict(&served.verdict).expect("a witness verdict");
    let cert = LowerBoundCertificate::from_witness(&net, &run, r)?;
    if store.is_some() {
        stored(served)?;
        println!("store: witness verdict cached under {hash}");
    }
    std::fs::write(out_path, serde_json::to_string_pretty(&cert).map_err(|e| e.to_string())?)
        .map_err(|e| e.to_string())?;
    println!(
        "certificate written to {out_path}: |D| = {} uncompared wires, witness values {} and {}",
        cert.d_set.len(),
        cert.witness.m,
        cert.witness.m + 1
    );
    Ok(())
}

fn cmd_audit(args: &[String]) -> Result<(), String> {
    use snet_adversary::LowerBoundCertificate;
    let files = reject_unknown_flags("audit", args, 1, &[], &["--samples", "--seed"])?;
    let path = *files.first().ok_or("audit requires CERT")?;
    let samples: usize = parse(flag(args, "--samples").unwrap_or("300"), "--samples")?;
    let seed: u64 = parse(flag(args, "--seed").unwrap_or("0"), "--seed")?;
    let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
    let cert: LowerBoundCertificate =
        serde_json::from_str(&text).map_err(|e| format!("parse: {e}"))?;
    let n = cert.network.wires();
    let result = if n <= 8 {
        println!("n = {n}: running the exhaustive check");
        cert.check_exhaustive()
    } else {
        println!("n = {n}: running the sampled check ({samples} refinements, seed {seed})");
        cert.check(samples, seed)
    };
    match result {
        Ok(()) => {
            println!("certificate VALID: the network is not a sorting network");
            Ok(())
        }
        Err(e) => {
            eprintln!("certificate REJECTED: {e}");
            exit_flushed(exit::CERTIFICATE_REJECTED);
        }
    }
}

/// `snetctl store` — inspect and maintain the content-addressed artifact
/// store: `ls` (entries), `get HASH` (print a stored verdict), `stat`
/// (aggregate numbers), `gc --max-bytes N` (evict oldest generations).
/// The store comes from `--store DIR` or `SNET_STORE`. `get` exits with
/// code 10 when the requested entry exists but is corrupt.
fn cmd_store(args: &[String]) -> Result<(), String> {
    // The subcommand is the first positional argument, wherever the flags
    // stand; its own flag table is checked below.
    let words = reject_unknown_flags(
        "store",
        args,
        usize::MAX,
        &["--no-store"],
        &["--store", "--max-bytes"],
    )?;
    let sub = words.first().copied();
    let (positional, valued): (usize, &[&str]) = match sub {
        Some("get") => (2, &["--store"]),
        Some("gc") => (1, &["--store", "--max-bytes"]),
        _ => (1, &["--store"]),
    };
    let operands = reject_unknown_flags("store", args, positional, &["--no-store"], valued)?;
    let store = resolve_store(args)?
        .ok_or("store commands need --store DIR or the SNET_STORE environment variable")?;
    match sub {
        Some("ls") => {
            let entries = store.ls().map_err(|e| e.to_string())?;
            println!("{:<16} {:<10} {:>10} {:>10}  summary", "hash", "kind", "gen", "bytes");
            for e in &entries {
                let summary = match e.kind.as_str() {
                    snet_store::KIND_VERDICT => store
                        .get_verdict(&e.hash)
                        .map(|(v, _)| v.summary())
                        .unwrap_or_else(|| "(unreadable)".into()),
                    snet_store::KIND_TT_FACTS => store
                        .get(&e.hash)
                        .and_then(|entry| snet_store::TtFacts::decode(&entry.payload).ok())
                        .map(|f| format!("{} transposition facts", f.len()))
                        .unwrap_or_else(|| "(unreadable)".into()),
                    _ => String::new(),
                };
                println!(
                    "{:<16} {:<10} {:>10} {:>10}  {summary}",
                    &e.hash.to_hex()[..16],
                    e.kind,
                    e.generation,
                    e.bytes
                );
            }
            println!("{} entries", entries.len());
            Ok(())
        }
        Some("get") => {
            let hex = *operands.get(1).ok_or("store get requires HASH")?;
            let hash = resolve_hash(&store, hex)?;
            let existed = store.contains(&hash);
            match store.get(&hash) {
                Some(entry) => {
                    match String::from_utf8(entry.payload) {
                        Ok(text) => println!("{text}"),
                        Err(e) => {
                            // Binary payloads (TT spills) are not for stdout.
                            println!(
                                "(binary {} payload, {} bytes)",
                                entry.kind,
                                e.as_bytes().len()
                            );
                        }
                    }
                    Ok(())
                }
                None if existed => {
                    eprintln!("entry {hash} is corrupt (quarantined)");
                    exit_flushed(exit::STORE_CORRUPT);
                }
                None => Err(format!("no entry under {hash}")),
            }
        }
        Some("stat") => {
            let s = store.stat().map_err(|e| e.to_string())?;
            println!("root        : {}", store.root().display());
            println!("generation  : {}", s.generation);
            println!("entries     : {}", s.entries);
            println!("  verdicts  : {}", s.verdicts);
            println!("  tt spills : {}", s.tt_spills);
            println!("bytes       : {}", s.bytes);
            println!("quarantined : {}", s.quarantined);
            // Session counters from this process's metrics registry: cache
            // effectiveness without needing a trace file. Zero unless this
            // invocation itself exercised the store (e.g. a future combined
            // command); still printed so the lines are greppable in scripts.
            let hits = snet_obs::registry::counter_value("store.hits").unwrap_or(0.0);
            let misses = snet_obs::registry::counter_value("store.misses").unwrap_or(0.0);
            let session_bytes = snet_obs::registry::counter_value("store.bytes").unwrap_or(0.0);
            let lookups = hits + misses;
            println!("session     : {hits:.0} hits / {misses:.0} misses");
            if lookups > 0.0 {
                println!("  hit rate  : {:.1}%", 100.0 * hits / lookups);
            } else {
                println!("  hit rate  : n/a (no lookups this session)");
            }
            println!("  bytes out : {session_bytes:.0}");
            Ok(())
        }
        Some("gc") => {
            let max: u64 = parse(
                flag(args, "--max-bytes").ok_or("gc requires --max-bytes N")?,
                "--max-bytes",
            )?;
            let r = store.gc(max).map_err(|e| e.to_string())?;
            println!(
                "gc: scanned {}, removed {} ({} bytes freed), {} bytes remain",
                r.scanned, r.removed, r.freed_bytes, r.remaining_bytes
            );
            Ok(())
        }
        _ => Err("store requires a subcommand: ls | get HASH | stat | gc --max-bytes N".into()),
    }
}

/// Resolves a (possibly abbreviated) hex hash against the store: a full
/// 64-char hash parses directly; a unique prefix of a stored entry also
/// works, like git's short object ids.
fn resolve_hash(store: &ArtifactStore, hex: &str) -> Result<snet_core::ir::CanonicalHash, String> {
    if let Some(h) = snet_core::ir::CanonicalHash::from_hex(hex) {
        return Ok(h);
    }
    if hex.len() < 4 || !hex.chars().all(|c| c.is_ascii_hexdigit()) {
        return Err(format!("'{hex}' is not a canonical hash (or a >= 4-char hex prefix)"));
    }
    let entries = store.ls().map_err(|e| e.to_string())?;
    let matches: Vec<_> = entries.iter().filter(|e| e.hash.to_hex().starts_with(hex)).collect();
    match matches.as_slice() {
        [one] => Ok(one.hash),
        [] => Err(format!("no entry matches prefix '{hex}'")),
        many => Err(format!("prefix '{hex}' is ambiguous ({} entries)", many.len())),
    }
}

/// `snetctl count` — drive the live counting-network runtime, or explore
/// its interleavings deterministically with `--explore`. Exit code 9 on
/// any step-property violation; explorer counterexamples are printed as
/// replayable decision strings and recorded in the run manifest.
fn cmd_count(args: &[String]) -> Result<(), String> {
    reject_unknown_flags(
        "count",
        args,
        0,
        &["--explore", "--exhaustive"],
        &["--width", "--threads", "--ops", "--kind", "--seed", "--schedules"],
    )?;
    let width: usize = parse(flag(args, "--width").unwrap_or("8"), "--width")?;
    if !width.is_power_of_two() {
        return Err("--width must be a power of two".into());
    }
    let threads: usize = parse(flag(args, "--threads").unwrap_or("4"), "--threads")?;
    if threads == 0 {
        return Err("--threads must be >= 1".into());
    }
    let kind = flag(args, "--kind").unwrap_or("bitonic");
    let layout = match kind {
        "bitonic" => Layout::bitonic(width),
        "periodic" => Layout::periodic(width),
        other => return Err(format!("unknown --kind '{other}' (bitonic|periodic)")),
    };
    println!(
        "counting network: {kind}, width {width}, {} balancers in {} layers",
        layout.balancer_count(),
        layout.depth()
    );
    if has_flag(args, "--explore") {
        count_explore(args, layout, threads)
    } else {
        count_live(args, layout, threads)
    }
}

/// Live mode: real threads hammer the network, then we inspect the
/// quiescent state and compare throughput against one shared counter.
fn count_live(args: &[String], layout: Layout, threads: usize) -> Result<(), String> {
    use std::sync::atomic::{AtomicU64, Ordering};
    let ops: usize = parse(flag(args, "--ops").unwrap_or("4096"), "--ops")?;
    let net = CountingNetwork::new(layout);
    let span = snet_obs::span("count.live")
        .attr("width", net.width())
        .attr("threads", threads)
        .attr("ops", ops);
    let start = std::time::Instant::now();
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| {
                for _ in 0..ops {
                    net.traverse();
                }
            });
        }
    });
    let net_elapsed = start.elapsed();
    drop(span);
    net.emit_obs();

    // The structure the counting network is meant to beat: every thread
    // on one cache line.
    let shared = AtomicU64::new(0);
    let start = std::time::Instant::now();
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| {
                for _ in 0..ops {
                    shared.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
    });
    let atomic_elapsed = start.elapsed();

    let total = (threads * ops) as u64;
    let rate = |d: std::time::Duration| total as f64 / d.as_secs_f64().max(1e-9);
    println!("traversals      : {total} ({threads} threads × {ops} ops)");
    println!(
        "network         : {:.1} ms, {:.0} ops/s",
        net_elapsed.as_secs_f64() * 1e3,
        rate(net_elapsed)
    );
    println!(
        "single atomic   : {:.1} ms, {:.0} ops/s",
        atomic_elapsed.as_secs_f64() * 1e3,
        rate(atomic_elapsed)
    );
    println!("slot counts     : {:?}", net.slot_counts());
    if net.total() != total {
        return Err(format!("lost traversals: {} slots vs {total} issued", net.total()));
    }
    match net.check_step() {
        Ok(()) => {
            println!("step property   : ok");
            Ok(())
        }
        Err(v) => {
            eprintln!("step property   : {v}");
            let mut manifest = snet_obs::RunManifest::capture("snetctl-count");
            manifest.push_extra("violation", v.to_string());
            manifest.emit();
            exit_flushed(exit::STEP_VIOLATION);
        }
    }
}

/// Explorer mode: deterministic virtual-thread schedules, exhaustive with
/// `--exhaustive` (small configurations only), seeded sampling otherwise.
fn count_explore(args: &[String], layout: Layout, threads: usize) -> Result<(), String> {
    let ops: usize = parse(flag(args, "--ops").unwrap_or("1"), "--ops")?;
    let seed: u64 = parse(flag(args, "--seed").unwrap_or("0"), "--seed")?;
    let schedules: u64 = parse(flag(args, "--schedules").unwrap_or("1000"), "--schedules")?;
    if threads > 62 {
        return Err("--explore supports at most 62 virtual threads".into());
    }
    let explorer = Explorer::new(layout.clone(), threads, ops, BalancerModel::Atomic);
    let _span = snet_obs::span("count.explore")
        .attr("width", layout.width())
        .attr("threads", threads)
        .attr("ops", ops);
    let report = if has_flag(args, "--exhaustive") {
        // Schedule count is multinomial in total steps; keep it in the
        // millions, not the billions.
        let steps = threads * ops * (layout.depth() + 1);
        if steps > 26 {
            return Err(format!(
                "exhaustive exploration of {steps} total steps is intractable; \
                 lower --threads/--ops/--width or use seeded sampling"
            ));
        }
        println!("exploring all interleavings of {threads} virtual threads × {ops} ops…");
        explorer.explore()
    } else {
        println!("sampling {schedules} schedules (seed {seed})…");
        explorer.sample(seed, schedules)
    };
    snet_obs::counter("sched.schedules", report.schedules);
    snet_obs::counter("sched.failing", report.failing);
    println!("schedules       : {}", report.schedules);
    if report.failing == 0 {
        println!("step property   : ok in every explored schedule");
        return Ok(());
    }
    eprintln!("step property   : VIOLATED in {} schedules", report.failing);
    let mut manifest = snet_obs::RunManifest::capture("snetctl-count");
    manifest.push_extra("seed", seed.to_string());
    for (i, v) in report.violations.iter().enumerate() {
        eprintln!("  schedule '{}': {}", v.decisions, v.detail);
        manifest.push_extra(format!("failing_schedule_{i}"), v.decisions.clone());
    }
    manifest.emit();
    exit_flushed(exit::STEP_VIOLATION);
}
