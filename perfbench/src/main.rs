//! `perfbench`: the client-side benchmark of the snetd verification
//! pipeline. One process spawns the daemon in-process on an ephemeral
//! port, drives one seeded workload against it through the blocking
//! client, checks every answer independently, and prints the metrics.
//!
//! ```text
//! cargo run --offline --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload verify_cold --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics. `--trace 1` replays the
//! same seeded inputs twice on fresh daemons, once untraced and once with
//! every obs event recorded, then calls each layer's public functions
//! directly under `bench.*` spans; it prints the per-layer metrics and
//! writes the events as JSONL for `snetctl report`. The last line of
//! stdout is one JSON object: `correct`, `attempted`, `failed`, `metrics`.
//! Every file the run writes lives under `.bench_run/` in the working
//! directory.

mod check;
mod gen;
mod layers;
mod load;
mod stats;

use load::{Daemon, Phase};
use stats::{median, quantile, tail_percentile};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

const USAGE: &str = "usage: perfbench --workload verify_cold|replay_warm|search_stream \
                     --seed N --seconds S --trace 0|1";

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// `replay_warm`'s open-loop arrival rate, requests per second. Its 27 ms
/// period is no multiple of the daemon's 25 ms accept poll, so arrivals
/// sweep every phase of the poll instead of locking onto one.
const WARM_RATE: f64 = 37.0;
/// Longest think time of a `verify_cold` client between an answer and its
/// next send. Without it the two clients' sends lock onto phases of the
/// daemon's 25 ms accept poll that differ from run to run, and the run's
/// median moves with them.
const COLD_THINK_MS: f64 = 25.0;

/// The three workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    VerifyCold,
    ReplayWarm,
    SearchStream,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        match s {
            "verify_cold" => Some(Workload::VerifyCold),
            "replay_warm" => Some(Workload::ReplayWarm),
            "search_stream" => Some(Workload::SearchStream),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::VerifyCold => "verify_cold",
            Workload::ReplayWarm => "replay_warm",
            Workload::SearchStream => "search_stream",
        }
    }

    /// Loop type, load, inputs, and the layers it is predicted not to move.
    fn describe(self) -> String {
        match self {
            Workload::VerifyCold => format!(
                "closed loop, 2 clients thinking 0-{COLD_THINK_MS} ms; every request a new \
                 canonical form: /v1/check on \
                 n = 20, 21, 22 (half sorting) and /v1/adversary on n = {}, d = {}; \
                 a front-end change is predicted not to move it",
                gen::ADV_WIRES,
                gen::ADV_DEPTH
            ),
            Workload::ReplayWarm => format!(
                "open loop, {WARM_RATE} req/s from 2 sender threads; relabelled n = 16 checks \
                 and n = {} adversary networks from a {}-entry working set, one slot pair in {} \
                 a 2-way duplicate of a fresh n = 16 form; a compute change is predicted not \
                 to move it",
                gen::ADV_WIRES,
                gen::WARM_CHECKS + gen::WARM_ADVERSARIES,
                gen::PAIR_EVERY
            ),
            Workload::SearchStream => "closed loop, 1 client, no store; streamed /v1/search \
                 unrestricted on n = 6, 7, 7 repeating; store and front-end changes are \
                 predicted not to move it"
                .to_string(),
        }
    }

    /// The fixed sample count the tail percentile is chosen for, per
    /// measured second: the open loop's rate, or a closed loop's
    /// conservative throughput on this benchmark's reference machine.
    fn design_rate(self) -> f64 {
        match self {
            Workload::VerifyCold => 20.0,
            Workload::ReplayWarm => WARM_RATE,
            Workload::SearchStream => 1.4,
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&value).ok_or(format!("unknown workload {value:?}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// One metric of the result line.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
}

/// A daemon that finished set-up, with what set-up recorded.
pub struct Ready {
    pub daemon: Daemon,
    /// The `replay_warm` working set (empty for the other workloads).
    pub ws: Vec<gen::Req>,
    /// The working set's cold answer bytes, in working-set order.
    pub cold: Vec<Vec<u8>>,
    secs: f64,
}

/// Spawns a daemon with a fresh store (none for `search_stream`) and
/// warms it; the returned time covers spawn, store open, and warm-up.
fn setup(w: Workload, seed: u64, dir: &Path, tag: &str) -> Result<Ready, String> {
    let t = Instant::now();
    let store = (w != Workload::SearchStream).then(|| dir.join(format!("store-{tag}")));
    let daemon = Daemon::start(store)?;
    let warmed = load::warm_up(&daemon.addr).and_then(|()| match w {
        Workload::ReplayWarm => {
            let ws = gen::warm_set(seed);
            load::compute_cold(&daemon.addr, &ws).map(|cold| (ws, cold))
        }
        Workload::SearchStream => load::warm_search(&daemon.addr).map(|()| (vec![], vec![])),
        Workload::VerifyCold => Ok((vec![], vec![])),
    });
    match warmed {
        Ok((ws, cold)) => Ok(Ready { daemon, ws, cold, secs: t.elapsed().as_secs_f64() }),
        Err(e) => {
            let _ = daemon.stop();
            Err(e)
        }
    }
}

/// One measured phase of the workload against a ready daemon.
fn measure(w: Workload, seed: u64, r: &Ready, secs: f64, traced: bool) -> Phase {
    let addr = r.daemon.addr.as_str();
    match w {
        Workload::VerifyCold => {
            load::closed_loop(addr, 2, COLD_THINK_MS, secs, &r.cold, traced, &|i| {
                gen::cold_request(seed, i)
            })
        }
        Workload::ReplayWarm => load::open_loop(addr, WARM_RATE, secs, &r.cold, traced, &|k| {
            gen::warm_slot(seed, &r.ws, k)
        }),
        Workload::SearchStream => load::closed_loop(addr, 1, 0.0, secs, &r.cold, traced, &|k| {
            gen::search_request(seed, k)
        }),
    }
}

/// Measures a phase between two `/metrics` scrapes and cross-checks the
/// counter deltas against the client's cache counts.
fn measure_checked(
    a: &Args,
    r: &Ready,
    secs: f64,
    traced: bool,
) -> Result<(Phase, load::Counters, load::Counters, Result<String, String>), String> {
    let before = load::scrape(&r.daemon.addr)?;
    let phase = measure(a.workload, a.seed, r, secs, traced);
    let after = load::scrape(&r.daemon.addr)?;
    let cross = load::cross_check(&phase.samples, before, after);
    Ok((phase, before, after, cross))
}

fn failures(phase: &Phase) -> u64 {
    phase.samples.iter().filter(|s| s.error.is_some()).count() as u64
}

fn report_failures(phase: &Phase) {
    for s in phase.samples.iter().filter(|s| s.error.is_some()).take(5) {
        println!("  FAILED request {} ({}): {}", s.index, s.path, s.error.as_deref().unwrap_or(""));
    }
}

/// Peak resident set of this process (`VmHWM`) in MB: the daemon and the
/// load generator together.
fn rss_peak_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn untraced(a: &Args, dir: &Path) -> Result<Outcome, String> {
    let w = a.workload;
    let mut setup_secs = Vec::new();
    let mut ready: Option<Ready> = None;
    for rep in 0..SETUP_REPS {
        if let Some(prev) = ready.take() {
            prev.daemon.stop()?;
        }
        let r = setup(w, a.seed, dir, &rep.to_string())?;
        setup_secs.push(r.secs);
        ready = Some(r);
    }
    let r = ready.expect("at least one set-up ran");
    let measured = measure_checked(a, &r, a.seconds, false);
    r.daemon.stop()?;
    let (phase, _, _, cross) = measured?;

    let ok: Vec<&load::Sample> = phase.samples.iter().filter(|s| s.error.is_none()).collect();
    let latencies: Vec<f64> = ok.iter().map(|s| s.latency_ms).collect();
    let design = (w.design_rate() * a.seconds).round() as usize;
    let tail_pct = tail_percentile(design);
    let attempted = phase.samples.len() as u64;
    let failed = failures(&phase);
    let setup_s = median(&setup_secs);
    let req_per_s = ok.len() as f64 / phase.wall_s;
    let p50 = median(&latencies);
    let tail = quantile(&latencies, tail_pct / 100.0);
    let first_p50 = median(&ok.iter().map(|s| s.first_ms).collect::<Vec<_>>());
    let lags: Vec<f64> = phase.samples.iter().map(|s| s.lag_ms).collect();
    let rss = rss_peak_mb();
    let beyond = latencies.iter().filter(|&&l| l > tail).count();

    println!("  setup_s             {setup_s:>12.4} s     median of {SETUP_REPS} set-ups {setup_secs:.3?}");
    println!(
        "  req_per_s           {req_per_s:>12.3} 1/s   correct answers per second of a {:.1} s phase",
        phase.wall_s
    );
    println!("  latency_p50_ms      {p50:>12.3} ms    {} samples", latencies.len());
    println!(
        "  latency_tail_ms     {tail:>12.3} ms    p{tail_pct} at the fixed count of {design} \
         ({} samples, {beyond} beyond)",
        latencies.len()
    );
    println!(
        "  first_frame_p50_ms  {first_p50:>12.3} ms    send to first ND-JSON frame \
         (whole response for non-streamed endpoints)"
    );
    println!(
        "  fail_ratio          {:>12.4} ratio {failed} failed of {attempted} attempted",
        failed as f64 / attempted.max(1) as f64
    );
    println!("  rss_peak_mb         {rss:>12.1} MB    VmHWM of the one process: daemon and load generator");
    println!("  loadgen.lag_p99_ms  {:>12.3} ms    how late the sender ran", quantile(&lags, 0.99));
    let cross_ok = cross.is_ok();
    println!("  counts              {}", cross.unwrap_or_else(|e| e));
    report_failures(&phase);

    let m = |name: &'static str, value: f64, unit: &'static str| Metric { name, value, unit };
    Ok(Outcome {
        correct: failed == 0 && cross_ok && attempted > 0,
        attempted,
        failed,
        metrics: vec![
            m("setup_s", setup_s, "s"),
            m("req_per_s", req_per_s, "1/s"),
            m("latency_p50_ms", p50, "ms"),
            m("latency_tail_ms", tail, "ms"),
            m("rss_peak_mb", rss, "MB"),
        ],
    })
}

fn traced(a: &Args, dir: &Path, trace_path: &Path) -> Result<Outcome, String> {
    let (w, half) = (a.workload, a.seconds / 2.0);
    let base = setup(w, a.seed, dir, "untraced")?;
    let measured = measure_checked(a, &base, half, false);
    base.daemon.stop()?;
    let (untraced, _, _, base_cross) = measured?;

    let r = setup(w, a.seed, dir, "traced")?;
    let recorder = Arc::new(layers::Recorder::default());
    let sink = snet_obs::install_sink(recorder.clone());
    let measured = measure_checked(a, &r, half, true).and_then(|(phase, before, after, cross)| {
        let direct = layers::run(w, a.seed, &r, &phase, dir)?;
        Ok((phase, before, after, cross, direct))
    });
    snet_obs::remove_sink(sink);
    r.daemon.stop()?;
    let (phase, before, after, cross, direct) = measured?;
    recorder
        .write_jsonl(trace_path)
        .map_err(|e| format!("writing {}: {e}", trace_path.display()))?;

    let (metrics, sum_line) = layers::report(&recorder, &untraced, &phase, before, after, &direct);
    for m in &metrics {
        println!("  {:<28} {:>14.4} {}", m.name, m.value, m.unit);
    }
    println!("  {sum_line}");
    let cross_ok = base_cross.is_ok() && cross.is_ok();
    for line in [base_cross, cross] {
        println!("  counts              {}", line.unwrap_or_else(|e| e));
    }
    println!(
        "  trace               {} (render: snetctl report <file> [--chrome out.json])",
        trace_path.display()
    );
    report_failures(&untraced);
    report_failures(&phase);
    let failed = failures(&untraced) + failures(&phase);
    let attempted = (untraced.samples.len() + phase.samples.len()) as u64;
    Ok(Outcome { correct: failed == 0 && cross_ok && attempted > 0, attempted, failed, metrics })
}

fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn result_line(o: &Outcome) -> String {
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|m| {
            format!("\"{}\":{{\"value\":{},\"unit\":\"{}\"}}", m.name, number(m.value), m.unit)
        })
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        o.correct,
        o.attempted,
        o.failed,
        metrics.join(",")
    )
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let root = PathBuf::from(".bench_run");
    let dir = root.join(format!("{}-{}-{}", args.workload.name(), args.seed, std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("perfbench: cannot create {}: {e}", dir.display());
        std::process::exit(1);
    }
    let parallelism = std::thread::available_parallelism().map_or(1, |p| p.get());
    println!(
        "perfbench {} seed {} ({} s, trace {}): {}; available_parallelism {parallelism}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.workload.describe()
    );
    let outcome = if args.trace {
        let trace_path =
            root.join(format!("trace-{}-seed{}.jsonl", args.workload.name(), args.seed));
        traced(&args, &dir, &trace_path)
    } else {
        untraced(&args, &dir)
    };
    let _ = std::fs::remove_dir_all(&dir);
    match outcome {
        Ok(o) => {
            println!("{}", result_line(&o));
            if !o.correct {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
