//! The traced run's per-layer numbers. After the traced replay, the
//! benchmark calls each layer's public functions directly on the same
//! seeded inputs, each call under a `bench.<layer>` span whose `ns`
//! attribute holds its duration; the per-layer metrics are read back from
//! those spans. Nothing inside the program is instrumented for this.

use crate::gen::{self, Req, Subject};
use crate::load::{Cache, CacheCounts, Counters, Phase, Sample};
use crate::stats::{median, quantile};
use crate::{Metric, Ready, Workload};
use snet_core::api::{AdversaryRequest, JobState, SearchRequest};
use snet_core::ir::{CanonicalHash, Executor};
use snet_core::verdict::{verdict_zero_one, VerdictKind};
use snet_obs::{Event, EventKind, Sink};
use snet_search::{SearchConfig, SearchMode};
use snet_service::http::{read_request, Limits, ReadOutcome};
use snet_service::{JobManager, JobsConfig, RequestCtx};
use snet_store::ArtifactStore;
use std::collections::HashMap;
use std::hint::black_box;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// Traced `verify_cold` requests that get direct calls: each is computed
/// cold twice more (layer by layer, then through the job manager).
const COLD_DIRECT: usize = 24;
/// Traced `replay_warm` requests that get direct calls.
const WARM_DIRECT: usize = 120;

/// Keeps every event in memory; the traced run writes them out once it
/// ends, so tracing adds no file I/O to what it measures.
#[derive(Default)]
pub struct Recorder {
    events: Mutex<Vec<Event>>,
}

impl Sink for Recorder {
    fn event(&self, e: &Event) {
        self.events.lock().expect("recorder poisoned").push(e.clone());
    }
}

impl Recorder {
    /// Writes the events as JSONL, the format `snetctl report` reads.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let events = self.events.lock().expect("recorder poisoned");
        let mut out = String::new();
        for e in events.iter() {
            out.push_str(&e.to_json_line());
            out.push('\n');
        }
        std::fs::write(path, out)
    }

    /// The `bench.*` span ends, as (name, µs, inputs checked if recorded).
    fn layer_spans(&self) -> Vec<(String, f64, Option<f64>)> {
        let events = self.events.lock().expect("recorder poisoned");
        events
            .iter()
            .filter(|e| e.kind == EventKind::SpanEnd && e.name.starts_with("bench."))
            .filter_map(|e| {
                let ns: f64 = e.attr("ns")?.parse().ok()?;
                let inputs = e.attr("inputs").and_then(|v| v.parse().ok());
                Some((e.name.clone(), ns / 1e3, inputs))
            })
            .collect()
    }
}

/// Runs `f` under a `name` span whose `ns` attribute records how long it
/// took; returns the result and that duration in ms.
fn timed<T>(name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
    let mut span = snet_obs::span(name);
    let t = Instant::now();
    let out = black_box(f());
    let ns = t.elapsed().as_nanos();
    span.add_attr("ns", ns);
    (out, ns as f64 / 1e6)
}

/// What the direct pass measured besides the spans.
#[derive(Default)]
pub struct Direct {
    /// Direct `JobManager` time of the same input, per traced request, ms.
    pub jobs_ms: HashMap<usize, f64>,
    /// Direct `snet_search::search` wall time per n, ms.
    pub search_ms: HashMap<usize, f64>,
    pub nodes: u64,
    pub tt_hits: u64,
    pub tt_misses: u64,
}

/// The direct callers: a store and a job manager of their own, so nothing
/// the daemon cached answers for them.
struct Bench<'a> {
    store: ArtifactStore,
    jobs: JobManager,
    ctx: RequestCtx,
    addr: &'a str,
}

impl Bench<'_> {
    fn parse(&self, req: &Req) -> Result<(), String> {
        let raw = req.wire_bytes(self.addr);
        match timed("bench.http.parse", || read_request(&mut raw.as_slice(), &Limits::default())).0
        {
            Ok(ReadOutcome::Request(_)) => Ok(()),
            Ok(_) => Err("http parse: no request in the recorded bytes".into()),
            Err(e) => Err(format!("http parse: {}", e.message)),
        }
    }

    /// Lowers a shuffle network the way the adversary endpoint does.
    fn lower(
        &self,
        sn: &snet_topology::ShuffleNetwork,
    ) -> (snet_topology::IteratedReverseDelta, snet_core::network::ComparatorNetwork) {
        timed("bench.topology.lower", || {
            let ird = sn.to_iterated_reverse_delta();
            let net = ird.to_network();
            (ird, net)
        })
        .0
    }

    fn jobs_adversary(&self, sn: &snet_topology::ShuffleNetwork) -> Result<f64, String> {
        let req = AdversaryRequest { n: sn.wires() as u32, stages: sn.stages().to_vec(), k: None };
        let (answer, ms) = timed("bench.jobs.adversary", || self.jobs.adversary(&req, &self.ctx));
        answer.map(|_| ms).map_err(|e| e.message)
    }

    /// Every layer a cold answer passes, then the same input through the
    /// job manager; returns the job manager's time in ms.
    fn cold(&self, req: &Req) -> Result<f64, String> {
        self.parse(req)?;
        match &req.subject {
            Subject::Check(net) => {
                let (hash, _) = timed("bench.ir.hash", || CanonicalHash::of_network(net));
                let _ = timed("bench.store.get", || self.store.get_verdict(&hash));
                let (exec, _) = timed("bench.ir.compile", || Executor::compile(net));
                let mut span = snet_obs::span("bench.verdict.check");
                let t = Instant::now();
                let verdict = black_box(verdict_zero_one(&exec, 1));
                span.add_attr("ns", t.elapsed().as_nanos());
                if let VerdictKind::SortCertificate { tested } = verdict.kind {
                    span.add_attr("inputs", tested);
                }
                drop(span);
                let _ = timed("bench.verdict.encode", || verdict.to_json());
                timed("bench.store.put", || self.store.put_verdict(&verdict))
                    .0
                    .map_err(|e| format!("direct store put: {e}"))?;
                let (answer, ms) = timed("bench.jobs.check", || self.jobs.check(net, &self.ctx));
                answer.map(|_| ms).map_err(|e| e.message)
            }
            Subject::Adversary(sn) => {
                let (ird, net) = self.lower(sn);
                let (hash, _) = timed("bench.ir.hash", || CanonicalHash::of_network(&net));
                let _ = timed("bench.store.get", || self.store.get_verdict(&hash));
                let k = sn.wires().trailing_zeros() as usize;
                let (out, _) =
                    timed("bench.adversary.theorem41", || snet_adversary::theorem41(&ird, k));
                let (refuted, _) = timed("bench.adversary.refute", || {
                    let r = snet_adversary::refute(&net, &out.input_pattern)
                        .map_err(|e| e.to_string())?;
                    r.verify(&net).map(|()| r)
                });
                let verdict = refuted?.to_verdict(&net);
                let _ = timed("bench.verdict.encode", || verdict.to_json());
                timed("bench.store.put", || self.store.put_verdict(&verdict))
                    .0
                    .map_err(|e| format!("direct store put: {e}"))?;
                self.jobs_adversary(sn)
            }
            Subject::Search(_) => Err("a search has no cold verdict path".into()),
        }
    }

    /// The layers a warm answer passes, then the job manager.
    fn warm(&self, req: &Req) -> Result<f64, String> {
        self.parse(req)?;
        match &req.subject {
            Subject::Check(net) => {
                let (hash, _) = timed("bench.ir.hash", || CanonicalHash::of_network(net));
                let _ = timed("bench.store.get", || self.store.get_verdict(&hash));
                let (answer, ms) = timed("bench.jobs.check", || self.jobs.check(net, &self.ctx));
                answer.map(|_| ms).map_err(|e| e.message)
            }
            Subject::Adversary(sn) => {
                let (_, net) = self.lower(sn);
                let (hash, _) = timed("bench.ir.hash", || CanonicalHash::of_network(&net));
                let _ = timed("bench.store.get", || self.store.get_verdict(&hash));
                self.jobs_adversary(sn)
            }
            Subject::Search(_) => Err("a search has no warm verdict path".into()),
        }
    }

    /// One search run directly and one through the job manager; returns
    /// the job manager's time in ms.
    fn search(&self, n: usize, direct: &mut Direct) -> Result<f64, String> {
        let cfg = SearchConfig::new(n, SearchMode::Unrestricted);
        let (out, ms) = timed("bench.search", || snet_search::search(&cfg));
        if out.optimal_depth != Some(gen::optimal_depth(n)) {
            return Err(format!("direct search n = {n} found depth {:?}", out.optimal_depth));
        }
        direct.nodes += out.totals.nodes;
        direct.tt_hits += out.totals.tt_hits;
        direct.tt_misses += out.totals.tt_misses;
        direct.search_ms.insert(n, ms);
        let req = SearchRequest {
            n: n as u32,
            mode: "unrestricted".into(),
            max_depth: None,
            threads: None,
        };
        let (status, ms) = timed("bench.jobs.search", || {
            self.jobs.submit_search(&req, &self.ctx).map(|job| job.wait_terminal())
        });
        match status {
            Ok(s) if s.state == JobState::Done => Ok(ms),
            Ok(s) => Err(format!("direct search job ended {:?}", s.state)),
            Err(e) => Err(e.message),
        }
    }
}

/// Calls every layer directly on the traced phase's inputs (regenerated
/// from their indices). Layers a workload does not reach are timed on a
/// small probe: one n = 6 search, or for `search_stream` the n = 16 and
/// n = 1024 probe of [`gen::probe`].
pub fn run(
    w: Workload,
    seed: u64,
    ready: &Ready,
    traced: &Phase,
    dir: &Path,
) -> Result<Direct, String> {
    let open = |name: &str| {
        ArtifactStore::open(dir.join(name)).map_err(|e| format!("direct store {name}: {e}"))
    };
    // The job manager mirrors the daemon's configuration: a store of its
    // own, except for `search_stream`, whose daemon runs without one (a
    // store would add transposition-table spills to every search).
    let jobs_store = match w {
        Workload::SearchStream => None,
        _ => Some(open("direct-jobs")?),
    };
    let bench = Bench {
        store: open("direct-store")?,
        jobs: JobManager::new(JobsConfig { store: jobs_store, ..JobsConfig::default() }),
        ctx: RequestCtx::default(),
        addr: &ready.daemon.addr,
    };
    let mut direct = Direct::default();
    let result = (|| -> Result<(), String> {
        match w {
            Workload::VerifyCold => {
                for s in traced.samples.iter().take(COLD_DIRECT) {
                    let ms = bench.cold(&gen::cold_request(seed, s.index))?;
                    direct.jobs_ms.insert(s.index, ms);
                }
                bench.search(6, &mut direct)?;
            }
            Workload::ReplayWarm => {
                // What set-up paid: the working set computed cold, which
                // also warms the direct store and job manager.
                for req in &ready.ws {
                    bench.cold(req)?;
                }
                for s in traced.samples.iter().take(WARM_DIRECT) {
                    let ms = bench.warm(&gen::warm_slot(seed, &ready.ws, s.index).0)?;
                    direct.jobs_ms.insert(s.index, ms);
                }
                bench.search(6, &mut direct)?;
            }
            Workload::SearchStream => {
                for req in &gen::probe(seed) {
                    bench.cold(req)?;
                }
                let mut by_n = HashMap::new();
                for n in [6, 7] {
                    by_n.insert(n, bench.search(n, &mut direct)?);
                }
                for s in &traced.samples {
                    direct.jobs_ms.insert(s.index, by_n[&s.wires]);
                }
            }
        }
        Ok(())
    })();
    bench.jobs.shutdown();
    result.map(|()| direct)
}

/// The layer spans each request passes on its way through the daemon,
/// with how often.
fn path_of(s: &Sample) -> &'static [(&'static str, f64)] {
    const CHECK_MISS: &[(&str, f64)] = &[
        ("bench.http.parse", 1.0),
        ("bench.ir.hash", 1.0),
        ("bench.store.get", 2.0),
        ("bench.ir.compile", 1.0),
        ("bench.verdict.check", 1.0),
        ("bench.verdict.encode", 1.0),
        ("bench.store.put", 1.0),
    ];
    const CHECK_HIT: &[(&str, f64)] =
        &[("bench.http.parse", 1.0), ("bench.ir.hash", 1.0), ("bench.store.get", 1.0)];
    const ADV_MISS: &[(&str, f64)] = &[
        ("bench.http.parse", 1.0),
        ("bench.topology.lower", 1.0),
        ("bench.ir.hash", 1.0),
        ("bench.store.get", 1.0),
        ("bench.adversary.theorem41", 1.0),
        ("bench.adversary.refute", 1.0),
        ("bench.verdict.encode", 1.0),
        ("bench.store.put", 1.0),
    ];
    const ADV_HIT: &[(&str, f64)] = &[
        ("bench.http.parse", 1.0),
        ("bench.topology.lower", 1.0),
        ("bench.ir.hash", 1.0),
        ("bench.store.get", 1.0),
    ];
    match (s.path, s.cache) {
        ("/v1/check", Cache::Miss) => CHECK_MISS,
        ("/v1/check", _) => CHECK_HIT,
        ("/v1/adversary", Cache::Miss) => ADV_MISS,
        ("/v1/adversary", _) => ADV_HIT,
        _ => &[],
    }
}

/// Per-layer metrics of a traced run, plus the layer-sum line.
pub fn report(
    rec: &Recorder,
    untraced: &Phase,
    traced: &Phase,
    before: Counters,
    after: Counters,
    direct: &Direct,
) -> (Vec<Metric>, String) {
    let mut us: HashMap<String, Vec<f64>> = HashMap::new();
    let (mut inputs, mut check_us) = (0.0, 0.0);
    for (name, t, checked) in rec.layer_spans() {
        if let Some(n) = checked {
            inputs += n;
            check_us += t;
        }
        us.entry(name).or_default().push(t);
    }
    let layer = |name: &str| us.get(name).map(Vec::as_slice).unwrap_or(&[]);
    let p = |name: &str, q: f64| quantile(layer(name), q);

    let ok = |phase: &Phase| -> Vec<f64> {
        phase.samples.iter().filter(|s| s.error.is_none()).map(|s| s.latency_ms).collect()
    };
    let unattributed: Vec<f64> = traced
        .samples
        .iter()
        .filter(|s| s.error.is_none())
        .filter_map(|s| direct.jobs_ms.get(&s.index).map(|d| s.latency_ms - d))
        .collect();
    let counts = CacheCounts::of(&traced.samples);
    let computed = counts.miss + counts.coalesced;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let d_hits = after.store_hits - before.store_hits;
    let d_lookups = d_hits + after.store_misses - before.store_misses;
    let search_ms: f64 = direct.search_ms.values().sum();
    let lags: Vec<f64> = untraced.samples.iter().map(|s| s.lag_ms).collect();
    let traced_p50 = median(&ok(traced));

    // Each request's layers at their p50s, weighted by the share of
    // requests that reach them; the rest of the end-to-end p50 is what no
    // layer accounts for.
    let ok_traced: Vec<&Sample> = traced.samples.iter().filter(|s| s.error.is_none()).collect();
    let layer_sum = ok_traced
        .iter()
        .map(|s| {
            let layers: f64 =
                path_of(s).iter().map(|(name, times)| times * p(name, 0.5) / 1e3).sum();
            layers
                + direct
                    .search_ms
                    .get(&s.wires)
                    .filter(|_| s.path == "/v1/search")
                    .copied()
                    .unwrap_or(0.0)
        })
        .sum::<f64>()
        / ok_traced.len().max(1) as f64;
    let unattributed_share = ratio(traced_p50 - layer_sum, traced_p50);
    let line = format!(
        "layer sum {layer_sum:.3} ms of end-to-end p50 {traced_p50:.3} ms \
         (per-layer p50s, each weighted by the share of requests reaching it): \
         {:.1}% unattributed",
        unattributed_share * 100.0
    );

    let m = |name: &'static str, value: f64, unit: &'static str| Metric { name, value, unit };
    let metrics = vec![
        m("server.unattributed_ms_p50", median(&unattributed), "ms"),
        m("server.unattributed_ms_p99", quantile(&unattributed, 0.99), "ms"),
        m("http.parse_us_p50", p("bench.http.parse", 0.5), "us"),
        m("jobs.check_us_p50", p("bench.jobs.check", 0.5), "us"),
        m("jobs.check_us_p99", p("bench.jobs.check", 0.99), "us"),
        m("jobs.adversary_us_p50", p("bench.jobs.adversary", 0.5), "us"),
        m("jobs.adversary_us_p99", p("bench.jobs.adversary", 0.99), "us"),
        m("jobs.cache.hit", counts.hit as f64, "count"),
        m("jobs.cache.miss", counts.miss as f64, "count"),
        m("jobs.cache.coalesced", counts.coalesced as f64, "count"),
        m("jobs.coalesced_ratio", ratio(counts.coalesced as f64, computed as f64), "ratio"),
        m("ir.hash_us_p50", p("bench.ir.hash", 0.5), "us"),
        m("ir.hash_us_p99", p("bench.ir.hash", 0.99), "us"),
        m("ir.compile_us_p50", p("bench.ir.compile", 0.5), "us"),
        m("verdict.check_us_p50", p("bench.verdict.check", 0.5), "us"),
        m("verdict.inputs_per_us", ratio(inputs, check_us), "1/us"),
        m("verdict.encode_us_p50", p("bench.verdict.encode", 0.5), "us"),
        m("store.get_us_p50", p("bench.store.get", 0.5), "us"),
        m("store.get_us_p99", p("bench.store.get", 0.99), "us"),
        m("store.put_us_p50", p("bench.store.put", 0.5), "us"),
        m("store.put_us_p99", p("bench.store.put", 0.99), "us"),
        m("store.hit_ratio", ratio(d_hits, d_lookups), "ratio"),
        m("topology.lower_us_p50", p("bench.topology.lower", 0.5), "us"),
        m("adversary.theorem41_us_p50", p("bench.adversary.theorem41", 0.5), "us"),
        m("adversary.theorem41_us_p99", p("bench.adversary.theorem41", 0.99), "us"),
        m("adversary.refute_us_p50", p("bench.adversary.refute", 0.5), "us"),
        m("adversary.refute_us_p99", p("bench.adversary.refute", 0.99), "us"),
        m("search.nodes", direct.nodes as f64, "count"),
        m("search.ns_per_node", ratio(search_ms * 1e6, direct.nodes as f64), "ns"),
        m(
            "search.tt_hit_rate",
            ratio(direct.tt_hits as f64, (direct.tt_hits + direct.tt_misses) as f64),
            "ratio",
        ),
        m("search.wall_ms", search_ms, "ms"),
        m("loadgen.lag_p99_ms", quantile(&lags, 0.99), "ms"),
        m("trace.overhead_ratio", ratio(traced_p50, median(&ok(untraced))), "ratio"),
        m("layers.sum_ms", layer_sum, "ms"),
        m("layers.unattributed_share", unattributed_share, "ratio"),
    ];
    (metrics, line)
}
