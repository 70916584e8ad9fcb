//! The global metrics registry: every counter, gauge, and histogram the
//! process emits, aggregated under stable Prometheus series names.
//!
//! The event stream (`emit_event`) is a *log*: it records each
//! increment as it happens and is replayed by reports. The registry is
//! the *current state*: dotted event names map onto the `snet_*`
//! namespace (`store.hits` → `snet_store_hits_total`) and accumulate in
//! place, so `snetctl metrics` — and later a `snetd /metrics` endpoint —
//! can expose the process without a trace file. Mirroring happens inside
//! [`crate::counter`]/[`crate::gauge`]/[`fn@crate::hist`] after the
//! enabled-check, preserving the zero-cost-when-disabled contract.
//!
//! Rendering to the Prometheus text format lives in [`crate::promtext`];
//! this module owns the data model ([`Family`], [`Sample`], [`Value`])
//! and the global store.

use crate::hist::HistSnapshot;
use std::collections::BTreeMap;
use std::sync::Mutex;

/// The three Prometheus metric types the registry models.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotone accumulator; rendered with a `_total` suffix.
    Counter,
    /// Point-in-time value, last write wins.
    Gauge,
    /// Log2-bucketed distribution (see [`HistSnapshot`]).
    Histogram,
}

impl MetricKind {
    /// The `# TYPE` keyword for this kind.
    pub fn type_name(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

/// A metric value, one per label set.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Accumulated counter total.
    Counter(f64),
    /// Last gauge sample.
    Gauge(f64),
    /// Merged histogram state.
    Hist(HistSnapshot),
}

/// One series: a label set and its value.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Sorted `key=value` labels (empty for unlabeled series).
    pub labels: Vec<(String, String)>,
    /// The series value.
    pub value: Value,
}

/// A metric family: one name, one type, one help string, N labeled
/// series.
#[derive(Debug, Clone, PartialEq)]
pub struct Family {
    /// Full Prometheus name (already `snet_`-prefixed and suffixed).
    pub name: String,
    /// Help text; empty means no `# HELP` line is rendered.
    pub help: String,
    /// Metric type.
    pub kind: MetricKind,
    /// Series, sorted by label signature.
    pub samples: Vec<Sample>,
}

struct FamilyCell {
    help: &'static str,
    kind: MetricKind,
    /// label-signature → (labels, value); BTreeMap for stable output.
    samples: BTreeMap<String, (Vec<(String, String)>, Value)>,
}

static REGISTRY: Mutex<BTreeMap<String, FamilyCell>> = Mutex::new(BTreeMap::new());

/// Maps a dotted event name onto the `snet_*` namespace: non-alphanumeric
/// characters become `_`, counters gain the conventional `_total`.
pub fn prom_name(dotted: &str, kind: MetricKind) -> String {
    let mut out = String::with_capacity(dotted.len() + 16);
    out.push_str("snet_");
    for c in dotted.chars() {
        if c.is_ascii_alphanumeric() {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    if kind == MetricKind::Counter && !out.ends_with("_total") {
        out.push_str("_total");
    }
    out
}

/// Help strings for the signals the workspace emits today. Series
/// recorded under other names render without a `# HELP` line.
fn help_for(dotted: &str) -> &'static str {
    match dotted {
        "store.hits" => "Store lookups served from the on-disk cache",
        "store.misses" => "Store lookups that fell through to recomputation",
        "store.bytes" => "Artifact bytes read from or written to the store",
        "store.writes" => "Artifacts written to the store",
        "store.write_errors" => "Store writes that failed",
        "store.quarantined" => "Store entries moved aside: damaged, or failed their re-check",
        "store.gc.removed" => "Entries removed by store garbage collection",
        "store.disk_bytes" => "On-disk size of the artifact store at last stat",
        "store.disk_entries" => "Entry count of the artifact store at last stat",
        "search.nodes" => "Search tree nodes expanded",
        "search.heartbeat" => "Search liveness heartbeat (one tick per 128 nodes)",
        "search.rounds" => "Completed search rounds (one per depth budget)",
        "search.steals" => "Tasks stolen between search workers",
        "search.tt.hit" => "Transposition-table hits",
        "search.tt.miss" => "Transposition-table misses",
        "search.tt.store" => "Transposition-table stores",
        "search.tt.evict" => "Transposition-table evictions",
        "search.tt.preloaded" => "Transposition entries preloaded from the store",
        "search.tt.spilled" => "Transposition entries spilled to the store",
        "search.oracle.cut" => "Branches cut by the depth oracle",
        "search.subsumed" => "Prefixes pruned by subsumption",
        "search.noop.skip" => "No-op comparator placements skipped",
        "search.witness.skip" => "Placements skipped by witness filtering",
        "search.task.nodes" => "Nodes expanded per search task",
        "search.task.us" => "Wall microseconds per search task",
        "search.cancelled" => "Search runs stopped by a cancel token",
        "runtime.traversals" => "Tokens that fully traversed the counting network",
        "runtime.balancer_ops" => "Total balancer visits absorbed by the network",
        "runtime.balancer.visits" => "Visits per balancer (flat means even load spread)",
        "check.inputs" => "0-1 input vectors checked",
        "ir.pass.ns" => "Wall nanoseconds per IR pass run",
        "sched.schedules" => "Interleaving schedules explored",
        "sched.failing" => "Schedules that violated the step property",
        "adversary.retained_mass" => "Input mass retained by the adversary",
        "adversary.evictions" => "Inputs evicted by the adversary argument",
        "http.request.duration" => {
            "HTTP request latency in microseconds by endpoint, status, and cache disposition"
        }
        "http.in_flight" => "HTTP requests currently being handled",
        "http.probe.requests" => "Health and metrics probe hits, kept out of job-path counters",
        "http.slow.captured" => "Slow requests whose span trees were dumped via the flight path",
        "http.traced" => "Requests that arrived with a client trace context",
        "httpd.requests" => "HTTP requests the service accepted for routing",
        "httpd.responses" => "HTTP responses the service sent",
        "httpd.rejected" => "HTTP requests refused as malformed or over limits",
        "httpd.connections" => "TCP connections the service accepted",
        "httpd.accept_errors" => "Failed accepts the service kept serving through",
        "jobs.submitted" => "Service jobs created",
        "jobs.completed" => "Service jobs that finished with a result",
        "jobs.cancelled" => "Service jobs stopped before completion",
        "jobs.failed" => "Service jobs that ended in an error",
        "jobs.coalesced" => "Requests attached to an identical in-flight job",
        "jobs.running" => "Service jobs currently executing",
        _ => "",
    }
}

fn label_sig(labels: &[(&str, &str)]) -> String {
    let mut parts: Vec<String> = labels.iter().map(|(k, v)| format!("{k}={v}")).collect();
    parts.sort();
    parts.join("\u{1}")
}

fn with_cell<R>(
    dotted: &str,
    kind: MetricKind,
    labels: &[(&str, &str)],
    f: impl FnOnce(&mut Value) -> R,
) -> R {
    let name = prom_name(dotted, kind);
    let mut reg = REGISTRY.lock().unwrap_or_else(|p| p.into_inner());
    let cell = reg.entry(name).or_insert_with(|| FamilyCell {
        help: help_for(dotted),
        kind,
        samples: BTreeMap::new(),
    });
    let (_, value) = cell.samples.entry(label_sig(labels)).or_insert_with(|| {
        let mut owned: Vec<(String, String)> =
            labels.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect();
        owned.sort();
        let zero = match kind {
            MetricKind::Counter => Value::Counter(0.0),
            MetricKind::Gauge => Value::Gauge(0.0),
            MetricKind::Histogram => Value::Hist(HistSnapshot::default()),
        };
        (owned, zero)
    });
    f(value)
}

pub(crate) fn record_counter(dotted: &str, delta: f64) {
    record_counter_labeled(dotted, &[], delta);
}

pub(crate) fn record_counter_labeled(dotted: &str, labels: &[(&str, &str)], delta: f64) {
    with_cell(dotted, MetricKind::Counter, labels, |v| {
        if let Value::Counter(total) = v {
            *total += delta;
        }
    });
}

pub(crate) fn record_gauge(dotted: &str, sample: f64) {
    record_gauge_labeled(dotted, &[], sample);
}

pub(crate) fn record_gauge_labeled(dotted: &str, labels: &[(&str, &str)], sample: f64) {
    with_cell(dotted, MetricKind::Gauge, labels, |v| {
        if let Value::Gauge(g) = v {
            *g = sample;
        }
    });
}

pub(crate) fn record_hist(dotted: &str, snap: &HistSnapshot) {
    with_cell(dotted, MetricKind::Histogram, &[], |v| {
        if let Value::Hist(h) = v {
            h.merge(snap);
        }
    });
}

pub(crate) fn record_hist_sample(dotted: &str, labels: &[(&str, &str)], sample: u64) {
    with_cell(dotted, MetricKind::Histogram, labels, |v| {
        if let Value::Hist(h) = v {
            h.record(sample);
        }
    });
}

/// The accumulated total of a counter recorded under `dotted`, or `None`
/// if the series was never touched. Used by `snetctl store stat` to show
/// this process's cache traffic without a trace file.
pub fn counter_value(dotted: &str) -> Option<f64> {
    let name = prom_name(dotted, MetricKind::Counter);
    let reg = REGISTRY.lock().unwrap_or_else(|p| p.into_inner());
    let cell = reg.get(&name)?;
    cell.samples.values().find_map(|(labels, v)| match v {
        Value::Counter(total) if labels.is_empty() => Some(*total),
        _ => None,
    })
}

/// The accumulated total of the labeled counter series matching exactly
/// `labels` (order-insensitive), or `None` if never touched.
pub fn counter_value_labeled(dotted: &str, labels: &[(&str, &str)]) -> Option<f64> {
    let name = prom_name(dotted, MetricKind::Counter);
    let reg = REGISTRY.lock().unwrap_or_else(|p| p.into_inner());
    let cell = reg.get(&name)?;
    let (_, v) = cell.samples.get(&label_sig(labels))?;
    match v {
        Value::Counter(total) => Some(*total),
        _ => None,
    }
}

/// A consistent copy of every registered family, sorted by name.
pub fn snapshot() -> Vec<Family> {
    let reg = REGISTRY.lock().unwrap_or_else(|p| p.into_inner());
    reg.iter()
        .map(|(name, cell)| Family {
            name: name.clone(),
            help: cell.help.to_string(),
            kind: cell.kind,
            samples: cell
                .samples
                .values()
                .map(|(labels, value)| Sample { labels: labels.clone(), value: value.clone() })
                .collect(),
        })
        .collect()
}

/// Process-level families computed at scrape time: uptime, resident set
/// size, and (with the `alloc` feature) allocator accounting.
pub fn process_families() -> Vec<Family> {
    let mut out = Vec::new();
    let gauge = |name: &str, help: &str, v: f64| Family {
        name: name.to_string(),
        help: help.to_string(),
        kind: MetricKind::Gauge,
        samples: vec![Sample { labels: Vec::new(), value: Value::Gauge(v) }],
    };
    let counter = |name: &str, help: &str, v: f64| Family {
        name: name.to_string(),
        help: help.to_string(),
        kind: MetricKind::Counter,
        samples: vec![Sample { labels: Vec::new(), value: Value::Counter(v) }],
    };
    out.push(gauge(
        "snet_process_uptime_seconds",
        "Seconds since the observation epoch (first instrumented call)",
        crate::now_us() as f64 / 1e6,
    ));
    if let Some(rss) = resident_bytes() {
        out.push(gauge(
            "snet_process_resident_memory_bytes",
            "Resident set size sampled from /proc/self/status",
            rss as f64,
        ));
    }
    if let Some(stats) = crate::alloc::stats() {
        out.push(gauge(
            "snet_mem_live_bytes",
            "Heap bytes currently live (counting allocator)",
            stats.live_bytes as f64,
        ));
        out.push(gauge(
            "snet_mem_peak_bytes",
            "Peak live heap bytes (counting allocator)",
            stats.peak_bytes as f64,
        ));
        out.push(counter(
            "snet_alloc_total",
            "Heap allocations performed (counting allocator)",
            stats.total_allocs as f64,
        ));
        out.push(counter(
            "snet_alloc_bytes_total",
            "Heap bytes allocated over the process lifetime (counting allocator)",
            stats.total_bytes as f64,
        ));
    }
    out
}

/// Resident set size in bytes from `/proc/self/status` (`VmRSS`), or
/// `None` off Linux.
pub fn resident_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmRSS:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

/// Registry plus process families — everything a `/metrics` scrape
/// should see.
pub fn gather() -> Vec<Family> {
    let mut fams = snapshot();
    fams.extend(process_families());
    fams
}

/// The full Prometheus text exposition for this process.
pub fn render_prometheus() -> String {
    crate::promtext::render(&gather())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prom_names_map_dots_and_suffix_counters() {
        assert_eq!(prom_name("store.hits", MetricKind::Counter), "snet_store_hits_total");
        assert_eq!(prom_name("work.progress", MetricKind::Gauge), "snet_work_progress");
        assert_eq!(prom_name("search.task.nodes", MetricKind::Histogram), "snet_search_task_nodes");
        assert_eq!(prom_name("weird-name.x", MetricKind::Gauge), "snet_weird_name_x");
    }

    #[test]
    fn counters_accumulate_and_gauges_overwrite() {
        record_counter("regtest.unique.counter", 2.0);
        record_counter("regtest.unique.counter", 3.0);
        record_gauge("regtest.unique.gauge", 1.0);
        record_gauge("regtest.unique.gauge", 9.0);
        assert_eq!(counter_value("regtest.unique.counter"), Some(5.0));
        let fams = snapshot();
        let g = fams.iter().find(|f| f.name == "snet_regtest_unique_gauge").unwrap();
        assert_eq!(g.samples[0].value, Value::Gauge(9.0));
    }

    #[test]
    fn labeled_histograms_keep_series_apart() {
        record_hist_sample("regtest.pass.ns", &[("pass", "canon")], 10);
        record_hist_sample("regtest.pass.ns", &[("pass", "canon")], 20);
        record_hist_sample("regtest.pass.ns", &[("pass", "relayer")], 5);
        let fams = snapshot();
        let f = fams.iter().find(|f| f.name == "snet_regtest_pass_ns").unwrap();
        assert_eq!(f.kind, MetricKind::Histogram);
        assert_eq!(f.samples.len(), 2);
        let canon = f
            .samples
            .iter()
            .find(|s| s.labels == vec![("pass".to_string(), "canon".to_string())])
            .unwrap();
        match &canon.value {
            Value::Hist(h) => assert_eq!((h.count, h.sum), (2, 30)),
            other => panic!("expected hist, got {other:?}"),
        }
    }

    #[test]
    fn process_families_always_include_uptime() {
        let fams = process_families();
        assert!(fams.iter().any(|f| f.name == "snet_process_uptime_seconds"));
    }
}
