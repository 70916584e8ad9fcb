//! Request-scoped service telemetry: per-request trace capture, the
//! tracez-style request ring behind `GET /v1/debug/requests`, the
//! bounded trace store behind `GET /v1/trace/{trace_id}`, the JSONL
//! access log, and slow-request auto-capture.
//!
//! ## Trace capture
//!
//! Every traced request owns a [`RequestTrace`]: a bounded buffer of the
//! obs events the request caused. One [`TraceCapture`] sink, installed
//! and owned by the job manager, routes each event when it is emitted,
//! two ways:
//!
//! * **by thread** — a thread [attaches](TraceCapture::attach) a route
//!   naming its request trace, its job's [`JobObs`], or both, and
//!   everything it emits goes there until the guard drops: the
//!   connection thread for the exchange, a check leader for its
//!   compute, a search job's thread for the job (adding the job around
//!   the search itself);
//! * **by span descent** — a `SpanStart` whose parent span already
//!   belongs to a trace joins that trace and enrolls its own id, so
//!   `span_under` worker spans emitted from *unattached* pool threads
//!   (the sharded check's and the search engine's scoped workers) still
//!   land in the right request trace. Descent reaches a trace only,
//!   never a job: a job's progress frames come from its own thread.
//!
//! The capture sink never calls back into the obs API; it only touches
//! its own mutexes and the buffers of the traces and jobs it feeds.

use crate::jobs::JobObs;
use serde::{Serialize, Value};
use snet_obs::json::obj;
use snet_obs::tracectx::{TraceContext, TRACE_HEADER};
use snet_obs::{Event, EventKind, Sink, TraceId};
use std::collections::{HashMap, VecDeque};
use std::io::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Response header naming a causally-linked trace (a coalesced rider
/// points at the leader's trace, where the shared compile ran).
pub const LINK_HEADER: &str = "x-snet-link";

/// Events kept per request before the trace starts dropping; the drop
/// count is reported in the trace document so truncation is visible.
const MAX_TRACE_EVENTS: usize = 4096;

/// The search workers' liveness counter, one per 128 nodes each: it
/// keeps the flight ring fresh in a deep search, but in a request trace
/// it would fill the bound above before the spans that explain the
/// request. The capture drops it.
const HEARTBEAT: &str = "search.heartbeat";

/// Finished requests kept in the debug ring.
const RING_CAPACITY: usize = 256;

/// Finished request traces kept for `GET /v1/trace/{id}`.
const TRACE_STORE_CAPACITY: usize = 128;

// ---------------------------------------------------------------------------
// Trace extraction
// ---------------------------------------------------------------------------

/// Pulls the trace context out of a request's headers. Returns the
/// context and whether it was *forwarded* by the client (`false` means
/// the server generated a fresh one). Degrades, never rejects: a
/// missing, malformed, oversized, or duplicated `x-snet-trace` header
/// yields a fresh server-generated context — telemetry must not be able
/// to fail a request.
pub fn extract_trace(req: &crate::http::Request) -> (TraceContext, bool) {
    let mut values = req.headers.iter().filter(|(k, _)| k == TRACE_HEADER);
    let first = values.next();
    let duplicated = values.next().is_some();
    if let (Some((_, v)), false) = (first, duplicated) {
        if let Some(ctx) = TraceContext::parse_header(v) {
            return (ctx, true);
        }
    }
    (TraceContext::generate(), false)
}

/// Collapses a request path into a bounded-cardinality endpoint label
/// for RED metrics: job and trace lookups share one label, unknown
/// paths collapse to `"other"`.
pub fn endpoint_label(path: &str) -> &'static str {
    match path {
        "/healthz" => "/healthz",
        "/metrics" => "/metrics",
        "/v1/check" => "/v1/check",
        "/v1/adversary" => "/v1/adversary",
        "/v1/search" => "/v1/search",
        "/v1/debug/requests" => "/v1/debug/requests",
        p if p.starts_with("/v1/jobs/") => "/v1/jobs/{id}",
        p if p.starts_with("/v1/trace/") => "/v1/trace/{id}",
        _ => "other",
    }
}

// ---------------------------------------------------------------------------
// RequestTrace + TraceCapture
// ---------------------------------------------------------------------------

/// The events one traced request caused, bounded.
pub struct RequestTrace {
    /// The owning trace id.
    pub trace: TraceId,
    events: Mutex<Vec<Event>>,
    dropped: AtomicU64,
}

impl RequestTrace {
    /// A fresh, empty trace buffer for `trace`.
    pub fn new(trace: TraceId) -> Arc<RequestTrace> {
        Arc::new(RequestTrace { trace, events: Mutex::new(Vec::new()), dropped: AtomicU64::new(0) })
    }

    fn record(&self, e: &Event) {
        let mut events = self.events.lock().expect("request trace poisoned");
        if events.len() >= MAX_TRACE_EVENTS {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        events.push(e.clone());
    }

    /// A copy of the captured events (emission order per thread).
    pub fn events(&self) -> Vec<Event> {
        self.events.lock().expect("request trace poisoned").clone()
    }

    /// Events dropped after the buffer filled.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// The captured events as ND-JSON lines (the `GET /v1/trace/{id}`
    /// body and the slow-capture dump format — same schema as a trace
    /// file, so `snetctl report` and the Chrome exporter read it
    /// directly).
    pub fn to_jsonl(&self) -> String {
        let events = self.events.lock().expect("request trace poisoned");
        let mut out = String::new();
        for e in events.iter() {
            out.push_str(&e.to_json_line());
            out.push('\n');
        }
        out
    }
}

/// Where an attached thread's events go: its request trace, its job,
/// or both.
#[derive(Clone, Default)]
struct Route {
    trace: Option<Arc<RequestTrace>>,
    job: Option<Arc<JobObs>>,
}

/// The capture sink: routes events to request traces by attached
/// thread or by span descent, and to jobs by attached thread (see
/// module docs).
#[derive(Default)]
pub struct TraceCapture {
    /// obs thread ordinal → the route attached for that thread.
    threads: Mutex<HashMap<u64, Route>>,
    /// span id → owning trace, for cross-thread descendants.
    spans: Mutex<HashMap<u64, Arc<RequestTrace>>>,
}

impl TraceCapture {
    /// Builds an empty capture table (install via
    /// [`snet_obs::install_sink`]).
    pub fn new() -> Arc<TraceCapture> {
        Arc::new(TraceCapture::default())
    }

    /// Routes the calling thread's events to `trace` and to `job` until
    /// the guard drops. The route replaces the thread's current one,
    /// and the guard puts that one back.
    pub fn attach(
        self: &Arc<TraceCapture>,
        trace: Option<&Arc<RequestTrace>>,
        job: Option<&Arc<JobObs>>,
    ) -> AttachGuard {
        let ordinal = snet_obs::thread_ordinal();
        let route = Route { trace: trace.cloned(), job: job.cloned() };
        let previous =
            self.threads.lock().expect("capture threads poisoned").insert(ordinal, route);
        AttachGuard { capture: self.clone(), ordinal, previous }
    }

    /// Drops every span-descent route pointing at `trace`. Called when
    /// a request finishes so a span whose end was never observed cannot
    /// leak its table entry.
    pub fn release(&self, trace: &Arc<RequestTrace>) {
        self.spans.lock().expect("capture spans poisoned").retain(|_, t| !Arc::ptr_eq(t, trace));
    }
}

/// RAII for [`TraceCapture::attach`].
pub struct AttachGuard {
    capture: Arc<TraceCapture>,
    ordinal: u64,
    previous: Option<Route>,
}

impl Drop for AttachGuard {
    fn drop(&mut self) {
        let mut threads = self.capture.threads.lock().expect("capture threads poisoned");
        match self.previous.take() {
            Some(route) => threads.insert(self.ordinal, route),
            None => threads.remove(&self.ordinal),
        };
    }
}

impl Sink for TraceCapture {
    fn event(&self, e: &Event) {
        if e.name == HEARTBEAT {
            return;
        }
        let route = self
            .threads
            .lock()
            .expect("capture threads poisoned")
            .get(&e.thread)
            .cloned()
            .unwrap_or_default();
        if let Some(job) = &route.job {
            job.record(e);
        }
        let target = route.trace.or_else(|| {
            // Span descent: starts join their parent's trace; later
            // events from that span resolve through its own id.
            let spans = self.spans.lock().expect("capture spans poisoned");
            spans
                .get(&e.parent)
                .or_else(|| if e.id != 0 { spans.get(&e.id) } else { None })
                .cloned()
        });
        let Some(trace) = target else { return };
        match e.kind {
            EventKind::SpanStart => {
                self.spans.lock().expect("capture spans poisoned").insert(e.id, trace.clone());
                trace.record(e);
            }
            EventKind::SpanEnd => {
                self.spans.lock().expect("capture spans poisoned").remove(&e.id);
                trace.record(e);
            }
            _ => trace.record(e),
        }
    }
}

// ---------------------------------------------------------------------------
// Debug request ring
// ---------------------------------------------------------------------------

/// One request: what was asked and, once it finished, how it was
/// answered. The exchange fills it in; the debug ring
/// (`GET /v1/debug/requests`), the access log and the RED histogram
/// labels all read it.
#[derive(Debug, Clone, Default)]
pub struct RequestEntry {
    /// Hex trace id.
    pub trace: String,
    /// HTTP method.
    pub method: String,
    /// Normalized endpoint label.
    pub endpoint: String,
    /// Start time, µs since the obs epoch.
    pub start_us: u64,
    /// Response status (0 while the request is active).
    pub status: u16,
    /// Cache disposition (`miss`/`hit`/`coalesced`), when the endpoint
    /// has one.
    pub cache: Option<String>,
    /// Canonical hash of the answered network, when there is one.
    pub hash: Option<String>,
    /// The job that computed the answer or was submitted, if any.
    pub job: Option<String>,
    /// Response body bytes.
    pub bytes: u64,
    /// Wall duration (0 while active).
    pub dur_us: u64,
    /// Linked (leader) trace id for coalesced riders.
    pub link: Option<String>,
}

impl RequestEntry {
    /// One ring row; the outcome fields appear once the request finished.
    fn to_value(&self, active: bool) -> Value {
        let mut fields = vec![
            ("trace", self.trace.serialize()),
            ("method", self.method.serialize()),
            ("endpoint", self.endpoint.serialize()),
            ("active", active.serialize()),
            ("start_us", self.start_us.serialize()),
        ];
        if !active {
            fields.push(("status", self.status.serialize()));
            fields.push(("bytes", self.bytes.serialize()));
            fields.push(("dur_us", self.dur_us.serialize()));
        }
        if let Some(c) = &self.cache {
            fields.push(("cache", c.serialize()));
        }
        if let Some(l) = &self.link {
            fields.push(("link", l.serialize()));
        }
        obj(fields)
    }
}

/// tracez-style ring: the currently-active requests plus the most
/// recently finished `RING_CAPACITY`.
#[derive(Default)]
pub struct RequestRing {
    next: AtomicU64,
    active: Mutex<HashMap<u64, RequestEntry>>,
    recent: Mutex<VecDeque<RequestEntry>>,
}

impl RequestRing {
    /// Registers an active request; the token keys [`finish`](Self::finish).
    pub fn begin(&self, entry: RequestEntry) -> u64 {
        let token = self.next.fetch_add(1, Ordering::Relaxed);
        self.active.lock().expect("request ring poisoned").insert(token, entry);
        token
    }

    /// Moves a request from active to recent, as its finished `entry`.
    pub fn finish(&self, token: u64, entry: RequestEntry) {
        if self.active.lock().expect("request ring poisoned").remove(&token).is_none() {
            return;
        }
        let mut recent = self.recent.lock().expect("request ring poisoned");
        if recent.len() >= RING_CAPACITY {
            recent.pop_front();
        }
        recent.push_back(entry);
    }

    /// The `GET /v1/debug/requests` document: active requests first
    /// (oldest first), then recent ones (newest first).
    pub fn to_json(&self) -> String {
        let mut active: Vec<RequestEntry> =
            self.active.lock().expect("request ring poisoned").values().cloned().collect();
        active.sort_by_key(|e| e.start_us);
        let recent = self.recent.lock().expect("request ring poisoned");
        let doc = obj(vec![
            ("schema", snet_core::api::API_SCHEMA.serialize()),
            ("active", Value::Array(active.iter().map(|e| e.to_value(true)).collect())),
            ("recent", Value::Array(recent.iter().rev().map(|e| e.to_value(false)).collect())),
        ]);
        serde_json::to_string(&doc).expect("a value tree always serializes")
    }
}

// ---------------------------------------------------------------------------
// Trace store
// ---------------------------------------------------------------------------

/// Insertion order and the id → trace map, behind one lock so eviction
/// and lookup agree.
type TraceStoreInner = (VecDeque<String>, HashMap<String, Arc<RequestTrace>>);

/// Bounded map of finished request traces, keyed by hex trace id;
/// insertion-order eviction.
#[derive(Default)]
pub struct TraceStore {
    inner: Mutex<TraceStoreInner>,
}

impl TraceStore {
    /// Stores a finished trace, evicting the oldest beyond capacity.
    /// One trace id can span several requests — a query's search stream
    /// and its follow-up status poll share a context — so inserting an
    /// id that is already stored appends the new request's events to
    /// the existing tree instead of clobbering it.
    pub fn insert(&self, trace: Arc<RequestTrace>) {
        let key = trace.trace.to_hex();
        let mut inner = self.inner.lock().expect("trace store poisoned");
        let (order, map) = &mut *inner;
        match map.get(&key) {
            Some(existing) if !Arc::ptr_eq(existing, &trace) => {
                for e in trace.events() {
                    existing.record(&e);
                }
                existing.dropped.fetch_add(trace.dropped(), Ordering::Relaxed);
            }
            Some(_) => {}
            None => {
                map.insert(key.clone(), trace);
                order.push_back(key);
                while order.len() > TRACE_STORE_CAPACITY {
                    if let Some(old) = order.pop_front() {
                        map.remove(&old);
                    }
                }
            }
        }
    }

    /// Looks up a trace by hex id.
    pub fn get(&self, hex: &str) -> Option<Arc<RequestTrace>> {
        self.inner.lock().expect("trace store poisoned").1.get(hex).cloned()
    }
}

// ---------------------------------------------------------------------------
// Access log
// ---------------------------------------------------------------------------

/// Schema tag stamped into every access-log line.
pub const ACCESS_SCHEMA: &str = "snet-access/1";

/// Append-only JSONL access log: one line per finished request.
pub struct AccessLog {
    file: Mutex<std::fs::File>,
}

impl AccessLog {
    /// Opens (appending) or creates the log file.
    pub fn open(path: &std::path::Path) -> std::io::Result<AccessLog> {
        let file = std::fs::OpenOptions::new().create(true).append(true).open(path)?;
        Ok(AccessLog { file: Mutex::new(file) })
    }

    /// Appends one finished request, stamped with its start time.
    /// Best-effort: a full disk must not fail the request that was
    /// already answered.
    pub fn log(&self, r: &RequestEntry) {
        let mut fields = vec![
            ("schema", ACCESS_SCHEMA.serialize()),
            ("t_us", r.start_us.serialize()),
            ("trace", r.trace.serialize()),
            ("method", r.method.serialize()),
            ("endpoint", r.endpoint.serialize()),
            ("status", r.status.serialize()),
        ];
        let optional = [("cache", &r.cache), ("hash", &r.hash), ("job", &r.job)];
        fields.extend(optional.into_iter().filter_map(|(k, v)| Some((k, v.as_ref()?.serialize()))));
        fields.push(("bytes", r.bytes.serialize()));
        fields.push(("dur_us", r.dur_us.serialize()));
        if let Some(l) = &r.link {
            fields.push(("link", l.serialize()));
        }
        let mut line = serde_json::to_string(&obj(fields)).expect("a value tree always serializes");
        line.push('\n');
        let mut f = self.file.lock().expect("access log poisoned");
        let _ = f.write_all(line.as_bytes());
        let _ = f.flush();
    }
}

// ---------------------------------------------------------------------------
// Slow-request capture
// ---------------------------------------------------------------------------

/// Dumps a slow request's captured span tree to
/// `slow-<trace>.jsonl` next to the flight dumps (current directory),
/// same JSONL schema as a trace file. Returns the path on success.
pub fn dump_slow(trace: &Arc<RequestTrace>) -> Option<PathBuf> {
    let text = trace.to_jsonl();
    if text.is_empty() {
        return None;
    }
    let path = PathBuf::from(format!("slow-{}.jsonl", trace.trace.to_hex()));
    std::fs::write(&path, text).ok()?;
    Some(path)
}

// ---------------------------------------------------------------------------
// Request context threaded into the job manager
// ---------------------------------------------------------------------------

/// What a request hands the job manager so job work lands in the right
/// trace: the hex trace id (stamped into frames, manifests, and result
/// documents) and the trace buffer the manager's capture routes job
/// threads into. `Default` (all `None`) means "untraced" — in-process
/// library callers and tests that talk to the manager directly still
/// get their search jobs' progress frames, just no trace.
#[derive(Clone, Default)]
pub struct RequestCtx {
    /// Hex trace id of the owning request.
    pub trace_hex: Option<String>,
    /// The owning request's trace buffer.
    pub trace: Option<Arc<RequestTrace>>,
    /// The request span's id, so job threads can nest their spans
    /// under it (`0` = untraced, spans stay roots).
    pub span: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jobs::FramePoll;
    use snet_core::api::FrameKind;
    use std::time::Duration;

    #[test]
    fn endpoint_labels_bound_cardinality() {
        assert_eq!(endpoint_label("/v1/jobs/job-123"), "/v1/jobs/{id}");
        assert_eq!(endpoint_label("/v1/trace/deadbeef"), "/v1/trace/{id}");
        assert_eq!(endpoint_label("/v1/check"), "/v1/check");
        assert_eq!(endpoint_label("/favicon.ico"), "other");
    }

    /// A route replaces the thread's current one until its guard drops;
    /// a job sees only its own thread's events, a trace also those of
    /// its spans' descendants on other threads.
    #[test]
    fn capture_routes_threads_to_traces_and_jobs_and_descendants_to_traces() {
        use EventKind::{Counter, SpanEnd, SpanStart};
        let capture = TraceCapture::new();
        let trace = RequestTrace::new(TraceId(9));
        let job = JobObs::new("job-0", None);
        let (me, worker) = (snet_obs::thread_ordinal(), u64::MAX);
        let emit = |kind, name: &str, id, parent, thread| {
            let attrs = Vec::new();
            let (t_us, dur_us, value) = (0, 0, 1.0);
            capture.event(&Event {
                kind,
                name: name.into(),
                id,
                parent,
                thread,
                t_us,
                dur_us,
                value,
                attrs,
            });
        };
        let exchange = capture.attach(Some(&trace), None);
        emit(SpanStart, "http.request", 1, 0, me);
        let job_thread = capture.attach(Some(&trace), Some(&job));
        emit(SpanStart, "search.round", 2, 1, me);
        emit(Counter, "search.rounds", 0, 2, me);
        emit(SpanStart, "search.worker", 3, 2, worker);
        emit(Counter, "search.rounds", 0, 3, worker);
        emit(Counter, HEARTBEAT, 0, 3, worker);
        emit(SpanEnd, "search.worker", 3, 2, worker);
        emit(SpanEnd, "search.round", 2, 1, me);
        drop(job_thread);
        emit(Counter, "httpd.responses", 0, 0, me);
        emit(Counter, "search.rounds", 0, 1, me);
        emit(SpanEnd, "http.request", 1, 0, me);
        drop(exchange);
        emit(Counter, "search.rounds", 0, 0, me);

        let traced: Vec<(String, u64)> =
            trace.events().into_iter().map(|e| (e.name, e.thread)).collect();
        let expected = [
            ("http.request", me),
            ("search.round", me),
            ("search.rounds", me),
            ("search.worker", worker),
            ("search.rounds", worker),
            ("search.worker", worker),
            ("search.round", me),
            ("httpd.responses", me),
            ("search.rounds", me),
            ("http.request", me),
        ];
        let expected: Vec<(String, u64)> = expected.iter().map(|&(n, t)| (n.into(), t)).collect();
        assert_eq!(
            traced, expected,
            "the trace keeps its route under the job and gets descendants"
        );
        let FramePoll::Frame(frame) = job.poll(Duration::ZERO) else {
            panic!("the job thread's counter became a frame");
        };
        assert_eq!(frame.kind, FrameKind::Event { name: "search.rounds".into(), value: 1 });
        assert!(matches!(job.poll(Duration::ZERO), FramePoll::Idle), "one frame, none by descent");
    }

    #[test]
    fn request_ring_moves_finished_entries_to_recent() {
        let ring = RequestRing::default();
        let entry = RequestEntry {
            trace: "aa".into(),
            method: "POST".into(),
            endpoint: "/v1/check".into(),
            start_us: 10,
            ..RequestEntry::default()
        };
        let token = ring.begin(entry.clone());
        let doc = ring.to_json();
        assert!(doc.contains("\"active\":[{"), "active entry listed: {doc}");
        let cache = Some("miss".into());
        ring.finish(token, RequestEntry { status: 200, cache, bytes: 42, dur_us: 1234, ..entry });
        let doc = ring.to_json();
        assert!(doc.contains("\"active\":[]"), "no active entries: {doc}");
        assert!(doc.contains("\"status\":200") && doc.contains("\"cache\":\"miss\""), "{doc}");
        assert!(doc.contains("\"dur_us\":1234"), "{doc}");
    }

    #[test]
    fn trace_store_evicts_oldest() {
        let store = TraceStore::default();
        let mut first_hex = String::new();
        for i in 0..(TRACE_STORE_CAPACITY + 5) {
            let rt = RequestTrace::new(TraceId((i + 1) as u128));
            if i == 0 {
                first_hex = rt.trace.to_hex();
            }
            store.insert(rt);
        }
        assert!(store.get(&first_hex).is_none(), "oldest evicted");
        assert!(store.get(&TraceId((TRACE_STORE_CAPACITY + 5) as u128).to_hex()).is_some());
    }

    #[test]
    fn trace_store_appends_a_second_request_under_the_same_id() {
        let store = TraceStore::default();
        let id = TraceId(7);
        let probe = |span: u64| Event {
            kind: snet_obs::EventKind::SpanStart,
            name: "http.request".into(),
            id: span,
            parent: 0,
            thread: 0,
            t_us: 0,
            dur_us: 0,
            value: 0.0,
            attrs: Vec::new(),
        };
        let first = RequestTrace::new(id);
        first.record(&probe(1));
        store.insert(first);
        let second = RequestTrace::new(id);
        second.record(&probe(2));
        store.insert(second);
        let stored = store.get(&id.to_hex()).expect("id stays stored");
        assert_eq!(stored.events().len(), 2, "second request's events appended, not clobbered");
    }

    /// Bytes captured before the ring and the access log moved onto
    /// `serde_json`.
    #[test]
    fn debug_ring_document_keeps_its_bytes() {
        let ring = RequestRing::default();
        let entry = |trace: &str, start_us: u64| RequestEntry {
            trace: trace.into(),
            method: "POST".into(),
            endpoint: "/v1/check".into(),
            start_us,
            ..RequestEntry::default()
        };
        let finished = |trace: &str, start_us: u64, cache: &str, dur_us: u64| RequestEntry {
            status: 200,
            cache: Some(cache.into()),
            bytes: 42,
            dur_us,
            ..entry(trace, start_us)
        };
        let a = ring.begin(entry("aa", 10));
        ring.begin(entry("b\"b", 5));
        let c = ring.begin(entry("cc", 20));
        ring.finish(a, finished("aa", 10, "miss", 1234));
        let link = Some("aa".into());
        ring.finish(c, RequestEntry { link, ..finished("cc", 20, "coalesced", 99) });
        let expected = r#"{"schema":"snet-api/1","active":[{"trace":"b\"b","method":"POST","endpoint":"/v1/check","active":true,"start_us":5}],"recent":[{"trace":"cc","method":"POST","endpoint":"/v1/check","active":false,"start_us":20,"status":200,"bytes":42,"dur_us":99,"cache":"coalesced","link":"aa"},{"trace":"aa","method":"POST","endpoint":"/v1/check","active":false,"start_us":10,"status":200,"bytes":42,"dur_us":1234,"cache":"miss"}]}"#;
        assert_eq!(ring.to_json(), expected);
    }

    #[test]
    fn access_log_lines_keep_their_bytes() {
        let dir = std::env::temp_dir().join("snetd-telemetry-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("access-golden-{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let log = AccessLog::open(&path).unwrap();
        log.log(&RequestEntry {
            trace: "0123456789abcdef0123456789abcdef".into(),
            method: "POST".into(),
            endpoint: "/v1/check".into(),
            start_us: 5,
            status: 200,
            cache: Some("miss".into()),
            hash: Some("ff00".into()),
            job: Some("job-0".into()),
            bytes: 10,
            dur_us: 20,
            link: Some("fedcba9876543210fedcba9876543210".into()),
        });
        log.log(&RequestEntry {
            trace: "tr\"ace".into(),
            method: "GET".into(),
            endpoint: "/healthz".into(),
            start_us: 9,
            status: 404,
            bytes: 2,
            dur_us: 1,
            ..RequestEntry::default()
        });
        let expected = concat!(
            r#"{"schema":"snet-access/1","t_us":5,"trace":"0123456789abcdef0123456789abcdef","method":"POST","endpoint":"/v1/check","status":200,"cache":"miss","hash":"ff00","job":"job-0","bytes":10,"dur_us":20,"link":"fedcba9876543210fedcba9876543210"}"#,
            "\n",
            r#"{"schema":"snet-access/1","t_us":9,"trace":"tr\"ace","method":"GET","endpoint":"/healthz","status":404,"bytes":2,"dur_us":1}"#,
            "\n",
        );
        assert_eq!(std::fs::read_to_string(&path).unwrap(), expected);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn access_log_lines_are_one_json_object_each() {
        let dir = std::env::temp_dir().join("snetd-telemetry-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("access-{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let log = AccessLog::open(&path).unwrap();
        log.log(&RequestEntry {
            trace: "abc".into(),
            method: "POST".into(),
            endpoint: "/v1/check".into(),
            start_us: 5,
            status: 200,
            cache: Some("miss".into()),
            hash: Some("ff".into()),
            job: Some("job-0".into()),
            bytes: 10,
            dur_us: 20,
            link: None,
        });
        log.log(&RequestEntry {
            trace: "def".into(),
            method: "GET".into(),
            endpoint: "/healthz".into(),
            start_us: 9,
            status: 200,
            bytes: 2,
            dur_us: 1,
            link: Some("abc".into()),
            ..RequestEntry::default()
        });
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with(&format!("{{\"schema\":\"{ACCESS_SCHEMA}\"")));
        assert!(lines[0].contains("\"cache\":\"miss\"") && lines[0].contains("\"job\":\"job-0\""));
        assert!(lines[1].contains("\"link\":\"abc\""));
    }
}
