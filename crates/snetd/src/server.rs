//! The TCP front end: an accept loop feeding a bounded pool of
//! connection workers, request routing, streaming search responses, and
//! a SIGTERM-driven graceful drain.
//!
//! ## Request telemetry
//!
//! Every non-probe exchange runs under `handle_exchange`: the
//! `x-snet-trace` context is extracted (or a fresh one generated — a
//! malformed header degrades, never rejects), an `http.request` span is
//! opened with the trace id attached, the connection thread is routed
//! into a per-request [`RequestTrace`] capture, and on completion the
//! request lands in the RED histograms (`http.request.duration` by
//! endpoint/status/cache), the debug ring (`GET /v1/debug/requests`),
//! the trace store (`GET /v1/trace/{id}`), the JSONL access log, and —
//! past the slow threshold — a `slow-<trace>.jsonl` auto-capture.
//! `/healthz` and `/metrics` probes bypass all of that and tick only
//! their own labeled `http.probe.requests` counter, so scrape traffic
//! never skews the job-path numbers.
//!
//! ## Shutdown
//!
//! The accept loop blocks in `accept`. A drain sets the server's stop
//! flag, then wakes the loop by connecting to the listener's own
//! address; the loop drops that connection uncounted and stops
//! accepting. `SIGTERM`/`SIGINT` set a process-global flag (the handler
//! does nothing else — it is async-signal-safe): [`serve`] runs the loop
//! on a thread of its own and drains through the same handle once the
//! flag is up. The job manager then drains (cancelling live jobs, which
//! still spill their search frontiers to the store); connection workers
//! finish their current exchange and exit; buffered observations flush.
//! A drained exit is *clean*: the flight recorder writes nothing.

use crate::http::{
    read_request, write_response, ChunkedWriter, HttpError, Limits, ReadOutcome, Request,
};
use crate::jobs::{ApiError, CheckAnswer, FramePoll, Job, JobManager, JobsConfig};
use crate::telemetry::{
    self, AccessLog, RequestCtx, RequestEntry, RequestRing, RequestTrace, TraceCapture, TraceStore,
    LINK_HEADER,
};
use serde::Serialize;
use snet_core::api::{CheckRequest, ErrorBody, SearchRequest, API_SCHEMA};
use snet_obs::json::obj;
use snet_obs::tracectx::TraceContext;
use snet_store::ArtifactStore;
use std::io::{BufReader, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const JSON: &str = "application/json";
const NDJSON: &str = "application/x-ndjson";

/// How long a blocked socket read waits before the worker re-checks the
/// stop flag. Only a worker holding an idle keep-alive connection waits
/// it out, so it bounds how long a drain waits for idle peers.
const READ_TIMEOUT: Duration = Duration::from_millis(500);

/// How often [`serve`]'s calling thread looks for a signal. That thread
/// only waits to drain, so this wait is on no request's path.
const SIGNAL_POLL: Duration = Duration::from_millis(50);

/// The pause after `accept` fails for want of file descriptors: the
/// pending connection stays queued, so retrying at once fails again.
const FD_EXHAUSTED_BACKOFF: Duration = Duration::from_millis(10);

/// `ENFILE` and `EMFILE` (the same on every Unix); `std` gives both an
/// uncategorized error kind.
const ENFILE: i32 = 23;
const EMFILE: i32 = 24;

// ---------------------------------------------------------------------------
// Signals, without libc: the two handlers the daemon needs, installed
// through the raw C `signal` entry point.
// ---------------------------------------------------------------------------

static SHUTDOWN: AtomicBool = AtomicBool::new(false);

const SIGINT: i32 = 2;
const SIGTERM: i32 = 15;

extern "C" {
    fn signal(signum: i32, handler: usize) -> usize;
}

extern "C" fn on_signal(_signum: i32) {
    // Async-signal-safe: one relaxed store, nothing else.
    SHUTDOWN.store(true, Ordering::Relaxed);
}

/// Installs the SIGTERM/SIGINT handlers that make [`serve`] drain and
/// return. Servers started with [`spawn`] drain only through their
/// [`ServerHandle`], so parallel test harnesses don't tear each other
/// down.
pub fn install_signal_handlers() {
    unsafe {
        signal(SIGTERM, on_signal as *const () as usize);
        signal(SIGINT, on_signal as *const () as usize);
    }
}

// ---------------------------------------------------------------------------
// Configuration
// ---------------------------------------------------------------------------

/// Everything `serve` needs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address (`127.0.0.1:0` picks a free port).
    pub addr: String,
    /// Connection worker threads (concurrent HTTP exchanges).
    pub conn_threads: usize,
    /// Concurrent search jobs.
    pub max_jobs: usize,
    /// Worker threads per search job.
    pub search_threads: usize,
    /// Worker threads per exhaustive check.
    pub check_threads: usize,
    /// Artifact store root (`None` disables caching).
    pub store: Option<std::path::PathBuf>,
    /// Request size limits.
    pub limits: Limits,
    /// JSONL access-log path (`None` disables the log).
    pub access_log: Option<std::path::PathBuf>,
    /// Requests at least this slow auto-dump their captured trace to
    /// `slow-<trace>.jsonl` (`None` disables slow capture).
    pub slow_ms: Option<u64>,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            conn_threads: 4,
            max_jobs: 2,
            search_threads: 1,
            check_threads: 1,
            store: None,
            limits: Limits::default(),
            access_log: None,
            slow_ms: None,
        }
    }
}

/// The daemon's flags, as `snet-snetd --help` and `snetctl serve` list
/// them; [`ServeConfig::from_args`] parses exactly these.
pub const SERVE_FLAGS: &str = "\
[--addr HOST:PORT] [--store DIR] [--conn-threads N] [--max-jobs N]
[--search-threads N] [--check-threads N] [--max-body-bytes N]
[--access-log FILE.jsonl] [--slow-ms MS]";

impl ServeConfig {
    /// Parses the daemon flags ([`SERVE_FLAGS`]): the one parser behind
    /// both `snet-snetd` and `snetctl serve`. `--addr` defaults to
    /// `127.0.0.1:7421`; without `--store`, a non-empty `$SNET_STORE`
    /// names the store. An unknown flag, or a missing or unparsable
    /// value, is an error; both entry points exit 11 on it.
    pub fn from_args(args: &[String]) -> Result<ServeConfig, String> {
        fn parse<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String> {
            value.parse().map_err(|_| format!("invalid {flag} value '{value}'"))
        }
        let mut cfg = ServeConfig { addr: "127.0.0.1:7421".into(), ..ServeConfig::default() };
        let mut store = std::env::var("SNET_STORE").ok().filter(|v| !v.is_empty());
        let mut args = args.iter();
        while let Some(flag) = args.next() {
            let mut value = || {
                args.next().map(String::as_str).ok_or_else(|| format!("{flag} requires a value"))
            };
            match flag.as_str() {
                "--addr" => cfg.addr = value()?.to_string(),
                "--store" => store = Some(value()?.to_string()),
                "--conn-threads" => cfg.conn_threads = parse(flag, value()?)?,
                "--max-jobs" => cfg.max_jobs = parse(flag, value()?)?,
                "--search-threads" => cfg.search_threads = parse(flag, value()?)?,
                "--check-threads" => cfg.check_threads = parse(flag, value()?)?,
                "--max-body-bytes" => cfg.limits.max_body_bytes = parse(flag, value()?)?,
                "--access-log" => cfg.access_log = Some(value()?.into()),
                "--slow-ms" => cfg.slow_ms = Some(parse(flag, value()?)?),
                other => return Err(format!("unknown flag '{other}'")),
            }
        }
        cfg.store = store.map(std::path::PathBuf::from);
        Ok(cfg)
    }
}

/// A running daemon, for in-process harnesses: the bound address, the
/// server's own stop flag, and the join handle of the serve loop.
pub struct ServerHandle {
    /// The actual bound address (resolves `:0`).
    pub addr: SocketAddr,
    /// Stored with `Release` before the wake connection is made; the
    /// accept loop loads it with `Acquire` once `accept` returns.
    stop: Arc<AtomicBool>,
    thread: std::thread::JoinHandle<std::io::Result<()>>,
}

impl ServerHandle {
    /// Drains this server only and waits for it: sets the stop flag,
    /// then connects to the listener so the loop blocked in `accept`
    /// wakes up and sees it. Returns the loop's error if its listener
    /// failed.
    pub fn shutdown(self) -> std::io::Result<()> {
        self.stop.store(true, Ordering::Release);
        // A refused connect means the loop has already exited; a loop
        // backing off after an accept error checks the flag itself.
        let _ = TcpStream::connect(wake_addr(self.addr));
        self.thread.join().unwrap_or_else(|_| Err(std::io::Error::other("serve loop panicked")))
    }
}

/// Where a drain connects to wake the accept loop: the bound address,
/// with loopback in place of an unspecified IP (`0.0.0.0`, `::`).
fn wake_addr(mut addr: SocketAddr) -> SocketAddr {
    if addr.ip().is_unspecified() {
        let loopback: IpAddr =
            if addr.is_ipv4() { Ipv4Addr::LOCALHOST.into() } else { Ipv6Addr::LOCALHOST.into() };
        addr.set_ip(loopback);
    }
    addr
}

/// Binds and spawns the serve loop on a background thread, returning
/// once the listener is live. The loop runs until
/// [`ServerHandle::shutdown`], or until its listener fails.
pub fn spawn(cfg: ServeConfig) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(&cfg.addr)?;
    let addr = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let loop_stop = stop.clone();
    let thread = std::thread::Builder::new()
        .name("snetd-accept".into())
        .spawn(move || serve_on(listener, cfg, loop_stop))?;
    Ok(ServerHandle { addr, stop, thread })
}

/// Binds and serves until SIGTERM or SIGINT (see
/// [`install_signal_handlers`]), then drains: the binaries' entry point.
/// The loop runs as under [`spawn`]; the calling thread waits for the
/// signal and drains through the same handle. A listener failure ends
/// the wait early and is returned.
pub fn serve(cfg: ServeConfig) -> std::io::Result<()> {
    let handle = spawn(cfg)?;
    eprintln!("snetd: listening on {}", handle.addr);
    while !SHUTDOWN.load(Ordering::Relaxed) && !handle.thread.is_finished() {
        std::thread::sleep(SIGNAL_POLL);
    }
    handle.shutdown()
}

/// Service-wide telemetry shared by every connection worker.
struct Telemetry {
    capture: Arc<TraceCapture>,
    ring: RequestRing,
    traces: TraceStore,
    access: Option<AccessLog>,
    slow_us: Option<u64>,
    in_flight: AtomicI64,
}

fn serve_on(listener: TcpListener, cfg: ServeConfig, stop: Arc<AtomicBool>) -> std::io::Result<()> {
    let store = match &cfg.store {
        // One long-lived shared handle: every worker sees the same
        // generation, and a second daemon on the same root coordinates
        // through the store's own meta lock.
        Some(root) => Some(ArtifactStore::open_shared(root)?),
        None => None,
    };
    let manager = JobManager::new(JobsConfig {
        store,
        max_jobs: cfg.max_jobs,
        search_threads: cfg.search_threads,
        check_threads: cfg.check_threads,
    });
    let capture = TraceCapture::new();
    let capture_sink = snet_obs::install_sink(capture.clone());
    let telemetry = Arc::new(Telemetry {
        capture,
        ring: RequestRing::default(),
        traces: TraceStore::default(),
        access: match &cfg.access_log {
            Some(path) => Some(AccessLog::open(path)?),
            None => None,
        },
        slow_us: cfg.slow_ms.map(|ms| ms.saturating_mul(1000)),
        in_flight: AtomicI64::new(0),
    });

    // Pre-spawned connection workers drain one shared queue. The
    // receiver is behind a mutex (std mpsc has no multi-consumer
    // receiver); hand-off cost is irrelevant next to a check.
    let (tx, rx) = mpsc::channel::<TcpStream>();
    let rx = Arc::new(Mutex::new(rx));
    let mut workers = Vec::new();
    for i in 0..cfg.conn_threads.max(1) {
        let rx = rx.clone();
        let manager = manager.clone();
        let limits = cfg.limits;
        let stop = stop.clone();
        let telemetry = telemetry.clone();
        workers.push(
            std::thread::Builder::new()
                .name(format!("snetd-conn-{i}"))
                .spawn(move || connection_worker(i, rx, manager, limits, stop, telemetry))?,
        );
    }

    let fatal = loop {
        match listener.accept() {
            Ok((stream, _peer)) => {
                if stop.load(Ordering::Acquire) {
                    break None; // the drain's wake connection, or a peer racing it
                }
                snet_obs::counter("httpd.connections", 1);
                let _ = stream.set_read_timeout(Some(READ_TIMEOUT));
                let _ = stream.set_nodelay(true);
                if tx.send(stream).is_err() {
                    break None;
                }
            }
            // One peer's failure, or descriptors that open connections
            // give back as they close: keep serving.
            Err(e) if transient_accept_error(&e) => {
                snet_obs::counter("httpd.accept_errors", 1);
                if matches!(e.raw_os_error(), Some(EMFILE | ENFILE)) {
                    std::thread::sleep(FD_EXHAUSTED_BACKOFF);
                }
                // The wake connection may be what could not be accepted.
                if stop.load(Ordering::Acquire) {
                    break None;
                }
            }
            Err(e) => break Some(e),
        }
    };
    drop(listener); // refuse new connections while draining

    // Drain: reject new work and finish what is running (search jobs
    // observe their cancel tokens and spill their TT frontiers), then
    // release the workers and flush observations. Clean exit — the
    // flight recorder writes nothing.
    manager.shutdown();
    drop(tx);
    for w in workers {
        let _ = w.join();
    }
    snet_obs::remove_sink(capture_sink);
    snet_obs::flush();
    fatal.map_or(Ok(()), Err)
}

/// Whether `accept` failed for one peer, or for want of descriptors,
/// rather than because the listener itself is broken.
fn transient_accept_error(e: &std::io::Error) -> bool {
    use std::io::ErrorKind::{ConnectionAborted, ConnectionReset};
    matches!(e.kind(), ConnectionAborted | ConnectionReset)
        || matches!(e.raw_os_error(), Some(EMFILE | ENFILE))
}

fn connection_worker(
    index: usize,
    rx: Arc<Mutex<mpsc::Receiver<TcpStream>>>,
    manager: JobManager,
    limits: Limits,
    stop: Arc<AtomicBool>,
    telemetry: Arc<Telemetry>,
) {
    // Stable lane name in every exported trace, regardless of spawn
    // order (thread ordinals are first-emission order, not pool order).
    snet_obs::thread_lane(format!("http-worker-{index}"));
    loop {
        // The guard drops at the end of this statement, so the queue is
        // locked only while waiting. The drain drops the sender, which
        // ends the wait.
        let next = rx.lock().expect("conn queue poisoned").recv();
        let Ok(stream) = next else { return };
        serve_connection(stream, &manager, &limits, &stop, &telemetry);
    }
}

/// Runs one connection to completion: requests are answered in arrival
/// order (pipelining falls out of the per-connection read loop), and an
/// idle keep-alive socket is polled until the peer leaves or the daemon
/// drains.
fn serve_connection(
    stream: TcpStream,
    manager: &JobManager,
    limits: &Limits,
    stop: &AtomicBool,
    telemetry: &Telemetry,
) {
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    loop {
        match read_request(&mut reader, limits) {
            Ok(ReadOutcome::Request(req)) => {
                let close = req.wants_close();
                handle_exchange(&mut writer, &req, manager, telemetry);
                if close {
                    return;
                }
            }
            Ok(ReadOutcome::Eof) => return,
            Ok(ReadOutcome::Idle) => {
                if stop.load(Ordering::Acquire) {
                    return;
                }
            }
            Err(e) => {
                snet_obs::counter("httpd.rejected", 1);
                respond_error(&mut writer, &mut ReqMeta::default(), &e);
                return; // framing is unreliable after a parse error
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The traced exchange
// ---------------------------------------------------------------------------

/// What the routing layer learns about a request while answering it;
/// consumed by the RED histograms, the debug ring, and the access log.
#[derive(Default)]
struct ReqMeta {
    /// `x-snet-trace` echo value (absent on untraced probe paths).
    trace_header: Option<String>,
    status: u16,
    cache: Option<String>,
    hash: Option<String>,
    job: Option<String>,
    /// Linked trace (a coalesced follower's leader), echoed as
    /// `x-snet-link`.
    link: Option<String>,
}

/// Counts response bytes on their way to the socket.
struct CountingWriter<'a, W: Write> {
    inner: &'a mut W,
    bytes: u64,
}

impl<W: Write> Write for CountingWriter<'_, W> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.bytes += n as u64;
        Ok(n)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}

/// Answers one request under full telemetry (see the module docs).
/// Probe endpoints short-circuit: their own labeled counter, nothing
/// else — a 5-second scrape loop must not drown the request telemetry.
fn handle_exchange(w: &mut impl Write, req: &Request, manager: &JobManager, tel: &Telemetry) {
    let path = req.path.split('?').next().unwrap_or("").to_string();
    let endpoint = telemetry::endpoint_label(&path);
    if path == "/healthz" || path == "/metrics" {
        snet_obs::counter_labeled("http.probe.requests", &[("endpoint", endpoint)], 1);
        let mut meta = ReqMeta::default();
        handle_request(w, req, manager, tel, &RequestCtx::default(), &mut meta);
        return;
    }

    snet_obs::counter("httpd.requests", 1);
    let (tctx, forwarded) = telemetry::extract_trace(req);
    if forwarded {
        snet_obs::counter("http.traced", 1);
    }
    let trace_hex = tctx.trace.to_hex();
    let trace = RequestTrace::new(tctx.trace);
    let attach = tel.capture.attach(&trace);
    let active = tel.in_flight.fetch_add(1, Ordering::Relaxed) + 1;
    snet_obs::gauge("http.in_flight", active as f64);

    let start = Instant::now();
    let start_us = snet_obs::now_us();
    let token = tel.ring.begin(RequestEntry {
        trace: trace_hex.clone(),
        method: req.method.clone(),
        endpoint: endpoint.to_string(),
        start_us,
        status: 0,
        cache: None,
        bytes: 0,
        dur_us: 0,
        link: None,
    });

    let mut span = snet_obs::span("http.request")
        .attr("method", &req.method)
        .attr("endpoint", endpoint)
        .attr(snet_obs::TRACE_ATTR, &trace_hex);
    if forwarded {
        // The client's span id, so a cross-process merge can nest this
        // request under the span that issued it.
        span.add_attr("parent_span", format!("{:016x}", tctx.parent_span));
    }
    let ctx = RequestCtx {
        trace_hex: Some(trace_hex.clone()),
        capture: Some(tel.capture.clone()),
        trace: Some(trace.clone()),
        span: span.id(),
    };
    let mut meta = ReqMeta {
        trace_header: Some(TraceContext { trace: trace.trace, parent_span: span.id() }.to_header()),
        ..ReqMeta::default()
    };
    let mut counting = CountingWriter { inner: w, bytes: 0 };
    handle_request(&mut counting, req, manager, tel, &ctx, &mut meta);
    let bytes = counting.bytes;
    span.add_attr("status", meta.status);
    if let Some(link) = &meta.link {
        span.add_attr(snet_obs::LINK_ATTR, link.clone());
    }
    // Ending the request span urgent-drains this thread's event buffer,
    // so the capture holds everything the exchange emitted before the
    // trace is stored below.
    drop(span);
    drop(attach);

    snet_obs::counter("httpd.responses", 1);
    let active = tel.in_flight.fetch_sub(1, Ordering::Relaxed) - 1;
    snet_obs::gauge("http.in_flight", active as f64);
    let dur_us = start.elapsed().as_micros() as u64;
    let status = meta.status.to_string();
    let cache = meta.cache.as_deref().unwrap_or("none");
    snet_obs::observe(
        "http.request.duration",
        &[("endpoint", endpoint), ("status", &status), ("cache", cache)],
        dur_us,
    );
    tel.ring.finish(token, meta.status, meta.cache.clone(), bytes, dur_us, meta.link.clone());
    if let Some(log) = &tel.access {
        log.log(
            start_us,
            &trace_hex,
            &req.method,
            endpoint,
            meta.status,
            meta.cache.as_deref(),
            meta.hash.as_deref(),
            meta.job.as_deref(),
            bytes,
            dur_us,
            meta.link.as_deref(),
        );
    }
    if tel.slow_us.is_some_and(|slow| dur_us >= slow) && telemetry::dump_slow(&trace).is_some() {
        snet_obs::counter("http.slow.captured", 1);
    }
    // Introspection endpoints stay out of the bounded trace store:
    // polling /v1/debug/requests or /v1/trace/{id} while inspecting a
    // job must not evict the very traces being inspected.
    if endpoint != "/v1/debug/requests" && endpoint != "/v1/trace/{id}" {
        tel.traces.insert(trace.clone());
    }
    tel.capture.release(&trace);
}

/// Writes a response, echoing the request's trace id and recording the
/// status for the exchange telemetry. Every body-producing route funnels
/// through here (the chunked search stream sets its headers itself).
fn respond(
    w: &mut impl Write,
    meta: &mut ReqMeta,
    status: u16,
    ctype: &str,
    body: &[u8],
    extra: &[(&str, &str)],
) {
    meta.status = status;
    let mut headers: Vec<(&str, &str)> = extra.to_vec();
    if let Some(t) = &meta.trace_header {
        headers.push((snet_obs::TRACE_HEADER, t.as_str()));
    }
    let _ = write_response(w, status, ctype, body, &headers);
}

fn respond_error(w: &mut impl Write, meta: &mut ReqMeta, e: &HttpError) {
    let body = ErrorBody::new(&e.message).to_json();
    respond(w, meta, e.status, JSON, body.as_bytes(), &[]);
}

fn respond_api_error(w: &mut impl Write, meta: &mut ReqMeta, e: &ApiError) {
    let body = ErrorBody::new(&e.message).to_json();
    respond(w, meta, e.status, JSON, body.as_bytes(), &[]);
}

// ---------------------------------------------------------------------------
// Routing
// ---------------------------------------------------------------------------

fn handle_request(
    w: &mut impl Write,
    req: &Request,
    manager: &JobManager,
    tel: &Telemetry,
    ctx: &RequestCtx,
    meta: &mut ReqMeta,
) {
    let path = req.path.split('?').next().unwrap_or("");
    match (req.method.as_str(), path) {
        ("GET", "/healthz") => {
            let body = format!(
                "{{\"schema\":\"{API_SCHEMA}\",\"status\":\"{}\"}}",
                if manager.draining() { "draining" } else { "ok" }
            );
            respond(w, meta, 200, JSON, body.as_bytes(), &[]);
        }
        ("GET", "/metrics") => {
            let text = snet_obs::registry::render_prometheus();
            respond(w, meta, 200, snet_obs::promtext::CONTENT_TYPE, text.as_bytes(), &[]);
        }
        ("GET", "/v1/debug/requests") => {
            let body = tel.ring.to_json();
            respond(w, meta, 200, JSON, body.as_bytes(), &[]);
        }
        ("GET", p) if p.starts_with("/v1/trace/") => {
            let id = &p["/v1/trace/".len()..];
            match tel.traces.get(id) {
                Some(trace) => {
                    let body = trace.to_jsonl();
                    respond(w, meta, 200, NDJSON, body.as_bytes(), &[]);
                }
                None => {
                    let body = ErrorBody::new(format!("no stored trace {id:?}")).to_json();
                    respond(w, meta, 404, JSON, body.as_bytes(), &[]);
                }
            }
        }
        ("POST", "/v1/check") => {
            handle_verdict(w, req, ctx, meta, |r: &CheckRequest| manager.check(&r.network, ctx))
        }
        ("POST", "/v1/adversary") => {
            handle_verdict(w, req, ctx, meta, |r| manager.adversary(r, ctx))
        }
        ("POST", "/v1/search") => handle_search(w, req, manager, ctx, meta),
        (method, p) if p.starts_with("/v1/jobs/") => {
            let id = &p["/v1/jobs/".len()..];
            match method {
                "GET" => handle_job_get(w, id, manager, meta),
                "DELETE" => handle_job_delete(w, id, manager, meta),
                _ => method_not_allowed(w, meta),
            }
        }
        ("GET" | "POST" | "DELETE", _) => {
            let body = ErrorBody::new(format!("no route for {path}")).to_json();
            respond(w, meta, 404, JSON, body.as_bytes(), &[]);
        }
        _ => method_not_allowed(w, meta),
    }
}

fn method_not_allowed(w: &mut impl Write, meta: &mut ReqMeta) {
    let body = ErrorBody::new("method not allowed").to_json();
    respond(w, meta, 405, JSON, body.as_bytes(), &[]);
}

fn parse_body<T: serde::Deserialize>(req: &Request) -> Result<T, HttpError> {
    let text = std::str::from_utf8(&req.body)
        .map_err(|_| HttpError { status: 400, message: "body is not UTF-8".into() })?;
    serde_json::from_str(text)
        .map_err(|e| HttpError { status: 422, message: format!("cannot parse body: {e}") })
}

/// Answers a check with the verdict bytes **verbatim** — a warm hit
/// replays exactly what the producing run stored, so cold and warm
/// responses to one canonical form are byte-identical. Provenance rides
/// in headers instead of the body: cache disposition, canonical hash,
/// job id, and — when the bytes were computed under a *different*
/// request's trace (a coalesced follower) — an `x-snet-link` naming the
/// leader's trace.
fn answer_with_verdict(
    w: &mut impl Write,
    ctx: &RequestCtx,
    meta: &mut ReqMeta,
    answer: &CheckAnswer,
) {
    let cache = answer.cache.name();
    let hash = answer.hash.to_hex();
    let link: Option<String> = match &answer.trace {
        Some(t) if ctx.trace_hex.as_deref() != Some(t.as_str()) => Some(t.clone()),
        _ => None,
    };
    meta.cache = Some(cache.to_string());
    meta.hash = Some(hash.clone());
    meta.job = answer.job.clone();
    meta.link = link.clone();
    let mut extra: Vec<(&str, &str)> =
        vec![("x-snet-cache", cache), ("x-snet-hash", hash.as_str())];
    if let Some(job) = &answer.job {
        extra.push(("x-snet-job", job.as_str()));
    }
    if let Some(l) = &link {
        extra.push((LINK_HEADER, l.as_str()));
    }
    respond(w, meta, 200, JSON, &answer.body, &extra);
}

/// `/v1/check` and `/v1/adversary`: parses the body as `T` and answers
/// with the verdict the job manager gives for it.
fn handle_verdict<T: serde::Deserialize>(
    w: &mut impl Write,
    req: &Request,
    ctx: &RequestCtx,
    meta: &mut ReqMeta,
    answer: impl FnOnce(&T) -> Result<CheckAnswer, ApiError>,
) {
    match parse_body(req) {
        Ok(parsed) => match answer(&parsed) {
            Ok(answer) => answer_with_verdict(w, ctx, meta, &answer),
            Err(e) => respond_api_error(w, meta, &e),
        },
        Err(e) => respond_error(w, meta, &e),
    }
}

/// Submits a search job and streams its ND-JSON progress frames until
/// the job closes its stream; the final frame is the terminal lifecycle
/// transition. The job id rides in the `x-snet-job` header so a client
/// can fetch the result document afterwards.
fn handle_search(
    w: &mut impl Write,
    req: &Request,
    manager: &JobManager,
    ctx: &RequestCtx,
    meta: &mut ReqMeta,
) {
    let parsed: SearchRequest = match parse_body(req) {
        Ok(p) => p,
        Err(e) => return respond_error(w, meta, &e),
    };
    let job: Arc<Job> = match manager.submit_search(&parsed, ctx) {
        Ok(j) => j,
        Err(e) => return respond_api_error(w, meta, &e),
    };
    meta.job = Some(job.id.clone());
    let mut extra: Vec<(&str, &str)> = vec![("x-snet-job", job.id.as_str())];
    if let Some(t) = &meta.trace_header {
        extra.push((snet_obs::TRACE_HEADER, t.as_str()));
    }
    // The 200 is recorded only once the response head actually reaches
    // the socket; a failed start leaves status 0 so the telemetry shows
    // a broken exchange, not a success.
    let mut chunked = match ChunkedWriter::start(w, 200, NDJSON, &extra) {
        Ok(c) => c,
        Err(_) => return,
    };
    meta.status = 200;
    loop {
        match job.obs.poll(Duration::from_millis(250)) {
            FramePoll::Frame(f) => {
                let mut line = f.to_json_line();
                line.push('\n');
                if chunked.chunk(line.as_bytes()).is_err() {
                    // Client went away: the job keeps running; its
                    // result stays fetchable via /v1/jobs/{id}.
                    return;
                }
            }
            FramePoll::Idle => {}
            FramePoll::Closed => break,
        }
    }
    let _ = chunked.finish();
}

fn handle_job_get(w: &mut impl Write, id: &str, manager: &JobManager, meta: &mut ReqMeta) {
    match manager.job(id) {
        Some(job) => {
            let body = job.status().to_json();
            respond(w, meta, 200, JSON, body.as_bytes(), &[]);
        }
        None => {
            let body = ErrorBody::new(format!("unknown job {id:?}")).to_json();
            respond(w, meta, 404, JSON, body.as_bytes(), &[]);
        }
    }
}

fn handle_job_delete(w: &mut impl Write, id: &str, manager: &JobManager, meta: &mut ReqMeta) {
    if manager.cancel(id) {
        let doc = obj(vec![("schema", API_SCHEMA.serialize()), ("cancelled", id.serialize())]);
        let body = serde_json::to_string(&doc).expect("a value tree always serializes");
        respond(w, meta, 200, JSON, body.as_bytes(), &[]);
    } else {
        let body = ErrorBody::new(format!("unknown job {id:?}")).to_json();
        respond(w, meta, 404, JSON, body.as_bytes(), &[]);
    }
}

#[cfg(test)]
mod tests {
    use super::wake_addr;

    #[test]
    fn a_drain_wakes_an_unspecified_bind_through_loopback() {
        let wake = |bound: &str| wake_addr(bound.parse().unwrap()).to_string();
        assert_eq!(wake("0.0.0.0:7421"), "127.0.0.1:7421");
        assert_eq!(wake("[::]:7421"), "[::1]:7421");
        assert_eq!(wake("10.1.2.3:7421"), "10.1.2.3:7421");
    }
}
