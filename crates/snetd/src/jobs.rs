//! The job manager: query IDs, a bounded-concurrency scheduler,
//! coalescing of identical in-flight checks, and per-job progress
//! capture, around the verdict path both front ends share ([`verdicts`]).
//!
//! ## Coalescing
//!
//! `/v1/check` requests are keyed by [`CanonicalHash::of_network`] —
//! computed *without* compiling (lower + canonical passes only, no
//! `ir.compile` span). Three outcomes, in cost order:
//!
//! 1. **warm hit** — the store holds a verdict for the hash that passes
//!    its re-check; the stored bytes are replayed verbatim, nothing is
//!    compiled;
//! 2. **coalesced** — an identical request is already in flight; the
//!    caller blocks on that job and receives the same bytes, so N
//!    concurrent submissions of one canonical form compile exactly once;
//! 3. **miss** — this request leads: it reads the store a second time,
//!    then compiles (the only `ir.compile` span), checks, persists, and
//!    fans the bytes out to any followers.
//!
//! `/v1/adversary` requests neither coalesce nor record jobs: perfbench's
//! count cross-check pins one store read per adversary miss.
//!
//! ## Progress capture
//!
//! One process-global [`Sink`] is installed for the daemon's lifetime.
//! Job worker threads register their obs thread ordinal in a routing
//! table; the sink forwards that thread's events to the owning job's
//! [`JobObs`], where span ends named `ir.compile` are counted (the
//! compile-once proof surfaced in the job result) and selected counters
//! become ND-JSON [`ProgressFrame`]s for streaming clients. The sink
//! never calls back into the obs API.

use crate::telemetry::RequestCtx;
use crate::verdicts::{self, Served};
use serde::{Serialize, Value};
use snet_core::api::{AdversaryRequest, ProgressFrame, SearchRequest};
use snet_core::api::{CacheState, FrameKind, JobState, JobStatus, API_SCHEMA};
use snet_core::ir::{CanonicalHash, Executor};
use snet_core::network::ComparatorNetwork;
use snet_core::verdict::Verdict;
use snet_obs::json::obj;
use snet_obs::{Event, EventKind, RunManifest, Sink, SinkHandle};
use snet_search::{search, CancelToken, SearchConfig, SearchMode, SearchOutcome};
use snet_store::ArtifactStore;
use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// An application-level rejection: the HTTP status to answer with and a
/// human-readable reason (routed into an `ErrorBody`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ApiError {
    /// HTTP status (`422` for semantic rejections, `503` when draining).
    pub status: u16,
    /// What was rejected and why.
    pub message: String,
}

impl ApiError {
    fn unprocessable(msg: impl Into<String>) -> ApiError {
        ApiError { status: 422, message: msg.into() }
    }

    fn draining() -> ApiError {
        ApiError { status: 503, message: "service is draining; not accepting new work".into() }
    }
}

/// Job manager configuration.
#[derive(Debug, Clone)]
pub struct JobsConfig {
    /// Artifact store for read-through/write-through caching and TT
    /// spills. `None` disables caching (every check recomputes).
    pub store: Option<ArtifactStore>,
    /// Concurrent search jobs; further submissions queue.
    pub max_jobs: usize,
    /// Worker threads per search job.
    pub search_threads: usize,
    /// Worker threads per exhaustive 0-1 check.
    pub check_threads: usize,
}

impl Default for JobsConfig {
    fn default() -> JobsConfig {
        JobsConfig { store: None, max_jobs: 2, search_threads: 1, check_threads: 1 }
    }
}

/// The answer to a check or adversary query: verdict bytes plus where
/// they came from. The bytes are byte-identical across miss/hit/
/// coalesced for one canonical form (the store replays what the miss
/// wrote; followers receive the leader's bytes).
#[derive(Debug, Clone)]
pub struct CheckAnswer {
    /// Provenance of the bytes.
    pub cache: CacheState,
    /// The verdict document, serialized (`snet-verdict/1`).
    pub body: Vec<u8>,
    /// The job that computed the bytes (`None` on a warm hit — no job
    /// ran).
    pub job: Option<String>,
    /// The canonical hash the answer is keyed by.
    pub hash: CanonicalHash,
    /// Hex trace id of the request under which the bytes were computed
    /// (`None` on a warm hit — no compute). For a coalesced follower
    /// this is the *leader's* trace: the server turns it into an
    /// `x-snet-link` header when it differs from the follower's own.
    pub trace: Option<String>,
}

impl CheckAnswer {
    /// A warm hit: no job ran and nothing was computed.
    fn hit(served: Served, hash: CanonicalHash) -> CheckAnswer {
        CheckAnswer { cache: CacheState::Hit, body: served.bytes, job: None, hash, trace: None }
    }
}

/// A failed store write costs the cache, not the answer: the store
/// counted it in `store.write_errors`, and the daemon logs it.
fn log_write_error(served: &Served) {
    if let Some(e) = &served.write_error {
        eprintln!("snetd: cannot write verdict {} to the store: {e}", served.verdict.hash);
    }
}

// ---------------------------------------------------------------------------
// Per-job progress capture
// ---------------------------------------------------------------------------

/// One poll of a job's frame queue.
pub enum FramePoll {
    /// The next frame, in sequence order.
    Frame(ProgressFrame),
    /// Nothing new before the timeout; the job is still live.
    Idle,
    /// The queue is drained and the job will push no more frames.
    Closed,
}

struct ObsQueue {
    frames: VecDeque<ProgressFrame>,
    closed: bool,
}

/// A job's progress capture: the ND-JSON frame queue streaming clients
/// drain, plus the `ir.compile` span counter the routing sink maintains.
pub struct JobObs {
    job_id: String,
    trace: Option<String>,
    seq: AtomicU64,
    queue: Mutex<ObsQueue>,
    cv: Condvar,
    compile_spans: AtomicU64,
}

impl JobObs {
    fn new(job_id: &str, trace: Option<String>) -> Arc<JobObs> {
        Arc::new(JobObs {
            job_id: job_id.to_string(),
            trace,
            seq: AtomicU64::new(0),
            queue: Mutex::new(ObsQueue { frames: VecDeque::new(), closed: false }),
            cv: Condvar::new(),
            compile_spans: AtomicU64::new(0),
        })
    }

    /// Appends one frame (assigning the next sequence number) and wakes
    /// streaming clients. Frames pushed after [`close`](Self::close) are
    /// dropped.
    fn push(&self, kind: FrameKind) {
        let mut q = self.queue.lock().expect("job obs poisoned");
        if q.closed {
            return;
        }
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        q.frames.push_back(ProgressFrame {
            job: self.job_id.clone(),
            seq,
            trace: self.trace.clone(),
            kind,
        });
        drop(q);
        self.cv.notify_all();
    }

    /// Marks the stream complete; queued frames remain drainable.
    fn close(&self) {
        self.queue.lock().expect("job obs poisoned").closed = true;
        self.cv.notify_all();
    }

    /// Pops the next frame, waiting up to `timeout` for one to arrive.
    pub fn poll(&self, timeout: Duration) -> FramePoll {
        let mut q = self.queue.lock().expect("job obs poisoned");
        loop {
            if let Some(f) = q.frames.pop_front() {
                return FramePoll::Frame(f);
            }
            if q.closed {
                return FramePoll::Closed;
            }
            let (guard, res) = self.cv.wait_timeout(q, timeout).expect("job obs poisoned");
            q = guard;
            if res.timed_out() {
                return if let Some(f) = q.frames.pop_front() {
                    FramePoll::Frame(f)
                } else if q.closed {
                    FramePoll::Closed
                } else {
                    FramePoll::Idle
                };
            }
        }
    }

    /// `ir.compile` span ends attributed to this job so far.
    pub fn compile_spans(&self) -> u64 {
        self.compile_spans.load(Ordering::Relaxed)
    }

    /// Hex trace id of the request that created this job, if traced.
    /// Every frame the job pushes carries it, so the stream's trace id
    /// is stable no matter which client drains it.
    pub fn trace(&self) -> Option<&str> {
        self.trace.as_deref()
    }
}

/// Counter names worth forwarding as progress frames. Deliberately
/// coarse (round/spill granularity): per-node counters would flood the
/// stream without informing it.
fn frame_worthy(name: &str) -> bool {
    matches!(
        name,
        "search.rounds"
            | "search.nodes"
            | "search.tt.preloaded"
            | "search.tt.spilled"
            | "search.cancelled"
            | "check.inputs"
    )
}

/// Routing table: obs thread ordinal → the job capturing that thread.
type Routes = Mutex<HashMap<u64, Arc<JobObs>>>;

/// The process-global sink. Forwards each event to the job (if any) that
/// registered the emitting thread's ordinal. Must not call back into the
/// obs API (that would deadlock the drain), and it does not: it only
/// touches its own mutexes.
struct JobSink {
    routes: Arc<Routes>,
}

impl Sink for JobSink {
    fn event(&self, e: &Event) {
        let target = {
            let routes = self.routes.lock().expect("job routes poisoned");
            routes.get(&e.thread).cloned()
        };
        let Some(obs) = target else { return };
        match e.kind {
            EventKind::SpanEnd if e.name == "ir.compile" => {
                obs.compile_spans.fetch_add(1, Ordering::Relaxed);
            }
            EventKind::Counter if frame_worthy(&e.name) => {
                obs.push(FrameKind::Event { name: e.name.clone(), value: e.value as u64 });
            }
            _ => {}
        }
    }
}

/// RAII registration of the current thread's events to a job.
struct RouteGuard {
    routes: Arc<Routes>,
    ordinal: u64,
}

impl RouteGuard {
    fn register(routes: &Arc<Routes>, obs: &Arc<JobObs>) -> RouteGuard {
        let ordinal = snet_obs::thread_ordinal();
        routes.lock().expect("job routes poisoned").insert(ordinal, obs.clone());
        RouteGuard { routes: routes.clone(), ordinal }
    }
}

impl Drop for RouteGuard {
    fn drop(&mut self) {
        self.routes.lock().expect("job routes poisoned").remove(&self.ordinal);
    }
}

// ---------------------------------------------------------------------------
// Jobs
// ---------------------------------------------------------------------------

struct JobRecord {
    state: JobState,
    error: Option<String>,
    result: Option<Value>,
    handle: Option<std::thread::JoinHandle<()>>,
}

/// One unit of service work with a public identifier.
pub struct Job {
    /// The public id (`job-<seq>`).
    pub id: String,
    /// What it runs: `"check"` or `"search"`.
    pub kind: &'static str,
    /// Cooperative cancellation (fired by `DELETE` or shutdown).
    pub cancel: CancelToken,
    /// Progress capture; streaming clients poll this.
    pub obs: Arc<JobObs>,
    record: Mutex<JobRecord>,
    cv: Condvar,
}

impl Job {
    fn new(id: String, kind: &'static str, trace: Option<String>) -> Arc<Job> {
        let obs = JobObs::new(&id, trace);
        let job = Job {
            id,
            kind,
            cancel: CancelToken::new(),
            obs,
            record: Mutex::new(JobRecord {
                state: JobState::Queued,
                error: None,
                result: None,
                handle: None,
            }),
            cv: Condvar::new(),
        };
        job.obs.push(FrameKind::Lifecycle { state: JobState::Queued });
        Arc::new(job)
    }

    fn set_running(&self) {
        let mut r = self.record.lock().expect("job record poisoned");
        r.state = JobState::Running;
        drop(r);
        self.obs.push(FrameKind::Lifecycle { state: JobState::Running });
        self.cv.notify_all();
    }

    /// Moves the job to a terminal state, attaches the result/error,
    /// emits the final lifecycle frame, and closes the stream. Returns
    /// whether this call made the transition.
    fn finish(&self, state: JobState, result: Option<Value>, error: Option<String>) -> bool {
        debug_assert!(state.is_terminal());
        let mut r = self.record.lock().expect("job record poisoned");
        if r.state.is_terminal() {
            return false; // first terminal transition wins
        }
        r.state = state;
        r.result = result;
        r.error = error;
        drop(r);
        self.obs.push(FrameKind::Lifecycle { state });
        self.obs.close();
        self.cv.notify_all();
        match state {
            JobState::Done => snet_obs::counter("jobs.completed", 1),
            JobState::Cancelled => snet_obs::counter("jobs.cancelled", 1),
            JobState::Failed => snet_obs::counter("jobs.failed", 1),
            _ => {}
        }
        true
    }

    /// The job's current public status document.
    pub fn status(&self) -> JobStatus {
        let r = self.record.lock().expect("job record poisoned");
        JobStatus {
            schema: API_SCHEMA.to_string(),
            id: self.id.clone(),
            kind: self.kind.to_string(),
            state: r.state,
            error: r.error.clone(),
            result: r.result.clone(),
        }
    }

    /// Current lifecycle state.
    pub fn state(&self) -> JobState {
        self.record.lock().expect("job record poisoned").state
    }

    /// Joins the job's thread, if it has one that is not yet joined.
    fn join_thread(&self) {
        let handle = self.record.lock().expect("job record poisoned").handle.take();
        if let Some(h) = handle {
            let _ = h.join();
        }
    }

    /// Blocks until the job reaches a terminal state (test/drain helper).
    pub fn wait_terminal(&self) -> JobStatus {
        let mut r = self.record.lock().expect("job record poisoned");
        while !r.state.is_terminal() {
            r = self.cv.wait(r).expect("job record poisoned");
        }
        drop(r);
        self.status()
    }
}

// ---------------------------------------------------------------------------
// Coalescing
// ---------------------------------------------------------------------------

/// `Ok((bytes, job, trace))`: the leader's verdict bytes, plus its job
/// id and hex trace id when a job actually ran (a leader that lost the
/// race to a just-completed store write replays the stored bytes
/// jobless and traceless). The trace lets coalesced followers link to
/// the leader's compile trace.
type InFlightOutcome = Result<(Vec<u8>, Option<String>, Option<String>), String>;

struct InFlight {
    slot: Mutex<Option<InFlightOutcome>>,
    cv: Condvar,
}

impl InFlight {
    fn new() -> Arc<InFlight> {
        Arc::new(InFlight { slot: Mutex::new(None), cv: Condvar::new() })
    }

    fn fill(&self, outcome: InFlightOutcome) {
        *self.slot.lock().expect("in-flight slot poisoned") = Some(outcome);
        self.cv.notify_all();
    }

    fn wait(&self) -> InFlightOutcome {
        let mut slot = self.slot.lock().expect("in-flight slot poisoned");
        loop {
            if let Some(outcome) = slot.as_ref() {
                return outcome.clone();
            }
            slot = self.cv.wait(slot).expect("in-flight slot poisoned");
        }
    }
}

// ---------------------------------------------------------------------------
// The manager
// ---------------------------------------------------------------------------

/// Finished jobs kept for `GET /v1/jobs/{id}`; older ones are evicted
/// oldest-first, and an evicted id answers 404 as an unknown one does.
/// Live jobs are always kept.
const FINISHED_JOBS_KEPT: usize = 256;

/// Every live job, plus the most recent [`FINISHED_JOBS_KEPT`] finished
/// ones.
#[derive(Default)]
struct JobTable {
    by_id: HashMap<String, Arc<Job>>,
    /// Ids of the finished jobs in `by_id`, oldest first.
    finished: VecDeque<String>,
}

struct ManagerInner {
    cfg: JobsConfig,
    routes: Arc<Routes>,
    sink: SinkHandle,
    jobs: Mutex<JobTable>,
    in_flight: Mutex<HashMap<CanonicalHash, Arc<InFlight>>>,
    next_job: AtomicU64,
    draining: AtomicBool,
    /// Search slots in use; guarded by `slot_cv` for queueing.
    slots: Mutex<usize>,
    slot_cv: Condvar,
}

/// The service's job manager; cheap to clone, one per daemon.
#[derive(Clone)]
pub struct JobManager {
    inner: Arc<ManagerInner>,
}

impl JobManager {
    /// Builds the manager and installs the process-global routing sink
    /// (enabling obs emission — and with it the Prometheus registry
    /// mirror — for the daemon's lifetime).
    pub fn new(cfg: JobsConfig) -> JobManager {
        let routes: Arc<Routes> = Arc::new(Mutex::new(HashMap::new()));
        let sink = snet_obs::install_sink(Arc::new(JobSink { routes: routes.clone() }));
        JobManager {
            inner: Arc::new(ManagerInner {
                cfg,
                routes,
                sink,
                jobs: Mutex::new(JobTable::default()),
                in_flight: Mutex::new(HashMap::new()),
                next_job: AtomicU64::new(0),
                draining: AtomicBool::new(false),
                slots: Mutex::new(0),
                slot_cv: Condvar::new(),
            }),
        }
    }

    /// The configured artifact store, if any.
    pub fn store(&self) -> Option<&ArtifactStore> {
        self.inner.cfg.store.as_ref()
    }

    fn create_job(&self, kind: &'static str, ctx: &RequestCtx) -> Result<Arc<Job>, ApiError> {
        if self.inner.draining.load(Ordering::Acquire) {
            return Err(ApiError::draining());
        }
        let id = format!("job-{}", self.inner.next_job.fetch_add(1, Ordering::Relaxed));
        let job = Job::new(id.clone(), kind, ctx.trace_hex.clone());
        self.inner.jobs.lock().expect("jobs map poisoned").by_id.insert(id, job.clone());
        snet_obs::counter("jobs.submitted", 1);
        Ok(job)
    }

    /// Finishes `job` (see [`Job::finish`]) and keeps it among the most
    /// recent [`FINISHED_JOBS_KEPT`] finished jobs, evicting the oldest
    /// and joining its thread, which has already finished its job.
    fn finish(&self, job: &Job, state: JobState, result: Option<Value>, error: Option<String>) {
        if !job.finish(state, result, error) {
            return;
        }
        let evicted: Vec<Arc<Job>> = {
            let mut guard = self.inner.jobs.lock().expect("jobs map poisoned");
            let table = &mut *guard;
            table.finished.push_back(job.id.clone());
            let excess = table.finished.len().saturating_sub(FINISHED_JOBS_KEPT);
            table.finished.drain(..excess).filter_map(|id| table.by_id.remove(&id)).collect()
        };
        for old in evicted {
            old.join_thread();
        }
    }

    /// Looks up a job by id.
    pub fn job(&self, id: &str) -> Option<Arc<Job>> {
        self.inner.jobs.lock().expect("jobs map poisoned").by_id.get(id).cloned()
    }

    /// Fires a job's cancel token. Returns whether the id exists. The
    /// job finishes asynchronously (its worker observes the token at the
    /// next heartbeat and still spills its TT frontier).
    pub fn cancel(&self, id: &str) -> bool {
        match self.job(id) {
            Some(job) => {
                job.cancel.cancel();
                true
            }
            None => false,
        }
    }

    // -- /v1/check ---------------------------------------------------------

    /// Answers a check request: warm hit, coalesced follower, or leading
    /// miss (see the module docs). Blocks until the bytes are available.
    pub fn check(
        &self,
        net: &ComparatorNetwork,
        ctx: &RequestCtx,
    ) -> Result<CheckAnswer, ApiError> {
        let wires = net.wires();
        if !(1..=26).contains(&wires) {
            return Err(ApiError::unprocessable(format!(
                "check is exhaustive over 2^n inputs; n must be 1..=26 (got {wires})"
            )));
        }
        // Hash without compiling: of_network runs the same canonical
        // passes as the executor, so a warm entry keyed by a previous
        // compile is found here with no `ir.compile` span.
        let hash = CanonicalHash::of_network(net);
        if let Some(hit) = verdicts::lookup_check(self.store(), net, &hash) {
            return Ok(CheckAnswer::hit(hit, hash));
        }

        let (flight, leading) = {
            let mut map = self.inner.in_flight.lock().expect("in-flight map poisoned");
            match map.get(&hash) {
                Some(f) => (f.clone(), false),
                None => {
                    let f = InFlight::new();
                    map.insert(hash, f.clone());
                    (f, true)
                }
            }
        };

        if !leading {
            snet_obs::counter("jobs.coalesced", 1);
            let (body, job, trace) =
                flight.wait().map_err(|e| ApiError { status: 500, message: e })?;
            return Ok(CheckAnswer { cache: CacheState::Coalesced, body, job, hash, trace });
        }

        // Leadership claimed — but a previous leader may have completed
        // (and written the store) between our store miss and our map
        // insert. Re-check before compiling so one canonical form never
        // compiles twice, no matter the interleaving.
        if let Some(hit) = verdicts::lookup_check(self.store(), net, &hash) {
            self.inner.in_flight.lock().expect("in-flight map poisoned").remove(&hash);
            flight.fill(Ok((hit.bytes.clone(), None, None)));
            return Ok(CheckAnswer::hit(hit, hash));
        }

        // Leader: run the compile + check inline on this thread under a
        // job record, then fan the bytes out. The in-flight entry is
        // removed before filling so a racing identical request after
        // completion becomes a store hit, not a stale follower.
        let outcome = match self.create_job("check", ctx) {
            Ok(job) => {
                let out = self.run_check_leader(&job, net, &hash);
                out.map(|body| (body, Some(job.id.clone()), ctx.trace_hex.clone()))
            }
            Err(e) => Err(e.message),
        };
        self.inner.in_flight.lock().expect("in-flight map poisoned").remove(&hash);
        flight.fill(outcome.clone());
        let (body, job, trace) = outcome.map_err(|e| ApiError { status: 500, message: e })?;
        Ok(CheckAnswer { cache: CacheState::Miss, body, job, hash, trace })
    }

    fn run_check_leader(
        &self,
        job: &Arc<Job>,
        net: &ComparatorNetwork,
        hash: &CanonicalHash,
    ) -> Result<Vec<u8>, String> {
        job.set_running();
        let guard = RouteGuard::register(&self.inner.routes, &job.obs);
        let threads = self.inner.cfg.check_threads.max(1);
        let computed = catch_unwind(AssertUnwindSafe(|| {
            // The one `ir.compile` span.
            verdicts::compute_check(self.store(), net, hash, Executor::compile, threads)
        }));
        drop(guard);
        let served = match computed {
            Ok(served) => served,
            Err(panic) => {
                let msg = panic_message(panic);
                self.finish(job, JobState::Failed, None, Some(msg.clone()));
                return Err(msg);
            }
        };
        log_write_error(&served);
        let result = self.check_result_value(job, hash, &served.verdict);
        self.finish(job, JobState::Done, Some(result), None);
        Ok(served.bytes)
    }

    /// The check job's result document: the verdict summary plus a run
    /// manifest whose `ir.compile` extra is the number of compile spans
    /// attributed to this job — the compile-once proof for coalesced
    /// submissions.
    fn check_result_value(&self, job: &Arc<Job>, hash: &CanonicalHash, verdict: &Verdict) -> Value {
        let mut manifest = RunManifest::capture("snetd");
        manifest.push_extra("ir.compile", job.obs.compile_spans().to_string());
        manifest.push_extra("store.hash", hash.to_hex());
        if let Some(t) = job.obs.trace() {
            manifest.push_extra("trace_id", t.to_string());
        }
        obj(vec![
            ("hash", hash.to_hex().serialize()),
            ("sorting", verdict.is_sorting().serialize()),
            ("compile_spans", job.obs.compile_spans().serialize()),
            ("manifest", manifest.serialize()),
        ])
    }

    // -- /v1/search --------------------------------------------------------

    /// Validates and launches a search job; returns immediately with the
    /// queued job. The job acquires one of `max_jobs` slots before
    /// running.
    pub fn submit_search(
        &self,
        req: &SearchRequest,
        ctx: &RequestCtx,
    ) -> Result<Arc<Job>, ApiError> {
        let cfg = self.validate_search(req)?;
        let job = self.create_job("search", ctx)?;
        let mgr = self.clone();
        let handle = {
            let job = job.clone();
            let ctx = ctx.clone();
            std::thread::Builder::new()
                .name(format!("snetd-{}", job.id))
                .spawn(move || mgr.run_search_job(&job, cfg, &ctx))
                .map_err(|e| ApiError { status: 500, message: format!("cannot spawn job: {e}") })?
        };
        job.record.lock().expect("job record poisoned").handle = Some(handle);
        Ok(job)
    }

    fn validate_search(&self, req: &SearchRequest) -> Result<SearchConfig, ApiError> {
        let n = req.n as usize;
        if !(2..=16).contains(&n) {
            return Err(ApiError::unprocessable(format!("search supports n 2..=16 (got {n})")));
        }
        let mode = match req.mode.as_str() {
            "unrestricted" => SearchMode::Unrestricted,
            "shuffle-legal" => SearchMode::ShuffleLegal,
            other => {
                return Err(ApiError::unprocessable(format!(
                    "mode must be one of: unrestricted, shuffle-legal (got {other:?})"
                )))
            }
        };
        if mode == SearchMode::ShuffleLegal && !n.is_power_of_two() {
            return Err(ApiError::unprocessable(format!(
                "shuffle-legal search needs n = 2^l (got {n})"
            )));
        }
        let mut cfg = SearchConfig::new(n, mode);
        // The engine asserts max_depth >= floor; turn that into a 422
        // instead of a worker panic.
        let oracle = match mode {
            SearchMode::Unrestricted => snet_adversary::DepthOracle::unrestricted(n),
            SearchMode::ShuffleLegal => snet_adversary::DepthOracle::shuffle_legal(n),
        };
        let floor = oracle.network_floor();
        if let Some(d) = req.max_depth {
            let d = d as usize;
            if d < floor {
                return Err(ApiError::unprocessable(format!(
                    "max_depth {d} is below the admissible floor {floor} for n={n}"
                )));
            }
            cfg.max_depth = d;
        }
        cfg.threads = match req.threads {
            Some(0) | None => self.inner.cfg.search_threads.max(1),
            Some(t) => (t as usize).min(64),
        };
        cfg.store = self.inner.cfg.store.clone();
        Ok(cfg)
    }

    fn run_search_job(&self, job: &Arc<Job>, mut cfg: SearchConfig, ctx: &RequestCtx) {
        // The job thread outlives the HTTP exchange that submitted it;
        // route its events (and, by span descent, its engine workers')
        // into the submitting request's trace for the job's duration,
        // and nest everything it emits under the request span so the
        // stored tree reads client → request → job.
        let _trace_guard = ctx.attach();
        let _job_span = snet_obs::span_under("job.run", ctx.span).attr("job", &job.id);
        // Queue for a slot; shutdown cancels queued jobs instead of
        // starting them.
        let running = {
            let mut used = self.inner.slots.lock().expect("slot pool poisoned");
            loop {
                if job.cancel.is_cancelled() || self.inner.draining.load(Ordering::Acquire) {
                    drop(used);
                    self.finish(job, JobState::Cancelled, None, None);
                    return;
                }
                if *used < self.inner.cfg.max_jobs.max(1) {
                    *used += 1;
                    break *used;
                }
                used = self.inner.slot_cv.wait(used).expect("slot pool poisoned");
            }
        };
        snet_obs::gauge("jobs.running", running as f64);
        job.set_running();
        cfg.cancel = Some(job.cancel.clone());
        let guard = RouteGuard::register(&self.inner.routes, &job.obs);
        let outcome = catch_unwind(AssertUnwindSafe(|| search(&cfg)));
        drop(guard);
        match outcome {
            Ok(out) => {
                let state = if out.cancelled { JobState::Cancelled } else { JobState::Done };
                // A cancelled search still reports its partial totals and
                // spill — the frontier it persisted is resumable.
                self.finish(job, state, Some(search_result_value(&out)), None);
            }
            Err(panic) => {
                self.finish(job, JobState::Failed, None, Some(panic_message(panic)));
            }
        }
        let mut used = self.inner.slots.lock().expect("slot pool poisoned");
        *used = used.saturating_sub(1);
        snet_obs::gauge("jobs.running", *used as f64);
        drop(used);
        self.inner.slot_cv.notify_all();
    }

    // -- /v1/adversary -----------------------------------------------------

    /// Answers an adversary request inline: lowers the shuffle network,
    /// replays a stored witness once it verifies, or runs Theorem 4.1
    /// and stores the refutation it finds. Unlike checks, adversary
    /// requests neither coalesce nor record jobs (see DESIGN §13).
    pub fn adversary(
        &self,
        req: &AdversaryRequest,
        ctx: &RequestCtx,
    ) -> Result<CheckAnswer, ApiError> {
        let n = req.n as usize;
        if !(2..=1024).contains(&n) || !n.is_power_of_two() {
            return Err(ApiError::unprocessable(format!(
                "adversary networks need n = 2^l in 2..=1024 (got {n})"
            )));
        }
        if req.stages.is_empty() {
            return Err(ApiError::unprocessable("adversary needs at least one stage"));
        }
        for (i, s) in req.stages.iter().enumerate() {
            if s.len() != n / 2 {
                return Err(ApiError::unprocessable(format!(
                    "stage {i} has {} ops; every stage needs n/2 = {}",
                    s.len(),
                    n / 2
                )));
            }
        }
        let l = n.trailing_zeros() as usize;
        let k = req.k.map(|k| k as usize).unwrap_or(l);
        // The direct lowering hashes like the iterated reverse delta form
        // (pinned in e2e_canonical_hash.rs), which only a miss builds.
        let shuffle = snet_topology::ShuffleNetwork::new(n, req.stages.clone());
        let net = shuffle.to_network();
        let hash = CanonicalHash::of_network(&net);
        if let Some(hit) = verdicts::lookup_witness(self.store(), &net, &hash) {
            return Ok(CheckAnswer::hit(hit, hash));
        }
        let (run, witness) = verdicts::compute_witness(self.store(), &net, &hash, k, || {
            shuffle.to_iterated_reverse_delta()
        })
        .map_err(|message| ApiError { status: 500, message })?;
        let Some(served) = witness else {
            return Err(ApiError::unprocessable(format!(
                "adversary exhausted: |D| = {} after {} blocks — no witness at this depth \
                 (the network may sort)",
                run.d_set.len(),
                run.blocks.len()
            )));
        };
        log_write_error(&served);
        Ok(CheckAnswer {
            cache: CacheState::Miss,
            body: served.bytes,
            job: None,
            hash,
            trace: ctx.trace_hex.clone(),
        })
    }

    // -- lifecycle ---------------------------------------------------------

    /// Whether the manager has begun draining.
    pub fn draining(&self) -> bool {
        self.inner.draining.load(Ordering::Acquire)
    }

    /// Graceful drain: stop accepting work, cancel every live job (their
    /// workers observe the token, spill their TT frontiers, and finish),
    /// join all job threads, then uninstall the sink and flush.
    pub fn shutdown(&self) {
        if self.inner.draining.swap(true, Ordering::AcqRel) {
            return; // once
        }
        self.inner.slot_cv.notify_all();
        let jobs: Vec<Arc<Job>> = {
            let table = self.inner.jobs.lock().expect("jobs map poisoned");
            table.by_id.values().cloned().collect()
        };
        for job in &jobs {
            job.cancel.cancel();
        }
        for job in &jobs {
            job.join_thread();
        }
        snet_obs::remove_sink(self.inner.sink);
        snet_obs::flush();
    }
}

/// The search job's terminal result document.
fn search_result_value(out: &SearchOutcome) -> Value {
    let mut fields = vec![
        ("n", out.n.serialize()),
        ("mode", out.mode.name().serialize()),
        ("floor", out.floor.serialize()),
        ("max_depth", out.max_depth.serialize()),
        ("cancelled", out.cancelled.serialize()),
        ("rounds", out.rounds.len().serialize()),
        ("nodes", out.totals.nodes.serialize()),
        ("tt_preloaded", out.tt_preloaded.serialize()),
        ("tt_spilled", out.tt_spilled.serialize()),
    ];
    if let Some(d) = out.optimal_depth {
        fields.push(("optimal_depth", d.serialize()));
    }
    if let Some(v) = &out.verdict {
        fields.push(("verdict", v.serialize()));
    }
    if let Some(net) = &out.network {
        fields.push(("network", net.serialize()));
    }
    obj(fields)
}

fn panic_message(panic: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "job panicked".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snet_core::element::Element;
    use snet_core::network::Level;

    #[test]
    fn finished_jobs_are_evicted_oldest_first() {
        let manager = JobManager::new(JobsConfig::default());
        let net = ComparatorNetwork::new(2, vec![Level::of_elements(vec![Element::cmp(0, 1)])])
            .expect("one comparator on two wires");
        // Without a store every check is a leading miss with a job of its own.
        let ids: Vec<String> = (0..=FINISHED_JOBS_KEPT)
            .map(|_| {
                let answer = manager.check(&net, &RequestCtx::default()).expect("check answers");
                answer.job.expect("a miss runs a job")
            })
            .collect();
        assert!(manager.job(&ids[0]).is_none(), "the oldest finished job is evicted");
        assert!(manager.job(&ids[1]).is_some(), "the next one is kept");
        let last = manager.job(ids.last().unwrap()).expect("the newest job is kept");
        assert_eq!(last.state(), JobState::Done);
        manager.shutdown();
    }
}
