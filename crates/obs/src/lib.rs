//! `snet_obs` — structured observability for the workspace: spans,
//! counters, gauges, each event handed to pluggable [`Sink`]s as it is
//! emitted, and a [`RunManifest`] recording what produced a run.
//!
//! Design constraints, in order:
//!
//! 1. **Zero cost when disabled.** No sink installed and the flight
//!    recorder off ⇒ every entry point is a pair of relaxed atomic loads
//!    and an early return; no allocation, no locking, no time syscalls.
//!    Hot loops stay uninstrumented — only phase boundaries (compiles,
//!    passes, shards, adversary rounds) emit.
//! 2. **One JSON codec.** Events, manifests, baselines and Chrome
//!    exports encode, and traces and baselines parse, through the
//!    vendored `serde_json` the rest of the workspace uses ([`json`]
//!    holds the shared builders); the only other dependency is `serde`.
//! 3. **Thread-aware.** Spans nest via a thread-local stack, and
//!    cross-thread nesting (worker shards under a coordinator span) is
//!    explicit via [`span_under`]. Sinks see every event when it is
//!    emitted, so a coordinator's span start reaches them before any
//!    event of the workers it spawns.
//!
//! Three service-grade layers sit on the same event stream:
//!
//! * the [`flight`] recorder — per-thread byte rings holding the most
//!   recent events, dumped to `flight-<pid>.jsonl` by the panic hook
//!   ([`enable_flight`], [`dump_flight`]);
//! * the [`registry`] — counters/gauges/histograms aggregated under
//!   `snet_*` Prometheus names, rendered by [`promtext`]
//!   ([`registry::render_prometheus`]);
//! * [`alloc`] — opt-in allocation accounting behind the `alloc`
//!   feature, surfaced as registry gauges and per-span attrs.
//!
//! Typical wiring (the `snetctl` entry point):
//!
//! ```no_run
//! use std::sync::Arc;
//! let sink = Arc::new(snet_obs::JsonlSink::create("trace.jsonl").unwrap());
//! snet_obs::install_sink(sink);
//! snet_obs::RunManifest::capture("snetctl").emit();
//! {
//!     let _span = snet_obs::span("work").attr("n", 16);
//!     snet_obs::counter("items", 3);
//! }
//! snet_obs::flush();
//! ```

pub mod alloc;
pub mod baseline;
pub mod chrome;
pub mod event;
pub mod flight;
pub mod hist;
pub mod json;
pub mod manifest;
pub mod promtext;
pub mod registry;
pub mod report;
pub mod sink;
pub mod tracectx;

pub use baseline::{Baseline, BaselineDiff, BASELINE_SCHEMA};
pub use chrome::{to_chrome_trace, trace_to_chrome};
pub use event::{Event, EventKind};
pub use flight::{arm_fault_after, dump_flight, flight_snapshot, DEFAULT_RING_BYTES};
pub use hist::{HistSnapshot, Histogram, ShardedCounter};
pub use manifest::{RunManifest, MANIFEST_SCHEMA};
pub use sink::{JsonlSink, MemorySink, ProgressSink, Sink};
pub use tracectx::{TraceContext, TraceId, LINK_ATTR, TRACE_ATTR, TRACE_HEADER};

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, LazyLock, Mutex, Once, RwLock};
use std::time::Instant;

/// Fast global switch: true iff at least one sink is installed.
static ENABLED: AtomicBool = AtomicBool::new(false);
/// Installed sinks, keyed by handle for removal.
static SINKS: RwLock<Vec<(u64, Arc<dyn Sink>)>> = RwLock::new(Vec::new());
static NEXT_SINK: AtomicU64 = AtomicU64::new(1);
/// Span ids are global and increase over time, so a child's id is always
/// larger than its parent's (the report reconstructor relies on this).
static NEXT_SPAN: AtomicU64 = AtomicU64::new(1);
static NEXT_THREAD: AtomicU64 = AtomicU64::new(0);
static EPOCH: LazyLock<Instant> = LazyLock::new(Instant::now);

struct ThreadState {
    ordinal: u64,
    stack: Vec<u64>,
}

thread_local! {
    static TLS: RefCell<ThreadState> = RefCell::new(ThreadState {
        ordinal: NEXT_THREAD.fetch_add(1, Ordering::Relaxed),
        stack: Vec::new(),
    });
}

/// True iff events are being recorded: a sink is installed or the
/// flight recorder is on. Callers may use this to skip building
/// expensive attributes; every emit function checks it internally.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed) || flight::is_on()
}

/// Turns the flight recorder on (installing the panic-dump hook), with
/// [`DEFAULT_RING_BYTES`] per thread. `snetctl` calls this on startup
/// unless `SNET_FLIGHT=0`; a clean exit leaves no files behind.
pub fn enable_flight() {
    install_panic_flush_hook();
    flight::set_on(true);
}

/// Turns the flight recorder off (rings and their contents survive for
/// a later [`dump_flight`]).
pub fn disable_flight() {
    flight::set_on(false);
}

/// Records one sample into a labeled registry histogram (e.g. per-pass
/// timings under `{pass="..."}`). Registry-only: labeled series have no
/// event-stream equivalent. No-op when observation is disabled.
pub fn observe(name: &str, labels: &[(&str, &str)], sample: u64) {
    if !enabled() {
        return;
    }
    registry::record_hist_sample(name, labels, sample);
}

/// Increments a labeled registry counter (e.g. probe hits under
/// `{endpoint="/healthz"}`). Registry-only, like [`observe`]: labeled
/// series have no event-stream equivalent. No-op when disabled.
pub fn counter_labeled(name: &str, labels: &[(&str, &str)], delta: u64) {
    if !enabled() {
        return;
    }
    registry::record_counter_labeled(name, labels, delta as f64);
}

/// Microseconds since the process-wide observation epoch (first use).
pub fn now_us() -> u64 {
    EPOCH.elapsed().as_micros() as u64
}

/// Handle returned by [`install_sink`], accepted by [`remove_sink`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SinkHandle(u64);

/// Installs a sink and enables event emission. Returns a handle for
/// targeted removal.
///
/// The first installation also chains a panic hook that flushes every
/// sink, so a panicking run still leaves a parseable
/// (truncated-but-valid) trace file.
pub fn install_sink(sink: Arc<dyn Sink>) -> SinkHandle {
    install_panic_flush_hook();
    let id = NEXT_SINK.fetch_add(1, Ordering::Relaxed);
    let mut sinks = SINKS.write().expect("sink registry poisoned");
    sinks.push((id, sink));
    ENABLED.store(true, Ordering::Relaxed);
    SinkHandle(id)
}

/// Chains the previous panic hook with a [`flush`] (so file sinks write
/// out what they hold) and a flight dump (so the ring contents survive
/// the death). Installed once, by the first [`install_sink`] or
/// [`enable_flight`]; a fully disabled process never touches the hook.
fn install_panic_flush_hook() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            flush();
            // Only dump while the recorder is on: a caught panic in a
            // process that turned it off (or never turned it on) must
            // not litter the working directory with ring contents left
            // from an earlier enabled window.
            if flight::is_on() {
                let _ = flight::dump_flight();
            }
            previous(info);
        }));
    });
}

/// Removes one sink (flushing it first); emission disables when the last
/// sink is gone.
pub fn remove_sink(handle: SinkHandle) {
    flush();
    let mut sinks = SINKS.write().expect("sink registry poisoned");
    sinks.retain(|(id, _)| *id != handle.0);
    if sinks.is_empty() {
        ENABLED.store(false, Ordering::Relaxed);
    }
}

/// Flushes every sink. Call once before process exit so a file sink's
/// buffered lines reach the disk, from whichever threads emitted them.
///
/// Safe to call from a panic hook: a poisoned sink registry is read
/// through anyway (sinks are append-only, so the data is still
/// coherent).
pub fn flush() {
    let sinks = SINKS.read().unwrap_or_else(|p| p.into_inner());
    for (_, sink) in sinks.iter() {
        sink.flush();
    }
}

/// Records an event: appends it to the flight ring (when recording),
/// then hands it to every installed sink on the emitting thread.
pub(crate) fn emit_event(e: Event) {
    let sinks_on = ENABLED.load(Ordering::Relaxed);
    let flight_on = flight::is_on();
    if !sinks_on && !flight_on {
        return;
    }
    // The ring sees the event before anything that can fail or panic
    // (sink I/O, the injected-fault tick below): the recorder's whole
    // job is holding the last events leading up to a death.
    if flight_on {
        flight::record(&e);
    }
    if sinks_on {
        let sinks = SINKS.read().unwrap_or_else(|p| p.into_inner());
        for (_, sink) in sinks.iter() {
            sink.event(&e);
        }
    }
    flight::fault_tick();
}

fn fill_thread_fields(e: &mut Event) {
    let _ = TLS.try_with(|tls| {
        if let Ok(st) = tls.try_borrow() {
            e.thread = st.ordinal;
            if e.parent == 0 {
                e.parent = st.stack.last().copied().unwrap_or(0);
            }
        }
    });
}

/// Event name under which [`thread_lane`] publishes a lane label.
/// Consumed by the Chrome exporter (thread metadata) and skipped by
/// report tables; not mirrored into the registry.
pub const THREAD_LANE_EVENT: &str = "obs.thread.lane";

/// Publishes a stable lane label for the calling thread (e.g.
/// `http-worker-3`, `search-worker-0`), so trace exports name pool
/// threads by role instead of the generic `worker-N` ordinal. Emit once
/// per thread, right after it starts; the last label emitted wins.
pub fn thread_lane(label: impl Into<String>) {
    if !enabled() {
        return;
    }
    let mut e = Event {
        kind: EventKind::Gauge,
        name: THREAD_LANE_EVENT.to_string(),
        id: 0,
        parent: 0,
        thread: 0,
        t_us: now_us(),
        dur_us: 0,
        value: 0.0,
        attrs: vec![("lane".to_string(), label.into())],
    };
    fill_thread_fields(&mut e);
    emit_event(e);
}

/// The calling thread's small per-process ordinal (0 for the first
/// thread to observe anything). Used by [`ShardedCounter`] to pick a
/// shard and by reports to label worker lanes. Returns 0 if the
/// thread-local state is already torn down.
pub fn thread_ordinal() -> u64 {
    TLS.try_with(|tls| tls.try_borrow().map(|st| st.ordinal).unwrap_or(0)).unwrap_or(0)
}

/// An RAII span: emits `SpanStart` on creation and `SpanEnd` (carrying
/// duration and accumulated attrs) on drop. Inert when no sink is
/// installed. Obtain via [`span`] or [`span_under`].
#[must_use = "a span measures the scope it is bound to; dropping it immediately records nothing"]
pub struct SpanGuard {
    id: u64,
    parent: u64,
    name: &'static str,
    start_us: u64,
    attrs: Vec<(String, String)>,
    /// Allocator counters at span open, for per-span memory attribution
    /// on exit (`alloc` feature only).
    #[cfg(feature = "alloc")]
    alloc0_bytes: u64,
    #[cfg(feature = "alloc")]
    peak0_bytes: u64,
}

fn new_guard(id: u64, parent: u64, name: &'static str, start_us: u64) -> SpanGuard {
    SpanGuard {
        id,
        parent,
        name,
        start_us,
        attrs: Vec::new(),
        #[cfg(feature = "alloc")]
        alloc0_bytes: alloc::stats().map_or(0, |s| s.total_bytes),
        #[cfg(feature = "alloc")]
        peak0_bytes: alloc::stats().map_or(0, |s| s.peak_bytes),
    }
}

/// Opens a span nested under the calling thread's current span.
pub fn span(name: &'static str) -> SpanGuard {
    span_impl(name, None)
}

/// Opens a span under an explicit parent id — the cross-thread variant
/// (e.g. worker shards under the coordinator's span). `parent` is
/// usually [`SpanGuard::id`] from another thread.
pub fn span_under(name: &'static str, parent: u64) -> SpanGuard {
    span_impl(name, Some(parent))
}

fn span_impl(name: &'static str, explicit_parent: Option<u64>) -> SpanGuard {
    if !enabled() {
        return new_guard(0, 0, name, 0);
    }
    let id = NEXT_SPAN.fetch_add(1, Ordering::Relaxed);
    let t_us = now_us();
    let mut parent = explicit_parent.unwrap_or(0);
    let mut thread = 0;
    let _ = TLS.try_with(|tls| {
        if let Ok(mut st) = tls.try_borrow_mut() {
            thread = st.ordinal;
            if explicit_parent.is_none() {
                parent = st.stack.last().copied().unwrap_or(0);
            }
            st.stack.push(id);
        }
    });
    emit_event(Event {
        kind: EventKind::SpanStart,
        name: name.to_string(),
        id,
        parent,
        thread,
        t_us,
        dur_us: 0,
        value: 0.0,
        attrs: Vec::new(),
    });
    new_guard(id, parent, name, t_us)
}

impl SpanGuard {
    /// True iff the span is recording (a sink was installed when it
    /// opened).
    pub fn is_active(&self) -> bool {
        self.id != 0
    }

    /// The span id (0 when inert) — pass to [`span_under`] for
    /// cross-thread nesting.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Attaches an attribute (builder form). No-op when inert, so
    /// callers can chain unconditionally.
    pub fn attr(mut self, key: &'static str, value: impl std::fmt::Display) -> Self {
        self.add_attr(key, value);
        self
    }

    /// Attaches an attribute to an already-bound span (e.g. a result
    /// computed mid-span).
    pub fn add_attr(&mut self, key: &'static str, value: impl std::fmt::Display) {
        if self.id != 0 {
            self.attrs.push((key.to_string(), value.to_string()));
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if self.id == 0 {
            return;
        }
        #[cfg(feature = "alloc")]
        if let Some(s) = alloc::stats() {
            let allocated = s.total_bytes.saturating_sub(self.alloc0_bytes);
            self.attrs.push(("mem_alloc_b".to_string(), allocated.to_string()));
            if s.peak_bytes > self.peak0_bytes {
                self.attrs.push(("mem_peak_b".to_string(), s.peak_bytes.to_string()));
            }
        }
        let t_us = now_us();
        let mut thread = 0;
        let _ = TLS.try_with(|tls| {
            if let Ok(mut st) = tls.try_borrow_mut() {
                thread = st.ordinal;
                // Pop through this span's id: panics unwinding past inner
                // guards must not wedge the stack.
                while let Some(top) = st.stack.pop() {
                    if top == self.id {
                        break;
                    }
                }
            }
        });
        emit_event(Event {
            kind: EventKind::SpanEnd,
            name: self.name.to_string(),
            id: self.id,
            parent: self.parent,
            thread,
            t_us,
            dur_us: t_us.saturating_sub(self.start_us),
            value: 0.0,
            attrs: std::mem::take(&mut self.attrs),
        });
    }
}

/// Increments a counter. Aggregated by name in reports; the enclosing
/// span (if any) is recorded as parent.
pub fn counter(name: &'static str, delta: u64) {
    if !enabled() {
        return;
    }
    registry::record_counter(name, delta as f64);
    let mut e = Event {
        kind: EventKind::Counter,
        name: name.to_string(),
        id: 0,
        parent: 0,
        thread: 0,
        t_us: now_us(),
        dur_us: 0,
        value: delta as f64,
        attrs: Vec::new(),
    };
    fill_thread_fields(&mut e);
    emit_event(e);
}

/// Records a gauge sample (last value wins in reports); `*.progress`
/// gauges drive live progress sinks.
pub fn gauge(name: &'static str, value: f64) {
    gauge_with(name, value, Vec::new());
}

/// [`gauge`] with attributes (e.g. the progress attrs `done`, `total`,
/// `per_sec`, `eta_s` that [`ProgressSink`] renders).
pub fn gauge_with(name: &'static str, value: f64, attrs: Vec<(String, String)>) {
    if !enabled() {
        return;
    }
    registry::record_gauge(name, value);
    let mut e = Event {
        kind: EventKind::Gauge,
        name: name.to_string(),
        id: 0,
        parent: 0,
        thread: 0,
        t_us: now_us(),
        dur_us: 0,
        value,
        attrs,
    };
    fill_thread_fields(&mut e);
    emit_event(e);
}

/// Emits a histogram snapshot (aggregated by name in reports; see
/// [`HistSnapshot::merge`]). Snapshotting is the caller's job so hot
/// loops can keep recording into a shared [`Histogram`] and emit only at
/// phase boundaries.
pub fn hist(name: &str, snap: &HistSnapshot) {
    if !enabled() {
        return;
    }
    registry::record_hist(name, snap);
    let mut e = snap.to_event(name);
    fill_thread_fields(&mut e);
    emit_event(e);
}

/// Test helper: runs `f` with a fresh [`MemorySink`] installed and
/// returns the events it captured. Serialized across threads (the sink
/// registry is global), so concurrent `test_capture` calls — e.g. from
/// different `#[test]`s — cannot observe each other's events.
pub fn test_capture(f: impl FnOnce()) -> Vec<Event> {
    let _guard = TEST_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    let sink = Arc::new(MemorySink::new());
    let handle = install_sink(sink.clone());
    f();
    remove_sink(handle);
    sink.events()
}

/// Serializes every test that installs a sink (the registry is global).
/// [`test_capture`] takes it internally; tests that install their own
/// file-backed sinks should hold it directly.
pub static TEST_LOCK: Mutex<()> = Mutex::new(());

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_emission_is_inert() {
        // Not under test_capture: relies on no sink being installed on
        // entry, which test_capture's lock guarantees for others.
        let events = test_capture(|| {});
        assert!(events.is_empty());
        let span = span("never.recorded");
        assert!(!span.is_active());
        assert_eq!(span.id(), 0);
        drop(span);
        counter("never.counted", 1);
    }

    #[test]
    fn spans_nest_and_attrs_land_on_end_events() {
        let events = test_capture(|| {
            let mut outer = span("outer").attr("n", 16);
            {
                let _inner = span("inner");
                counter("steps", 2);
                counter("steps", 3);
            }
            outer.add_attr("result", "ok");
        });
        let ends: Vec<&Event> = events.iter().filter(|e| e.kind == EventKind::SpanEnd).collect();
        assert_eq!(ends.len(), 2);
        let inner = ends.iter().find(|e| e.name == "inner").unwrap();
        let outer = ends.iter().find(|e| e.name == "outer").unwrap();
        assert_eq!(inner.parent, outer.id);
        assert_eq!(outer.parent, 0);
        assert_eq!(outer.attr("n"), Some("16"));
        assert_eq!(outer.attr("result"), Some("ok"));
        assert!(inner.id > outer.id, "child ids allocate after parents");
        let steps: f64 = events
            .iter()
            .filter(|e| e.kind == EventKind::Counter && e.name == "steps")
            .map(|e| e.value)
            .sum();
        assert_eq!(steps, 5.0);
        // Counters nest under the span open at emission time.
        for c in events.iter().filter(|e| e.kind == EventKind::Counter) {
            assert_eq!(c.parent, inner.id);
        }
    }

    #[test]
    fn cross_thread_spans_nest_under_explicit_parent() {
        let events = test_capture(|| {
            let coordinator = span("coordinator");
            let parent_id = coordinator.id();
            std::thread::scope(|s| {
                for _ in 0..2 {
                    s.spawn(move || {
                        let _shard = span_under("shard", parent_id);
                        counter("shard.work", 1);
                    });
                }
            });
        });
        let coord = events.iter().find(|e| e.kind == EventKind::SpanEnd && e.name == "coordinator");
        let coord_id = coord.expect("coordinator ended").id;
        let shards: Vec<&Event> =
            events.iter().filter(|e| e.kind == EventKind::SpanEnd && e.name == "shard").collect();
        assert_eq!(shards.len(), 2);
        for s in shards {
            assert_eq!(s.parent, coord_id);
        }
    }

    #[test]
    fn hist_events_carry_their_snapshot() {
        let events = test_capture(|| {
            let h = Histogram::new();
            h.record(10);
            h.record(2000);
            hist("task.nodes", &h.snapshot());
        });
        let ev = events.iter().find(|e| e.kind == EventKind::Hist).expect("hist emitted");
        assert_eq!(ev.name, "task.nodes");
        let snap = HistSnapshot::from_attrs(&ev.attrs).expect("snapshot decodes");
        assert_eq!(snap.count, 2);
        assert_eq!(snap.sum, 2010);
    }

    #[test]
    fn panicking_run_still_leaves_a_parseable_trace() {
        let dir = std::env::temp_dir().join("snet-obs-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("panic-flush.jsonl");
        let path_str = path.to_str().unwrap().to_string();
        // Serialize against every other sink-installing test.
        let _guard = TEST_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        let handle =
            install_sink(Arc::new(JsonlSink::create(&path_str).expect("create trace file")));
        let result = std::panic::catch_unwind(|| {
            // The sink holds this line in its write buffer; only the
            // panic hook's flush can get it to disk before the
            // "process" dies.
            counter("work.before_panic", 3);
            panic!("injected failure");
        });
        assert!(result.is_err());
        // Read back *before* remove_sink's flush — the panic hook alone
        // must have produced a parseable trace.
        let text = std::fs::read_to_string(&path).unwrap();
        remove_sink(handle);
        let report = report::parse_trace(&text).expect("truncated trace still parses");
        assert_eq!(report.counters["work.before_panic"].total, 3.0);
    }

    #[test]
    fn flush_drains_buffers_of_threads_still_alive() {
        // Workers that are still alive — parked on a barrier — have
        // emitted into a file sink whose write buffer holds their lines;
        // a process-exit flush from the main thread must get those
        // lines to disk.
        let dir = std::env::temp_dir().join("snet-obs-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("live-thread-flush.jsonl");
        let _guard = TEST_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        let handle = install_sink(Arc::new(
            JsonlSink::create(path.to_str().unwrap()).expect("create trace file"),
        ));
        let emitted = Arc::new(std::sync::Barrier::new(3));
        let release = Arc::new(std::sync::Barrier::new(3));
        std::thread::scope(|s| {
            for _ in 0..2 {
                let emitted = emitted.clone();
                let release = release.clone();
                s.spawn(move || {
                    counter("live.worker.buffered", 1);
                    emitted.wait();
                    release.wait();
                });
            }
            emitted.wait();
            flush();
            let text = std::fs::read_to_string(&path).unwrap();
            let report = report::parse_trace(&text).expect("flushed trace parses");
            assert_eq!(
                report.counters["live.worker.buffered"].total, 2.0,
                "flush must write out the lines of threads that are still alive"
            );
            release.wait();
        });
        remove_sink(handle);
    }

    #[test]
    fn flight_recorder_captures_without_any_sink() {
        let _guard = TEST_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        assert!(!enabled());
        enable_flight();
        assert!(enabled(), "flight recording counts as enabled");
        counter("flight.lib.test", 5);
        let span = span("flight.lib.span");
        assert!(span.is_active());
        drop(span);
        disable_flight();
        assert!(!enabled());
        let me = thread_ordinal();
        let snap = flight_snapshot();
        let (_, text) = snap.iter().find(|(t, _)| *t == me).expect("ring registered");
        let (report, skipped) = report::parse_trace_lossy(text);
        assert_eq!(skipped, 0);
        assert!(report.counters["flight.lib.test"].total >= 5.0);
        assert!(report.has_span("flight.lib.span"));
        // Mirrored into the registry under the snet_* namespace too.
        assert!(registry::counter_value("flight.lib.test").unwrap() >= 5.0);
    }

    #[test]
    fn trace_file_roundtrip_through_report() {
        let dir = std::env::temp_dir().join("snet-obs-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("roundtrip.jsonl");
        let path = path.to_str().unwrap();
        {
            let _guard = TEST_LOCK.lock().unwrap_or_else(|p| p.into_inner());
            let handle =
                install_sink(Arc::new(JsonlSink::create(path).expect("create trace file")));
            RunManifest::capture("obs-test").emit();
            {
                let _outer = span("phase.outer").attr("k", 3);
                let _inner = span("phase.inner");
                counter("work.items", 7);
                gauge("work.progress", 1.0);
            }
            remove_sink(handle);
        }
        let text = std::fs::read_to_string(path).unwrap();
        let report = report::parse_trace(&text).expect("trace parses");
        assert!(report.has_span("phase.outer"));
        assert!(report.has_span("phase.inner"));
        assert_eq!(report.counters["work.items"].total, 7.0);
        assert_eq!(report.gauges["work.progress"], 1.0);
        let manifest = report.manifest.as_ref().expect("manifest recorded");
        assert!(manifest.iter().any(|(k, v)| k == "tool" && v == "obs-test"));
        let rendered = report::render(&report);
        assert!(rendered.contains("phase.outer") && rendered.contains("work.items"));
    }
}
