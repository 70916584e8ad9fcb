//! Chrome trace-event export: converts a JSONL trace into the JSON
//! object format `chrome://tracing` and Perfetto load directly.
//!
//! Mapping:
//!
//! * finished spans → complete (`"ph":"X"`) duration events on the lane
//!   of their emitting thread, span attrs as `args`;
//! * spans that started but never ended (truncated trace) → begin
//!   (`"ph":"B"`) events, which the viewers render as open-ended;
//! * counters → cumulative counter tracks (`"ph":"C"`), one per name;
//! * gauges → counter tracks carrying the raw sample;
//! * histogram snapshots → global instant events (`"ph":"i"`) whose
//!   `args` hold the percentile summary;
//! * the run manifest → `process_name` metadata plus an instant event
//!   with the full manifest as `args`;
//! * every thread ordinal seen → `thread_name`/`thread_sort_index`
//!   metadata, so worker lanes are labelled and ordered.
//!
//! Timestamps are microseconds since the run epoch, which is exactly the
//! trace-event format's native unit.

use crate::event::{Event, EventKind};
use crate::json::{num, obj, str_map};
use serde::{Serialize, Value};
use std::collections::{BTreeMap, BTreeSet};

/// The fixed process id stamped on every exported event (one trace file
/// is one process).
const PID: u64 = 1;

/// One trace event: the common `ph`/`name`/`pid`/`tid`/`ts` head, then
/// the phase-specific fields in order.
fn record(ph: &str, name: &str, tid: u64, ts: u64, rest: Vec<(&str, Value)>) -> Value {
    let mut fields = vec![
        ("ph", ph.serialize()),
        ("name", name.serialize()),
        ("pid", PID.serialize()),
        ("tid", tid.serialize()),
        ("ts", ts.serialize()),
    ];
    fields.extend(rest);
    obj(fields)
}

/// `args` holding a single named value.
fn arg(key: &str, value: Value) -> (&'static str, Value) {
    ("args", obj(vec![(key, value)]))
}

/// Converts parsed trace events into a Chrome trace-event JSON document
/// (the object form: `{"displayTimeUnit": …, "traceEvents": […]}`).
pub fn to_chrome_trace(events: &[Event]) -> String {
    let mut records: Vec<Value> = Vec::with_capacity(events.len() + 8);

    // Metadata: process name (from the manifest when present) and one
    // labelled, sorted lane per thread ordinal.
    let tool = events
        .iter()
        .find(|e| e.kind == EventKind::Manifest)
        .and_then(|e| e.attr("tool"))
        .unwrap_or("snet");
    records.push(record("M", "process_name", 0, 0, vec![arg("name", tool.serialize())]));

    // Threads that published a lane label (via `thread_lane`) are named
    // by role; the rest keep the generic ordinal label. Last label wins,
    // matching the emitter's "re-label if reused" contract.
    let mut lanes: BTreeMap<u64, &str> = BTreeMap::new();
    for e in events {
        if e.name == crate::THREAD_LANE_EVENT {
            if let Some(lane) = e.attr("lane") {
                lanes.insert(e.thread, lane);
            }
        }
    }

    let threads: BTreeSet<u64> = events.iter().map(|e| e.thread).collect();
    for &tid in &threads {
        let label = match lanes.get(&tid) {
            Some(lane) => lane.to_string(),
            None if tid == 0 => "main".to_string(),
            None => format!("worker-{tid}"),
        };
        records.push(record("M", "thread_name", tid, 0, vec![arg("name", label.serialize())]));
        records.push(record(
            "M",
            "thread_sort_index",
            tid,
            0,
            vec![arg("sort_index", tid.serialize())],
        ));
    }

    // Spans that started but never finished surface as "B" events.
    let ended: BTreeSet<u64> =
        events.iter().filter(|e| e.kind == EventKind::SpanEnd).map(|e| e.id).collect();

    // Counter tracks are cumulative sums in emission order.
    let mut totals: BTreeMap<&str, f64> = BTreeMap::new();

    for e in events {
        let rec = match e.kind {
            EventKind::SpanEnd => {
                let ts = e.t_us.saturating_sub(e.dur_us);
                let mut rest = vec![("dur", e.dur_us.serialize())];
                if !e.attrs.is_empty() {
                    rest.push(("args", str_map(&e.attrs)));
                }
                record("X", &e.name, e.thread, ts, rest)
            }
            EventKind::SpanStart => {
                if ended.contains(&e.id) {
                    continue; // covered by the complete event
                }
                record("B", &e.name, e.thread, e.t_us, Vec::new())
            }
            EventKind::Counter => {
                let total = totals.entry(e.name.as_str()).or_insert(0.0);
                *total += e.value;
                record("C", &e.name, 0, e.t_us, vec![arg("value", num(*total))])
            }
            EventKind::Gauge => {
                if e.name == crate::THREAD_LANE_EVENT {
                    continue; // consumed above as thread_name metadata
                }
                record("C", &e.name, 0, e.t_us, vec![arg("value", num(e.value))])
            }
            EventKind::Hist | EventKind::Manifest => record(
                "i",
                &e.name,
                e.thread,
                e.t_us,
                vec![("s", "g".serialize()), ("args", str_map(&e.attrs))],
            ),
        };
        records.push(rec);
    }

    // One event per line, so large exports stay greppable and diffable.
    let lines: Vec<String> = records
        .iter()
        .map(|r| serde_json::to_string(r).expect("a value tree always serializes"))
        .collect();
    format!("{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n{}\n]}}\n", lines.join(",\n"))
}

/// Parses a JSONL trace and exports it ([`to_chrome_trace`] over
/// [`crate::report::parse_events`]).
pub fn trace_to_chrome(trace_text: &str) -> Result<String, String> {
    Ok(to_chrome_trace(&crate::report::parse_events(trace_text)?))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(kind: EventKind, name: &str, id: u64, thread: u64, t_us: u64, dur_us: u64) -> Event {
        Event {
            kind,
            name: name.into(),
            id,
            parent: 0,
            thread,
            t_us,
            dur_us,
            value: 0.0,
            attrs: Vec::new(),
        }
    }

    #[test]
    fn spans_become_complete_events_on_thread_lanes() {
        let mut end = ev(EventKind::SpanEnd, "search.worker", 3, 2, 150, 100);
        end.attrs.push(("tasks".into(), "7".into()));
        let events = vec![ev(EventKind::SpanStart, "search.worker", 3, 2, 50, 0), end];
        let json = to_chrome_trace(&events);
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"tid\":2"));
        assert!(json.contains("\"ts\":50"));
        assert!(json.contains("\"dur\":100"));
        assert!(json.contains("\"tasks\":\"7\""));
        assert!(json.contains("\"name\":\"worker-2\""), "thread lane is labelled: {json}");
        // The start is absorbed into the complete event.
        assert!(!json.contains("\"ph\":\"B\""));
    }

    #[test]
    fn unfinished_spans_surface_as_begin_events() {
        let events = vec![ev(EventKind::SpanStart, "search.run", 1, 0, 10, 0)];
        let json = to_chrome_trace(&events);
        assert!(json.contains("\"ph\":\"B\""));
        assert!(!json.contains("\"ph\":\"X\""));
    }

    #[test]
    fn counters_accumulate_into_tracks() {
        let mut a = ev(EventKind::Counter, "search.nodes", 0, 1, 10, 0);
        a.value = 5.0;
        let mut b = a.clone();
        b.t_us = 20;
        b.value = 7.0;
        let json = to_chrome_trace(&[a, b]);
        assert!(json.contains("\"ph\":\"C\""));
        assert!(json.contains("{\"value\":5}"));
        assert!(json.contains("{\"value\":12}"), "counter track is cumulative: {json}");
    }

    #[test]
    fn lane_events_name_their_threads_and_leave_no_counter_track() {
        let mut lane = ev(EventKind::Gauge, crate::THREAD_LANE_EVENT, 0, 4, 5, 0);
        lane.attrs.push(("lane".into(), "http-worker-2".into()));
        let work = {
            let mut e = ev(EventKind::SpanEnd, "http.request", 9, 4, 40, 30);
            e.attrs.push(("endpoint".into(), "/healthz".into()));
            e
        };
        let json =
            to_chrome_trace(&[lane, ev(EventKind::SpanStart, "http.request", 9, 4, 10, 0), work]);
        assert!(json.contains("\"name\":\"http-worker-2\""), "lane label wins: {json}");
        assert!(!json.contains("\"name\":\"worker-4\""), "generic label suppressed: {json}");
        assert!(
            !json.contains(&format!("\"ph\":\"C\",\"name\":\"{}\"", crate::THREAD_LANE_EVENT)),
            "lane events are metadata, not counter tracks: {json}"
        );
    }

    #[test]
    fn manifest_names_the_process_and_roundtrips_from_jsonl() {
        let manifest = crate::RunManifest::capture("unit-tool").to_event();
        let jsonl = manifest.to_json_line();
        let json = trace_to_chrome(&jsonl).expect("trace parses");
        assert!(json.contains("\"process_name\""));
        assert!(json.contains("\"name\":\"unit-tool\""));
        assert!(trace_to_chrome("not json").is_err());
    }
}
