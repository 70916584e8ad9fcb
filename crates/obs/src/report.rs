//! Reads a JSONL trace back into a [`Report`]: the reconstructed span
//! tree plus counter and gauge summaries. This is what `snetctl report`
//! renders. Lines parse through `serde_json` into [`Event`]s.

use crate::event::{Event, EventKind};
use crate::hist::HistSnapshot;
use std::collections::BTreeMap;

/// One reconstructed span with its children (children sorted by start
/// time).
#[derive(Debug, Clone, PartialEq)]
pub struct SpanNode {
    /// Span name.
    pub name: String,
    /// Span id.
    pub id: u64,
    /// Emitting thread ordinal.
    pub thread: u64,
    /// Start time (µs since the run epoch).
    pub start_us: u64,
    /// Wall duration in µs.
    pub dur_us: u64,
    /// Attributes attached over the span's lifetime.
    pub attrs: Vec<(String, String)>,
    /// Nested spans.
    pub children: Vec<SpanNode>,
}

/// Aggregated view of one counter name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CounterSummary {
    /// Number of increments observed.
    pub increments: u64,
    /// Sum of all deltas.
    pub total: f64,
}

/// A parsed trace: manifest, span forest, counter and gauge summaries.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Report {
    /// The run manifest's key/value pairs, if the trace recorded one.
    pub manifest: Option<Vec<(String, String)>>,
    /// Root spans in start order.
    pub roots: Vec<SpanNode>,
    /// Counter totals by name.
    pub counters: BTreeMap<String, CounterSummary>,
    /// Winning gauge value by name. "Last value wins" is decided by the
    /// deterministic `(t_us, thread)` key, not file order, so gauges
    /// reported from multiple threads merge the same way no matter how
    /// the emitting threads' events interleaved in the trace file.
    pub gauges: BTreeMap<String, f64>,
    /// Histogram snapshots by name (same-name snapshots merge).
    pub hists: BTreeMap<String, HistSnapshot>,
    /// Events parsed.
    pub events: usize,
}

impl Report {
    /// True iff the report contains no events at all.
    pub fn is_empty(&self) -> bool {
        self.events == 0
    }

    /// True iff a span with this name exists anywhere in the forest.
    pub fn has_span(&self, name: &str) -> bool {
        fn walk(nodes: &[SpanNode], name: &str) -> bool {
            nodes.iter().any(|n| n.name == name || walk(&n.children, name))
        }
        walk(&self.roots, name)
    }
}

/// Parses a whole JSONL trace into its raw event list. Fails on the
/// first malformed line (reporting its number); empty lines are skipped.
pub fn parse_events(text: &str) -> Result<Vec<Event>, String> {
    let mut events = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let ev = parse_event_line(line)
            .ok_or_else(|| format!("line {}: not a trace event: {line}", lineno + 1))?;
        events.push(ev);
    }
    Ok(events)
}

/// Parses a whole JSONL trace. Fails on the first malformed line
/// (reporting its number); an empty file yields an empty report.
pub fn parse_trace(text: &str) -> Result<Report, String> {
    Ok(summarize(parse_events(text)?))
}

/// Parses a JSONL trace leniently, skipping malformed lines instead of
/// failing. Returns the report and how many lines were skipped. This is
/// how flight-recorder dumps are read: a ring captured mid-write can
/// hold a torn tail line (and, after a wrap, a torn head), which is
/// damage worth tolerating, not a reason to refuse the rest.
pub fn parse_trace_lossy(text: &str) -> (Report, usize) {
    let mut events = Vec::new();
    let mut skipped = 0usize;
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        match parse_event_line(line) {
            Some(ev) => events.push(ev),
            None => skipped += 1,
        }
    }
    (summarize(events), skipped)
}

/// Aggregates an event list into a [`Report`].
pub fn summarize(events: Vec<Event>) -> Report {
    let mut report = Report::default();
    // id → finished span (start, dur, name, parent, thread, attrs).
    let mut ended: Vec<Event> = Vec::new();
    // Deterministic "last value wins" for gauges: keyed by
    // `(t_us, thread)`, not line order (which depends on how the
    // emitting threads were scheduled).
    let mut gauge_keys: BTreeMap<String, (u64, u64)> = BTreeMap::new();
    for ev in events {
        report.events += 1;
        match ev.kind {
            EventKind::Manifest => report.manifest = Some(ev.attrs),
            EventKind::Counter => {
                let c = report.counters.entry(ev.name).or_default();
                c.increments += 1;
                c.total += ev.value;
            }
            EventKind::Gauge => {
                if ev.name == crate::THREAD_LANE_EVENT {
                    continue; // thread metadata, not a measurement
                }
                let key = (ev.t_us, ev.thread);
                if gauge_keys.get(&ev.name).is_none_or(|&existing| key >= existing) {
                    gauge_keys.insert(ev.name.clone(), key);
                    report.gauges.insert(ev.name, ev.value);
                }
            }
            EventKind::Hist => {
                if let Some(snap) = HistSnapshot::from_attrs(&ev.attrs) {
                    report.hists.entry(ev.name).or_default().merge(&snap);
                }
            }
            EventKind::SpanStart => {}
            EventKind::SpanEnd => ended.push(ev),
        }
    }
    report.roots = build_forest(ended);
    report
}

/// Assembles finished spans into a forest. Orphans (parent id never
/// ended, e.g. a truncated trace) are promoted to roots.
fn build_forest(ended: Vec<Event>) -> Vec<SpanNode> {
    let known: std::collections::BTreeSet<u64> = ended.iter().map(|e| e.id).collect();
    let mut children_of: BTreeMap<u64, Vec<SpanNode>> = BTreeMap::new();
    let mut order: Vec<(u64, u64)> = Vec::new(); // (id, parent)
    for e in &ended {
        order.push((e.id, e.parent));
    }
    // Build leaves-first: process in descending id order (a child's id is
    // always allocated after its parent's).
    let mut by_id: BTreeMap<u64, Event> = ended.into_iter().map(|e| (e.id, e)).collect();
    let ids: Vec<u64> = by_id.keys().rev().copied().collect();
    for id in ids {
        let e = by_id.remove(&id).expect("present");
        let mut kids = children_of.remove(&id).unwrap_or_default();
        kids.sort_by_key(|c| c.start_us);
        let node = SpanNode {
            name: e.name,
            id: e.id,
            thread: e.thread,
            start_us: e.t_us.saturating_sub(e.dur_us),
            dur_us: e.dur_us,
            attrs: e.attrs,
            children: kids,
        };
        let parent = if known.contains(&e.parent) { e.parent } else { 0 };
        children_of.entry(parent).or_default().push(node);
    }
    let mut roots = children_of.remove(&0).unwrap_or_default();
    roots.sort_by_key(|r| r.start_us);
    roots
}

/// Renders a report as human-readable text: manifest header, span tree
/// with durations and attrs, counter and gauge tables.
pub fn render(report: &Report) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    if let Some(manifest) = &report.manifest {
        let _ = writeln!(out, "run manifest:");
        for (k, v) in manifest {
            let _ = writeln!(out, "  {k:<24} {v}");
        }
        let _ = writeln!(out);
    }
    let _ = writeln!(out, "span tree ({} events):", report.events);
    fn node(out: &mut String, n: &SpanNode, depth: usize) {
        use std::fmt::Write as _;
        let indent = "  ".repeat(depth + 1);
        let attrs = if n.attrs.is_empty() {
            String::new()
        } else {
            let kv: Vec<String> = n.attrs.iter().map(|(k, v)| format!("{k}={v}")).collect();
            format!("  [{}]", kv.join(" "))
        };
        let _ = writeln!(out, "{indent}{:<32} {:>12}{attrs}", n.name, human_us(n.dur_us));
        for c in &n.children {
            node(out, c, depth + 1);
        }
    }
    for root in &report.roots {
        node(&mut out, root, 0);
    }
    if report.roots.is_empty() {
        let _ = writeln!(out, "  (no spans)");
    }
    if !report.counters.is_empty() {
        let _ = writeln!(out);
        let _ = writeln!(out, "{:<34} {:>14} {:>12}", "counter", "total", "increments");
        for (name, c) in &report.counters {
            let _ = writeln!(
                out,
                "{name:<34} {:>14} {:>12}",
                crate::event::fmt_f64(c.total),
                c.increments
            );
        }
    }
    if !report.gauges.is_empty() {
        let _ = writeln!(out);
        let _ = writeln!(out, "{:<34} {:>14}", "gauge (last)", "value");
        for (name, v) in &report.gauges {
            let _ = writeln!(out, "{name:<34} {:>14}", crate::event::fmt_f64(*v));
        }
    }
    if !report.hists.is_empty() {
        let _ = writeln!(out);
        out.push_str(&render_hist_table(report.hists.iter().map(|(k, v)| (k.as_str(), v))));
    }
    out
}

/// Renders named histogram snapshots as a percentile table (the shared
/// rendering used by `snetctl report` and `snetctl search --stats`).
pub fn render_hist_table<'a>(
    rows: impl IntoIterator<Item = (&'a str, &'a HistSnapshot)>,
) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<34} {:>10} {:>10} {:>10} {:>10} {:>10} {:>12}",
        "histogram", "count", "p50", "p90", "p99", "max", "mean"
    );
    for (name, h) in rows {
        let _ = writeln!(
            out,
            "{name:<34} {:>10} {:>10} {:>10} {:>10} {:>10} {:>12.1}",
            h.count,
            h.percentile(50.0),
            h.percentile(90.0),
            h.percentile(99.0),
            h.max,
            h.mean()
        );
    }
    out
}

/// Renders labelled counts as a share-of-total breakdown table (used by
/// `snetctl search --stats` for the prune breakdown).
pub fn render_breakdown(title: &str, total: u64, rows: &[(&str, u64)]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "{title:<34} {:>14} {:>10}", "count", "% of total");
    for (label, count) in rows {
        let pct = if total == 0 { 0.0 } else { 100.0 * *count as f64 / total as f64 };
        let _ = writeln!(out, "  {label:<32} {count:>14} {pct:>9.2}%");
    }
    out
}

/// `1234567` µs → `"1.235s"`; adaptive µs/ms/s units.
pub fn human_us(us: u64) -> String {
    if us >= 1_000_000 {
        format!("{:.3}s", us as f64 / 1e6)
    } else if us >= 1_000 {
        format!("{:.2}ms", us as f64 / 1e3)
    } else {
        format!("{us}µs")
    }
}

/// Parses one JSONL trace line back into an [`Event`]. Returns `None`
/// for anything [`Event::to_json_line`] could not have produced: an
/// unknown key, a value of the wrong type, or a missing `type`.
pub fn parse_event_line(line: &str) -> Option<Event> {
    serde_json::from_str(line).ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(kind: EventKind, name: &str, id: u64, parent: u64, t: u64, dur: u64) -> String {
        Event {
            kind,
            name: name.into(),
            id,
            parent,
            thread: 0,
            t_us: t,
            dur_us: dur,
            value: 0.0,
            attrs: Vec::new(),
        }
        .to_json_line()
    }

    #[test]
    fn forest_reconstruction_nests_and_orders() {
        // compile(1) { lower(2), pass(3) }  check(4) { shard(5), shard(6) }
        let text = [
            line(EventKind::SpanEnd, "ir.lower", 2, 1, 20, 10),
            line(EventKind::SpanEnd, "ir.pass", 3, 1, 40, 15),
            line(EventKind::SpanEnd, "ir.compile", 1, 0, 50, 45),
            line(EventKind::SpanEnd, "check.shard", 6, 4, 90, 9),
            line(EventKind::SpanEnd, "check.shard", 5, 4, 80, 15),
            line(EventKind::SpanEnd, "check.zero_one", 4, 0, 100, 40),
        ]
        .join("\n");
        let report = parse_trace(&text).expect("parses");
        assert_eq!(report.roots.len(), 2);
        assert_eq!(report.roots[0].name, "ir.compile");
        let names: Vec<&str> = report.roots[0].children.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, vec!["ir.lower", "ir.pass"]);
        assert_eq!(report.roots[1].children.len(), 2);
        // Children sorted by start time: shard 5 starts at 65, shard 6 at 81.
        assert!(report.roots[1].children[0].start_us <= report.roots[1].children[1].start_us);
        assert!(report.has_span("check.shard"));
        assert!(!report.has_span("nonexistent"));
        let rendered = render(&report);
        assert!(rendered.contains("ir.compile"));
        assert!(rendered.contains("check.zero_one"));
    }

    #[test]
    fn counters_and_gauges_aggregate() {
        let mut ev = Event {
            kind: EventKind::Counter,
            name: "check.inputs".into(),
            id: 0,
            parent: 0,
            thread: 0,
            t_us: 0,
            dur_us: 0,
            value: 64.0,
            attrs: Vec::new(),
        };
        let mut lines = vec![ev.to_json_line(), ev.to_json_line()];
        ev.kind = EventKind::Gauge;
        ev.name = "check.progress".into();
        ev.value = 0.5;
        lines.push(ev.to_json_line());
        ev.value = 1.0;
        lines.push(ev.to_json_line());
        let report = parse_trace(&lines.join("\n")).unwrap();
        let c = report.counters.get("check.inputs").unwrap();
        assert_eq!(c.increments, 2);
        assert_eq!(c.total, 128.0);
        assert_eq!(report.gauges.get("check.progress"), Some(&1.0));
        assert!(render(&report).contains("check.inputs"));
    }

    #[test]
    fn orphan_spans_become_roots_and_bad_lines_error() {
        let text = line(EventKind::SpanEnd, "lost.child", 9, 4, 10, 5);
        let report = parse_trace(&text).unwrap();
        assert_eq!(report.roots.len(), 1);
        assert_eq!(report.roots[0].name, "lost.child");
        assert!(parse_trace("not json at all").is_err());
        assert!(parse_trace("{\"no_type\": 1}").is_err());
        assert_eq!(parse_trace("").unwrap().events, 0);
    }

    #[test]
    fn gauge_merge_is_deterministic_across_line_orders() {
        // Three threads report the same gauge; the trace file order of
        // the lines depends on thread scheduling. The winner
        // must be the maximal (t_us, thread) key in every ordering.
        let mut gauges = Vec::new();
        for (thread, t_us, value) in [(0u64, 50u64, 0.1f64), (2, 90, 0.7), (1, 90, 0.5)] {
            gauges.push(
                Event {
                    kind: EventKind::Gauge,
                    name: "search.progress".into(),
                    id: 0,
                    parent: 0,
                    thread,
                    t_us,
                    dur_us: 0,
                    value,
                    attrs: Vec::new(),
                }
                .to_json_line(),
            );
        }
        // All 6 permutations of the three lines agree.
        let perms: [[usize; 3]; 6] =
            [[0, 1, 2], [0, 2, 1], [1, 0, 2], [1, 2, 0], [2, 0, 1], [2, 1, 0]];
        for perm in perms {
            let text: Vec<&str> = perm.iter().map(|&i| gauges[i].as_str()).collect();
            let report = parse_trace(&text.join("\n")).unwrap();
            // (90, thread 2) beats (90, thread 1) beats (50, thread 0).
            assert_eq!(report.gauges["search.progress"], 0.7, "order {perm:?}");
        }
    }

    #[test]
    fn hist_events_merge_into_the_report() {
        let h = crate::hist::Histogram::new();
        h.record(10);
        h.record(1000);
        let snap = h.snapshot();
        let line = snap.to_event("search.task.nodes").to_json_line();
        let report = parse_trace(&format!("{line}\n{line}")).unwrap();
        let merged = &report.hists["search.task.nodes"];
        assert_eq!(merged.count, 4);
        assert_eq!(merged.sum, 2020);
        let rendered = render(&report);
        assert!(rendered.contains("search.task.nodes"));
        assert!(rendered.contains("p99"));
    }

    #[test]
    fn ids_above_2_pow_53_parse_exactly() {
        let big = (1u64 << 53) + 1;
        let mut ev = parse_event_line(&line(EventKind::SpanEnd, "x", 1, 0, 5, 1)).unwrap();
        ev.id = big;
        ev.parent = big - 2;
        ev.t_us = u64::MAX;
        let text = ev.to_json_line();
        assert!(text.contains("\"id\":9007199254740993"), "{text}");
        assert_eq!(parse_event_line(&text), Some(ev));
    }

    #[test]
    fn negative_fractional_and_mistyped_fields_are_rejected() {
        let ok = r#"{"type":"span_end","name":"x","id":3,"parent":0,"thread":0,"t_us":5}"#;
        assert!(parse_event_line(ok).is_some());
        for bad in [
            r#"{"type":"span_end","name":"x","id":-1}"#,
            r#"{"type":"span_end","name":"x","id":1.5}"#,
            r#"{"type":"span_end","name":"x","t_us":-7}"#,
            r#"{"type":"span_end","name":"x","thread":0.25}"#,
            r#"{"type":"span_end","name":"x","id":"3"}"#,
            r#"{"type":"span_end","name":7}"#,
            r#"{"type":"span_end","name":"x","id":null}"#,
            r#"{"type":"span_end","attrs":{"k":1}}"#,
            r#"{"type":"span_end","attrs":["k"]}"#,
            r#"{"type":"span_end","bogus":1}"#,
            r#"{"type":"nope"}"#,
            r#"{"name":"x","id":1}"#,
            r#"[{"type":"span_end"}]"#,
        ] {
            assert_eq!(parse_event_line(bad), None, "{bad}");
        }
    }

    #[test]
    fn human_us_units() {
        assert_eq!(human_us(5), "5µs");
        assert_eq!(human_us(1_500), "1.50ms");
        assert_eq!(human_us(2_500_000), "2.500s");
    }
}
