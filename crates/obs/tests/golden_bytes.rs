//! Golden bytes of the trace formats, captured before they moved onto
//! `serde_json`: JSONL event lines for all six kinds, the Chrome export
//! of the same events, and every committed baseline file.

use snet_obs::{Baseline, Event, EventKind, RunManifest};

#[allow(clippy::too_many_arguments)]
fn ev(
    kind: EventKind,
    name: &str,
    id: u64,
    parent: u64,
    thread: u64,
    t_us: u64,
    dur_us: u64,
    value: f64,
    attrs: &[(&str, &str)],
) -> Event {
    Event {
        kind,
        name: name.into(),
        id,
        parent,
        thread,
        t_us,
        dur_us,
        value,
        attrs: attrs.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect(),
    }
}

fn manifest() -> RunManifest {
    RunManifest {
        schema: snet_obs::MANIFEST_SCHEMA.into(),
        tool: "golden \"tool\"".into(),
        args: vec!["--n".into(), "7".into()],
        git_commit: "0123abcd".into(),
        rustc_version: "rustc 1.0.0".into(),
        available_parallelism: 2,
        snet_threads: None,
        started_unix_ms: 1700000000000,
        os: "linux".into(),
        arch: "x86_64".into(),
        host: "höst\n1".into(),
        extras: vec![("seed".into(), "41".into())],
    }
}

/// All six kinds; attrs with quotes, control characters and non-ASCII;
/// integral, negative, huge, fractional, tiny and non-finite values.
fn events() -> Vec<Event> {
    use EventKind::*;
    let mut m = manifest().to_event();
    m.t_us = 1;
    let lane = snet_obs::THREAD_LANE_EVENT;
    vec![
        m,
        ev(Gauge, lane, 0, 0, 2, 2, 0, 0.0, &[("lane", "search-worker-0")]),
        ev(SpanStart, "search.run", 1, 0, 0, 10, 0, 0.0, &[]),
        ev(SpanStart, "search.worker", 2, 1, 2, 12, 0, 0.0, &[]),
        ev(
            SpanEnd,
            "search.worker",
            2,
            1,
            2,
            90,
            78,
            0.0,
            &[
                ("note", "a \"quoted\"\nline\twith\\slash\r"),
                ("wire", "ü→✓ 😀"),
                ("ctl", "\u{1}\u{1f}"),
            ],
        ),
        ev(Counter, "search.nodes", 0, 0, 2, 91, 0, 64.0, &[]),
        ev(Counter, "search.nodes", 0, 0, 2, 92, 0, 1e20, &[]),
        ev(Counter, "search.nodes", 0, 0, 0, 93, 0, -3.0, &[]),
        ev(Gauge, "search.progress", 0, 0, 0, 94, 0, 0.125, &[("done", "1"), ("total", "8")]),
        ev(Gauge, "search.tiny", 0, 0, 0, 95, 0, 1.5e-7, &[]),
        ev(Gauge, "search.inf", 0, 0, 0, 96, 0, f64::INFINITY, &[]),
        ev(
            Hist,
            "search.task.nodes",
            0,
            0,
            1,
            97,
            0,
            f64::NAN,
            &[("buckets", "3:1,10:2"), ("count", "3"), ("max", "1000")],
        ),
        ev(SpanStart, "search.open", 3, 1, 1, 98, 0, 0.0, &[]),
        ev(SpanEnd, "search.run", 1, 0, 0, 100, 90, 2.5, &[("n", "7")]),
    ]
}

const EVENT_LINES: &[&str] = &[
    r#"{"type":"manifest","name":"run.manifest","id":0,"parent":0,"thread":0,"t_us":1,"attrs":{"schema":"snet-obs-manifest/1","tool":"golden \"tool\"","args":"--n 7","git_commit":"0123abcd","rustc_version":"rustc 1.0.0","available_parallelism":"2","snet_threads":"unset","started_unix_ms":"1700000000000","os":"linux","arch":"x86_64","host":"höst\n1","seed":"41"}}"#,
    r#"{"type":"gauge","name":"obs.thread.lane","id":0,"parent":0,"thread":2,"t_us":2,"attrs":{"lane":"search-worker-0"}}"#,
    r#"{"type":"span_start","name":"search.run","id":1,"parent":0,"thread":0,"t_us":10}"#,
    r#"{"type":"span_start","name":"search.worker","id":2,"parent":1,"thread":2,"t_us":12}"#,
    r#"{"type":"span_end","name":"search.worker","id":2,"parent":1,"thread":2,"t_us":90,"dur_us":78,"attrs":{"note":"a \"quoted\"\nline\twith\\slash\r","wire":"ü→✓ 😀","ctl":"\u0001\u001f"}}"#,
    r#"{"type":"counter","name":"search.nodes","id":0,"parent":0,"thread":2,"t_us":91,"value":64}"#,
    r#"{"type":"counter","name":"search.nodes","id":0,"parent":0,"thread":2,"t_us":92,"value":100000000000000000000}"#,
    r#"{"type":"counter","name":"search.nodes","id":0,"parent":0,"thread":0,"t_us":93,"value":-3}"#,
    r#"{"type":"gauge","name":"search.progress","id":0,"parent":0,"thread":0,"t_us":94,"value":0.125,"attrs":{"done":"1","total":"8"}}"#,
    r#"{"type":"gauge","name":"search.tiny","id":0,"parent":0,"thread":0,"t_us":95,"value":0.00000015}"#,
    r#"{"type":"gauge","name":"search.inf","id":0,"parent":0,"thread":0,"t_us":96,"value":0}"#,
    r#"{"type":"hist","name":"search.task.nodes","id":0,"parent":0,"thread":1,"t_us":97,"value":0,"attrs":{"buckets":"3:1,10:2","count":"3","max":"1000"}}"#,
    r#"{"type":"span_start","name":"search.open","id":3,"parent":1,"thread":1,"t_us":98}"#,
    r#"{"type":"span_end","name":"search.run","id":1,"parent":0,"thread":0,"t_us":100,"dur_us":90,"value":2.5,"attrs":{"n":"7"}}"#,
];

#[test]
fn event_lines_keep_their_bytes() {
    let lines: Vec<String> = events().iter().map(Event::to_json_line).collect();
    assert_eq!(lines, EVENT_LINES);
}

#[test]
fn event_lines_parse_back() {
    for (line, event) in EVENT_LINES.iter().zip(events()) {
        let back = snet_obs::report::parse_event_line(line).expect("golden line parses");
        // Non-finite values encode as 0; everything else round-trips.
        let value = if event.value.is_finite() { event.value } else { 0.0 };
        assert_eq!(back, Event { value, ..event });
    }
}

#[test]
fn manifest_object_keeps_its_bytes() {
    let expected = r#"{"schema":"snet-obs-manifest/1","tool":"golden \"tool\"","args":"--n 7","git_commit":"0123abcd","rustc_version":"rustc 1.0.0","available_parallelism":"2","snet_threads":"unset","started_unix_ms":"1700000000000","os":"linux","arch":"x86_64","host":"höst\n1","seed":"41"}"#;
    assert_eq!(serde_json::to_string(&manifest()).unwrap(), expected);
}

const CHROME: &str = r#"{"displayTimeUnit":"ms","traceEvents":[
{"ph":"M","name":"process_name","pid":1,"tid":0,"ts":0,"args":{"name":"golden \"tool\""}},
{"ph":"M","name":"thread_name","pid":1,"tid":0,"ts":0,"args":{"name":"main"}},
{"ph":"M","name":"thread_sort_index","pid":1,"tid":0,"ts":0,"args":{"sort_index":0}},
{"ph":"M","name":"thread_name","pid":1,"tid":1,"ts":0,"args":{"name":"worker-1"}},
{"ph":"M","name":"thread_sort_index","pid":1,"tid":1,"ts":0,"args":{"sort_index":1}},
{"ph":"M","name":"thread_name","pid":1,"tid":2,"ts":0,"args":{"name":"search-worker-0"}},
{"ph":"M","name":"thread_sort_index","pid":1,"tid":2,"ts":0,"args":{"sort_index":2}},
{"ph":"i","name":"run.manifest","pid":1,"tid":0,"ts":1,"s":"g","args":{"schema":"snet-obs-manifest/1","tool":"golden \"tool\"","args":"--n 7","git_commit":"0123abcd","rustc_version":"rustc 1.0.0","available_parallelism":"2","snet_threads":"unset","started_unix_ms":"1700000000000","os":"linux","arch":"x86_64","host":"höst\n1","seed":"41"}},
{"ph":"X","name":"search.worker","pid":1,"tid":2,"ts":12,"dur":78,"args":{"note":"a \"quoted\"\nline\twith\\slash\r","wire":"ü→✓ 😀","ctl":"\u0001\u001f"}},
{"ph":"C","name":"search.nodes","pid":1,"tid":0,"ts":91,"args":{"value":64}},
{"ph":"C","name":"search.nodes","pid":1,"tid":0,"ts":92,"args":{"value":100000000000000000000}},
{"ph":"C","name":"search.nodes","pid":1,"tid":0,"ts":93,"args":{"value":100000000000000000000}},
{"ph":"C","name":"search.progress","pid":1,"tid":0,"ts":94,"args":{"value":0.125}},
{"ph":"C","name":"search.tiny","pid":1,"tid":0,"ts":95,"args":{"value":0.00000015}},
{"ph":"C","name":"search.inf","pid":1,"tid":0,"ts":96,"args":{"value":0}},
{"ph":"i","name":"search.task.nodes","pid":1,"tid":1,"ts":97,"s":"g","args":{"buckets":"3:1,10:2","count":"3","max":"1000"}},
{"ph":"B","name":"search.open","pid":1,"tid":1,"ts":98},
{"ph":"X","name":"search.run","pid":1,"tid":0,"ts":10,"dur":90,"args":{"n":"7"}}
]}
"#;

#[test]
fn chrome_export_keeps_its_bytes() {
    assert_eq!(snet_obs::to_chrome_trace(&events()), CHROME);
}

#[test]
fn committed_baselines_reserialize_byte_identically() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results/baselines");
    let mut paths: Vec<_> = std::fs::read_dir(dir).unwrap().map(|e| e.unwrap().path()).collect();
    paths.sort();
    assert!(paths.len() >= 10, "baselines found: {paths:?}");
    for path in paths {
        let text = std::fs::read_to_string(&path).unwrap();
        let baseline = Baseline::parse(&text).unwrap();
        assert_eq!(baseline.to_json(), text, "{}", path.display());
    }
}
