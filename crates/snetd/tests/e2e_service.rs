//! End-to-end service tests over real TCP: one in-process daemon per
//! test on an ephemeral port, exercised through the blocking client.
//!
//! The load-bearing assertions: a cold check compiles, verifies, and
//! persists; an identical warm check is a store hit whose bytes are
//! identical to the cold response without re-checking; concurrent
//! identical submissions compile exactly once (proved by the `ir.compile`
//! count in the leader job's manifest); `/v1/search` streams ND-JSON
//! progress frames to completion; `/metrics` stays valid Prometheus text
//! while jobs are in flight; and a drain cancels live jobs while leaving
//! a resumable search spill behind.

use serde::Value;
use snet_core::api::{
    AdversaryRequest, CheckRequest, FrameKind, JobState, JobStatus, ProgressFrame, SearchRequest,
};
use snet_core::element::{Element, ElementKind};
use snet_core::network::{ComparatorNetwork, Level};
use snet_core::verdict::{Verdict, VerdictKind};
use snet_service::{client, spawn, ServeConfig, ServerHandle};
use std::path::PathBuf;
use std::sync::{Arc, Barrier};
use std::time::Duration;

fn scratch_root(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("snetd-e2e-{}-{}", tag, std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn daemon(tag: &str) -> (ServerHandle, String, PathBuf) {
    let root = scratch_root(tag);
    let cfg = ServeConfig { store: Some(root.clone()), ..ServeConfig::default() };
    let handle = spawn(cfg).expect("daemon binds an ephemeral port");
    let addr = handle.addr.to_string();
    (handle, addr, root)
}

/// Odd-even transposition sort on `n` wires: `n` alternating brick
/// layers — depth-wasteful but certainly sorting, and its size scales
/// the check's work for the coalescing race below.
fn odd_even_transposition(n: u32) -> ComparatorNetwork {
    let levels = (0..n)
        .map(|round| {
            let mut elems = Vec::new();
            let mut w = round % 2;
            while w + 1 < n {
                elems.push(Element::cmp(w, w + 1));
                w += 2;
            }
            Level::of_elements(elems)
        })
        .collect();
    ComparatorNetwork::new(n as usize, levels).expect("valid brick network")
}

fn check_body(net: &ComparatorNetwork) -> Vec<u8> {
    serde_json::to_string(&CheckRequest { network: net.clone() })
        .expect("request serializes")
        .into_bytes()
}

#[test]
fn cold_check_computes_and_warm_check_replays_bytes_without_recompiling() {
    let (handle, addr, root) = daemon("warm");
    let body = check_body(&odd_even_transposition(8));

    let cold = client::request(&addr, "POST", "/v1/check", Some(&body)).unwrap();
    assert_eq!(cold.status, 200);
    assert_eq!(cold.header("x-snet-cache"), Some("miss"));
    let verdict = Verdict::parse(&cold.text()).expect("body is a verdict document");
    assert!(verdict.is_sorting(), "odd-even transposition sorts");
    let job_id = cold.header("x-snet-job").expect("a miss reports its job").to_string();

    let warm = client::request(&addr, "POST", "/v1/check", Some(&body)).unwrap();
    assert_eq!(warm.status, 200);
    assert_eq!(warm.header("x-snet-cache"), Some("hit"));
    assert_eq!(warm.body, cold.body, "warm hit replays the stored bytes verbatim");
    assert_eq!(warm.header("x-snet-job"), None, "no job runs on a warm hit");

    // The cold job's result carries the compile-once proof: exactly one
    // `ir.compile` span was attributed to it, echoed in its manifest.
    let status_resp = client::request(&addr, "GET", &format!("/v1/jobs/{job_id}"), None).unwrap();
    assert_eq!(status_resp.status, 200);
    let status = JobStatus::parse(&status_resp.text()).unwrap();
    assert_eq!(status.state, JobState::Done);
    let result = status.result.expect("done job carries a result");
    let manifest = result.get("manifest").expect("result embeds the run manifest");
    assert_eq!(
        manifest.get("ir.compile").and_then(Value::as_str),
        Some("1"),
        "the cold check compiled exactly once"
    );

    handle.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn concurrent_identical_checks_compile_exactly_once() {
    let (handle, addr, root) = daemon("coalesce");
    // Big enough that the exhaustive check leaves a real window for the
    // followers to land while the leader is mid-flight.
    let body = Arc::new(check_body(&odd_even_transposition(20)));

    const CLIENTS: usize = 4;
    let barrier = Arc::new(Barrier::new(CLIENTS));
    let mut threads = Vec::new();
    for _ in 0..CLIENTS {
        let addr = addr.clone();
        let body = body.clone();
        let barrier = barrier.clone();
        threads.push(std::thread::spawn(move || {
            barrier.wait();
            let resp = client::request(&addr, "POST", "/v1/check", Some(&body)).unwrap();
            assert_eq!(resp.status, 200);
            (
                resp.header("x-snet-cache").unwrap().to_string(),
                resp.header("x-snet-job").map(str::to_string),
                resp.body,
            )
        }));
    }
    let answers: Vec<(String, Option<String>, Vec<u8>)> =
        threads.into_iter().map(|t| t.join().unwrap()).collect();

    for (_, _, bytes) in &answers {
        assert_eq!(bytes, &answers[0].2, "every client receives identical bytes");
    }
    let misses = answers.iter().filter(|(c, _, _)| c == "miss").count();
    assert_eq!(misses, 1, "one canonical form has exactly one leading miss");
    let jobs: std::collections::BTreeSet<&String> =
        answers.iter().filter_map(|(_, j, _)| j.as_ref()).collect();
    assert_eq!(jobs.len(), 1, "miss and coalesced answers share one job");

    // The shared job compiled exactly once, even with 4 concurrent
    // submissions of the same canonical form.
    let job_id = jobs.into_iter().next().unwrap();
    let status_resp = client::request(&addr, "GET", &format!("/v1/jobs/{job_id}"), None).unwrap();
    let status = JobStatus::parse(&status_resp.text()).unwrap();
    let result = status.result.expect("check job result");
    let compiles = result.get("compile_spans").and_then(Value::as_u64);
    assert_eq!(compiles, Some(1), "coalesced submissions share one ir.compile span");

    handle.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn search_streams_progress_frames_and_metrics_stay_valid_midflight() {
    let (handle, addr, root) = daemon("stream");
    let req =
        SearchRequest { n: 4, mode: "unrestricted".into(), max_depth: None, threads: Some(2) };
    let body = serde_json::to_string(&req).unwrap();

    let mut frames: Vec<ProgressFrame> = Vec::new();
    let mut metrics_checked = false;
    let resp =
        client::stream_lines(&addr, "POST", "/v1/search", Some(body.as_bytes()), &mut |line| {
            frames.push(ProgressFrame::parse_line(line).expect("every line is one frame"));
            if !metrics_checked {
                // Scrape /metrics over a second connection while this job is
                // in flight; the exposition must parse cleanly.
                let m = client::request(&addr, "GET", "/metrics", None).unwrap();
                assert_eq!(m.status, 200);
                assert!(m.header("content-type").unwrap().starts_with("text/plain"));
                let parsed = snet_obs::promtext::parse(&m.text()).expect("valid Prometheus text");
                assert!(
                    parsed.series.iter().any(|s| s.name == "snet_httpd_requests_total"),
                    "service counters are exposed"
                );
                metrics_checked = true;
            }
            true
        })
        .unwrap();

    assert_eq!(resp.status, 200);
    assert!(metrics_checked, "at least one frame arrived while the job was live");
    let job_id = resp.header("x-snet-job").expect("stream reports its job").to_string();
    assert!(frames.len() >= 3, "lifecycle alone yields 3+ frames, got {}", frames.len());
    for (i, f) in frames.iter().enumerate() {
        assert_eq!(f.seq, i as u64, "sequence numbers are gapless");
        assert_eq!(f.job, job_id);
    }
    assert_eq!(frames.first().unwrap().kind, FrameKind::Lifecycle { state: JobState::Queued });
    assert_eq!(frames.last().unwrap().kind, FrameKind::Lifecycle { state: JobState::Done });

    let status_resp = client::request(&addr, "GET", &format!("/v1/jobs/{job_id}"), None).unwrap();
    let status = JobStatus::parse(&status_resp.text()).unwrap();
    assert_eq!(status.state, JobState::Done);
    let result = status.result.expect("search result document");
    assert_eq!(
        result.get("optimal_depth").and_then(Value::as_u64),
        Some(3),
        "4 wires sort in depth 3"
    );

    handle.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn adversary_witness_is_cached_and_replayed() {
    let (handle, addr, root) = daemon("adversary");
    // The canonical butterfly: lg n all-`+` shuffle stages on 8 wires —
    // exactly the (lg n, l)-network the Section 4 adversary defeats.
    let req = AdversaryRequest { n: 8, stages: vec![vec![ElementKind::Cmp; 4]; 3], k: None };
    let body = serde_json::to_string(&req).unwrap();

    let cold = client::request(&addr, "POST", "/v1/adversary", Some(body.as_bytes())).unwrap();
    assert_eq!(cold.status, 200);
    assert_eq!(cold.header("x-snet-cache"), Some("miss"));
    let verdict = Verdict::parse(&cold.text()).unwrap();
    assert!(
        matches!(verdict.kind, VerdictKind::AdversaryWitness { .. }),
        "the adversary answers with a witness verdict"
    );

    let warm = client::request(&addr, "POST", "/v1/adversary", Some(body.as_bytes())).unwrap();
    assert_eq!(warm.header("x-snet-cache"), Some("hit"));
    assert_eq!(warm.body, cold.body, "cached witness replays byte-identically");

    handle.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(&root);
}

/// The `ir.compile` spans in a request's stored span tree, polling
/// briefly: the trace store insert follows the response.
fn compile_spans_of(addr: &str, trace: &str) -> usize {
    for _ in 0..50 {
        let r = client::request(addr, "GET", &format!("/v1/trace/{trace}"), None).unwrap();
        if r.status == 200 {
            let events = snet_obs::report::parse_events(&r.text()).expect("stored trace parses");
            let compiles = events.iter().filter(|e| e.name == "ir.compile");
            return compiles.filter(|e| e.kind == snet_obs::EventKind::SpanEnd).count();
        }
        std::thread::sleep(Duration::from_millis(100));
    }
    panic!("trace {trace} never reached the trace store");
}

#[test]
fn a_cold_adversary_request_compiles_once_and_a_warm_one_never() {
    let (handle, addr, root) = daemon("adversary-compile");
    let req = AdversaryRequest { n: 16, stages: vec![vec![ElementKind::Cmp; 8]; 4], k: None };
    let body = serde_json::to_string(&req).unwrap();
    for (i, (cache, compiles)) in [("miss", 1), ("hit", 0)].into_iter().enumerate() {
        let (trace, header) = trace_header_for(0xad0 + i as u64);
        let headers = [("x-snet-trace", header.as_str())];
        let resp =
            client::request_with(&addr, "POST", "/v1/adversary", Some(body.as_bytes()), &headers)
                .unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(resp.header("x-snet-cache"), Some(cache));
        assert_eq!(compile_spans_of(&addr, &trace), compiles, "{cache}: ir.compile spans");
    }
    handle.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn rejections_map_to_http_statuses() {
    let (handle, addr, root) = daemon("reject");

    // Unknown route and unknown job.
    let r = client::request(&addr, "GET", "/v1/nope", None).unwrap();
    assert_eq!(r.status, 404);
    let r = client::request(&addr, "GET", "/v1/jobs/job-999", None).unwrap();
    assert_eq!(r.status, 404);

    // Semantic rejections are 422 with an error body.
    let bad = SearchRequest { n: 4, mode: "warp".into(), max_depth: None, threads: None };
    let body = serde_json::to_string(&bad).unwrap();
    let r = client::request(&addr, "POST", "/v1/search", Some(body.as_bytes())).unwrap();
    assert_eq!(r.status, 422);
    assert!(r.text().contains("unrestricted"), "the error names the valid modes");

    let bad =
        SearchRequest { n: 4, mode: "unrestricted".into(), max_depth: Some(1), threads: None };
    let body = serde_json::to_string(&bad).unwrap();
    let r = client::request(&addr, "POST", "/v1/search", Some(body.as_bytes())).unwrap();
    assert_eq!(r.status, 422, "a depth below the floor is rejected, not a worker panic");

    // Malformed JSON bodies are 422 too.
    let r = client::request(&addr, "POST", "/v1/check", Some(b"{nope")).unwrap();
    assert_eq!(r.status, 422);

    handle.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(&root);
}

/// Two high surrogates in a row once underflowed the JSON decoder's
/// pair arithmetic and panicked the connection worker. The body is a
/// plain 422 now, and every worker of the pool keeps serving.
#[test]
fn unpaired_surrogates_are_a_422_not_a_dead_worker() {
    let (handle, addr, root) = daemon("surrogate");
    let body = br#"{"network":"\uD800\uD800"}"#;
    for _ in 0..ServeConfig::default().conn_threads + 1 {
        let r = client::request(&addr, "POST", "/v1/check", Some(body)).unwrap();
        assert_eq!(r.status, 422, "{}", r.text());
    }
    let r = client::request(&addr, "GET", "/healthz", None).unwrap();
    assert_eq!(r.status, 200);
    handle.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(&root);
}

/// A deterministic client-side trace header: distinct per `i`, valid
/// per the `x-snet-trace` grammar.
fn trace_header_for(i: u64) -> (String, String) {
    let trace = format!("{:032x}", 0xace0_0000u64 + i);
    (trace.clone(), format!("{trace}-{:016x}", i + 1))
}

#[test]
fn coalesced_checks_link_rider_traces_to_the_leader() {
    let (handle, addr, root) = daemon("tracelink");
    // Same canonical form from four traced clients at once: one leader
    // compiles under its own trace, riders link to it.
    let body = Arc::new(check_body(&odd_even_transposition(20)));

    const CLIENTS: usize = 4;
    let barrier = Arc::new(Barrier::new(CLIENTS));
    let mut threads = Vec::new();
    for i in 0..CLIENTS {
        let addr = addr.clone();
        let body = body.clone();
        let barrier = barrier.clone();
        threads.push(std::thread::spawn(move || {
            let (trace, header) = trace_header_for(i as u64);
            barrier.wait();
            let resp = client::request_with(
                &addr,
                "POST",
                "/v1/check",
                Some(&body),
                &[("x-snet-trace", header.as_str())],
            )
            .unwrap();
            assert_eq!(resp.status, 200);
            let echoed = resp.header("x-snet-trace").expect("every response echoes its trace");
            assert!(
                echoed.starts_with(&trace),
                "the response trace is the one this client sent (got {echoed})"
            );
            (
                trace,
                resp.header("x-snet-cache").unwrap().to_string(),
                resp.header("x-snet-link").map(str::to_string),
            )
        }));
    }
    let answers: Vec<(String, String, Option<String>)> =
        threads.into_iter().map(|t| t.join().unwrap()).collect();

    let leaders: Vec<&(String, String, Option<String>)> =
        answers.iter().filter(|(_, c, _)| c == "miss").collect();
    assert_eq!(leaders.len(), 1, "one leading miss");
    let (leader_trace, _, leader_link) = leaders[0];
    assert_eq!(leader_link.as_deref(), None, "the leader links to nothing — it IS the trace");
    for (trace, cache, link) in &answers {
        if cache == "coalesced" {
            assert_eq!(
                link.as_deref(),
                Some(leader_trace.as_str()),
                "rider {trace} links to the leader's compile trace"
            );
        }
    }

    handle.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn traced_search_stamps_frames_and_lands_in_debug_ring_and_trace_store() {
    let (handle, addr, root) = daemon("tracing");
    let (trace, header) = trace_header_for(0x900d);
    let req =
        SearchRequest { n: 4, mode: "unrestricted".into(), max_depth: None, threads: Some(2) };
    let body = serde_json::to_string(&req).unwrap();

    let mut frames: Vec<ProgressFrame> = Vec::new();
    let resp = client::stream_lines_with(
        &addr,
        "POST",
        "/v1/search",
        Some(body.as_bytes()),
        &[("x-snet-trace", header.as_str())],
        &mut |line| {
            frames.push(ProgressFrame::parse_line(line).expect("every line is one frame"));
            true
        },
    )
    .unwrap();
    assert_eq!(resp.status, 200);
    assert!(resp.header("x-snet-trace").unwrap().starts_with(&trace));
    assert!(frames.len() >= 3);
    for f in &frames {
        assert_eq!(
            f.trace.as_deref(),
            Some(trace.as_str()),
            "every progress frame carries the submitting request's trace id"
        );
    }
    // The job result's manifest names the same trace.
    let job_id = resp.header("x-snet-job").unwrap().to_string();
    let status_resp = client::request(&addr, "GET", &format!("/v1/jobs/{job_id}"), None).unwrap();
    let status = JobStatus::parse(&status_resp.text()).unwrap();
    assert_eq!(status.state, JobState::Done);

    // The finished request is visible in the tracez-style ring with its
    // trace id, endpoint, status, and latency.
    let debug = client::request(&addr, "GET", "/v1/debug/requests", None).unwrap();
    assert_eq!(debug.status, 200);
    let text = debug.text();
    assert!(text.contains(&format!("\"trace\":\"{trace}\"")), "ring lists the trace: {text}");
    assert!(text.contains("\"endpoint\":\"/v1/search\""), "ring names the endpoint: {text}");
    assert!(text.contains("\"dur_us\":"), "ring reports latency: {text}");

    // The stored span tree is fetchable by trace id; telemetry between
    // response completion and trace-store insert is asynchronous, so
    // poll briefly.
    let mut stored = None;
    for _ in 0..50 {
        let r = client::request(&addr, "GET", &format!("/v1/trace/{trace}"), None).unwrap();
        if r.status == 200 {
            stored = Some(r);
            break;
        }
        std::thread::sleep(Duration::from_millis(100));
    }
    let stored = stored.expect("the request trace lands in the trace store");
    let events = snet_obs::report::parse_events(&stored.text()).expect("stored trace parses");
    assert!(
        events.iter().any(|e| e.name == "http.request"),
        "the stored trace holds the server's request span"
    );

    // An unknown id is a clean 404, not an empty document.
    let missing =
        client::request(&addr, "GET", "/v1/trace/ffffffffffffffffffffffffffffffff", None).unwrap();
    assert_eq!(missing.status, 404);

    handle.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn frame_traces_are_stable_across_miss_and_hit_deliveries() {
    let (handle, addr, root) = daemon("stable");
    let body = check_body(&odd_even_transposition(8));
    let (trace, header) = trace_header_for(0xbead);

    // Miss: computed under the submitted trace.
    let cold = client::request_with(
        &addr,
        "POST",
        "/v1/check",
        Some(&body),
        &[("x-snet-trace", header.as_str())],
    )
    .unwrap();
    assert_eq!(cold.header("x-snet-cache"), Some("miss"));
    assert!(cold.header("x-snet-trace").unwrap().starts_with(&trace));
    let job_id = cold.header("x-snet-job").unwrap().to_string();

    // The job's manifest pins the trace the bytes were computed under.
    let status_resp = client::request(&addr, "GET", &format!("/v1/jobs/{job_id}"), None).unwrap();
    let status = JobStatus::parse(&status_resp.text()).unwrap();
    let result = status.result.expect("check job result");
    let manifest = result.get("manifest").expect("result embeds the run manifest");
    assert_eq!(
        manifest.get("trace_id").and_then(Value::as_str),
        Some(trace.as_str()),
        "the job manifest records the computing request's trace"
    );

    // Hit: a different trace replays the same bytes; its response keeps
    // its own trace id and claims no link (nothing was computed).
    let (trace2, header2) = trace_header_for(0xfeed);
    let warm = client::request_with(
        &addr,
        "POST",
        "/v1/check",
        Some(&body),
        &[("x-snet-trace", header2.as_str())],
    )
    .unwrap();
    assert_eq!(warm.header("x-snet-cache"), Some("hit"));
    assert_eq!(warm.body, cold.body);
    assert!(warm.header("x-snet-trace").unwrap().starts_with(&trace2));
    assert_eq!(warm.header("x-snet-link"), None, "a warm hit computed nothing to link to");

    handle.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn sequential_fresh_connections_are_answered_without_an_accept_poll() {
    let (handle, addr, root) = daemon("fresh-conns");
    let start = std::time::Instant::now();
    for _ in 0..100 {
        let resp = client::request(&addr, "GET", "/healthz", None).unwrap();
        assert_eq!(resp.status, 200);
    }
    let elapsed = start.elapsed();
    assert!(elapsed < Duration::from_secs(1), "100 fresh-connection requests took {elapsed:?}");
    handle.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn shutdown_of_an_idle_daemon_is_prompt_and_closes_the_listener() {
    let (handle, addr, root) = daemon("idle-drain");
    let bound = handle.addr;
    assert_eq!(client::request(&addr, "GET", "/healthz", None).unwrap().status, 200);
    let start = std::time::Instant::now();
    handle.shutdown().expect("drain completes cleanly");
    let elapsed = start.elapsed();
    assert!(elapsed < Duration::from_secs(1), "idle drain took {elapsed:?}");
    let err = std::net::TcpStream::connect(bound).expect_err("the listener is closed");
    assert_eq!(err.kind(), std::io::ErrorKind::ConnectionRefused);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn drain_cancels_live_search_and_leaves_a_resumable_spill() {
    let (handle, addr, root) = daemon("drain");
    // Deep unrestricted n=8 search: runs long enough in a debug build
    // that the drain always lands mid-flight.
    let req =
        SearchRequest { n: 8, mode: "unrestricted".into(), max_depth: None, threads: Some(2) };
    let body = serde_json::to_string(&req).unwrap();

    let (started_tx, started_rx) = std::sync::mpsc::channel::<()>();
    let streamer = {
        let addr = addr.clone();
        std::thread::spawn(move || {
            let mut frames: Vec<ProgressFrame> = Vec::new();
            let mut signalled = false;
            let resp = client::stream_lines(
                &addr,
                "POST",
                "/v1/search",
                Some(body.as_bytes()),
                &mut |line| {
                    let f = ProgressFrame::parse_line(line).unwrap();
                    if !signalled && f.kind == (FrameKind::Lifecycle { state: JobState::Running }) {
                        signalled = true;
                        let _ = started_tx.send(());
                    }
                    frames.push(f);
                    true
                },
            )
            .unwrap();
            (resp, frames)
        })
    };

    started_rx.recv_timeout(Duration::from_secs(60)).expect("the search job reaches Running");
    // Let the workers expand some nodes so the spill has facts in it.
    std::thread::sleep(Duration::from_millis(300));
    handle.shutdown().expect("drain completes cleanly");

    let (resp, frames) = streamer.join().unwrap();
    assert_eq!(resp.status, 200);
    assert_eq!(
        frames.last().unwrap().kind,
        FrameKind::Lifecycle { state: JobState::Cancelled },
        "the drain cancels the live job and the stream reports it"
    );

    // The cancelled search still spilled its transposition frontier:
    // a resumed run on the same store warm-starts from it.
    let store = snet_store::ArtifactStore::open(&root).unwrap();
    let spill = snet_store::load_tt_facts(&store, "search-tt/unrestricted/n=8");
    assert!(spill.is_some(), "cancellation preserves the TT spill");

    let _ = std::fs::remove_dir_all(&root);
}
