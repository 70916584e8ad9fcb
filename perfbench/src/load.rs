//! The daemon under test and the load generators that drive it.

use crate::check;
use crate::gen::{self, Expect, Req, Subject};
use snet_core::api::JobStatus;
use snet_service::{client, spawn, ServeConfig, ServerHandle};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// An in-process `snetd` on an ephemeral port: the default `ServeConfig`
/// except for the port and a fresh store directory (or no store).
pub struct Daemon {
    handle: ServerHandle,
    pub addr: String,
    store: Option<PathBuf>,
}

impl Daemon {
    pub fn start(store: Option<PathBuf>) -> Result<Daemon, String> {
        if let Some(dir) = &store {
            let _ = std::fs::remove_dir_all(dir);
        }
        let cfg = ServeConfig {
            addr: "127.0.0.1:0".into(),
            store: store.clone(),
            ..ServeConfig::default()
        };
        let handle = spawn(cfg).map_err(|e| format!("snetd failed to start: {e}"))?;
        Ok(Daemon { addr: handle.addr.to_string(), handle, store })
    }

    /// Drains the daemon, waits for it, and removes its store.
    pub fn stop(self) -> Result<(), String> {
        let drained = self.handle.shutdown().map_err(|e| format!("snetd drain failed: {e}"));
        if let Some(dir) = &self.store {
            let _ = std::fs::remove_dir_all(dir);
        }
        drained
    }
}

/// The daemon's `x-snet-cache` answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cache {
    Miss,
    Hit,
    Coalesced,
    /// No header: searches, and failed exchanges.
    Absent,
}

/// One measured request.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Position in the workload's request sequence.
    pub index: usize,
    pub path: &'static str,
    pub wires: usize,
    /// The request names a form no earlier request named.
    pub fresh: bool,
    pub cache: Cache,
    /// From the due time (open loop) or the send (closed loop) to the last
    /// body byte.
    pub latency_ms: f64,
    /// From the same origin to the first ND-JSON frame (searches) or the
    /// whole response (everything else).
    pub first_ms: f64,
    /// How late the sender ran: send time minus the time the request was
    /// due (open loop) or could have gone out (closed loop).
    pub lag_ms: f64,
    pub error: Option<String>,
}

/// The samples of one measured phase, in request order.
pub struct Phase {
    pub samples: Vec<Sample>,
    pub wall_s: f64,
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Sends `req` and reads the whole response.
pub fn post(addr: &str, req: &Req) -> Result<client::Response, String> {
    client::request(addr, "POST", req.path(), Some(&req.body))
        .map_err(|e| format!("transport: {e}"))
}

/// Sends `req`, times it from `origin`, and checks the answer.
pub fn send(
    addr: &str,
    req: &Req,
    cold: &[Vec<u8>],
    origin: Instant,
    index: usize,
    traced: bool,
) -> Sample {
    let span = traced.then(|| {
        snet_obs::span("bench.client.request").attr("path", req.path()).attr("index", index)
    });
    let mut sample = Sample {
        index,
        path: req.path(),
        wires: req.wires(),
        fresh: !matches!(req.expect, Expect::Replay(_)),
        cache: Cache::Absent,
        latency_ms: 0.0,
        first_ms: 0.0,
        lag_ms: 0.0,
        error: None,
    };
    let checked = match req.subject {
        Subject::Search(n) => search_exchange(addr, req, n, origin, &mut sample),
        _ => verdict_exchange(addr, req, cold, origin, &mut sample),
    };
    drop(span);
    sample.error = checked.err();
    sample
}

fn verdict_exchange(
    addr: &str,
    req: &Req,
    cold: &[Vec<u8>],
    origin: Instant,
    s: &mut Sample,
) -> Result<(), String> {
    let resp = post(addr, req);
    s.latency_ms = ms(origin.elapsed());
    s.first_ms = s.latency_ms;
    let resp = resp?;
    s.cache = match resp.header("x-snet-cache") {
        Some("miss") => Cache::Miss,
        Some("hit") => Cache::Hit,
        Some("coalesced") => Cache::Coalesced,
        _ => Cache::Absent,
    };
    if resp.status != 200 {
        return Err(format!("status {}: {}", resp.status, resp.text()));
    }
    check::verdict_answer(req, &resp.body, cold)
}

fn search_exchange(
    addr: &str,
    req: &Req,
    n: usize,
    origin: Instant,
    s: &mut Sample,
) -> Result<(), String> {
    let Expect::Depth(depth) = req.expect else {
        return Err("a search request without an expected depth".into());
    };
    let mut first = None;
    let mut frames = Vec::new();
    let resp = client::stream_lines(addr, "POST", req.path(), Some(&req.body), &mut |line| {
        first.get_or_insert_with(Instant::now);
        frames.push(line.to_string());
        true
    });
    let done = Instant::now();
    s.latency_ms = ms(done - origin);
    s.first_ms = ms(first.unwrap_or(done) - origin);
    let resp = resp.map_err(|e| format!("transport: {e}"))?;
    if resp.status != 200 {
        return Err(format!("status {}: {}", resp.status, resp.text()));
    }
    let job = resp.header("x-snet-job").ok_or("the stream names no job")?;
    let doc = client::request(addr, "GET", &format!("/v1/jobs/{job}"), None)
        .map_err(|e| format!("transport: {e}"))?;
    let status = JobStatus::parse(&doc.text())?;
    check::search_answer(n, depth, &frames, &status)
}

/// A closed loop: `clients` threads each send the next request once their
/// previous answer is in and checked and a think time has passed, until
/// `secs` have passed. Request `i` thinks a fixed pseudo-random share of
/// `think_ms`. Latency runs from the send.
pub fn closed_loop(
    addr: &str,
    clients: usize,
    think_ms: f64,
    secs: f64,
    cold: &[Vec<u8>],
    traced: bool,
    make: &(dyn Fn(usize) -> Req + Sync),
) -> Phase {
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    let end = start + Duration::from_secs_f64(secs);
    let mut samples: Vec<Sample> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..clients)
            .map(|_| {
                scope.spawn(|| {
                    let mut out = Vec::new();
                    let mut ready = Instant::now();
                    while ready < end {
                        let index = next.fetch_add(1, Ordering::Relaxed);
                        if think_ms > 0.0 {
                            // Weyl sequence: evenly spread over [0, 1).
                            let share = ((index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 11)
                                as f64
                                / (1u64 << 53) as f64;
                            std::thread::sleep(Duration::from_secs_f64(share * think_ms / 1e3));
                            ready = Instant::now();
                        }
                        let req = make(index);
                        let sent = Instant::now();
                        let mut sample = send(addr, &req, cold, sent, index, traced);
                        sample.lag_ms = ms(sent - ready);
                        out.push(sample);
                        ready = Instant::now();
                    }
                    out
                })
            })
            .collect();
        workers.into_iter().flat_map(|w| w.join().expect("client thread panicked")).collect()
    });
    samples.sort_by_key(|s| s.index);
    Phase { samples, wall_s: start.elapsed().as_secs_f64() }
}

/// An open loop of `rate × secs` slots: slot `k` is due `k / rate` seconds
/// in (a twin slot shares its predecessor's due time), and two sender
/// threads take the even and the odd slots. Latency runs from the due
/// time, so a stall also charges the requests queued behind it.
pub fn open_loop(
    addr: &str,
    rate: f64,
    secs: f64,
    cold: &[Vec<u8>],
    traced: bool,
    slot: &(dyn Fn(usize) -> (Req, bool) + Sync),
) -> Phase {
    let total = (rate * secs).round() as usize;
    let start = Instant::now();
    let mut samples: Vec<Sample> = std::thread::scope(|scope| {
        let senders: Vec<_> = (0..2)
            .map(|first| {
                scope.spawn(move || {
                    let mut out = Vec::new();
                    for k in (first..total).step_by(2) {
                        let (req, twin) = slot(k);
                        let due_slot = if twin { k - 1 } else { k };
                        let due = start + Duration::from_secs_f64(due_slot as f64 / rate);
                        if let Some(wait) = due.checked_duration_since(Instant::now()) {
                            std::thread::sleep(wait);
                        }
                        let sent = Instant::now();
                        let mut sample = send(addr, &req, cold, due, k, traced);
                        sample.lag_ms = ms(sent.saturating_duration_since(due));
                        out.push(sample);
                    }
                    out
                })
            })
            .collect();
        senders.into_iter().flat_map(|s| s.join().expect("sender thread panicked")).collect()
    });
    samples.sort_by_key(|s| s.index);
    Phase { samples, wall_s: start.elapsed().as_secs_f64() }
}

/// Readies a fresh daemon: liveness, then one small cold check, which pays
/// the daemon's first `RunManifest::capture` (it shells out to git and
/// rustc) and fixes the process's verdict manifest.
pub fn warm_up(addr: &str) -> Result<(), String> {
    let health =
        client::request(addr, "GET", "/healthz", None).map_err(|e| format!("transport: {e}"))?;
    if health.status != 200 {
        return Err(format!("/healthz answered {}", health.status));
    }
    let req = gen::warm_up_check();
    let resp = post(addr, &req)?;
    if resp.status != 200 {
        return Err(format!("warm-up check answered {}", resp.status));
    }
    check::verdict_answer(&req, &resp.body, &[])
}

/// Computes every working-set entry cold through the daemon with two
/// client threads, checks each answer, and records the bytes.
pub fn compute_cold(addr: &str, ws: &[Req]) -> Result<Vec<Vec<u8>>, String> {
    /// Answer bodies by working-set index.
    type Bodies = Vec<(usize, Vec<u8>)>;
    let next = AtomicUsize::new(0);
    let fetched: Vec<Result<Bodies, String>> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..2)
            .map(|_| {
                scope.spawn(|| {
                    let mut out = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(req) = ws.get(i) else { return Ok(out) };
                        let resp = post(addr, req)?;
                        if resp.status != 200 {
                            return Err(format!("working-set entry {i} answered {}", resp.status));
                        }
                        check::verdict_answer(req, &resp.body, &[])
                            .map_err(|e| format!("working-set entry {i}: {e}"))?;
                        out.push((i, resp.body));
                    }
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().expect("set-up thread panicked")).collect()
    });
    let mut bodies = vec![Vec::new(); ws.len()];
    for part in fetched {
        for (i, body) in part? {
            bodies[i] = body;
        }
    }
    Ok(bodies)
}

/// Runs one n = 4 search to completion, which warms the job-thread path.
pub fn warm_search(addr: &str) -> Result<(), String> {
    let sample = send(addr, &gen::search_req(4), &[], Instant::now(), 0, false);
    sample.error.map_or(Ok(()), |e| Err(format!("warm-up search: {e}")))
}

/// The daemon counters the cross-check compares with the client's counts.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    pub store_hits: f64,
    pub store_misses: f64,
    pub coalesced: f64,
}

/// Reads the counters off `GET /metrics`.
pub fn scrape(addr: &str) -> Result<Counters, String> {
    let resp =
        client::request(addr, "GET", "/metrics", None).map_err(|e| format!("scrape: {e}"))?;
    let parsed = snet_obs::promtext::parse(&resp.text()).map_err(|e| format!("scrape: {e}"))?;
    let total = |name: &str| parsed.series.iter().filter(|s| s.name == name).map(|s| s.value).sum();
    Ok(Counters {
        store_hits: total("snet_store_hits_total"),
        store_misses: total("snet_store_misses_total"),
        coalesced: total("snet_jobs_coalesced_total"),
    })
}

/// The client's `x-snet-cache` counts over a phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct CacheCounts {
    pub hit: u64,
    pub miss: u64,
    pub coalesced: u64,
}

impl CacheCounts {
    pub fn of(samples: &[Sample]) -> CacheCounts {
        let mut c = CacheCounts::default();
        for s in samples {
            match s.cache {
                Cache::Hit => c.hit += 1,
                Cache::Miss => c.miss += 1,
                Cache::Coalesced => c.coalesced += 1,
                Cache::Absent => {}
            }
        }
        c
    }
}

/// Compares the daemon's counter deltas over a phase with the client's
/// `x-snet-cache` counts. A hit reads the store once and hits. A check
/// miss reads it twice (the lookup, then the leader's re-check), an
/// adversary miss once, and a coalesced follower once, all missing. The
/// one allowed slack: a fresh form whose leader finished between a
/// follower's lookup and its in-flight probe is answered as a hit after
/// one extra miss.
pub fn cross_check(
    samples: &[Sample],
    before: Counters,
    after: Counters,
) -> Result<String, String> {
    let counts = CacheCounts::of(samples);
    let mut misses = 0u64;
    let mut slack = 0u64;
    for s in samples {
        match s.cache {
            Cache::Miss if s.path == "/v1/check" => misses += 2,
            Cache::Miss | Cache::Coalesced => misses += 1,
            Cache::Hit if s.fresh => slack += 1,
            _ => {}
        }
    }
    let d_hits = after.store_hits - before.store_hits;
    let d_misses = after.store_misses - before.store_misses;
    let d_coalesced = after.coalesced - before.coalesced;
    let line = format!(
        "x-snet-cache hit {} miss {} coalesced {}; /metrics deltas: store hits {d_hits}, \
         store misses {d_misses} (expected {misses}..={}), coalesced {d_coalesced}",
        counts.hit,
        counts.miss,
        counts.coalesced,
        misses + slack
    );
    let agree = d_hits == counts.hit as f64
        && d_coalesced == counts.coalesced as f64
        && (misses as f64..=(misses + slack) as f64).contains(&d_misses);
    if agree {
        Ok(line)
    } else {
        Err(format!("count cross-check failed: {line}"))
    }
}
