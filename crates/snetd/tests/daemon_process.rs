//! Process-level tests of the `snet-snetd` binary: signal-driven drain,
//! survival when the daemon runs out of file descriptors, and the store
//! integrity events its `/metrics` counts. Each test starts its own
//! daemon on an ephemeral port in a fresh working directory, through
//! `sh` so a test can lower its descriptor limit; a process of its own
//! also gives each test counters no other test touches.

#![cfg(target_os = "linux")]

use snet_adversary::{refute, theorem41, SortingRefutation};
use snet_core::api::{AdversaryRequest, CheckRequest};
use snet_core::element::{Element, ElementKind};
use snet_core::ir::CanonicalHash;
use snet_core::network::{ComparatorNetwork, Level};
use snet_core::sortcheck::is_sorted;
use snet_core::verdict::{verdict_zero_one_exhaustive, Verdict, VerdictKind};
use snet_service::client;
use snet_store::{ArtifactStore, KIND_VERDICT};
use snet_topology::ShuffleNetwork;
use std::io::{BufRead, BufReader, Read};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStderr, Command, ExitStatus, Stdio};
use std::time::{Duration, Instant};

struct Daemon {
    child: Child,
    /// Kept open: the daemon reports errors on stderr, and a closed pipe
    /// would turn such a report into a failed write.
    stderr: BufReader<ChildStderr>,
    addr: String,
    dir: PathBuf,
}

impl Daemon {
    /// Starts `snet-snetd --addr 127.0.0.1:0`, with a store at
    /// `<dir>/store` when `store` is set, under `ulimit -n fd_limit`
    /// when given, and waits for its address. `prepare` runs on the
    /// fresh working directory before the daemon starts.
    fn start(tag: &str, fd_limit: Option<u32>, store: bool, prepare: impl FnOnce(&Path)) -> Daemon {
        let dir = std::env::temp_dir().join(format!("snetd-proc-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        prepare(&dir);
        let limit = fd_limit.map(|n| format!("ulimit -n {n} && ")).unwrap_or_default();
        let store_args: &[&str] = if store { &["--store", "store"] } else { &[] };
        let mut child = Command::new("sh")
            .arg("-c")
            .arg(format!("{limit}exec \"$0\" \"$@\""))
            .arg(env!("CARGO_BIN_EXE_snet-snetd"))
            .args(["--addr", "127.0.0.1:0"])
            .args(store_args)
            .current_dir(&dir)
            .env_remove("SNET_STORE")
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .expect("sh starts the daemon");
        let mut stderr = BufReader::new(child.stderr.take().unwrap());
        let mut line = String::new();
        stderr.read_line(&mut line).unwrap();
        let addr = line
            .trim_end()
            .strip_prefix("snetd: listening on ")
            .unwrap_or_else(|| panic!("unexpected first stderr line {line:?}"))
            .to_string();
        Daemon { child, stderr, addr, dir }
    }

    /// The value of the unlabeled series `name` in a `/metrics` scrape.
    fn metric(&self, name: &str) -> f64 {
        let text = client::request(&self.addr, "GET", "/metrics", None).unwrap().text();
        let prefix = format!("{name} ");
        text.lines()
            .find_map(|l| l.strip_prefix(prefix.as_str()))
            .and_then(|v| v.parse().ok())
            .unwrap_or(0.0)
    }

    fn open_fds(&mut self) -> usize {
        std::fs::read_dir(format!("/proc/{}/fd", self.child.id()))
            .map(|entries| entries.count())
            .unwrap_or_else(|_| panic!("daemon exited early: {:?}", self.rest_of_stderr()))
    }

    /// What the daemon wrote to stderr after its address; blocks until
    /// it exits.
    fn rest_of_stderr(&mut self) -> String {
        let mut rest = String::new();
        let _ = self.stderr.read_to_string(&mut rest);
        rest
    }

    /// Sends SIGTERM and waits up to `limit` for the exit status; also
    /// returns what the daemon wrote to stderr after its address.
    fn terminate(mut self, limit: Duration) -> (ExitStatus, PathBuf, String) {
        let start = Instant::now();
        let kill = Command::new("sh")
            .arg("-c")
            .arg(format!("kill -TERM {}", self.child.id()))
            .status()
            .unwrap();
        assert!(kill.success());
        loop {
            if let Some(status) = self.child.try_wait().unwrap() {
                return (status, self.dir.clone(), self.rest_of_stderr());
            }
            if start.elapsed() > limit {
                let _ = self.child.kill();
                panic!("no exit within {limit:?} of SIGTERM: {:?}", self.rest_of_stderr());
            }
            std::thread::sleep(Duration::from_millis(10));
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        // A failed assertion must not leave the daemon running; after a
        // clean exit both calls fail harmlessly.
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn flight_dumps(dir: &Path) -> Vec<String> {
    std::fs::read_dir(dir)
        .unwrap()
        .filter_map(|e| e.ok()?.file_name().into_string().ok())
        .filter(|name| name.starts_with("flight-"))
        .collect()
}

#[test]
fn sigterm_drains_within_two_seconds_without_a_flight_dump() {
    let daemon = Daemon::start("sigterm", None, false, |_| {});
    assert_eq!(client::request(&daemon.addr, "GET", "/healthz", None).unwrap().status, 200);
    let (status, dir, _) = daemon.terminate(Duration::from_secs(2));
    assert_eq!(status.code(), Some(0), "a drained exit is clean");
    assert_eq!(flight_dumps(&dir), Vec::<String>::new(), "a drain writes no flight dump");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn running_out_of_descriptors_costs_connections_not_the_daemon() {
    const FD_LIMIT: usize = 64;
    let mut daemon = Daemon::start("emfile", Some(FD_LIMIT as u32), false, |_| {});
    // More connections than the daemon has descriptors for: it accepts
    // until its table is full, and the rest wait in the backlog.
    let held: Vec<TcpStream> =
        (0..100).map(|_| TcpStream::connect(&daemon.addr).expect("the backlog takes it")).collect();
    let deadline = Instant::now() + Duration::from_secs(10);
    while daemon.open_fds() < FD_LIMIT {
        assert!(Instant::now() < deadline, "the daemon never filled its descriptor table");
        std::thread::sleep(Duration::from_millis(5));
    }
    // A full table makes every accept fail; let the loop meet that a
    // few times (it retries every few milliseconds) before releasing.
    std::thread::sleep(Duration::from_millis(100));
    drop(held);

    let deadline = Instant::now() + Duration::from_secs(10);
    let health = loop {
        match client::request(&daemon.addr, "GET", "/healthz", None) {
            Ok(resp) => break resp,
            Err(e) => assert!(Instant::now() < deadline, "no /healthz answer after release: {e}"),
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    assert_eq!(health.status, 200);
    let accept_errors = daemon.metric("snet_httpd_accept_errors_total");
    assert!(accept_errors >= 1.0, "the failed accepts are counted ({accept_errors})");

    let (status, dir, _) = daemon.terminate(Duration::from_secs(5));
    assert_eq!(status.code(), Some(0), "the daemon still drains cleanly");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The canonical butterfly on 8 wires, lg n all-`+` shuffle stages: the
/// `(lg n, l)`-network the Section 4 adversary defeats. Returns it, its
/// direct lowering (what the daemon hashes) and that hash.
fn butterfly() -> (ShuffleNetwork, ComparatorNetwork, CanonicalHash) {
    let sn = ShuffleNetwork::new(8, vec![vec![ElementKind::Cmp; 4]; 3]);
    let net = sn.to_network();
    let hash = CanonicalHash::of_network(&net);
    (sn, net, hash)
}

fn adversary(daemon: &Daemon, sn: &ShuffleNetwork) -> client::Response {
    let req = AdversaryRequest { n: sn.wires() as u32, stages: sn.stages().to_vec(), k: None };
    let body = serde_json::to_string(&req).unwrap();
    client::request(&daemon.addr, "POST", "/v1/adversary", Some(body.as_bytes())).unwrap()
}

/// Verifies the witness a `/v1/adversary` answer carries against `net`.
fn verify_served_witness(resp: &client::Response, net: &ComparatorNetwork) {
    let verdict = Verdict::parse(&resp.text()).expect("the body is a verdict");
    let r = SortingRefutation::from_verdict(&verdict).expect("a witness verdict");
    r.verify(net).expect("the served witness verifies");
}

#[test]
fn forged_claims_are_quarantined_and_recomputed_as_misses() {
    let (sn, adv_net, adv_hash) = butterfly();
    // Two comparators on four wires: not a sorting network.
    let level = Level::of_elements(vec![Element::cmp(0, 1), Element::cmp(2, 3)]);
    let check_net = ComparatorNetwork::new(4, vec![level]).unwrap();
    let check_hash = CanonicalHash::of_network(&check_net);
    let daemon = Daemon::start("forged", None, true, |dir| {
        // Checksum-valid entries under the right hashes, making false claims.
        let store = ArtifactStore::open(dir.join("store")).unwrap();
        let ird = sn.to_iterated_reverse_delta();
        let mut forged = refute(&adv_net, &theorem41(&ird, 3).input_pattern).unwrap();
        forged.output_b.swap(0, 1);
        let witness = Verdict::with_kind(adv_hash, 8, forged.verdict_kind());
        store.put(&adv_hash, KIND_VERDICT, witness.to_json().as_bytes()).unwrap();
        let VerdictKind::Counterexample { index, input, mut output } =
            verdict_zero_one_exhaustive(&check_net).kind
        else {
            panic!("two comparators do not sort four wires")
        };
        output.sort_unstable();
        let sorted =
            Verdict::with_kind(check_hash, 4, VerdictKind::Counterexample { index, input, output });
        store.put(&check_hash, KIND_VERDICT, sorted.to_json().as_bytes()).unwrap();
    });

    let resp = adversary(&daemon, &sn);
    assert_eq!(resp.status, 200);
    assert_eq!(resp.header("x-snet-cache"), Some("miss"), "a forged witness is not served");
    verify_served_witness(&resp, &adv_net);
    let adv_body = resp.body;

    let body = serde_json::to_string(&CheckRequest { network: check_net.clone() }).unwrap();
    let resp = client::request(&daemon.addr, "POST", "/v1/check", Some(body.as_bytes())).unwrap();
    assert_eq!(resp.status, 200);
    assert_eq!(resp.header("x-snet-cache"), Some("miss"), "a forged counterexample is not served");
    let verdict = Verdict::parse(&resp.text()).unwrap();
    let VerdictKind::Counterexample { input, output, .. } = &verdict.kind else {
        panic!("a counterexample verdict, got {:?}", verdict.kind)
    };
    assert_eq!(&snet_core::ir::evaluate(&check_net, input), output, "it re-runs");
    assert!(!is_sorted(output), "it fails to sort");

    assert_eq!(daemon.metric("snet_store_quarantined_total"), 2.0, "each rejection is counted");
    let store = ArtifactStore::open(daemon.dir.join("store")).unwrap();
    assert_eq!(store.get_verdict(&adv_hash).unwrap().1, adv_body, "the witness is replaced");
    assert_eq!(store.get_verdict(&check_hash).unwrap().1, resp.body, "so is the counterexample");

    let (status, dir, _) = daemon.terminate(Duration::from_secs(5));
    assert_eq!(status.code(), Some(0));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn an_unwritable_shard_costs_the_cache_not_the_answer() {
    let (sn, net, hash) = butterfly();
    let daemon = Daemon::start("unwritable", None, true, |dir| {
        // Root ignores permission bits, so `chmod` cannot make the shard
        // unwritable; a regular file where its directory belongs can.
        let objects = dir.join("store").join("objects");
        std::fs::create_dir_all(&objects).unwrap();
        std::fs::write(objects.join(&hash.to_hex()[..2]), b"not a shard").unwrap();
    });

    let resp = adversary(&daemon, &sn);
    assert_eq!(resp.status, 200, "the verdict is still served");
    assert_eq!(resp.header("x-snet-cache"), Some("miss"));
    verify_served_witness(&resp, &net);
    assert_eq!(daemon.metric("snet_store_write_errors_total"), 1.0, "the failed write is counted");

    let (status, dir, log) = daemon.terminate(Duration::from_secs(5));
    assert_eq!(status.code(), Some(0));
    assert!(log.contains(&format!("cannot write verdict {hash}")), "and logged: {log:?}");
    let _ = std::fs::remove_dir_all(&dir);
}
