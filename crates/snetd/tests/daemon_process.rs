//! Process-level tests of the `snet-snetd` binary: signal-driven drain
//! and survival when the daemon runs out of file descriptors. Each test
//! starts its own daemon on an ephemeral port in a fresh working
//! directory, through `sh` so a test can lower its descriptor limit.

#![cfg(target_os = "linux")]

use snet_service::client;
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
    /// Starts `snet-snetd --addr 127.0.0.1:0` without a store, under
    /// `ulimit -n fd_limit` when given, and waits for its address.
    fn start(tag: &str, fd_limit: Option<u32>) -> Daemon {
        let dir = std::env::temp_dir().join(format!("snetd-proc-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let limit = fd_limit.map(|n| format!("ulimit -n {n} && ")).unwrap_or_default();
        let mut child = Command::new("sh")
            .arg("-c")
            .arg(format!("{limit}exec \"$0\" \"$@\""))
            .arg(env!("CARGO_BIN_EXE_snet-snetd"))
            .args(["--addr", "127.0.0.1:0"])
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

    /// Sends SIGTERM and waits up to `limit` for the exit status.
    fn terminate(mut self, limit: Duration) -> (ExitStatus, PathBuf) {
        let start = Instant::now();
        let kill = Command::new("sh")
            .arg("-c")
            .arg(format!("kill -TERM {}", self.child.id()))
            .status()
            .unwrap();
        assert!(kill.success());
        loop {
            if let Some(status) = self.child.try_wait().unwrap() {
                return (status, self.dir.clone());
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
    let daemon = Daemon::start("sigterm", None);
    assert_eq!(client::request(&daemon.addr, "GET", "/healthz", None).unwrap().status, 200);
    let (status, dir) = daemon.terminate(Duration::from_secs(2));
    assert_eq!(status.code(), Some(0), "a drained exit is clean");
    assert_eq!(flight_dumps(&dir), Vec::<String>::new(), "a drain writes no flight dump");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn running_out_of_descriptors_costs_connections_not_the_daemon() {
    const FD_LIMIT: usize = 64;
    let mut daemon = Daemon::start("emfile", Some(FD_LIMIT as u32));
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
    let metrics = client::request(&daemon.addr, "GET", "/metrics", None).unwrap().text();
    let accept_errors = metrics
        .lines()
        .find_map(|l| l.strip_prefix("snet_httpd_accept_errors_total "))
        .and_then(|v| v.parse::<f64>().ok())
        .unwrap_or(0.0);
    assert!(accept_errors >= 1.0, "the failed accepts are counted:\n{metrics}");

    let (status, dir) = daemon.terminate(Duration::from_secs(5));
    assert_eq!(status.code(), Some(0), "the daemon still drains cleanly");
    let _ = std::fs::remove_dir_all(&dir);
}
