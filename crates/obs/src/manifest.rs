//! The [`RunManifest`]: provenance captured once at run start so every
//! trace file and `results/*.json` row records what produced it.

use crate::event::{Event, EventKind};
use serde::{Serialize, Value};
use std::sync::OnceLock;

/// Schema identifier stamped into every manifest; bump on breaking
/// changes so stale result files are detectable.
pub const MANIFEST_SCHEMA: &str = "snet-obs-manifest/1";

/// Provenance of one run: what binary, on what commit, with what
/// toolchain and parallelism, started when, on which host.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunManifest {
    /// [`MANIFEST_SCHEMA`].
    pub schema: String,
    /// The producing tool (e.g. `snetctl`, `baselines`).
    pub tool: String,
    /// Command-line arguments after the binary name.
    pub args: Vec<String>,
    /// `git rev-parse HEAD` of the working tree, or `unknown`.
    pub git_commit: String,
    /// `rustc -V` of the toolchain on `PATH`, or `unknown`.
    pub rustc_version: String,
    /// [`std::thread::available_parallelism`] at capture time.
    pub available_parallelism: usize,
    /// The raw `SNET_THREADS` environment override, if set.
    pub snet_threads: Option<String>,
    /// Milliseconds since the Unix epoch at capture time.
    pub started_unix_ms: u64,
    /// `std::env::consts::OS`.
    pub os: String,
    /// `std::env::consts::ARCH`.
    pub arch: String,
    /// `$HOSTNAME`, or `unknown`.
    pub host: String,
    /// Tool-specific provenance appended by [`RunManifest::with_extra`]
    /// (e.g. the `--seed` of a randomized run); rendered after the fixed
    /// fields in declaration order.
    pub extras: Vec<(String, String)>,
}

/// `git rev-parse HEAD` and `rustc -V`, each `unknown` when it fails,
/// run once per process: the two subprocesses cost tens of milliseconds
/// (`rustc` through the rustup shim), and a daemon captures a manifest
/// for every cold check it answers.
fn toolchain() -> &'static (String, String) {
    static PROBE: OnceLock<(String, String)> = OnceLock::new();
    PROBE.get_or_init(|| {
        let git = command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".into());
        let rustc = command_line("rustc", &["-V"]).unwrap_or_else(|| "unknown".into());
        (git, rustc)
    })
}

fn command_line(bin: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(bin).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8_lossy(&out.stdout).trim().to_string();
    if text.is_empty() {
        None
    } else {
        Some(text)
    }
}

impl RunManifest {
    /// Captures the manifest for `tool` from the current environment.
    /// Never fails: unavailable fields degrade to `"unknown"`. The commit
    /// and toolchain are probed on the first call only; every call
    /// stamps its own `started_unix_ms`.
    pub fn capture(tool: &str) -> Self {
        let (git_commit, rustc_version) = toolchain().clone();
        RunManifest {
            schema: MANIFEST_SCHEMA.to_string(),
            tool: tool.to_string(),
            args: std::env::args().skip(1).collect(),
            git_commit,
            rustc_version,
            available_parallelism: std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1),
            snet_threads: std::env::var("SNET_THREADS").ok(),
            started_unix_ms: std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map(|d| d.as_millis() as u64)
                .unwrap_or(0),
            os: std::env::consts::OS.to_string(),
            arch: std::env::consts::ARCH.to_string(),
            host: std::env::var("HOSTNAME").unwrap_or_else(|_| "unknown".into()),
            extras: Vec::new(),
        }
    }

    /// Appends one tool-specific provenance pair (builder style). Keys
    /// shadowing a fixed field are kept as-is: both appear, the extra
    /// last, so readers keyed on the fixed schema are unaffected.
    pub fn with_extra(mut self, key: impl Into<String>, value: impl Into<String>) -> Self {
        self.push_extra(key, value);
        self
    }

    /// In-place form of [`RunManifest::with_extra`] for call sites that
    /// add extras conditionally or in a loop — no rebinding, no moves.
    pub fn push_extra(&mut self, key: impl Into<String>, value: impl Into<String>) {
        self.extras.push((key.into(), value.into()));
    }

    /// The manifest as flat string key/value pairs (the event-attr and
    /// report representation).
    pub fn fields(&self) -> Vec<(String, String)> {
        let mut out = vec![
            ("schema".into(), self.schema.clone()),
            ("tool".into(), self.tool.clone()),
            ("args".into(), self.args.join(" ")),
            ("git_commit".into(), self.git_commit.clone()),
            ("rustc_version".into(), self.rustc_version.clone()),
            ("available_parallelism".into(), self.available_parallelism.to_string()),
            ("snet_threads".into(), self.snet_threads.clone().unwrap_or_else(|| "unset".into())),
            ("started_unix_ms".into(), self.started_unix_ms.to_string()),
            ("os".into(), self.os.clone()),
            ("arch".into(), self.arch.clone()),
            ("host".into(), self.host.clone()),
        ];
        out.extend(self.extras.iter().cloned());
        out
    }

    /// The manifest as an [`Event`] (kind [`EventKind::Manifest`]).
    pub fn to_event(&self) -> Event {
        Event {
            kind: EventKind::Manifest,
            name: "run.manifest".into(),
            id: 0,
            parent: 0,
            thread: 0,
            t_us: crate::now_us(),
            dur_us: 0,
            value: 0.0,
            attrs: self.fields(),
        }
    }

    /// Emits the manifest to every installed sink (no-op when disabled).
    pub fn emit(&self) {
        crate::emit_event(self.to_event());
    }
}

/// One flat object of strings, in [`RunManifest::fields`] order — the
/// form bench documents embed under `"manifest"`.
impl Serialize for RunManifest {
    fn serialize(&self) -> Value {
        crate::json::str_map(&self.fields())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capture_is_total_and_json_parses() {
        let m = RunManifest::capture("unit-test");
        assert_eq!(m.schema, MANIFEST_SCHEMA);
        assert_eq!(m.tool, "unit-test");
        assert!(m.available_parallelism >= 1);
        assert!(!m.os.is_empty() && !m.arch.is_empty());
        // The flat-JSON form parses back through the report-side parser.
        let line = m.to_event().to_json_line();
        let back = crate::report::parse_event_line(&line).expect("manifest line parses");
        assert_eq!(back.kind, EventKind::Manifest);
        assert_eq!(back.attr("tool"), Some("unit-test"));
        assert_eq!(back.attr("schema"), Some(MANIFEST_SCHEMA));
    }

    #[test]
    fn toolchain_is_probed_once_per_process() {
        let first = RunManifest::capture("unit-test");
        let start = std::time::Instant::now();
        for _ in 0..50 {
            let m = RunManifest::capture("unit-test");
            assert_eq!(m.git_commit, first.git_commit);
            assert_eq!(m.rustc_version, first.rustc_version);
        }
        let elapsed = start.elapsed();
        assert!(elapsed < std::time::Duration::from_millis(50), "50 captures took {elapsed:?}");
    }

    #[test]
    fn extras_ride_after_the_fixed_fields() {
        let m = RunManifest::capture("unit-test").with_extra("seed", "41");
        let fields = m.fields();
        assert_eq!(fields.last().map(|(k, v)| (k.as_str(), v.as_str())), Some(("seed", "41")));
        let back = crate::report::parse_event_line(&m.to_event().to_json_line())
            .expect("manifest line parses");
        assert_eq!(back.attr("seed"), Some("41"));
    }
}
