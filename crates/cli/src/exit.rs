//! `snetctl`'s exit-code contract, in one place.
//!
//! Every nonzero exit a subcommand can produce is named here; scripts
//! and CI jobs branch on these values, so they are part of the tool's
//! stable interface (the same table is documented in the repository
//! README). Exits taken through [`exit_flushed`] drain buffered
//! observability output first — `std::process::exit` skips `main`'s
//! normal flush.

/// Generic failure: bad arguments, unreadable files, internal errors.
pub const GENERIC: i32 = 1;
/// `check` found a counterexample — the network does not sort.
pub const CHECK_COUNTEREXAMPLE: i32 = 3;
/// `refute`/`certify`: the adversary exhausted its `[M_0]`-set
/// (`|D| < 2`) and has no witness; the network may well sort.
pub const ADVERSARY_EXHAUSTED: i32 = 4;
/// `closure`: the symbol closure never completes — no sorting network
/// based on the requested permutation exists at any depth.
pub const CLOSURE_IMPOSSIBLE: i32 = 5;
/// `audit`: the proof bundle failed an independent check.
pub const CERTIFICATE_REJECTED: i32 = 6;
/// `search`: every depth budget up to the ceiling was refuted.
pub const SEARCH_REFUTED: i32 = 7;
/// `bench diff`: a metric regressed beyond the allowed percentage.
pub const BENCH_REGRESS: i32 = 8;
/// `count`: the live runtime or the interleaving explorer observed a
/// step-property violation.
pub const STEP_VIOLATION: i32 = 9;
/// `store get`: the requested entry exists but is corrupt (it has been
/// quarantined; verdict paths treat the same condition as a cache miss
/// and recompute instead of exiting).
pub const STORE_CORRUPT: i32 = 10;
/// `serve`: the daemon could not start —
/// bind failure, bad flags, unopenable store — or the accept loop died.
pub const DAEMON_FAILED: i32 = 11;

/// Where `--metrics-out FILE` asked for the final registry exposition;
/// armed once during observability setup.
static METRICS_OUT: std::sync::OnceLock<String> = std::sync::OnceLock::new();

/// Arms the end-of-process metrics dump (`--metrics-out FILE`).
pub fn arm_metrics_out(path: String) {
    let _ = METRICS_OUT.set(path);
}

/// Writes the Prometheus exposition of this process's registry to the
/// armed path, if any. Runs on every exit path (normal return and
/// [`exit_flushed`]) so the dump reflects the whole run.
pub fn write_metrics_out() {
    if let Some(path) = METRICS_OUT.get() {
        if let Err(e) = std::fs::write(path, snet_obs::registry::render_prometheus()) {
            eprintln!("snetctl: cannot write metrics to {path}: {e}");
        }
    }
}

/// Flushes buffered trace output (and the armed metrics dump), then
/// exits with `code`.
pub fn exit_flushed(code: i32) -> ! {
    snet_obs::flush();
    write_metrics_out();
    std::process::exit(code);
}
