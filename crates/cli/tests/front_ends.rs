//! `snetctl` and snetd share one verdict path. On the same inputs the two
//! front ends must produce the same verdict documents, serve each other's
//! stored bytes verbatim, and refuse to serve a stored claim that fails
//! its re-check.

use snet_adversary::SortingRefutation;
use snet_core::ir::CanonicalHash;
use snet_core::verdict::{Verdict, VerdictKind};
use snet_service::{spawn, ServeConfig, ServerHandle};
use snet_store::{ArtifactStore, KIND_VERDICT};
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn snetctl(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_snetctl"))
        .env_remove("SNET_STORE")
        .args(args)
        .output()
        .expect("snetctl should launch")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("snetctl-front-ends-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Writes a generated network file under `dir` and returns its path.
fn gen(dir: &Path, name: &str, args: &[&str]) -> String {
    let path = dir.join(name).to_str().unwrap().to_string();
    let out = snetctl(&[&["gen"][..], args, &["-o", path.as_str()]].concat());
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    path
}

fn daemon(store: &Path) -> (ServerHandle, String) {
    let cfg = ServeConfig { store: Some(store.to_path_buf()), ..ServeConfig::default() };
    let handle = spawn(cfg).expect("daemon binds an ephemeral port");
    let addr = handle.addr.to_string();
    (handle, addr)
}

/// `snetctl query` against `addr`: the exit code, the cache state it
/// reports, and the response body it prints.
fn query(addr: &str, args: &[&str]) -> (Option<i32>, String, Vec<u8>) {
    let out = snetctl(&[&["query", "--addr", addr][..], args].concat());
    let stderr = String::from_utf8_lossy(&out.stderr);
    let cache = stderr
        .lines()
        .find_map(|l| l.strip_prefix("snetctl: query: cache "))
        .and_then(|rest| rest.split(' ').next())
        .unwrap_or_else(|| panic!("no cache line in {stderr:?}"));
    let mut body = out.stdout.clone();
    assert_eq!(body.pop(), Some(b'\n'), "query ends the body with a newline");
    (out.status.code(), cache.to_string(), body)
}

/// The hash on a `store: hit|miss HASH` line, asserting the state.
fn store_line(out: &Output, state: &str) -> CanonicalHash {
    let text = stdout(out);
    let hex = text
        .lines()
        .find_map(|l| l.strip_prefix(&format!("store: {state} ")))
        .unwrap_or_else(|| panic!("no 'store: {state}' line in {text:?}"));
    CanonicalHash::from_hex(&hex[..64]).expect("a canonical hash")
}

/// The entry bytes under `hash`, read back with `snetctl store get`.
fn store_get(store: &Path, hash: &CanonicalHash) -> Vec<u8> {
    let out = snetctl(&["store", "get", &hash.to_hex(), "--store", store.to_str().unwrap()]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let mut bytes = out.stdout;
    assert_eq!(bytes.pop(), Some(b'\n'));
    bytes
}

/// A verdict document with its `manifest` dropped: that field carries
/// each process's own start time.
fn sans_manifest(bytes: &[u8]) -> Verdict {
    let mut verdict = Verdict::parse(std::str::from_utf8(bytes).unwrap()).expect("a verdict");
    verdict.manifest.clear();
    verdict
}

#[test]
fn both_front_ends_compute_alike_and_serve_each_others_bytes() {
    let dir = scratch("agree");
    let sorter = gen(&dir, "sorter.json", &["--kind", "bitonic", "--n", "8"]);
    let shallow = &["--kind", "random-shuffle", "--n", "8", "--depth", "2", "--seed", "7"];
    let non_sorter = gen(&dir, "non-sorter.json", shallow);
    let unit = &["--kind", "random-shuffle", "--n", "16", "--depth", "4", "--seed", "7"];
    let shuffle = gen(&dir, "shuffle.json", unit);
    let (cli_store, svc_store) = (dir.join("cli-store"), dir.join("svc-store"));
    let (cli_s, svc_s) = (cli_store.to_str().unwrap(), svc_store.to_str().unwrap());

    // Cold: each front end computes into a store of its own.
    let (svc, addr) = daemon(&svc_store);
    let mut checks = Vec::new();
    for (file, code) in [(&sorter, 0), (&non_sorter, 3)] {
        let cli_out = format!("{file}.cli-verdict");
        let out =
            snetctl(&["check", file, "--exhaustive", "--store", cli_s, "--verdict-out", &cli_out]);
        assert_eq!(out.status.code(), Some(code), "{}", stdout(&out));
        store_line(&out, "miss");
        let cli_bytes = std::fs::read(&cli_out).unwrap();
        let (svc_code, cache, svc_bytes) = query(&addr, &["check", file]);
        assert_eq!((svc_code, cache.as_str()), (Some(code), "miss"));
        assert_eq!(sans_manifest(&cli_bytes), sans_manifest(&svc_bytes), "{file}");
        checks.push((file, code, cli_bytes, svc_bytes));
    }
    let out = snetctl(&["refute", &shuffle, "--store", cli_s]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let hash = store_line(&out, "miss");
    let cli_witness = store_get(&cli_store, &hash);
    let (code, cache, svc_witness) = query(&addr, &["adversary", &shuffle]);
    assert_eq!((code, cache.as_str()), (Some(0), "miss"));
    assert_eq!(sans_manifest(&cli_witness), sans_manifest(&svc_witness));
    svc.shutdown().unwrap();

    // Swapped: each front end is a hit on the other's store and serves
    // the other's bytes verbatim.
    let (svc, addr) = daemon(&cli_store);
    for (file, code, cli_bytes, svc_bytes) in &checks {
        let (svc_code, cache, served) = query(&addr, &["check", file]);
        assert_eq!((svc_code, cache.as_str()), (Some(*code), "hit"));
        assert_eq!(&served, cli_bytes, "snetd serves the CLI's bytes for {file}");
        let cli_out = format!("{file}.swapped-verdict");
        let out =
            snetctl(&["check", file, "--exhaustive", "--store", svc_s, "--verdict-out", &cli_out]);
        assert_eq!(out.status.code(), Some(*code));
        store_line(&out, "hit");
        assert_eq!(&std::fs::read(&cli_out).unwrap(), svc_bytes, "the CLI serves snetd's bytes");
    }
    let (code, cache, served) = query(&addr, &["adversary", &shuffle]);
    assert_eq!((code, cache.as_str()), (Some(0), "hit"));
    assert_eq!(served, cli_witness, "snetd serves the CLI's witness");
    let out = snetctl(&["refute", &shuffle, "--store", svc_s]);
    assert!(out.status.success());
    assert_eq!(store_line(&out, "hit"), hash);
    assert_eq!(store_get(&svc_store, &hash), svc_witness, "refute leaves snetd's entry as it was");
    svc.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The `snet_store_quarantined_total` a `--metrics-out` file reports.
fn quarantined(metrics: &Path) -> f64 {
    let text = std::fs::read_to_string(metrics).unwrap();
    text.lines()
        .find_map(|l| l.strip_prefix("snet_store_quarantined_total "))
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.0)
}

/// Replaces the entry under `hash` with a checksum-valid forgery.
fn forge(store: &Path, hash: &CanonicalHash, tamper: impl FnOnce(&mut VerdictKind)) {
    let store = ArtifactStore::open(store).unwrap();
    let (mut verdict, _) = store.get_verdict(hash).expect("a cold run stored a verdict");
    tamper(&mut verdict.kind);
    store.put(hash, KIND_VERDICT, verdict.to_json().as_bytes()).unwrap();
}

#[test]
fn forged_entries_are_quarantined_and_replaced_not_served() {
    let dir = scratch("forged");
    let store = dir.join("store");
    let s = store.to_str().unwrap();
    let metrics = dir.join("metrics.txt");
    let m = metrics.to_str().unwrap();

    // A witness whose output_b is tampered with.
    let unit = &["--kind", "random-shuffle", "--n", "16", "--depth", "4", "--seed", "7"];
    let shuffle = gen(&dir, "shuffle.json", unit);
    let cold = snetctl(&["refute", &shuffle, "--store", s]);
    let hash = store_line(&cold, "miss");
    let genuine = sans_manifest(&store_get(&store, &hash));
    forge(&store, &hash, |kind| {
        if let VerdictKind::AdversaryWitness { output_b, .. } = kind {
            output_b.swap(0, 1);
        }
    });
    let again = snetctl(&["refute", &shuffle, "--store", s, "--metrics-out", m]);
    assert!(again.status.success(), "{}", String::from_utf8_lossy(&again.stderr));
    assert_eq!(store_line(&again, "miss"), hash, "the forged witness is recomputed");
    assert_eq!(stdout(&again).lines().last(), stdout(&cold).lines().last());
    assert_eq!(quarantined(&metrics), 1.0);
    let replaced = sans_manifest(&store_get(&store, &hash));
    assert_eq!(replaced, genuine, "the entry is replaced by the genuine witness");
    assert!(SortingRefutation::from_verdict(&replaced).is_some());

    // A counterexample whose output is sorted.
    let shallow = &["--kind", "random-shuffle", "--n", "8", "--depth", "2", "--seed", "7"];
    let non_sorter = gen(&dir, "non-sorter.json", shallow);
    let out = dir.join("verdict.json");
    let o = out.to_str().unwrap();
    let cold = snetctl(&["check", &non_sorter, "--exhaustive", "--store", s]);
    assert_eq!(cold.status.code(), Some(3));
    let hash = store_line(&cold, "miss");
    let genuine = sans_manifest(&store_get(&store, &hash));
    forge(&store, &hash, |kind| {
        if let VerdictKind::Counterexample { output, .. } = kind {
            output.sort_unstable();
        }
    });
    let again = snetctl(&[
        "check",
        &non_sorter,
        "--exhaustive",
        "--store",
        s,
        "--verdict-out",
        o,
        "--metrics-out",
        m,
    ]);
    assert_eq!(again.status.code(), Some(3), "the network still fails to sort");
    assert_eq!(store_line(&again, "miss"), hash, "the forged counterexample is recomputed");
    assert_eq!(quarantined(&metrics), 1.0);
    let written = std::fs::read(&out).unwrap();
    assert_eq!(store_get(&store, &hash), written, "the entry holds the bytes just served");
    assert_eq!(sans_manifest(&written), genuine);
    let _ = std::fs::remove_dir_all(&dir);
}
