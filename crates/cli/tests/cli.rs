//! End-to-end tests of the `snetctl` binary: every subcommand, exercised
//! through the real executable.

use std::process::{Command, Output};

fn snetctl(args: &[&str]) -> Output {
    // Hermetic: an ambient SNET_STORE would add cache traffic (extra
    // `store:` lines, replayed verdicts) to exact-output assertions.
    // Store behaviour is covered by tests that pass --store explicitly.
    Command::new(env!("CARGO_BIN_EXE_snetctl"))
        .env_remove("SNET_STORE")
        .args(args)
        .output()
        .expect("snetctl should launch")
}

fn tmpfile(name: &str) -> String {
    let dir = std::env::temp_dir().join("snetctl-tests");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name).to_str().unwrap().to_string()
}

#[test]
fn help_prints_usage() {
    let out = snetctl(&["--help"]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("snetctl"));
}

#[test]
fn unknown_command_fails() {
    let out = snetctl(&["frobnicate"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));
}

#[test]
fn gen_info_check_roundtrip_bitonic() {
    let f = tmpfile("bitonic16.json");
    let out = snetctl(&["gen", "--kind", "bitonic", "--n", "16", "-o", &f]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));

    let out = snetctl(&["info", &f]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(text.contains("shuffle-based"));
    assert!(text.contains("comparator depth: 10"));

    let out = snetctl(&["check", &f, "--exhaustive"]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("sorted all 65536"));
}

/// Every subcommand but `serve` (whose parser is strict already) exits 1
/// on an argument it does not read, or a valued flag with no value,
/// naming it and before doing anything: an ignored misspelt flag would
/// silently change the run (`check --exhaustve` reporting random trials
/// in place of the proof, `gen --sed 7` writing the seed-0 network,
/// `search --max-dept 3` searching without the bound).
#[test]
fn check_rejects_flags_it_does_not_read() {
    let f = tmpfile("misspelt-flags.json");
    let out = snetctl(&["gen", "--kind", "bitonic", "--n", "8", "-o", &f]);
    assert!(out.status.success());
    let unwritten = tmpfile("misspelt-flags-unwritten.json");
    let _ = std::fs::remove_file(&unwritten);
    let store = tmpfile("misspelt-flags-store");
    let _ = std::fs::remove_dir_all(&store);
    let gen = ["gen", "--kind", "random-shuffle", "--n", "16", "--depth", "4"];
    let cases = [
        (vec!["check", &f, "--exhaustve"], "--exhaustve"),
        (vec!["check", &f, "--exhaustive", "--thread", "1"], "--thread"),
        (vec!["check", &f, "stray"], "stray"),
        (vec!["check", &f, "--exhaustive", "--threads"], "--threads"),
        ([&gen[..], &["--sed", "7", "-o", &unwritten]].concat(), "--sed"),
        ([&gen[..], &["-o", &unwritten, "--seed"]].concat(), "--seed"),
        (vec!["info", &f, &f], &f),
        (vec!["refute", &f, "--kk", "3"], "--kk"),
        (vec!["verify", &f, &f, &f], &f),
        (vec!["route", "--n", "8", "--sed", "3"], "--sed"),
        (vec!["search", "--n", "5", "--max-dept", "3"], "--max-dept"),
        (vec!["search", "--n", "5", "--threads"], "--threads"),
        (vec!["render", &f, "--png"], "--png"),
        (vec!["stats", &f, "--trial", "10"], "--trial"),
        (vec!["passes", &f, "--optimize"], "--optimize"),
        (vec!["certify", &f, "-o", &unwritten, "--kk", "3"], "--kk"),
        (vec!["audit", &f, "--sample", "5"], "--sample"),
        (vec!["closure", "--n", "8", "--rh", "shuffle"], "--rh"),
        (vec!["duel", "--n", "8", "--kk", "2"], "--kk"),
        (vec!["report", &f, "--chrom", &unwritten], "--chrom"),
        (vec!["bench", "diff", &f, "--againts", &f], "--againts"),
        (vec!["count", "--width", "4", "--op", "10"], "--op"),
        (vec!["store", "ls", "--store", &store, "--verbose"], "--verbose"),
        (vec!["store", "gc", "--store", &store, "--max-bytes"], "--max-bytes"),
        (vec!["metrics", &f, "--wach", "1"], "--wach"),
        (vec!["query", "--addr", "127.0.0.1:1", "health", "--verbose"], "--verbose"),
        (
            vec!["query", "--addr", "127.0.0.1:1", "search", "--n", "4", "--max-dept", "3"],
            "--max-dept",
        ),
        (vec!["query", "--addr", "127.0.0.1:1", "check", &f, &f], &f),
        (vec!["trace", "0123", "--clint", &f], "--clint"),
    ];
    for (args, named) in cases {
        let out = snetctl(&args);
        assert_eq!(out.status.code(), Some(1), "{args:?} must be a usage error");
        assert!(out.stdout.is_empty(), "{args:?} must do nothing");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(named), "{args:?}: {err}");
    }
    assert!(!std::path::Path::new(&unwritten).exists(), "no command wrote its output");
    assert!(!std::path::Path::new(&store).exists(), "no command opened the store");
    let out = snetctl(&["check", &f, "--exhaustive", "--threads", "1", "--no-store"]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
}

#[test]
fn check_finds_counterexample_on_brick_prefix() {
    // A non-sorting circuit: the empty check via random trials must exit 3.
    let f = tmpfile("shallow.json");
    let out = snetctl(&[
        "gen",
        "--kind",
        "random-shuffle",
        "--n",
        "16",
        "--depth",
        "3",
        "--seed",
        "5",
        "-o",
        &f,
    ]);
    assert!(out.status.success());
    let out = snetctl(&["check", &f, "--trials", "500", "--seed", "1"]);
    assert_eq!(out.status.code(), Some(3), "expected counterexample exit code");
    assert!(String::from_utf8_lossy(&out.stdout).contains("NOT a sorting network"));
}

#[test]
fn refute_and_verify_witness() {
    let f = tmpfile("unit.json");
    let w = tmpfile("witness.json");
    let out = snetctl(&[
        "gen",
        "--kind",
        "random-shuffle",
        "--n",
        "32",
        "--depth",
        "10",
        "--seed",
        "9",
        "-o",
        &f,
    ]);
    assert!(out.status.success());
    let out = snetctl(&["refute", &f, "-o", &w]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("refuted"));

    let out = snetctl(&["verify", &f, &w]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("witness verified"));

    // Tamper with the witness: verification must reject it.
    let text = std::fs::read_to_string(&w).unwrap();
    let tampered = text.replacen("\"m\":", "\"m\": 99, \"_orig_m\":", 1);
    let w2 = tmpfile("witness_bad.json");
    std::fs::write(&w2, tampered).unwrap();
    let out = snetctl(&["verify", &f, &w2]);
    assert!(!out.status.success());
}

#[test]
fn refute_rejects_circuit_files() {
    let f = tmpfile("oddeven.json");
    snetctl(&["gen", "--kind", "odd-even", "--n", "8", "-o", &f]);
    let out = snetctl(&["refute", &f]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("shuffle-based"));
}

#[test]
fn refute_exhausted_on_full_sorter() {
    let f = tmpfile("bitonic8.json");
    snetctl(&["gen", "--kind", "bitonic", "--n", "8", "-o", &f]);
    let out = snetctl(&["refute", &f]);
    assert_eq!(out.status.code(), Some(4), "full sorter: adversary exhausted");
}

#[test]
fn route_random_and_explicit() {
    let out = snetctl(&["route", "--n", "16", "--seed", "2"]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("realized    : true"));

    let out = snetctl(&["route", "--n", "4", "--perm", "2,0,3,1"]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("realized    : true"));

    let out = snetctl(&["route", "--n", "4", "--perm", "0,0,1,2"]);
    assert!(!out.status.success(), "non-bijection must be rejected");
}

#[test]
fn render_small_network() {
    let f = tmpfile("brick4.json");
    snetctl(&["gen", "--kind", "brick", "--n", "4", "-o", &f]);
    let out = snetctl(&["render", &f]);
    assert!(out.status.success());
    let art = String::from_utf8_lossy(&out.stdout).to_string();
    assert_eq!(art.lines().count(), 4);
    assert!(art.contains('m'));
}

#[test]
fn corrupt_file_is_rejected_cleanly() {
    let f = tmpfile("corrupt.json");
    std::fs::write(&f, "{\"type\": \"circuit\", \"network\": {\"n\": 2, \"levels\": [{\"route\": null, \"elements\": [{\"a\":0,\"b\":0,\"kind\":\"Cmp\"}]}]}}").unwrap();
    let out = snetctl(&["info", &f]);
    assert!(!out.status.success(), "self-loop element must fail validation on load");
}

/// Asserts a clean usage failure: exit 1, the file named, no panic.
fn assert_rejected(args: &[&str], path: &str) {
    let out = snetctl(args);
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{args:?}: {err}");
    assert!(err.contains(path), "{args:?}: stderr names the file: {err}");
    assert!(!err.contains("panicked"), "{args:?}: {err}");
}

#[test]
fn malformed_network_files_exit_1_without_panicking() {
    let shuffle =
        |n: usize, stages: &str| format!(r#"{{"type":"shuffle","n":{n},"stages":{stages}}}"#);
    // Shapes no shuffle network has: every command that loads them fails.
    for (name, doc) in [
        ("shuffle_n6.json", shuffle(6, r#"[["Cmp","Cmp","Cmp"]]"#)),
        ("shuffle_n0.json", shuffle(0, "[]")),
        ("shuffle_short_stage.json", shuffle(8, r#"[["Cmp","Cmp","Cmp","Cmp"],["Cmp"]]"#)),
    ] {
        let f = tmpfile(name);
        std::fs::write(&f, doc).unwrap();
        for cmd in ["check", "info", "refute"] {
            assert_rejected(&[cmd, &f], &f);
        }
        assert_rejected(&["certify", &f, "-o", &tmpfile("unused_cert.json")], &f);
    }
    // Well-formed but empty: nothing for the adversary to play against.
    for (name, doc) in [
        ("shuffle_no_stages.json", shuffle(8, "[]")),
        (
            "ird_no_blocks.json",
            r#"{"type":"ird","network":{"blocks":[],"post_route":null}}"#.into(),
        ),
    ] {
        let f = tmpfile(name);
        std::fs::write(&f, doc).unwrap();
        assert_rejected(&["refute", &f], &f);
        assert_rejected(&["certify", &f, "-o", &tmpfile("unused_cert.json")], &f);
    }
}

#[test]
fn out_of_range_adversary_parameters_exit_1_without_panicking() {
    let f = tmpfile("adversary_k.json");
    std::fs::write(&f, r#"{"type":"shuffle","n":4,"stages":[["Cmp","Cmp"],["Cmp","Cmp"]]}"#)
        .unwrap();
    let cert = tmpfile("unused_k_cert.json");
    // k = 0, and a k whose t(lg n) = k³ + lg n·k² overflows a u32 set index
    // (it used to wrap k² to 1); duel on a width no shuffle network has.
    for (args, why) in [
        (vec!["refute", &f, "--k", "0"], "at least 1"),
        (vec!["refute", &f, "--k", "4294967295"], "u32"),
        (vec!["certify", &f, "-o", &cert, "--k", "0"], "at least 1"),
        (vec!["duel", "--n", "8", "--k", "0"], "at least 1"),
        (vec!["duel", "--n", "8", "--k", "2000"], "u32"),
        (vec!["duel", "--n", "6"], "n = 2^l"),
    ] {
        let out = snetctl(&args);
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {err}");
        assert!(err.contains(why), "{args:?}: {err}");
        assert!(!err.contains("panicked"), "{args:?}: {err}");
    }
}

#[test]
fn gen_rejects_widths_its_kind_cannot_build() {
    let f = tmpfile("gen_width.json");
    for kind in ["bitonic", "odd-even", "periodic", "random-shuffle", "randomized", "random-ird"] {
        for n in ["6", "12", "0", "1"] {
            let out = snetctl(&["gen", "--kind", kind, "--n", n, "--depth", "3", "-o", &f]);
            let err = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(1), "{kind} --n {n}: {err}");
            assert!(err.contains("n = 2^l"), "{kind} --n {n}: {err}");
            assert!(!err.contains("panicked"), "{kind} --n {n}: {err}");
        }
    }
    for kind in ["pratt", "brick"] {
        let out = snetctl(&["gen", "--kind", kind, "--n", "6", "-o", &f]);
        assert!(out.status.success(), "{kind}: {}", String::from_utf8_lossy(&out.stderr));
        assert!(String::from_utf8_lossy(&out.stdout).contains("6 wires"));
    }
}

#[test]
fn refute_explain_prints_proof_log() {
    let f = tmpfile("unit2.json");
    snetctl(&[
        "gen",
        "--kind",
        "random-shuffle",
        "--n",
        "16",
        "--depth",
        "8",
        "--seed",
        "3",
        "-o",
        &f,
    ]);
    let out = snetctl(&["refute", &f, "--explain"]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(text.contains("Theorem 4.1 adversary run"));
    assert!(text.contains("kept set M_"));
}

#[test]
fn ird_files_roundtrip_and_refute() {
    let f = tmpfile("ird.json");
    let w = tmpfile("ird_witness.json");
    let out = snetctl(&[
        "gen",
        "--kind",
        "random-ird",
        "--n",
        "32",
        "--blocks",
        "2",
        "--seed",
        "11",
        "-o",
        &f,
    ]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let out = snetctl(&["info", &f]);
    assert!(String::from_utf8_lossy(&out.stdout).contains("iterated reverse delta"));
    let out = snetctl(&["refute", &f, "-o", &w]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let out = snetctl(&["verify", &f, &w]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
}

#[test]
fn corrupt_ird_rejected() {
    // A gamma element that does not cross the two subnetworks.
    let f = tmpfile("bad_ird.json");
    std::fs::write(
        &f,
        r#"{"type":"ird","network":{"blocks":[{"pre_route":null,
      "rdn":[[0,1,[]],[2,3,[]],[{"a":0,"b":1,"kind":"Cmp"}]]}],"post_route":null}}"#,
    )
    .unwrap();
    let out = snetctl(&["info", &f]);
    assert!(!out.status.success(), "non-crossing gamma must be rejected on load");
}

#[test]
fn render_svg_and_dot() {
    let f = tmpfile("bitonic8_render.json");
    snetctl(&["gen", "--kind", "bitonic", "--n", "8", "-o", &f]);
    let out = snetctl(&["render", &f, "--svg"]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).starts_with("<svg"));
    let out = snetctl(&["render", &f, "--dot"]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).starts_with("digraph"));
}

#[test]
fn stats_reports_metrics() {
    let f = tmpfile("bitonic16_stats.json");
    snetctl(&["gen", "--kind", "bitonic", "--n", "16", "-o", &f]);
    let out = snetctl(&["stats", &f, "--trials", "50"]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(text.contains("fraction sorted   : 1.0000"));
    assert!(text.contains("settle depth"));
}

#[test]
fn closure_detects_impossible_permutations() {
    let out = snetctl(&["closure", "--n", "16", "--rho", "shuffle"]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("depth ≥ 4"));
    let out = snetctl(&["closure", "--n", "16", "--rho", "identity"]);
    assert_eq!(out.status.code(), Some(5));
    assert!(String::from_utf8_lossy(&out.stdout).contains("NO sorting network"));
}

#[test]
fn duel_plays_on_stdin() {
    use std::io::Write;
    use std::process::Stdio;
    let mut child = Command::new(env!("CARGO_BIN_EXE_snetctl"))
        .args(["duel", "--n", "8"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .unwrap();
    {
        let stdin = child.stdin.as_mut().unwrap();
        // Two stages of all-+ then quit.
        writeln!(stdin, "++++").unwrap();
        writeln!(stdin, "++++").unwrap();
        writeln!(stdin).unwrap();
    }
    let out = child.wait_with_output().unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(text.contains("outcomes:"));
    assert!(text.contains("adversary wins"), "{text}");
}

#[test]
fn duel_rejects_malformed_stage() {
    use std::io::Write;
    use std::process::Stdio;
    let mut child = Command::new(env!("CARGO_BIN_EXE_snetctl"))
        .args(["duel", "--n", "8"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    child.stdin.as_mut().unwrap().write_all(b"++\n").unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(!out.status.success());
}

#[test]
fn certify_and_audit_roundtrip() {
    let f = tmpfile("cert_net.json");
    let c = tmpfile("cert.json");
    snetctl(&[
        "gen",
        "--kind",
        "random-shuffle",
        "--n",
        "32",
        "--depth",
        "10",
        "--seed",
        "21",
        "-o",
        &f,
    ]);
    let out = snetctl(&["certify", &f, "-o", &c]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let out = snetctl(&["audit", &c, "--samples", "100"]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("certificate VALID"));

    // Tamper: flip a pattern tag.
    let text = std::fs::read_to_string(&c).unwrap();
    let tampered = text.replacen("\"pattern_tags\": [", "\"pattern_tags\": [1, 1, 1,", 1);
    let c2 = tmpfile("cert_bad.json");
    std::fs::write(&c2, tampered).unwrap();
    let out = snetctl(&["audit", &c2]);
    assert!(!out.status.success());
}

#[test]
fn certify_full_sorter_exits_gracefully() {
    let f = tmpfile("cert_bitonic.json");
    let c = tmpfile("cert_none.json");
    snetctl(&["gen", "--kind", "bitonic", "--n", "8", "-o", &f]);
    let out = snetctl(&["certify", &f, "-o", &c]);
    assert_eq!(out.status.code(), Some(4));
}

#[test]
fn trace_out_writes_jsonl_and_report_reconstructs_spans() {
    let f = tmpfile("bitonic16_trace.json");
    let t = tmpfile("trace.jsonl");
    snetctl(&["gen", "--kind", "bitonic", "--n", "16", "-o", &f]);
    let out = snetctl(&["check", &f, "--exhaustive", "--progress", "--trace-out", &t]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("sorted all 65536"));
    // The progress meter draws on stderr.
    assert!(String::from_utf8_lossy(&out.stderr).contains("check.zero_one"));

    // The trace file leads with the manifest and contains the span events.
    let trace = std::fs::read_to_string(&t).unwrap();
    let first = trace.lines().next().unwrap();
    assert!(first.contains("\"type\":\"manifest\""), "manifest first: {first}");
    assert!(trace.contains("\"name\":\"ir.compile\""));
    assert!(trace.contains("\"name\":\"check.zero_one\""));

    // `report` reconstructs the tree: compile + passes + check with
    // counters, headed by the manifest.
    let out = snetctl(&["report", &t]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(text.contains("run manifest"));
    assert!(text.contains("tool"));
    assert!(text.contains("ir.compile"));
    assert!(text.contains("ir.pass"));
    assert!(text.contains("check.zero_one"));
    assert!(text.contains("check.inputs"));
    // Pass spans are indented under the compile span.
    let compile_indent = text.lines().find(|l| l.contains("ir.compile")).unwrap();
    let pass_indent = text.lines().find(|l| l.contains("ir.pass")).unwrap();
    let lead = |s: &str| s.len() - s.trim_start().len();
    assert!(lead(pass_indent) > lead(compile_indent), "pass nests under compile");
}

#[test]
fn trace_flags_are_global_and_stripped() {
    // --trace-out before the subcommand and --progress after: both must be
    // accepted and not confuse subcommand parsing.
    let f = tmpfile("brick8_trace.json");
    let t = tmpfile("trace_global.jsonl");
    snetctl(&["gen", "--kind", "brick", "--n", "8", "-o", &f]);
    let out = snetctl(&["--trace-out", &t, "check", &f, "--exhaustive", "--progress"]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(std::fs::read_to_string(&t).unwrap().contains("check.zero_one"));
    // A missing value for --trace-out errors out cleanly.
    let out = snetctl(&["check", &f, "--trace-out"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("requires a value"));
}

#[test]
fn report_rejects_missing_and_garbage_files() {
    let out = snetctl(&["report", "/nonexistent/trace.jsonl"]);
    assert!(!out.status.success());
    let g = tmpfile("garbage.jsonl");
    std::fs::write(&g, "this is not json\n").unwrap();
    let out = snetctl(&["report", &g]);
    assert!(!out.status.success());
}

#[test]
fn refute_recognizes_circuit_files_in_the_class() {
    // A periodic-balanced block is a reverse delta network in disguise;
    // stored as a plain circuit it must still be refutable via recognition.
    let f = tmpfile("periodic16.json");
    snetctl(&["gen", "--kind", "periodic", "--n", "16", "-o", &f]);
    // The FULL sorter exhausts the adversary (exit 4)…
    let out = snetctl(&["refute", &f]);
    assert_eq!(out.status.code(), Some(4), "{}", String::from_utf8_lossy(&out.stderr));
    // …while odd-even (genuinely outside the class) still reports no
    // structure.
    let g = tmpfile("oddeven16.json");
    snetctl(&["gen", "--kind", "odd-even", "--n", "16", "-o", &g]);
    let out = snetctl(&["refute", &g]);
    assert!(!out.status.success());
}

/// Like [`snetctl`] but with `SNET_THREADS` pinned, for determinism tests.
fn snetctl_threads(args: &[&str], threads: &str) -> Output {
    Command::new(env!("CARGO_BIN_EXE_snetctl"))
        .env_remove("SNET_STORE")
        .args(args)
        .env("SNET_THREADS", threads)
        .output()
        .expect("snetctl should launch")
}

#[test]
fn search_finds_known_optimum_and_emits_verified_network() {
    let f = tmpfile("optimal5.json");
    let fr = tmpfile("frontier5.json");
    let out = snetctl(&["search", "--n", "5", "-o", &f, "--frontier-out", &fr]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(text.contains("adversary floor = 3"), "{text}");
    assert!(text.contains("optimal depth: 5 ("), "{text}");
    assert!(text.contains("verified: sharded 0-1 check passed"), "{text}");
    // The emitted witness is a real sorting network.
    let out = snetctl(&["check", &f, "--exhaustive"]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("sorted all 32"));
    // The frontier document carries the schema and the embedded manifest.
    let frontier = std::fs::read_to_string(&fr).unwrap();
    assert!(frontier.contains("\"schema\": \"snet-search-frontier/2\""), "{frontier}");
    assert!(frontier.contains("\"manifest\""));
    assert!(frontier.contains("\"optimal_depth\": 5"));
}

#[test]
fn search_is_thread_count_independent() {
    // Same -o path both times so stdout (which echoes it) is comparable
    // byte for byte; the acceptance bar for the parallel frontier.
    let f = tmpfile("optimal6_det.json");
    let a = snetctl_threads(&["search", "--n", "6", "-o", &f], "1");
    assert!(a.status.success(), "{}", String::from_utf8_lossy(&a.stderr));
    let net_a = std::fs::read(&f).unwrap();
    let b = snetctl_threads(&["search", "--n", "6", "-o", &f], "8");
    assert!(b.status.success(), "{}", String::from_utf8_lossy(&b.stderr));
    let net_b = std::fs::read(&f).unwrap();
    assert_eq!(a.stdout, b.stdout, "stdout must be byte-identical across thread counts");
    assert_eq!(net_a, net_b, "emitted network must be byte-identical across thread counts");
    assert!(String::from_utf8_lossy(&a.stdout).contains("optimal depth: 5 ("));
}

#[test]
fn search_reports_refutation_when_ceiling_is_too_low() {
    let out = snetctl(&["search", "--n", "4", "--max-depth", "2"]);
    assert_eq!(out.status.code(), Some(7), "refuted ceiling has its own exit code");
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(text.contains("depth  2: refuted"), "{text}");
    assert!(text.contains("no sorting network on 4 wires within depth 2"), "{text}");
}

#[test]
fn search_shuffle_legal_emits_a_shuffle_file() {
    let f = tmpfile("shuffle4.json");
    let out = snetctl(&["search", "--n", "4", "--shuffle-legal", "-o", &f]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("mode = shuffle-legal"));
    // The witness file round-trips as a shuffle-based document…
    let out = snetctl(&["info", &f]);
    assert!(String::from_utf8_lossy(&out.stdout).contains("shuffle-based"));
    // …and sorts.
    let out = snetctl(&["check", &f, "--exhaustive"]);
    assert!(out.status.success());
    // Non-power-of-two widths are rejected up front in this mode.
    let out = snetctl(&["search", "--n", "6", "--shuffle-legal"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("power of two"));
}

#[test]
fn gen_randomized_is_seed_reproducible() {
    let a = tmpfile("rand_a.json");
    let b = tmpfile("rand_b.json");
    let c = tmpfile("rand_c.json");
    for (path, seed) in [(&a, "9"), (&b, "9"), (&c, "10")] {
        let out =
            snetctl(&["gen", "--kind", "randomized", "--n", "16", "--seed", seed, "-o", path]);
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    }
    let (da, db, dc) =
        (std::fs::read(&a).unwrap(), std::fs::read(&b).unwrap(), std::fs::read(&c).unwrap());
    assert_eq!(da, db, "same seed, same sampled network, byte for byte");
    assert_ne!(da, dc, "different seed must resample the randomizing prefix");
}

#[test]
fn seed_is_threaded_into_the_run_manifest() {
    let f = tmpfile("rand_traced.json");
    let tr = tmpfile("rand_trace.jsonl");
    let out = snetctl(&[
        "gen",
        "--kind",
        "randomized",
        "--n",
        "16",
        "--seed",
        "41",
        "-o",
        &f,
        "--trace-out",
        &tr,
    ]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let trace = std::fs::read_to_string(&tr).unwrap();
    let manifest_line =
        trace.lines().find(|l| l.contains("run.manifest")).expect("manifest leads the trace");
    assert!(manifest_line.contains("\"seed\":\"41\""), "{manifest_line}");
}

#[test]
fn search_stats_reports_prune_breakdown_and_tt_hit_rate() {
    let out = snetctl_threads(&["search", "--n", "6", "--stats"], "2");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(text.contains("optimal depth: 5"), "{text}");
    assert!(text.contains("prune breakdown (vs nodes)"), "{text}");
    assert!(text.contains("hit rate"), "{text}");

    // The breakdown carries live counters, not a table of zeros: at
    // n = 6 the TT must field probes and at least one prune kind fires.
    let row_count = |label: &str| -> u64 {
        let line = text.lines().find(|l| l.trim_start().starts_with(label)).unwrap_or_else(|| {
            panic!("row {label:?} missing from:\n{text}");
        });
        line.split_whitespace()
            .find_map(|w| w.parse::<u64>().ok())
            .unwrap_or_else(|| panic!("no count in {line:?}"))
    };
    assert!(row_count("transposition hits") > 0, "{text}");
    assert!(row_count("probes") > 0, "{text}");
    let hit_rate_line = text.lines().find(|l| l.trim_start().starts_with("hit rate")).unwrap();
    assert!(!hit_rate_line.contains(" 0.0%"), "nonzero hit rate: {hit_rate_line}");
    // Percentages annotate every breakdown row; histograms show samples.
    assert!(text.contains('%'), "{text}");
    assert!(text.contains("task nodes"), "{text}");
    assert!(text.contains("worker"), "per-worker balance table: {text}");
}

#[test]
fn report_chrome_exports_valid_trace_event_json() {
    let t = tmpfile("chrome_src.jsonl");
    let c = tmpfile("chrome_out.json");
    let out = snetctl_threads(&["search", "--n", "6", "--trace-out", &t, "--stats"], "2");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));

    let out = snetctl(&["report", &t, "--chrome", &c]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("chrome trace written"));

    // The export must be well-formed trace-event JSON that a real
    // JSON parser accepts, not just our own reader.
    let json = std::fs::read_to_string(&c).unwrap();
    let doc: serde_json::Value = serde_json::from_str(&json).expect("chrome export parses");
    fn fstr<'a>(v: &'a serde_json::Value, key: &str) -> &'a str {
        v.get(key).and_then(|f| f.as_str()).unwrap_or("")
    }
    let events = doc.get("traceEvents").and_then(|v| v.as_array()).expect("traceEvents array");
    assert!(!events.is_empty());

    // Duration events for the search spans, with microsecond timestamps.
    let complete: Vec<_> = events.iter().filter(|e| fstr(e, "ph") == "X").collect();
    assert!(
        complete.iter().any(|e| fstr(e, "name") == "search.run"),
        "search.run becomes a duration event"
    );
    assert!(complete.iter().any(|e| fstr(e, "name") == "search.worker"));
    for e in &complete {
        assert!(e.get("ts").and_then(|v| v.as_f64()).is_some(), "ts missing");
        assert!(e.get("dur").and_then(|v| v.as_f64()).is_some(), "dur missing");
    }
    // Counter tracks for the node/prune counters.
    assert!(
        events.iter().any(|e| fstr(e, "ph") == "C" && fstr(e, "name") == "search.nodes"),
        "counter track present"
    );
    // Metadata names the process and gives every worker its own lane.
    let meta_name = |e: &serde_json::Value| {
        e.get("args").map(|a| fstr(a, "name").to_string()).unwrap_or_default()
    };
    let thread_names: Vec<String> = events
        .iter()
        .filter(|e| fstr(e, "ph") == "M" && fstr(e, "name") == "thread_name")
        .map(meta_name)
        .collect();
    assert!(thread_names.iter().any(|n| n == "main"), "{thread_names:?}");
    // Worker lanes carry stable logical names: `search-worker-<slot>`,
    // not per-OS-thread ordinals that change round to round.
    assert!(thread_names.iter().any(|n| n == "search-worker-0"), "{thread_names:?}");
    assert!(thread_names.iter().any(|n| n == "search-worker-1"), "{thread_names:?}");
    assert!(thread_names.iter().all(|n| !n.starts_with("worker-")), "{thread_names:?}");
    assert!(
        events.iter().any(|e| fstr(e, "ph") == "M"
            && fstr(e, "name") == "process_name"
            && meta_name(e) == "snetctl"),
        "process lane is named after the tool"
    );
}

/// Every subcommand that takes a positional argument and a flag reads
/// the same run whichever comes first: the flag guard hands each command
/// its positional arguments in order, so a flag before the file is not
/// opened as the file (`check --exhaustive F` once failed with
/// `--exhaustive: No such file or directory`). Where a command has
/// subcommands, the flags may also come before the subcommand word
/// (`store --store S get H`). `info`, `passes` and `verify` take no
/// flags; `metrics --watch` never exits. The `query` and `trace` rows
/// reach no daemon, so every spelling fails alike, naming the address.
#[test]
fn flags_may_come_before_or_after_positional_arguments() {
    let sorter = tmpfile("order-pratt8.json");
    let shuffle = tmpfile("order-shuffle16.json");
    let cert = tmpfile("order-cert.json");
    let chrome = tmpfile("order-chrome.json");
    let trace = tmpfile("order-trace.jsonl");
    let store = tmpfile("order-store");
    let _ = std::fs::remove_dir_all(&store);
    let setup: [&[&str]; 4] = [
        &["gen", "--kind", "pratt", "--n", "8", "-o", &sorter],
        &[
            "gen",
            "--kind",
            "random-shuffle",
            "--n",
            "16",
            "--depth",
            "4",
            "--seed",
            "7",
            "-o",
            &shuffle,
        ],
        &["--trace-out", &trace, "check", &sorter, "--no-store"],
        &["check", &sorter, "--exhaustive", "--store", &store],
    ];
    let mut hash = String::new();
    for args in setup {
        let out = snetctl(args);
        assert!(out.status.success(), "{args:?}: {}", String::from_utf8_lossy(&out.stderr));
        let text = String::from_utf8_lossy(&out.stdout).to_string();
        if let Some(h) = text.lines().find_map(|l| l.strip_prefix("store: miss ")) {
            hash = h.to_string();
        }
    }
    assert_eq!(hash.len(), 64, "the store run printed its key");
    let base = write_baseline_file("order", "order-base.json", 1_000.0, 10.0);
    let nowhere = ["--addr", "127.0.0.1:1"];
    // (command words, positional arguments, flags, exit code)
    type Case<'a> = (&'a [&'a str], Vec<&'a str>, Vec<&'a str>, i32);
    let cases: [Case; 15] = [
        (&["check"], vec![&sorter], vec!["--exhaustive", "--no-store", "--threads", "1"], 0),
        (&["refute"], vec![&shuffle], vec!["--k", "3", "--no-store"], 0),
        (&["render"], vec![&sorter], vec!["--dot"], 0),
        (&["stats"], vec![&sorter], vec!["--trials", "20", "--seed", "3"], 0),
        (&["certify"], vec![&shuffle], vec!["-o", &cert, "--no-store"], 0),
        (&["audit"], vec![&cert], vec!["--samples", "5", "--seed", "1"], 0),
        (&["report"], vec![&trace], vec!["--chrome", &chrome], 0),
        (&["bench", "diff"], vec![&base], vec!["--against", &base, "--fail-on-regress", "10"], 0),
        (&["store", "get"], vec![&hash], vec!["--store", &store], 0),
        (&["store", "ls"], vec![], vec!["--store", &store], 0),
        (&["store", "gc"], vec![], vec!["--store", &store, "--max-bytes", "1000000"], 0),
        (&["query", "adversary"], vec![&shuffle], [&nowhere[..], &["--k", "3"]].concat(), 1),
        (&["query", "check"], vec![&sorter], nowhere.to_vec(), 1),
        (&["query", "job"], vec!["job-1"], nowhere.to_vec(), 1),
        (&["trace"], vec!["0123"], nowhere.to_vec(), 1),
    ];
    for (command, positional, flags, code) in cases {
        let last = snetctl(&[command, &positional, &flags].concat());
        let shown = |o: &Output| {
            format!("{}{}", String::from_utf8_lossy(&o.stdout), String::from_utf8_lossy(&o.stderr))
        };
        assert_eq!(last.status.code(), Some(code), "{command:?} flags last: {}", shown(&last));
        if code != 0 {
            assert!(shown(&last).contains("127.0.0.1:1"), "{command:?}: {}", shown(&last));
        }
        let (word, sub) = command.split_at(1);
        let mut spellings = vec![[command, &flags, &positional].concat()];
        if !sub.is_empty() {
            spellings.push([word, &flags, sub, &positional].concat());
        }
        for args in spellings {
            let out = snetctl(&args);
            assert_eq!(out.status.code(), Some(code), "{args:?}: {}", shown(&out));
            assert_eq!(out.stdout, last.stdout, "{args:?}: stdout");
            assert_eq!(out.stderr, last.stderr, "{args:?}: stderr");
        }
    }
}

/// A hand-written baseline file: the same shape `Baseline::save` emits,
/// which keeps this test honest about the on-disk format.
fn write_baseline_file(name: &str, file: &str, states_per_sec: f64, wall_ms: f64) -> String {
    let path = tmpfile(file);
    let text = format!(
        "{{\n  \"schema\": \"snet-bench-baseline/1\",\n  \"name\": \"{name}\",\n  \
         \"manifest\": {{\n    \"tool\": \"cli-test\",\n    \"threads\": \"2\"\n  }},\n  \
         \"metrics\": {{\n    \"states_per_sec\": {states_per_sec},\n    \
         \"wall_ms\": {wall_ms}\n  }}\n}}\n"
    );
    std::fs::write(&path, text).unwrap();
    path
}

#[test]
fn bench_diff_passes_clean_and_fails_injected_regression() {
    let old = write_baseline_file("search_n6", "base_old.json", 1_000_000.0, 120.0);

    // A re-run within noise: small moves in the good direction pass.
    let fresh = write_baseline_file("search_n6", "base_fresh.json", 1_020_000.0, 118.0);
    let out = snetctl(&["bench", "diff", &fresh, "--against", &old, "--fail-on-regress", "10"]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stdout));
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(text.contains("OK:"), "{text}");
    assert!(!text.contains("REGRESSED"), "{text}");

    // Throughput halved: the diff must flag it and exit nonzero.
    let slow = write_baseline_file("search_n6", "base_slow.json", 500_000.0, 240.0);
    let out = snetctl(&["bench", "diff", &slow, "--against", &old, "--fail-on-regress", "10"]);
    assert_eq!(out.status.code(), Some(8), "{}", String::from_utf8_lossy(&out.stdout));
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(text.contains("REGRESSED"), "{text}");
    assert!(text.contains("states_per_sec"), "{text}");
    assert!(text.contains("FAIL"), "{text}");

    // The same regression under a huge threshold is tolerated.
    let out = snetctl(&["bench", "diff", &slow, "--against", &old, "--fail-on-regress", "150"]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stdout));
}

#[test]
fn bench_diff_rejects_malformed_baselines() {
    let g = tmpfile("base_garbage.json");
    std::fs::write(&g, "{\"schema\": \"something-else/9\", \"name\": \"x\"}").unwrap();
    let out = snetctl(&["bench", "diff", &g]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("schema"));

    let out = snetctl(&["bench", "diff", "/nonexistent/base.json"]);
    assert!(!out.status.success());

    let out = snetctl(&["bench", "frobnicate"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown bench subcommand"));
}

#[test]
fn count_live_run_reports_step_property() {
    let out = snetctl(&["count", "--width", "4", "--threads", "2", "--ops", "50"]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(text.contains("counting network: bitonic, width 4"));
    assert!(text.contains("step property   : ok"));
    assert!(text.contains("slot counts     : [25, 25, 25, 25]"));
}

#[test]
fn count_exhaustive_exploration_proves_all_schedules() {
    let out = snetctl(&[
        "count",
        "--width",
        "4",
        "--threads",
        "2",
        "--ops",
        "1",
        "--explore",
        "--exhaustive",
    ]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(text.contains("schedules       : 70"), "{text}");
    assert!(text.contains("ok in every explored schedule"));

    // Intractable configurations are refused, not attempted.
    let out = snetctl(&[
        "count",
        "--width",
        "8",
        "--threads",
        "4",
        "--ops",
        "4",
        "--explore",
        "--exhaustive",
    ]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("intractable"));
}

#[test]
fn count_sampling_is_seeded_and_traces_carry_runtime_counters() {
    let t = tmpfile("count-trace.jsonl");
    let out = snetctl(&[
        "count",
        "--width",
        "8",
        "--threads",
        "3",
        "--ops",
        "2",
        "--explore",
        "--schedules",
        "100",
        "--seed",
        "9",
        "--kind",
        "periodic",
        "--trace-out",
        &t,
    ]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let trace = std::fs::read_to_string(&t).unwrap();
    assert!(trace.contains("sched.schedules"), "explorer emits schedule counters");
    assert!(trace.contains("\"seed\":\"9\""), "manifest pins the sampling seed");

    // Live mode emits the runtime counters and the visit histogram.
    let t = tmpfile("count-live-trace.jsonl");
    let out = snetctl(&["count", "--width", "4", "--ops", "32", "--trace-out", &t]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let trace = std::fs::read_to_string(&t).unwrap();
    assert!(trace.contains("runtime.traversals"));
    assert!(trace.contains("runtime.balancer_ops"));
    assert!(trace.contains("runtime.balancer.visits"));
}

#[test]
fn count_rejects_bad_configurations() {
    let out = snetctl(&["count", "--width", "3"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("power of two"));
    let out = snetctl(&["count", "--width", "4", "--kind", "odd-even"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown --kind"));
}

#[test]
fn metrics_out_dump_validates_and_carries_subsystem_series() {
    let m = tmpfile("metrics-search.txt");
    let out = snetctl(&["search", "--n", "6", "--metrics-out", &m]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = std::fs::read_to_string(&m).unwrap();
    assert!(text.contains("# TYPE snet_search_nodes_total counter"), "{text}");
    assert!(text.contains("snet_search_rounds_total"), "{text}");
    assert!(text.contains("# TYPE snet_search_task_nodes histogram"), "{text}");
    assert!(text.contains("snet_process_uptime_seconds"), "{text}");

    // `snetctl metrics FILE` validates the dump and reprints it.
    let out = snetctl(&["metrics", &m]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("snet_search_nodes_total"));
    assert!(String::from_utf8_lossy(&out.stderr).contains("ok ("));

    // A dump with duplicated series must fail validation.
    let broken = format!("{text}{text}");
    std::fs::write(&m, broken).unwrap();
    let out = snetctl(&["metrics", &m]);
    assert!(!out.status.success(), "duplicate series should be rejected");
}

#[test]
fn metrics_snapshot_emits_valid_exposition() {
    let out = snetctl(&["metrics"]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(text.contains("# TYPE snet_process_uptime_seconds gauge"), "{text}");
    assert!(text.contains("snet_process_resident_memory_bytes"), "{text}");
}

#[test]
fn store_stat_reports_session_counters() {
    let dir = tmpfile("stat-session-store");
    let _ = std::fs::remove_dir_all(&dir);
    let out = snetctl(&["store", "stat", "--store", &dir]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(text.contains("session     : 0 hits / 0 misses"), "{text}");
    assert!(text.contains("hit rate  : n/a"), "{text}");
    assert!(text.contains("bytes out : 0"), "{text}");
}

#[test]
fn injected_panic_dumps_flight_recording_that_report_renders() {
    // The flight recorder is always on; a mid-search panic must leave a
    // flight-<pid>.jsonl in the working directory with the recent event
    // stream, and `report` must render it.
    let dir = std::env::temp_dir().join("snetctl-flight-panic");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_snetctl"))
        .env_remove("SNET_STORE")
        .env("SNET_FAULT_PANIC_AFTER", "50")
        .current_dir(&dir)
        .args(["search", "--n", "6"])
        .output()
        .expect("snetctl should launch");
    assert!(!out.status.success(), "injected fault must abort the run");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("injected fault"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let dump = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .find(|p| p.file_name().and_then(|f| f.to_str()).is_some_and(|f| f.starts_with("flight-")))
        .expect("panic hook must write flight-<pid>.jsonl");
    let lines = std::fs::read_to_string(&dump).unwrap();
    assert!(lines.lines().count() >= 40, "dump should carry the recent event stream");
    let out = snetctl(&["report", dump.to_str().unwrap()]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(
        String::from_utf8_lossy(&out.stdout).contains("search.nodes"),
        "the ring should hold recent search counters"
    );
}

#[test]
fn flight_recorder_leaves_no_files_on_clean_exit() {
    let dir = std::env::temp_dir().join("snetctl-flight-clean");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_snetctl"))
        .env_remove("SNET_STORE")
        .current_dir(&dir)
        .args(["search", "--n", "5"])
        .output()
        .expect("snetctl should launch");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let leftovers: Vec<_> = std::fs::read_dir(&dir).unwrap().filter_map(|e| e.ok()).collect();
    assert!(leftovers.is_empty(), "clean runs must not write flight dumps: {leftovers:?}");
}

/// Sends one raw HTTP/1.1 request and returns the status code.
fn http_status(addr: &str, method: &str, path: &str, body: &[u8]) -> u16 {
    use std::io::{Read, Write};
    let mut s = std::net::TcpStream::connect(addr).unwrap();
    s.set_read_timeout(Some(std::time::Duration::from_secs(10))).unwrap();
    let head = format!(
        "{method} {path} HTTP/1.1\r\nhost: x\r\nconnection: close\r\ncontent-length: {}\r\n\r\n",
        body.len()
    );
    s.write_all(head.as_bytes()).unwrap();
    let _ = s.write_all(body);
    let mut reply = [0u8; 12];
    s.read_exact(&mut reply).unwrap();
    String::from_utf8_lossy(&reply[9..]).parse().unwrap()
}

fn wait_for(what: &str, mut ready: impl FnMut() -> bool) {
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while !ready() {
        assert!(std::time::Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
}

/// A spawned daemon, killed when the test is done with it (or panics).
struct Daemon(std::process::Child);

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// `snetctl serve`, the one daemon entry point, answers every row of
/// its flag table: bad rows exit 11 without serving, good rows serve
/// with the options applied.
#[test]
fn serve_answers_every_row_of_its_flag_table() {
    use std::io::{BufRead, BufReader};
    use std::process::Stdio;
    let rejected: &[&[&str]] = &[
        &["--bogus"],
        &["--addr"],
        &["--max-body-bytes"],
        &["--slow-ms", "soon"],
        &["--conn-threads", "-1"],
        &["--addr", "127.0.0.1:0", "stray"],
    ];
    let bin = env!("CARGO_BIN_EXE_snetctl");
    let spawn = |flags: &[&str], snet_store: &str| {
        Daemon(
            Command::new(bin)
                .env("SNET_STORE", snet_store)
                .arg("serve")
                .args(flags)
                .stdout(Stdio::null())
                .stderr(Stdio::piped())
                .spawn()
                .unwrap(),
        )
    };
    for flags in rejected {
        let mut daemon = spawn(flags, "");
        let mut status = None;
        wait_for("a rejected flag to exit", || {
            status = daemon.0.try_wait().unwrap();
            status.is_some()
        });
        assert_eq!(status.unwrap().code(), Some(11), "{bin} {flags:?}");
    }

    // Every flag at once, then $SNET_STORE in place of --store.
    let dir = tmpfile("serve-flags");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let (log, store, env_store) =
        (format!("{dir}/access.jsonl"), format!("{dir}/store"), format!("{dir}/env-store"));
    let all_flags: Vec<&str> = vec![
        "--addr",
        "127.0.0.1:0",
        "--store",
        &store,
        "--conn-threads",
        "2",
        "--max-jobs",
        "1",
        "--search-threads",
        "1",
        "--check-threads",
        "1",
        "--max-body-bytes",
        "4096",
        "--access-log",
        &log,
        "--slow-ms",
        "60000",
    ];
    for (flags, store_dir, snet_store) in
        [(all_flags, &store, ""), (vec!["--addr", "127.0.0.1:0"], &env_store, &env_store)]
    {
        let mut daemon = spawn(&flags, snet_store);
        let stderr = BufReader::new(daemon.0.stderr.take().unwrap());
        let addr = stderr
            .lines()
            .map_while(Result::ok)
            .find_map(|l| l.strip_prefix("snetd: listening on ").map(str::to_string))
            .unwrap_or_else(|| panic!("{bin} {flags:?} did not start"));
        wait_for("the store to open", || std::path::Path::new(store_dir).exists());
        if flags.len() > 2 {
            // --max-body-bytes: an oversized body is refused.
            assert_eq!(http_status(&addr, "POST", "/v1/check", &[b' '; 5000]), 413);
            // --access-log: a routed request leaves one line.
            assert_eq!(http_status(&addr, "GET", "/nope", b""), 404);
            wait_for("the access log", || {
                std::fs::read_to_string(&log).is_ok_and(|t| t.contains("\"status\":404"))
            });
        }
    }
}
