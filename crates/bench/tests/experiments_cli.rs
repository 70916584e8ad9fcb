//! The `experiments` binary's flag handling: a missing or unparsable
//! flag value is a usage error (exit 2 naming the flag), not a panic.

use std::process::Command;

#[test]
fn bad_flag_values_exit_2_naming_the_flag() {
    for (args, flag) in [
        (&["e1", "--seed"][..], "--seed"),
        (&["e1", "--seed", "x"], "--seed"),
        (&["e1", "--threads"], "--threads"),
        (&["e1", "--threads", "x"], "--threads"),
        (&["e1", "--bogus"], "--bogus"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
            .args(args)
            .output()
            .expect("run experiments");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(flag), "{args:?} names {flag}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} runs nothing");
    }
}
