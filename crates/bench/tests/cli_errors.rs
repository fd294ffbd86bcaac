//! A malformed, missing, zero-count or unknown argument to any experiment
//! binary is a usage error: exit code 2 and the usage line on stderr, never
//! a panic.

use std::process::{Command, Output};

const BINARIES: [&str; 3] = [
    env!("CARGO_BIN_EXE_experiments"),
    env!("CARGO_BIN_EXE_ablations"),
    env!("CARGO_BIN_EXE_validate"),
];

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin).args(args).output().expect("spawn binary")
}

fn assert_usage_error(bin: &str, args: &[&str], expected: &str) {
    let out = run(bin, args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{bin} {args:?}: {stderr}");
    assert!(!stderr.contains("panicked"), "{bin} {args:?}: {stderr}");
    assert!(stderr.contains(expected), "{bin} {args:?}: {stderr}");
    assert!(stderr.contains("\nusage: "), "{bin} {args:?}: {stderr}");
}

#[test]
fn bad_arguments_are_usage_errors() {
    let cases: [(&[&str], &str); 3] = [
        (
            &["--trials", "bogus"],
            "error: --trials: invalid value \"bogus\"",
        ),
        (&["--seed"], "error: --seed needs a value"),
        (&["--frobnicate"], "error: unknown argument: --frobnicate"),
    ];
    for bin in BINARIES {
        for (args, expected) in cases {
            assert_usage_error(bin, args, expected);
        }
    }
}

#[test]
fn zero_counts_are_usage_errors() {
    // `--small` follows the zero so a missed check would run (and panic
    // or print an empty table) instead of exiting at parse time.
    for bin in BINARIES {
        let args = ["--trials", "0", "--small"];
        assert_usage_error(bin, &args, "error: --trials must be at least 1");
    }
    for bin in &BINARIES[..2] {
        let args = ["--threads", "0", "--trials", "1", "--small"];
        assert_usage_error(bin, &args, "error: --threads must be at least 1");
    }
}

#[test]
fn help_prints_usage_and_exits_cleanly() {
    for bin in BINARIES {
        let out = run(bin, &["--help"]);
        assert_eq!(out.status.code(), Some(0), "{bin}");
        assert!(String::from_utf8_lossy(&out.stderr).starts_with("usage: "));
    }
}
