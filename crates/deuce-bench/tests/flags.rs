//! The figure binaries' command line, end to end: `--help` and a bad
//! flag print the flag table to stderr and exit with 0 and 2, and never
//! panic.

use std::process::{Command, Output};

use deuce_bench::USAGE;

fn fig05(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_fig05_encryption_overhead"))
        .args(args)
        .output()
        .expect("run fig05_encryption_overhead")
}

#[test]
fn help_prints_the_flag_table_and_exits_zero() {
    let out = fig05(&["--help"]);
    assert_eq!(out.status.code(), Some(0));
    assert!(out.stdout.is_empty(), "no TSV on --help");
    assert_eq!(String::from_utf8_lossy(&out.stderr), USAGE);
}

#[test]
fn a_bad_flag_prints_the_error_and_table_and_exits_two() {
    for (args, error) in [
        (&["--bogus"][..], "error: unknown flag --bogus\n"),
        (&["--writes"], "error: flag --writes requires a value\n"),
        (&["--writes", "many"], "error: --writes: expected a non-negative integer"),
        (&["--lines", "0"], "error: --lines must be at least 1\n"),
        (&["--cores", "0"], "error: --cores must be at least 1\n"),
    ] {
        let out = fig05(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?}: no TSV on an error");
        assert!(stderr.starts_with(error), "{args:?}: {stderr}");
        assert!(stderr.ends_with(USAGE), "{args:?}: {stderr}");
    }
}
