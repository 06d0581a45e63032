//! End-to-end tests of the compiled `deuce` binary.

use std::process::Command;

fn deuce() -> Command {
    Command::new(env!("CARGO_BIN_EXE_deuce"))
}

#[test]
fn help_prints_usage() {
    let output = deuce().arg("help").output().expect("binary runs");
    assert!(output.status.success());
    let text = String::from_utf8(output.stdout).unwrap();
    assert!(text.contains("USAGE"));
    assert!(text.contains("deuce run"));
}

#[test]
fn no_args_prints_usage_and_succeeds() {
    let output = deuce().output().expect("binary runs");
    assert!(output.status.success());
    assert!(String::from_utf8(output.stdout).unwrap().contains("USAGE"));
}

#[test]
fn bad_flag_fails_with_message() {
    let output = deuce().args(["run", "--bogus"]).output().expect("binary runs");
    assert!(!output.status.success());
    let err = String::from_utf8(output.stderr).unwrap();
    assert!(err.contains("bogus"));
}

#[test]
fn full_pipeline_through_the_binary() {
    let dir = std::env::temp_dir().join("deuce-bin-e2e");
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("pipeline.trace");
    let trace_str = trace.to_str().unwrap();

    let output = deuce()
        .args([
            "gen", "--benchmark", "libq", "--writes", "400", "--lines", "32", "-o", trace_str,
        ])
        .output()
        .expect("gen runs");
    assert!(output.status.success(), "{:?}", output);

    let output = deuce().args(["stats", trace_str]).output().expect("stats runs");
    assert!(output.status.success());
    assert!(String::from_utf8(output.stdout).unwrap().contains("writes\t400"));

    let output = deuce()
        .args(["run", "--trace", trace_str, "--scheme", "deuce"])
        .output()
        .expect("run runs");
    assert!(output.status.success());
    let text = String::from_utf8(output.stdout).unwrap();
    assert!(text.contains("scheme\tDEUCE"), "{text}");

    let output = deuce()
        .args(["sweep", "--trace", trace_str])
        .output()
        .expect("sweep runs");
    assert!(output.status.success());
    assert_eq!(String::from_utf8(output.stdout).unwrap().lines().count(), 17);

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn saved_trace_run_matches_generated_run_through_the_binary() {
    let dir = std::env::temp_dir().join("deuce-bin-stream-e2e");
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("s.jsonl");
    let trace_str = trace.to_str().unwrap();
    let workload = ["--benchmark", "mcf", "--writes", "400", "--lines", "32"];

    // JSONL gen, then the same run over the saved file and straight
    // from the generator.
    let output = deuce()
        .arg("gen")
        .args(workload)
        .args(["--format", "jsonl", "-o", trace_str])
        .output()
        .expect("gen runs");
    assert!(output.status.success(), "{output:?}");

    let saved = deuce()
        .args(["run", "--trace", trace_str, "--scheme", "deuce"])
        .output()
        .expect("run runs");
    assert!(saved.status.success());
    let generated =
        deuce().arg("run").args(workload).args(["--scheme", "deuce"]).output().expect("run runs");
    assert!(generated.status.success());
    assert_eq!(saved.stdout, generated.stdout, "the source must not change results");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_closed_stdout_ends_the_run_quietly() {
    // The reader is gone before the child starts, so its first write
    // fails with a broken pipe on every run.
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    let output = deuce()
        .args(["compare", "--benchmark", "mcf", "--writes", "300"])
        .stdout(writer)
        .output()
        .expect("compare runs");
    assert_eq!(output.status.code(), Some(0), "{output:?}");
    assert!(output.stderr.is_empty(), "{}", String::from_utf8_lossy(&output.stderr));
}

#[test]
fn sharded_sweep_through_the_binary() {
    let dir = std::env::temp_dir().join("deuce-bin-shard-e2e");
    std::fs::create_dir_all(&dir).unwrap();
    let m0 = dir.join("m0.jsonl");
    let m1 = dir.join("m1.jsonl");
    let base = ["--benchmark", "mcf", "--writes", "300", "--lines", "32", "--seed", "5"];

    let unsharded = deuce().arg("sweep").args(base).output().expect("sweep runs");
    assert!(unsharded.status.success(), "{unsharded:?}");

    for (spec, path) in [("0/2", &m0), ("1/2", &m1)] {
        let output = deuce()
            .arg("sweep")
            .args(base)
            .args(["--shard", spec, "--manifest", path.to_str().unwrap()])
            .output()
            .expect("shard runs");
        assert!(output.status.success(), "{output:?}");
        let text = String::from_utf8(output.stdout).unwrap();
        assert!(text.contains("cells_run\t8"), "{text}");
    }

    let merged = deuce()
        .args(["merge", m0.to_str().unwrap(), m1.to_str().unwrap()])
        .output()
        .expect("merge runs");
    assert!(merged.status.success(), "{merged:?}");
    assert_eq!(merged.stdout, unsharded.stdout, "merge output == unsharded sweep output");

    // A killed shard: truncate shard 1's manifest, resume it, re-merge.
    let text = std::fs::read_to_string(&m1).unwrap();
    let kept: String = text.lines().take(3).map(|l| format!("{l}\n")).collect();
    std::fs::write(&m1, kept).unwrap();
    let resumed = deuce()
        .arg("sweep")
        .args(base)
        .args(["--shard", "1/2", "--manifest", m1.to_str().unwrap(), "--resume"])
        .output()
        .expect("resume runs");
    assert!(resumed.status.success(), "{resumed:?}");
    let resumed_text = String::from_utf8(resumed.stdout).unwrap();
    assert!(resumed_text.contains("cells_skipped\t2"), "{resumed_text}");
    assert!(resumed_text.contains("cells_run\t6"), "{resumed_text}");
    let merged = deuce()
        .args(["merge", m0.to_str().unwrap(), m1.to_str().unwrap()])
        .output()
        .expect("merge runs");
    assert!(merged.status.success());
    assert_eq!(merged.stdout, unsharded.stdout, "resumed shard still merges identically");

    std::fs::remove_dir_all(&dir).ok();
}

/// A sweep whose page files cannot be created fails with the store
/// error and exit code 1, never a panic (exit code 101).
fn assert_clean_store_failure(output: &std::process::Output) {
    assert_eq!(output.status.code(), Some(1), "{output:?}");
    let err = String::from_utf8_lossy(&output.stderr);
    assert!(err.contains("line-store backend failed: create page file"), "{err}");
    assert!(err.contains("/nonexistent-dir/definitely/x.pages.w"), "{err}");
    assert!(!err.contains("panicked"), "{err}");
}

#[test]
fn sweep_with_an_unwritable_store_file_fails_cleanly() {
    let output = deuce()
        .args(["sweep", "--benchmark", "mcf", "--writes", "300", "--lines", "32"])
        .args(["--store-file", "/nonexistent-dir/definitely/x.pages"])
        .output()
        .expect("sweep runs");
    assert_clean_store_failure(&output);
    assert!(output.stdout.is_empty(), "no table for a failed sweep");
}

#[test]
fn sharded_sweep_with_an_unwritable_store_file_fails_cleanly() {
    let dir = std::env::temp_dir().join("deuce-bin-shard-store-error");
    std::fs::create_dir_all(&dir).unwrap();
    let manifest = dir.join("m.jsonl");
    let output = deuce()
        .args(["sweep", "--benchmark", "mcf", "--writes", "300", "--lines", "32"])
        .args(["--store-file", "/nonexistent-dir/definitely/x.pages"])
        .args(["--manifest", manifest.to_str().unwrap()])
        .output()
        .expect("sweep runs");
    assert_clean_store_failure(&output);
    // Failed cells append nothing: the manifest holds only its header.
    let text = std::fs::read_to_string(&manifest).unwrap();
    assert_eq!(text.lines().count(), 1, "{text}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn paged_store_kill_and_resume_through_the_binary() {
    let dir = std::env::temp_dir().join("deuce-bin-paged-e2e");
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("p.jsonl");
    let pages = dir.join("p.pages");
    let cp = dir.join("p.cp");
    let trace_str = trace.to_str().unwrap();

    // 192 lines into a one-page budget: the run faults and evicts
    // throughout, so the checkpoints carry real flush state.
    let output = deuce()
        .args([
            "gen", "--benchmark", "mcf", "--writes", "600", "--lines", "192", "--format", "jsonl",
            "-o", trace_str,
        ])
        .output()
        .expect("gen runs");
    assert!(output.status.success(), "{output:?}");

    // First process: a paged run emitting checkpoints. Both
    // the page file and the checkpoint file outlive the process.
    let paged_flags = ["--store-file", pages.to_str().unwrap(), "--resident-pages", "1"];
    let first = deuce()
        .args(["run", "--trace", trace_str, "--scheme", "deuce"])
        .args(paged_flags)
        .args(["--checkpoint", cp.to_str().unwrap(), "--checkpoint-every", "200"])
        .output()
        .expect("run runs");
    assert!(first.status.success(), "{first:?}");
    let first_text = String::from_utf8(first.stdout).unwrap();
    assert!(first_text.contains("store_page_evictions"), "{first_text}");
    assert!(pages.exists(), "page file outlives the process");
    assert!(cp.exists(), "checkpoint file outlives the process");

    // Second process: replay-verify against the surviving checkpoint
    // over the same page-file path. Verification includes the flushed
    // page fingerprint, so the write-back history must recur exactly.
    let second = deuce()
        .args(["run", "--trace", trace_str, "--scheme", "deuce"])
        .args(paged_flags)
        .args(["--from-checkpoint", cp.to_str().unwrap()])
        .output()
        .expect("resume runs");
    assert!(second.status.success(), "{second:?}");
    let second_text = String::from_utf8(second.stdout).unwrap();
    assert!(second_text.contains("resume_verified"), "{second_text}");

    // Apart from the checkpoint/resume trailer lines, the resumed run
    // reports exactly what the original did — including the store rows.
    let body = |text: &str| -> String {
        text.lines()
            .filter(|l| !l.starts_with("checkpoint\t") && !l.starts_with("resume_verified\t"))
            .map(|l| format!("{l}\n"))
            .collect()
    };
    assert_eq!(body(&second_text), body(&first_text));

    // An arena replay of the same checkpoint must be rejected: the
    // checkpoint pins the paged store's flush state.
    let arena = deuce()
        .args(["run", "--trace", trace_str, "--scheme", "deuce"])
        .args(["--from-checkpoint", cp.to_str().unwrap()])
        .output()
        .expect("arena resume runs");
    assert!(!arena.status.success(), "arena resume must fail against a paged checkpoint");
    let err = String::from_utf8(arena.stderr).unwrap();
    assert!(err.contains("flush"), "{err}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn telemetry_run_and_report_through_the_binary() {
    let dir = std::env::temp_dir().join("deuce-bin-telemetry-e2e");
    std::fs::create_dir_all(&dir).unwrap();
    let jsonl = dir.join("run.jsonl");
    let jsonl_str = jsonl.to_str().unwrap();

    let output = deuce()
        .args([
            "run",
            "--benchmark",
            "libq",
            "--writes",
            "500",
            "--lines",
            "32",
            "--scheme",
            "deuce",
            "--telemetry",
            jsonl_str,
            "--sample-every",
            "64",
        ])
        .output()
        .expect("run runs");
    assert!(output.status.success(), "{output:?}");
    assert!(String::from_utf8(output.stdout).unwrap().contains("telemetry\t"));
    assert!(jsonl.exists());
    assert!(dir.join("run.csv").exists());

    let output = deuce().args(["report", jsonl_str]).output().expect("report runs");
    assert!(output.status.success(), "{output:?}");
    let text = String::from_utf8(output.stdout).unwrap();
    assert!(text.contains("== run DEUCE"), "{text}");
    assert!(text.contains("flips/write histogram:"));
    assert!(text.contains("time series (one row per 64 writes"));

    std::fs::remove_dir_all(&dir).ok();
}
