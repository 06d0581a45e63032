//! Streaming runs must be bit-identical to materialised runs.
//!
//! `Simulator::run` is the bounded-memory entry point: a generator or
//! trace file is consumed one event at a time. Any divergence from a
//! run over the materialised equivalent (a `TraceSource`) would
//! make large-trace results silently untrustworthy, so every scheme,
//! every source kind, and the faulted configuration are checked here —
//! as is the checkpoint layer (emit, replay-verify, divergence
//! detection).

use deuce_sim::{
    Checkpoints, FaultConfig, RunCheckpoint, RunError, SimConfig, SimResult, Simulator,
    WearConfig,
};
use deuce_schemes::SchemeKind;
use deuce_telemetry::NullRecorder;
use deuce_trace::{open_source, write_source_jsonl, write_source_to_file, Trace, TraceConfig};
use deuce_trace::{Benchmark, TraceSource, WriteSource};
use std::fs::File;
use std::io::BufWriter;

fn workload() -> TraceConfig {
    TraceConfig::new(Benchmark::Mcf).lines(48).writes(700).cores(3).seed(11)
}

/// Every counter that feeds a paper figure, plus exact simulated time.
fn fingerprint(r: &SimResult) -> (u64, u64, u64, u64, u64, u64, u64, u64) {
    (
        r.reads,
        r.writes,
        r.data_flips,
        r.meta_flips,
        r.counter_flips,
        r.epoch_starts,
        r.total_slots,
        r.exec_time_ns.to_bits(),
    )
}

fn faulted_config(trace: &Trace, kind: SchemeKind) -> SimConfig {
    let lines = trace
        .writes()
        .map(|e| e.line.value())
        .collect::<std::collections::HashSet<_>>()
        .len();
    SimConfig::new(kind)
        .with_wear(WearConfig::vertical_only(lines.max(1)))
        .with_faults(FaultConfig::accelerated(2e-8).ecp_entries(1).spare_lines(1))
}

#[test]
fn generator_source_matches_materialised_trace_across_schemes() {
    let config = workload();
    let trace = config.generate();
    for kind in [
        SchemeKind::Deuce,
        SchemeKind::DynDeuce,
        SchemeKind::EncryptedDcw,
        SchemeKind::Ble,
    ] {
        let simulator = Simulator::new(SimConfig::new(kind));
        let materialised = simulator.run_source(&mut TraceSource::new(&trace)).unwrap();
        let streamed = simulator.run_source(&mut config.stream()).unwrap();
        assert_eq!(
            fingerprint(&streamed),
            fingerprint(&materialised),
            "{kind}: generator stream must replay the materialised run exactly"
        );
    }
}

#[test]
fn faulted_streaming_run_is_bit_identical() {
    let config = workload();
    let trace = config.generate();
    let simulator = Simulator::new(faulted_config(&trace, SchemeKind::Deuce));
    let materialised = simulator.run_source(&mut TraceSource::new(&trace)).unwrap();
    let streamed = simulator.run_source(&mut config.stream()).unwrap();
    assert_eq!(fingerprint(&streamed), fingerprint(&materialised));
    let faults = |r: &SimResult| {
        let f = r.faults.as_ref().expect("faulted run reports");
        (f.cell_deaths, f.lines_retired, f.first_uncorrectable_write)
    };
    assert_eq!(faults(&streamed), faults(&materialised), "degradation timeline agrees");
}

#[test]
fn file_sources_match_in_both_formats() {
    let dir = std::env::temp_dir().join(format!("deuce-stream-parity-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let config = workload();
    let trace = config.generate();
    let simulator = Simulator::new(SimConfig::new(SchemeKind::Deuce));
    let reference = fingerprint(&simulator.run_source(&mut TraceSource::new(&trace)).unwrap());

    let bin = dir.join("t.trace");
    write_source_to_file(&bin, &mut config.stream()).unwrap();
    let jsonl = dir.join("t.jsonl");
    write_source_jsonl(BufWriter::new(File::create(&jsonl).unwrap()), &mut config.stream())
        .unwrap();

    for path in [&bin, &jsonl] {
        let mut source = open_source(path).unwrap();
        let result = simulator.run_source(&mut *source).unwrap();
        assert_eq!(fingerprint(&result), reference, "{}", path.display());
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn checkpoints_emit_verify_and_detect_divergence() {
    let config = workload();
    let simulator = Simulator::new(SimConfig::new(SchemeKind::Deuce));

    // Emit: one checkpoint per 200 counted writes plus the final one.
    let mut checkpoints: Vec<RunCheckpoint> = Vec::new();
    let mut sink = |cp: &_| checkpoints.push(*cp);
    let emit = Checkpoints::Emit { every_writes: 200, sink: &mut sink };
    let reference = simulator.run(&mut config.stream(), &mut NullRecorder, emit).unwrap();
    // Counted writes exclude first touches, so ~556 of the 700
    // writebacks count: two periodic checkpoints plus the final one.
    let expected = reference.writes / 200 + 1;
    assert_eq!(checkpoints.len() as u64, expected, "{} counted writes", reference.writes);
    let last = checkpoints.last().unwrap();
    assert_eq!(last.writes, reference.writes);
    assert_eq!(last.exec_time_ns(), reference.exec_time_ns);
    assert!(checkpoints.windows(2).all(|w| w[0].events_consumed < w[1].events_consumed));

    // Checkpointing is observation only.
    let plain = simulator.run_source(&mut config.stream()).unwrap();
    assert_eq!(fingerprint(&plain), fingerprint(&reference));

    // Replay-verify from an intermediate checkpoint reproduces the run.
    let mid = checkpoints[1];
    let verify = || Checkpoints::Verify(&mid);
    let resumed = simulator.run(&mut config.stream(), &mut NullRecorder, verify()).unwrap();
    assert_eq!(fingerprint(&resumed), fingerprint(&reference));

    // A different stream (changed seed) diverges and is reported.
    let other = workload().seed(12);
    let err = simulator.run(&mut other.stream(), &mut NullRecorder, verify()).unwrap_err();
    assert!(matches!(err, RunError::CheckpointMismatch { .. }), "{err:?}");

    // A stream shorter than the checkpoint position is also a mismatch.
    let short = workload().writes(50);
    let err = simulator.run(&mut short.stream(), &mut NullRecorder, verify()).unwrap_err();
    assert!(matches!(err, RunError::CheckpointMismatch { .. }), "{err:?}");
}

#[test]
fn checkpoint_jsonl_round_trip_feeds_resume() {
    let config = workload();
    let simulator = Simulator::new(SimConfig::new(SchemeKind::Deuce));
    let mut file_text = String::new();
    let mut sink = |cp: &RunCheckpoint| file_text.push_str(&cp.to_jsonl());
    let emit = Checkpoints::Emit { every_writes: 250, sink: &mut sink };
    let reference = simulator.run(&mut config.stream(), &mut NullRecorder, emit).unwrap();
    let last = RunCheckpoint::from_jsonl(&file_text).unwrap();
    let verify = Checkpoints::Verify(&last);
    let resumed = simulator.run(&mut config.stream(), &mut NullRecorder, verify).unwrap();
    assert_eq!(fingerprint(&resumed), fingerprint(&reference));
}

#[test]
fn trace_source_round_trip_preserves_cores() {
    // A 3-core trace must time against 3 cores in both paths; a
    // generator with more cores than writes clamps identically.
    let tiny = TraceConfig::new(Benchmark::Libquantum).cores(8).writes(3).lines(4).seed(1);
    let streamed = tiny.stream();
    assert_eq!(streamed.cores(), 3, "cores clamp to the write count");
    let trace = Trace::from_source(&mut tiny.stream()).unwrap();
    assert_eq!(trace, tiny.generate());
}
