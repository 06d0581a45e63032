//! Reproducibility: every layer of the stack is deterministic given its
//! seeds, and traces survive a disk roundtrip bit-exactly — so any
//! number in EXPERIMENTS.md can be regenerated.

use deuce::schemes::SchemeKind;
use deuce::sim::{SimConfig, SimResult, Simulator};
use deuce::trace::{read_trace, write_trace, Benchmark, Trace, TraceConfig, TraceSource};

fn run(config: SimConfig, trace: &Trace) -> SimResult {
    Simulator::new(config).run_source(&mut TraceSource::new(trace)).unwrap()
}

#[test]
fn identical_seeds_reproduce_every_metric() {
    let make = || {
        let trace = TraceConfig::new(Benchmark::Wrf)
            .lines(48)
            .writes(2_000)
            .cores(2)
            .seed(77)
            .generate();
        run(SimConfig::new(SchemeKind::DynDeuce), &trace)
    };
    let a = make();
    let b = make();
    assert_eq!(a.writes, b.writes);
    assert_eq!(a.data_flips, b.data_flips);
    assert_eq!(a.meta_flips, b.meta_flips);
    assert_eq!(a.counter_flips, b.counter_flips);
    assert_eq!(a.total_slots, b.total_slots);
    assert_eq!(a.epoch_starts, b.epoch_starts);
    assert!((a.exec_time_ns - b.exec_time_ns).abs() < 1e-9);
}

#[test]
fn different_key_seeds_change_flips_but_not_correctness() {
    let trace = TraceConfig::new(Benchmark::Mcf).lines(32).writes(1_500).seed(3).generate();
    let a = run(SimConfig::new(SchemeKind::EncryptedDcw).key_seed(1), &trace);
    let b = run(SimConfig::new(SchemeKind::EncryptedDcw).key_seed(2), &trace);
    // Different pads, so exact flip counts differ...
    assert_ne!(a.data_flips, b.data_flips);
    // ...but both sit at the avalanche level.
    assert!((a.flip_rate() - 0.5).abs() < 0.02);
    assert!((b.flip_rate() - 0.5).abs() < 0.02);
}

#[test]
fn trace_disk_roundtrip_preserves_simulation_results() {
    let trace = TraceConfig::new(Benchmark::Soplex)
        .lines(32)
        .writes(1_000)
        .seed(11)
        .generate();
    let mut buffer = Vec::new();
    write_trace(&mut buffer, &trace).expect("serialize");
    let reloaded = read_trace(buffer.as_slice()).expect("deserialize");
    assert_eq!(trace, reloaded);

    let direct = run(SimConfig::new(SchemeKind::Deuce), &trace);
    let replayed = run(SimConfig::new(SchemeKind::Deuce), &reloaded);
    assert_eq!(direct.data_flips, replayed.data_flips);
    assert_eq!(direct.total_slots, replayed.total_slots);
}

#[test]
fn seeds_actually_vary_the_workload() {
    let a = TraceConfig::new(Benchmark::Astar).writes(500).seed(1).generate();
    let b = TraceConfig::new(Benchmark::Astar).writes(500).seed(2).generate();
    assert_ne!(a, b);
}
