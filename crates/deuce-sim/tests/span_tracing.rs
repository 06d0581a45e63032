//! Span tracing and flight recording never change results, and span
//! self-times partition the run's wall time (the observability PR's
//! acceptance criterion: stage self-times sum to the run total).

use deuce_sim::telemetry::{TelemetryConfig, TelemetryRecorder};
use deuce_sim::{Checkpoints, FaultConfig, SchemeKind, SimConfig, SimResult, Simulator, WearConfig};
use deuce_trace::{Benchmark, Trace, TraceConfig, TraceSource};

fn recorder() -> TelemetryRecorder {
    TelemetryRecorder::new(TelemetryConfig { sample_every: 64, energy_pj_per_flip: 0.0 })
}

fn run_recorded(simulator: &Simulator, trace: &Trace, rec: &mut TelemetryRecorder) -> SimResult {
    simulator.run(&mut TraceSource::new(trace), rec, Checkpoints::Off).unwrap()
}

fn config() -> SimConfig {
    SimConfig::new(SchemeKind::Deuce)
        .with_pad_timing()
        .with_wear(WearConfig::vertical_only(64))
        .with_faults(FaultConfig::accelerated(2e-8).ecp_entries(2).spare_lines(4))
}

#[test]
fn self_times_partition_the_run_total() {
    let trace =
        TraceConfig::new(Benchmark::Libquantum).lines(64).writes(4000).seed(7).generate();
    let simulator = Simulator::new(config());
    let mut rec = recorder().with_spans();
    let result = run_recorded(&simulator, &trace, &mut rec);

    let spans = rec.spans().expect("span tracing enabled");
    let table = spans.self_times();
    let root = &table[0];
    assert_eq!(root.name, "run");
    assert_eq!(root.parent, "", "run is the root");
    assert!(root.total_ns > 0, "run must have measured wall time");

    // The acceptance criterion asks for per-stage self-times summing to
    // the run wall time within 5%; aggregation makes the partition
    // exact, so assert equality.
    let self_sum: u64 = table.iter().map(|s| s.self_ns).sum();
    assert_eq!(self_sum, root.total_ns, "self-times partition the root total");

    let names: Vec<&str> = table.iter().map(|s| s.name).collect();
    for stage in ["stage:counter", "stage:scheme", "stage:wear", "stage:timing"] {
        assert!(names.contains(&stage), "missing {stage} in {names:?}");
    }
    assert!(names.contains(&"source"), "source pulls are a run child");
    assert!(names.contains(&"pad_generation"), "engine timing folds in");
    let pad = table.iter().find(|s| s.name == "pad_generation").unwrap();
    assert_eq!(pad.parent, "stage:scheme");
    assert!(pad.count >= result.writes, "every counted write generates a pad");

    // The root folds once, at end-of-run, so its range is the final
    // write cursor; the scheme stage folds per event and spans the run.
    assert_eq!(root.write_range, Some((result.writes, result.writes)));
    let scheme = table.iter().find(|s| s.name == "stage:scheme").unwrap();
    assert_eq!(scheme.write_range.map(|(first, _)| first), Some(1));

    // Each run's session owns a fresh engine clone, so a reused
    // simulator reports that run's pads, not a running total.
    let mut again = recorder().with_spans();
    run_recorded(&simulator, &trace, &mut again);
    let again_table = again.spans().expect("span tracing enabled").self_times();
    let again_pad = again_table.iter().find(|s| s.name == "pad_generation").unwrap();
    assert_eq!(again_pad.count, pad.count, "pad totals are per run");
}

#[test]
fn tracing_and_flight_recording_never_change_results() {
    let trace = TraceConfig::new(Benchmark::Mcf).lines(64).writes(3000).seed(3).generate();
    let sim = Simulator::new(config());
    let plain = sim.run_source(&mut TraceSource::new(&trace)).unwrap();
    let mut rec = recorder().with_spans().with_flight_recorder(16);
    let traced = run_recorded(&sim, &trace, &mut rec);

    assert_eq!(plain.writes, traced.writes);
    assert_eq!(plain.data_flips, traced.data_flips);
    assert_eq!(plain.meta_flips, traced.meta_flips);
    assert_eq!(plain.counter_flips, traced.counter_flips);
    assert_eq!(plain.total_slots, traced.total_slots);
    assert_eq!(plain.exec_time_ns, traced.exec_time_ns);

    let flight = rec.flight().expect("flight recorder enabled");
    assert_eq!(flight.events().count(), 16, "ring full after 3000 writes");
    assert_eq!(flight.recorded(), plain.writes + trace_first_touches(&trace));
    let last = flight.events().last().unwrap();
    assert_eq!(last.write_index, plain.writes, "ring ends on the final write");
    assert!((last.sim_ns - plain.exec_time_ns).abs() < 1e-9);
}

#[test]
fn chrome_export_covers_the_run() {
    let trace = TraceConfig::new(Benchmark::Astar).lines(32).writes(800).seed(9).generate();
    let mut rec = recorder().with_spans();
    run_recorded(&Simulator::new(config()), &trace, &mut rec);
    let mut out = Vec::new();
    rec.spans().unwrap().write_chrome_trace(&mut out).unwrap();
    let text = String::from_utf8(out).unwrap();
    assert!(text.contains("\"traceEvents\""));
    assert!(text.contains("\"name\":\"run\""));
    assert!(text.contains("\"name\":\"stage:scheme\""));
}

/// First touches (initial placements) are flight-recorded but not
/// counted as writes.
fn trace_first_touches(trace: &deuce_trace::Trace) -> u64 {
    trace
        .writes()
        .map(|e| e.line.value())
        .collect::<std::collections::HashSet<_>>()
        .len() as u64
}
