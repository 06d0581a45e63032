//! Telemetry must be observation-only: a run with any recorder
//! attached produces a bit-identical [`SimResult`] to the plain
//! uninstrumented run, sequentially and under sharded sweeps.

use deuce_schemes::{SchemeConfig, SchemeKind, WordSize};
use deuce_sim::telemetry::{Counter, Stage, SweepProgress, TelemetryRecorder};
use deuce_sim::{
    CounterCacheConfig, ParallelSweep, SimConfig, SimResult, Simulator, SweepCell, WearConfig,
};
use deuce_trace::{Benchmark, Op, TraceConfig, TraceSource, WriteSource};

/// Every field that feeds a figure, bit-exact (floats by bit pattern).
fn fingerprint(r: &SimResult) -> (u64, u64, u64, u64, u64, u64, u64, u64, u64, u64) {
    (
        r.writes,
        r.reads,
        r.data_flips,
        r.meta_flips,
        r.counter_flips,
        r.total_slots,
        r.epoch_starts,
        r.exec_time_ns.to_bits(),
        r.counter_cache_misses,
        r.counter_cache_hit_ratio.to_bits(),
    )
}

fn config() -> SimConfig {
    let scheme = SchemeConfig::new(SchemeKind::Deuce).with_word_size(WordSize::Bytes2);
    SimConfig::with_scheme(scheme).with_counter_cache(CounterCacheConfig::DEFAULT)
}

fn trace() -> deuce_trace::Trace {
    TraceConfig::new(Benchmark::Mcf).lines(96).writes(2_500).seed(42).generate()
}

#[test]
fn recorded_sequential_run_is_bit_identical() {
    let trace = trace();
    let plain = Simulator::new(config()).run_trace(&trace);
    let mut rec = TelemetryRecorder::default();
    let recorded = Simulator::new(config()).run_trace_recorded(&trace, &mut rec);
    assert_eq!(fingerprint(&plain), fingerprint(&recorded));
    // And the recorder really observed the run.
    assert_eq!(rec.counter(Counter::Writes), plain.writes);
    assert_eq!(rec.counter(Counter::Reads), plain.reads);
    assert_eq!(
        rec.counter(Counter::DataFlips) + rec.counter(Counter::MetaFlips),
        plain.data_flips + plain.meta_flips
    );
    assert_eq!(rec.counter(Counter::SlotsTotal), plain.total_slots);
    assert_eq!(rec.flips_hist().count(), plain.writes);
    assert!(!rec.samples().is_empty(), "2500 writes crosses the sample window");
}

#[test]
fn recorded_sharded_sweep_is_bit_identical() {
    let cells: Vec<SweepCell> = [Benchmark::Mcf, Benchmark::Libquantum, Benchmark::Astar]
        .into_iter()
        .map(|b| {
            SweepCell::new(
                b.to_string(),
                TraceConfig::new(b).lines(64).writes(800).seed(7),
                config(),
            )
        })
        .collect();
    let plain: Vec<_> =
        ParallelSweep::with_shards(1).run(&cells).iter().map(fingerprint).collect();
    for shards in [2, 4] {
        let progress = SweepProgress::new("determinism", cells.len(), shards);
        let recorded: Vec<_> = ParallelSweep::with_shards(shards)
            .map_observed(
                &cells,
                |_, cell| {
                    let mut rec = TelemetryRecorder::default();
                    let trace = cell.trace.generate();
                    let result =
                        Simulator::new(cell.config.clone()).run_trace_recorded(&trace, &mut rec);
                    (result, rec)
                },
                Some(&progress),
            )
            .iter()
            .map(|(result, _)| fingerprint(result))
            .collect();
        assert_eq!(recorded, plain, "{shards} shards");
        assert_eq!(progress.done(), cells.len());
    }
}

#[test]
fn per_cell_recorders_are_deterministic_across_shardings() {
    let cells: Vec<SweepCell> = (0..5)
        .map(|i| {
            SweepCell::new(
                format!("cell{i}"),
                TraceConfig::new(Benchmark::Omnetpp).lines(64).writes(600).seed(i),
                config(),
            )
        })
        .collect();
    let observe = |shards: usize| -> Vec<(u64, u64, usize)> {
        ParallelSweep::with_shards(shards)
            .map_observed(
                &cells,
                |_, cell| {
                    let mut rec = TelemetryRecorder::default();
                    let trace = cell.trace.generate();
                    let _ = Simulator::new(cell.config.clone()).run_trace_recorded(&trace, &mut rec);
                    (
                        rec.counter(Counter::DataFlips),
                        rec.counter(Counter::CounterAccesses),
                        rec.samples().len(),
                    )
                },
                None,
            )
            .into_iter()
            .collect()
    };
    let sequential = observe(1);
    assert_eq!(observe(3), sequential);
    assert_eq!(observe(8), sequential);
}

/// A session stepped with a recorder returns exactly what a plain
/// session returns, and the recorder accounts for every event: the
/// event counters match the result, and each controller stage is
/// charged once per event that passes through it.
#[test]
fn recorded_session_matches_plain_and_charges_every_stage() {
    // A two-entry counter cache over a 256-line footprint: fills and
    // dirty writebacks throughout the reads, first touches and rewrites.
    let config = SimConfig::new(SchemeKind::Deuce)
        .with_counter_cache(CounterCacheConfig { entries: 2, counters_per_line: 16 })
        .with_wear(WearConfig::vertical_only(256));
    let trace = TraceConfig::new(Benchmark::Mcf).lines(256).writes(2_000).seed(3).generate();
    let cores = TraceSource::new(&trace).cores();
    let simulator = Simulator::new(config);
    let mut plain = simulator.session(cores).unwrap();
    let mut recorded = simulator.session(cores).unwrap();
    let mut rec = TelemetryRecorder::default();
    for event in trace.events() {
        assert_eq!(plain.step(event), recorded.step_recorded(event, &mut rec));
    }
    let plain = plain.finish().unwrap();
    let recorded = recorded.finish_recorded(&mut rec).unwrap();
    assert_eq!(format!("{plain:?}"), format!("{recorded:?}"), "identical results");

    let events = trace.events().len() as u64;
    let first_touches = trace
        .events()
        .iter()
        .filter(|e| e.op == Op::Write)
        .map(|e| e.line.value())
        .collect::<std::collections::HashSet<_>>()
        .len() as u64;
    assert!(plain.reads > 0 && plain.writes > 0 && first_touches > 0);
    assert_eq!(plain.reads + first_touches + plain.writes, events);
    assert_eq!(rec.counter(Counter::Reads), plain.reads);
    assert_eq!(rec.counter(Counter::Writes), plain.writes);
    assert_eq!(rec.counter(Counter::FirstTouches), first_touches);
    assert_eq!(rec.counter(Counter::DataFlips), plain.data_flips);
    assert_eq!(rec.counter(Counter::SlotsTotal), plain.total_slots);

    assert!(plain.counter_cache_writebacks > 0, "the tiny cache must write back");
    assert_eq!(rec.counter(Counter::CounterAccesses), events);
    assert_eq!(rec.counter(Counter::CounterFills), plain.counter_cache_misses);
    assert_eq!(rec.counter(Counter::CounterWritebacks), plain.counter_cache_writebacks);

    assert_eq!(rec.stage_hist(Stage::Counter).count(), events);
    assert_eq!(rec.stage_hist(Stage::Scheme).count(), plain.writes + first_touches);
    assert_eq!(rec.stage_hist(Stage::Timing).count(), plain.reads + plain.writes);
    assert_eq!(rec.stage_hist(Stage::Wear).count(), plain.writes);
}
