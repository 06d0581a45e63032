//! Telemetry must be observation-only: a run with any recorder
//! attached produces a bit-identical [`SimResult`] to the plain
//! uninstrumented run, sequentially and under sharded sweeps.

use deuce_schemes::{SchemeConfig, SchemeKind, WordSize};
use deuce_sim::telemetry::export::write_jsonl;
use deuce_sim::telemetry::{
    Counter, Recorder, Stage, SweepProgress, TelemetryRecorder, WriteEvent,
};
use deuce_sim::{
    Checkpoints, CounterCacheConfig, FaultConfig, FileStoreConfig, ParallelSweep, SessionStep,
    SimConfig, SimResult, Simulator, StoreBackend, WearConfig,
};
use deuce_trace::{Benchmark, LineAddr, Op, TraceConfig, TraceEvent, TraceSource, WriteSource};

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

/// Runs `workload` under `config()`, recording into `rec`.
fn run_recorded(workload: &TraceConfig, rec: &mut TelemetryRecorder) -> SimResult {
    Simulator::new(config()).run(&mut workload.stream(), rec, Checkpoints::Off).unwrap()
}

#[test]
fn recorded_sequential_run_is_bit_identical() {
    let trace = trace();
    let plain = Simulator::new(config()).run_source(&mut TraceSource::new(&trace)).unwrap();
    let mut rec = TelemetryRecorder::default();
    let mut source = TraceSource::new(&trace);
    let recorded = Simulator::new(config()).run(&mut source, &mut rec, Checkpoints::Off).unwrap();
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
    let cells: Vec<TraceConfig> = [Benchmark::Mcf, Benchmark::Libquantum, Benchmark::Astar]
        .into_iter()
        .map(|b| TraceConfig::new(b).lines(64).writes(800).seed(7))
        .collect();
    let plain: Vec<_> = ParallelSweep::with_shards(1)
        .map(&cells, None, |_, workload| {
            fingerprint(&Simulator::new(config()).run_source(&mut workload.stream()).unwrap())
        });
    for shards in [2, 4] {
        let progress = SweepProgress::new("determinism", cells.len(), shards);
        let recorded: Vec<_> = ParallelSweep::with_shards(shards)
            .map(&cells, Some(&progress), |_, workload| {
                let mut rec = TelemetryRecorder::default();
                (run_recorded(workload, &mut rec), rec)
            })
            .iter()
            .map(|(result, _)| fingerprint(result))
            .collect();
        assert_eq!(recorded, plain, "{shards} shards");
        assert_eq!(progress.done(), cells.len());
    }
}

#[test]
fn per_cell_recorders_are_deterministic_across_shardings() {
    let workload = TraceConfig::new(Benchmark::Omnetpp).lines(64).writes(600);
    let cells: Vec<TraceConfig> = (0..5).map(|i| workload.clone().seed(i)).collect();
    let observe = |shards: usize| -> Vec<(u64, u64, usize)> {
        ParallelSweep::with_shards(shards).map(&cells, None, |_, workload| {
            let mut rec = TelemetryRecorder::default();
            run_recorded(workload, &mut rec);
            (
                rec.counter(Counter::DataFlips),
                rec.counter(Counter::CounterAccesses),
                rec.samples().len(),
            )
        })
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

/// Counts the per-step recorder calls, and the counters added.
#[derive(Default)]
struct Calls {
    adds: u64,
    residency: u64,
    stage_ns: u64,
    write_observed: u64,
}

impl Recorder for Calls {
    fn add(&mut self, _: Counter, _: u64) {
        self.adds += 1;
    }

    fn residency(&mut self, _: u64) {
        self.residency += 1;
    }

    fn stage_ns(&mut self, _: Stage, _: u64) {
        self.stage_ns += 1;
    }

    fn write_observed(&mut self, _: &WriteEvent) {
        self.write_observed += 1;
    }
}

/// A counted write with the counter cache on reaches the recorder six
/// times — `residency`, four stage timers, one write event — and no
/// counter is added until finish, which adds each once.
#[test]
fn a_step_adds_no_counter_and_finish_adds_each_once() {
    let mut session = Simulator::new(config()).session(1).unwrap();
    let line = LineAddr::new(7);
    let mut calls = Calls::default();
    let first = session.step_recorded(&TraceEvent::write(0, 1, line, [1; 64]), &mut calls);
    assert_eq!(first, SessionStep::FirstTouch);
    assert_eq!((calls.residency, calls.stage_ns, calls.write_observed), (1, 2, 1));

    let mut calls = Calls::default();
    let write = session.step_recorded(&TraceEvent::write(0, 2, line, [2; 64]), &mut calls);
    assert!(matches!(write, SessionStep::Write { .. }));
    assert_eq!((calls.residency, calls.stage_ns, calls.write_observed), (1, 4, 1));

    session.step_recorded(&TraceEvent::read(0, 3, line), &mut calls);
    assert_eq!((calls.residency, calls.stage_ns, calls.write_observed), (2, 6, 1));
    assert_eq!(calls.adds, 0, "a step adds no counter");

    session.finish_recorded(&mut calls).unwrap();
    assert_eq!(calls.adds, Counter::ALL.len() as u64);
}

/// The export without its wall-clock records (`profile`, `span`).
fn deterministic_export(rec: &TelemetryRecorder) -> String {
    let mut jsonl = Vec::new();
    write_jsonl(&mut jsonl, "run", rec).unwrap();
    let text = String::from_utf8(jsonl).unwrap();
    let wall_clock = |line: &&str| {
        line.contains("\"type\":\"profile\"") || line.contains("\"type\":\"span\"")
    };
    text.lines().filter(|line| !wall_clock(line)).collect::<Vec<_>>().join("\n")
}

/// A session stepped by hand exports the same telemetry as a streamed
/// run over the same events: a faulted config (inline wear, fault
/// section) and a paged one (wear on the streamed run's helper thread,
/// store section) alike.
#[test]
fn stepped_session_exports_what_the_streamed_run_exports() {
    let trace = TraceConfig::new(Benchmark::Mcf).lines(64).writes(1_500).seed(5).generate();
    let wear = WearConfig::vertical_only(64);
    let faulted = SimConfig::new(SchemeKind::EncryptedDcw)
        .with_wear(wear)
        .with_faults(FaultConfig::accelerated(2e-8).ecp_entries(1).spare_lines(2));
    let page_file = |side: &str| {
        let name = format!("deuce-telemetry-{side}-{}.pages", std::process::id());
        std::env::temp_dir().join(name)
    };
    let paged = |side: &str| {
        let store = StoreBackend::File(FileStoreConfig::new(page_file(side), 1));
        config().with_wear(wear).with_store_backend(store)
    };
    for (streamed_config, stepped_config, section) in [
        (faulted.clone(), faulted, "fault_lines_retired"),
        (paged("streamed"), paged("stepped"), "store_page_faults"),
    ] {
        let mut streamed = TelemetryRecorder::default();
        let streamed_result = Simulator::new(streamed_config)
            .run(&mut TraceSource::new(&trace), &mut streamed, Checkpoints::Off)
            .unwrap();
        let mut stepped = TelemetryRecorder::default();
        let cores = TraceSource::new(&trace).cores();
        let mut session = Simulator::new(stepped_config).session(cores).unwrap();
        for event in trace.events() {
            session.step_recorded(event, &mut stepped);
        }
        let stepped_result = session.finish_recorded(&mut stepped).unwrap();
        assert_eq!(fingerprint(&stepped_result), fingerprint(&streamed_result));
        let export = deterministic_export(&streamed);
        assert!(export.contains(section), "the export carries {section}");
        assert_eq!(deterministic_export(&stepped), export);
    }
    for side in ["streamed", "stepped"] {
        std::fs::remove_file(page_file(side)).unwrap();
    }
}
