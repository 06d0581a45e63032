//! The simulator workloads, `mcf-full` and `sparse-paged`: repeated
//! timed `Simulator::run_source` calls, their traced twin, a check pass
//! for the memory-image fingerprint, and the single-threaded replay.

use std::path::{Path, PathBuf};
use std::time::Instant;

use deuce_schemes::{AnyScheme, SchemeKind};
use deuce_sim::{
    CounterCacheConfig, FileStoreConfig, HwlMode, SimConfig, SimResult, Simulator, StoreBackend,
    WearConfig,
};
use deuce_telemetry::Stage;
use deuce_trace::{
    Benchmark, GeneratorSource, Trace, TraceConfig, TraceEvent, TraceIoError, TraceSource,
    WriteSource,
};

use crate::probe::{take_scheme_times, LayerRecorder, TimedScheme, TimedSource, WindowSource};
use crate::report::{median, percentile, ratio, Obj};
use crate::workload::{key_seed, sparse_events, Dims, Workload, MCF_CORES};
use crate::{more_setups, Measured};

const MIB: f64 = 1024.0 * 1024.0;

/// Events per lag window: a few milliseconds of work, and at least 250
/// windows per repetition, so each repetition's p90 has 25 beyond it.
fn lag_window(workload: Workload) -> u64 {
    match workload {
        Workload::SparsePaged => 64,
        _ => 4096,
    }
}

/// One repetition's program input: streamed from the generator inside
/// the timed region (mcf-full) or generated in set-up (sparse-paged).
enum Input {
    Generator(TraceConfig),
    Events(Trace),
}

/// The source a run pulls from, over either kind of input.
enum InputSource<'a> {
    Generator(GeneratorSource),
    Trace(TraceSource<'a>),
}

impl Input {
    fn source(&self) -> InputSource<'_> {
        match self {
            Input::Generator(config) => InputSource::Generator(config.stream()),
            Input::Events(trace) => InputSource::Trace(TraceSource::new(trace)),
        }
    }
}

impl WriteSource for InputSource<'_> {
    fn cores(&self) -> usize {
        match self {
            InputSource::Generator(s) => s.cores(),
            InputSource::Trace(s) => s.cores(),
        }
    }

    fn next_event(&mut self) -> Result<Option<TraceEvent>, TraceIoError> {
        match self {
            InputSource::Generator(s) => s.next_event(),
            InputSource::Trace(s) => s.next_event(),
        }
    }
}

/// A set-up repetition: configuration, simulator and input. `page_file`
/// is the sparse workload's page file, removed when the set-up drops.
struct Setup {
    config: SimConfig,
    /// Built in set-up, so the key schedule is set-up time.
    simulator: Simulator,
    input: Input,
    page_file: Option<PathBuf>,
}

impl Drop for Setup {
    fn drop(&mut self) {
        if let Some(path) = &self.page_file {
            let _ = std::fs::remove_file(path);
        }
    }
}

fn setup(workload: Workload, seed: u64, dims: &Dims, work_dir: &Path, tag: &str) -> Setup {
    let base = SimConfig::new(SchemeKind::Deuce).key_seed(key_seed(seed, 0));
    let (config, input, page_file) = match workload {
        Workload::McfFull => {
            let lines = dims.mcf_lines * usize::from(MCF_CORES);
            let config = base
                .with_counter_cache(CounterCacheConfig::DEFAULT)
                .with_wear(WearConfig::with_hwl(lines, HwlMode::Hashed));
            let input = TraceConfig::new(Benchmark::Mcf)
                .lines(dims.mcf_lines)
                .cores(MCF_CORES)
                .writes(dims.mcf_writes)
                .seed(seed);
            (config, Input::Generator(input), None)
        }
        Workload::SparsePaged => {
            let path = work_dir.join(format!("sparse-{}-{tag}.pages", std::process::id()));
            let store = FileStoreConfig::new(&path, dims.sparse_resident_pages);
            let config = base.with_store_backend(StoreBackend::File(store));
            let input = Trace::from_events(sparse_events(seed, dims));
            (config, Input::Events(input), Some(path))
        }
        Workload::ServeZipf => unreachable!("serve-zipf is not a simulator workload"),
    };
    Setup {
        simulator: Simulator::new(config.clone()),
        config,
        input,
        page_file,
    }
}

/// The simulated outputs every run, check pass and replay must agree on.
fn outputs(r: &SimResult, fingerprint: Option<u64>) -> Obj {
    let mut o = Obj::default();
    o.str("writes", &r.writes.to_string())
        .str("reads", &r.reads.to_string())
        .str("data_flips", &r.data_flips.to_string())
        .str("meta_flips", &r.meta_flips.to_string())
        .str("counter_flips", &r.counter_flips.to_string())
        .str("epoch_starts", &r.epoch_starts.to_string())
        .str("total_slots", &r.total_slots.to_string())
        .str(
            "exec_time_ns_bits",
            &format!("{:016x}", r.exec_time_ns.to_bits()),
        )
        .str("counter_cache_misses", &r.counter_cache_misses.to_string())
        .str(
            "counter_cache_writebacks",
            &r.counter_cache_writebacks.to_string(),
        );
    if let Some(wear) = r.wear_summary() {
        o.str("wear_total_bit_writes", &wear.total_bit_writes.to_string())
            .str("wear_max_cell_writes", &wear.max_cell_writes.to_string())
            .str("wear_line_writes", &wear.line_writes.to_string());
    }
    if let Some(fp) = fingerprint {
        o.str("content_fingerprint", &format!("{fp:016x}"));
    }
    o
}

/// Outputs only the measured store backend produces (the replay runs on
/// the arena), checked across repetitions, traced runs and records.
fn run_outputs(r: &SimResult) -> Obj {
    let store = r.store.unwrap_or_default();
    let mut o = Obj::default();
    o.str("store_page_faults", &store.page_faults.to_string())
        .str("store_page_evictions", &store.page_evictions.to_string())
        .str("store_pages_flushed", &store.pages_flushed.to_string());
    o
}

/// One timed repetition's measurements. Only the rendered outputs are
/// kept: a `SimResult` holds the whole wear cell array.
struct Rep {
    setup_s: f64,
    wall_s: f64,
    /// Events pulled: reads, counted writes and first touches.
    events: u64,
    writes: u64,
    outputs: String,
    run_outputs: String,
    windows_ms: Vec<f64>,
    layers: Option<Layers>,
}

impl Rep {
    fn new(setup_s: f64, wall_s: f64, events: u64, result: &SimResult) -> Self {
        Self {
            setup_s,
            wall_s,
            events,
            writes: result.writes,
            outputs: outputs(result, None).render(),
            run_outputs: run_outputs(result).render(),
            windows_ms: Vec::new(),
            layers: None,
        }
    }
}

/// Layer totals of traced repetitions.
#[derive(Default)]
struct Layers {
    rec: LayerRecorder,
    source_ns: u64,
    events: u64,
    init_ns: u64,
    init_calls: u64,
    write_ns: u64,
    write_calls: u64,
    wall_ns: u64,
    page_faults: u64,
    evictions: u64,
    flushes: u64,
    /// End-of-run values of the latest repetition.
    resident_bytes: u64,
    hit_ratio: f64,
}

impl Layers {
    fn add(&mut self, o: &Layers) {
        self.rec.add_from(&o.rec);
        self.source_ns += o.source_ns;
        self.events += o.events;
        self.init_ns += o.init_ns;
        self.init_calls += o.init_calls;
        self.write_ns += o.write_ns;
        self.write_calls += o.write_calls;
        self.wall_ns += o.wall_ns;
        self.page_faults += o.page_faults;
        self.evictions += o.evictions;
        self.flushes += o.flushes;
        self.resident_bytes = o.resident_bytes;
        self.hit_ratio = o.hit_ratio;
    }
}

fn run_rep(s: &Setup, setup_s: f64, window: Option<u64>) -> Result<Rep, String> {
    let err = |e: deuce_sim::RunError| e.to_string();
    if let Some(window) = window {
        let mut source = WindowSource::new(s.input.source(), window);
        let start = Instant::now();
        let result = s.simulator.run_source(&mut source).map_err(err)?;
        let wall_s = start.elapsed().as_secs_f64();
        let mut rep = Rep::new(setup_s, wall_s, source.events, &result);
        rep.windows_ms = source.window_ms();
        return Ok(rep);
    }
    let config = s.config.clone().with_pad_timing();
    let scheme = TimedScheme(AnyScheme::from_config(&config.scheme));
    let simulator = Simulator::with_line_scheme(config, scheme);
    let mut source = TimedSource::new(s.input.source());
    let mut rec = LayerRecorder::default();
    let _ = take_scheme_times();
    let start = Instant::now();
    let result = simulator
        .run_source_recorded(&mut source, &mut rec)
        .map_err(err)?;
    let wall = start.elapsed();
    let scheme = take_scheme_times();
    let store = result.store.unwrap_or_default();
    let mut rep = Rep::new(setup_s, wall.as_secs_f64(), source.events, &result);
    rep.layers = Some(Layers {
        rec,
        source_ns: source.ns,
        events: source.events,
        init_ns: scheme.init_ns,
        init_calls: scheme.init_calls,
        write_ns: scheme.write_ns,
        write_calls: scheme.write_calls,
        wall_ns: u64::try_from(wall.as_nanos()).unwrap_or(u64::MAX),
        page_faults: store.page_faults,
        evictions: store.page_evictions,
        flushes: store.pages_flushed,
        resident_bytes: result.line_store_bytes,
        hit_ratio: result.counter_cache_hit_ratio,
    });
    Ok(rep)
}

/// Steps `input` through `Simulator::session` under `config`, returning
/// the result and the final memory image's fingerprint (which
/// `run_source` does not expose).
fn session_pass(config: SimConfig, input: &Input) -> Result<(SimResult, u64), String> {
    let simulator = Simulator::new(config);
    let mut source = input.source();
    let mut session = simulator
        .session(source.cores())
        .map_err(|e| e.to_string())?;
    while let Some(event) = source.next_event().map_err(|e| e.to_string())? {
        let _ = session.step(&event);
    }
    let fingerprint = session.content_fingerprint();
    let result = session.finish().map_err(|e| e.to_string())?;
    Ok((result, fingerprint))
}

/// The timed repetitions for `seconds`, then the check pass.
pub fn run(
    workload: Workload,
    seed: u64,
    dims: &Dims,
    seconds: f64,
    traced: bool,
    work_dir: &Path,
) -> Result<Measured, String> {
    let mut reps: Vec<Rep> = Vec::new();
    let mut measured_s = 0.0;
    while reps.len() < 3 || measured_s < seconds {
        let start = Instant::now();
        let s = setup(workload, seed, dims, work_dir, &reps.len().to_string());
        let setup_s = start.elapsed().as_secs_f64();
        let rep = run_rep(&s, setup_s, (!traced).then(|| lag_window(workload)))?;
        measured_s += rep.wall_s;
        reps.push(rep);
    }
    let peak_rss_mb = crate::report::peak_rss_mb();

    for (i, rep) in reps.iter().enumerate() {
        if rep.outputs != reps[0].outputs || rep.run_outputs != reps[0].run_outputs {
            return Err(format!(
                "repetition {i} produced different outputs than repetition 0"
            ));
        }
    }
    // The check pass: the same configuration and input, stepped through
    // a session, must reproduce the timed runs' result bit for bit; it
    // also yields the memory-image fingerprint.
    let check = setup(workload, seed, dims, work_dir, "check");
    let (checked, fingerprint) = session_pass(check.config.clone(), &check.input)?;
    if outputs(&checked, None).render() != reps[0].outputs {
        return Err("the session check pass diverged from the timed run_source runs".into());
    }

    let walls: Vec<f64> = reps.iter().map(|r| r.wall_s).collect();
    let mut metrics = Obj::default();
    let mut info = Obj::default();
    info.int("reps", reps.len() as u64)
        .num("wall_s_median", median(&walls))
        .str("rep_wall_s", &crate::report::list(&walls));
    if traced {
        let mut total = Layers::default();
        for rep in &reps {
            total.add(
                rep.layers
                    .as_ref()
                    .expect("traced repetitions carry layers"),
            );
        }
        layer_metrics(&total, &mut metrics, &mut info);
    } else {
        let mut setups: Vec<f64> = reps.iter().map(|r| r.setup_s).collect();
        more_setups(&mut setups, || {
            let start = Instant::now();
            let s = setup(workload, seed, dims, work_dir, "extra");
            let setup_s = start.elapsed().as_secs_f64();
            drop(s);
            setup_s
        });
        let req_rates: Vec<f64> = reps.iter().map(|r| r.events as f64 / r.wall_s).collect();
        let p50: Vec<f64> = reps
            .iter()
            .map(|r| percentile(&r.windows_ms, 0.50))
            .collect();
        let p90: Vec<f64> = reps
            .iter()
            .map(|r| percentile(&r.windows_ms, 0.90))
            .collect();
        let wps: Vec<f64> = reps.iter().map(|r| r.writes as f64 / r.wall_s).collect();
        metrics
            .num("setup_s", median(&setups))
            .num("writes_per_s", median(&wps))
            .num("req_per_s", median(&req_rates))
            .num("peak_rss_mb", peak_rss_mb)
            .num("lag_p50_ms", median(&p50))
            .num("lag_p90_ms", median(&p90));
        info.int("lag_samples_per_rep", reps[0].windows_ms.len() as u64)
            .int("setup_samples", setups.len() as u64)
            .int("lag_window_events", lag_window(workload))
            .int("events_per_rep", reps[0].events);
    }
    Ok(Measured {
        outputs: outputs(&checked, Some(fingerprint)).render(),
        run_outputs: reps[0].run_outputs.clone(),
        metrics,
        info,
        attempted: reps.iter().map(|r| r.events).sum(),
    })
}

/// Per-layer metrics of the summed traced repetitions.
fn layer_metrics(l: &Layers, m: &mut Obj, info: &mut Obj) {
    let rec = &l.rec;
    let write_events = (rec.writes + rec.first_touches) as f64;
    let counted = rec.writes as f64;
    let stage_total: u64 = rec.stage_ns.iter().sum();
    let scheme_calls = l.init_ns + l.write_ns;
    let store_ns = rec.stage(Stage::Scheme).saturating_sub(scheme_calls);
    let attributed = l.source_ns + stage_total;
    let glue = l.wall_ns.saturating_sub(attributed);
    m.num(
        "trace.source_ns_per_event",
        ratio(l.source_ns as f64, l.events as f64),
    )
    .num(
        "schemes.write_ns",
        ratio(l.write_ns as f64, l.write_calls as f64),
    )
    .num(
        "schemes.init_ns",
        ratio(l.init_ns as f64, l.init_calls as f64),
    )
    .num(
        "crypto.pad_ns_per_write",
        ratio(rec.pad_ns as f64, write_events),
    )
    .num(
        "crypto.pads_per_write",
        ratio(rec.pad_calls as f64, write_events),
    )
    .num("store.ns_per_write", ratio(store_ns as f64, write_events))
    .num(
        "store.page_faults_per_write",
        ratio(l.page_faults as f64, write_events),
    )
    .num(
        "store.evictions_per_write",
        ratio(l.evictions as f64, write_events),
    )
    .num(
        "store.flushes_per_write",
        ratio(l.flushes as f64, write_events),
    )
    .num("store.resident_mb", l.resident_bytes as f64 / MIB)
    .num(
        "counter.ns_per_access",
        ratio(
            rec.stage(Stage::Counter) as f64,
            rec.reads as f64 + write_events,
        ),
    )
    .num("counter.hit_ratio", l.hit_ratio)
    .num(
        "counter.fills_per_write",
        ratio(rec.counter_fills as f64, write_events),
    )
    .num(
        "timing.ns_per_request",
        ratio(rec.stage(Stage::Timing) as f64, rec.reads as f64 + counted),
    )
    .num(
        "wear.ns_per_write",
        ratio(rec.stage(Stage::Wear) as f64, counted),
    )
    .num("sim.glue_ns_per_event", ratio(glue as f64, l.events as f64));
    for name in SERVE_LAYER_METRICS {
        m.num(name, 0.0);
    }
    m.num(
        "bench.attributed_ratio",
        ratio(attributed as f64, l.wall_ns as f64),
    );
    info.str(
        "largest_remainder",
        "sim glue: drive loop, session fold and probe clocks",
    )
    .num(
        "largest_remainder_ns_per_event",
        ratio(glue as f64, l.events as f64),
    );
}

/// Serve-layer metrics a simulator workload has no service for.
const SERVE_LAYER_METRICS: [&str; 8] = [
    "serve.submit_ns_per_batch",
    "serve.apply_ns_per_req",
    "serve.drain_ns_per_batch",
    "serve.shard_busy_ratio",
    "serve.batch_size_mean",
    "serve.queue_depth_max",
    "serve.shard_share_max",
    "serve.reject_ratio",
];

/// The single-threaded reference: the whole input materialised, stepped
/// through a session on the in-RAM arena store.
pub fn replay(
    workload: Workload,
    seed: u64,
    dims: &Dims,
    work_dir: &Path,
) -> Result<String, String> {
    let s = setup(workload, seed, dims, work_dir, "replay");
    let config = s.config.clone().with_store_backend(StoreBackend::Arena);
    let trace = match &s.input {
        Input::Generator(generator) => Input::Events(generator.generate()),
        Input::Events(trace) => Input::Events(trace.clone()),
    };
    drop(s);
    let (result, fingerprint) = session_pass(config, &trace)?;
    Ok(outputs(&result, Some(fingerprint)).render())
}
