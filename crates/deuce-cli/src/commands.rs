//! Command implementations.

use std::collections::{BTreeSet, HashSet};
use std::fs::File;
use std::io::{BufWriter, IsTerminal, Write};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

use deuce_nvm::EnergyParams;
use deuce_schemes::{SchemeConfig, SchemeKind, WordSize};
use deuce_sim::telemetry::export::{write_csv, write_csv_header, write_jsonl};
use deuce_sim::telemetry::parse::{parse_jsonl, Event};
use deuce_sim::telemetry::{
    NullRecorder, Recorder, SweepProgress, TelemetryConfig, TelemetryRecorder,
};
use deuce_sim::{
    grid_fingerprint, merge_manifests, read_manifest, CellRecord, Checkpoints, FaultConfig,
    FileStoreConfig, ManifestHeader, ManifestWriter, ParallelSweep, RunCheckpoint, RunError,
    ShardSpec, SimConfig, SimResult, Simulator, StoreBackend, WearConfig,
};
use deuce_trace::{
    open_source, write_source_jsonl, write_source_to_file, Op, Trace, TraceConfig, TraceEvent,
    TraceIoError, TraceSource, TraceStats, WriteSource,
};

use deuce_serve::{
    request_event, Request, ServeError, ServeReport, ServeStats, ServiceBuilder, SubmitError,
};

use crate::args::{
    CliError, GenArgs, MergeArgs, ReportArgs, RunArgs, ServeArgs, StatsArgs, TraceFormat,
};
use crate::format::{FaultSummary, RunSummary, StoreSummary, METRIC_HEADER};

fn trace_config(gen: &GenArgs) -> TraceConfig {
    TraceConfig::new(gen.benchmark)
        .lines(gen.lines)
        .writes(gen.writes)
        .cores(gen.cores)
        .seed(gen.seed)
}

/// Opens the run's event stream: a saved trace file in either format,
/// or the generator driven directly (no materialised event vector).
fn open_run_source(args: &RunArgs) -> Result<Box<dyn WriteSource>, CliError> {
    match &args.trace_path {
        Some(path) => Ok(open_source(path)?),
        None => Ok(Box::new(trace_config(&args.gen).stream())),
    }
}

fn load_or_generate(args: &RunArgs) -> Result<Trace, CliError> {
    let mut source = open_run_source(args)?;
    Ok(Trace::from_source(&mut *source)?)
}

/// A pass-through [`WriteSource`] that tallies reads and writes, so
/// `gen` can report what it streamed without materialising it.
struct CountingSource<S> {
    inner: S,
    reads: u64,
    writes: u64,
}

impl<S: WriteSource> WriteSource for CountingSource<S> {
    fn cores(&self) -> usize {
        self.inner.cores()
    }

    fn next_event(&mut self) -> Result<Option<TraceEvent>, TraceIoError> {
        let event = self.inner.next_event()?;
        match event.as_ref().map(|e| e.op) {
            Some(Op::Read) => self.reads += 1,
            Some(Op::Write) => self.writes += 1,
            None => {}
        }
        Ok(event)
    }

    fn len_hint(&self) -> Option<u64> {
        self.inner.len_hint()
    }
}

/// `deuce gen`: stream a generated trace to disk (bounded memory at
/// any `--writes` count).
///
/// # Errors
///
/// Returns I/O errors from writing the file.
pub fn gen<W: Write>(args: &GenArgs, out: &mut W) -> Result<(), CliError> {
    let path = args.output.as_deref().expect("parser enforces -o");
    let mut source =
        CountingSource { inner: trace_config(args).stream(), reads: 0, writes: 0 };
    let events = match args.format {
        TraceFormat::Binary => write_source_to_file(path, &mut source)?,
        TraceFormat::Jsonl => {
            write_source_jsonl(BufWriter::new(File::create(path)?), &mut source)?
        }
    };
    writeln!(
        out,
        "wrote {events} events ({} writes, {} reads) to {path}",
        source.writes, source.reads,
    )?;
    Ok(())
}

/// `deuce aes-backend`: print the detected AES dispatch tier and every
/// tier available on this host.
///
/// Scripts (notably ci.sh's per-tier differential loop) parse the
/// `available` row to decide which `DEUCE_AES_FORCE` values to exercise.
///
/// # Errors
///
/// Returns I/O errors from the output stream.
pub fn aes_backend<W: Write>(out: &mut W) -> Result<(), CliError> {
    writeln!(out, "detected\t{}", deuce_crypto::default_backend())?;
    let names: Vec<&str> =
        deuce_crypto::available_backends().iter().map(|b| b.name()).collect();
    writeln!(out, "available\t{}", names.join(" "))?;
    Ok(())
}

/// `deuce stats`: summarize a saved trace (either format) in one pass
/// over the file, holding the latest value of each distinct line.
///
/// # Errors
///
/// Returns I/O or trace-format errors.
pub fn stats<W: Write>(args: &StatsArgs, out: &mut W) -> Result<(), CliError> {
    let mut source = open_source(&args.trace_path)?;
    let stats = TraceStats::from_source(&mut *source)?;
    writeln!(out, "events\t{}", stats.events)?;
    writeln!(out, "writes\t{}", stats.writes)?;
    writeln!(out, "reads\t{}", stats.reads)?;
    writeln!(out, "mpki\t{:.2}", stats.mpki)?;
    writeln!(out, "wbpki\t{:.2}", stats.wbpki)?;
    writeln!(out, "avg_words_modified\t{:.2}", stats.avg_words_modified)?;
    writeln!(out, "avg_bits_modified\t{:.1}", stats.avg_bits_modified)?;
    writeln!(
        out,
        "dirty_bit_fraction\t{:.1}%",
        stats.dirty_bit_fraction * 100.0
    )?;
    writeln!(out, "unique_lines\t{}", stats.unique_lines)?;
    Ok(())
}

/// Resident-page budget the page-file store defaults to when only
/// `--store-file` is given.
const DEFAULT_RESIDENT_PAGES: usize = 1024;

/// The store backend the run's flags pick. `cell` derives a distinct
/// page-file path per sweep grid cell (cells run in parallel and each
/// backend owns its file exclusively).
fn store_backend(args: &RunArgs, cell: Option<&str>) -> StoreBackend {
    match &args.store_file {
        None => StoreBackend::Arena,
        Some(path) => {
            let path = match cell {
                None => path.clone(),
                Some(label) => format!("{path}.{label}"),
            };
            StoreBackend::File(FileStoreConfig::new(
                path,
                args.resident_pages.unwrap_or(DEFAULT_RESIDENT_PAGES),
            ))
        }
    }
}

/// Builds the simulator configuration for one scheme, wiring in fault
/// injection when `--faults` was given: wear tracking is auto-sized to
/// `fault_lines`, the trace's write footprint (every written line needs
/// a cell-array slot; see [`fault_lines`]), and the fault flags map
/// onto [`FaultConfig`].
fn sim_config(args: &RunArgs, fault_lines: usize, scheme: SchemeConfig) -> SimConfig {
    let mut config =
        SimConfig::with_scheme(scheme).with_store_backend(store_backend(args, None));
    if args.faults.enabled {
        config = config
            .with_wear(WearConfig::vertical_only(fault_lines.max(1)))
            .with_faults(
                FaultConfig::accelerated(args.faults.endurance_scale)
                    .ecp_entries(args.faults.ecp_entries)
                    .spare_lines(args.faults.spare_lines),
            );
    }
    if args.trace_out.is_some() {
        // Span tracing wants the AES engine's own pad-generation clock.
        config = config.with_pad_timing();
    }
    config
}

/// Whether this run records anything (telemetry, spans, or the flight
/// ring); otherwise it drives the monomorphised [`NullRecorder`] loop.
fn wants_recorder(args: &RunArgs) -> bool {
    args.telemetry.is_some() || args.trace_out.is_some() || args.flight_recorder.is_some()
}

/// Builds the recorder the run's flags ask for.
fn build_recorder(args: &RunArgs) -> TelemetryRecorder {
    let mut recorder = TelemetryRecorder::new(telemetry_config(args));
    if args.trace_out.is_some() {
        recorder = recorder.with_spans();
    }
    if let Some(events) = args.flight_recorder {
        recorder = recorder.with_flight_recorder(events);
    }
    recorder
}

/// Where a failure dumps the flight ring: next to the run's main
/// output file.
fn flight_dump_path(args: &RunArgs) -> String {
    let base = args
        .telemetry
        .as_deref()
        .or(args.trace_out.as_deref())
        .unwrap_or("deuce-run");
    format!("{base}.flight.jsonl")
}

/// Finishes a recorded run: dumps the flight ring when the run errored
/// or went uncorrectable (before the error propagates — the dump is
/// the post-mortem), then writes the Chrome span trace and telemetry
/// files for a successful run.
fn write_run_outputs<W: Write>(
    args: &RunArgs,
    scheme: SchemeConfig,
    outcome: Result<SimResult, CliError>,
    recorder: TelemetryRecorder,
    out: &mut W,
) -> Result<SimResult, CliError> {
    let uncorrectable = outcome
        .as_ref()
        .ok()
        .and_then(|r| r.faults.as_ref())
        .is_some_and(|f| f.uncorrectable_writes > 0);
    if let Some(flight) = recorder.flight() {
        if outcome.is_err() || uncorrectable {
            let path = flight_dump_path(args);
            let mut file = BufWriter::new(File::create(&path)?);
            flight.write_jsonl(&mut file)?;
            file.flush()?;
            writeln!(out, "flight\t{path}")?;
        }
    }
    let result = outcome?;
    if let Some(path) = &args.trace_out {
        let spans = recorder.spans().expect("--trace-out enables span tracing");
        let mut file = BufWriter::new(File::create(path)?);
        spans.write_chrome_trace(&mut file)?;
        file.flush()?;
        writeln!(out, "trace\t{path}")?;
    }
    if let Some(path) = &args.telemetry {
        write_telemetry(path, &[(scheme.kind.to_string(), recorder)])?;
        writeln!(out, "telemetry\t{path}")?;
    }
    Ok(result)
}

/// The stream's unique written-line count (0 when faults are off — the
/// value is only used to size the wear cell array), counted in a
/// pre-pass over `trace` when the caller holds one, else over a fresh
/// run source.
fn fault_lines(args: &RunArgs, trace: Option<&Trace>) -> Result<usize, CliError> {
    if !args.faults.enabled {
        return Ok(0);
    }
    let mut source: Box<dyn WriteSource + '_> = match trace {
        Some(trace) => Box::new(TraceSource::new(trace)),
        None => open_run_source(args)?,
    };
    let mut lines = HashSet::new();
    while let Some(event) = source.next_event()? {
        if event.op == Op::Write {
            lines.insert(event.line.value());
        }
    }
    Ok(lines.len())
}

/// The telemetry configuration a `--telemetry` run collects under.
fn telemetry_config(args: &RunArgs) -> TelemetryConfig {
    TelemetryConfig {
        sample_every: args.sample_every,
        energy_pj_per_flip: EnergyParams::PAPER.write_pj_per_bit,
    }
}

/// Writes collected telemetry: JSONL events at `path`, a CSV summary
/// next to it (same stem, `.csv`).
fn write_telemetry(
    path: &str,
    runs: &[(String, TelemetryRecorder)],
) -> Result<(), CliError> {
    let mut jsonl = BufWriter::new(File::create(path)?);
    for (label, recorder) in runs {
        write_jsonl(&mut jsonl, label, recorder)?;
    }
    jsonl.flush()?;
    let csv_path = Path::new(path).with_extension("csv");
    let mut csv = BufWriter::new(File::create(&csv_path)?);
    write_csv_header(&mut csv)?;
    for (label, recorder) in runs {
        write_csv(&mut csv, label, recorder)?;
    }
    csv.flush()?;
    Ok(())
}

/// Live progress for a sweep, drawn only when stderr is a terminal so
/// piped and scripted runs stay clean.
fn progress(label: &str, total: usize, shards: usize) -> SweepProgress {
    SweepProgress::new(label, total, shards.min(total).max(1))
        .live(std::io::stderr().is_terminal())
}

/// Drives one run from its source with the checkpoint mode the flags
/// picked: plain, emitting (`--checkpoint`), or replay-verifying
/// (`--from-checkpoint`).
fn drive_stream<R: Recorder>(
    args: &RunArgs,
    simulator: &Simulator,
    source: &mut dyn WriteSource,
    rec: &mut R,
) -> Result<SimResult, CliError> {
    let from = args.from_checkpoint.as_deref().map(read_checkpoint).transpose()?;
    let mut file = args.checkpoint.as_deref().map(File::create).transpose()?;
    if let (Some(file), Some(total)) = (&mut file, source.len_hint()) {
        // Lets `deuce watch` compute progress and an ETA; resume ignores
        // non-checkpoint kinds.
        writeln!(file, "{{\"type\":\"run_total\",\"events\":{total}}}")?;
    }
    let mut sink_err: Option<std::io::Error> = None;
    let mut sink = |cp: &RunCheckpoint| {
        if let (Some(file), true) = (&mut file, sink_err.is_none()) {
            sink_err = file.write_all(cp.to_jsonl().as_bytes()).and_then(|()| file.flush()).err();
        }
    };
    let checkpoints = match &from {
        Some(from) => Checkpoints::Verify(from),
        None if args.checkpoint.is_some() => {
            Checkpoints::Emit { every_writes: args.checkpoint_every, sink: &mut sink }
        }
        None => Checkpoints::Off,
    };
    let result = simulator.run(source, rec, checkpoints)?;
    sink_err.map_or(Ok(result), |e| Err(e.into()))
}

/// Reads the checkpoint a `--from-checkpoint` run resumes from.
fn read_checkpoint(path: &str) -> Result<RunCheckpoint, CliError> {
    let text = std::fs::read_to_string(path)?;
    RunCheckpoint::from_jsonl(&text).map_err(|e| CliError::Checkpoint(format!("{path}: {e}")))
}

/// `deuce run`: simulate one scheme, driven from the trace file or the
/// generator one event at a time — O(1) trace-resident memory at any
/// trace length.
///
/// # Errors
///
/// Returns I/O or trace-format errors, and
/// [`CliError::Checkpoint`] when a `--from-checkpoint` replay diverges.
pub fn run<W: Write>(args: &RunArgs, out: &mut W) -> Result<(), CliError> {
    let scheme = args.scheme.expect("parser enforces --scheme for run");
    let lines = fault_lines(args, None)?;
    let simulator = Simulator::new(sim_config(args, lines, scheme));
    writeln!(out, "scheme\t{}", scheme.kind)?;
    let mut source = open_run_source(args)?;
    let result = if wants_recorder(args) {
        let mut recorder = build_recorder(args);
        let outcome = drive_stream(args, &simulator, &mut *source, &mut recorder);
        write_run_outputs(args, scheme, outcome, recorder, out)?
    } else {
        drive_stream(args, &simulator, &mut *source, &mut NullRecorder)?
    };
    RunSummary::from(&result).write_to(out)?;
    writeln!(out, "aes_backend\t{}", result.aes_backend)?;
    if let Some(report) = &result.faults {
        FaultSummary::from(report).write_to(out)?;
    }
    if let Some(stats) = result.store {
        StoreSummary::from(stats).write_to(out)?;
    }
    if let Some(path) = &args.checkpoint {
        writeln!(out, "checkpoint\t{path}")?;
    }
    if let Some(path) = &args.from_checkpoint {
        writeln!(out, "resume_verified\t{path}")?;
    }
    Ok(())
}

/// `deuce compare`: simulate every scheme over the same trace and
/// tabulate the headline metrics.
///
/// # Errors
///
/// Returns I/O or trace-format errors.
pub fn compare<W: Write>(args: &RunArgs, out: &mut W) -> Result<(), CliError> {
    let trace = load_or_generate(args)?;
    let lines = fault_lines(args, Some(&trace))?;
    let fault_header = if args.faults.enabled { "\tfirst_ue\tlines_retired" } else { "" };
    writeln!(out, "scheme\t{METRIC_HEADER}\tmeta_bits{fault_header}")?;
    let sweep = ParallelSweep::new();
    let ticker = progress("compare", SchemeKind::ALL.len(), sweep.shards());
    let results = sweep.map(&SchemeKind::ALL, Some(&ticker), |_, &kind| {
        run_cell(args, sim_config(args, lines, SchemeConfig::new(kind)), &trace)
    });
    let results = results.into_iter().collect::<Result<Vec<_>, RunError>>()?;
    for (kind, (result, _)) in SchemeKind::ALL.iter().zip(&results) {
        let fault_cells = result.faults.as_ref().map_or_else(String::new, |f| {
            format!(
                "\t{}\t{}",
                f.first_uncorrectable_write
                    .map_or_else(|| "-".to_string(), |w| w.to_string()),
                f.lines_retired,
            )
        });
        writeln!(
            out,
            "{kind}\t{}\t{}{fault_cells}",
            RunSummary::from(result).metric_cells(),
            result.metadata_bits,
        )?;
    }
    // One dispatch tier per host: every scheme's engine resolves the
    // same backend, so a single row covers the whole table.
    if let Some((first, _)) = results.first() {
        writeln!(out, "aes_backend\t{}", first.aes_backend)?;
    }
    if let Some(path) = &args.telemetry {
        let runs: Vec<(String, TelemetryRecorder)> = SchemeKind::ALL
            .iter()
            .zip(results)
            .filter_map(|(kind, (_, recorder))| recorder.map(|r| (kind.to_string(), r)))
            .collect();
        write_telemetry(path, &runs)?;
        writeln!(out, "telemetry\t{path}")?;
    }
    Ok(())
}

/// The §4.2 design-space grid: word size × epoch, in output order.
fn sweep_grid() -> Vec<(WordSize, u64)> {
    let mut grid = Vec::new();
    for word_size in [WordSize::Bytes1, WordSize::Bytes2, WordSize::Bytes4, WordSize::Bytes8] {
        for epoch in [8u64, 16, 32, 64] {
            grid.push((word_size, epoch));
        }
    }
    grid
}

/// The scheme for one sweep grid cell.
fn sweep_scheme(word_size: WordSize, epoch: u64) -> SchemeConfig {
    use deuce_crypto::EpochInterval;
    SchemeConfig::new(SchemeKind::Deuce)
        .with_word_size(word_size)
        .with_epoch(EpochInterval::new(epoch).expect("power of two"))
}

/// A sweep cell's name in telemetry, manifests and derived page files.
fn sweep_label(word_size: WordSize, epoch: u64) -> String {
    format!("w{}e{epoch}", word_size.bytes())
}

/// Runs one simulation over the shared in-RAM trace (a `compare` or
/// `sweep` cell), collecting telemetry when `--telemetry` asked for it.
fn run_cell(
    args: &RunArgs,
    config: SimConfig,
    trace: &Trace,
) -> Result<(SimResult, Option<TelemetryRecorder>), RunError> {
    let simulator = Simulator::new(config);
    let mut source = TraceSource::new(trace);
    if args.telemetry.is_none() {
        return Ok((simulator.run_source(&mut source)?, None));
    }
    let mut recorder = TelemetryRecorder::new(telemetry_config(args));
    let result = simulator.run(&mut source, &mut recorder, Checkpoints::Off)?;
    Ok((result, Some(recorder)))
}

/// Runs one sweep grid cell and renders its table row. Parallel cells
/// each own a derived page file.
fn run_sweep_cell(
    args: &RunArgs,
    lines: usize,
    trace: &Trace,
    (word_size, epoch): (WordSize, u64),
) -> Result<(String, SimResult, Option<TelemetryRecorder>), RunError> {
    let scheme = sweep_scheme(word_size, epoch);
    let config = sim_config(args, lines, scheme)
        .with_store_backend(store_backend(args, Some(&sweep_label(word_size, epoch))));
    let (result, recorder) = run_cell(args, config, trace)?;
    let row = format!(
        "{}\t{}\t{}\t{}",
        word_size.bytes(),
        epoch,
        RunSummary::from(&result).metric_cells(),
        scheme.metadata_bits(),
    );
    Ok((row, result, recorder))
}

/// The manifest header every shard of one sweep grid must agree on:
/// same cells, same columns, and a fingerprint over every argument that
/// changes the results.
fn sweep_manifest_header(args: &RunArgs, cells: u64) -> ManifestHeader {
    let gen = &args.gen;
    let canonical = format!(
        "{:?}\t{}\t{}\t{}\t{}\t{}\t{:?}",
        args.trace_path,
        gen.benchmark,
        gen.writes,
        gen.lines,
        gen.cores,
        gen.seed,
        args.faults,
    );
    let grid = match &args.trace_path {
        Some(path) => format!("deuce sweep over {path}"),
        None => format!(
            "deuce sweep over {} writes={} lines={} cores={} seed={}",
            gen.benchmark, gen.writes, gen.lines, gen.cores, gen.seed,
        ),
    };
    ManifestHeader {
        grid,
        cells,
        fingerprint: grid_fingerprint(&canonical),
        columns: format!("word_bytes\tepoch\t{METRIC_HEADER}\tmeta_bits"),
    }
}

/// `deuce sweep --manifest`: run this process's shard of the grid,
/// recording each finished cell in the manifest. Stdout carries only a
/// completion summary — the table comes from `deuce merge` once every
/// shard is done.
fn sweep_sharded<W: Write>(
    args: &RunArgs,
    manifest_path: &str,
    trace: &Trace,
    lines: usize,
    out: &mut W,
) -> Result<(), CliError> {
    let grid = sweep_grid();
    let header = sweep_manifest_header(args, grid.len() as u64);
    let shard = args.shard.unwrap_or(ShardSpec::WHOLE);
    let (writer, completed) = if args.resume {
        ManifestWriter::resume(manifest_path, &header)?
    } else {
        (ManifestWriter::create(manifest_path, &header)?, BTreeSet::new())
    };
    let owned = (0..grid.len() as u64).filter(|&c| shard.owns(c)).count();
    let pending = (0..grid.len() as u64)
        .filter(|&c| shard.owns(c) && !completed.contains(&c))
        .count();
    let runner = ParallelSweep::new();
    let ticker = progress("sweep", pending, runner.shards());
    let records = runner.run_manifest(
        &grid,
        shard,
        &completed,
        &writer,
        |cell, &(word_size, epoch)| {
            let (row, result, _) = run_sweep_cell(args, lines, trace, (word_size, epoch))?;
            Ok::<_, CliError>(CellRecord {
                cell: cell as u64,
                label: sweep_label(word_size, epoch),
                writes: result.writes,
                row,
            })
        },
        Some(&ticker),
    )?;
    writeln!(out, "manifest\t{manifest_path}")?;
    writeln!(out, "shard\t{shard}")?;
    writeln!(out, "cells_total\t{}", grid.len())?;
    writeln!(out, "cells_owned\t{owned}")?;
    writeln!(out, "cells_skipped\t{}", owned - records.len())?;
    writeln!(out, "cells_run\t{}", records.len())?;
    Ok(())
}

/// `deuce sweep`: the §4.2 design-space sweep (word size × epoch) over
/// one trace.
///
/// # Errors
///
/// Returns I/O, trace-format, or manifest errors.
pub fn sweep<W: Write>(args: &RunArgs, out: &mut W) -> Result<(), CliError> {
    let trace = load_or_generate(args)?;
    let lines = fault_lines(args, Some(&trace))?;
    if let Some(path) = &args.manifest {
        return sweep_sharded(args, path, &trace, lines, out);
    }
    let grid = sweep_grid();
    // One shard per grid cell; rows come back in grid order.
    let runner = ParallelSweep::new();
    let ticker = progress("sweep", grid.len(), runner.shards());
    let rows =
        runner.map(&grid, Some(&ticker), |_, &cell| run_sweep_cell(args, lines, &trace, cell));
    let rows = rows.into_iter().collect::<Result<Vec<_>, RunError>>()?;
    writeln!(out, "word_bytes\tepoch\t{METRIC_HEADER}\tmeta_bits")?;
    for (row, ..) in &rows {
        writeln!(out, "{row}")?;
    }
    if let Some(path) = &args.telemetry {
        let runs: Vec<(String, TelemetryRecorder)> = grid
            .iter()
            .zip(rows)
            .filter_map(|(&(word_size, epoch), (_, _, recorder))| {
                recorder.map(|r| (sweep_label(word_size, epoch), r))
            })
            .collect();
        write_telemetry(path, &runs)?;
        writeln!(out, "telemetry\t{path}")?;
    }
    Ok(())
}

/// `deuce merge`: combine shard manifests into the full sweep table —
/// byte-identical to the stdout of an unsharded `deuce sweep` over the
/// same grid.
///
/// # Errors
///
/// Returns I/O errors, and [`CliError::Manifest`] when headers
/// disagree, cells conflict, or the shards do not cover the grid.
pub fn merge<W: Write>(args: &MergeArgs, out: &mut W) -> Result<(), CliError> {
    let mut manifests = Vec::with_capacity(args.manifests.len());
    for path in &args.manifests {
        manifests.push(read_manifest(path)?);
    }
    let (header, records) = merge_manifests(&manifests)?;
    writeln!(out, "{}", header.columns)?;
    for record in records {
        writeln!(out, "{}", record.row)?;
    }
    Ok(())
}

fn event_counter(events: &[Event], run: &str, name: &str) -> u64 {
    events
        .iter()
        .find(|e| {
            e.kind() == "counter" && e.str("run") == Some(run) && e.str("name") == Some(name)
        })
        .and_then(|e| e.u64("value"))
        .unwrap_or(0)
}

fn event_gauge(events: &[Event], run: &str, name: &str) -> f64 {
    events
        .iter()
        .find(|e| e.kind() == "gauge" && e.str("run") == Some(run) && e.str("name") == Some(name))
        .and_then(|e| e.num("value"))
        .unwrap_or(0.0)
}

/// Rebuilds one run's headline summary from its telemetry events.
fn summary_from_events(events: &[Event], run: &str) -> RunSummary {
    let writes = event_counter(events, run, "writes");
    let flips_sum = events
        .iter()
        .find(|e| {
            e.kind() == "hist"
                && e.str("run") == Some(run)
                && e.str("name") == Some("flips_per_write")
        })
        .and_then(|e| e.u64("sum"))
        .unwrap_or(0);
    let per_write = |total: u64| if writes == 0 { 0.0 } else { total as f64 / writes as f64 };
    let flips_per_write = per_write(flips_sum);
    let exec_time_ns = event_gauge(events, run, "exec_time_ns");
    let energy_pj = event_gauge(events, run, "energy_pj");
    RunSummary {
        writes,
        reads: event_counter(events, run, "reads"),
        flips_per_write,
        flip_rate: flips_per_write / deuce_crypto::LINE_BITS as f64,
        slots_per_write: per_write(event_counter(events, run, "slots_total")),
        exec_time_us: exec_time_ns / 1000.0,
        energy_uj: energy_pj / 1e6,
        power_mw: if exec_time_ns == 0.0 { 0.0 } else { energy_pj / exec_time_ns },
        metadata_bits: Some(event_gauge(events, run, "metadata_bits") as u64),
        line_store_bytes: Some(event_gauge(events, run, "line_store_bytes") as u64),
    }
}

fn render_hist<W: Write>(
    out: &mut W,
    title: &str,
    buckets: &[(u64, u64, u64)],
) -> Result<(), CliError> {
    writeln!(out, "{title}:")?;
    if buckets.is_empty() {
        writeln!(out, "  (empty)")?;
        return Ok(());
    }
    let peak = buckets.iter().map(|&(_, _, count)| count).max().unwrap_or(1).max(1);
    for &(lo, hi, count) in buckets {
        let bar = "#".repeat(((count * 40).div_ceil(peak)) as usize);
        writeln!(out, "  [{lo:>6}, {hi:>6})  {count:>8}  {bar}")?;
    }
    Ok(())
}

fn render_run<W: Write>(out: &mut W, run: &str, events: &[Event]) -> Result<(), CliError> {
    writeln!(out, "== run {run}")?;
    summary_from_events(events, run).write_to(out)?;
    writeln!(out)?;
    let counters: Vec<&Event> = events
        .iter()
        .filter(|e| e.kind() == "counter" && e.str("run") == Some(run))
        .collect();
    let is_store = |e: &Event| e.str("name").is_some_and(|n| n.starts_with("store_"));
    writeln!(out, "counters:")?;
    for event in counters.iter().filter(|e| !is_store(e)) {
        writeln!(
            out,
            "  {:<20} {}",
            event.str("name").unwrap_or("?"),
            event.u64("value").unwrap_or(0),
        )?;
    }
    writeln!(out)?;
    // The paging block appears only for page-file-backed runs, so
    // in-RAM reports render exactly as before.
    let store: Vec<&&Event> = counters.iter().filter(|e| is_store(e)).collect();
    if !store.is_empty() {
        writeln!(out, "store (page-file backend):")?;
        for event in store {
            writeln!(
                out,
                "  {:<26} {}",
                event.str("name").unwrap_or("?"),
                event.u64("value").unwrap_or(0),
            )?;
        }
        writeln!(out)?;
    }
    for (name, title) in [
        ("flips_per_write", "flips/write histogram"),
        ("slots_per_write", "slots/write histogram"),
        ("counter_residency", "counter-cache residency histogram"),
        ("ecp_entries_used", "ECP entries used per line histogram"),
    ] {
        let buckets: Vec<(u64, u64, u64)> = events
            .iter()
            .filter(|e| {
                e.kind() == "hist_bucket"
                    && e.str("run") == Some(run)
                    && e.str("name") == Some(name)
            })
            .filter_map(|e| {
                Some((e.u64("lo")?, e.u64("hi")?, e.u64("count")?))
                    .filter(|&(_, _, count)| count > 0)
            })
            .collect();
        if matches!(name, "counter_residency" | "ecp_entries_used") && buckets.is_empty() {
            continue; // counter cache / fault injection off: nothing to draw
        }
        render_hist(out, title, &buckets)?;
        writeln!(out)?;
    }
    let retirements: Vec<&Event> = events
        .iter()
        .filter(|e| e.kind() == "retirement" && e.str("run") == Some(run))
        .collect();
    if !retirements.is_empty() {
        writeln!(out, "line retirements (write index, simulated time):")?;
        writeln!(out, "  write\tsim_us")?;
        for event in retirements {
            writeln!(
                out,
                "  {}\t{:.2}",
                event.u64("write").unwrap_or(0),
                event.num("sim_ns").unwrap_or(0.0) / 1000.0,
            )?;
        }
        writeln!(out)?;
    }
    if let Some(event) = events
        .iter()
        .find(|e| e.kind() == "uncorrectable" && e.str("run") == Some(run))
    {
        writeln!(
            out,
            "first uncorrectable write: #{} at {:.2} us (device end of life)",
            event.u64("write").unwrap_or(0),
            event.num("sim_ns").unwrap_or(0.0) / 1000.0,
        )?;
        writeln!(out)?;
    }
    let samples: Vec<&Event> = events
        .iter()
        .filter(|e| e.kind() == "sample" && e.str("run") == Some(run))
        .collect();
    if !samples.is_empty() {
        let every = events
            .iter()
            .find(|e| e.kind() == "meta" && e.str("run") == Some(run))
            .and_then(|e| e.u64("sample_every"))
            .unwrap_or(0);
        writeln!(out, "time series (one row per {every} writes, simulated time):")?;
        writeln!(out, "  writes\tsim_us\tflips_per_write\tslots_per_write\thit_ratio\tpower_mw")?;
        for sample in samples {
            writeln!(
                out,
                "  {}\t{:.2}\t{:.1}\t{:.2}\t{:.3}\t{:.2}",
                sample.u64("writes").unwrap_or(0),
                sample.num("sim_ns").unwrap_or(0.0) / 1000.0,
                sample.num("flips_per_write").unwrap_or(0.0),
                sample.num("slots_per_write").unwrap_or(0.0),
                sample.num("hit_ratio").unwrap_or(0.0),
                sample.num("power_mw").unwrap_or(0.0),
            )?;
        }
        writeln!(out)?;
    }
    Ok(())
}

/// Record kinds `deuce report` knows how to render (or deliberately
/// ignores). Anything else gets one warning line and is skipped, so a
/// report from a newer tool still renders everything it understands.
const KNOWN_KINDS: &[&str] = &[
    "meta",
    "counter",
    "gauge",
    "hist",
    "hist_bucket",
    "sample",
    "profile",
    "retirement",
    "uncorrectable",
    "aes_backend",
    "span",
    "flight_header",
    "flight",
    "run_checkpoint",
    "run_total",
    "serve_progress",
    "serve_tenant",
    "serve_shard",
];

/// `deuce report`: render a telemetry JSONL file as text tables. The
/// output is deterministic for a given simulation except the trailing
/// `== profiling` and `== spans` sections (wall-clock times) — diff
/// tooling should stop at the first marker. Unknown record kinds get
/// one leading warning line each and are otherwise skipped.
///
/// # Errors
///
/// Returns I/O errors reading the file and
/// [`CliError::Telemetry`] on malformed or empty telemetry.
pub fn report<W: Write>(args: &ReportArgs, out: &mut W) -> Result<(), CliError> {
    let text = std::fs::read_to_string(&args.telemetry_path)?;
    let events = parse_jsonl(&text)
        .map_err(|e| CliError::Telemetry(format!("{}: {e}", args.telemetry_path)))?;
    let mut unknown: Vec<&str> = Vec::new();
    for event in &events {
        let kind = event.kind();
        if !KNOWN_KINDS.contains(&kind) && !unknown.contains(&kind) {
            unknown.push(kind);
        }
    }
    for kind in &unknown {
        let count = events.iter().filter(|e| e.kind() == *kind).count();
        writeln!(
            out,
            "warning: unknown record kind \"{kind}\" ({count} line{}) skipped",
            if count == 1 { "" } else { "s" },
        )?;
    }
    let mut runs: Vec<&str> = Vec::new();
    for event in &events {
        if let Some(run) = event.str("run") {
            if !runs.contains(&run) {
                runs.push(run);
            }
        }
    }
    if runs.is_empty() {
        return Err(CliError::Telemetry(format!(
            "{}: no telemetry events found",
            args.telemetry_path
        )));
    }
    for run in &runs {
        render_run(out, run, &events)?;
    }
    let profiles: Vec<&Event> = events.iter().filter(|e| e.kind() == "profile").collect();
    let backends: Vec<&Event> = events.iter().filter(|e| e.kind() == "aes_backend").collect();
    // The dispatch tier is a host property, so it renders with the
    // other machine-dependent output, below the marker diff tooling
    // stops at.
    if !profiles.is_empty() || !backends.is_empty() {
        writeln!(out, "== profiling (wall-clock; nondeterministic)")?;
        if !profiles.is_empty() {
            writeln!(out, "run\tstage\tevents\tmean_ns\tp50_ns\tp99_ns")?;
            for profile in profiles {
                writeln!(
                    out,
                    "{}\t{}\t{}\t{:.0}\t{}\t{}",
                    profile.str("run").unwrap_or("?"),
                    profile.str("stage").unwrap_or("?"),
                    profile.u64("events").unwrap_or(0),
                    profile.num("mean_ns").unwrap_or(0.0),
                    profile.u64("p50_ns").unwrap_or(0),
                    profile.u64("p99_ns").unwrap_or(0),
                )?;
            }
        }
        for backend in backends {
            writeln!(
                out,
                "{}\taes_backend\t{}",
                backend.str("run").unwrap_or("?"),
                backend.str("backend").unwrap_or("?"),
            )?;
        }
    }
    let mut spans: Vec<&Event> = events.iter().filter(|e| e.kind() == "span").collect();
    if !spans.is_empty() {
        spans.sort_by_key(|e| std::cmp::Reverse(e.u64("self_ns").unwrap_or(0)));
        writeln!(out, "== spans (wall-clock; nondeterministic)")?;
        writeln!(out, "run\tname\tparent\tcount\ttotal_ns\tself_ns")?;
        for span in spans.iter().take(10) {
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}",
                span.str("run").unwrap_or("?"),
                span.str("name").unwrap_or("?"),
                span.str("parent").filter(|p| !p.is_empty()).unwrap_or("-"),
                span.u64("count").unwrap_or(0),
                span.u64("total_ns").unwrap_or(0),
                span.u64("self_ns").unwrap_or(0),
            )?;
        }
    }
    Ok(())
}

/// The name tenant `index` registers under (and the page-file stem it
/// gets with `--store-dir`).
fn serve_tenant_name(index: usize) -> String {
    format!("t{index}")
}

/// One tenant's simulator configuration: the shared scheme, a
/// per-tenant key domain (`seed + index`), and — with `--store-dir` —
/// a private page file. Replay runs use a distinct file name so a
/// verification replay never touches the service's pages.
fn serve_tenant_config(args: &ServeArgs, index: usize, replay: bool) -> SimConfig {
    let mut config =
        SimConfig::with_scheme(args.scheme).key_seed(args.seed + index as u64);
    if let Some(dir) = &args.store_dir {
        let suffix = if replay { "replay.pages" } else { "pages" };
        config = config.with_store_backend(StoreBackend::File(FileStoreConfig::new(
            format!("{dir}/{}.{suffix}", serve_tenant_name(index)),
            args.resident_pages.unwrap_or(DEFAULT_RESIDENT_PAGES),
        )));
    }
    config
}

/// Materialises tenant `index`'s request stream: the benchmark
/// generator at `--requests` writes, collapsed onto a single core with
/// a per-tenant seed. The same function feeds both the sharded service
/// and the `--replay` verification path, so the two see byte-identical
/// streams.
fn serve_requests(args: &ServeArgs, index: usize) -> Result<Vec<Request>, CliError> {
    let mut source = TraceConfig::new(args.benchmark)
        .lines(args.lines)
        .writes(args.requests)
        .cores(1)
        .seed(args.seed + index as u64)
        .stream();
    let mut requests = Vec::new();
    while let Some(event) = source.next_event()? {
        match event.op {
            Op::Read => requests.push(Request::read(event.line)),
            Op::Write => requests.push(Request::write(
                event.line,
                event.data.expect("generator writes carry data"),
            )),
        }
    }
    Ok(requests)
}

/// Prints one tenant's deterministic summary block. `deuce serve` and
/// `deuce serve --replay` both end in this function, so their stdout
/// diffs clean whenever the service honoured its determinism contract.
fn write_tenant_block<W: Write>(
    out: &mut W,
    name: &str,
    scheme: SchemeKind,
    applied: u64,
    fingerprint: u64,
    degraded: bool,
    result: &SimResult,
) -> Result<(), CliError> {
    writeln!(out, "== tenant {name}")?;
    writeln!(out, "scheme\t{scheme}")?;
    writeln!(out, "requests\t{applied}")?;
    writeln!(out, "fingerprint\t{fingerprint:016x}")?;
    writeln!(out, "degraded\t{degraded}")?;
    RunSummary::from(result).write_to(out)?;
    if let Some(stats) = result.store {
        StoreSummary::from(stats).write_to(out)?;
    }
    Ok(())
}

/// Single-threaded ground truth: replays every tenant's stream through
/// a plain session and prints the same blocks the service prints.
fn serve_replay<W: Write>(args: &ServeArgs, out: &mut W) -> Result<(), CliError> {
    for index in 0..args.tenants {
        let requests = serve_requests(args, index)?;
        let simulator = Simulator::new(serve_tenant_config(args, index, true));
        let mut session = simulator.session(1)?;
        for (seq, request) in requests.iter().enumerate() {
            session.step(&request_event(seq as u64, request));
        }
        let fingerprint = session.content_fingerprint();
        let degraded = session.uncorrectable();
        let result = session.finish()?;
        write_tenant_block(
            out,
            &serve_tenant_name(index),
            args.scheme.kind,
            requests.len() as u64,
            fingerprint,
            degraded,
            &result,
        )?;
    }
    Ok(())
}

fn serve_error(e: ServeError) -> CliError {
    match e {
        ServeError::Session { tenant, error } => {
            CliError::Store(format!("tenant {tenant}: {error}"))
        }
        other => CliError::Usage(other.to_string()),
    }
}

/// Appends one `serve_progress` JSONL line — the record `deuce watch`
/// tails for live applied/rejected counts and an ETA.
fn write_serve_progress<W: Write>(
    out: &mut W,
    stats: &ServeStats,
    total: u64,
) -> Result<(), CliError> {
    writeln!(
        out,
        "{{\"type\":\"serve_progress\",\"submitted\":{},\"applied\":{},\"rejected\":{},\
         \"total\":{total},\"elapsed_ms\":{}}}",
        stats.submitted,
        stats.applied,
        stats.rejected,
        stats.elapsed.as_millis(),
    )?;
    out.flush()?;
    Ok(())
}

/// Post-run telemetry: the aggregate recorder in the standard JSONL +
/// CSV format, then one `serve_tenant` line per tenant and one
/// `serve_shard` line per shard appended to the JSONL file.
fn write_serve_telemetry(path: &str, report: &ServeReport) -> Result<(), CliError> {
    write_telemetry(path, &[("serve".to_string(), report.recorder.clone())])?;
    let mut file = BufWriter::new(std::fs::OpenOptions::new().append(true).open(path)?);
    for tenant in &report.tenants {
        writeln!(
            file,
            "{{\"type\":\"serve_tenant\",\"run\":\"serve\",\"tenant\":\"{}\",\
             \"requests\":{},\"fingerprint\":\"{:016x}\",\"degraded\":{}}}",
            tenant.name,
            tenant.requests_applied,
            tenant.fingerprint,
            // The telemetry parser speaks strings and numbers only.
            u8::from(tenant.degraded),
        )?;
    }
    for (index, shard) in report.shards.iter().enumerate() {
        writeln!(
            file,
            "{{\"type\":\"serve_shard\",\"run\":\"serve\",\"shard\":{index},\
             \"drained\":{},\"batches\":{},\"max_depth\":{},\"drain_wall_ns\":{},\
             \"apply_wall_ns\":{}}}",
            shard.drained,
            shard.batches,
            shard.max_depth,
            shard.drain_wall_ns,
            shard.apply_wall_ns,
        )?;
    }
    file.flush()?;
    Ok(())
}

/// Where a degraded tenant's flight ring is dumped: next to the run's
/// telemetry or progress file, tagged with the tenant name.
fn serve_flight_path(args: &ServeArgs, tenant: &str) -> String {
    let base = args
        .telemetry
        .as_deref()
        .or(args.progress.as_deref())
        .unwrap_or("deuce-serve");
    format!("{base}.{tenant}.flight.jsonl")
}

/// `deuce serve`: run a sharded multi-tenant service over generated
/// request streams, then print one deterministic summary block per
/// tenant. Stdout is bit-identical to `deuce serve --replay` with the
/// same flags at any `--shards` count; wall-clock service statistics
/// (requests/sec, per-shard accounting) go to stderr.
///
/// # Errors
///
/// Returns [`CliError::Store`] when a tenant's paged backend fails or
/// a shard worker panics, and I/O errors from the output files.
pub fn serve<W: Write>(args: &ServeArgs, out: &mut W) -> Result<(), CliError> {
    if args.replay {
        return serve_replay(args, out);
    }
    let streams: Vec<Vec<Request>> = (0..args.tenants)
        .map(|index| serve_requests(args, index))
        .collect::<Result<_, _>>()?;
    let total: u64 = streams.iter().map(|s| s.len() as u64).sum();

    let mut builder = ServiceBuilder::new()
        .shards(args.shards)
        .queue_depth(args.queue_depth);
    if let Some(events) = args.flight_recorder {
        builder = builder.with_flight_recorder(events);
    }
    for index in 0..args.tenants {
        builder = builder.tenant(
            serve_tenant_name(index),
            serve_tenant_config(args, index, false),
        );
    }
    let handle = builder.start().map_err(serve_error)?;

    let mut progress_file = match &args.progress {
        Some(path) => Some(BufWriter::new(File::create(path)?)),
        None => None,
    };

    let done = AtomicUsize::new(0);
    std::thread::scope(|scope| -> Result<(), CliError> {
        let done = &done;
        let handle = &handle;
        for (index, requests) in streams.iter().enumerate() {
            let id = handle
                .tenant(&serve_tenant_name(index))
                .expect("tenant registered above");
            scope.spawn(move || {
                for chunk in requests.chunks(args.batch) {
                    loop {
                        match handle.submit(id, chunk) {
                            Ok(()) => break,
                            Err(SubmitError::QueueFull { retry_after, .. }) => {
                                std::thread::sleep(retry_after);
                            }
                            Err(SubmitError::ShuttingDown) => return,
                        }
                    }
                }
                done.fetch_add(1, Ordering::Release);
            });
        }
        while done.load(Ordering::Acquire) < args.tenants {
            std::thread::sleep(Duration::from_millis(50));
            if let Some(file) = progress_file.as_mut() {
                write_serve_progress(file, &handle.stats(), total)?;
            }
        }
        Ok(())
    })?;
    let report = handle.shutdown();

    if let Some(file) = progress_file.as_mut() {
        // Final line: applied == total marks the stream complete for
        // `deuce watch`.
        write_serve_progress(
            file,
            &ServeStats {
                submitted: report.submitted,
                rejected: report.rejected,
                applied: report.applied,
                elapsed: report.elapsed,
                shard_depths: Vec::new(),
            },
            total,
        )?;
    }

    let stderr = std::io::stderr();
    let mut err = stderr.lock();
    writeln!(
        err,
        "serve: {} applied, {} rejected, {:.0} req/s over {:.2}s ({} shards)",
        report.applied,
        report.rejected,
        report.requests_per_sec(),
        report.elapsed.as_secs_f64(),
        report.shards.len(),
    )?;
    writeln!(err, "shard\tdrained\tbatches\tmax_depth\tdrain_ms\tapply_ms")?;
    for (index, shard) in report.shards.iter().enumerate() {
        writeln!(
            err,
            "{index}\t{}\t{}\t{}\t{:.2}\t{:.2}",
            shard.drained,
            shard.batches,
            shard.max_depth,
            shard.drain_wall_ns as f64 / 1e6,
            shard.apply_wall_ns as f64 / 1e6,
        )?;
    }

    if let Some(path) = &args.telemetry {
        write_serve_telemetry(path, &report)?;
        writeln!(err, "telemetry\t{path}")?;
    }

    let mut failures: Vec<String> = Vec::new();
    for tenant in &report.tenants {
        if tenant.degraded || !report.panicked_shards.is_empty() {
            if let Some(flight) = &tenant.flight {
                let path = serve_flight_path(args, &tenant.name);
                let mut file = BufWriter::new(File::create(&path)?);
                flight.write_jsonl(&mut file)?;
                file.flush()?;
                writeln!(err, "flight\t{path}")?;
            }
        }
        match &tenant.result {
            Ok(result) => write_tenant_block(
                out,
                &tenant.name,
                args.scheme.kind,
                tenant.requests_applied,
                tenant.fingerprint,
                tenant.degraded,
                result,
            )?,
            Err(error) => {
                writeln!(out, "== tenant {}", tenant.name)?;
                writeln!(out, "error\t{error}")?;
                failures.push(format!("tenant {}: {error}", tenant.name));
            }
        }
    }
    if !report.panicked_shards.is_empty() {
        failures.push(format!("worker shards {:?} panicked", report.panicked_shards));
    }
    if let Some(first) = failures.into_iter().next() {
        return Err(CliError::Store(format!("serve: {first}")));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::FaultArgs;
    use deuce_trace::Benchmark;

    #[test]
    fn sweep_covers_the_grid() {
        let args = RunArgs {
            trace_path: None,
            gen: small_gen(),
            scheme: None,
            telemetry: None,
            sample_every: 64,
            faults: FaultArgs::default(),
            ..RunArgs::default()
        };
        let mut out = Vec::new();
        sweep(&args, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert_eq!(text.lines().count(), 17, "header + 16 grid rows");
        assert!(text.contains("8\t64\t"));
    }

    fn small_gen() -> GenArgs {
        GenArgs {
            benchmark: Benchmark::Mcf,
            writes: 300,
            lines: 32,
            cores: 1,
            seed: 5,
            output: None,
            format: TraceFormat::Binary,
        }
    }

    #[test]
    fn run_reports_metrics() {
        let args = RunArgs {
            trace_path: None,
            gen: small_gen(),
            scheme: Some(SchemeConfig::new(SchemeKind::Deuce)),
            telemetry: None,
            sample_every: 64,
            faults: FaultArgs::default(),
            ..RunArgs::default()
        };
        let mut out = Vec::new();
        run(&args, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("scheme\tDEUCE"));
        assert!(text.contains("flip_rate"));
    }

    #[test]
    fn compare_lists_all_schemes() {
        let args = RunArgs {
            trace_path: None,
            gen: small_gen(),
            scheme: None,
            telemetry: None,
            sample_every: 64,
            faults: FaultArgs::default(),
            ..RunArgs::default()
        };
        let mut out = Vec::new();
        compare(&args, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        for kind in SchemeKind::ALL {
            assert!(text.contains(kind.label()), "missing {kind}");
        }
    }

    #[test]
    fn gen_stats_roundtrip_through_disk() {
        let dir = std::env::temp_dir().join("deuce-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.trace");
        let path_str = path.to_str().unwrap().to_string();

        let mut gen_args = small_gen();
        gen_args.output = Some(path_str.clone());
        let mut out = Vec::new();
        gen(&gen_args, &mut out).unwrap();
        assert!(String::from_utf8(out).unwrap().contains("300 writes"));

        let mut out = Vec::new();
        stats(&StatsArgs { trace_path: path_str.clone() }, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("writes\t300"));

        // And a run over the saved trace.
        let args = RunArgs {
            trace_path: Some(path_str),
            gen: small_gen(),
            scheme: Some(SchemeConfig::new(SchemeKind::EncryptedDcw)),
            telemetry: None,
            sample_every: 64,
            faults: FaultArgs::default(),
            ..RunArgs::default()
        };
        let mut out = Vec::new();
        run(&args, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let rate: f64 = text
            .lines()
            .find_map(|l| l.strip_prefix("flip_rate\t"))
            .expect("flip_rate row")
            .trim_end_matches('%')
            .parse()
            .expect("percentage");
        assert!((rate - 50.0).abs() < 1.5, "encrypted DCW flip rate {rate}%");

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn run_with_telemetry_then_report_round_trips() {
        let dir = std::env::temp_dir().join("deuce-cli-telemetry-test");
        std::fs::create_dir_all(&dir).unwrap();
        let jsonl = dir.join("run.jsonl");
        let jsonl_str = jsonl.to_str().unwrap().to_string();

        let args = RunArgs {
            trace_path: None,
            gen: small_gen(),
            scheme: Some(SchemeConfig::new(SchemeKind::Deuce)),
            telemetry: Some(jsonl_str.clone()),
            sample_every: 32,
            faults: FaultArgs::default(),
            ..RunArgs::default()
        };
        let mut run_out = Vec::new();
        run(&args, &mut run_out).unwrap();
        let run_text = String::from_utf8(run_out).unwrap();
        assert!(run_text.contains("telemetry\t"), "{run_text}");

        // The CSV sibling lands next to the JSONL file.
        assert!(dir.join("run.csv").exists());
        let csv = std::fs::read_to_string(dir.join("run.csv")).unwrap();
        assert!(csv.starts_with("run,metric,value\n"));
        assert!(csv.contains("DEUCE,writes,"));

        let mut report_out = Vec::new();
        report(&ReportArgs { telemetry_path: jsonl_str }, &mut report_out).unwrap();
        let text = String::from_utf8(report_out).unwrap();
        assert!(text.contains("== run DEUCE"), "{text}");
        assert!(text.contains("counters:"));
        assert!(text.contains("flips/write histogram:"));
        assert!(text.contains("time series (one row per 32 writes"));
        assert!(text.contains("== profiling"));
        // The report's summary block equals the run's (both go through
        // RunSummary, reconstructed from telemetry on the report side).
        for key in ["flips_per_write\t", "flip_rate\t", "slots_per_write\t", "exec_time_us\t"] {
            let row = |t: &str| {
                t.lines().find(|l| l.starts_with(key)).map(str::to_string).expect(key)
            };
            assert_eq!(row(&text), row(&run_text), "{key}");
        }

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn faulty_run_reports_degradation_and_round_trips_through_report() {
        let dir = std::env::temp_dir().join("deuce-cli-faults-test");
        std::fs::create_dir_all(&dir).unwrap();
        let jsonl = dir.join("faults.jsonl");
        let jsonl_str = jsonl.to_str().unwrap().to_string();

        // ~2-write cell endurance over a small hot footprint: plenty of
        // deaths, retirements, and (with ECP-1, one spare) an
        // uncorrectable within 300 writes.
        let faults = FaultArgs {
            enabled: true,
            endurance_scale: 2e-8,
            ecp_entries: 1,
            spare_lines: 1,
        };
        let args = RunArgs {
            trace_path: None,
            gen: small_gen(),
            scheme: Some(SchemeConfig::new(SchemeKind::EncryptedDcw)),
            telemetry: Some(jsonl_str.clone()),
            sample_every: 64,
            faults,
            ..RunArgs::default()
        };
        let mut out = Vec::new();
        run(&args, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("fault_cell_deaths\t"), "{text}");
        let deaths: u64 = text
            .lines()
            .find_map(|l| l.strip_prefix("fault_cell_deaths\t"))
            .unwrap()
            .parse()
            .unwrap();
        assert!(deaths > 0, "accelerated wear must kill cells:\n{text}");
        assert!(text.contains("fault_first_uncorrectable_write\t"));

        let mut report_out = Vec::new();
        report(&ReportArgs { telemetry_path: jsonl_str }, &mut report_out).unwrap();
        let report_text = String::from_utf8(report_out).unwrap();
        assert!(report_text.contains("fault_cell_deaths"), "{report_text}");
        assert!(report_text.contains("ECP entries used per line histogram:"));
        assert!(report_text.contains("line retirements"));
        assert!(report_text.contains("first uncorrectable write:"));

        // Fault columns appear in the compare table only with --faults.
        let mut compare_args = args.clone();
        compare_args.telemetry = None;
        let mut out = Vec::new();
        compare(&compare_args, &mut out).unwrap();
        let table = String::from_utf8(out).unwrap();
        assert!(table.starts_with("scheme\t"), "{table}");
        assert!(table.lines().next().unwrap().ends_with("first_ue\tlines_retired"));

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fault_free_run_output_is_unchanged() {
        let args = RunArgs {
            trace_path: None,
            gen: small_gen(),
            scheme: Some(SchemeConfig::new(SchemeKind::Deuce)),
            telemetry: None,
            sample_every: 64,
            faults: FaultArgs::default(),
            ..RunArgs::default()
        };
        let mut out = Vec::new();
        run(&args, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(!text.contains("fault_"), "faults off must not print fault rows:\n{text}");
    }

    #[test]
    fn paged_run_reports_residency_and_stays_bit_identical() {
        let dir = std::env::temp_dir().join("deuce-cli-store-test");
        std::fs::create_dir_all(&dir).unwrap();
        let pages = dir.join("lines.pages").to_str().unwrap().to_string();
        let jsonl = dir.join("paged.jsonl").to_str().unwrap().to_string();

        let plain_args = RunArgs {
            gen: small_gen(),
            scheme: Some(SchemeConfig::new(SchemeKind::Deuce)),
            ..RunArgs::default()
        };
        let mut plain_out = Vec::new();
        run(&plain_args, &mut plain_out).unwrap();
        let plain_text = String::from_utf8(plain_out).unwrap();
        assert!(!plain_text.contains("store_page"), "arena run must not print store rows");

        // One resident page over a 32-line footprint: constant paging.
        let mut paged_args = plain_args.clone();
        paged_args.store_file = Some(pages);
        paged_args.resident_pages = Some(1);
        paged_args.telemetry = Some(jsonl.clone());
        let mut paged_out = Vec::new();
        run(&paged_args, &mut paged_out).unwrap();
        let paged_text = String::from_utf8(paged_out).unwrap();
        assert!(paged_text.contains("store_page_faults\t"), "{paged_text}");
        assert!(paged_text.contains("store_peak_resident_bytes\t"));
        // Every simulated metric row agrees with the in-RAM run —
        // byte-for-byte once the store_* block is stripped.
        let stripped: String = paged_text
            .lines()
            .filter(|l| !l.starts_with("store_") && !l.starts_with("telemetry\t"))
            .map(|l| format!("{l}\n"))
            .collect();
        assert_eq!(stripped, plain_text, "paged run must be bit-identical");

        // Telemetry export carries the gated counters, and the report
        // renders them as a dedicated store section.
        let exported = std::fs::read_to_string(&jsonl).unwrap();
        assert!(exported.contains("\"name\":\"store_page_faults\""), "{exported}");
        let mut report_out = Vec::new();
        report(&ReportArgs { telemetry_path: jsonl }, &mut report_out).unwrap();
        let report_text = String::from_utf8(report_out).unwrap();
        assert!(report_text.contains("store (page-file backend):"), "{report_text}");
        assert!(report_text.contains("store_page_evictions"));

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn paged_sweep_derives_per_cell_page_files() {
        let dir = std::env::temp_dir().join("deuce-cli-store-sweep");
        std::fs::create_dir_all(&dir).unwrap();
        let pages = dir.join("sweep.pages").to_str().unwrap().to_string();

        let base = RunArgs { gen: small_gen(), ..RunArgs::default() };
        let mut arena_out = Vec::new();
        sweep(&base, &mut arena_out).unwrap();

        let paged_args = RunArgs {
            store_file: Some(pages.clone()),
            resident_pages: Some(1),
            ..base
        };
        let mut paged_out = Vec::new();
        sweep(&paged_args, &mut paged_out).unwrap();
        // The table itself never changes — paging is invisible to every
        // simulated metric.
        assert_eq!(
            String::from_utf8(paged_out).unwrap(),
            String::from_utf8(arena_out).unwrap(),
        );
        // Each parallel cell wrote its own derived page file.
        assert!(std::path::Path::new(&format!("{pages}.w1e8")).exists());
        assert!(std::path::Path::new(&format!("{pages}.w8e64")).exists());

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unwritable_store_file_is_a_clean_cli_error() {
        let args = RunArgs {
            gen: small_gen(),
            scheme: Some(SchemeConfig::new(SchemeKind::Deuce)),
            store_file: Some("/nonexistent-dir/definitely/lines.pages".into()),
            ..RunArgs::default()
        };
        let err = run(&args, &mut Vec::new()).unwrap_err();
        assert!(matches!(err, CliError::Store(_)), "{err:?}");
    }

    #[test]
    fn report_rejects_empty_and_malformed_files() {
        let dir = std::env::temp_dir().join("deuce-cli-report-errors");
        std::fs::create_dir_all(&dir).unwrap();
        let empty = dir.join("empty.jsonl");
        std::fs::write(&empty, "").unwrap();
        let err = report(
            &ReportArgs { telemetry_path: empty.to_str().unwrap().into() },
            &mut Vec::new(),
        )
        .unwrap_err();
        assert!(matches!(err, CliError::Telemetry(_)));
        let broken = dir.join("broken.jsonl");
        std::fs::write(&broken, "{not json").unwrap();
        let err = report(
            &ReportArgs { telemetry_path: broken.to_str().unwrap().into() },
            &mut Vec::new(),
        )
        .unwrap_err();
        assert!(matches!(err, CliError::Telemetry(_)), "{err:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_file_is_reported() {
        let err = stats(
            &StatsArgs { trace_path: "/nonexistent/definitely.trace".into() },
            &mut Vec::new(),
        )
        .unwrap_err();
        // open_source surfaces the failed open as a trace I/O error.
        assert!(matches!(err, CliError::Trace(_)), "{err:?}");
    }

    #[test]
    fn saved_and_generated_runs_are_byte_identical() {
        let dir = std::env::temp_dir().join("deuce-cli-source-parity");
        std::fs::create_dir_all(&dir).unwrap();
        let trace_path = dir.join("t.trace").to_str().unwrap().to_string();
        gen(&GenArgs { output: Some(trace_path.clone()), ..small_gen() }, &mut Vec::new()).unwrap();

        // With --faults, both sources also feed the line-count pre-pass.
        for faults in [FaultArgs::default(), FaultArgs { enabled: true, ..FaultArgs::default() }] {
            let generated = RunArgs {
                gen: small_gen(),
                scheme: Some(SchemeConfig::new(SchemeKind::Deuce)),
                faults,
                ..RunArgs::default()
            };
            let saved = RunArgs { trace_path: Some(trace_path.clone()), ..generated.clone() };
            let [from_generator, from_file] = [generated, saved].map(|args| {
                let mut out = Vec::new();
                run(&args, &mut out).unwrap();
                String::from_utf8(out).unwrap()
            });
            assert_eq!(from_file, from_generator, "faults={}", faults.enabled);
        }

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn gen_jsonl_round_trips_through_stats_and_run() {
        let dir = std::env::temp_dir().join("deuce-cli-jsonl-gen");
        std::fs::create_dir_all(&dir).unwrap();
        let bin_path = dir.join("t.trace").to_str().unwrap().to_string();
        let jsonl_path = dir.join("t.jsonl").to_str().unwrap().to_string();

        for (path, format) in
            [(&bin_path, TraceFormat::Binary), (&jsonl_path, TraceFormat::Jsonl)]
        {
            let gen_args =
                GenArgs { output: Some(path.clone()), format, ..small_gen() };
            let mut out = Vec::new();
            gen(&gen_args, &mut out).unwrap();
            assert!(String::from_utf8(out).unwrap().contains("300 writes"));
        }

        // Both formats describe the same workload and simulate the same.
        let outputs: Vec<String> = [&bin_path, &jsonl_path]
            .into_iter()
            .map(|path| {
                let mut stat_out = Vec::new();
                stats(&StatsArgs { trace_path: path.clone() }, &mut stat_out).unwrap();
                let args = RunArgs {
                    trace_path: Some(path.clone()),
                    scheme: Some(SchemeConfig::new(SchemeKind::Deuce)),
                    ..RunArgs::default()
                };
                let mut run_out = Vec::new();
                run(&args, &mut run_out).unwrap();
                String::from_utf8(stat_out).unwrap() + &String::from_utf8(run_out).unwrap()
            })
            .collect();
        assert_eq!(outputs[0], outputs[1], "binary and JSONL dialects agree");

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpointed_stream_resumes_and_detects_divergence() {
        let dir = std::env::temp_dir().join("deuce-cli-checkpoint");
        std::fs::create_dir_all(&dir).unwrap();
        let cp_path = dir.join("run.cp.jsonl").to_str().unwrap().to_string();

        let emit_args = RunArgs {
            gen: small_gen(),
            scheme: Some(SchemeConfig::new(SchemeKind::Deuce)),
            checkpoint: Some(cp_path.clone()),
            checkpoint_every: 100,
            ..RunArgs::default()
        };
        let mut emit_out = Vec::new();
        run(&emit_args, &mut emit_out).unwrap();
        let emit_text = String::from_utf8(emit_out).unwrap();
        assert!(emit_text.contains("checkpoint\t"), "{emit_text}");
        let lines = std::fs::read_to_string(&cp_path).unwrap().lines().count();
        assert!(lines >= 3, "300 writes / every 100 -> periodic + final checkpoints");

        // Same stream replays clean against the recorded fingerprint.
        let resume_args = RunArgs {
            checkpoint: None,
            from_checkpoint: Some(cp_path.clone()),
            ..emit_args.clone()
        };
        let mut resume_out = Vec::new();
        run(&resume_args, &mut resume_out).unwrap();
        assert!(String::from_utf8(resume_out).unwrap().contains("resume_verified\t"));

        // A different workload (changed seed) is detected, not absorbed.
        let mut diverged = resume_args;
        diverged.gen.seed += 1;
        let err = run(&diverged, &mut Vec::new()).unwrap_err();
        assert!(matches!(err, CliError::Checkpoint(_)), "{err:?}");

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn trace_out_writes_chrome_spans_and_report_renders_the_table() {
        let dir = std::env::temp_dir().join("deuce-cli-trace-out");
        std::fs::create_dir_all(&dir).unwrap();
        let chrome_path = dir.join("spans.json").to_str().unwrap().to_string();
        let jsonl_path = dir.join("run.jsonl").to_str().unwrap().to_string();

        let args = RunArgs {
            gen: small_gen(),
            scheme: Some(SchemeConfig::new(SchemeKind::Deuce)),
            telemetry: Some(jsonl_path.clone()),
            trace_out: Some(chrome_path.clone()),
            ..RunArgs::default()
        };
        let mut out = Vec::new();
        run(&args, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains(&format!("trace\t{chrome_path}")), "{text}");

        let chrome = std::fs::read_to_string(&chrome_path).unwrap();
        assert!(chrome.contains("\"traceEvents\""), "{chrome}");
        assert!(chrome.contains("\"name\":\"run\""));
        assert!(chrome.contains("stage:scheme"));
        assert!(chrome.contains("pad_generation"), "pad timing rides --trace-out");

        // The span records ride the telemetry export and render as the
        // report's top-N self-time table, after the diffable zone.
        let mut report_out = Vec::new();
        report(&ReportArgs { telemetry_path: jsonl_path }, &mut report_out).unwrap();
        let report_text = String::from_utf8(report_out).unwrap();
        let spans_at = report_text
            .find("== spans (wall-clock; nondeterministic)")
            .expect("span table rendered");
        assert!(report_text.find("== profiling").unwrap() < spans_at);
        assert!(report_text.contains("run\tname\tparent\tcount\ttotal_ns\tself_ns"));

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn flight_recorder_dumps_on_uncorrectable_and_stays_quiet_otherwise() {
        let dir = std::env::temp_dir().join("deuce-cli-flight");
        std::fs::create_dir_all(&dir).unwrap();
        let jsonl_path = dir.join("faults.jsonl").to_str().unwrap().to_string();
        let dump_path = format!("{jsonl_path}.flight.jsonl");

        // Same forced-UE setup as the fault round-trip test.
        let faults = FaultArgs {
            enabled: true,
            endurance_scale: 2e-8,
            ecp_entries: 1,
            spare_lines: 1,
        };
        let args = RunArgs {
            gen: small_gen(),
            scheme: Some(SchemeConfig::new(SchemeKind::EncryptedDcw)),
            telemetry: Some(jsonl_path.clone()),
            flight_recorder: Some(8),
            faults,
            ..RunArgs::default()
        };
        let mut out = Vec::new();
        run(&args, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains(&format!("flight\t{dump_path}")), "{text}");
        let dump = std::fs::read_to_string(&dump_path).unwrap();
        assert!(dump.starts_with("{\"type\":\"flight_header\""), "{dump}");
        assert_eq!(dump.lines().count(), 1 + 8, "header + full ring");
        assert!(dump.contains("\"action\":\"write\""));

        // A healthy run keeps the ring in memory and writes no dump.
        std::fs::remove_file(&dump_path).unwrap();
        let healthy = RunArgs {
            scheme: Some(SchemeConfig::new(SchemeKind::Deuce)),
            faults: FaultArgs::default(),
            ..args
        };
        let mut out = Vec::new();
        run(&healthy, &mut out).unwrap();
        assert!(!String::from_utf8(out).unwrap().contains("flight\t"));
        assert!(!std::path::Path::new(&dump_path).exists());

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn report_warns_once_per_unknown_record_kind() {
        let dir = std::env::temp_dir().join("deuce-cli-unknown-kinds");
        std::fs::create_dir_all(&dir).unwrap();
        let jsonl_path = dir.join("run.jsonl").to_str().unwrap().to_string();

        let args = RunArgs {
            gen: small_gen(),
            scheme: Some(SchemeConfig::new(SchemeKind::Deuce)),
            telemetry: Some(jsonl_path.clone()),
            ..RunArgs::default()
        };
        run(&args, &mut Vec::new()).unwrap();
        let mut before = Vec::new();
        report(&ReportArgs { telemetry_path: jsonl_path.clone() }, &mut before).unwrap();

        // A newer tool appended kinds this report doesn't know.
        let mut text = std::fs::read_to_string(&jsonl_path).unwrap();
        text.push_str("{\"type\":\"wormhole\",\"run\":\"DEUCE\",\"value\":1}\n");
        text.push_str("{\"type\":\"wormhole\",\"run\":\"DEUCE\",\"value\":2}\n");
        text.push_str("{\"type\":\"gizmo\",\"run\":\"DEUCE\"}\n");
        std::fs::write(&jsonl_path, text).unwrap();

        let mut after = Vec::new();
        report(&ReportArgs { telemetry_path: jsonl_path }, &mut after).unwrap();
        let after = String::from_utf8(after).unwrap();
        let warnings: Vec<&str> =
            after.lines().filter(|l| l.starts_with("warning: unknown record kind")).collect();
        assert_eq!(
            warnings,
            [
                "warning: unknown record kind \"wormhole\" (2 lines) skipped",
                "warning: unknown record kind \"gizmo\" (1 line) skipped",
            ],
        );
        // Everything understood still renders exactly as before.
        let body: String = after
            .lines()
            .filter(|l| !l.starts_with("warning: "))
            .map(|l| format!("{l}\n"))
            .collect();
        assert_eq!(body, String::from_utf8(before).unwrap());

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpoint_files_lead_with_the_run_total() {
        let dir = std::env::temp_dir().join("deuce-cli-run-total");
        std::fs::create_dir_all(&dir).unwrap();
        let trace_path = dir.join("t.trace").to_str().unwrap().to_string();
        let cp_path = dir.join("run.cp.jsonl").to_str().unwrap().to_string();

        let gen_args = GenArgs { output: Some(trace_path.clone()), ..small_gen() };
        gen(&gen_args, &mut Vec::new()).unwrap();

        // Saved traces know their length, so the checkpoint stream
        // leads with a run_total line for `deuce watch` ETAs.
        let args = RunArgs {
            trace_path: Some(trace_path),
            scheme: Some(SchemeConfig::new(SchemeKind::Deuce)),
            checkpoint: Some(cp_path.clone()),
            checkpoint_every: 100,
            ..RunArgs::default()
        };
        run(&args, &mut Vec::new()).unwrap();
        let text = std::fs::read_to_string(&cp_path).unwrap();
        assert!(
            text.starts_with("{\"type\":\"run_total\",\"events\":"),
            "{text}"
        );

        // And resume still reads past it to the real checkpoints.
        let resume = RunArgs {
            checkpoint: None,
            from_checkpoint: Some(cp_path),
            ..args
        };
        let mut out = Vec::new();
        run(&resume, &mut out).unwrap();
        assert!(String::from_utf8(out).unwrap().contains("resume_verified\t"));

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sharded_sweep_merges_byte_identical_to_unsharded() {
        let dir = std::env::temp_dir().join("deuce-cli-shard-sweep");
        std::fs::create_dir_all(&dir).unwrap();

        let base = RunArgs { gen: small_gen(), ..RunArgs::default() };
        let mut unsharded = Vec::new();
        sweep(&base, &mut unsharded).unwrap();
        let unsharded = String::from_utf8(unsharded).unwrap();

        let mut manifest_paths = Vec::new();
        for spec in ["0/2", "1/2"] {
            let shard = ShardSpec::parse(spec).unwrap();
            let path = dir.join(format!("shard{}.jsonl", shard.index));
            let path_str = path.to_str().unwrap().to_string();
            let args = RunArgs {
                shard: Some(shard),
                manifest: Some(path_str.clone()),
                ..base.clone()
            };
            let mut out = Vec::new();
            sweep(&args, &mut out).unwrap();
            let text = String::from_utf8(out).unwrap();
            assert!(text.contains("cells_owned\t8"), "{text}");
            assert!(text.contains("cells_run\t8"), "{text}");
            manifest_paths.push(path_str);
        }
        let mut merged = Vec::new();
        merge(&MergeArgs { manifests: manifest_paths.clone() }, &mut merged).unwrap();
        assert_eq!(String::from_utf8(merged).unwrap(), unsharded, "shard + merge == unsharded");

        // One shard alone does not cover the grid.
        let err = merge(&MergeArgs { manifests: manifest_paths[..1].to_vec() }, &mut Vec::new())
            .unwrap_err();
        assert!(matches!(err, CliError::Manifest(_)), "{err:?}");

        // Resume: drop one shard's manifest to a prefix, then re-run
        // with --resume; only the lost cells re-run and the merge still
        // matches.
        let kept: String = {
            let text = std::fs::read_to_string(&manifest_paths[1]).unwrap();
            text.lines().take(4).map(|l| format!("{l}\n")).collect()
        };
        std::fs::write(&manifest_paths[1], kept).unwrap();
        let args = RunArgs {
            shard: Some(ShardSpec::parse("1/2").unwrap()),
            manifest: Some(manifest_paths[1].clone()),
            resume: true,
            ..base.clone()
        };
        let mut out = Vec::new();
        sweep(&args, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("cells_skipped\t3"), "{text}");
        assert!(text.contains("cells_run\t5"), "{text}");
        let mut merged = Vec::new();
        merge(&MergeArgs { manifests: manifest_paths }, &mut merged).unwrap();
        assert_eq!(String::from_utf8(merged).unwrap(), unsharded, "resumed shard still merges");

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resume_rejects_a_manifest_from_different_args() {
        let dir = std::env::temp_dir().join("deuce-cli-manifest-mismatch");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("m.jsonl").to_str().unwrap().to_string();

        let args = RunArgs {
            gen: small_gen(),
            manifest: Some(path.clone()),
            ..RunArgs::default()
        };
        sweep(&args, &mut Vec::new()).unwrap();

        let mut other = args;
        other.gen.seed += 1;
        other.resume = true;
        let err = sweep(&other, &mut Vec::new()).unwrap_err();
        assert!(matches!(err, CliError::Manifest(_)), "{err:?}");

        std::fs::remove_dir_all(&dir).ok();
    }
}
