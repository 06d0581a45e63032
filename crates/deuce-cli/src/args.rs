//! Command-line parsing (hand-rolled; the workspace stays
//! dependency-light).

use deuce_crypto::EpochInterval;
use deuce_schemes::{SchemeConfig, SchemeKind, WordSize};
use deuce_sim::{ManifestError, RunError, ShardSpec};
use deuce_trace::Benchmark;

/// Usage text for `deuce help`.
pub const USAGE: &str = "\
deuce — write-efficient encryption simulator for non-volatile memories

USAGE:
  deuce gen     --benchmark <name> [--writes N] [--lines N] [--cores N]
                [--seed N] [--format bin|jsonl] -o <file>
  deuce stats   <trace-file>
  deuce run     (--trace <file> | --benchmark <name>) --scheme <scheme>
                [--epoch N] [--word-bytes N] [--writes N] [--lines N]
                [--cores N] [--seed N] [--telemetry <file>] [fault flags]
                [--stream] [--checkpoint <file>]
                [--checkpoint-every N] [--from-checkpoint <file>]
                [--trace-out <file>] [--flight-recorder N]
                [--store-file <path> [--resident-pages N]]
  deuce compare (--trace <file> | --benchmark <name>) [generation flags]
                [--telemetry <file>] [fault flags]
  deuce sweep   (--trace <file> | --benchmark <name>) [generation flags]
                [--telemetry <file>] [fault flags]
                [--manifest <file> [--shard i/n] [--resume]]
                [--store-file <path> [--resident-pages N]]
  deuce merge   <manifest-file>...
  deuce report  <telemetry-file>
  deuce watch   <checkpoint-or-manifest-file>... [--once] [--interval-ms N]
  deuce serve   [--tenants N] [--shards N] [--requests N] [--queue-depth N]
                [--batch N] [--scheme <scheme>] [--epoch N] [--word-bytes N]
                [--benchmark <name>] [--lines N] [--seed N]
                [--telemetry <file>] [--progress <file>]
                [--flight-recorder N] [--store-dir <dir> [--resident-pages N]]
                [--replay]
  deuce aes-backend
  deuce help

STREAMING:
  gen writes the trace directly from the generator, so any --writes
  count runs in bounded memory; --format jsonl emits a line-oriented
  text dialect instead of the binary container (both stream, both are
  accepted everywhere a trace file is). run --stream drives the
  simulation from the trace source one event at a time — bit-identical
  to the materialised run at O(1) trace memory. --checkpoint <file>
  appends a progress fingerprint every --checkpoint-every writes
  (default 1000000); --from-checkpoint <file> replays the stream and
  verifies the run still matches the recorded fingerprint (a changed
  trace, config, or binary is detected, not silently absorbed).

SHARDING:
  sweep --manifest <file> records each finished grid cell as one
  flushed JSONL line; --shard i/n runs only cells with index ≡ i mod n,
  so one grid splits across processes. --resume skips cells already in
  the manifest (a killed shard re-runs only what it lost). merge checks
  the shard manifests cover the whole grid and prints the combined
  table, byte-identical to an unsharded sweep.

TELEMETRY:
  --telemetry <file> streams structured instrumentation (counters,
  histograms, a time series keyed on simulated time) to <file> as JSONL
  plus a CSV summary next to it; [--sample-every N] sets the
  time-series window (default 64 writes). `deuce report <file>` renders
  the collected telemetry as text tables.

OBSERVABILITY:
  run --trace-out <file> writes a Chrome trace-event JSON of the run's
  hierarchical spans (run -> pipeline stages -> pad generation / ECP
  repair), loadable in Perfetto or chrome://tracing; the same spans
  land as `span` records in the telemetry JSONL and as a self-time
  table in `deuce report`. run --flight-recorder N keeps a ring of the
  last N write events and dumps it to <out>.flight.jsonl when the run
  fails or goes uncorrectable. `deuce watch <file>...` tails run
  checkpoint files and sweep manifests, showing per-source progress,
  throughput, and ETA; --once prints a single snapshot and exits,
  --interval-ms sets the poll period (default 2000).

SERVING:
  serve stands up a sharded multi-tenant encrypted-memory service:
  --tenants isolated key domains (per-tenant key seed, line store, and
  counter cache), --shards worker threads each draining a bounded queue
  of --queue-depth requests. Each tenant's request stream is generated
  from --benchmark (--requests per tenant, submitted in --batch-sized
  chunks) and a full batch is rejected — never partially applied — when
  a shard queue is full. Per-tenant results are bit-identical to a
  single-threaded replay of the same stream: `deuce serve --replay`
  prints exactly the per-tenant summary blocks the service prints,
  whatever the shard count. --progress <file> appends serve_progress
  JSONL lines `deuce watch` can tail; --store-dir backs each tenant's
  line store with its own page file under <dir>. Wall-clock service
  statistics go to stderr so stdout stays diffable.

FAULTS:
  --faults injects online stuck-at cell faults: each cell dies once its
  sampled endurance is exhausted, ECP entries absorb the first deaths
  per line, exhausted lines retire to a spare pool, and an exhausted
  pool makes further deaths uncorrectable (device end of life).
  [--endurance-scale X] scales the sampled per-cell endurance (default
  1e-6: paper-model 1e8 becomes ~100 writes, for accelerated-wear
  studies); [--ecp-entries N] sets the per-line ECP budget (default 6);
  [--spare-lines N] sizes the retirement pool (default 8). These three
  flags require --faults.

AES DISPATCH:
  Pad generation resolves one cipher tier at engine construction:
  hardware AES (AES-NI / NEON) when the host has it, the portable
  T-table path otherwise, with the FIPS-197 byte-oriented reference as
  the correctness oracle. All tiers are bit-identical; the chosen tier
  appears as an aes_backend row in run and compare output and as a
  gated telemetry record. DEUCE_AES_FORCE=reference|ttable|hw pins a
  tier (hw errors where unavailable). `deuce aes-backend` prints the
  detected tier and every tier available on this host.

OUT-OF-CORE STORE:
  --store-file <path> backs the line store with a page file instead of
  RAM: lines live in 64-slot pages, at most --resident-pages of which
  (default 1024) stay resident in an LRU cache; dirty pages write back
  on eviction. Address spaces far larger than RAM run in a fixed
  residency budget, bit-identical to the in-RAM run — the summary (and
  telemetry) gains store_page_faults / store_page_evictions /
  store_pages_flushed / store_resident_bytes rows. With sweep, each
  grid cell gets its own derived page file next to <path>.

SCHEMES:
  nodcw nofnw encdcw encfnw ble deuce dyndeuce deucefnw bledeuce addrpad

BENCHMARKS:
  libq mcf lbm Gems milc omnetpp leslie3d soplex zeusmp wrf xalanc astar";

/// CLI failure modes.
#[derive(Debug)]
pub enum CliError {
    /// Argument parsing failed.
    Usage(String),
    /// Reading or writing a trace failed.
    Trace(deuce_trace::TraceIoError),
    /// A telemetry file could not be interpreted.
    Telemetry(String),
    /// A checkpoint replay diverged from the recorded run.
    Checkpoint(String),
    /// A sweep manifest could not be read, resumed, or merged.
    Manifest(ManifestError),
    /// The out-of-core line-store backend failed on page-file I/O.
    Store(String),
    /// Terminal or file output failed.
    Io(std::io::Error),
}

impl core::fmt::Display for CliError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            CliError::Usage(msg) => write!(f, "{msg}\n\n{USAGE}"),
            CliError::Trace(e) => write!(f, "{e}"),
            CliError::Telemetry(msg) => write!(f, "{msg}"),
            CliError::Checkpoint(msg) => write!(f, "{msg}"),
            CliError::Manifest(e) => write!(f, "{e}"),
            CliError::Store(msg) => write!(f, "{msg}"),
            CliError::Io(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CliError {}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError::Io(e)
    }
}

impl From<deuce_trace::TraceIoError> for CliError {
    fn from(e: deuce_trace::TraceIoError) -> Self {
        CliError::Trace(e)
    }
}

impl From<RunError> for CliError {
    fn from(e: RunError) -> Self {
        match e {
            RunError::Trace(t) => CliError::Trace(t),
            mismatch @ RunError::CheckpointMismatch { .. } => {
                CliError::Checkpoint(mismatch.to_string())
            }
            store @ RunError::Store(_) => CliError::Store(store.to_string()),
            config @ RunError::Config(_) => CliError::Usage(config.to_string()),
            // `--faults` sizes wear tracking from the stream's distinct
            // lines, so this takes a stream that differs between passes.
            capacity @ RunError::WearCapacity { .. } => CliError::Trace(
                deuce_trace::TraceIoError::BadRecord(capacity.to_string()),
            ),
        }
    }
}

impl From<ManifestError> for CliError {
    fn from(e: ManifestError) -> Self {
        CliError::Manifest(e)
    }
}

/// On-disk trace format for `gen -o` (`--format`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TraceFormat {
    /// The binary `DEUCETRC` container (compact, seekable).
    #[default]
    Binary,
    /// The JSONL text dialect (greppable, concatenation-friendly).
    Jsonl,
}

/// Workload-generation arguments shared by `gen`, `run`, and `compare`.
#[derive(Debug, Clone)]
pub struct GenArgs {
    /// Benchmark profile to generate.
    pub benchmark: Benchmark,
    /// Total writebacks.
    pub writes: usize,
    /// Working-set lines per core.
    pub lines: usize,
    /// Cores in rate mode.
    pub cores: u8,
    /// RNG seed.
    pub seed: u64,
    /// Output path (for `gen`).
    pub output: Option<String>,
    /// Output format (for `gen`).
    pub format: TraceFormat,
}

impl Default for GenArgs {
    fn default() -> Self {
        Self {
            benchmark: Benchmark::Libquantum,
            writes: 20_000,
            lines: 256,
            cores: 1,
            seed: 42,
            output: None,
            format: TraceFormat::Binary,
        }
    }
}

/// Fault-injection arguments shared by `run`, `compare`, and `sweep`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultArgs {
    /// Inject stuck-at faults (`--faults`).
    pub enabled: bool,
    /// Endurance scale-down for accelerated wear (`--endurance-scale`).
    pub endurance_scale: f64,
    /// ECP correction entries per line (`--ecp-entries`).
    pub ecp_entries: u8,
    /// Spare lines for retirement (`--spare-lines`).
    pub spare_lines: u32,
}

impl Default for FaultArgs {
    fn default() -> Self {
        Self {
            enabled: false,
            endurance_scale: 1e-6,
            ecp_entries: 6,
            spare_lines: 8,
        }
    }
}

/// `deuce stats` arguments.
#[derive(Debug, Clone)]
pub struct StatsArgs {
    /// Trace file to summarize.
    pub trace_path: String,
}

/// `deuce run` / `deuce compare` arguments.
#[derive(Debug, Clone)]
pub struct RunArgs {
    /// Load a saved trace instead of generating one.
    pub trace_path: Option<String>,
    /// Generation parameters (used when no trace file is given).
    pub gen: GenArgs,
    /// Scheme to simulate (`run` only; `compare` runs them all).
    pub scheme: Option<SchemeConfig>,
    /// Stream telemetry to this JSONL file (plus a CSV sibling).
    pub telemetry: Option<String>,
    /// Time-series window in counted writes.
    pub sample_every: u64,
    /// Online fault injection.
    pub faults: FaultArgs,
    /// Drive the run from a streaming source instead of materialising
    /// the trace (`--stream`, `run` only).
    pub stream: bool,
    /// Append periodic run checkpoints to this file (`--checkpoint`).
    pub checkpoint: Option<String>,
    /// Counted writes between checkpoints (`--checkpoint-every`).
    pub checkpoint_every: u64,
    /// Replay-verify the run against the last checkpoint in this file
    /// (`--from-checkpoint`).
    pub from_checkpoint: Option<String>,
    /// Which slice of the sweep grid this process owns (`--shard`);
    /// `None` = the whole grid.
    pub shard: Option<ShardSpec>,
    /// Record completed sweep cells in this manifest (`--manifest`).
    pub manifest: Option<String>,
    /// Skip cells already in the manifest (`--resume`).
    pub resume: bool,
    /// Write a Chrome trace-event JSON of the run's spans
    /// (`--trace-out`, `run` only).
    pub trace_out: Option<String>,
    /// Keep a ring of the last N write events, dumped on failure
    /// (`--flight-recorder`, `run` only).
    pub flight_recorder: Option<usize>,
    /// Back the line store with this page file instead of RAM
    /// (`--store-file`, `run` and `sweep`).
    pub store_file: Option<String>,
    /// Resident-page budget for the page-file store's LRU cache
    /// (`--resident-pages`); `None` = the default 1024.
    pub resident_pages: Option<usize>,
}

impl Default for RunArgs {
    fn default() -> Self {
        Self {
            trace_path: None,
            gen: GenArgs::default(),
            scheme: None,
            telemetry: None,
            sample_every: 64,
            faults: FaultArgs::default(),
            stream: false,
            checkpoint: None,
            checkpoint_every: 1_000_000,
            from_checkpoint: None,
            shard: None,
            manifest: None,
            resume: false,
            trace_out: None,
            flight_recorder: None,
            store_file: None,
            resident_pages: None,
        }
    }
}

/// `deuce merge` arguments.
#[derive(Debug, Clone)]
pub struct MergeArgs {
    /// Shard manifests to combine.
    pub manifests: Vec<String>,
}

/// `deuce report` arguments.
#[derive(Debug, Clone)]
pub struct ReportArgs {
    /// Telemetry JSONL file to render.
    pub telemetry_path: String,
}

/// `deuce watch` arguments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WatchArgs {
    /// Checkpoint JSONL files and sweep manifests to tail.
    pub paths: Vec<String>,
    /// Print one snapshot and exit (`--once`).
    pub once: bool,
    /// Poll period in milliseconds (`--interval-ms`).
    pub interval_ms: u64,
}

/// `deuce serve` arguments.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeArgs {
    /// Isolated tenant key domains (`--tenants`).
    pub tenants: usize,
    /// Worker shard threads (`--shards`).
    pub shards: usize,
    /// Requests per tenant (`--requests`).
    pub requests: usize,
    /// Per-shard queue capacity (`--queue-depth`).
    pub queue_depth: usize,
    /// Requests per submitted batch (`--batch`).
    pub batch: usize,
    /// Scheme every tenant simulates (`--scheme`, default deuce).
    pub scheme: SchemeConfig,
    /// Benchmark profile generating each tenant's request stream.
    pub benchmark: Benchmark,
    /// Working-set lines per tenant (`--lines`).
    pub lines: usize,
    /// Base RNG / key seed; tenant `i` uses `seed + i` (`--seed`).
    pub seed: u64,
    /// Write aggregate telemetry (counters, serve spans, per-tenant and
    /// per-shard records) to this JSONL file (`--telemetry`).
    pub telemetry: Option<String>,
    /// Append live `serve_progress` JSONL lines to this file for
    /// `deuce watch` (`--progress`).
    pub progress: Option<String>,
    /// Per-tenant flight ring of the last N applied writes, dumped on
    /// an uncorrectable write or a shard panic (`--flight-recorder`).
    pub flight_recorder: Option<usize>,
    /// Back each tenant's line store with a page file under this
    /// directory (`--store-dir`); `None` = in-RAM arenas.
    pub store_dir: Option<String>,
    /// Resident-page budget per tenant page file (`--resident-pages`).
    pub resident_pages: Option<usize>,
    /// Single-threaded replay: print the per-tenant summary blocks the
    /// service would print, without spinning up shards (`--replay`).
    pub replay: bool,
}

impl Default for ServeArgs {
    fn default() -> Self {
        Self {
            tenants: 2,
            shards: 2,
            requests: 10_000,
            queue_depth: 1024,
            batch: 32,
            scheme: SchemeConfig::new(SchemeKind::Deuce),
            benchmark: Benchmark::Libquantum,
            lines: 256,
            seed: 42,
            telemetry: None,
            progress: None,
            flight_recorder: None,
            store_dir: None,
            resident_pages: None,
            replay: false,
        }
    }
}

/// A parsed CLI invocation.
#[derive(Debug, Clone)]
pub enum Command {
    /// Generate a trace file.
    Gen(GenArgs),
    /// Summarize a trace file.
    Stats(StatsArgs),
    /// Simulate one scheme.
    Run(RunArgs),
    /// Simulate every scheme and tabulate.
    Compare(RunArgs),
    /// Sweep DEUCE's epoch interval and word size.
    Sweep(RunArgs),
    /// Combine shard manifests into the full sweep table.
    Merge(MergeArgs),
    /// Render a telemetry file as text tables.
    Report(ReportArgs),
    /// Live-monitor checkpoint files and sweep manifests.
    Watch(WatchArgs),
    /// Run the sharded multi-tenant encrypted-memory service.
    Serve(ServeArgs),
    /// Print the detected and available AES dispatch tiers.
    AesBackend,
    /// Print usage.
    Help,
}

fn parse_scheme_kind(name: &str) -> Result<SchemeKind, CliError> {
    Ok(match name.to_ascii_lowercase().as_str() {
        "nodcw" | "unencrypted-dcw" => SchemeKind::UnencryptedDcw,
        "nofnw" | "unencrypted-fnw" => SchemeKind::UnencryptedFnw,
        "encdcw" | "encrypted" | "encrypted-dcw" => SchemeKind::EncryptedDcw,
        "encfnw" | "encrypted-fnw" => SchemeKind::EncryptedFnw,
        "ble" => SchemeKind::Ble,
        "deuce" => SchemeKind::Deuce,
        "dyndeuce" => SchemeKind::DynDeuce,
        "deucefnw" | "deuce+fnw" => SchemeKind::DeuceFnw,
        "bledeuce" | "ble+deuce" => SchemeKind::BleDeuce,
        "addrpad" => SchemeKind::AddrPad,
        other => return Err(CliError::Usage(format!("unknown scheme {other:?}"))),
    })
}

impl Command {
    /// Parses an argument list (without the program name).
    ///
    /// # Errors
    ///
    /// Returns [`CliError::Usage`] on malformed input.
    pub fn parse<I: IntoIterator<Item = String>>(argv: I) -> Result<Self, CliError> {
        let mut args = argv.into_iter();
        let subcommand = match args.next() {
            None => return Ok(Command::Help),
            Some(s) => s,
        };

        if subcommand == "merge" {
            let manifests: Vec<String> = args.collect();
            if manifests.is_empty() {
                return Err(CliError::Usage("merge requires at least one manifest file".into()));
            }
            if let Some(flag) = manifests.iter().find(|m| m.starts_with('-')) {
                return Err(CliError::Usage(format!("merge takes no flags (got {flag:?})")));
            }
            return Ok(Command::Merge(MergeArgs { manifests }));
        }

        if subcommand == "watch" {
            let mut paths = Vec::new();
            let mut once = false;
            let mut interval_ms: u64 = 2000;
            let mut args = args;
            while let Some(arg) = args.next() {
                match arg.as_str() {
                    "--once" => once = true,
                    "--interval-ms" => {
                        let v = args.next().ok_or_else(|| {
                            CliError::Usage("flag --interval-ms requires a value".into())
                        })?;
                        interval_ms = parse_number(&v, "--interval-ms")?;
                        if interval_ms == 0 {
                            return Err(CliError::Usage(
                                "--interval-ms must be at least 1".into(),
                            ));
                        }
                    }
                    flag if flag.starts_with('-') => {
                        return Err(CliError::Usage(format!("unknown flag {flag:?}")));
                    }
                    path => paths.push(path.to_string()),
                }
            }
            if paths.is_empty() {
                return Err(CliError::Usage(
                    "watch requires at least one checkpoint or manifest file".into(),
                ));
            }
            return Ok(Command::Watch(WatchArgs { paths, once, interval_ms }));
        }

        if subcommand == "serve" {
            return Self::parse_serve(args);
        }

        if subcommand == "aes-backend" {
            if let Some(extra) = args.next() {
                return Err(CliError::Usage(format!(
                    "aes-backend takes no arguments (got {extra:?})"
                )));
            }
            return Ok(Command::AesBackend);
        }

        let mut gen = GenArgs::default();
        let mut benchmark_given = false;
        let mut trace_path: Option<String> = None;
        let mut positional: Option<String> = None;
        let mut scheme_kind: Option<SchemeKind> = None;
        let mut epoch: Option<u64> = None;
        let mut word_bytes: Option<usize> = None;
        let mut telemetry: Option<String> = None;
        let mut sample_every: u64 = 64;
        let mut faults = FaultArgs::default();
        let mut fault_tuning: Option<&'static str> = None;
        let mut stream = false;
        let mut checkpoint: Option<String> = None;
        let mut checkpoint_every: u64 = 1_000_000;
        let mut from_checkpoint: Option<String> = None;
        let mut shard: Option<ShardSpec> = None;
        let mut manifest: Option<String> = None;
        let mut resume = false;
        let mut trace_out: Option<String> = None;
        let mut flight_recorder: Option<usize> = None;
        let mut store_file: Option<String> = None;
        let mut resident_pages: Option<usize> = None;

        while let Some(flag) = args.next() {
            let mut value = |flag: &str| {
                args.next()
                    .ok_or_else(|| CliError::Usage(format!("flag {flag} requires a value")))
            };
            match flag.as_str() {
                "--benchmark" => {
                    let name = value("--benchmark")?;
                    gen.benchmark = Benchmark::from_name(&name)
                        .map_err(|e| CliError::Usage(e.to_string()))?;
                    benchmark_given = true;
                }
                "--writes" => gen.writes = parse_number(&value("--writes")?, "--writes")?,
                "--lines" => gen.lines = parse_count(&value("--lines")?, "--lines")?,
                "--cores" => gen.cores = parse_count(&value("--cores")?, "--cores")?,
                "--seed" => gen.seed = parse_number(&value("--seed")?, "--seed")?,
                "-o" | "--output" => gen.output = Some(value("-o")?),
                "--trace" => trace_path = Some(value("--trace")?),
                "--scheme" => scheme_kind = Some(parse_scheme_kind(&value("--scheme")?)?),
                "--epoch" => epoch = Some(parse_number(&value("--epoch")?, "--epoch")?),
                "--word-bytes" => {
                    word_bytes = Some(parse_number(&value("--word-bytes")?, "--word-bytes")?);
                }
                "--telemetry" => telemetry = Some(value("--telemetry")?),
                "--faults" => faults.enabled = true,
                "--endurance-scale" => {
                    faults.endurance_scale =
                        parse_number(&value("--endurance-scale")?, "--endurance-scale")?;
                    if !(faults.endurance_scale.is_finite() && faults.endurance_scale > 0.0) {
                        return Err(CliError::Usage(
                            "--endurance-scale must be a positive number".into(),
                        ));
                    }
                    fault_tuning = Some("--endurance-scale");
                }
                "--ecp-entries" => {
                    faults.ecp_entries = parse_number(&value("--ecp-entries")?, "--ecp-entries")?;
                    fault_tuning = Some("--ecp-entries");
                }
                "--spare-lines" => {
                    faults.spare_lines = parse_number(&value("--spare-lines")?, "--spare-lines")?;
                    fault_tuning = Some("--spare-lines");
                }
                "--sample-every" => {
                    sample_every = parse_number(&value("--sample-every")?, "--sample-every")?;
                    if sample_every == 0 {
                        return Err(CliError::Usage(
                            "--sample-every must be at least 1".into(),
                        ));
                    }
                }
                "--format" => {
                    gen.format = match value("--format")?.to_ascii_lowercase().as_str() {
                        "bin" | "binary" => TraceFormat::Binary,
                        "jsonl" | "json" => TraceFormat::Jsonl,
                        other => {
                            return Err(CliError::Usage(format!(
                                "--format must be bin or jsonl (got {other:?})"
                            )))
                        }
                    };
                }
                "--stream" => stream = true,
                "--checkpoint" => checkpoint = Some(value("--checkpoint")?),
                "--checkpoint-every" => {
                    checkpoint_every =
                        parse_number(&value("--checkpoint-every")?, "--checkpoint-every")?;
                    if checkpoint_every == 0 {
                        return Err(CliError::Usage(
                            "--checkpoint-every must be at least 1".into(),
                        ));
                    }
                }
                "--from-checkpoint" => from_checkpoint = Some(value("--from-checkpoint")?),
                "--shard" => {
                    shard = Some(ShardSpec::parse(&value("--shard")?).map_err(CliError::Usage)?);
                }
                "--manifest" => manifest = Some(value("--manifest")?),
                "--resume" => resume = true,
                "--trace-out" => trace_out = Some(value("--trace-out")?),
                "--flight-recorder" => {
                    let events: usize =
                        parse_number(&value("--flight-recorder")?, "--flight-recorder")?;
                    if events == 0 {
                        return Err(CliError::Usage(
                            "--flight-recorder must keep at least 1 event".into(),
                        ));
                    }
                    flight_recorder = Some(events);
                }
                "--store-file" => store_file = Some(value("--store-file")?),
                "--resident-pages" => {
                    let pages: usize =
                        parse_number(&value("--resident-pages")?, "--resident-pages")?;
                    if pages == 0 {
                        return Err(CliError::Usage(
                            "--resident-pages must keep at least 1 page resident".into(),
                        ));
                    }
                    resident_pages = Some(pages);
                }
                other if !other.starts_with('-') && positional.is_none() => {
                    positional = Some(other.to_string());
                }
                other => return Err(CliError::Usage(format!("unknown flag {other:?}"))),
            }
        }

        if let (Some(flag), false) = (fault_tuning, faults.enabled) {
            return Err(CliError::Usage(format!("{flag} requires --faults")));
        }
        if resident_pages.is_some() && store_file.is_none() {
            return Err(CliError::Usage(
                "--resident-pages requires --store-file <path>".into(),
            ));
        }

        let scheme = match scheme_kind {
            None => None,
            Some(kind) => {
                let mut config = SchemeConfig::new(kind);
                if let Some(e) = epoch {
                    config.epoch = EpochInterval::new(e)
                        .map_err(|e| CliError::Usage(e.to_string()))?;
                }
                if let Some(w) = word_bytes {
                    config.word_size = WordSize::from_bytes(w)
                        .map_err(|e| CliError::Usage(e.to_string()))?;
                }
                Some(config)
            }
        };

        match subcommand.as_str() {
            "gen" => {
                if !benchmark_given {
                    return Err(CliError::Usage("gen requires --benchmark".into()));
                }
                if store_file.is_some() {
                    return Err(CliError::Usage(
                        "--store-file applies to run and sweep, not gen".into(),
                    ));
                }
                if gen.output.is_none() {
                    return Err(CliError::Usage("gen requires -o <file>".into()));
                }
                Ok(Command::Gen(gen))
            }
            "stats" => {
                let trace_path = positional.or(trace_path).ok_or_else(|| {
                    CliError::Usage("stats requires a trace file".into())
                })?;
                Ok(Command::Stats(StatsArgs { trace_path }))
            }
            "run" => {
                if trace_path.is_none() && !benchmark_given {
                    return Err(CliError::Usage(
                        "run requires --trace <file> or --benchmark <name>".into(),
                    ));
                }
                let scheme = scheme.ok_or_else(|| {
                    CliError::Usage("run requires --scheme <scheme>".into())
                })?;
                if shard.is_some() || manifest.is_some() || resume {
                    return Err(CliError::Usage(
                        "--shard/--manifest/--resume apply to sweep, not run".into(),
                    ));
                }
                if !stream && (checkpoint.is_some() || from_checkpoint.is_some()) {
                    return Err(CliError::Usage(
                        "--checkpoint and --from-checkpoint require --stream".into(),
                    ));
                }
                if checkpoint.is_some() && from_checkpoint.is_some() {
                    return Err(CliError::Usage(
                        "--checkpoint and --from-checkpoint are mutually exclusive".into(),
                    ));
                }
                Ok(Command::Run(RunArgs {
                    trace_path,
                    gen,
                    scheme: Some(scheme),
                    telemetry,
                    sample_every,
                    faults,
                    stream,
                    checkpoint,
                    checkpoint_every,
                    from_checkpoint,
                    shard: None,
                    manifest: None,
                    resume: false,
                    trace_out,
                    flight_recorder,
                    store_file,
                    resident_pages,
                }))
            }
            "compare" | "sweep" => {
                if trace_path.is_none() && !benchmark_given {
                    return Err(CliError::Usage(format!(
                        "{subcommand} requires --trace <file> or --benchmark <name>"
                    )));
                }
                if stream || checkpoint.is_some() || from_checkpoint.is_some() {
                    return Err(CliError::Usage(format!(
                        "--stream/--checkpoint/--from-checkpoint apply to run, not {subcommand}"
                    )));
                }
                if subcommand == "compare" && (shard.is_some() || manifest.is_some() || resume) {
                    return Err(CliError::Usage(
                        "--shard/--manifest/--resume apply to sweep, not compare".into(),
                    ));
                }
                if subcommand == "compare" && store_file.is_some() {
                    return Err(CliError::Usage(
                        "--store-file applies to run and sweep, not compare".into(),
                    ));
                }
                if manifest.is_none() && (shard.is_some() || resume) {
                    return Err(CliError::Usage(
                        "--shard and --resume require --manifest <file>".into(),
                    ));
                }
                if trace_out.is_some() || flight_recorder.is_some() {
                    return Err(CliError::Usage(format!(
                        "--trace-out/--flight-recorder apply to run, not {subcommand}"
                    )));
                }
                if manifest.is_some() && telemetry.is_some() {
                    return Err(CliError::Usage(
                        "--manifest and --telemetry cannot be combined (shard output \
                         is the manifest; merge the shards first, then re-run with \
                         --telemetry if needed)"
                            .into(),
                    ));
                }
                let run_args = RunArgs {
                    trace_path,
                    gen,
                    scheme,
                    telemetry,
                    sample_every,
                    faults,
                    stream: false,
                    checkpoint: None,
                    checkpoint_every,
                    from_checkpoint: None,
                    shard,
                    manifest,
                    resume,
                    trace_out: None,
                    flight_recorder: None,
                    store_file,
                    resident_pages,
                };
                Ok(if subcommand == "compare" {
                    Command::Compare(run_args)
                } else {
                    Command::Sweep(run_args)
                })
            }
            "report" => {
                let telemetry_path = positional.or(telemetry).ok_or_else(|| {
                    CliError::Usage("report requires a telemetry file".into())
                })?;
                Ok(Command::Report(ReportArgs { telemetry_path }))
            }
            "help" | "--help" | "-h" => Ok(Command::Help),
            other => Err(CliError::Usage(format!("unknown subcommand {other:?}"))),
        }
    }

    /// Parses the `serve` subcommand's flags.
    fn parse_serve<I: Iterator<Item = String>>(mut args: I) -> Result<Self, CliError> {
        let mut serve = ServeArgs::default();
        let mut epoch: Option<u64> = None;
        let mut word_bytes: Option<usize> = None;
        while let Some(flag) = args.next() {
            let mut value = |flag: &str| {
                args.next()
                    .ok_or_else(|| CliError::Usage(format!("flag {flag} requires a value")))
            };
            match flag.as_str() {
                "--tenants" => serve.tenants = parse_number(&value("--tenants")?, "--tenants")?,
                "--shards" => serve.shards = parse_number(&value("--shards")?, "--shards")?,
                "--requests" => {
                    serve.requests = parse_number(&value("--requests")?, "--requests")?;
                }
                "--queue-depth" => {
                    serve.queue_depth = parse_number(&value("--queue-depth")?, "--queue-depth")?;
                }
                "--batch" => serve.batch = parse_number(&value("--batch")?, "--batch")?,
                "--scheme" => {
                    serve.scheme = SchemeConfig::new(parse_scheme_kind(&value("--scheme")?)?);
                }
                "--epoch" => epoch = Some(parse_number(&value("--epoch")?, "--epoch")?),
                "--word-bytes" => {
                    word_bytes = Some(parse_number(&value("--word-bytes")?, "--word-bytes")?);
                }
                "--benchmark" => {
                    serve.benchmark = Benchmark::from_name(&value("--benchmark")?)
                        .map_err(|e| CliError::Usage(e.to_string()))?;
                }
                "--lines" => serve.lines = parse_count(&value("--lines")?, "--lines")?,
                "--seed" => serve.seed = parse_number(&value("--seed")?, "--seed")?,
                "--telemetry" => serve.telemetry = Some(value("--telemetry")?),
                "--progress" => serve.progress = Some(value("--progress")?),
                "--flight-recorder" => {
                    let events: usize =
                        parse_number(&value("--flight-recorder")?, "--flight-recorder")?;
                    if events == 0 {
                        return Err(CliError::Usage(
                            "--flight-recorder must keep at least 1 event".into(),
                        ));
                    }
                    serve.flight_recorder = Some(events);
                }
                "--store-dir" => serve.store_dir = Some(value("--store-dir")?),
                "--resident-pages" => {
                    let pages: usize =
                        parse_number(&value("--resident-pages")?, "--resident-pages")?;
                    if pages == 0 {
                        return Err(CliError::Usage(
                            "--resident-pages must keep at least 1 page resident".into(),
                        ));
                    }
                    serve.resident_pages = Some(pages);
                }
                "--replay" => serve.replay = true,
                other => return Err(CliError::Usage(format!("unknown flag {other:?}"))),
            }
        }
        if serve.tenants == 0 || serve.shards == 0 || serve.requests == 0 {
            return Err(CliError::Usage(
                "--tenants, --shards, and --requests must all be at least 1".into(),
            ));
        }
        if serve.queue_depth == 0 || serve.batch == 0 {
            return Err(CliError::Usage(
                "--queue-depth and --batch must be at least 1".into(),
            ));
        }
        if serve.batch > serve.queue_depth {
            return Err(CliError::Usage(
                "--batch cannot exceed --queue-depth (an oversized batch can \
                 never be accepted)"
                    .into(),
            ));
        }
        if serve.resident_pages.is_some() && serve.store_dir.is_none() {
            return Err(CliError::Usage(
                "--resident-pages requires --store-dir <dir>".into(),
            ));
        }
        if let Some(e) = epoch {
            serve.scheme.epoch =
                EpochInterval::new(e).map_err(|e| CliError::Usage(e.to_string()))?;
        }
        if let Some(w) = word_bytes {
            serve.scheme.word_size =
                WordSize::from_bytes(w).map_err(|e| CliError::Usage(e.to_string()))?;
        }
        Ok(Command::Serve(serve))
    }
}

fn parse_number<T: std::str::FromStr>(s: &str, flag: &str) -> Result<T, CliError> {
    s.parse()
        .map_err(|_| CliError::Usage(format!("{flag}: invalid number {s:?}")))
}

/// [`parse_number`] for a count that must be at least 1.
fn parse_count<T: std::str::FromStr + From<u8> + PartialOrd>(
    s: &str,
    flag: &str,
) -> Result<T, CliError> {
    let n: T = parse_number(s, flag)?;
    if n < T::from(1) {
        return Err(CliError::Usage(format!("{flag} must be at least 1")));
    }
    Ok(n)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(argv: &[&str]) -> Result<Command, CliError> {
        Command::parse(argv.iter().map(ToString::to_string))
    }

    #[test]
    fn no_args_is_help() {
        assert!(matches!(parse(&[]), Ok(Command::Help)));
        assert!(matches!(parse(&["help"]), Ok(Command::Help)));
    }

    #[test]
    fn gen_requires_benchmark_and_output() {
        assert!(matches!(parse(&["gen"]), Err(CliError::Usage(_))));
        assert!(matches!(
            parse(&["gen", "--benchmark", "libq"]),
            Err(CliError::Usage(_))
        ));
        let cmd = parse(&["gen", "--benchmark", "libq", "-o", "t.bin", "--writes", "5"]).unwrap();
        match cmd {
            Command::Gen(g) => {
                assert_eq!(g.benchmark, Benchmark::Libquantum);
                assert_eq!(g.writes, 5);
                assert_eq!(g.output.as_deref(), Some("t.bin"));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn run_parses_scheme_and_overrides() {
        let cmd = parse(&[
            "run",
            "--benchmark",
            "mcf",
            "--scheme",
            "deuce",
            "--epoch",
            "16",
            "--word-bytes",
            "4",
        ])
        .unwrap();
        match cmd {
            Command::Run(r) => {
                let scheme = r.scheme.unwrap();
                assert_eq!(scheme.kind, SchemeKind::Deuce);
                assert_eq!(scheme.epoch.writes(), 16);
                assert_eq!(scheme.word_size, WordSize::Bytes4);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn scheme_aliases() {
        for (alias, kind) in [
            ("deuce", SchemeKind::Deuce),
            ("DynDeuce", SchemeKind::DynDeuce),
            ("ble+deuce", SchemeKind::BleDeuce),
            ("encrypted", SchemeKind::EncryptedDcw),
            ("addrpad", SchemeKind::AddrPad),
        ] {
            assert_eq!(parse_scheme_kind(alias).unwrap(), kind);
        }
        assert!(parse_scheme_kind("nope").is_err());
    }

    #[test]
    fn invalid_numbers_are_usage_errors() {
        assert!(matches!(
            parse(&["run", "--benchmark", "mcf", "--scheme", "deuce", "--writes", "abc"]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse(&["run", "--benchmark", "mcf", "--scheme", "deuce", "--epoch", "7"]),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn stats_takes_positional_path() {
        match parse(&["stats", "trace.bin"]).unwrap() {
            Command::Stats(s) => assert_eq!(s.trace_path, "trace.bin"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn telemetry_flags_parse() {
        let cmd = parse(&[
            "run",
            "--benchmark",
            "mcf",
            "--scheme",
            "deuce",
            "--telemetry",
            "out.jsonl",
            "--sample-every",
            "16",
        ])
        .unwrap();
        match cmd {
            Command::Run(r) => {
                assert_eq!(r.telemetry.as_deref(), Some("out.jsonl"));
                assert_eq!(r.sample_every, 16);
            }
            other => panic!("unexpected {other:?}"),
        }
        // Default window, no telemetry.
        match parse(&["compare", "--benchmark", "mcf"]).unwrap() {
            Command::Compare(r) => {
                assert!(r.telemetry.is_none());
                assert_eq!(r.sample_every, 64);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(matches!(
            parse(&["run", "--benchmark", "mcf", "--scheme", "deuce", "--sample-every", "0"]),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn fault_flags_parse() {
        let cmd = parse(&[
            "run",
            "--benchmark",
            "mcf",
            "--scheme",
            "deuce",
            "--faults",
            "--endurance-scale",
            "2e-7",
            "--ecp-entries",
            "2",
            "--spare-lines",
            "4",
        ])
        .unwrap();
        match cmd {
            Command::Run(r) => {
                assert!(r.faults.enabled);
                assert!((r.faults.endurance_scale - 2e-7).abs() < 1e-18);
                assert_eq!(r.faults.ecp_entries, 2);
                assert_eq!(r.faults.spare_lines, 4);
            }
            other => panic!("unexpected {other:?}"),
        }
        // Defaults when --faults is absent.
        match parse(&["compare", "--benchmark", "mcf"]).unwrap() {
            Command::Compare(r) => assert_eq!(r.faults, FaultArgs::default()),
            other => panic!("unexpected {other:?}"),
        }
        // Tuning flags demand --faults; the scale must be positive.
        assert!(matches!(
            parse(&["compare", "--benchmark", "mcf", "--spare-lines", "4"]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse(&["run", "--benchmark", "mcf", "--scheme", "deuce", "--faults",
                    "--endurance-scale", "0"]),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn removed_pad_cache_flag_is_a_usage_error() {
        for argv in [
            &["run", "--benchmark", "mcf", "--scheme", "deuce", "--pad-cache", "128"][..],
            &["compare", "--benchmark", "mcf", "--pad-cache", "128"],
            &["sweep", "--benchmark", "mcf", "--pad-cache", "128"],
        ] {
            match parse(argv) {
                Err(CliError::Usage(msg)) => assert!(msg.contains("--pad-cache"), "{msg}"),
                other => panic!("{argv:?} must be rejected, got {other:?}"),
            }
        }
    }

    #[test]
    fn report_takes_positional_path() {
        match parse(&["report", "out.jsonl"]).unwrap() {
            Command::Report(r) => assert_eq!(r.telemetry_path, "out.jsonl"),
            other => panic!("unexpected {other:?}"),
        }
        assert!(matches!(parse(&["report"]), Err(CliError::Usage(_))));
    }

    #[test]
    fn compare_without_scheme_is_fine() {
        assert!(matches!(
            parse(&["compare", "--benchmark", "gems"]),
            Ok(Command::Compare(_))
        ));
    }

    #[test]
    fn gen_format_flag_parses() {
        let cmd =
            parse(&["gen", "--benchmark", "libq", "-o", "t.jsonl", "--format", "jsonl"]).unwrap();
        match cmd {
            Command::Gen(g) => assert_eq!(g.format, TraceFormat::Jsonl),
            other => panic!("unexpected {other:?}"),
        }
        match parse(&["gen", "--benchmark", "libq", "-o", "t.bin"]).unwrap() {
            Command::Gen(g) => assert_eq!(g.format, TraceFormat::Binary),
            other => panic!("unexpected {other:?}"),
        }
        assert!(matches!(
            parse(&["gen", "--benchmark", "libq", "-o", "t", "--format", "xml"]),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn stream_and_checkpoint_flags_parse() {
        let cmd = parse(&[
            "run", "--benchmark", "mcf", "--scheme", "deuce", "--stream", "--checkpoint",
            "cp.jsonl", "--checkpoint-every", "500",
        ])
        .unwrap();
        match cmd {
            Command::Run(r) => {
                assert!(r.stream);
                assert_eq!(r.checkpoint.as_deref(), Some("cp.jsonl"));
                assert_eq!(r.checkpoint_every, 500);
            }
            other => panic!("unexpected {other:?}"),
        }
        // Checkpointing needs the streaming driver; emit and verify are
        // mutually exclusive.
        assert!(matches!(
            parse(&["run", "--benchmark", "mcf", "--scheme", "deuce", "--checkpoint", "c"]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse(&["run", "--benchmark", "mcf", "--scheme", "deuce", "--stream",
                    "--checkpoint", "a", "--from-checkpoint", "b"]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse(&["run", "--benchmark", "mcf", "--scheme", "deuce", "--stream",
                    "--checkpoint", "c", "--checkpoint-every", "0"]),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn sweep_shard_flags_parse() {
        let cmd = parse(&[
            "sweep", "--benchmark", "mcf", "--manifest", "m.jsonl", "--shard", "1/2", "--resume",
        ])
        .unwrap();
        match cmd {
            Command::Sweep(r) => {
                assert_eq!(r.shard, Some(ShardSpec { index: 1, count: 2 }));
                assert_eq!(r.manifest.as_deref(), Some("m.jsonl"));
                assert!(r.resume);
            }
            other => panic!("unexpected {other:?}"),
        }
        // Shard flags demand a manifest, stay off compare/run, and
        // cannot be combined with telemetry.
        assert!(matches!(
            parse(&["sweep", "--benchmark", "mcf", "--shard", "0/2"]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse(&["sweep", "--benchmark", "mcf", "--shard", "2/2", "--manifest", "m"]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse(&["compare", "--benchmark", "mcf", "--manifest", "m"]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse(&["run", "--benchmark", "mcf", "--scheme", "deuce", "--manifest", "m"]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse(&["sweep", "--benchmark", "mcf", "--manifest", "m", "--telemetry", "t"]),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn observability_flags_parse() {
        let cmd = parse(&[
            "run", "--benchmark", "mcf", "--scheme", "deuce", "--trace-out", "spans.json",
            "--flight-recorder", "64",
        ])
        .unwrap();
        match cmd {
            Command::Run(r) => {
                assert_eq!(r.trace_out.as_deref(), Some("spans.json"));
                assert_eq!(r.flight_recorder, Some(64));
            }
            other => panic!("unexpected {other:?}"),
        }
        // Off by default; run-only; a zero-length ring is a usage error.
        match parse(&["run", "--benchmark", "mcf", "--scheme", "deuce"]).unwrap() {
            Command::Run(r) => {
                assert!(r.trace_out.is_none());
                assert!(r.flight_recorder.is_none());
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(matches!(
            parse(&["sweep", "--benchmark", "mcf", "--trace-out", "s.json"]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse(&["compare", "--benchmark", "mcf", "--flight-recorder", "8"]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse(&["run", "--benchmark", "mcf", "--scheme", "deuce", "--flight-recorder", "0"]),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn store_flags_parse() {
        let cmd = parse(&[
            "run", "--benchmark", "mcf", "--scheme", "deuce", "--store-file", "lines.pages",
            "--resident-pages", "8",
        ])
        .unwrap();
        match cmd {
            Command::Run(r) => {
                assert_eq!(r.store_file.as_deref(), Some("lines.pages"));
                assert_eq!(r.resident_pages, Some(8));
            }
            other => panic!("unexpected {other:?}"),
        }
        // Defaulted budget when only the path is given; sweep takes the
        // flags too.
        match parse(&["sweep", "--benchmark", "mcf", "--store-file", "s.pages"]).unwrap() {
            Command::Sweep(r) => {
                assert_eq!(r.store_file.as_deref(), Some("s.pages"));
                assert_eq!(r.resident_pages, None);
            }
            other => panic!("unexpected {other:?}"),
        }
        // Budget needs a path, must be nonzero, and the store flags stay
        // off gen and compare.
        assert!(matches!(
            parse(&["run", "--benchmark", "mcf", "--scheme", "deuce", "--resident-pages", "8"]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse(&["run", "--benchmark", "mcf", "--scheme", "deuce", "--store-file", "s",
                    "--resident-pages", "0"]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse(&["gen", "--benchmark", "libq", "-o", "t.bin", "--store-file", "s"]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse(&["compare", "--benchmark", "mcf", "--store-file", "s"]),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn watch_takes_paths_and_flags() {
        match parse(&["watch", "cp.jsonl", "m.jsonl", "--once"]).unwrap() {
            Command::Watch(w) => {
                assert_eq!(w.paths, vec!["cp.jsonl", "m.jsonl"]);
                assert!(w.once);
                assert_eq!(w.interval_ms, 2000, "default poll period");
            }
            other => panic!("unexpected {other:?}"),
        }
        match parse(&["watch", "cp.jsonl", "--interval-ms", "250"]).unwrap() {
            Command::Watch(w) => {
                assert!(!w.once);
                assert_eq!(w.interval_ms, 250);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(matches!(parse(&["watch"]), Err(CliError::Usage(_))));
        assert!(matches!(parse(&["watch", "--once"]), Err(CliError::Usage(_))));
        assert!(matches!(
            parse(&["watch", "cp.jsonl", "--interval-ms", "0"]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse(&["watch", "cp.jsonl", "--shard", "0/2"]),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn aes_backend_takes_no_arguments() {
        assert!(matches!(parse(&["aes-backend"]), Ok(Command::AesBackend)));
        assert!(matches!(
            parse(&["aes-backend", "--force", "hw"]),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn merge_takes_manifest_paths() {
        match parse(&["merge", "a.jsonl", "b.jsonl"]).unwrap() {
            Command::Merge(m) => assert_eq!(m.manifests, vec!["a.jsonl", "b.jsonl"]),
            other => panic!("unexpected {other:?}"),
        }
        assert!(matches!(parse(&["merge"]), Err(CliError::Usage(_))));
        assert!(matches!(parse(&["merge", "--shard", "a"]), Err(CliError::Usage(_))));
    }

    #[test]
    fn serve_defaults_parse() {
        match parse(&["serve"]).unwrap() {
            Command::Serve(s) => assert_eq!(s, ServeArgs::default()),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn serve_flags_parse() {
        let cmd = parse(&[
            "serve",
            "--tenants",
            "4",
            "--shards",
            "8",
            "--requests",
            "5000",
            "--queue-depth",
            "256",
            "--batch",
            "16",
            "--scheme",
            "dyndeuce",
            "--epoch",
            "64",
            "--benchmark",
            "mcf",
            "--lines",
            "512",
            "--seed",
            "7",
            "--telemetry",
            "serve.jsonl",
            "--progress",
            "serve-progress.jsonl",
            "--flight-recorder",
            "32",
            "--store-dir",
            "/tmp/pages",
            "--resident-pages",
            "64",
        ])
        .unwrap();
        match cmd {
            Command::Serve(s) => {
                assert_eq!(s.tenants, 4);
                assert_eq!(s.shards, 8);
                assert_eq!(s.requests, 5000);
                assert_eq!(s.queue_depth, 256);
                assert_eq!(s.batch, 16);
                assert_eq!(s.scheme.kind, SchemeKind::DynDeuce);
                assert_eq!(s.scheme.epoch, EpochInterval::new(64).unwrap());
                assert_eq!(s.benchmark, Benchmark::Mcf);
                assert_eq!(s.lines, 512);
                assert_eq!(s.seed, 7);
                assert_eq!(s.telemetry.as_deref(), Some("serve.jsonl"));
                assert_eq!(s.progress.as_deref(), Some("serve-progress.jsonl"));
                assert_eq!(s.flight_recorder, Some(32));
                assert_eq!(s.store_dir.as_deref(), Some("/tmp/pages"));
                assert_eq!(s.resident_pages, Some(64));
                assert!(!s.replay);
            }
            other => panic!("unexpected {other:?}"),
        }
        match parse(&["serve", "--replay"]).unwrap() {
            Command::Serve(s) => assert!(s.replay),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn serve_rejects_unsatisfiable_shapes() {
        // A batch larger than the queue can never be accepted — the
        // parser refuses the livelock up front.
        assert!(matches!(
            parse(&["serve", "--batch", "64", "--queue-depth", "32"]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(parse(&["serve", "--tenants", "0"]), Err(CliError::Usage(_))));
        assert!(matches!(parse(&["serve", "--shards", "0"]), Err(CliError::Usage(_))));
        assert!(matches!(parse(&["serve", "--queue-depth", "0"]), Err(CliError::Usage(_))));
        assert!(matches!(
            parse(&["serve", "--resident-pages", "16"]),
            Err(CliError::Usage(_)),
        ), "--resident-pages without --store-dir");
        assert!(matches!(parse(&["serve", "--flip"]), Err(CliError::Usage(_))));
        assert!(matches!(parse(&["serve", "--seed"]), Err(CliError::Usage(_))));
    }

    /// Asserts that `argv` is a usage error whose message names `flag`.
    fn assert_usage_names(argv: &[&str], flag: &str) {
        match parse(argv) {
            Err(CliError::Usage(msg)) => assert!(msg.contains(flag), "{argv:?}: {msg}"),
            other => panic!("{argv:?}: expected a usage error naming {flag}, got {other:?}"),
        }
    }

    /// The subcommands that take `--lines` and `--cores` from the shared
    /// parser, each with the flags it otherwise requires.
    const GENERATING_COMMANDS: [&[&str]; 4] = [
        &["gen", "--benchmark", "mcf", "-o", "t.trace"],
        &["run", "--benchmark", "mcf"],
        &["compare", "--benchmark", "mcf"],
        &["sweep", "--benchmark", "mcf"],
    ];

    #[test]
    fn zero_lines_is_a_usage_error() {
        for command in GENERATING_COMMANDS {
            assert_usage_names(&[command, &["--lines", "0"]].concat(), "--lines");
        }
    }

    #[test]
    fn zero_cores_is_a_usage_error() {
        for command in GENERATING_COMMANDS {
            assert_usage_names(&[command, &["--cores", "0"]].concat(), "--cores");
        }
    }

    #[test]
    fn serve_zero_lines_is_a_usage_error() {
        assert_usage_names(&["serve", "--lines", "0"], "--lines");
    }
}
