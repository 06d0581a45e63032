//! Command-line parsing (hand-rolled; the workspace stays
//! dependency-light).
//!
//! Every flag is declared once, in `FLAGS`: its name, whether it
//! takes a value, the subcommands that read it and the flag it only
//! tunes. One loop parses every subcommand against that table, so a
//! flag a subcommand does not read is refused, never ignored.

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
                [--checkpoint <file> [--checkpoint-every N]]
                [--from-checkpoint <file>]
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

  Each subcommand reads only the flags on its lines; any other flag is
  a usage error, as is a tuning flag (shown nested) without the flag it
  tunes. Generation flags (--benchmark --writes --lines --cores --seed)
  cannot be given with --trace.

STREAMING:
  gen writes the trace directly from the generator, so any --writes
  count runs in bounded memory; --format jsonl emits a line-oriented
  text dialect instead of the binary container (both stream, both are
  accepted everywhere a trace file is). run drives the simulation
  from the trace file or the generator one event at a time, so trace
  memory stays bounded at any length. --checkpoint <file> appends a
  progress fingerprint every --checkpoint-every writes (default
  1000000); --from-checkpoint <file> replays the stream and verifies
  the run still matches the recorded fingerprint (a changed trace,
  config, or binary is detected, not silently absorbed).

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

impl Default for WatchArgs {
    fn default() -> Self {
        Self { paths: Vec::new(), once: false, interval_ms: 2000 }
    }
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

/// Every subcommand, with how many bare (non-flag) arguments it takes
/// and, when it needs some, what they are.
const SUBCOMMANDS: [(&str, usize, &str); 11] = [
    ("gen", 0, ""),
    ("stats", 1, "a trace file"),
    ("run", 0, ""),
    ("compare", 0, ""),
    ("sweep", 0, ""),
    ("merge", usize::MAX, "at least one manifest file"),
    ("report", 1, "a telemetry file"),
    ("watch", usize::MAX, "at least one checkpoint or manifest file"),
    ("serve", 0, ""),
    ("aes-backend", 0, ""),
    ("help", 0, ""),
];

/// The values parsed so far. Each flag sets one field; the flags
/// `serve` shares with `run` land in [`RunArgs`] and are copied over
/// when a `serve` command is built. The scheme is resolved after the
/// loop, so `--epoch` and `--word-bytes` may precede `--scheme`.
#[derive(Default)]
struct Draft {
    run: RunArgs,
    serve: ServeArgs,
    watch: WatchArgs,
    scheme: Option<SchemeKind>,
    epoch: Option<EpochInterval>,
    word_size: Option<WordSize>,
}

/// How a flag lands in the [`Draft`]: a switch sets a field, a path
/// fills the field it names, and any other value is parsed and
/// range-checked, or refused with what is wrong with it.
#[derive(Clone, Copy)]
enum Set {
    Switch(fn(&mut Draft)),
    Path(fn(&mut Draft) -> &mut Option<String>),
    Value(fn(&mut Draft, &str) -> Result<(), String>),
}

use Set::{Path, Switch, Value};

/// One row of [`FLAGS`].
struct Flag {
    name: &'static str,
    /// The subcommands that read the flag; every other one refuses it.
    commands: &'static [&'static str],
    /// The flags this one only tunes. Given without any of them that
    /// the subcommand reads, it is refused.
    tunes: &'static [&'static str],
    set: Set,
}

const fn flag(
    name: &'static str,
    commands: &'static [&'static str],
    tunes: &'static [&'static str],
    set: Set,
) -> Flag {
    Flag { name, commands, tunes, set }
}

// Subcommand lists that several rows of `FLAGS` share.
const GENERATE: &[&str] = &["gen", "run", "compare", "sweep"];
const WORKLOAD: &[&str] = &["gen", "run", "compare", "sweep", "serve"];
const SIMULATE: &[&str] = &["run", "compare", "sweep"];
const RECORD: &[&str] = &["run", "compare", "sweep", "serve"];
const ONE_SCHEME: &[&str] = &["run", "serve"];
const PAGED: &[&str] = &["run", "sweep", "serve"];
const SERVE: &[&str] = &["serve"];

/// The flags that shape a generated stream, which `--trace` replaces.
const GENERATION_FLAGS: [&str; 5] = ["--benchmark", "--writes", "--lines", "--cores", "--seed"];

/// Every flag, declared once: the one place its value is parsed and
/// range-checked, and the one list of the subcommands that read it.
#[rustfmt::skip]
static FLAGS: &[Flag] = &[
    flag("--benchmark", WORKLOAD, &[], Value(|d, v| {
        Benchmark::from_name(v).map(|b| d.run.gen.benchmark = b).map_err(|e| e.to_string())
    })),
    flag("--writes", GENERATE, &[], Value(|d, v| number(v).map(|n| d.run.gen.writes = n))),
    flag("--lines", WORKLOAD, &[], Value(|d, v| count(v).map(|n| d.run.gen.lines = n))),
    flag("--cores", GENERATE, &[], Value(|d, v| count(v).map(|n| d.run.gen.cores = n))),
    flag("--seed", WORKLOAD, &[], Value(|d, v| number(v).map(|n| d.run.gen.seed = n))),
    flag("-o", &["gen"], &[], Path(|d| &mut d.run.gen.output)),
    flag("--format", &["gen"], &[], Value(|d, v| {
        d.run.gen.format = match v.to_ascii_lowercase().as_str() {
            "bin" | "binary" => TraceFormat::Binary,
            "jsonl" | "json" => TraceFormat::Jsonl,
            _ => return Err(format!("must be bin or jsonl (got {v:?})")),
        };
        Ok(())
    })),
    flag("--trace", SIMULATE, &[], Path(|d| &mut d.run.trace_path)),
    flag("--scheme", ONE_SCHEME, &[], Value(|d, v| {
        parse_scheme_kind(v).map(|k| d.scheme = Some(k))
    })),
    flag("--epoch", ONE_SCHEME, &[], Value(|d, v| {
        d.epoch = Some(EpochInterval::new(number(v)?).map_err(|e| e.to_string())?);
        Ok(())
    })),
    flag("--word-bytes", ONE_SCHEME, &[], Value(|d, v| {
        d.word_size = Some(WordSize::from_bytes(number(v)?).map_err(|e| e.to_string())?);
        Ok(())
    })),
    flag("--telemetry", RECORD, &[], Path(|d| &mut d.run.telemetry)),
    flag("--sample-every", SIMULATE, &["--telemetry"], Value(|d, v| {
        count(v).map(|n| d.run.sample_every = n)
    })),
    flag("--faults", SIMULATE, &[], Switch(|d| d.run.faults.enabled = true)),
    flag("--endurance-scale", SIMULATE, &["--faults"], Value(|d, v| {
        let scale: f64 = number(v)?;
        if !(scale.is_finite() && scale > 0.0) {
            return Err("must be a positive number".into());
        }
        d.run.faults.endurance_scale = scale;
        Ok(())
    })),
    flag("--ecp-entries", SIMULATE, &["--faults"], Value(|d, v| {
        number(v).map(|n| d.run.faults.ecp_entries = n)
    })),
    flag("--spare-lines", SIMULATE, &["--faults"], Value(|d, v| {
        number(v).map(|n| d.run.faults.spare_lines = n)
    })),
    flag("--checkpoint", &["run"], &[], Path(|d| &mut d.run.checkpoint)),
    flag("--checkpoint-every", &["run"], &["--checkpoint"], Value(|d, v| {
        count(v).map(|n| d.run.checkpoint_every = n)
    })),
    flag("--from-checkpoint", &["run"], &[], Path(|d| &mut d.run.from_checkpoint)),
    flag("--manifest", &["sweep"], &[], Path(|d| &mut d.run.manifest)),
    flag("--shard", &["sweep"], &["--manifest"], Value(|d, v| {
        ShardSpec::parse(v).map(|s| d.run.shard = Some(s))
    })),
    flag("--resume", &["sweep"], &["--manifest"], Switch(|d| d.run.resume = true)),
    flag("--trace-out", &["run"], &[], Path(|d| &mut d.run.trace_out)),
    flag("--flight-recorder", ONE_SCHEME, &[], Value(|d, v| {
        count(v).map(|n| d.run.flight_recorder = Some(n))
    })),
    flag("--store-file", &["run", "sweep"], &[], Path(|d| &mut d.run.store_file)),
    flag("--store-dir", SERVE, &[], Path(|d| &mut d.serve.store_dir)),
    flag("--resident-pages", PAGED, &["--store-file", "--store-dir"], Value(|d, v| {
        count(v).map(|n| d.run.resident_pages = Some(n))
    })),
    flag("--tenants", SERVE, &[], Value(|d, v| count(v).map(|n| d.serve.tenants = n))),
    flag("--shards", SERVE, &[], Value(|d, v| count(v).map(|n| d.serve.shards = n))),
    flag("--requests", SERVE, &[], Value(|d, v| count(v).map(|n| d.serve.requests = n))),
    flag("--queue-depth", SERVE, &[], Value(|d, v| count(v).map(|n| d.serve.queue_depth = n))),
    flag("--batch", SERVE, &[], Value(|d, v| count(v).map(|n| d.serve.batch = n))),
    flag("--progress", SERVE, &[], Path(|d| &mut d.serve.progress)),
    flag("--replay", SERVE, &[], Switch(|d| d.serve.replay = true)),
    flag("--once", &["watch"], &[], Switch(|d| d.watch.once = true)),
    flag("--interval-ms", &["watch"], &[], Value(|d, v| count(v).map(|n| d.watch.interval_ms = n))),
];

fn usage(msg: impl Into<String>) -> CliError {
    CliError::Usage(msg.into())
}

/// Whether subcommand `sub` reads flag `name`.
fn reads(sub: &str, name: &str) -> bool {
    FLAGS.iter().any(|f| f.name == name && f.commands.contains(&sub))
}

fn parse_scheme_kind(name: &str) -> Result<SchemeKind, String> {
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
        other => return Err(format!("unknown scheme {other:?}")),
    })
}

fn number<T: std::str::FromStr>(s: &str) -> Result<T, String> {
    s.parse().map_err(|_| format!("invalid number {s:?}"))
}

/// [`number`] for a count that must be at least 1.
fn count<T: std::str::FromStr + From<u8> + PartialOrd>(s: &str) -> Result<T, String> {
    let n: T = number(s)?;
    if n < T::from(1) {
        return Err("must be at least 1".into());
    }
    Ok(n)
}

impl Command {
    /// Parses an argument list (without the program name) in one pass
    /// over the flag table.
    ///
    /// # Errors
    ///
    /// Returns [`CliError::Usage`] on malformed input: an unknown
    /// subcommand or flag, a flag or bare argument the subcommand does
    /// not take, a bad value, a tuning flag without the flag it tunes,
    /// `--trace` with a generation flag, or a missing required flag.
    pub fn parse<I: IntoIterator<Item = String>>(argv: I) -> Result<Self, CliError> {
        let mut args = argv.into_iter();
        let Some(first) = args.next() else {
            return Ok(Command::Help);
        };
        let name = if matches!(first.as_str(), "--help" | "-h") { "help" } else { &first };
        let &(sub, max_paths, wanted) = SUBCOMMANDS
            .iter()
            .find(|(s, ..)| *s == name)
            .ok_or_else(|| usage(format!("unknown subcommand {name:?}")))?;

        let mut draft = Draft::default();
        let mut given: Vec<&str> = Vec::new();
        let mut paths: Vec<String> = Vec::new();
        while let Some(arg) = args.next() {
            if !arg.starts_with('-') {
                paths.push(arg);
                continue;
            }
            let flag = FLAGS
                .iter()
                .find(|f| f.name == arg)
                .ok_or_else(|| usage(format!("unknown flag {arg:?}")))?;
            if !flag.commands.contains(&sub) {
                return Err(usage(format!("{} does not apply to {sub}", flag.name)));
            }
            let mut value =
                || args.next().ok_or_else(|| usage(format!("flag {} requires a value", flag.name)));
            match flag.set {
                Switch(set) => set(&mut draft),
                Path(field) => *field(&mut draft) = Some(value()?),
                Value(set) => {
                    set(&mut draft, &value()?).map_err(|e| usage(format!("{}: {e}", flag.name)))?
                }
            }
            given.push(flag.name);
        }

        let has = |name: &str| given.contains(&name);
        if let Some(extra) = paths.get(max_paths) {
            return Err(usage(format!("unexpected argument {extra:?} for {sub}")));
        }
        if paths.is_empty() && max_paths > 0 {
            return Err(usage(format!("{sub} requires {wanted}")));
        }
        for flag in FLAGS.iter().filter(|f| has(f.name)) {
            let tuned: Vec<&str> = flag.tunes.iter().copied().filter(|t| reads(sub, t)).collect();
            if !tuned.is_empty() && !tuned.iter().any(|t| has(t)) {
                return Err(usage(format!("{sub}: {} requires {}", flag.name, tuned.join(" or "))));
            }
        }
        if let Some(generation) = GENERATION_FLAGS.iter().find(|g| has("--trace") && has(g)) {
            return Err(usage(format!(
                "{sub}: --trace replays a saved stream, so {generation} cannot be given with it"
            )));
        }

        let Draft { mut run, serve, watch, scheme, epoch, word_size } = draft;
        let configure = |kind: SchemeKind| {
            let mut config = SchemeConfig::new(kind);
            config.epoch = epoch.unwrap_or(config.epoch);
            config.word_size = word_size.unwrap_or(config.word_size);
            config
        };
        run.scheme = scheme.map(configure);
        let refusal = match sub {
            "gen" if !has("--benchmark") => Some("gen requires --benchmark".to_string()),
            "gen" if !has("-o") => Some("gen requires -o <file>".into()),
            "run" | "compare" | "sweep" if !has("--trace") && !has("--benchmark") => {
                Some(format!("{sub} requires --trace <file> or --benchmark <name>"))
            }
            "run" if run.scheme.is_none() => Some("run requires --scheme <scheme>".into()),
            "run" if has("--checkpoint") && has("--from-checkpoint") => {
                Some("run takes --checkpoint or --from-checkpoint, not both".into())
            }
            "sweep" if has("--manifest") && has("--telemetry") => Some(
                "--manifest and --telemetry cannot be combined (shard output is the \
                 manifest; merge the shards first, then re-run with --telemetry if needed)"
                    .into(),
            ),
            "serve" if serve.batch > serve.queue_depth => Some(
                "--batch cannot exceed --queue-depth (an oversized batch can never be accepted)"
                    .into(),
            ),
            _ => None,
        };
        if let Some(msg) = refusal {
            return Err(usage(msg));
        }

        Ok(match sub {
            "gen" => Command::Gen(run.gen),
            "stats" => Command::Stats(StatsArgs { trace_path: paths.remove(0) }),
            "run" => Command::Run(run),
            "compare" => Command::Compare(run),
            "sweep" => Command::Sweep(run),
            "merge" => Command::Merge(MergeArgs { manifests: paths }),
            "report" => Command::Report(ReportArgs { telemetry_path: paths.remove(0) }),
            "watch" => Command::Watch(WatchArgs { paths, ..watch }),
            "serve" => Command::Serve(ServeArgs {
                scheme: configure(scheme.unwrap_or(serve.scheme.kind)),
                benchmark: run.gen.benchmark,
                lines: run.gen.lines,
                seed: run.gen.seed,
                telemetry: run.telemetry,
                flight_recorder: run.flight_recorder,
                resident_pages: run.resident_pages,
                ..serve
            }),
            "aes-backend" => Command::AesBackend,
            _ => Command::Help,
        })
    }
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
            "run", "--benchmark", "mcf", "--scheme", "deuce", "--checkpoint",
            "cp.jsonl", "--checkpoint-every", "500",
        ])
        .unwrap();
        match cmd {
            Command::Run(r) => {
                assert_eq!(r.checkpoint.as_deref(), Some("cp.jsonl"));
                assert_eq!(r.checkpoint_every, 500);
            }
            other => panic!("unexpected {other:?}"),
        }
        // Emit and verify are mutually exclusive.
        assert!(matches!(
            parse(&["run", "--benchmark", "mcf", "--scheme", "deuce",
                    "--checkpoint", "a", "--from-checkpoint", "b"]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse(&["run", "--benchmark", "mcf", "--scheme", "deuce",
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

    /// Arguments each subcommand needs to parse, before a flag is added.
    fn base_args(sub: &str) -> &'static [&'static str] {
        match sub {
            "gen" => &["--benchmark", "mcf", "-o", "t.trace"],
            "stats" => &["t.trace"],
            "run" => &["--benchmark", "mcf", "--scheme", "deuce"],
            "compare" | "sweep" => &["--benchmark", "mcf"],
            "merge" | "watch" => &["m.jsonl"],
            "report" => &["t.jsonl"],
            _ => &[],
        }
    }

    #[test]
    fn every_flag_a_subcommand_does_not_read_is_refused() {
        let mut refused = 0;
        for (sub, ..) in SUBCOMMANDS {
            let base = [&[sub], base_args(sub)].concat();
            assert!(parse(&base).is_ok(), "{base:?} must parse");
            for flag in FLAGS.iter().filter(|f| !f.commands.contains(&sub)) {
                let mut argv = [&base[..], &[flag.name]].concat();
                if !matches!(flag.set, Set::Switch(_)) {
                    argv.push("1");
                }
                match parse(&argv) {
                    Err(CliError::Usage(msg)) => {
                        assert!(msg.contains(flag.name) && msg.contains(sub), "{argv:?}: {msg}");
                    }
                    other => panic!("{argv:?} must be refused, got {other:?}"),
                }
                refused += 1;
            }
        }
        assert!(refused > 300, "walked {refused} pairs");
    }

    #[test]
    fn a_bare_argument_a_subcommand_does_not_take_is_refused() {
        for (argv, bare) in [
            (&["run", "t.bin", "--benchmark", "mcf", "--scheme", "deuce"][..], "t.bin"),
            (&["gen", "foo", "--benchmark", "mcf", "-o", "t.trace"], "foo"),
            (&["stats", "a.trace", "b.trace"], "b.trace"),
        ] {
            assert_usage_names(argv, bare);
            assert_usage_names(argv, argv[0]);
        }
    }

    #[test]
    fn trace_with_a_generation_flag_is_refused() {
        for (flag, value) in [("--benchmark", "mcf"), ("--writes", "500")] {
            let argv = ["run", "--trace", "t.bin", "--scheme", "deuce", flag, value];
            for named in [flag, "--trace", "run"] {
                assert_usage_names(&argv, named);
            }
        }
        assert_usage_names(&["sweep", "--trace", "t.bin", "--lines", "64"], "--lines");
    }

    #[test]
    fn a_tuning_flag_without_the_flag_it_tunes_is_refused() {
        let run = ["run", "--benchmark", "mcf", "--scheme", "deuce"];
        for (tuning, tuned) in [
            (["--sample-every", "16"], "--telemetry"),
            (["--checkpoint-every", "100"], "--checkpoint"),
            (["--resident-pages", "8"], "--store-file"),
        ] {
            let argv = [&run[..], &tuning].concat();
            for named in [tuning[0], tuned, "run"] {
                assert_usage_names(&argv, named);
            }
        }
        assert_usage_names(&["serve", "--resident-pages", "8"], "--store-dir");
    }

    #[test]
    fn removed_stream_flag_is_a_usage_error() {
        for argv in [
            &["run", "--benchmark", "mcf", "--scheme", "deuce", "--stream"][..],
            &["compare", "--benchmark", "mcf", "--stream"],
            &["sweep", "--benchmark", "mcf", "--stream"],
        ] {
            assert_usage_names(argv, "--stream");
        }
    }
}
