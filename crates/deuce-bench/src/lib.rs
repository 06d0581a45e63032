//! Shared experiment-harness support for the figure/table binaries.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the
//! DEUCE paper. They share a common command line:
//!
//! ```text
//! --writes N        writebacks per benchmark (default 20000)
//! --lines N         working-set lines per core (default 256)
//! --seed N          RNG seed (default 42)
//! --cores N         cores in rate mode (default 1; timing studies use 8)
//! --benchmarks a,b  subset of benchmarks (default: all 12)
//! ```
//!
//! `--help` prints this table; a malformed command line prints the
//! error and the table to stderr and exits with status 2.
//!
//! Output is TSV so results can be diffed against EXPERIMENTS.md.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod harness;

use std::fmt;
use std::io::IsTerminal;

use deuce_schemes::SchemeConfig;
use deuce_sim::telemetry::SweepProgress;
use deuce_sim::{ParallelSweep, SimConfig, SimResult, Simulator};
use deuce_trace::{Benchmark, Trace, TraceConfig, TraceSource};

/// Common experiment parameters parsed from the command line.
#[derive(Debug, Clone)]
pub struct ExperimentArgs {
    /// Writebacks generated per benchmark.
    pub writes: usize,
    /// Working-set lines per core.
    pub lines: usize,
    /// Trace RNG seed.
    pub seed: u64,
    /// Cores in rate mode.
    pub cores: u8,
    /// Benchmarks to run.
    pub benchmarks: Vec<Benchmark>,
}

impl Default for ExperimentArgs {
    fn default() -> Self {
        Self {
            writes: 20_000,
            lines: 256,
            seed: 42,
            cores: 1,
            benchmarks: Benchmark::ALL.to_vec(),
        }
    }
}

/// The figure binaries' flag table, as in the crate docs.
pub const USAGE: &str = "\
--writes N        writebacks per benchmark (default 20000)
--lines N         working-set lines per core (default 256)
--seed N          RNG seed (default 42)
--cores N         cores in rate mode (default 1; timing studies use 8)
--benchmarks a,b  subset of benchmarks (default: all 12)
";

/// Why [`ExperimentArgs::parse_from`] returned no arguments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArgsError {
    /// `--help` or `-h` asked for the flag table.
    Help,
    /// The command line is malformed; the message names the flag.
    Usage(String),
}

impl fmt::Display for ArgsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArgsError::Help => write!(f, "help requested"),
            ArgsError::Usage(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for ArgsError {}

impl ExperimentArgs {
    /// Parses `std::env::args`. `--help` prints [`USAGE`] to stderr and
    /// exits with status 0; a malformed command line prints the error
    /// and [`USAGE`] to stderr and exits with status 2.
    #[must_use]
    pub fn parse() -> Self {
        match Self::parse_from(std::env::args().skip(1)) {
            Ok(args) => args,
            Err(ArgsError::Help) => {
                eprint!("{USAGE}");
                std::process::exit(0)
            }
            Err(e) => {
                eprintln!("error: {e}");
                eprint!("{USAGE}");
                std::process::exit(2)
            }
        }
    }

    /// Parses an explicit argument iterator.
    ///
    /// # Errors
    ///
    /// Returns [`ArgsError::Help`] for `--help` or `-h`, and
    /// [`ArgsError::Usage`] naming the flag for an unknown flag, a
    /// missing or malformed value, an unknown benchmark, or a zero
    /// `--lines` or `--cores`.
    pub fn parse_from<I: IntoIterator<Item = String>>(args: I) -> Result<Self, ArgsError> {
        let mut out = Self::default();
        let mut iter = args.into_iter();
        while let Some(flag) = iter.next() {
            if flag == "--help" || flag == "-h" {
                return Err(ArgsError::Help);
            }
            let value = iter
                .next()
                .ok_or_else(|| ArgsError::Usage(format!("flag {flag} requires a value")));
            match flag.as_str() {
                "--writes" => out.writes = number(&flag, &value?)?,
                "--lines" => out.lines = positive(&flag, number(&flag, &value?)?)?,
                "--seed" => out.seed = number(&flag, &value?)?,
                "--cores" => out.cores = positive(&flag, number(&flag, &value?)?)?,
                "--benchmarks" => {
                    out.benchmarks = value?
                        .split(',')
                        .map(|n| {
                            Benchmark::from_name(n.trim())
                                .map_err(|e| ArgsError::Usage(format!("{flag}: {e}")))
                        })
                        .collect::<Result<_, _>>()?;
                }
                _ => return Err(ArgsError::Usage(format!("unknown flag {flag}"))),
            }
        }
        Ok(out)
    }

    /// Builds the trace config for one benchmark.
    #[must_use]
    pub fn trace_config(&self, benchmark: Benchmark) -> TraceConfig {
        TraceConfig::new(benchmark)
            .lines(self.lines)
            .writes(self.writes)
            .cores(self.cores)
            .seed(self.seed)
    }

    /// Generates the trace for one benchmark.
    #[must_use]
    pub fn trace(&self, benchmark: Benchmark) -> Trace {
        self.trace_config(benchmark).generate()
    }
}

/// `value` as the number `flag` takes.
fn number<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, ArgsError> {
    value.parse().map_err(|_| {
        ArgsError::Usage(format!("{flag}: expected a non-negative integer, got {value:?}"))
    })
}

/// `n`, unless it is zero.
fn positive<T: Default + PartialEq>(flag: &str, n: T) -> Result<T, ArgsError> {
    if n == T::default() {
        return Err(ArgsError::Usage(format!("{flag} must be at least 1")));
    }
    Ok(n)
}

/// Runs `f` for every benchmark as one sharded sweep (one shard per
/// available core, results in benchmark order).
///
/// When stderr is a terminal a live `benchmarks: N/M cells` progress
/// line is drawn there; TSV output on stdout is unaffected.
pub fn per_benchmark<T, F>(benchmarks: &[Benchmark], f: F) -> Vec<(Benchmark, T)>
where
    T: Send,
    F: Fn(Benchmark) -> T + Sync,
{
    let sweep = ParallelSweep::new();
    let shards = sweep.shards().min(benchmarks.len()).max(1);
    let progress = SweepProgress::new("benchmarks", benchmarks.len(), shards)
        .live(std::io::stderr().is_terminal());
    sweep.map(benchmarks, Some(&progress), |_, &b| (b, f(b)))
}

/// Runs one (scheme, trace) simulation.
#[must_use]
pub fn run_scheme(scheme: SchemeConfig, trace: &Trace) -> SimResult {
    run_config(SimConfig::with_scheme(scheme), trace)
}

/// Runs one simulation with a full custom config.
///
/// # Panics
///
/// Panics if the run fails, which no flag can cause: every config is
/// built in code, and each wear config covers `lines × cores` lines,
/// which bounds every address the generator writes.
#[must_use]
pub fn run_config(config: SimConfig, trace: &Trace) -> SimResult {
    Simulator::new(config)
        .run_source(&mut TraceSource::new(trace))
        .expect("figure configs are built in code and cover every generated line")
}

/// Formats a fraction as a percentage with one decimal.
#[must_use]
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

/// Prints a TSV header row.
pub fn tsv_header(columns: &[&str]) {
    println!("{}", columns.join("\t"));
}

/// Prints a TSV data row.
pub fn tsv_row(cells: &[String]) {
    println!("{}", cells.join("\t"));
}

/// Geometric mean (the paper's speedup aggregation).
///
/// # Panics
///
/// Panics on an empty slice.
#[must_use]
pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geomean of empty slice");
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    (log_sum / values.len() as f64).exp()
}

/// Arithmetic mean.
///
/// # Panics
///
/// Panics on an empty slice.
#[must_use]
pub fn mean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "mean of empty slice");
    values.iter().sum::<f64>() / values.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<ExperimentArgs, ArgsError> {
        ExperimentArgs::parse_from(args.iter().map(ToString::to_string))
    }

    /// The error for `args`, which must fail with a usage message.
    fn usage_error(args: &[&str]) -> String {
        match parse(args) {
            Err(ArgsError::Usage(msg)) => msg,
            other => panic!("{args:?}: expected a usage error, got {other:?}"),
        }
    }

    #[test]
    fn parse_defaults_and_overrides() {
        let args = parse(&[]).unwrap();
        assert_eq!(args.writes, 20_000);
        assert_eq!(args.benchmarks.len(), 12);

        let args = parse(&["--writes", "100", "--seed", "7", "--benchmarks", "libq,mcf"]).unwrap();
        assert_eq!(args.writes, 100);
        assert_eq!(args.seed, 7);
        assert_eq!(args.benchmarks, vec![Benchmark::Libquantum, Benchmark::Mcf]);
    }

    #[test]
    fn unknown_flag_is_an_error() {
        assert_eq!(usage_error(&["--bogus"]), "unknown flag --bogus");
    }

    #[test]
    fn help_is_not_a_usage_error() {
        assert_eq!(parse(&["--help"]).unwrap_err(), ArgsError::Help);
        assert_eq!(parse(&["--writes", "5", "-h"]).unwrap_err(), ArgsError::Help);
    }

    #[test]
    fn missing_value_is_an_error() {
        assert_eq!(usage_error(&["--writes"]), "flag --writes requires a value");
    }

    #[test]
    fn non_numeric_value_is_an_error() {
        let msg = usage_error(&["--seed", "forty"]);
        assert!(msg.starts_with("--seed: expected a non-negative integer"), "{msg}");
        assert!(usage_error(&["--cores", "300"]).starts_with("--cores:"), "u8 overflow");
    }

    #[test]
    fn unknown_benchmark_is_an_error() {
        assert!(usage_error(&["--benchmarks", "mcf,nope"]).starts_with("--benchmarks:"));
    }

    #[test]
    fn zero_lines_or_cores_is_an_error() {
        assert_eq!(usage_error(&["--lines", "0"]), "--lines must be at least 1");
        assert_eq!(usage_error(&["--cores", "0"]), "--cores must be at least 1");
    }

    #[test]
    fn means() {
        assert!((mean(&[1.0, 3.0]) - 2.0).abs() < 1e-12);
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn per_benchmark_preserves_order() {
        let out = per_benchmark(&Benchmark::ALL, |b| b.name().len());
        assert_eq!(out.len(), 12);
        for (i, (b, _)) in out.iter().enumerate() {
            assert_eq!(*b, Benchmark::ALL[i]);
        }
    }
}
