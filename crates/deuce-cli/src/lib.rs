//! Library backing the `deuce` command-line tool.
//!
//! All command logic lives here (unit-testable); `main.rs` is a thin
//! shell. The tool drives the full simulator stack from the terminal:
//!
//! ```text
//! deuce gen --benchmark libq --writes 20000 -o libq.trace
//! deuce stats libq.trace
//! deuce run --trace libq.trace --scheme deuce
//! deuce run --benchmark mcf --scheme dyndeuce --epoch 16
//! deuce compare --benchmark gems
//! deuce run --benchmark libq --scheme deuce --telemetry run.jsonl
//! deuce report run.jsonl
//! deuce run --benchmark libq --scheme deuce --faults --endurance-scale 1e-6
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod args;
mod commands;
mod format;
mod watch;

pub use args::{
    CliError, Command, FaultArgs, GenArgs, MergeArgs, ReportArgs, RunArgs, ServeArgs, StatsArgs,
    TraceFormat, WatchArgs,
};
pub use commands::{aes_backend, compare, gen, merge, report, run, serve, stats, sweep};
pub use watch::watch;
pub use format::{RunSummary, METRIC_HEADER};

/// Entry point shared by the binary and tests.
///
/// # Errors
///
/// Returns a [`CliError`] for malformed arguments or failing I/O; the
/// binary prints it and exits non-zero.
pub fn main_with_args<I, W>(argv: I, out: &mut W) -> Result<(), CliError>
where
    I: IntoIterator<Item = String>,
    W: std::io::Write,
{
    match Command::parse(argv)? {
        Command::Gen(args) => gen(&args, out),
        Command::Stats(args) => stats(&args, out),
        Command::Run(args) => run(&args, out),
        Command::Compare(args) => compare(&args, out),
        Command::Sweep(args) => sweep(&args, out),
        Command::Merge(args) => merge(&args, out),
        Command::Report(args) => report(&args, out),
        Command::Watch(args) => watch(&args, out),
        Command::Serve(args) => serve(&args, out),
        Command::AesBackend => aes_backend(out),
        Command::Help => {
            writeln!(out, "{}", args::USAGE)?;
            Ok(())
        }
    }
}
