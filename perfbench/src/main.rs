//! `perfbench`: one process measures one workload of the repository
//! benchmark, or replays it single-threaded for reference outputs.
//!
//! ```text
//! perfbench run    --workload W --seed N --seconds S [--trace] [--size full|smoke]
//! perfbench replay --workload W --seed N [--size full|smoke]
//! ```
//!
//! Prints one JSON line: the simulated `outputs` (checked by the
//! caller against a record or a replay), and for `run` the measured
//! `metrics` — the end-to-end set, or with `--trace` the per-layer set.
//! `perfbench/run.py` is the benchmark's command; it builds this
//! binary, runs the plain, traced and replay processes, and checks them.

mod probe;
mod report;
mod serve;
mod sim;
mod workload;

use std::path::Path;
use std::process::ExitCode;

use report::Obj;
use workload::{Dims, Size, Workload};

/// What a `run` process measured.
pub struct Measured {
    /// Outputs any correct run of the seed produces, replay included
    /// (a rendered JSON object).
    pub outputs: String,
    /// Outputs only the measured configuration produces (rendered).
    pub run_outputs: String,
    pub metrics: Obj,
    pub info: Obj,
    /// Events (simulator) or requests (service) processed while timed.
    pub attempted: u64,
}

/// Set-up takes from microseconds (mcf-full) to a fifth of a second
/// (serve-zipf), so the timed repetitions alone give too few samples of
/// it for a steady median. This adds set-ups, each timed by `one`,
/// until there are 11 samples or 2 extra seconds have been spent.
pub fn more_setups(samples: &mut Vec<f64>, mut one: impl FnMut() -> f64) {
    let start = std::time::Instant::now();
    while samples.len() < 11 && start.elapsed().as_secs_f64() < 2.0 {
        samples.push(one());
    }
}

/// Page files and other scratch live here, under the working directory.
const WORK_DIR: &str = ".bench_work";

struct Args {
    replay: bool,
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    size: Size,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let replay = match args.next().as_deref() {
        Some("run") => false,
        Some("replay") => true,
        other => return Err(format!("expected `run` or `replay`, got {other:?}")),
    };
    let (mut workload, mut seed, mut seconds, mut trace, mut size) =
        (None, None, 10.0, false, Size::Full);
    while let Some(flag) = args.next() {
        if flag == "--trace" {
            trace = true;
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?);
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => seconds = value.parse().map_err(|_| format!("bad seconds {value}"))?,
            "--size" => size = Size::parse(&value).ok_or(format!("unknown size {value}"))?,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        replay,
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
        size,
    })
}

fn main() -> ExitCode {
    match real_main() {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn real_main() -> Result<String, String> {
    let args = parse_args()?;
    let dims = Dims::of(args.size);
    let work_dir = Path::new(WORK_DIR);
    std::fs::create_dir_all(work_dir).map_err(|e| format!("create {WORK_DIR}: {e}"))?;
    let mut line = Obj::default();
    if args.replay {
        let outputs = match args.workload {
            Workload::ServeZipf => serve::replay(args.seed, &dims)?,
            w => sim::replay(w, args.seed, &dims, work_dir)?,
        };
        line.raw("outputs", outputs);
        return Ok(line.render());
    }
    let measured = match args.workload {
        Workload::ServeZipf => serve::run(args.seed, &dims, args.seconds, args.trace)?,
        w => sim::run(w, args.seed, &dims, args.seconds, args.trace, work_dir)?,
    };
    line.raw("outputs", measured.outputs)
        .raw("run_outputs", measured.run_outputs)
        .obj("metrics", &measured.metrics)
        .obj("info", &measured.info)
        .int("attempted", measured.attempted);
    Ok(line.render())
}
