//! Peak-memory and throughput probe: materialised vs streaming runs.
//!
//! Usage: `stream_bench <materialised|streaming> <writes>`
//!
//! Runs one DEUCE simulation over a synthetic Mcf workload of the given
//! size and prints a single JSON object on stdout. The materialised mode
//! generates the whole trace in RAM first and runs `run_source` over a
//! `TraceSource`; the streaming mode drives `run_source` straight from
//! the generator so the trace is never resident. Run each mode in its own process: peak
//! resident memory is read from `VmHWM` in `/proc/self/status`, which is
//! a per-process high-water mark.
//!
//! The JSON includes the flip counters and the simulated-time bit
//! pattern so the caller can assert the two modes are bit-identical
//! (see `scripts/bench_stream.sh`).

use deuce::schemes::SchemeKind;
use deuce::sim::{SimConfig, SimResult, Simulator};
use deuce::trace::{Benchmark, TraceConfig, TraceSource};
use std::time::Instant;

/// Per-process peak resident set in bytes (`VmHWM`), or 0 off-Linux.
fn peak_resident_bytes() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: u64 = rest.trim().trim_end_matches("kB").trim().parse().unwrap_or(0);
            return kb * 1024;
        }
    }
    0
}

fn workload(writes: u64) -> TraceConfig {
    TraceConfig::new(Benchmark::Mcf).lines(65_536).writes(writes as usize).cores(4).seed(7)
}

fn main() {
    let mut args = std::env::args().skip(1);
    let mode = args.next().unwrap_or_default();
    let writes: u64 = args.next().and_then(|w| w.parse().ok()).unwrap_or(0);
    if writes == 0 || !matches!(mode.as_str(), "materialised" | "streaming") {
        eprintln!("usage: stream_bench <materialised|streaming> <writes>");
        std::process::exit(2);
    }

    let simulator = Simulator::new(SimConfig::new(SchemeKind::Deuce));
    let start = Instant::now();
    let result: SimResult = match mode.as_str() {
        "materialised" => simulator.run_source(&mut TraceSource::new(&workload(writes).generate())),
        _ => simulator.run_source(&mut workload(writes).stream()),
    }
    .expect("a plain DEUCE run over a generated workload cannot fail");
    let elapsed = start.elapsed().as_secs_f64();

    println!(
        "{{\"mode\":\"{}\",\"writes_requested\":{},\"writes_counted\":{},\"reads\":{},\
         \"data_flips\":{},\"meta_flips\":{},\"exec_time_ns_bits\":\"{:016x}\",\
         \"elapsed_s\":{:.3},\"writes_per_sec\":{:.0},\"peak_resident_bytes\":{}}}",
        mode,
        writes,
        result.writes,
        result.reads,
        result.data_flips,
        result.meta_flips,
        result.exec_time_ns.to_bits(),
        elapsed,
        result.writes as f64 / elapsed,
        peak_resident_bytes(),
    );
}
