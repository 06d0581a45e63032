//! Serve-layer saturation probe: requests/sec vs worker shard count.
//!
//! Usage: `serve_bench <shards> [tenants] [writes] [queue_depth] [batch] [seed]`
//!
//! Builds one fixed multi-tenant workload — each tenant a
//! libquantum-profile request stream in its own key domain — and
//! drives it through a `deuce_serve` service at the requested shard
//! count, one submitter thread per tenant honouring backpressure.
//! Before the timed run, every tenant's stream is replayed through a
//! plain single-threaded session; the service's per-tenant memory
//! fingerprints must match that replay bit for bit, so the throughput
//! number only counts if the determinism contract held. Prints a
//! single JSON object on stdout (see `scripts/bench_serve.sh`, which
//! sweeps shard counts and asserts the fingerprints never move).

use deuce::schemes::SchemeKind;
use deuce::serve::{request_event, Request, ServiceBuilder, SubmitError};
use deuce::sim::{SimConfig, Simulator};
use deuce::trace::{Benchmark, Op, TraceConfig, WriteSource};
use std::time::Instant;

fn tenant_config(seed: u64, index: usize) -> SimConfig {
    SimConfig::new(SchemeKind::Deuce).key_seed(seed + index as u64)
}

/// Tenant `index`'s request stream: the benchmark generator collapsed
/// onto one core with a per-tenant seed — the same mapping `deuce
/// serve` uses.
fn tenant_stream(seed: u64, index: usize, writes: usize) -> Vec<Request> {
    let mut source = TraceConfig::new(Benchmark::Libquantum)
        .lines(256)
        .writes(writes)
        .cores(1)
        .seed(seed + index as u64)
        .stream();
    let mut requests = Vec::new();
    while let Some(event) = source.next_event().expect("generator never fails") {
        requests.push(match event.op {
            Op::Read => Request::read(event.line),
            Op::Write => Request::write(event.line, event.data.expect("writes carry data")),
        });
    }
    requests
}

/// Single-threaded ground truth: the tenant's final memory fingerprint.
fn replay_fingerprint(seed: u64, index: usize, requests: &[Request]) -> u64 {
    let simulator = Simulator::new(tenant_config(seed, index));
    let mut session = simulator.session(1).expect("arena session");
    for (seq, request) in requests.iter().enumerate() {
        session.step(&request_event(seq as u64, request));
    }
    session.content_fingerprint()
}

fn main() {
    let mut args = std::env::args().skip(1);
    let shards: usize = args.next().and_then(|v| v.parse().ok()).unwrap_or(0);
    let tenants: usize = args.next().and_then(|v| v.parse().ok()).unwrap_or(64);
    let writes: usize = args.next().and_then(|v| v.parse().ok()).unwrap_or(1_250);
    let queue_depth: usize = args.next().and_then(|v| v.parse().ok()).unwrap_or(1024);
    let batch: usize = args.next().and_then(|v| v.parse().ok()).unwrap_or(32);
    let seed: u64 = args.next().and_then(|v| v.parse().ok()).unwrap_or(42);
    if shards == 0 || tenants == 0 || writes == 0 || batch == 0 || batch > queue_depth {
        eprintln!(
            "usage: serve_bench <shards> [tenants] [writes] [queue_depth] [batch] [seed] \
             (batch must fit the queue)"
        );
        std::process::exit(2);
    }

    let streams: Vec<Vec<Request>> =
        (0..tenants).map(|i| tenant_stream(seed, i, writes)).collect();
    let total: u64 = streams.iter().map(|s| s.len() as u64).sum();
    let expected: Vec<u64> = streams
        .iter()
        .enumerate()
        .map(|(i, s)| replay_fingerprint(seed, i, s))
        .collect();

    let mut builder = ServiceBuilder::new().shards(shards).queue_depth(queue_depth);
    for i in 0..tenants {
        builder = builder.tenant(format!("t{i}"), tenant_config(seed, i));
    }
    let handle = builder.start().expect("service starts");

    let start = Instant::now();
    std::thread::scope(|scope| {
        for (i, requests) in streams.iter().enumerate() {
            let id = handle.tenant(&format!("t{i}")).expect("registered");
            let handle = &handle;
            scope.spawn(move || {
                for chunk in requests.chunks(batch) {
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
            });
        }
    });
    let report = handle.shutdown();
    let elapsed = start.elapsed().as_secs_f64();

    let replay_match = report
        .tenants
        .iter()
        .zip(&expected)
        .all(|(t, e)| t.fingerprint == *e);
    if !report.clean() {
        eprintln!("serve_bench: run was not clean (panicked or degraded)");
        std::process::exit(1);
    }
    let fingerprints: Vec<String> = report
        .tenants
        .iter()
        .map(|t| format!("{:016x}", t.fingerprint))
        .collect();

    println!(
        "{{\"shards\":{},\"tenants\":{},\"requests_total\":{},\"applied\":{},\
         \"rejected\":{},\"elapsed_s\":{:.3},\"requests_per_sec\":{:.0},\
         \"fingerprints\":\"{}\",\"replay_match\":{}}}",
        shards,
        tenants,
        total,
        report.applied,
        report.rejected,
        elapsed,
        report.applied as f64 / elapsed.max(1e-9),
        fingerprints.join("-"),
        u8::from(replay_match),
    );
    if !replay_match {
        eprintln!("serve_bench: DETERMINISM FAILURE at {shards} shards");
        std::process::exit(1);
    }
}
