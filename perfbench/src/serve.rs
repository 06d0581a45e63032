//! The `serve-zipf` workload: 64 Zipf-skewed tenants on a 2-shard
//! deuce-serve, driven by one closed-loop submitter, plus the
//! single-threaded per-tenant replay its outputs are checked against.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use deuce_rng::{derive_seed, DeuceRng, Rng};
use deuce_schemes::{AnyScheme, SchemeKind};
use deuce_serve::{
    request_event, Request, ServeHandle, ServeReport, ServiceBuilder, ShardReport, SubmitError,
};
use deuce_sim::{SimConfig, SimResult, Simulator};
use deuce_telemetry::Stage;
use deuce_trace::{Benchmark, Op, TraceConfig, WriteSource};

use crate::probe::{ns_since, take_scheme_times, LayerRecorder, TimedScheme};
use crate::report::{fnv, median, percentile, ratio, Obj};
use crate::workload::{
    key_seed, Dims, SERVE_BATCH, SERVE_IN_FLIGHT, SERVE_QUEUE_DEPTH, SERVE_SHARDS, SERVE_TENANTS,
    SERVE_ZIPF_S,
};
use crate::{more_setups, Measured};

/// Longest single sleep while backing off, so applied progress (and
/// with it batch lag) is observed at least this often.
const POLL_SLICE: Duration = Duration::from_micros(100);

fn tenant_config(seed: u64, tenant: usize) -> SimConfig {
    SimConfig::new(SchemeKind::Deuce).key_seed(key_seed(seed, 1 + tenant as u64))
}

/// Tenant shares follow Zipf(s) by tenant index: tenant 0 is the hot one.
fn tenant_writes(dims: &Dims) -> Vec<usize> {
    let weights: Vec<f64> = (0..SERVE_TENANTS)
        .map(|i| 1.0 / ((i + 1) as f64).powf(SERVE_ZIPF_S))
        .collect();
    let total: f64 = weights.iter().sum();
    weights
        .iter()
        .map(|w| ((dims.serve_writes as f64 * w / total).round() as usize).max(SERVE_BATCH))
        .collect()
}

/// Tenant `i`'s requests: the generator's profiles in turn, one core,
/// reads interleaved with writes as the profile issues them.
fn tenant_stream(seed: u64, tenant: usize, writes: usize, dims: &Dims) -> Vec<Request> {
    let mut source = TraceConfig::new(Benchmark::ALL[tenant % Benchmark::ALL.len()])
        .lines(dims.serve_lines)
        .writes(writes)
        .cores(1)
        .seed(derive_seed(seed, tenant as u64))
        .stream();
    let mut requests = Vec::new();
    while let Some(event) = source
        .next_event()
        .expect("generator sources are infallible")
    {
        requests.push(match event.op {
            Op::Read => Request::read(event.line),
            Op::Write => Request::write(event.line, event.data.expect("writes carry data")),
        });
    }
    requests
}

/// Every tenant's stream plus the order the submitter visits them: one
/// entry per batch, shuffled, so the hot tenant recurs throughout.
pub struct Input {
    streams: Vec<Vec<Request>>,
    order: Vec<usize>,
}

pub fn make_input(seed: u64, dims: &Dims) -> Input {
    let streams: Vec<Vec<Request>> = tenant_writes(dims)
        .into_iter()
        .enumerate()
        .map(|(i, w)| tenant_stream(seed, i, w, dims))
        .collect();
    let mut order: Vec<usize> = streams
        .iter()
        .enumerate()
        .flat_map(|(i, s)| std::iter::repeat_n(i, s.len().div_ceil(SERVE_BATCH)))
        .collect();
    DeuceRng::seed_from_u64(derive_seed(seed, 0x6f72)).shuffle(&mut order);
    Input { streams, order }
}

fn start_service(seed: u64) -> Result<ServeHandle, String> {
    let mut builder = ServiceBuilder::new()
        .shards(SERVE_SHARDS)
        .queue_depth(SERVE_QUEUE_DEPTH);
    for i in 0..SERVE_TENANTS {
        builder = builder.tenant(format!("t{i}"), tenant_config(seed, i));
    }
    builder.start().map_err(|e| e.to_string())
}

/// Submitter-side timings, taken only in the traced run. They cover
/// disjoint parts of the submitter's timeline.
#[derive(Default, Clone, Copy)]
struct Probe {
    submit_ns: u64,
    source_ns: u64,
    stats_ns: u64,
    /// Backing off after `QueueFull`, and waiting for the last batches.
    sleep_ns: u64,
    shutdown_ns: u64,
}

fn nap(duration: Duration, probe: Option<&mut Probe>) {
    let start = Instant::now();
    std::thread::sleep(duration);
    if let Some(p) = probe {
        p.sleep_ns += ns_since(start);
    }
}

/// Accepted batches whose requests are not yet all applied, oldest
/// first: `(first submit attempt, requests accepted through it)`.
#[derive(Default)]
struct Lags {
    pending: VecDeque<(Instant, u64)>,
    done_ms: Vec<f64>,
    /// `stats().applied` at the latest poll.
    applied: u64,
}

impl Lags {
    fn poll(&mut self, handle: &ServeHandle, probe: Option<&mut Probe>) {
        let start = probe.is_some().then(Instant::now);
        let applied = handle.stats().applied;
        let now = Instant::now();
        if let (Some(p), Some(start)) = (probe, start) {
            p.stats_ns += ns_since(start);
        }
        self.applied = applied;
        while let Some(&(first, through)) = self.pending.front() {
            if applied < through {
                break;
            }
            self.done_ms.push((now - first).as_secs_f64() * 1e3);
            self.pending.pop_front();
        }
    }
}

/// One timed repetition. The `ServeReport` itself is not kept, so
/// memory does not grow with the number of repetitions.
struct Rep {
    setup_s: f64,
    wall_s: f64,
    outputs: String,
    applied: u64,
    writes: u64,
    shards: Vec<ShardReport>,
    lag_p50_ms: f64,
    lag_p90_ms: f64,
    lag_samples: u64,
    offered: u64,
    rejected: u64,
    attempts: u64,
    pulled: u64,
    probe: Option<Probe>,
}

/// One timed repetition: from the first submit until `shutdown` returns.
///
/// The submitter is a closed loop: it keeps at most [`SERVE_IN_FLIGHT`]
/// accepted-but-unapplied requests outstanding, submitting the next
/// batch only once enough earlier ones have been applied, and sleeps
/// `retry_after` whenever a submit is refused with `QueueFull`.
fn run_rep(input: &Input, handle: ServeHandle, setup_s: f64, traced: bool) -> Result<Rep, String> {
    let ids: Vec<_> = (0..SERVE_TENANTS)
        .map(|i| handle.tenant(&format!("t{i}")).expect("tenant registered"))
        .collect();
    let mut cursors = vec![0usize; SERVE_TENANTS];
    let mut lags = Lags::default();
    let mut probe = traced.then(Probe::default);
    let (mut accepted, mut offered, mut rejected, mut attempts, mut pulled) = (0u64, 0, 0, 0, 0);
    let start = Instant::now();
    for &tenant in &input.order {
        let pull_start = traced.then(Instant::now);
        let stream = &input.streams[tenant];
        let from = cursors[tenant];
        let batch = &stream[from..(from + SERVE_BATCH).min(stream.len())];
        cursors[tenant] = from + batch.len();
        pulled += batch.len() as u64;
        if let (Some(p), Some(t)) = (probe.as_mut(), pull_start) {
            p.source_ns += ns_since(t);
        }
        while accepted + batch.len() as u64 > lags.applied + SERVE_IN_FLIGHT {
            nap(POLL_SLICE, probe.as_mut());
            lags.poll(&handle, probe.as_mut());
        }
        let first_attempt = Instant::now();
        loop {
            attempts += 1;
            offered += batch.len() as u64;
            let submit_start = traced.then(Instant::now);
            let outcome = handle.submit(ids[tenant], batch);
            if let (Some(p), Some(t)) = (probe.as_mut(), submit_start) {
                p.submit_ns += ns_since(t);
            }
            match outcome {
                Ok(()) => {
                    accepted += batch.len() as u64;
                    lags.pending.push_back((first_attempt, accepted));
                    lags.poll(&handle, probe.as_mut());
                    break;
                }
                Err(SubmitError::QueueFull { retry_after, .. }) => {
                    rejected += batch.len() as u64;
                    let wake = Instant::now() + retry_after;
                    while let Some(left) = wake.checked_duration_since(Instant::now()) {
                        if left.is_zero() {
                            break;
                        }
                        nap(left.min(POLL_SLICE), probe.as_mut());
                        lags.poll(&handle, probe.as_mut());
                    }
                }
                Err(SubmitError::ShuttingDown) => return Err("service shut down mid-run".into()),
            }
        }
    }
    while !lags.pending.is_empty() {
        nap(POLL_SLICE, probe.as_mut());
        lags.poll(&handle, probe.as_mut());
    }
    let shutdown_start = Instant::now();
    let report = handle.shutdown();
    let wall_s = start.elapsed().as_secs_f64();
    if let Some(p) = probe.as_mut() {
        p.shutdown_ns = ns_since(shutdown_start);
    }
    if !report.clean() {
        return Err(format!(
            "service run was not clean: panicked shards {:?}",
            report.panicked_shards
        ));
    }
    let results = report.tenants.iter().filter_map(|t| t.result.as_ref().ok());
    Ok(Rep {
        setup_s,
        wall_s,
        outputs: report_outputs(&report)?.render(),
        applied: report.applied,
        writes: results.map(|r| r.writes).sum(),
        shards: report.shards,
        lag_p50_ms: percentile(&lags.done_ms, 0.50),
        lag_p90_ms: percentile(&lags.done_ms, 0.90),
        lag_samples: lags.done_ms.len() as u64,
        offered,
        rejected,
        attempts,
        pulled,
        probe,
    })
}

/// Per-tenant fingerprints and results, folded into comparable outputs.
fn outputs(tenants: &[(u64, u64, &SimResult)]) -> Obj {
    let fingerprints: Vec<String> = tenants.iter().map(|t| format!("{:016x}", t.0)).collect();
    let results = fnv(tenants.iter().flat_map(|&(_, applied, r)| {
        [
            applied,
            r.writes,
            r.reads,
            r.data_flips,
            r.meta_flips,
            r.counter_flips,
            r.epoch_starts,
            r.total_slots,
            r.exec_time_ns.to_bits(),
        ]
    }));
    let mut o = Obj::default();
    o.str("tenants", &tenants.len().to_string())
        .str(
            "applied",
            &tenants.iter().map(|t| t.1).sum::<u64>().to_string(),
        )
        .str(
            "writes",
            &tenants.iter().map(|t| t.2.writes).sum::<u64>().to_string(),
        )
        .str(
            "reads",
            &tenants.iter().map(|t| t.2.reads).sum::<u64>().to_string(),
        )
        .str("tenant_results_fnv", &format!("{results:016x}"))
        .str("tenant_fingerprints", &fingerprints.join("-"));
    o
}

fn report_outputs(report: &ServeReport) -> Result<Obj, String> {
    let mut tenants = Vec::with_capacity(report.tenants.len());
    for t in &report.tenants {
        let result = t
            .result
            .as_ref()
            .map_err(|e| format!("tenant {}: {e}", t.name))?;
        tenants.push((t.fingerprint, t.requests_applied, result));
    }
    Ok(outputs(&tenants))
}

pub fn run(seed: u64, dims: &Dims, seconds: f64, traced: bool) -> Result<Measured, String> {
    let mut reps: Vec<Rep> = Vec::new();
    let mut measured_s = 0.0;
    let mut last_input = None;
    while reps.len() < 3 || measured_s < seconds {
        let start = Instant::now();
        let input = make_input(seed, dims);
        let handle = start_service(seed)?;
        let setup_s = start.elapsed().as_secs_f64();
        let rep = run_rep(&input, handle, setup_s, traced)?;
        measured_s += rep.wall_s;
        reps.push(rep);
        last_input = Some(input);
    }
    let peak_rss_mb = crate::report::peak_rss_mb();
    let input = last_input.expect("at least one repetition ran");

    let out = reps[0].outputs.clone();
    for (i, rep) in reps.iter().enumerate() {
        if rep.outputs != out {
            return Err(format!(
                "repetition {i} produced different outputs than repetition 0"
            ));
        }
    }

    let walls: Vec<f64> = reps.iter().map(|r| r.wall_s).collect();
    let mut metrics = Obj::default();
    let mut info = Obj::default();
    info.int("reps", reps.len() as u64)
        .num("wall_s_median", median(&walls))
        .str("rep_wall_s", &crate::report::list(&walls));
    if traced {
        layer_metrics(seed, &input, &reps, &out, &mut metrics, &mut info)?;
    } else {
        let mut setups: Vec<f64> = reps.iter().map(|r| r.setup_s).collect();
        more_setups(&mut setups, || {
            let start = Instant::now();
            let input = make_input(seed, dims);
            let handle = start_service(seed);
            let setup_s = start.elapsed().as_secs_f64();
            drop(input);
            if let Ok(handle) = handle {
                let _ = handle.shutdown();
            }
            setup_s
        });
        let wps: Vec<f64> = reps.iter().map(|r| r.writes as f64 / r.wall_s).collect();
        let rps: Vec<f64> = reps.iter().map(|r| r.applied as f64 / r.wall_s).collect();
        let p50: Vec<f64> = reps.iter().map(|r| r.lag_p50_ms).collect();
        let p90: Vec<f64> = reps.iter().map(|r| r.lag_p90_ms).collect();
        let offered: u64 = reps.iter().map(|r| r.offered).sum();
        let rejected: u64 = reps.iter().map(|r| r.rejected).sum();
        metrics
            .num("setup_s", median(&setups))
            .num("writes_per_s", median(&wps))
            .num("req_per_s", median(&rps))
            .num("peak_rss_mb", peak_rss_mb)
            .num("lag_p50_ms", median(&p50))
            .num("lag_p90_ms", median(&p90));
        info.int("lag_samples_per_rep", reps[0].lag_samples)
            .int("setup_samples", setups.len() as u64)
            .num("reject_ratio", ratio(rejected as f64, offered as f64))
            .int("requests_per_rep", reps[0].applied);
    }
    Ok(Measured {
        outputs: out,
        run_outputs: Obj::default().render(),
        metrics,
        info,
        attempted: reps.iter().map(|r| r.applied).sum(),
    })
}

/// Steps every tenant's stream through its own single-threaded session,
/// as the replay contract of deuce-serve defines it. With `rec`, the
/// session runs the timed scheme and records into it (the traced replay
/// behind serve-zipf's simulator-layer rows).
fn replay_tenants(
    seed: u64,
    input: &Input,
    mut rec: Option<&mut ReplayLayers>,
) -> Result<Obj, String> {
    let mut finished = Vec::with_capacity(SERVE_TENANTS);
    for (i, stream) in input.streams.iter().enumerate() {
        let (fingerprint, result) = match rec.as_deref_mut() {
            None => {
                let simulator = Simulator::new(tenant_config(seed, i));
                let mut session = simulator.session(1).map_err(|e| e.to_string())?;
                for (seq, request) in stream.iter().enumerate() {
                    let _ = session.step(&request_event(seq as u64, request));
                }
                let fingerprint = session.content_fingerprint();
                (fingerprint, session.finish().map_err(|e| e.to_string())?)
            }
            Some(layers) => {
                let config = tenant_config(seed, i).with_pad_timing();
                let scheme = TimedScheme(AnyScheme::from_config(&config.scheme));
                let simulator = Simulator::with_line_scheme(config, scheme);
                let mut session = simulator.session(1).map_err(|e| e.to_string())?;
                let start = Instant::now();
                for (seq, request) in stream.iter().enumerate() {
                    let pull = Instant::now();
                    let event = request_event(seq as u64, request);
                    layers.source_ns += ns_since(pull);
                    let _ = session.step_recorded(&event, &mut layers.rec);
                }
                layers.wall_ns += ns_since(start);
                layers.events += stream.len() as u64;
                let fingerprint = session.content_fingerprint();
                let result = session
                    .finish_recorded(&mut layers.rec)
                    .map_err(|e| e.to_string())?;
                layers.resident_bytes += result.line_store_bytes;
                (fingerprint, result)
            }
        };
        finished.push((fingerprint, stream.len() as u64, result));
    }
    let tenants: Vec<(u64, u64, &SimResult)> =
        finished.iter().map(|(f, n, r)| (*f, *n, r)).collect();
    Ok(outputs(&tenants))
}

#[derive(Default)]
struct ReplayLayers {
    rec: LayerRecorder,
    source_ns: u64,
    wall_ns: u64,
    events: u64,
    resident_bytes: u64,
}

/// The reference outputs for a seed: a single-threaded replay.
pub fn replay(seed: u64, dims: &Dims) -> Result<String, String> {
    Ok(replay_tenants(seed, &make_input(seed, dims), None)?.render())
}

fn layer_metrics(
    seed: u64,
    input: &Input,
    reps: &[Rep],
    served: &str,
    m: &mut Obj,
    info: &mut Obj,
) -> Result<(), String> {
    // Shard-side totals across repetitions, from the service's reports.
    let (mut drained, mut batches, mut drain_ns, mut apply_ns) = (0u64, 0u64, 0u64, 0u64);
    let mut max_depth = 0usize;
    let mut share_max: f64 = 0.0;
    let (mut wall_ns, mut offered, mut rejected, mut attempts, mut pulled) = (0u64, 0, 0, 0, 0);
    let mut probe = Probe::default();
    for rep in reps {
        let rep_drained: u64 = rep.shards.iter().map(|s| s.drained).sum();
        for s in &rep.shards {
            drained += s.drained;
            batches += s.batches;
            drain_ns += s.drain_wall_ns;
            apply_ns += s.apply_wall_ns;
            max_depth = max_depth.max(s.max_depth);
            share_max = share_max.max(ratio(s.drained as f64, rep_drained as f64));
        }
        wall_ns += (rep.wall_s * 1e9) as u64;
        offered += rep.offered;
        rejected += rep.rejected;
        attempts += rep.attempts;
        pulled += rep.pulled;
        let p = rep.probe.expect("traced repetitions carry a probe");
        probe.submit_ns += p.submit_ns;
        probe.source_ns += p.source_ns;
        probe.stats_ns += p.stats_ns;
        probe.sleep_ns += p.sleep_ns;
        probe.shutdown_ns += p.shutdown_ns;
    }

    // The simulator layers inside the service's apply step, measured on
    // a traced single-threaded replay of the same tenant streams (the
    // service has no scheme or recorder seam of its own). An untraced
    // replay first gives the plain session cost per request.
    let plain_start = Instant::now();
    replay_tenants(seed, input, None)?;
    let plain_session_ns = ns_since(plain_start);
    let mut layers = ReplayLayers::default();
    let _ = take_scheme_times();
    let replayed = replay_tenants(seed, input, Some(&mut layers))?;
    let scheme = take_scheme_times();
    if replayed.render() != served {
        return Err("the traced replay diverged from the service's outputs".into());
    }
    let rec = &layers.rec;
    let write_events = (rec.writes + rec.first_touches) as f64;
    let counted = rec.writes as f64;
    let stage_total: u64 = rec.stage_ns.iter().sum();
    let store_ns = rec
        .stage(Stage::Scheme)
        .saturating_sub(scheme.init_ns + scheme.write_ns);
    let glue = layers
        .wall_ns
        .saturating_sub(stage_total + layers.source_ns);

    let submitter =
        probe.submit_ns + probe.source_ns + probe.stats_ns + probe.sleep_ns + probe.shutdown_ns;
    m.num(
        "trace.source_ns_per_event",
        ratio(probe.source_ns as f64, pulled as f64),
    )
    .num(
        "schemes.write_ns",
        ratio(scheme.write_ns as f64, scheme.write_calls as f64),
    )
    .num(
        "schemes.init_ns",
        ratio(scheme.init_ns as f64, scheme.init_calls as f64),
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
    .num("store.page_faults_per_write", 0.0)
    .num("store.evictions_per_write", 0.0)
    .num("store.flushes_per_write", 0.0)
    .num(
        "store.resident_mb",
        layers.resident_bytes as f64 / (1024.0 * 1024.0),
    )
    .num(
        "counter.ns_per_access",
        ratio(
            rec.stage(Stage::Counter) as f64,
            rec.reads as f64 + write_events,
        ),
    )
    .num("counter.hit_ratio", 0.0)
    .num("counter.fills_per_write", 0.0)
    .num(
        "timing.ns_per_request",
        ratio(rec.stage(Stage::Timing) as f64, rec.reads as f64 + counted),
    )
    .num(
        "wear.ns_per_write",
        ratio(rec.stage(Stage::Wear) as f64, counted),
    )
    .num(
        "sim.glue_ns_per_event",
        ratio(glue as f64, layers.events as f64),
    )
    .num(
        "serve.submit_ns_per_batch",
        ratio(probe.submit_ns as f64, attempts as f64),
    )
    .num(
        "serve.apply_ns_per_req",
        ratio(apply_ns as f64, drained as f64),
    )
    .num(
        "serve.drain_ns_per_batch",
        ratio(drain_ns as f64, batches as f64),
    )
    .num(
        "serve.shard_busy_ratio",
        ratio(
            (drain_ns + apply_ns) as f64,
            (wall_ns * SERVE_SHARDS as u64) as f64,
        ),
    )
    .num(
        "serve.batch_size_mean",
        ratio(drained as f64, batches as f64),
    )
    .num("serve.queue_depth_max", max_depth as f64)
    .num("serve.shard_share_max", share_max)
    .num("serve.reject_ratio", ratio(rejected as f64, offered as f64))
    .num(
        "bench.attributed_ratio",
        ratio(submitter as f64, wall_ns as f64),
    );

    // The time no probe names: the submitter loop's own glue, and the
    // part of a shard's apply step that stepping the session alone
    // (untraced replay) does not account for.
    let loop_glue = ratio(wall_ns.saturating_sub(submitter) as f64, pulled as f64);
    let session = ratio(plain_session_ns as f64, layers.events as f64);
    let apply_beyond_session = ratio(apply_ns as f64, drained as f64) - session;
    let (name, ns) = if apply_beyond_session > loop_glue {
        (
            "serve apply beyond the session step: reorder buffer, tenant locks, counters",
            apply_beyond_session,
        )
    } else {
        ("submitter loop glue", loop_glue)
    };
    info.str("largest_remainder", name)
        .num("largest_remainder_ns_per_event", ns)
        .num("replay_session_ns_per_event", session);
    Ok(())
}
