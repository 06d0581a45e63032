//! The simulator: streaming drivers over the memory controller.
//!
//! The controller itself — counter cache → scheme engine over a lazy
//! line store → timing model → wear recording, and the per-event fold
//! into a [`SimResult`] — is [`StepSession`] in [`crate::session`].
//! This module opens sessions and supplies the loops that feed them.
//!
//! The driver is streaming: [`Simulator::run_source`] pulls events
//! from any [`WriteSource`] — a seeded generator, a trace file reader,
//! or an in-RAM [`Trace`] — so memory use is independent of stream
//! length. [`Simulator::run_trace`] is the trivial in-RAM delegation
//! and is bit-identical by construction. For callers that need to feed
//! events one at a time (the `deuce-serve` front end), the same loop
//! is exposed inside-out via [`Simulator::session`].
//!
//! A streamed run with wear tracking on and fault injection off records
//! wear on a scoped helper thread: the loop hands the session's wear
//! log over in stream order, and the helper's state goes back into the
//! session before it finishes. [`Simulator::session`]'s stepping keeps
//! wear inline.

use std::fmt;
use std::sync::mpsc;
use std::thread;
use std::time::Instant;

use deuce_crypto::{LineAddr, OtpEngine, SecretKey, LINE_BYTES};
use deuce_schemes::{AnyScheme, ArenaBackend, FilePageBackend, LineScheme, StateCodec};
use deuce_telemetry::{NullRecorder, Recorder};
use deuce_trace::{Trace, TraceIoError, TraceSource, WriteSource};

use crate::checkpoint::RunCheckpoint;
use crate::config::{SimConfig, StoreBackend};
use crate::result::SimResult;
use crate::session::{elapsed_ns, SessionBackend, SessionStep, StepSession, WearRecord, WearState};

/// Counted writes whose wear records the loop collects before handing
/// them to the wear helper at once.
const WEAR_LOG_RECORDS: usize = 512;

/// Handed-over wear logs the helper may lag behind the stepping thread.
const WEAR_LOGS_AHEAD: usize = 8;

/// Errors from a streaming run.
#[derive(Debug)]
pub enum RunError {
    /// The write source failed (I/O failure or malformed trace input).
    Trace(TraceIoError),
    /// Replay verification against a [`RunCheckpoint`] failed: the
    /// stream or configuration differs from the one that produced the
    /// checkpoint.
    CheckpointMismatch {
        /// Which counter diverged.
        field: &'static str,
        /// The checkpoint's value.
        expected: u64,
        /// The replayed run's value.
        found: u64,
    },
    /// The out-of-core line-store backend failed: the page file could
    /// not be created, or an I/O error was latched during the run (the
    /// scheme hot loop is infallible, so backends swallow I/O errors
    /// and surface the first one here at end of run).
    Store(String),
    /// The [`SimConfig`] cannot be simulated (for example fault
    /// injection without wear tracking, or an empty counter cache).
    /// Reported when a session is opened, before any store is created.
    Config(String),
    /// The stream touched more distinct lines than wear tracking was
    /// configured for ([`crate::WearConfig::lines`]). Wear stops
    /// recording at the first extra line; the run fails when it
    /// finishes.
    WearCapacity {
        /// The configured wear-tracked line count.
        lines: usize,
    },
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::Trace(e) => write!(f, "write source failed: {e}"),
            RunError::CheckpointMismatch { field, expected, found } => write!(
                f,
                "checkpoint mismatch on {field}: checkpoint has {expected}, replay produced \
                 {found} (different stream or configuration)"
            ),
            RunError::Store(msg) => write!(f, "line-store backend failed: {msg}"),
            RunError::Config(msg) => write!(f, "invalid simulator configuration: {msg}"),
            RunError::WearCapacity { lines } => write!(
                f,
                "the stream touches more than the configured {lines} wear-tracked lines"
            ),
        }
    }
}

impl std::error::Error for RunError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RunError::Trace(e) => Some(e),
            RunError::CheckpointMismatch { .. }
            | RunError::Store(_)
            | RunError::Config(_)
            | RunError::WearCapacity { .. } => None,
        }
    }
}

impl From<TraceIoError> for RunError {
    fn from(e: TraceIoError) -> Self {
        RunError::Trace(e)
    }
}

/// How [`Simulator`] treats checkpoints during one streaming run.
struct CheckpointPlan<'a> {
    /// Emit a checkpoint every this many counted writes (and one at
    /// stream end). 0 disables periodic emission.
    every_writes: u64,
    /// Receives each emitted checkpoint.
    sink: Option<&'a mut dyn FnMut(&RunCheckpoint)>,
    /// Verify the replay against this checkpoint when the stream
    /// reaches its position.
    verify: Option<&'a RunCheckpoint>,
}

impl CheckpointPlan<'_> {
    fn none() -> Self {
        CheckpointPlan { every_writes: 0, sink: None, verify: None }
    }
}

/// Runs traces under one configuration.
///
/// Lines are instantiated lazily: the first write to an address is
/// treated as the initial placement (encrypted as it enters memory, per
/// §3.1) and is *not* counted in the flip statistics — matching how
/// [`deuce_trace::TraceStats`] skips each line's first write.
///
/// The scheme parameter `S` defaults to the runtime-dispatched
/// [`AnyScheme`], which [`new`](Simulator::new) selects from
/// `config.scheme` — the path the CLI and sweeps use. Pinning a concrete
/// scheme type with [`with_line_scheme`](Simulator::with_line_scheme)
/// monomorphises the whole hot loop for that scheme; both paths are
/// bit-identical (asserted by the `scheme_parity` golden-fixture test).
#[derive(Debug)]
pub struct Simulator<S: LineScheme = AnyScheme> {
    pub(crate) config: SimConfig,
    pub(crate) engine: OtpEngine,
    pub(crate) scheme: S,
}

impl Simulator {
    /// Creates a simulator dispatching on `config.scheme` at runtime.
    #[must_use]
    pub fn new(config: SimConfig) -> Self {
        let scheme = AnyScheme::from_config(&config.scheme);
        Self::with_line_scheme(config, scheme)
    }
}

impl<S: LineScheme + Copy> Simulator<S>
where
    S::State: StateCodec,
{
    /// Creates a simulator whose hot loop is monomorphised for `scheme`.
    ///
    /// `config.scheme` still governs everything *around* the line scheme
    /// (counter cache, wear, timing); `scheme` governs how each line is
    /// encoded. [`new`](Simulator::new) keeps them consistent
    /// automatically; callers pinning a concrete scheme are responsible
    /// for passing one matching `config.scheme`.
    #[must_use]
    pub fn with_line_scheme(config: SimConfig, scheme: S) -> Self {
        let mut engine = OtpEngine::new(&SecretKey::from_seed(config.key_seed));
        if config.pad_timing {
            engine = engine.with_pad_timing();
        }
        Self { config, engine, scheme }
    }

    /// The configuration in use.
    #[must_use]
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Drives a trace through the full stack and aggregates every metric.
    ///
    /// # Panics
    ///
    /// Panics with the [`RunError`]'s text where
    /// [`run_source`](Self::run_source) would return one: the trace
    /// touches more distinct lines than [`crate::WearConfig::lines`],
    /// the configuration is rejected, or a configured page-file store
    /// backend fails on I/O.
    #[must_use]
    pub fn run_trace(&self, trace: &Trace) -> SimResult {
        self.run_trace_recorded(trace, &mut NullRecorder)
    }

    /// Like [`run_trace`](Self::run_trace), but streams structured
    /// telemetry into `rec` as the trace plays: per-write observations
    /// (figure-of-merit flips, slots, simulated time, counter-cache
    /// traffic) plus end-of-run gauges. Recording never changes the
    /// result — a run with any recorder is bit-identical to one with
    /// [`NullRecorder`], which monomorphises this back into the plain
    /// uninstrumented loop.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`run_trace`](Self::run_trace).
    #[must_use]
    pub fn run_trace_recorded<R: Recorder>(&self, trace: &Trace, rec: &mut R) -> SimResult {
        let mut source = TraceSource::new(trace);
        match self.drive(&mut source, rec, CheckpointPlan::none()) {
            Ok(result) => result,
            // In-RAM sources cannot fail, so the only errors left are a
            // rejected configuration, wear capacity and the page-file
            // store backend.
            Err(e) => panic!("trace run failed: {e}"),
        }
    }

    /// Drives any [`WriteSource`] through the full stack — the
    /// bounded-memory entry point: a 100M-write generator or file
    /// stream runs in O(working set), not O(stream length), and is
    /// bit-identical to [`run_trace`](Self::run_trace) on the
    /// materialised equivalent.
    ///
    /// # Errors
    ///
    /// Returns [`RunError::Trace`] when the source fails (I/O failure
    /// or malformed trace input), [`RunError::Config`] when the
    /// configuration is rejected, [`RunError::Store`] when the
    /// page-file store backend fails, and [`RunError::WearCapacity`]
    /// when the stream touches more distinct lines than
    /// [`crate::WearConfig::lines`].
    pub fn run_source<Src: WriteSource + ?Sized>(
        &self,
        source: &mut Src,
    ) -> Result<SimResult, RunError> {
        self.drive(source, &mut NullRecorder, CheckpointPlan::none())
    }

    /// [`run_source`](Self::run_source) with telemetry recording (see
    /// [`run_trace_recorded`](Self::run_trace_recorded)).
    ///
    /// # Errors
    ///
    /// As [`run_source`](Self::run_source).
    pub fn run_source_recorded<Src: WriteSource + ?Sized, R: Recorder>(
        &self,
        source: &mut Src,
        rec: &mut R,
    ) -> Result<SimResult, RunError> {
        self.drive(source, rec, CheckpointPlan::none())
    }

    /// [`run_source`](Self::run_source) emitting a [`RunCheckpoint`]
    /// into `sink` every `every_writes` counted writes, plus one at
    /// stream end. Checkpoints are observation only — the result is
    /// bit-identical with and without them.
    ///
    /// # Errors
    ///
    /// As [`run_source`](Self::run_source).
    pub fn run_source_checkpointed<Src: WriteSource + ?Sized, R: Recorder>(
        &self,
        source: &mut Src,
        rec: &mut R,
        every_writes: u64,
        sink: &mut dyn FnMut(&RunCheckpoint),
    ) -> Result<SimResult, RunError> {
        self.drive(
            source,
            rec,
            CheckpointPlan { every_writes, sink: Some(sink), verify: None },
        )
    }

    /// Resumes a run from a checkpoint by deterministic replay: drives
    /// `source` from the beginning and, when the stream reaches the
    /// checkpoint's position, verifies every counter matches before
    /// continuing to the end. This trades replay compute for guaranteed
    /// correctness — a changed config, trace file, or binary is
    /// *detected*, never silently folded into wrong results. (Skipping
    /// completed work wholesale is the manifest layer's job, which
    /// resumes at whole-cell granularity.)
    ///
    /// # Errors
    ///
    /// Returns [`RunError::CheckpointMismatch`] when the replay
    /// diverges from `from` (including a stream shorter than the
    /// checkpoint position), and otherwise as
    /// [`run_source`](Self::run_source).
    pub fn resume_source<Src: WriteSource + ?Sized, R: Recorder>(
        &self,
        source: &mut Src,
        rec: &mut R,
        from: &RunCheckpoint,
    ) -> Result<SimResult, RunError> {
        self.drive(
            source,
            rec,
            CheckpointPlan { every_writes: 0, sink: None, verify: Some(from) },
        )
    }

    /// Opens the configured store backend. A page file's blank state,
    /// for pages that fail to load, is the scheme's state for a zero
    /// line, taken on an engine clone so the pad never counts in the
    /// run's pad timing.
    pub(crate) fn backend(&self) -> Result<SessionBackend<S>, RunError> {
        let StoreBackend::File(file) = &self.config.store else {
            return Ok(SessionBackend::Arena(ArenaBackend::new()));
        };
        let (_, blank) = self.scheme.init(&self.engine.clone(), LineAddr::new(0), &[0; LINE_BYTES]);
        FilePageBackend::create(&file.path, file.resident_pages, blank)
            .map(SessionBackend::File)
            .map_err(|e| RunError::Store(format!("create page file {}: {e}", file.path.display())))
    }

    /// Opens a step-at-a-time session: feed it
    /// [`deuce_trace::TraceEvent`]s in stream order and
    /// [`finish`](StepSession::finish) it for the [`SimResult`]. The
    /// stepped run is bit-identical to
    /// [`run_source`](Self::run_source) over the same event sequence.
    /// `cores` is the stream's core count (what
    /// [`WriteSource::cores`] would report).
    ///
    /// The session owns a clone of the engine, so it can outlive the
    /// simulator and move across threads — the shape `deuce-serve`
    /// uses, one session per tenant.
    ///
    /// # Errors
    ///
    /// Returns [`RunError::Config`] when the configuration is rejected,
    /// and [`RunError::Store`] when a configured page-file store backend
    /// cannot be created.
    pub fn session(&self, cores: usize) -> Result<StepSession<S>, RunError> {
        StepSession::build(self, cores, false)
    }

    /// The one streaming drive all run entry points share: a
    /// [`StepSession`] fed from `source` by [`feed`] until it runs dry,
    /// with checkpoint emission/verification interleaved per the plan.
    /// Fault-free wear records on a helper thread meanwhile
    /// ([`feed_with_wear_helper`]).
    fn drive<Src: WriteSource + ?Sized, R: Recorder>(
        &self,
        source: &mut Src,
        rec: &mut R,
        mut plan: CheckpointPlan<'_>,
    ) -> Result<SimResult, RunError> {
        // Span tracing is double-gated: the `R::ENABLED` half vanishes
        // under `NullRecorder`, the dynamic half keeps a telemetry-only
        // run free of `Instant::now` pairs.
        let wants_spans = R::ENABLED && rec.wants_spans();
        if wants_spans {
            rec.span_begin("run");
        }

        let mut session = StepSession::build(self, source.cores(), wants_spans)?;
        if R::ENABLED {
            if session.result().faults.is_some() {
                rec.fault_injection_active();
            }
            if matches!(self.config.store, StoreBackend::File(_)) {
                rec.store_paging_active();
            }
        }

        let mut wear = session.offload_wear();
        let fed = wear.as_mut().and_then(|wear| {
            feed_with_wear_helper(wear, &mut session, source, rec, &mut plan, wants_spans)
        });
        if let Some(wear) = wear {
            session.restore_wear(wear);
        }
        match fed {
            Some(fed) => fed?,
            // No helper runs: wear, if tracked, records inline.
            None => feed(&mut session, source, rec, &mut plan, wants_spans, |_| true)?,
        }

        let result = session.finish_recorded(rec)?;
        if wants_spans {
            rec.span_end();
        }
        Ok(result)
    }
}

/// The event loop of every streamed run: steps `session` through
/// `source` to its end, emitting and verifying checkpoints per `plan`.
/// `after_write` runs after each counted write; when it returns `false`
/// the loop stops early.
fn feed<S: LineScheme + Copy, Src: WriteSource + ?Sized, R: Recorder>(
    session: &mut StepSession<S>,
    source: &mut Src,
    rec: &mut R,
    plan: &mut CheckpointPlan<'_>,
    wants_spans: bool,
    mut after_write: impl FnMut(&mut StepSession<S>) -> bool,
) -> Result<(), RunError>
where
    S::State: StateCodec,
{
    let mut last_emitted: Option<u64> = None;
    loop {
        let pull_started = wants_spans.then(Instant::now);
        let next = source.next_event()?;
        if let Some(started) = pull_started {
            rec.span_attach(Some("run"), "source", elapsed_ns(started), 1);
        }
        let Some(event) = next else { break };
        if let SessionStep::Write { .. } = session.step_recorded(&event, rec) {
            if !after_write(session) {
                return Ok(());
            }
            if plan.every_writes > 0 && session.result().writes.is_multiple_of(plan.every_writes) {
                if let Some(sink) = plan.sink.as_mut() {
                    let cp_started = wants_spans.then(Instant::now);
                    sink(&session.checkpoint());
                    if let Some(started) = cp_started {
                        rec.span_attach(Some("run"), "checkpoint", elapsed_ns(started), 1);
                    }
                    last_emitted = Some(session.events_consumed());
                }
            }
        }
        if let Some(expected) = plan.verify {
            if session.events_consumed() == expected.events_consumed {
                verify_checkpoint(expected, &session.checkpoint())?;
                plan.verify = None;
            }
        }
    }
    if let Some(expected) = plan.verify {
        // The stream ended before reaching the checkpoint position.
        return Err(RunError::CheckpointMismatch {
            field: "events_consumed",
            expected: expected.events_consumed,
            found: session.events_consumed(),
        });
    }
    if let Some(sink) = plan.sink.as_mut() {
        if last_emitted != Some(session.events_consumed()) {
            let cp_started = wants_spans.then(Instant::now);
            sink(&session.checkpoint());
            if let Some(started) = cp_started {
                rec.span_attach(Some("run"), "checkpoint", elapsed_ns(started), 1);
            }
        }
    }
    Ok(())
}

/// Runs [`feed`] while a scoped helper thread records `session`'s
/// fault-free wear into `wear`. The loop hands the session's wear log
/// over every [`WEAR_LOG_RECORDS`] counted writes, through a bounded
/// queue that returns emptied logs for reuse, and once more at end of
/// stream; the helper records the logs in the order it receives them,
/// which is stream order. Returns `None`, having stepped nothing, if
/// the helper cannot be started.
///
/// Only a panic ends the helper while the loop still holds the queue;
/// the loop then stops, and the panic resumes here with its payload. A
/// panic or error in the loop drops the queue, which ends the helper,
/// so neither side waits on the other.
fn feed_with_wear_helper<S: LineScheme + Copy, Src: WriteSource + ?Sized, R: Recorder>(
    wear: &mut WearState,
    session: &mut StepSession<S>,
    source: &mut Src,
    rec: &mut R,
    plan: &mut CheckpointPlan<'_>,
    wants_spans: bool,
) -> Option<Result<(), RunError>>
where
    S::State: StateCodec,
{
    thread::scope(|scope| {
        let (logs, full) = mpsc::sync_channel::<Vec<WearRecord>>(WEAR_LOGS_AHEAD);
        let (spent, empty) = mpsc::channel();
        let helper = thread::Builder::new()
            .name("deuce-wear".into())
            .spawn_scoped(scope, move || {
                for mut log in full {
                    for record in &log {
                        record.record_into(wear);
                    }
                    log.clear();
                    // The loop may have stopped taking logs back.
                    let _ = spent.send(log);
                }
            })
            .ok()?;
        let hand_over = |session: &mut StepSession<S>| {
            let empty = empty
                .try_recv()
                .unwrap_or_else(|_| Vec::with_capacity(WEAR_LOG_RECORDS));
            logs.send(session.swap_wear_log(empty)).is_ok()
        };
        let fed = feed(session, source, rec, plan, wants_spans, |session| {
            session.wear_log_len() < WEAR_LOG_RECORDS || hand_over(session)
        });
        if fed.is_ok() {
            hand_over(session);
        }
        drop(logs);
        if let Err(payload) = helper.join() {
            std::panic::resume_unwind(payload);
        }
        Some(fed)
    })
}

/// Compares a replayed fingerprint against the checkpoint, field by
/// field, naming the first divergence.
fn verify_checkpoint(expected: &RunCheckpoint, found: &RunCheckpoint) -> Result<(), RunError> {
    let fields: [(&'static str, u64, u64); 10] = [
        ("reads", expected.reads, found.reads),
        ("writes", expected.writes, found.writes),
        ("data_flips", expected.data_flips, found.data_flips),
        ("meta_flips", expected.meta_flips, found.meta_flips),
        ("counter_flips", expected.counter_flips, found.counter_flips),
        ("epoch_starts", expected.epoch_starts, found.epoch_starts),
        ("total_slots", expected.total_slots, found.total_slots),
        ("exec_time_ns_bits", expected.exec_time_ns_bits, found.exec_time_ns_bits),
        ("flushed_pages", expected.flushed_pages, found.flushed_pages),
        ("flush_fp", expected.flush_fp, found.flush_fp),
    ];
    for (field, want, got) in fields {
        if want != got {
            return Err(RunError::CheckpointMismatch { field, expected: want, found: got });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::WearConfig;
    use deuce_schemes::SchemeKind;
    use deuce_trace::{Benchmark, TraceConfig};
    use deuce_wear::HwlMode;

    fn trace(benchmark: Benchmark, writes: usize) -> Trace {
        TraceConfig::new(benchmark).lines(64).writes(writes).seed(11).generate()
    }

    #[test]
    fn encrypted_baseline_flips_half() {
        let t = trace(Benchmark::Mcf, 3000);
        let r = Simulator::new(SimConfig::new(SchemeKind::EncryptedDcw)).run_trace(&t);
        assert!((r.flip_rate() - 0.5).abs() < 0.01, "rate {}", r.flip_rate());
        assert!(r.avg_slots_per_write() > 3.9, "slots {}", r.avg_slots_per_write());
    }

    #[test]
    fn deuce_beats_encrypted_on_sparse_workload() {
        let t = trace(Benchmark::Libquantum, 3000);
        let enc = Simulator::new(SimConfig::new(SchemeKind::EncryptedDcw)).run_trace(&t);
        let deuce = Simulator::new(SimConfig::new(SchemeKind::Deuce)).run_trace(&t);
        assert!(deuce.flip_rate() < enc.flip_rate() / 2.0);
        assert!(deuce.avg_slots_per_write() < enc.avg_slots_per_write());
        assert!(deuce.exec_time_ns < enc.exec_time_ns);
    }

    #[test]
    fn unencrypted_is_cheapest() {
        let t = trace(Benchmark::Omnetpp, 2000);
        let plain = Simulator::new(SimConfig::new(SchemeKind::UnencryptedDcw)).run_trace(&t);
        let deuce = Simulator::new(SimConfig::new(SchemeKind::Deuce)).run_trace(&t);
        assert!(plain.flip_rate() < deuce.flip_rate());
        assert_eq!(plain.counter_flips, 0);
    }

    #[test]
    fn first_write_per_line_is_not_counted() {
        let t = trace(Benchmark::Astar, 500);
        let r = Simulator::new(SimConfig::new(SchemeKind::Deuce)).run_trace(&t);
        let distinct = t
            .writes()
            .map(|e| e.line.value())
            .collect::<std::collections::HashSet<_>>()
            .len() as u64;
        assert_eq!(r.writes, t.write_count() as u64 - distinct);
    }

    #[test]
    fn wear_tracking_populates_cells() {
        let t = trace(Benchmark::Libquantum, 2000);
        let cfg = SimConfig::new(SchemeKind::Deuce)
            .with_wear(WearConfig::with_hwl(64, HwlMode::Hashed).gap_interval(5));
        let r = Simulator::new(cfg).run_trace(&t);
        let cells = r.cells.as_ref().expect("wear enabled");
        assert_eq!(cells.writes_recorded(), r.writes);
        assert!(r.wear_summary().unwrap().total_bit_writes > 0);
        assert!(r.lifetime(crate::LifetimePolicy::VerticalLeveled).unwrap() > 0.0);
    }

    #[test]
    fn hwl_levels_bit_positions() {
        let t = trace(Benchmark::Libquantum, 6000);
        let no_hwl = Simulator::new(
            SimConfig::new(SchemeKind::Deuce).with_wear(WearConfig::vertical_only(64)),
        )
        .run_trace(&t);
        let hwl = Simulator::new(
            SimConfig::new(SchemeKind::Deuce)
                .with_wear(WearConfig::with_hwl(64, HwlMode::Hashed).gap_interval(2)),
        )
        .run_trace(&t);
        let skew_without = no_hwl.cells.as_ref().unwrap().wear_summary().max_over_avg();
        let life_no = no_hwl.lifetime(crate::LifetimePolicy::VerticalLeveled).unwrap();
        let life_hwl = hwl.lifetime(crate::LifetimePolicy::VerticalLeveled).unwrap();
        assert!(skew_without > 3.0, "libq should be skewed, got {skew_without}");
        assert!(
            life_hwl > life_no * 1.5,
            "HWL lifetime {life_hwl} vs {life_no}"
        );
    }

    #[test]
    fn reads_contribute_to_time_and_energy() {
        let t = TraceConfig::new(Benchmark::Mcf).lines(64).writes(1000).seed(1).generate();
        let r = Simulator::new(SimConfig::new(SchemeKind::Deuce)).run_trace(&t);
        assert!(r.reads > 0);
        assert!(r.exec_time_ns > 0.0);
        assert!(r.energy_pj() > 0.0);
        assert!(r.power_mw() > 0.0);
    }

    #[test]
    #[should_panic(expected = "wear-tracked lines")]
    fn wear_overflow_is_detected() {
        let t = trace(Benchmark::Mcf, 2000);
        let cfg = SimConfig::new(SchemeKind::Deuce).with_wear(WearConfig::vertical_only(2));
        let _ = Simulator::new(cfg).run_trace(&t);
    }

    /// Configurations the controller cannot be built from are typed
    /// errors from every fallible entry point, reported before the
    /// store backend is opened.
    #[test]
    fn rejected_configs_are_errors_not_panics() {
        use crate::config::{FaultConfig, FileStoreConfig, VerticalWl, WearConfig};
        use crate::counter_cache::CounterCacheConfig;

        let pages = std::env::temp_dir()
            .join(format!("deuce-rejected-config-{}.pages", std::process::id()));
        let cases = [
            (
                SimConfig::new(SchemeKind::Deuce).with_faults(FaultConfig::accelerated(1e-6)),
                "fault injection requires wear tracking",
            ),
            (
                SimConfig::new(SchemeKind::Deuce)
                    .with_counter_cache(CounterCacheConfig { entries: 0, counters_per_line: 16 }),
                "at least one entry",
            ),
            (
                SimConfig::new(SchemeKind::Deuce)
                    .with_counter_cache(CounterCacheConfig { entries: 4, counters_per_line: 0 }),
                "at least one counter per counter line",
            ),
            (
                SimConfig::new(SchemeKind::Deuce)
                    .with_wear(WearConfig::vertical_only(64).gap_interval(0)),
                "gap interval must be at least one write",
            ),
            (
                SimConfig::new(SchemeKind::Deuce).with_wear(
                    WearConfig::vertical_only(64)
                        .vertical_leveler(VerticalWl::SecurityRefresh)
                        .gap_interval(0),
                ),
                "gap interval must be at least one write",
            ),
        ];
        let t = trace(Benchmark::Mcf, 50);
        for (config, cause) in cases {
            let config =
                config.with_store_backend(StoreBackend::File(FileStoreConfig::new(&pages, 1)));
            let simulator = Simulator::new(config);
            let session = simulator.session(1).map(|_| ());
            let streamed = simulator.run_source(&mut TraceSource::new(&t)).map(|_| ());
            for outcome in [session, streamed] {
                match outcome {
                    Err(RunError::Config(msg)) => assert!(msg.contains(cause), "{msg}"),
                    other => panic!("expected a config error naming {cause:?}, got {other:?}"),
                }
            }
            assert!(!pages.exists(), "a rejected config must not create its page file");
        }
    }

    /// Stepping a session by hand must be bit-identical to the
    /// streamed run over the same events, and the checkpoint captured
    /// mid-session must match the streamed emission.
    #[test]
    fn stepped_session_matches_streamed_run() {
        let t = trace(Benchmark::Libquantum, 1500);
        let simulator = Simulator::new(SimConfig::new(SchemeKind::Deuce));
        let streamed = simulator.run_trace(&t);
        let cores = TraceSource::new(&t).cores();
        let mut session = simulator.session(cores).expect("arena session");
        // The session owns its engine and store, so it outlives the
        // simulator that opened it.
        drop(simulator);
        for event in t.events() {
            let _ = session.step(event);
        }
        let cp = session.checkpoint();
        let stepped = session.finish().expect("arena session cannot fail");
        assert_eq!(stepped.writes, streamed.writes);
        assert_eq!(stepped.reads, streamed.reads);
        assert_eq!(stepped.data_flips, streamed.data_flips);
        assert_eq!(stepped.meta_flips, streamed.meta_flips);
        assert_eq!(stepped.counter_flips, streamed.counter_flips);
        assert_eq!(stepped.total_slots, streamed.total_slots);
        assert_eq!(stepped.epoch_starts, streamed.epoch_starts);
        assert_eq!(stepped.exec_time_ns.to_bits(), streamed.exec_time_ns.to_bits());
        assert_eq!(stepped.line_store_bytes, streamed.line_store_bytes);
        assert_eq!(cp.exec_time_ns().to_bits(), streamed.exec_time_ns.to_bits());
    }
}
