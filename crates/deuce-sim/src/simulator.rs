//! The simulator: the streaming loop over the memory controller.
//!
//! The controller itself — counter cache → scheme engine over a lazy
//! line store → timing model → wear recording, and the per-event fold
//! into a [`SimResult`] — is [`StepSession`] in [`crate::session`].
//! This module opens sessions and supplies the loop that feeds them.
//!
//! Runs are streaming: [`Simulator::run`] pulls events from any
//! [`WriteSource`] — a seeded generator, a trace file reader, or an
//! in-RAM [`deuce_trace::Trace`] through [`deuce_trace::TraceSource`] —
//! so memory use is independent of stream length. For callers that need
//! to feed events one at a time (the `deuce-serve` front end), the same
//! loop is exposed inside-out via [`Simulator::session`].
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
use deuce_trace::{TraceIoError, WriteSource};

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

/// What one [`Simulator::run`] does with checkpoints. Checkpoints are
/// observation only: a run's result is bit-identical under every mode.
pub enum Checkpoints<'a> {
    /// No checkpoints.
    Off,
    /// Emit a [`RunCheckpoint`] into `sink` every `every_writes` counted
    /// writes (0: none along the way), plus one at stream end.
    Emit {
        /// Counted writes between emitted checkpoints.
        every_writes: u64,
        /// Receives each emitted checkpoint.
        sink: &'a mut dyn FnMut(&RunCheckpoint),
    },
    /// Resume by deterministic replay: when the stream reaches the
    /// checkpoint's position, every counter must match it.
    Verify(&'a RunCheckpoint),
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

    /// Drives `source` through the full stack and aggregates every
    /// metric. A 100M-write generator or file stream runs in
    /// O(working set), not O(stream length).
    ///
    /// Structured telemetry streams into `rec` as the source plays:
    /// per-write observations (figure-of-merit flips, slots, simulated
    /// time, counter-cache traffic) plus end-of-run gauges. Recording
    /// never changes the result — a run with any recorder is
    /// bit-identical to one with [`NullRecorder`], which monomorphises
    /// this back into the plain uninstrumented loop.
    ///
    /// `checkpoints` picks the checkpoint mode. [`Checkpoints::Emit`]
    /// hands the sink a [`RunCheckpoint`] along the way.
    /// [`Checkpoints::Verify`] resumes from a checkpoint by
    /// deterministic replay: it drives `source` from the beginning and,
    /// when the stream reaches the checkpoint's position, checks that
    /// every counter matches before continuing to the end. This trades
    /// replay compute for guaranteed correctness — a changed config,
    /// trace file, or binary is *detected*, never silently folded into
    /// wrong results. (Skipping completed work wholesale is the manifest
    /// layer's job, which resumes at whole-cell granularity.)
    ///
    /// # Errors
    ///
    /// Returns [`RunError::Trace`] when the source fails (I/O failure
    /// or malformed trace input), [`RunError::Config`] when the
    /// configuration is rejected, [`RunError::Store`] when the
    /// page-file store backend fails, [`RunError::WearCapacity`] when
    /// the stream touches more distinct lines than
    /// [`crate::WearConfig::lines`], and [`RunError::CheckpointMismatch`]
    /// when a verified replay diverges from its checkpoint, a stream
    /// that ends before the checkpoint's position included.
    pub fn run<Src: WriteSource + ?Sized, R: Recorder>(
        &self,
        source: &mut Src,
        rec: &mut R,
        mut checkpoints: Checkpoints<'_>,
    ) -> Result<SimResult, RunError> {
        // Span tracing is double-gated: the `R::ENABLED` half vanishes
        // under `NullRecorder`, the dynamic half keeps a telemetry-only
        // run free of `Instant::now` pairs.
        let wants_spans = R::ENABLED && rec.wants_spans();
        if wants_spans {
            rec.span_begin("run");
        }

        let mut session = StepSession::build(self, source.cores(), wants_spans)?;
        let mut wear = session.offload_wear();
        let fed = wear.as_mut().and_then(|wear| {
            feed_with_wear_helper(wear, &mut session, source, rec, &mut checkpoints, wants_spans)
        });
        if let Some(wear) = wear {
            session.restore_wear(wear);
        }
        match fed {
            Some(fed) => fed?,
            // No helper runs: wear, if tracked, records inline.
            None => feed(&mut session, source, rec, &mut checkpoints, wants_spans, |_| true)?,
        }

        let result = session.finish_recorded(rec)?;
        if wants_spans {
            rec.span_end();
        }
        Ok(result)
    }

    /// [`run`](Self::run) without telemetry or checkpoints. Kept
    /// because `perfbench/` calls it; it goes once perfbench calls `run`.
    ///
    /// # Errors
    ///
    /// As [`run`](Self::run).
    pub fn run_source<Src: WriteSource + ?Sized>(
        &self,
        source: &mut Src,
    ) -> Result<SimResult, RunError> {
        self.run(source, &mut NullRecorder, Checkpoints::Off)
    }

    /// [`run`](Self::run) without checkpoints. Kept because
    /// `perfbench/` calls it; it goes once perfbench calls `run`.
    ///
    /// # Errors
    ///
    /// As [`run`](Self::run).
    pub fn run_source_recorded<Src: WriteSource + ?Sized, R: Recorder>(
        &self,
        source: &mut Src,
        rec: &mut R,
    ) -> Result<SimResult, RunError> {
        self.run(source, rec, Checkpoints::Off)
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
    /// stepped run is bit-identical to [`run`](Self::run) over the same
    /// event sequence.
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
}

/// The event loop of every streamed run: steps `session` through
/// `source` to its end, emitting and verifying checkpoints per
/// `checkpoints`. `after_write` runs after each counted write; when it
/// returns `false` the loop stops early.
fn feed<S: LineScheme + Copy, Src: WriteSource + ?Sized, R: Recorder>(
    session: &mut StepSession<S>,
    source: &mut Src,
    rec: &mut R,
    checkpoints: &mut Checkpoints<'_>,
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
            if let Checkpoints::Emit { every_writes, sink } = checkpoints {
                if *every_writes > 0 && session.result().writes.is_multiple_of(*every_writes) {
                    emit(session, rec, sink, wants_spans);
                    last_emitted = Some(session.events_consumed());
                }
            }
        }
        if let Checkpoints::Verify(expected) = checkpoints {
            if session.events_consumed() == expected.events_consumed {
                verify_checkpoint(expected, &session.checkpoint())?;
                *checkpoints = Checkpoints::Off;
            }
        }
    }
    match checkpoints {
        // The stream ended before reaching the checkpoint position.
        Checkpoints::Verify(expected) => Err(RunError::CheckpointMismatch {
            field: "events_consumed",
            expected: expected.events_consumed,
            found: session.events_consumed(),
        }),
        Checkpoints::Emit { sink, .. } if last_emitted != Some(session.events_consumed()) => {
            emit(session, rec, sink, wants_spans);
            Ok(())
        }
        _ => Ok(()),
    }
}

/// Hands `sink` the session's checkpoint, charging the time to a
/// `checkpoint` span under `run`.
fn emit<S: LineScheme + Copy, R: Recorder>(
    session: &StepSession<S>,
    rec: &mut R,
    sink: &mut dyn FnMut(&RunCheckpoint),
    wants_spans: bool,
) where
    S::State: StateCodec,
{
    let started = wants_spans.then(Instant::now);
    sink(&session.checkpoint());
    if let Some(started) = started {
        rec.span_attach(Some("run"), "checkpoint", elapsed_ns(started), 1);
    }
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
    checkpoints: &mut Checkpoints<'_>,
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
                    wear.record_log(&log);
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
        let fed = feed(session, source, rec, checkpoints, wants_spans, |session| {
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
    use deuce_nvm::SlotConfig;
    use deuce_schemes::SchemeKind;
    use deuce_trace::{Benchmark, Trace, TraceConfig, TraceSource};
    use deuce_wear::HwlMode;

    fn trace(benchmark: Benchmark, writes: usize) -> Trace {
        TraceConfig::new(benchmark).lines(64).writes(writes).seed(11).generate()
    }

    fn run(config: SimConfig, t: &Trace) -> Result<SimResult, RunError> {
        Simulator::new(config).run_source(&mut TraceSource::new(t))
    }

    #[test]
    fn encrypted_baseline_flips_half() {
        let t = trace(Benchmark::Mcf, 3000);
        let r = run(SimConfig::new(SchemeKind::EncryptedDcw), &t).unwrap();
        assert!((r.flip_rate() - 0.5).abs() < 0.01, "rate {}", r.flip_rate());
        assert!(r.avg_slots_per_write() > 3.9, "slots {}", r.avg_slots_per_write());
    }

    #[test]
    fn deuce_beats_encrypted_on_sparse_workload() {
        let t = trace(Benchmark::Libquantum, 3000);
        let enc = run(SimConfig::new(SchemeKind::EncryptedDcw), &t).unwrap();
        let deuce = run(SimConfig::new(SchemeKind::Deuce), &t).unwrap();
        assert!(deuce.flip_rate() < enc.flip_rate() / 2.0);
        assert!(deuce.avg_slots_per_write() < enc.avg_slots_per_write());
        assert!(deuce.exec_time_ns < enc.exec_time_ns);
    }

    #[test]
    fn unencrypted_is_cheapest() {
        let t = trace(Benchmark::Omnetpp, 2000);
        let plain = run(SimConfig::new(SchemeKind::UnencryptedDcw), &t).unwrap();
        let deuce = run(SimConfig::new(SchemeKind::Deuce), &t).unwrap();
        assert!(plain.flip_rate() < deuce.flip_rate());
        assert_eq!(plain.counter_flips, 0);
    }

    #[test]
    fn first_write_per_line_is_not_counted() {
        let t = trace(Benchmark::Astar, 500);
        let r = run(SimConfig::new(SchemeKind::Deuce), &t).unwrap();
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
        let r = run(cfg, &t).unwrap();
        let cells = r.cells.as_ref().expect("wear enabled");
        assert_eq!(cells.writes_recorded(), r.writes);
        assert!(r.wear_summary().unwrap().total_bit_writes > 0);
        assert!(r.lifetime(crate::LifetimePolicy::VerticalLeveled).unwrap() > 0.0);
    }

    #[test]
    fn hwl_levels_bit_positions() {
        let t = trace(Benchmark::Libquantum, 6000);
        let no_hwl =
            run(SimConfig::new(SchemeKind::Deuce).with_wear(WearConfig::vertical_only(64)), &t)
                .unwrap();
        let hwl = run(
            SimConfig::new(SchemeKind::Deuce)
                .with_wear(WearConfig::with_hwl(64, HwlMode::Hashed).gap_interval(2)),
            &t,
        )
        .unwrap();
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
        let r = run(SimConfig::new(SchemeKind::Deuce), &t).unwrap();
        assert!(r.reads > 0);
        assert!(r.exec_time_ns > 0.0);
        assert!(r.energy_pj() > 0.0);
        assert!(r.power_mw() > 0.0);
    }

    #[test]
    fn wear_overflow_is_detected() {
        let t = trace(Benchmark::Mcf, 2000);
        let cfg = SimConfig::new(SchemeKind::Deuce).with_wear(WearConfig::vertical_only(2));
        assert!(matches!(run(cfg, &t), Err(RunError::WearCapacity { lines: 2 })));
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
                SimConfig::new(SchemeKind::Deuce).with_wear(WearConfig::vertical_only(0)),
                "wear tracking needs at least one line",
            ),
            (
                SimConfig::new(SchemeKind::Deuce)
                    .with_wear(WearConfig::vertical_only(0))
                    .with_faults(FaultConfig::accelerated(1e-6)),
                "wear tracking needs at least one line",
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

    /// A write-slot configuration reaches a session only through
    /// `SlotConfig::new`, which refuses a region width of 0 (it used to
    /// divide by zero at the first counted write) and every width but
    /// 64, 128, 256 and 512. Each accepted width runs through a session
    /// and a streamed run alike.
    #[test]
    fn slot_configs_outside_the_modelled_range_cannot_reach_a_session() {
        assert!(SlotConfig::new(0, 64).is_err());
        let t = trace(Benchmark::Mcf, 400);
        let mut slots = Vec::new();
        for region_bits in [64, 128, 256, 512] {
            let mut config = SimConfig::new(SchemeKind::Deuce);
            config.slot = SlotConfig::new(region_bits, 64).expect("accepted width");
            let simulator = Simulator::new(config);
            let streamed = simulator.run_source(&mut TraceSource::new(&t)).expect("streamed run");
            let mut session = simulator.session(TraceSource::new(&t).cores()).expect("session");
            for event in t.events() {
                let _ = session.step(event);
            }
            let stepped = session.finish().expect("arena session cannot fail");
            assert_eq!(stepped.total_slots, streamed.total_slots, "{region_bits}-bit regions");
            slots.push(streamed.total_slots);
        }
        // One 512-bit region caps every write at one slot.
        assert!(slots[0] > slots[3], "{slots:?}");
    }

    /// Stepping a session by hand must be bit-identical to the
    /// streamed run over the same events, and the checkpoint captured
    /// mid-session must match the streamed emission.
    #[test]
    fn stepped_session_matches_streamed_run() {
        let t = trace(Benchmark::Libquantum, 1500);
        let simulator = Simulator::new(SimConfig::new(SchemeKind::Deuce));
        let streamed = simulator.run_source(&mut TraceSource::new(&t)).unwrap();
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
