//! Incremental (step-at-a-time) simulation sessions.
//!
//! [`StepSession`] is the memory controller itself: it owns the four
//! stages every request passes through, in order —
//!
//! 1. **Counter** — the optional on-chip [`CounterCache`] makes the
//!    line's encryption counter available; a miss is a blocking
//!    counter-line read, a dirty eviction a counter-line writeback.
//! 2. **Scheme** — a [`LineStore`] over the configured page backend
//!    encodes the write under the session's pad engine (DEUCE, DCW,
//!    FNW, …) and reports its bit flips.
//! 3. **Timing** — the [`MemoryTimingModel`] charges the request's
//!    latency, bank occupancy and power-channel time.
//! 4. **Wear** — the optional [`WearState`] records the flipped bits
//!    under the wear-leveling rotation and runs the ECP repair ladder.
//!
//! A session is fed one [`TraceEvent`] at a time and finished
//! explicitly. `Simulator::run_source` and friends are thin loops over
//! a session, so a stepped run is bit-identical to a streamed one by
//! construction — the property the `deuce-serve` front end's
//! per-tenant determinism contract rests on.

use std::collections::HashMap;
use std::time::Instant;

use deuce_crypto::{LineAddr, OtpEngine};
use deuce_memctl::{EcpConfig, EcpRepair, RepairAction};
use deuce_nvm::{write_slots, CellArray, SlotConfig, StuckAtFaults};
use deuce_schemes::{
    ArenaBackend, FilePageBackend, LineBytes, LineMut, LineRef, LineScheme, LineStore, PageBackend,
    StateCodec, StorePageStats, WriteOutcome,
};
use deuce_telemetry::{
    Counter, FaultObservation, FlightEvent, Gauge, NullRecorder, Recorder, Stage, StoreTelemetry,
    WriteObservation,
};
use deuce_trace::{Op, TraceEvent};
use deuce_wear::{HorizontalWearLeveler, HwlMode, SecurityRefresh, StartGap};

use crate::checkpoint::RunCheckpoint;
use crate::config::{SimConfig, VerticalWl};
use crate::counter_cache::CounterCache;
use crate::result::{FaultReport, SimResult};
use crate::simulator::{RunError, Simulator};
use crate::timing::MemoryTimingModel;

/// What one stepped event did to the simulated memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionStep {
    /// A read: queued, timed, and counted, but no line mutation.
    Read,
    /// The first write to a line — the initial placement, encrypted as
    /// it enters memory (§3.1) and not counted in the flip statistics.
    FirstTouch,
    /// A counted write through the scheme state machine.
    Write {
        /// Figure-of-merit bit flips this write cost (data + metadata,
        /// plus counter bits when the configured metric counts them).
        flips: u64,
        /// Write slots (device write-unit occupancy) consumed.
        slots: u32,
        /// Whether this write started a new DEUCE epoch.
        epoch_started: bool,
        /// Whether the wear/fault layer declared this write
        /// uncorrectable (fault injection only).
        uncorrectable: bool,
    },
}

/// The slot backend a session's store runs over: whichever of the two
/// shipped [`PageBackend`]s the configured [`crate::StoreBackend`]
/// picked. Delegates every call, so a session over this enum observes
/// the exact slot contents either backend would on its own.
#[derive(Debug)]
pub(crate) enum SessionBackend<S: LineScheme>
where
    S::State: StateCodec,
{
    /// Every page resident in RAM.
    Arena(ArenaBackend<S>),
    /// An LRU resident-page cache over a page file.
    File(FilePageBackend<S>),
}

impl<S: LineScheme> PageBackend<S> for SessionBackend<S>
where
    S::State: StateCodec,
{
    fn push(&mut self, stored: &LineBytes, shadow: Option<&LineBytes>, state: S::State) -> u32 {
        match self {
            SessionBackend::Arena(b) => b.push(stored, shadow, state),
            SessionBackend::File(b) => b.push(stored, shadow, state),
        }
    }

    fn len(&self) -> usize {
        match self {
            SessionBackend::Arena(b) => b.len(),
            SessionBackend::File(b) => b.len(),
        }
    }

    fn with_slot_mut<T>(&mut self, slot: u32, f: impl FnOnce(LineMut<'_, S::State>) -> T) -> T {
        match self {
            SessionBackend::Arena(b) => b.with_slot_mut(slot, f),
            SessionBackend::File(b) => b.with_slot_mut(slot, f),
        }
    }

    fn with_slot<T>(&self, slot: u32, f: impl FnOnce(LineRef<'_, S::State>) -> T) -> T {
        match self {
            SessionBackend::Arena(b) => b.with_slot(slot, f),
            SessionBackend::File(b) => b.with_slot(slot, f),
        }
    }

    fn per_line_bytes(&self) -> u64 {
        match self {
            SessionBackend::Arena(b) => b.per_line_bytes(),
            SessionBackend::File(b) => b.per_line_bytes(),
        }
    }

    fn resident_bytes(&self) -> u64 {
        match self {
            SessionBackend::Arena(b) => b.resident_bytes(),
            SessionBackend::File(b) => b.resident_bytes(),
        }
    }

    fn paging_stats(&self) -> Option<StorePageStats> {
        match self {
            SessionBackend::Arena(b) => b.paging_stats(),
            SessionBackend::File(b) => b.paging_stats(),
        }
    }

    fn flush(&mut self) {
        match self {
            SessionBackend::Arena(b) => b.flush(),
            SessionBackend::File(b) => b.flush(),
        }
    }

    fn flush_state(&self) -> (u64, u64) {
        match self {
            SessionBackend::Arena(b) => b.flush_state(),
            SessionBackend::File(b) => b.flush_state(),
        }
    }

    fn io_error(&self) -> Option<String> {
        match self {
            SessionBackend::Arena(b) => b.io_error(),
            SessionBackend::File(b) => b.io_error(),
        }
    }
}

/// One in-flight simulation: the controller's four stages plus the
/// running [`SimResult`], fed one event at a time.
///
/// Construct via [`Simulator::session`].
/// The session owns its engine, so it can outlive the simulator — e.g.
/// one per tenant in `deuce-serve`.
///
/// # Examples
///
/// ```
/// use deuce_schemes::SchemeKind;
/// use deuce_sim::{SessionStep, SimConfig, Simulator};
/// use deuce_trace::{LineAddr, TraceEvent};
///
/// let simulator = Simulator::new(SimConfig::new(SchemeKind::Deuce));
/// let mut session = simulator.session(1).unwrap();
/// let addr = LineAddr::new(7);
/// // First touch materialises the line; the second write is counted.
/// assert_eq!(session.step(&TraceEvent::write(0, 1, addr, [1u8; 64])),
///            SessionStep::FirstTouch);
/// assert!(matches!(session.step(&TraceEvent::write(0, 2, addr, [2u8; 64])),
///                  SessionStep::Write { .. }));
/// let result = session.finish().unwrap();
/// assert_eq!(result.writes, 1);
/// ```
#[derive(Debug)]
pub struct StepSession<S: LineScheme>
where
    S::State: StateCodec,
{
    /// Stage 1, when a counter cache is modelled.
    counters: Option<CounterCache>,
    /// Stage 2: lines materialised lazily over the configured backend.
    /// The first write to an address is the initial placement (§3.1)
    /// and is not counted.
    store: LineStore<S, SessionBackend<S>>,
    engine: OtpEngine,
    slot: SlotConfig,
    /// Stage 3.
    timing: MemoryTimingModel,
    /// Stage 4, when wear tracking is on.
    wear: Option<WearState>,
    result: SimResult,
    events_consumed: u64,
}

impl<S: LineScheme + Copy> StepSession<S>
where
    S::State: StateCodec,
{
    /// Assembles the controller for `simulator`'s configuration.
    /// `time_repairs` turns on wall-clock self-timing of the ECP repair
    /// ladder (span tracing only; never simulated time).
    ///
    /// The configuration is checked before the store backend is opened,
    /// so a rejected configuration never creates a page file.
    pub(crate) fn build(
        simulator: &Simulator<S>,
        cores: usize,
        time_repairs: bool,
    ) -> Result<Self, RunError> {
        let config = &simulator.config;
        check(config)?;
        let timing = MemoryTimingModel::with_power_channels(
            config.timing,
            config.cpu,
            config.geometry,
            cores,
            config.power_channels,
        );

        let meta_bits = simulator.scheme.metadata_bits();
        let bits_per_line = deuce_crypto::LINE_BITS as u32 + meta_bits;
        let wear = config.wear.map(|w| {
            let faults = config.faults;
            WearState {
                // With faults on, the cell array also covers the spare
                // pool — retirement moves a line's traffic there and the
                // spares wear out like any other line.
                cells: match faults {
                    Some(f) => CellArray::with_faults(
                        w.lines + f.spare_lines as usize,
                        bits_per_line,
                        StuckAtFaults::new(f.endurance, f.endurance_scale),
                    ),
                    None => CellArray::new(w.lines, bits_per_line),
                },
                repair: faults.map(|f| {
                    EcpRepair::new(
                        w.lines,
                        EcpConfig {
                            entries_per_line: f.ecp_entries,
                            spare_lines: f.spare_lines,
                        },
                    )
                }),
                lines: w.lines,
                vwl: match w.vwl {
                    VerticalWl::StartGap => {
                        Leveler::StartGap(StartGap::new(w.lines.max(2), w.gap_interval))
                    }
                    VerticalWl::SecurityRefresh => Leveler::SecurityRefresh(SecurityRefresh::new(
                        w.lines.max(2).next_power_of_two(),
                        w.gap_interval,
                        config.key_seed,
                    )),
                },
                hwl: w.hwl,
                bits_per_line,
                index_of: HashMap::new(),
                time_repairs,
                repair_wall_ns: 0,
                repair_calls: 0,
            }
        });

        let engine = simulator.engine.clone();
        let result = SimResult {
            counters_in_metric: config.metric.count_counter_bits,
            energy_params: config.energy,
            metadata_bits: meta_bits,
            faults: config.faults.map(|_| FaultReport::default()),
            aes_backend: engine.aes_backend(),
            ..SimResult::default()
        };

        Ok(Self {
            counters: config.counter_cache.map(CounterCache::new),
            store: LineStore::with_backend(simulator.scheme, simulator.backend()?),
            engine,
            slot: config.slot,
            timing,
            wear,
            result,
            events_consumed: 0,
        })
    }

    /// Feeds one event through the controller. Events must arrive in
    /// the stream's logical order; the session's result after any
    /// prefix is bit-identical to a streamed run over that prefix.
    ///
    /// # Panics
    ///
    /// Panics if a write event carries no data.
    pub fn step(&mut self, event: &TraceEvent) -> SessionStep {
        self.step_recorded(event, &mut NullRecorder)
    }

    /// [`step`](Self::step) with telemetry recording: per-stage wall
    /// time, flip/slot counters, counter-cache traffic and per-write
    /// observations flow into `rec`. With [`NullRecorder`] this
    /// monomorphises to the bare step — recording never changes the
    /// result.
    ///
    /// # Panics
    ///
    /// Panics if a write event carries no data.
    pub fn step_recorded<R: Recorder>(&mut self, event: &TraceEvent, rec: &mut R) -> SessionStep {
        self.events_consumed += 1;
        let core = usize::from(event.core);
        let (instr, line) = (event.instr, event.line);
        let clock = stage_clock::<R>();
        let data = match event.op {
            Op::Read => None,
            Op::Write => Some(event.data.as_ref().expect("write events carry data")),
        };
        self.access_counter(core, instr, line, data.is_some(), rec);
        let clock = charge::<R>(rec, Stage::Counter, clock);

        let Some(data) = data else {
            self.timing.read(core, instr, line);
            charge::<R>(rec, Stage::Timing, clock);
            if R::ENABLED {
                rec.add(Counter::Reads, 1);
            }
            self.result.reads += 1;
            return SessionStep::Read;
        };

        let Some(outcome) = self.store.write_first_touch(&self.engine, line, data) else {
            charge::<R>(rec, Stage::Scheme, clock);
            if R::ENABLED {
                rec.add(Counter::FirstTouches, 1);
                // Not a counted write, but a post-mortem wants to see
                // initial placements too.
                if rec.wants_flight() {
                    rec.flight_observed(FlightEvent {
                        write_index: 0,
                        addr: line.value(),
                        action: "first_touch",
                        flips: 0,
                        slots: 0,
                        epoch_started: false,
                        sim_ns: self.timing.exec_time_ns(),
                        cell_deaths: 0,
                        ecp_consumed: 0,
                        retired: false,
                        uncorrectable: false,
                    });
                }
            }
            return SessionStep::FirstTouch;
        };
        let slots = write_slots(&outcome.old_image, &outcome.new_image, self.slot);
        let clock = charge::<R>(rec, Stage::Scheme, clock);
        self.timing.write(core, instr, line, slots);
        let clock = charge::<R>(rec, Stage::Timing, clock);
        let faults = match &mut self.wear {
            Some(wear) => wear.record(line, &outcome),
            None => FaultEvents::default(),
        };
        charge::<R>(rec, Stage::Wear, clock);
        if R::ENABLED {
            rec.add(Counter::Writes, 1);
            rec.add(Counter::DataFlips, u64::from(outcome.flips.data));
            rec.add(Counter::MetaFlips, u64::from(outcome.flips.meta));
            rec.add(Counter::CounterFlips, u64::from(outcome.counter_flips));
            rec.add(Counter::EpochStarts, u64::from(outcome.epoch_started));
            rec.add(Counter::SlotsTotal, u64::from(slots));
        }

        let result = &mut self.result;
        result.writes += 1;
        result.data_flips += u64::from(outcome.flips.data);
        result.meta_flips += u64::from(outcome.flips.meta);
        result.counter_flips += u64::from(outcome.counter_flips);
        result.epoch_starts += u64::from(outcome.epoch_started);
        result.total_slots += u64::from(slots);
        if faults.any() {
            fold_faults(result, &faults);
            if R::ENABLED {
                rec.fault_observed(&FaultObservation {
                    sim_ns: self.timing.exec_time_ns(),
                    write_index: result.writes,
                    cell_deaths: faults.cell_deaths,
                    ecp_consumed: faults.ecp_consumed,
                    retired: faults.retired,
                    uncorrectable: faults.uncorrectable,
                });
            }
        }
        let mut flips = u64::from(outcome.flips.data) + u64::from(outcome.flips.meta);
        if result.counters_in_metric {
            flips += u64::from(outcome.counter_flips);
        }
        if R::ENABLED {
            let (hits, misses) = self.counters.as_ref().map_or((0, 0), |c| (c.hits(), c.misses()));
            rec.write_observed(&WriteObservation {
                sim_ns: self.timing.exec_time_ns(),
                flips,
                slots,
                cache_hits: hits,
                cache_misses: misses,
            });
            if rec.wants_flight() {
                rec.flight_observed(FlightEvent {
                    write_index: result.writes,
                    addr: line.value(),
                    action: "write",
                    flips,
                    slots,
                    epoch_started: outcome.epoch_started,
                    sim_ns: self.timing.exec_time_ns(),
                    cell_deaths: faults.cell_deaths,
                    ecp_consumed: faults.ecp_consumed,
                    retired: faults.retired,
                    uncorrectable: faults.uncorrectable,
                });
            }
        }
        SessionStep::Write {
            flips,
            slots,
            epoch_started: outcome.epoch_started,
            uncorrectable: faults.uncorrectable,
        }
    }

    /// Stage 1: looks up `line`'s counter and routes the cache's memory
    /// traffic into the timing model. The counter must be available
    /// before the pad can be generated, so a fill is a blocking read; a
    /// dirty eviction is an extra 1-slot write.
    fn access_counter<R: Recorder>(
        &mut self,
        core: usize,
        instr: u64,
        line: LineAddr,
        dirtying: bool,
        rec: &mut R,
    ) {
        let Some(counters) = &mut self.counters else {
            return;
        };
        let traffic = counters.access(line.value(), dirtying);
        if R::ENABLED {
            rec.add(Counter::CounterAccesses, 1);
            if traffic.fill {
                rec.add(Counter::CounterFills, 1);
            }
            if traffic.writeback {
                rec.add(Counter::CounterWritebacks, 1);
            }
            rec.residency(counters.occupancy());
        }
        let counter_line = counters.counter_line(line);
        if traffic.fill {
            self.timing.read(core, instr, counter_line);
        }
        if traffic.writeback {
            self.timing.write(core, instr, counter_line, 1);
        }
    }

    /// A [`RunCheckpoint`] capturing the session as of the last stepped
    /// event — exactly what a streamed checkpointed run would emit at
    /// this position.
    #[must_use]
    pub fn checkpoint(&self) -> RunCheckpoint {
        RunCheckpoint::capture(
            self.events_consumed,
            &self.result,
            self.timing.exec_time_ns(),
            self.store.flush_state(),
        )
    }

    /// The running result (end-of-run fields like `exec_time_ns` are
    /// only filled in by [`finish`](Self::finish)).
    #[must_use]
    pub fn result(&self) -> &SimResult {
        &self.result
    }

    /// Events stepped so far.
    #[must_use]
    pub fn events_consumed(&self) -> u64 {
        self.events_consumed
    }

    /// Whether any stepped write was declared uncorrectable by the
    /// fault layer. Always `false` without fault injection.
    #[must_use]
    pub fn uncorrectable(&self) -> bool {
        self.result
            .faults
            .as_ref()
            .is_some_and(|f| f.uncorrectable_writes > 0)
    }

    /// An order-independent fingerprint of the session's current memory
    /// image (see `LineStore::content_fingerprint`): equal fingerprints
    /// mean bit-identical stored lines, regardless of backend or
    /// materialisation order.
    #[must_use]
    pub fn content_fingerprint(&self) -> u64 {
        self.store.content_fingerprint()
    }

    /// Finalises the session: flushes the store, folds end-of-run
    /// statistics into the result, and returns it.
    ///
    /// # Errors
    ///
    /// Returns [`RunError::Store`] when the backend latched an I/O
    /// error during the session.
    pub fn finish(self) -> Result<SimResult, RunError> {
        self.finish_recorded(&mut NullRecorder)
    }

    /// [`finish`](Self::finish) with telemetry recording: emits the
    /// end-of-run store/wear/cache totals, gauges, and span attachments
    /// into `rec`. (The caller owns the enclosing `"run"` span, if any.)
    ///
    /// # Errors
    ///
    /// Returns [`RunError::Store`] when the backend latched an I/O
    /// error during the session.
    pub fn finish_recorded<R: Recorder>(mut self, rec: &mut R) -> Result<SimResult, RunError> {
        let wants_spans = R::ENABLED && rec.wants_spans();
        self.result.exec_time_ns = self.timing.exec_time_ns();
        self.result.line_store_bytes = self.store.resident_bytes();
        // End-of-run flush of dirty resident pages (no-op for the
        // arena), then collect paging statistics and surface any I/O
        // error the backend latched mid-run.
        self.store.flush();
        if let Some(error) = self.store.io_error() {
            return Err(RunError::Store(error));
        }
        self.result.store = self.store.paging_stats();
        if R::ENABLED {
            if let Some(stats) = &self.result.store {
                rec.store_totals(&StoreTelemetry {
                    page_faults: stats.page_faults,
                    page_evictions: stats.page_evictions,
                    pages_flushed: stats.pages_flushed,
                    resident_bytes: stats.resident_bytes,
                    peak_resident_bytes: stats.peak_resident_bytes,
                });
            }
        }
        if let Some(wear) = self.wear {
            // Fold the repair ladder's self-measured wall time in as a
            // child of the wear stage before the state is consumed.
            if wants_spans && wear.repair_calls > 0 {
                rec.span_attach(
                    Some("stage:wear"),
                    "ecp_repair",
                    wear.repair_wall_ns,
                    wear.repair_calls,
                );
            }
            if let (Some(report), Some(repair)) =
                (self.result.faults.as_mut(), wear.repair.as_ref())
            {
                report.spare_lines_left = repair.spares_left();
                report.ecp_entries_used =
                    (0..repair.lines()).map(|l| repair.entries_used(l)).collect();
                if R::ENABLED {
                    for &entries in &report.ecp_entries_used {
                        rec.ecp_entries_used(u64::from(entries));
                    }
                }
            }
            self.result.cells = Some(wear.cells);
        }
        if let Some(cache) = &self.counters {
            self.result.counter_cache_misses = cache.misses();
            self.result.counter_cache_writebacks = cache.writebacks();
            self.result.counter_cache_hit_ratio = cache.hit_ratio();
        }
        if R::ENABLED {
            rec.aes_backend(self.result.aes_backend.name());
            rec.gauge(Gauge::ExecTimeNs, self.result.exec_time_ns);
            rec.gauge(Gauge::EnergyPj, self.result.energy_pj());
            rec.gauge(Gauge::HitRatio, self.result.counter_cache_hit_ratio);
            rec.gauge(Gauge::MetadataBits, f64::from(self.result.metadata_bits));
            rec.gauge(Gauge::LineStoreBytes, self.result.line_store_bytes as f64);
        }
        if wants_spans {
            // Pad generation times itself inside the engine; the session
            // owns that engine, so its totals are this run's. Hang them
            // under the scheme stage where the AES work is charged.
            if let Some(pads) = self.engine.pad_timing_stats() {
                rec.span_attach(Some("stage:scheme"), "pad_generation", pads.wall_ns, pads.calls);
            }
        }
        Ok(self.result)
    }
}

/// Rejects configurations the controller cannot be built from, naming
/// the mistake.
fn check(config: &SimConfig) -> Result<(), RunError> {
    let mistake = if config.faults.is_some() && config.wear.is_none() {
        "fault injection requires wear tracking: combine SimConfig::with_faults with \
         SimConfig::with_wear"
    } else if config.counter_cache.is_some_and(|c| c.entries == 0) {
        "the counter cache needs at least one entry"
    } else if config.counter_cache.is_some_and(|c| c.counters_per_line == 0) {
        "the counter cache needs at least one counter per counter line"
    } else {
        return Ok(());
    };
    Err(RunError::Config(mistake.to_string()))
}

/// Starts the per-stage wall clock when `R` records anything.
fn stage_clock<R: Recorder>() -> Option<Instant> {
    R::ENABLED.then(Instant::now)
}

/// Charges the elapsed wall time to `stage` and restarts the clock for
/// the next stage.
///
/// `stage_ns` is also the span tracer's landing spot: a recorder with
/// span tracing on folds each charge into a `stage:*` span under the
/// current `run` span, so the session needs no span plumbing of its
/// own.
fn charge<R: Recorder>(rec: &mut R, stage: Stage, clock: Option<Instant>) -> Option<Instant> {
    let start = clock?;
    let now = Instant::now();
    rec.stage_ns(stage, u64::try_from((now - start).as_nanos()).unwrap_or(u64::MAX));
    Some(now)
}

/// Wall-clock nanoseconds since `started`, saturating.
pub(crate) fn elapsed_ns(started: Instant) -> u64 {
    u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Cell-death and repair activity one write triggered. All-zero (the
/// default) unless fault injection is on and the write killed at least
/// one cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct FaultEvents {
    /// Cells that reached their endurance threshold on this write.
    cell_deaths: u32,
    /// ECP correction entries consumed repairing those deaths.
    ecp_consumed: u32,
    /// The write exhausted the line's ECP entries and retired it to a
    /// spare line.
    retired: bool,
    /// A death could not be repaired: entries exhausted and no spare
    /// left. The line has failed.
    uncorrectable: bool,
}

impl FaultEvents {
    /// Whether anything fault-related happened on this write.
    fn any(&self) -> bool {
        *self != Self::default()
    }
}

/// Accumulates one write's fault events into the fault report.
/// `result.writes` already counts this write, so the recorded
/// first-event indices are 1-based write positions.
fn fold_faults(result: &mut SimResult, faults: &FaultEvents) {
    let report = result
        .faults
        .as_mut()
        .expect("fault events only flow when fault injection is configured");
    report.cell_deaths += u64::from(faults.cell_deaths);
    report.ecp_entries_consumed += u64::from(faults.ecp_consumed);
    report.lines_retired += u64::from(faults.retired);
    report.uncorrectable_writes += u64::from(faults.uncorrectable);
    if faults.retired && report.first_retirement_write.is_none() {
        report.first_retirement_write = Some(result.writes);
    }
    if faults.uncorrectable && report.first_uncorrectable_write.is_none() {
        report.first_uncorrectable_write = Some(result.writes);
    }
}

/// Stage 4: cell-array wear under the configured vertical and
/// horizontal levelers, with the ECP repair layer consuming any cell
/// deaths when fault injection is on.
#[derive(Debug)]
struct WearState {
    /// Per-cell write counts; covers `lines + spare_lines` physical
    /// lines when fault injection is on, `lines` otherwise.
    cells: CellArray,
    /// The ECP/retirement layer, when fault injection is on.
    repair: Option<EcpRepair>,
    /// Logical (primary-region) lines — the trace-capacity bound; the
    /// cell array may be larger (spare pool).
    lines: usize,
    vwl: Leveler,
    hwl: Option<HwlMode>,
    bits_per_line: u32,
    index_of: HashMap<u64, usize>,
    /// When span tracing is on, the repair ladder times itself here —
    /// wall clock only, never simulated time.
    time_repairs: bool,
    repair_wall_ns: u64,
    repair_calls: u64,
}

/// The vertical wear-leveling substrate in use.
#[derive(Debug)]
enum Leveler {
    StartGap(StartGap),
    SecurityRefresh(SecurityRefresh),
}

impl WearState {
    fn rotation(&self, index: usize, addr: u64) -> u32 {
        let Some(mode) = self.hwl else { return 0 };
        match &self.vwl {
            Leveler::StartGap(sg) => {
                HorizontalWearLeveler::new(mode, self.bits_per_line).rotation(sg, index, addr)
            }
            Leveler::SecurityRefresh(sr) => match mode {
                HwlMode::Algebraic => sr.hwl_rotation(index, self.bits_per_line),
                HwlMode::Hashed => {
                    // Decorrelate per line, as footnote 2 prescribes.
                    let base = u64::from(sr.hwl_rotation(index, self.bits_per_line));
                    let mut z = base ^ addr.rotate_left(17) ^ 0x94d0_49bb_1331_11eb;
                    z = (z ^ (z >> 27)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                    ((z ^ (z >> 31)) % u64::from(self.bits_per_line)) as u32
                }
            },
        }
    }

    /// Records the bit flips of `outcome` against `addr`'s cells and
    /// reports any cell deaths and repair activity the write triggered.
    fn record(&mut self, addr: LineAddr, outcome: &WriteOutcome) -> FaultEvents {
        let next = self.index_of.len();
        let lines = self.lines;
        let index = *self.index_of.entry(addr.value()).or_insert_with(|| {
            assert!(
                next < lines,
                "trace touches more than the configured {lines} wear-tracked lines"
            );
            next
        });
        let rotation = self.rotation(index, addr.value());
        // Retired lines wear their spare, not their abandoned primary.
        let physical = self.repair.as_ref().map_or(index, |r| r.resolve(index));
        let deaths =
            self.cells
                .record_write(physical, &outcome.old_image, &outcome.new_image, rotation);
        let mut events = FaultEvents::default();
        if let Some(repair) = &mut self.repair {
            events.cell_deaths = deaths.len() as u32;
            let repair_started = (self.time_repairs && !deaths.is_empty()).then(Instant::now);
            for cell in deaths {
                match repair.note_death(index, cell) {
                    RepairAction::AlreadyCovered => {}
                    RepairAction::Corrected => events.ecp_consumed += 1,
                    // Retirement moves the line to a pristine spare; any
                    // remaining deaths from this write stay behind in the
                    // abandoned physical line, so stop consuming them.
                    RepairAction::Retired { .. } => {
                        events.retired = true;
                        break;
                    }
                    RepairAction::Uncorrectable => {
                        events.uncorrectable = true;
                        break;
                    }
                }
            }
            if let Some(started) = repair_started {
                self.repair_wall_ns = self.repair_wall_ns.saturating_add(elapsed_ns(started));
                self.repair_calls += 1;
            }
        }
        match &mut self.vwl {
            Leveler::StartGap(sg) => {
                let _ = sg.record_write();
            }
            Leveler::SecurityRefresh(sr) => {
                let _ = sr.record_write();
            }
        }
        events
    }
}
