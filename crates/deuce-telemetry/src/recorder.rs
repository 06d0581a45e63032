//! The [`Recorder`] trait, its zero-overhead [`NullRecorder`], and the
//! collecting [`TelemetryRecorder`].
//!
//! Instrumented code is generic over `R: Recorder` and monomorphised,
//! so with [`NullRecorder`] every hook compiles to nothing: the
//! `ENABLED` associated constant is `false`, the guards around argument
//! construction fold away, and the instrumented path is the
//! uninstrumented code. [`TelemetryRecorder`] is the collecting
//! implementation: structured counters, log2-bucketed histograms of
//! flips/write, slots/write, counter-cache residency and per-stage
//! wall-time, and a windowed time-series keyed on *simulated* time so
//! its output is deterministic.

use crate::flight::{FlightEvent, FlightRecorder};
use crate::hist::Histogram;
use crate::series::{Sample, SeriesSampler};
use crate::span::SpanTrace;

/// Structured event counters, one slot per named quantity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Counter {
    /// Line reads driven through the pipeline.
    Reads,
    /// Counted line writes (excludes first touches).
    Writes,
    /// Uncounted initial placements (first write to a line).
    FirstTouches,
    /// Data-bit flips across counted writes.
    DataFlips,
    /// Metadata-bit flips across counted writes.
    MetaFlips,
    /// Counter-storage bit flips across counted writes.
    CounterFlips,
    /// DEUCE epoch starts observed.
    EpochStarts,
    /// Write slots consumed across counted writes.
    SlotsTotal,
    /// Counter-stage accesses (stage 1 present).
    CounterAccesses,
    /// Counter-line fills (counter-cache misses).
    CounterFills,
    /// Dirty counter-line writebacks.
    CounterWritebacks,
}

impl Counter {
    /// Every counter, in export order.
    pub const ALL: [Counter; 11] = [
        Counter::Reads,
        Counter::Writes,
        Counter::FirstTouches,
        Counter::DataFlips,
        Counter::MetaFlips,
        Counter::CounterFlips,
        Counter::EpochStarts,
        Counter::SlotsTotal,
        Counter::CounterAccesses,
        Counter::CounterFills,
        Counter::CounterWritebacks,
    ];

    /// Stable export name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Counter::Reads => "reads",
            Counter::Writes => "writes",
            Counter::FirstTouches => "first_touches",
            Counter::DataFlips => "data_flips",
            Counter::MetaFlips => "meta_flips",
            Counter::CounterFlips => "counter_flips",
            Counter::EpochStarts => "epoch_starts",
            Counter::SlotsTotal => "slots_total",
            Counter::CounterAccesses => "counter_accesses",
            Counter::CounterFills => "counter_fills",
            Counter::CounterWritebacks => "counter_writebacks",
        }
    }
}

/// End-of-run scalar measurements (set once, not accumulated).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Gauge {
    /// Simulated execution time in nanoseconds.
    ExecTimeNs,
    /// Total memory energy in picojoules.
    EnergyPj,
    /// Counter-cache hit ratio over the whole run.
    HitRatio,
    /// Metadata bits per line of the simulated scheme.
    MetadataBits,
    /// Resident bytes of the arena-backed line store at end of run
    /// (stored images + shadows + compact per-line state).
    LineStoreBytes,
}

impl Gauge {
    /// Every gauge, in export order.
    pub const ALL: [Gauge; 5] = [
        Gauge::ExecTimeNs,
        Gauge::EnergyPj,
        Gauge::HitRatio,
        Gauge::MetadataBits,
        Gauge::LineStoreBytes,
    ];

    /// Stable export name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Gauge::ExecTimeNs => "exec_time_ns",
            Gauge::EnergyPj => "energy_pj",
            Gauge::HitRatio => "counter_cache_hit_ratio",
            Gauge::MetadataBits => "metadata_bits",
            Gauge::LineStoreBytes => "line_store_bytes",
        }
    }
}

/// The four stages of the memory controller. A request runs them in
/// the order counter, scheme, timing, wear; the variants keep their
/// historical export order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Counter availability (cache lookup + fills/writebacks); first.
    Counter,
    /// Scheme encode and slot packing; second.
    Scheme,
    /// Cell-wear recording; last, after timing.
    Wear,
    /// Timing-model charging; third.
    Timing,
}

impl Stage {
    /// Every stage, in export order.
    pub const ALL: [Stage; 4] = [Stage::Counter, Stage::Scheme, Stage::Wear, Stage::Timing];

    /// Stable export name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Stage::Counter => "counter",
            Stage::Scheme => "scheme",
            Stage::Wear => "wear",
            Stage::Timing => "timing",
        }
    }

    /// Stable span name (`"stage:<name>"`), distinguishing the stage
    /// spans from ad-hoc spans in the same trace.
    #[must_use]
    pub fn span_name(self) -> &'static str {
        match self {
            Stage::Counter => "stage:counter",
            Stage::Scheme => "stage:scheme",
            Stage::Wear => "stage:wear",
            Stage::Timing => "stage:timing",
        }
    }
}

/// One counted write as the time-series sampler sees it: simulated
/// time plus the write's own cost and the cumulative cache statistics
/// (windows are computed from deltas).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WriteObservation {
    /// Simulated time after the write, in nanoseconds.
    pub sim_ns: f64,
    /// Bit flips this write contributed to the figure of merit.
    pub flips: u64,
    /// Write slots this write occupied.
    pub slots: u32,
    /// Cumulative counter-cache hits (0 without a counter cache).
    pub cache_hits: u64,
    /// Cumulative counter-cache misses (0 without a counter cache).
    pub cache_misses: u64,
}

/// One write's fault-injection activity: cell deaths and the repair
/// actions they triggered, stamped with simulated time and the write's
/// ordinal so time-to-first-retirement series are reconstructible.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultObservation {
    /// Simulated time after the write, in nanoseconds.
    pub sim_ns: f64,
    /// Ordinal of this counted write within the run (1-based).
    pub write_index: u64,
    /// Cells that reached their endurance threshold on this write.
    pub cell_deaths: u32,
    /// ECP entries consumed repairing those deaths.
    pub ecp_consumed: u32,
    /// The write retired its line to a spare.
    pub retired: bool,
    /// The write hit an uncorrectable death (no entry, no spare).
    pub uncorrectable: bool,
}

/// Fault-injection telemetry, materialised only when a run enables
/// fault injection so fault-free exports stay byte-identical to
/// pre-fault builds.
#[derive(Debug, Clone, Default)]
pub struct FaultTelemetry {
    /// Total cell deaths observed.
    pub cell_deaths: u64,
    /// Total ECP entries consumed.
    pub ecp_consumed: u64,
    /// Total line retirements.
    pub lines_retired: u64,
    /// Writes that hit an uncorrectable death.
    pub uncorrectable_writes: u64,
    /// Distribution of ECP entries in use per line at end of run.
    pub ecp_used_hist: Histogram,
    /// Every retirement as `(write ordinal, simulated ns)`, in order.
    pub retirements: Vec<(u64, f64)>,
    /// The first uncorrectable death as `(write ordinal, simulated
    /// ns)`, if the device reached end of life.
    pub first_uncorrectable: Option<(u64, f64)>,
}

/// Store-paging telemetry, materialised only when a run uses a paged
/// line-store backend so arena-backed exports stay byte-identical to
/// pre-paging builds (the same gating discipline as [`FaultTelemetry`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreTelemetry {
    /// Page-cache misses that materialised a page (fresh or reloaded).
    pub page_faults: u64,
    /// Pages evicted from the resident cache.
    pub page_evictions: u64,
    /// Dirty pages written back to the page file (evictions plus the
    /// end-of-run flush).
    pub pages_flushed: u64,
    /// Line-store bytes resident in RAM at end of run.
    pub resident_bytes: u64,
    /// Highest resident-byte watermark observed during the run.
    pub peak_resident_bytes: u64,
}

/// An instrumentation sink. All hooks have empty default bodies, so a
/// sink only overrides what it collects; `ENABLED == false` promises
/// every hook is a no-op and lets call sites skip argument
/// construction entirely.
pub trait Recorder {
    /// Whether this recorder observes anything. Instrumented code may
    /// guard hook-argument construction on this constant.
    const ENABLED: bool = true;

    /// Adds `delta` to a structured counter.
    fn add(&mut self, counter: Counter, delta: u64) {
        let _ = (counter, delta);
    }

    /// Sets an end-of-run gauge.
    fn gauge(&mut self, gauge: Gauge, value: f64) {
        let _ = (gauge, value);
    }

    /// Records one pipeline stage's wall-clock cost for one request, in
    /// nanoseconds. Wall time never feeds back into simulated results.
    fn stage_ns(&mut self, stage: Stage, ns: u64) {
        let _ = (stage, ns);
    }

    /// Records the counter cache's occupancy (lines resident) observed
    /// at one access.
    fn residency(&mut self, lines: u64) {
        let _ = lines;
    }

    /// Feeds one counted write to the histograms and the time-series
    /// sampler.
    fn write_observed(&mut self, obs: &WriteObservation) {
        let _ = obs;
    }

    /// Announces that the run injects faults, so fault telemetry is
    /// collected (and exported) even if no cell ever dies.
    fn fault_injection_active(&mut self) {}

    /// Feeds one write's fault activity. Only called for writes where
    /// something fault-related happened.
    fn fault_observed(&mut self, obs: &FaultObservation) {
        let _ = obs;
    }

    /// Feeds one line's end-of-run count of ECP entries in use to the
    /// per-line distribution.
    fn ecp_entries_used(&mut self, entries: u64) {
        let _ = entries;
    }

    /// Records which AES dispatch tier generated this run's pads. A
    /// host/dispatch property: every tier is bit-identical, so nothing
    /// simulated depends on it.
    fn aes_backend(&mut self, backend: &'static str) {
        let _ = backend;
    }

    /// Announces that the run pages its line store out of core, so
    /// store-paging telemetry is collected (and exported) even if no
    /// page ever faults.
    fn store_paging_active(&mut self) {}

    /// Sets the run's end-of-run store-paging totals.
    fn store_totals(&mut self, totals: &StoreTelemetry) {
        let _ = totals;
    }

    /// Whether this sink collects hierarchical spans. Callers use this
    /// (under an `ENABLED` guard) to skip the wall-clock reads that
    /// span measurement needs.
    fn wants_spans(&self) -> bool {
        false
    }

    /// Opens an enclosing span; nested spans and parentless
    /// [`span_attach`](Self::span_attach) calls fold under it.
    fn span_begin(&mut self, name: &'static str) {
        let _ = name;
    }

    /// Closes the innermost open span.
    fn span_end(&mut self) {}

    /// Folds a pre-measured child span under `parent` (`None` = the
    /// innermost open span).
    fn span_attach(
        &mut self,
        parent: Option<&'static str>,
        name: &'static str,
        wall_ns: u64,
        count: u64,
    ) {
        let _ = (parent, name, wall_ns, count);
    }

    /// Whether this sink keeps a flight-recorder ring. Callers use this
    /// (under an `ENABLED` guard) to skip event construction.
    fn wants_flight(&self) -> bool {
        false
    }

    /// Feeds one write event to the flight-recorder ring.
    fn flight_observed(&mut self, event: FlightEvent) {
        let _ = event;
    }
}

/// The zero-overhead default: nothing is recorded, and with
/// `ENABLED == false` monomorphised call sites compile the hooks away.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullRecorder;

impl Recorder for NullRecorder {
    const ENABLED: bool = false;
}

/// Configuration for [`TelemetryRecorder`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TelemetryConfig {
    /// Counted writes per time-series window (a sample is emitted every
    /// `sample_every` writes, keyed on simulated time).
    pub sample_every: u64,
    /// Picojoules per bit flip, used for the window power estimate
    /// (`0.0` reports power as 0).
    pub energy_pj_per_flip: f64,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        Self { sample_every: 64, energy_pj_per_flip: 0.0 }
    }
}

/// The collecting recorder: counters, gauges, histograms, per-stage
/// wall-time, and the deterministic time-series.
#[derive(Debug, Clone)]
pub struct TelemetryRecorder {
    config: TelemetryConfig,
    counters: [u64; Counter::ALL.len()],
    gauges: [f64; Gauge::ALL.len()],
    flips_hist: Histogram,
    slots_hist: Histogram,
    residency_hist: Histogram,
    stage_hists: [Histogram; Stage::ALL.len()],
    series: SeriesSampler,
    faults: Option<FaultTelemetry>,
    store: Option<StoreTelemetry>,
    aes_backend: Option<&'static str>,
    spans: Option<SpanTrace>,
    flight: Option<FlightRecorder>,
}

impl Default for TelemetryRecorder {
    fn default() -> Self {
        Self::new(TelemetryConfig::default())
    }
}

impl TelemetryRecorder {
    /// A fresh recorder.
    #[must_use]
    pub fn new(config: TelemetryConfig) -> Self {
        Self {
            config,
            counters: [0; Counter::ALL.len()],
            gauges: [0.0; Gauge::ALL.len()],
            flips_hist: Histogram::new(),
            slots_hist: Histogram::new(),
            residency_hist: Histogram::new(),
            stage_hists: std::array::from_fn(|_| Histogram::new()),
            series: SeriesSampler::new(config.sample_every, config.energy_pj_per_flip),
            faults: None,
            store: None,
            aes_backend: None,
            spans: None,
            flight: None,
        }
    }

    /// Enables hierarchical span tracing (off by default, so span-free
    /// recorders cost nothing extra and their exports are unchanged).
    #[must_use]
    pub fn with_spans(mut self) -> Self {
        self.spans = Some(SpanTrace::new());
        self
    }

    /// Enables the flight recorder, keeping the last `capacity` write
    /// events (off by default).
    #[must_use]
    pub fn with_flight_recorder(mut self, capacity: usize) -> Self {
        self.flight = Some(FlightRecorder::new(capacity));
        self
    }

    /// The configuration in use.
    #[must_use]
    pub fn config(&self) -> &TelemetryConfig {
        &self.config
    }

    /// Current value of a counter.
    #[must_use]
    pub fn counter(&self, counter: Counter) -> u64 {
        self.counters[counter as usize]
    }

    /// Current value of a gauge (0 until set).
    #[must_use]
    pub fn gauge_value(&self, gauge: Gauge) -> f64 {
        self.gauges[gauge as usize]
    }

    /// Histogram of figure-of-merit flips per counted write.
    #[must_use]
    pub fn flips_hist(&self) -> &Histogram {
        &self.flips_hist
    }

    /// Histogram of write slots per counted write.
    #[must_use]
    pub fn slots_hist(&self) -> &Histogram {
        &self.slots_hist
    }

    /// Histogram of counter-cache occupancy at access time.
    #[must_use]
    pub fn residency_hist(&self) -> &Histogram {
        &self.residency_hist
    }

    /// Wall-time histogram (nanoseconds per request) of one stage.
    #[must_use]
    pub fn stage_hist(&self, stage: Stage) -> &Histogram {
        &self.stage_hists[stage as usize]
    }

    /// Time-series samples collected so far.
    #[must_use]
    pub fn samples(&self) -> &[Sample] {
        self.series.samples()
    }

    /// Fault-injection telemetry, present only if the run announced
    /// fault injection (or a fault event arrived).
    #[must_use]
    pub fn faults(&self) -> Option<&FaultTelemetry> {
        self.faults.as_ref()
    }

    /// Store-paging telemetry, present only if the run announced a
    /// paged store (or totals arrived).
    #[must_use]
    pub fn store(&self) -> Option<&StoreTelemetry> {
        self.store.as_ref()
    }

    /// The AES dispatch tier the run reported, if any (the same gating
    /// discipline as the other optional sections: recorders fed by
    /// pre-dispatch drivers export byte-identically).
    #[must_use]
    pub fn aes_backend_name(&self) -> Option<&'static str> {
        self.aes_backend
    }

    /// The span trace, present only with
    /// [`with_spans`](Self::with_spans).
    #[must_use]
    pub fn spans(&self) -> Option<&SpanTrace> {
        self.spans.as_ref()
    }

    /// The flight-recorder ring, present only with
    /// [`with_flight_recorder`](Self::with_flight_recorder).
    #[must_use]
    pub fn flight(&self) -> Option<&FlightRecorder> {
        self.flight.as_ref()
    }
}

impl Recorder for TelemetryRecorder {
    fn add(&mut self, counter: Counter, delta: u64) {
        self.counters[counter as usize] += delta;
    }

    fn gauge(&mut self, gauge: Gauge, value: f64) {
        self.gauges[gauge as usize] = value;
    }

    fn stage_ns(&mut self, stage: Stage, ns: u64) {
        self.stage_hists[stage as usize].record(ns);
        if let Some(spans) = &mut self.spans {
            spans.attach(None, stage.span_name(), ns, 1);
        }
    }

    fn residency(&mut self, lines: u64) {
        self.residency_hist.record(lines);
    }

    fn write_observed(&mut self, obs: &WriteObservation) {
        self.flips_hist.record(obs.flips);
        self.slots_hist.record(u64::from(obs.slots));
        self.series.observe(obs);
        if let Some(spans) = &mut self.spans {
            spans.observe_write(obs.sim_ns);
        }
    }

    fn fault_injection_active(&mut self) {
        self.faults.get_or_insert_with(FaultTelemetry::default);
    }

    fn fault_observed(&mut self, obs: &FaultObservation) {
        let faults = self.faults.get_or_insert_with(FaultTelemetry::default);
        faults.cell_deaths += u64::from(obs.cell_deaths);
        faults.ecp_consumed += u64::from(obs.ecp_consumed);
        if obs.retired {
            faults.lines_retired += 1;
            faults.retirements.push((obs.write_index, obs.sim_ns));
        }
        if obs.uncorrectable {
            faults.uncorrectable_writes += 1;
            if faults.first_uncorrectable.is_none() {
                faults.first_uncorrectable = Some((obs.write_index, obs.sim_ns));
            }
        }
    }

    fn ecp_entries_used(&mut self, entries: u64) {
        let faults = self.faults.get_or_insert_with(FaultTelemetry::default);
        faults.ecp_used_hist.record(entries);
    }

    fn aes_backend(&mut self, backend: &'static str) {
        self.aes_backend = Some(backend);
    }

    fn store_paging_active(&mut self) {
        self.store.get_or_insert_with(StoreTelemetry::default);
    }

    fn store_totals(&mut self, totals: &StoreTelemetry) {
        *self.store.get_or_insert_with(StoreTelemetry::default) = *totals;
    }

    fn wants_spans(&self) -> bool {
        self.spans.is_some()
    }

    fn span_begin(&mut self, name: &'static str) {
        if let Some(spans) = &mut self.spans {
            spans.begin(name);
        }
    }

    fn span_end(&mut self) {
        if let Some(spans) = &mut self.spans {
            spans.end();
        }
    }

    fn span_attach(
        &mut self,
        parent: Option<&'static str>,
        name: &'static str,
        wall_ns: u64,
        count: u64,
    ) {
        if let Some(spans) = &mut self.spans {
            spans.attach(parent, name, wall_ns, count);
        }
    }

    fn wants_flight(&self) -> bool {
        self.flight.is_some()
    }

    fn flight_observed(&mut self, event: FlightEvent) {
        if let Some(flight) = &mut self.flight {
            flight.record(event);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_recorder_is_disabled_and_inert() {
        const { assert!(!NullRecorder::ENABLED) };
        let mut r = NullRecorder;
        r.add(Counter::Writes, 3);
        r.stage_ns(Stage::Scheme, 17);
        r.write_observed(&WriteObservation {
            sim_ns: 1.0,
            flips: 2,
            slots: 1,
            cache_hits: 0,
            cache_misses: 0,
        });
        assert_eq!(r, NullRecorder);
    }

    #[test]
    fn telemetry_recorder_collects_everything() {
        let mut r = TelemetryRecorder::new(TelemetryConfig {
            sample_every: 2,
            energy_pj_per_flip: 1.0,
        });
        const { assert!(TelemetryRecorder::ENABLED) };
        r.add(Counter::Writes, 1);
        r.add(Counter::Writes, 1);
        r.gauge(Gauge::ExecTimeNs, 500.0);
        r.stage_ns(Stage::Counter, 100);
        r.residency(3);
        for (i, flips) in [10u64, 30].into_iter().enumerate() {
            r.write_observed(&WriteObservation {
                sim_ns: 100.0 * (i + 1) as f64,
                flips,
                slots: 2,
                cache_hits: i as u64,
                cache_misses: 1,
            });
        }
        assert_eq!(r.counter(Counter::Writes), 2);
        assert!((r.gauge_value(Gauge::ExecTimeNs) - 500.0).abs() < 1e-12);
        assert_eq!(r.flips_hist().count(), 2);
        assert_eq!(r.slots_hist().sum(), 4);
        assert_eq!(r.residency_hist().max(), Some(3));
        assert_eq!(r.stage_hist(Stage::Counter).count(), 1);
        assert_eq!(r.samples().len(), 1, "one full window of 2 writes");
        let s = &r.samples()[0];
        assert_eq!(s.writes, 2);
        assert!((s.flips_per_write - 20.0).abs() < 1e-12);
    }

    #[test]
    fn fault_telemetry_absent_until_announced() {
        let mut r = TelemetryRecorder::default();
        assert!(r.faults().is_none(), "fault-free runs carry no fault section");
        r.fault_injection_active();
        let faults = r.faults().expect("announced");
        assert_eq!(faults.cell_deaths, 0);
        assert!(faults.retirements.is_empty());
    }

    #[test]
    fn aes_backend_absent_until_reported() {
        let mut r = TelemetryRecorder::default();
        assert!(r.aes_backend_name().is_none(), "pre-dispatch exports stay unchanged");
        r.aes_backend("ttable");
        assert_eq!(r.aes_backend_name(), Some("ttable"));
    }

    #[test]
    fn store_telemetry_absent_until_announced() {
        let mut r = TelemetryRecorder::default();
        assert!(r.store().is_none(), "arena-backed runs carry no store section");
        r.store_paging_active();
        assert_eq!(r.store(), Some(&StoreTelemetry::default()));
        let totals = StoreTelemetry {
            page_faults: 12,
            page_evictions: 7,
            pages_flushed: 9,
            resident_bytes: 4096,
            peak_resident_bytes: 8192,
        };
        r.store_totals(&totals);
        assert_eq!(r.store(), Some(&totals));
    }

    #[test]
    fn fault_events_accumulate() {
        let mut r = TelemetryRecorder::default();
        r.fault_observed(&FaultObservation {
            sim_ns: 100.0,
            write_index: 10,
            cell_deaths: 2,
            ecp_consumed: 2,
            retired: false,
            uncorrectable: false,
        });
        r.fault_observed(&FaultObservation {
            sim_ns: 250.0,
            write_index: 30,
            cell_deaths: 1,
            ecp_consumed: 0,
            retired: true,
            uncorrectable: false,
        });
        r.fault_observed(&FaultObservation {
            sim_ns: 400.0,
            write_index: 55,
            cell_deaths: 1,
            ecp_consumed: 0,
            retired: false,
            uncorrectable: true,
        });
        r.ecp_entries_used(2);
        r.ecp_entries_used(0);
        let faults = r.faults().expect("events imply a fault section");
        assert_eq!(faults.cell_deaths, 4);
        assert_eq!(faults.ecp_consumed, 2);
        assert_eq!(faults.lines_retired, 1);
        assert_eq!(faults.uncorrectable_writes, 1);
        assert_eq!(faults.retirements, vec![(30, 250.0)]);
        assert_eq!(faults.first_uncorrectable, Some((55, 400.0)));
        assert_eq!(faults.ecp_used_hist.count(), 2);
        assert_eq!(faults.ecp_used_hist.sum(), 2);
    }

    #[test]
    fn names_are_unique_and_stable() {
        let mut names: Vec<&str> = Counter::ALL.iter().map(|c| c.name()).collect();
        names.extend(Gauge::ALL.iter().map(|g| g.name()));
        names.extend(Stage::ALL.iter().map(|s| s.name()));
        let mut deduped = names.clone();
        deduped.sort_unstable();
        deduped.dedup();
        assert_eq!(deduped.len(), names.len(), "no duplicate export names");
    }
}
