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

use crate::flight::FlightRecorder;
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
    /// Resident bytes of the line store at end of run (stored images +
    /// compact per-line state).
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

/// One write as the controller saw it: a counted write, or a line's
/// first touch (its initial placement, which is not counted). Every
/// field is a simulated quantity, so a stream of events is a
/// deterministic function of the run. The default is a first touch of
/// line 0 at time 0.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct WriteEvent {
    /// 1-based counted write index; 0 marks a first touch.
    pub write_index: u64,
    /// Line address written.
    pub addr: u64,
    /// Figure-of-merit bit flips this write caused.
    pub flips: u64,
    /// Write slots consumed.
    pub slots: u32,
    /// Whether this write started a new epoch (full re-encryption).
    pub epoch_started: bool,
    /// Simulated time after the write, in nanoseconds.
    pub sim_ns: f64,
    /// Cumulative counter-cache hits (0 without a counter cache).
    pub cache_hits: u64,
    /// Cumulative counter-cache misses (0 without a counter cache).
    pub cache_misses: u64,
    /// Cells that reached their endurance threshold on this write.
    pub cell_deaths: u32,
    /// ECP entries consumed repairing those deaths.
    pub ecp_consumed: u32,
    /// Whether this write retired its line to a spare.
    pub retired: bool,
    /// Whether this write hit an uncorrectable death (device end of
    /// life).
    pub uncorrectable: bool,
}

impl WriteEvent {
    /// Whether this is a line's first touch rather than a counted write.
    #[must_use]
    pub fn first_touch(&self) -> bool {
        self.write_index == 0
    }
}

/// One subsystem's end-of-run totals, as [`Recorder::section`] sent
/// them.
#[derive(Debug, Clone)]
pub struct Section {
    /// The section's name; its counters export as `<name>_<key>`.
    pub name: &'static str,
    /// Named totals.
    pub counters: Vec<(&'static str, u64)>,
    /// Named distributions, exported under their own key.
    pub histograms: Vec<(&'static str, Histogram)>,
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

    /// Feeds one write event: every counted write and every first
    /// touch, in stream order.
    fn write_observed(&mut self, event: &WriteEvent) {
        let _ = event;
    }

    /// Records which AES dispatch tier generated this run's pads. A
    /// host/dispatch property: every tier is bit-identical, so nothing
    /// simulated depends on it.
    fn aes_backend(&mut self, backend: &'static str) {
        let _ = backend;
    }

    /// Records one subsystem's end-of-run totals as a named section,
    /// once per run: fault injection, store paging. Sections exist only
    /// for runs that have the subsystem, so other runs' exports carry
    /// none.
    fn section(
        &mut self,
        name: &'static str,
        counters: &[(&'static str, u64)],
        histograms: &[(&'static str, &Histogram)],
    ) {
        let _ = (name, counters, histograms);
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
    retirements: Vec<(u64, f64)>,
    first_uncorrectable: Option<(u64, f64)>,
    sections: Vec<Section>,
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
            retirements: Vec::new(),
            first_uncorrectable: None,
            sections: Vec::new(),
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

    /// Every line retirement as `(write index, simulated ns)`, in
    /// stream order.
    #[must_use]
    pub fn retirements(&self) -> &[(u64, f64)] {
        &self.retirements
    }

    /// The first uncorrectable write as `(write index, simulated ns)`,
    /// if the device reached end of life.
    #[must_use]
    pub fn first_uncorrectable(&self) -> Option<(u64, f64)> {
        self.first_uncorrectable
    }

    /// The sections received, in arrival order.
    #[must_use]
    pub fn sections(&self) -> &[Section] {
        &self.sections
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

    fn write_observed(&mut self, event: &WriteEvent) {
        if let Some(flight) = &mut self.flight {
            flight.record(*event);
        }
        if event.first_touch() {
            return;
        }
        self.flips_hist.record(event.flips);
        self.slots_hist.record(u64::from(event.slots));
        self.series.observe(event);
        if let Some(spans) = &mut self.spans {
            spans.observe_write(event.sim_ns);
        }
        let at = (event.write_index, event.sim_ns);
        if event.retired {
            self.retirements.push(at);
        }
        if event.uncorrectable {
            self.first_uncorrectable.get_or_insert(at);
        }
    }

    fn aes_backend(&mut self, backend: &'static str) {
        self.aes_backend = Some(backend);
    }

    fn section(
        &mut self,
        name: &'static str,
        counters: &[(&'static str, u64)],
        histograms: &[(&'static str, &Histogram)],
    ) {
        self.sections.push(Section {
            name,
            counters: counters.to_vec(),
            histograms: histograms.iter().map(|&(key, hist)| (key, hist.clone())).collect(),
        });
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
}

#[cfg(test)]
mod tests {
    use super::*;

    fn write(write_index: u64, sim_ns: f64, flips: u64) -> WriteEvent {
        WriteEvent { write_index, sim_ns, flips, slots: 2, ..WriteEvent::default() }
    }

    #[test]
    fn null_recorder_is_disabled_and_inert() {
        const { assert!(!NullRecorder::ENABLED) };
        let mut r = NullRecorder;
        r.add(Counter::Writes, 3);
        r.stage_ns(Stage::Scheme, 17);
        r.write_observed(&write(1, 1.0, 2));
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
            let i = i as u64 + 1;
            r.write_observed(&WriteEvent {
                cache_hits: i - 1,
                cache_misses: 1,
                ..write(i, 100.0 * i as f64, flips)
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
    fn sections_absent_until_sent() {
        let mut r = TelemetryRecorder::default();
        assert!(r.sections().is_empty(), "arena-backed, fault-free runs carry no section");
        r.section("store", &[("page_faults", 0)], &[]);
        let mut ecp = Histogram::new();
        ecp.record(2);
        r.section("fault", &[("cell_deaths", 4)], &[("ecp_entries_used", &ecp)]);
        assert_eq!(r.sections().len(), 2, "all-zero totals still count");
        assert_eq!(r.sections()[0].counters, vec![("page_faults", 0)]);
        assert_eq!(r.sections()[1].name, "fault");
        assert_eq!(r.sections()[1].histograms[0].1.sum(), 2);
    }

    #[test]
    fn aes_backend_absent_until_reported() {
        let mut r = TelemetryRecorder::default();
        assert!(r.aes_backend_name().is_none(), "pre-dispatch exports stay unchanged");
        r.aes_backend("ttable");
        assert_eq!(r.aes_backend_name(), Some("ttable"));
    }

    #[test]
    fn write_events_record_retirements_and_the_first_uncorrectable_write() {
        let mut r = TelemetryRecorder::default().with_flight_recorder(8);
        r.write_observed(&WriteEvent { addr: 7, ..WriteEvent::default() });
        r.write_observed(&WriteEvent { cell_deaths: 2, ecp_consumed: 2, ..write(10, 100.0, 1) });
        r.write_observed(&WriteEvent { retired: true, ..write(30, 250.0, 1) });
        r.write_observed(&WriteEvent { uncorrectable: true, ..write(55, 400.0, 1) });
        r.write_observed(&WriteEvent { uncorrectable: true, ..write(56, 410.0, 1) });
        assert_eq!(r.retirements(), &[(30, 250.0)]);
        assert_eq!(r.first_uncorrectable(), Some((55, 400.0)));
        assert_eq!(r.flips_hist().count(), 4, "a first touch is not a counted write");
        assert_eq!(r.flight().unwrap().recorded(), 5, "the ring keeps first touches too");
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
