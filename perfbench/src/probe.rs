//! Measurement probes that sit outside the program: wrappers around the
//! public seams (`WriteSource`, `LineScheme`, `Recorder`) that time the
//! calls crossing them. Nothing here changes what is simulated; the
//! traced run's outputs are checked bit-identical to the plain run's.

use std::cell::Cell;
use std::time::Instant;

use deuce_schemes::WriteOutcome;
use deuce_schemes::{LineAddr, LineBytes, LineImage, LineMut, LineRef, LineScheme, OtpEngine};
use deuce_telemetry::{Counter, Recorder, Stage};
use deuce_trace::{TraceEvent, TraceIoError, WriteSource};

/// Nanoseconds elapsed since `start`.
pub fn ns_since(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Host-time stamps taken every `every` events pulled through a source:
/// the window boundaries behind the simulator workloads' lag metrics.
/// Costs one counter increment per event and one clock read per window.
pub struct WindowSource<S> {
    inner: S,
    every: u64,
    /// Events pulled so far.
    pub events: u64,
    /// Window boundaries, starting with the first pull.
    stamps: Vec<Instant>,
}

impl<S: WriteSource> WindowSource<S> {
    pub fn new(inner: S, every: u64) -> Self {
        Self {
            inner,
            every,
            events: 0,
            stamps: Vec::new(),
        }
    }

    /// Per-window host time in milliseconds (full windows only).
    pub fn window_ms(&self) -> Vec<f64> {
        self.stamps
            .windows(2)
            .map(|w| (w[1] - w[0]).as_secs_f64() * 1e3)
            .collect()
    }
}

impl<S: WriteSource> WriteSource for WindowSource<S> {
    fn cores(&self) -> usize {
        self.inner.cores()
    }

    fn next_event(&mut self) -> Result<Option<TraceEvent>, TraceIoError> {
        if self.events.is_multiple_of(self.every) {
            self.stamps.push(Instant::now());
        }
        let next = self.inner.next_event();
        if matches!(next, Ok(Some(_))) {
            self.events += 1;
        }
        next
    }

    fn len_hint(&self) -> Option<u64> {
        self.inner.len_hint()
    }
}

/// Times every `WriteSource::next_event` call of the wrapped source.
pub struct TimedSource<S> {
    inner: S,
    pub ns: u64,
    pub events: u64,
}

impl<S: WriteSource> TimedSource<S> {
    pub fn new(inner: S) -> Self {
        Self {
            inner,
            ns: 0,
            events: 0,
        }
    }
}

impl<S: WriteSource> WriteSource for TimedSource<S> {
    fn cores(&self) -> usize {
        self.inner.cores()
    }

    fn next_event(&mut self) -> Result<Option<TraceEvent>, TraceIoError> {
        let start = Instant::now();
        let next = self.inner.next_event();
        self.ns += ns_since(start);
        if matches!(next, Ok(Some(_))) {
            self.events += 1;
        }
        next
    }

    fn len_hint(&self) -> Option<u64> {
        self.inner.len_hint()
    }
}

/// Wall time and call counts of `LineScheme::init` / `LineScheme::write`.
#[derive(Debug, Clone, Copy, Default)]
pub struct SchemeTimes {
    pub init_ns: u64,
    pub init_calls: u64,
    pub write_ns: u64,
    pub write_calls: u64,
}

thread_local! {
    /// `LineScheme` values must be `Copy`, so [`TimedScheme`] cannot own
    /// its totals; it adds them to the calling thread's here.
    static SCHEME_TIMES: Cell<SchemeTimes> = const {
        Cell::new(SchemeTimes { init_ns: 0, init_calls: 0, write_ns: 0, write_calls: 0 })
    };
}

/// Returns this thread's scheme totals and resets them to zero.
pub fn take_scheme_times() -> SchemeTimes {
    SCHEME_TIMES.with(|t| t.replace(SchemeTimes::default()))
}

/// A `LineScheme` that delegates to `S` and times `init` and `write`.
/// Reads and images (fingerprinting) are not timed.
#[derive(Debug, Clone, Copy)]
pub struct TimedScheme<S>(pub S);

impl<S: LineScheme> LineScheme for TimedScheme<S> {
    type State = S::State;

    fn needs_shadow(&self) -> bool {
        self.0.needs_shadow()
    }

    fn metadata_bits(&self) -> u32 {
        self.0.metadata_bits()
    }

    fn init(
        &self,
        engine: &OtpEngine,
        addr: LineAddr,
        initial: &LineBytes,
    ) -> (LineBytes, S::State) {
        let start = Instant::now();
        let out = self.0.init(engine, addr, initial);
        let ns = ns_since(start);
        SCHEME_TIMES.with(|t| {
            let mut v = t.get();
            v.init_ns += ns;
            v.init_calls += 1;
            t.set(v);
        });
        out
    }

    fn write(
        &self,
        engine: &OtpEngine,
        addr: LineAddr,
        line: LineMut<'_, S::State>,
        data: &LineBytes,
    ) -> WriteOutcome {
        let start = Instant::now();
        let out = self.0.write(engine, addr, line, data);
        let ns = ns_since(start);
        SCHEME_TIMES.with(|t| {
            let mut v = t.get();
            v.write_ns += ns;
            v.write_calls += 1;
            t.set(v);
        });
        out
    }

    fn read(&self, engine: &OtpEngine, addr: LineAddr, line: LineRef<'_, S::State>) -> LineBytes {
        self.0.read(engine, addr, line)
    }

    fn image(&self, line: LineRef<'_, S::State>) -> LineImage {
        self.0.image(line)
    }
}

/// Collects what the simulator already hands any `Recorder`: per-stage
/// wall time from the pipeline's stations, request counters, and the
/// engine's pad-generation time (attached at finish when spans are on).
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerRecorder {
    pub stage_ns: [u64; 4],
    pub reads: u64,
    pub writes: u64,
    pub first_touches: u64,
    pub counter_fills: u64,
    pub pad_ns: u64,
    pub pad_calls: u64,
}

impl LayerRecorder {
    pub fn stage(&self, stage: Stage) -> u64 {
        self.stage_ns[stage_index(stage)]
    }

    pub fn add_from(&mut self, other: &LayerRecorder) {
        for (a, b) in self.stage_ns.iter_mut().zip(other.stage_ns) {
            *a += b;
        }
        self.reads += other.reads;
        self.writes += other.writes;
        self.first_touches += other.first_touches;
        self.counter_fills += other.counter_fills;
        self.pad_ns += other.pad_ns;
        self.pad_calls += other.pad_calls;
    }
}

fn stage_index(stage: Stage) -> usize {
    match stage {
        Stage::Counter => 0,
        Stage::Scheme => 1,
        Stage::Wear => 2,
        Stage::Timing => 3,
    }
}

impl Recorder for LayerRecorder {
    fn add(&mut self, counter: Counter, delta: u64) {
        match counter {
            Counter::Reads => self.reads += delta,
            Counter::Writes => self.writes += delta,
            Counter::FirstTouches => self.first_touches += delta,
            Counter::CounterFills => self.counter_fills += delta,
            _ => {}
        }
    }

    fn stage_ns(&mut self, stage: Stage, ns: u64) {
        self.stage_ns[stage_index(stage)] += ns;
    }

    // Spans are on only so the session attaches the engine's
    // pad-generation totals at finish.
    fn wants_spans(&self) -> bool {
        true
    }

    fn span_attach(&mut self, _parent: Option<&'static str>, name: &'static str, ns: u64, n: u64) {
        if name == "pad_generation" {
            self.pad_ns += ns;
            self.pad_calls += n;
        }
    }
}
