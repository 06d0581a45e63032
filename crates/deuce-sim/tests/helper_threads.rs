//! Streamed runs record fault-free wear on a helper thread, and a long
//! generator stream generates on one. Neither may change an output: the
//! reference for every check is the inline path, a session stepped by
//! hand over `generate()`, where no helper runs. Failures on either
//! side of a helper must reach the caller, without a hang.

use std::panic::{self, AssertUnwindSafe};
use std::sync::mpsc;
use std::thread;
use std::time::Duration;

use deuce_schemes::{
    AnyScheme, AnyState, LineAddr, LineBytes, LineImage, LineMut, LineRef, LineScheme, OtpEngine,
    SchemeConfig, SchemeKind, WriteOutcome,
};
use deuce_sim::{
    CounterCacheConfig, FaultConfig, HwlMode, RunCheckpoint, RunError, SimConfig, SimResult,
    Simulator, WearConfig,
};
use deuce_telemetry::NullRecorder;
use deuce_trace::{
    Benchmark, TraceConfig, TraceEvent, TraceIoError, TraceSource, WriteSource, HELPER_MIN_WRITES,
};

/// The inline path: a session stepped over the materialised trace.
fn stepped(simulator: &Simulator, workload: &TraceConfig) -> SimResult {
    let trace = workload.generate();
    let mut session = simulator.session(TraceSource::new(&trace).cores()).unwrap();
    for event in trace.events() {
        let _ = session.step(event);
    }
    session.finish().unwrap()
}

/// Every field, the whole cell array included (`Debug` prints each
/// count, and `f64`s in a form that round-trips), plus the wear
/// statistics the figures read.
fn assert_identical(found: &SimResult, expected: &SimResult) {
    assert_eq!(found.exec_time_ns.to_bits(), expected.exec_time_ns.to_bits());
    let found_cells = found.cells.as_ref().expect("wear is tracked");
    let expected_cells = expected.cells.as_ref().expect("wear is tracked");
    assert_eq!(found_cells.writes_recorded(), expected_cells.writes_recorded());
    assert_eq!(found_cells.wear_summary(), expected_cells.wear_summary());
    assert_eq!(found_cells.position_totals(), expected_cells.position_totals());
    assert_eq!(format!("{found:?}"), format!("{expected:?}"));
}

/// mcf-full's configuration, scaled down: counter cache, DEUCE,
/// Start-Gap with hashed HWL.
fn full_controller(lines: usize) -> SimConfig {
    SimConfig::new(SchemeKind::Deuce)
        .with_counter_cache(CounterCacheConfig::DEFAULT)
        .with_wear(WearConfig::with_hwl(lines, HwlMode::Hashed))
}

#[test]
fn helper_path_matches_the_inline_path_in_every_field() {
    let workload = TraceConfig::new(Benchmark::Mcf)
        .lines(64)
        .cores(2)
        .seed(7)
        .without_reads()
        .writes(HELPER_MIN_WRITES);
    let simulator = Simulator::new(full_controller(128));
    let streamed = simulator.run_source(&mut workload.stream()).unwrap();
    assert!(streamed.writes > HELPER_MIN_WRITES as u64 / 2);
    assert_identical(&streamed, &stepped(&simulator, &workload));
}

/// Panics with its own payload at the `left`-th pull.
struct GivesOut<S> {
    inner: S,
    left: u64,
}

#[derive(Debug, PartialEq)]
struct SourceGaveOut;

impl<S: WriteSource> WriteSource for GivesOut<S> {
    fn cores(&self) -> usize {
        self.inner.cores()
    }

    fn next_event(&mut self) -> Result<Option<TraceEvent>, TraceIoError> {
        if self.left == 0 {
            panic::panic_any(SourceGaveOut);
        }
        self.left -= 1;
        self.inner.next_event()
    }
}

/// A panic in the source, many wear hand-offs into the run, reaches the
/// caller with its payload: the loop's queue closes as it unwinds, so
/// the wear helper ends and nothing waits for ever.
#[test]
fn a_source_panic_reaches_the_caller_while_wear_runs_on_the_helper() {
    let (done, outcome) = mpsc::channel();
    thread::spawn(move || {
        let workload = TraceConfig::new(Benchmark::Mcf).lines(64).seed(3).writes(20_000);
        let simulator = Simulator::new(full_controller(64));
        let mut source = GivesOut { inner: workload.stream(), left: 30_000 };
        let run = panic::catch_unwind(AssertUnwindSafe(|| simulator.run_source(&mut source)));
        let payload = run.err().map(|p| p.downcast::<SourceGaveOut>().is_ok());
        done.send(payload).unwrap();
    });
    let payload = outcome
        .recv_timeout(Duration::from_secs(120))
        .expect("the run returns instead of hanging");
    assert_eq!(payload, Some(true), "the source's own payload reaches the caller");
}

/// DEUCE, but claiming one metadata bit more than its images carry, so
/// the wear stage's cell array rejects the first image it records.
#[derive(Debug, Clone, Copy)]
struct MisreportsMetadata(AnyScheme);

impl LineScheme for MisreportsMetadata {
    type State = AnyState;

    fn metadata_bits(&self) -> u32 {
        self.0.metadata_bits() + 1
    }

    fn init(
        &self,
        engine: &OtpEngine,
        addr: LineAddr,
        initial: &LineBytes,
    ) -> (LineBytes, AnyState) {
        self.0.init(engine, addr, initial)
    }

    fn write(
        &self,
        engine: &OtpEngine,
        addr: LineAddr,
        line: LineMut<'_, AnyState>,
        data: &LineBytes,
    ) -> WriteOutcome {
        self.0.write(engine, addr, line, data)
    }

    fn read(&self, engine: &OtpEngine, addr: LineAddr, line: LineRef<'_, AnyState>) -> LineBytes {
        self.0.read(engine, addr, line)
    }

    fn image(&self, line: LineRef<'_, AnyState>) -> LineImage {
        self.0.image(line)
    }
}

/// A panic on the wear helper itself reaches the caller with the
/// helper's payload: the loop's next hand-off fails, the loop stops,
/// and the join resumes the panic.
#[test]
fn a_wear_helper_panic_reaches_the_caller_with_its_payload() {
    let (done, outcome) = mpsc::channel();
    thread::spawn(move || {
        let workload = TraceConfig::new(Benchmark::Mcf).lines(64).seed(3).writes(20_000);
        let config = full_controller(64);
        let deuce = AnyScheme::from_config(&SchemeConfig::new(SchemeKind::Deuce));
        let simulator = Simulator::with_line_scheme(config, MisreportsMetadata(deuce));
        let run = panic::catch_unwind(AssertUnwindSafe(|| {
            simulator.run_source(&mut workload.stream()).map(|_| ())
        }));
        let message = run.err().map(|payload| {
            payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(ToString::to_string))
                .unwrap_or_default()
        });
        done.send(message).unwrap();
    });
    let message = outcome
        .recv_timeout(Duration::from_secs(120))
        .expect("the run returns instead of hanging")
        .expect("the helper's panic reaches the caller");
    assert!(message.contains("image size does not match cell array"), "{message}");
}

#[test]
fn resume_detects_a_mismatched_stream_with_wear_on_the_helper() {
    let workload = TraceConfig::new(Benchmark::Mcf).lines(48).cores(3).writes(3_000).seed(11);
    let simulator = Simulator::new(full_controller(144));
    let mut checkpoints: Vec<RunCheckpoint> = Vec::new();
    let reference = simulator
        .run_source_checkpointed(&mut workload.stream(), &mut NullRecorder, 600, &mut |cp| {
            checkpoints.push(*cp);
        })
        .unwrap();
    let mid = checkpoints[1];
    let resumed = simulator.resume_source(&mut workload.stream(), &mut NullRecorder, &mid).unwrap();
    assert_identical(&resumed, &reference);

    let other = workload.clone().seed(12);
    let err = simulator.resume_source(&mut other.stream(), &mut NullRecorder, &mid).unwrap_err();
    assert!(matches!(err, RunError::CheckpointMismatch { .. }), "{err:?}");
}

/// Touching more lines than wear tracking was configured for is a typed
/// error on every path: the helper (fault-free wear), inline wear under
/// fault injection, and a stepped session.
#[test]
fn wear_overflow_is_an_error_on_every_path() {
    let workload = TraceConfig::new(Benchmark::Mcf).lines(64).writes(2_000).seed(11);
    let wear = WearConfig::vertical_only(2);
    let helper = SimConfig::new(SchemeKind::Deuce).with_wear(wear);
    let faulted = helper.clone().with_faults(FaultConfig::accelerated(2e-8));
    for config in [helper.clone(), faulted] {
        let err = Simulator::new(config).run_source(&mut workload.stream()).unwrap_err();
        assert!(matches!(err, RunError::WearCapacity { lines: 2 }), "{err:?}");
        assert!(err.to_string().contains("configured 2 wear-tracked lines"), "{err}");
    }
    let trace = workload.generate();
    let mut session = Simulator::new(helper).session(1).unwrap();
    for event in trace.events() {
        let _ = session.step(event);
    }
    assert!(matches!(session.finish(), Err(RunError::WearCapacity { lines: 2 })));
}
