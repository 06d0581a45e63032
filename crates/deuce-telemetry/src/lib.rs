//! Zero-dependency structured instrumentation for the DEUCE stack.
//!
//! The paper's figures are averages, but DEUCE's behaviour is
//! distributional: bit flips concentrate in some writes (Figs. 11/12),
//! epoch effects move with the interval (Fig. 9), and pipeline cost is
//! dominated by different stages under different configurations. This
//! crate supplies the observability layer the rest of the workspace
//! threads through its hot paths:
//!
//! - [`Recorder`] — the instrumentation sink trait. Code is generic
//!   over `R: Recorder` and monomorphised; the [`NullRecorder`]
//!   default has `ENABLED == false`, so the uninstrumented build
//!   compiles to exactly the previous code and costs nothing.
//! - [`TelemetryRecorder`] — the collecting sink: structured
//!   [`Counter`]s and [`Gauge`]s, log2-bucketed streaming
//!   [`Histogram`]s (flips/write, slots/write, counter-cache
//!   residency, per-[`Stage`] wall time), and a windowed time-series
//!   ([`SeriesSampler`]) keyed on *simulated* time, so exports are a
//!   deterministic function of the run.
//! - [`export`] — hand-rolled JSONL event and CSV summary writers
//!   (convention: under `results/telemetry/`); [`parse`] reads the
//!   JSONL back for `deuce report`.
//! - [`SweepProgress`] — lock-free per-shard progress counters
//!   aggregated into a live progress line for `ParallelSweep` grids.
//! - [`SpanTrace`] — aggregated hierarchical wall-clock spans (run →
//!   pipeline stages → pad generation / ECP repair), exported as Chrome
//!   trace-event JSON and as `span` records in the JSONL stream.
//! - [`FlightRecorder`] — a fixed-capacity ring of recent
//!   [`WriteEvent`]s, dumped as JSONL on run failure for post-mortems.
//!
//! A recorder sees a run through two channels: one [`WriteEvent`] per
//! write as it happens, and the run's totals once at finish — the
//! [`Counter`]s, the [`Gauge`]s, and one named [`Section`] per optional
//! subsystem (fault injection, store paging).
//!
//! Determinism contract: everything exported derives from simulated
//! quantities, except `profile` events (per-stage wall time), which are
//! explicitly nondeterministic and must be skipped when diffing runs.
//!
//! ```
//! use deuce_telemetry::{Counter, Recorder, TelemetryRecorder, WriteEvent};
//!
//! fn hot_loop<R: Recorder>(rec: &mut R) {
//!     let mut page_faults = 0;
//!     for i in 1..=128u64 {
//!         page_faults += u64::from(i % 32 == 0);
//!         if R::ENABLED {
//!             // One event per write, as it happens...
//!             rec.write_observed(&WriteEvent {
//!                 write_index: i,
//!                 flips: 60 + (i % 9),
//!                 slots: 2,
//!                 sim_ns: 150.0 * i as f64,
//!                 ..WriteEvent::default()
//!             });
//!         }
//!     }
//!     if R::ENABLED {
//!         // ...and the run's totals once, at finish.
//!         rec.add(Counter::Writes, 128);
//!         rec.section("store", &[("page_faults", page_faults)], &[]);
//!     }
//! }
//!
//! let mut telemetry = TelemetryRecorder::default();
//! hot_loop(&mut telemetry); // collected
//! hot_loop(&mut deuce_telemetry::NullRecorder); // compiles to the bare loop
//! assert_eq!(telemetry.counter(Counter::Writes), 128);
//! assert_eq!(telemetry.samples().len(), 2, "two 64-write windows");
//! assert_eq!(telemetry.sections()[0].counters, vec![("page_faults", 4)]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod export;
mod flight;
mod hist;
pub mod parse;
mod progress;
mod recorder;
mod series;
mod span;

pub use flight::FlightRecorder;
pub use hist::{bucket_bounds, Histogram, BUCKETS};
pub use progress::SweepProgress;
pub use recorder::{
    Counter, Gauge, NullRecorder, Recorder, Section, Stage, TelemetryConfig, TelemetryRecorder,
    WriteEvent,
};
pub use series::{Sample, SeriesSampler};
pub use span::{SelfTime, SpanNode, SpanTrace};
