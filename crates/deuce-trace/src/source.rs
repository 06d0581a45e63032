//! Streaming write ingestion: the [`WriteSource`] abstraction.
//!
//! Every consumer of a workload — the simulator, the CLI, analysis
//! tools — historically took a fully materialised [`Trace`], which caps
//! runs at what fits in host RAM (a multi-billion-write lifetime
//! campaign is hundreds of gigabytes of events). [`WriteSource`] turns
//! the workload into a *pull stream*: events are produced on demand, in
//! issue order, and the consumer's memory footprint is independent of
//! the stream length.
//!
//! Three families of sources exist:
//!
//! - [`TraceSource`] — the trivial adapter over an in-RAM [`Trace`].
//!   `Simulator::run_trace` delegates through it, so the materialised
//!   and streaming paths are the same code and bit-identical by
//!   construction.
//! - [`crate::GeneratorSource`] — a seeded benchmark generator yielding
//!   events on demand ([`crate::TraceConfig::stream`]); a long stream
//!   generates on a helper thread, in the same order.
//! - [`crate::BinaryStreamSource`] / [`crate::JsonlStreamSource`] —
//!   buffered file readers decoding one event at a time from disk.
//!
//! # Determinism contract
//!
//! A source must yield exactly the event sequence of the corresponding
//! materialised trace, and [`WriteSource::cores`] must equal
//! `max(event.core) + 1` over the whole stream (`1` for an empty
//! stream) — the simulator sizes its timing model from it *before*
//! consuming any event, so a wrong value changes simulated time.

use crate::io::TraceIoError;
use crate::trace::{Trace, TraceEvent};

/// A pull stream of trace events in issue order.
pub trait WriteSource {
    /// Number of issuing cores in the whole stream: `max(core) + 1`,
    /// or `1` if the stream is empty. Must be exact (see the module
    /// docs' determinism contract) and available before the first
    /// event is pulled.
    fn cores(&self) -> usize;

    /// Pulls the next event, or `Ok(None)` at end of stream.
    ///
    /// # Errors
    ///
    /// File-backed sources return [`TraceIoError`] on I/O failure or
    /// malformed input. In-RAM sources never fail; a generator source
    /// fails only if its helper thread cannot be started
    /// ([`crate::TraceConfig::stream`]).
    fn next_event(&mut self) -> Result<Option<TraceEvent>, TraceIoError>;

    /// Total events in the stream when known up front (progress
    /// display only; `None` when the stream length is not predictable).
    fn len_hint(&self) -> Option<u64> {
        None
    }
}

impl<S: WriteSource + ?Sized> WriteSource for &mut S {
    fn cores(&self) -> usize {
        (**self).cores()
    }

    fn next_event(&mut self) -> Result<Option<TraceEvent>, TraceIoError> {
        (**self).next_event()
    }

    fn len_hint(&self) -> Option<u64> {
        (**self).len_hint()
    }
}

impl<S: WriteSource + ?Sized> WriteSource for Box<S> {
    fn cores(&self) -> usize {
        (**self).cores()
    }

    fn next_event(&mut self) -> Result<Option<TraceEvent>, TraceIoError> {
        (**self).next_event()
    }

    fn len_hint(&self) -> Option<u64> {
        (**self).len_hint()
    }
}

/// The canonical core count of an event sequence: `max(core) + 1`, or
/// `1` when empty. Every source and container must agree on this
/// formula.
#[must_use]
pub fn core_count<'a, I: IntoIterator<Item = &'a TraceEvent>>(events: I) -> usize {
    events
        .into_iter()
        .map(|e| usize::from(e.core) + 1)
        .max()
        .unwrap_or(1)
}

/// The trivial in-RAM source: iterates a borrowed [`Trace`].
///
/// # Examples
///
/// ```
/// use deuce_trace::{Benchmark, Trace, TraceConfig, TraceSource, WriteSource};
///
/// let trace = TraceConfig::new(Benchmark::Mcf).writes(100).generate();
/// let mut source = TraceSource::new(&trace);
/// let mut pulled = 0;
/// while source.next_event().unwrap().is_some() {
///     pulled += 1;
/// }
/// assert_eq!(pulled, trace.len());
/// ```
#[derive(Debug, Clone)]
pub struct TraceSource<'a> {
    events: &'a [TraceEvent],
    pos: usize,
    cores: usize,
}

impl<'a> TraceSource<'a> {
    /// Streams `trace` from its first event.
    #[must_use]
    pub fn new(trace: &'a Trace) -> Self {
        Self {
            events: trace.events(),
            pos: 0,
            cores: core_count(trace.events()),
        }
    }
}

impl WriteSource for TraceSource<'_> {
    fn cores(&self) -> usize {
        self.cores
    }

    fn next_event(&mut self) -> Result<Option<TraceEvent>, TraceIoError> {
        let event = self.events.get(self.pos).cloned();
        if event.is_some() {
            self.pos += 1;
        }
        Ok(event)
    }

    fn len_hint(&self) -> Option<u64> {
        Some(self.events.len() as u64)
    }
}

impl Trace {
    /// Materialises a whole stream into a trace (the inverse of
    /// [`TraceSource`]). Mostly useful in tests and tools; the point of
    /// a source is usually *not* to do this.
    ///
    /// # Errors
    ///
    /// Propagates the source's [`TraceIoError`].
    pub fn from_source<S: WriteSource + ?Sized>(source: &mut S) -> Result<Trace, TraceIoError> {
        let mut trace = Trace::default();
        while let Some(event) = source.next_event()? {
            trace.push(event);
        }
        Ok(trace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Benchmark, TraceConfig};

    #[test]
    fn trace_source_replays_the_trace() {
        let trace = TraceConfig::new(Benchmark::Libquantum).writes(200).seed(3).generate();
        let mut source = TraceSource::new(&trace);
        assert_eq!(source.len_hint(), Some(trace.len() as u64));
        let replayed = Trace::from_source(&mut source).unwrap();
        assert_eq!(replayed, trace);
        assert!(source.next_event().unwrap().is_none(), "exhausted stays exhausted");
    }

    #[test]
    fn core_count_matches_simulator_formula() {
        assert_eq!(core_count([].iter()), 1, "empty stream sizes one core");
        let trace = TraceConfig::new(Benchmark::Mcf).writes(50).cores(3).generate();
        assert_eq!(core_count(trace.events()), 3);
        assert_eq!(TraceSource::new(&trace).cores(), 3);
    }

    #[test]
    fn fewer_writes_than_cores_only_uses_leading_cores() {
        let trace = TraceConfig::new(Benchmark::Mcf).writes(2).cores(8).generate();
        assert_eq!(core_count(trace.events()), 2);
    }
}
