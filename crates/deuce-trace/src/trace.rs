//! Trace container types.

use deuce_crypto::{LineAddr, LineBytes};

/// Memory operation kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Op {
    /// L4 miss: a line read from PCM.
    Read,
    /// L4 eviction: a dirty line written back to PCM.
    Write,
}

/// One memory request as it leaves the L4 cache.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Issuing core (0-based; rate mode runs one benchmark copy per core).
    pub core: u8,
    /// The issuing core's retired-instruction count at this request
    /// (the timing model converts this to arrival time).
    pub instr: u64,
    /// Request kind.
    pub op: Op,
    /// Target line.
    pub line: LineAddr,
    /// Full new line contents for writes; `None` for reads.
    pub data: Option<LineBytes>,
}

impl TraceEvent {
    /// Shorthand for a read event.
    #[must_use]
    pub fn read(core: u8, instr: u64, line: LineAddr) -> Self {
        Self {
            core,
            instr,
            op: Op::Read,
            line,
            data: None,
        }
    }

    /// Shorthand for a write event.
    #[must_use]
    pub fn write(core: u8, instr: u64, line: LineAddr, data: LineBytes) -> Self {
        Self {
            core,
            instr,
            op: Op::Write,
            line,
            data: Some(data),
        }
    }
}

/// A generated (or loaded) request trace, ordered by issue.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Trace {
    events: Vec<TraceEvent>,
}

impl Trace {
    /// Creates a trace from pre-built events.
    #[must_use]
    pub fn from_events(events: Vec<TraceEvent>) -> Self {
        Self { events }
    }

    /// All events in issue order.
    #[must_use]
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Number of events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True if the trace is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of write events.
    #[must_use]
    pub fn write_count(&self) -> usize {
        self.events.iter().filter(|e| e.op == Op::Write).count()
    }

    /// Number of read events.
    #[must_use]
    pub fn read_count(&self) -> usize {
        self.events.iter().filter(|e| e.op == Op::Read).count()
    }

    /// Iterates over write events only.
    pub fn writes(&self) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter().filter(|e| e.op == Op::Write)
    }

    /// Appends an event (used by generators and loaders).
    pub fn push(&mut self, event: TraceEvent) {
        self.events.push(event);
    }
}

impl FromIterator<TraceEvent> for Trace {
    fn from_iter<I: IntoIterator<Item = TraceEvent>>(iter: I) -> Self {
        Self {
            events: iter.into_iter().collect(),
        }
    }
}

impl Extend<TraceEvent> for Trace {
    fn extend<I: IntoIterator<Item = TraceEvent>>(&mut self, iter: I) {
        self.events.extend(iter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_and_iteration() {
        let mut t = Trace::default();
        assert!(t.is_empty());
        t.push(TraceEvent::read(0, 100, LineAddr::new(1)));
        t.push(TraceEvent::write(0, 200, LineAddr::new(1), [1u8; 64]));
        t.push(TraceEvent::write(1, 300, LineAddr::new(2), [2u8; 64]));
        assert_eq!(t.len(), 3);
        assert_eq!(t.read_count(), 1);
        assert_eq!(t.write_count(), 2);
        assert_eq!(t.writes().count(), 2);
        assert!(t.events()[0].data.is_none());
        assert_eq!(t.events()[1].data.unwrap()[0], 1);
    }

    #[test]
    fn collect_from_iterator() {
        let t: Trace = (0..5)
            .map(|i| TraceEvent::write(0, i * 10, LineAddr::new(i), [i as u8; 64]))
            .collect();
        assert_eq!(t.write_count(), 5);
    }
}
