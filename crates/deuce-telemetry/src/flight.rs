//! Flight recorder: a fixed-capacity ring of recent write events.
//!
//! Long streaming runs (100M+ writes) can die deep into the stream —
//! an uncorrectable error from the fault engine, a checkpoint
//! mismatch, a corrupt trace file. The flight recorder keeps the last
//! `N` structured write events in a ring so a post-mortem replays what
//! the simulator was doing *just before* the failure, instead of
//! rerunning the whole stream.
//!
//! The ring keeps the controller's [`WriteEvent`]s as they arrive.
//! Every field is a simulated quantity (write index, line address,
//! flip/slot counts, simulated nanoseconds, fault outcomes) — no
//! wall-clock anywhere — so a dump is a deterministic function of the
//! run and can be diffed against a golden.

use std::collections::VecDeque;
use std::io::{self, Write};

use crate::export::json_num;
use crate::recorder::WriteEvent;

/// The ring buffer of the most recent [`WriteEvent`]s.
#[derive(Debug, Clone)]
pub struct FlightRecorder {
    capacity: usize,
    ring: VecDeque<WriteEvent>,
    recorded: u64,
}

impl FlightRecorder {
    /// A recorder keeping the last `capacity` events (`capacity` is
    /// clamped to at least 1).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Self { capacity, ring: VecDeque::with_capacity(capacity), recorded: 0 }
    }

    /// Records one event, evicting the oldest when full.
    pub fn record(&mut self, event: WriteEvent) {
        if self.ring.len() == self.capacity {
            self.ring.pop_front();
        }
        self.ring.push_back(event);
        self.recorded += 1;
    }

    /// The ring's capacity.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Total events ever recorded (≥ the retained count).
    #[must_use]
    pub fn recorded(&self) -> u64 {
        self.recorded
    }

    /// Events evicted to make room.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.recorded - self.ring.len() as u64
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &WriteEvent> {
        self.ring.iter()
    }

    /// Dumps the ring as JSONL: a `flight_header` line (capacity /
    /// recorded / dropped accounting) followed by one `flight` line per
    /// retained event, oldest first; a first touch shows as
    /// `"action":"first_touch"` with write 0. Byte-deterministic for a
    /// given simulation.
    ///
    /// # Errors
    ///
    /// Returns I/O errors from the writer.
    pub fn write_jsonl<W: Write>(&self, out: &mut W) -> io::Result<()> {
        writeln!(
            out,
            "{{\"type\":\"flight_header\",\"version\":1,\"capacity\":{},\
             \"recorded\":{},\"dropped\":{}}}",
            self.capacity,
            self.recorded,
            self.dropped(),
        )?;
        for e in &self.ring {
            writeln!(
                out,
                "{{\"type\":\"flight\",\"write\":{},\"addr\":{},\"action\":\"{}\",\
                 \"flips\":{},\"slots\":{},\"epoch_started\":{},\"sim_ns\":{},\
                 \"cell_deaths\":{},\"ecp_consumed\":{},\"retired\":{},\
                 \"uncorrectable\":{}}}",
                e.write_index,
                e.addr,
                if e.first_touch() { "first_touch" } else { "write" },
                e.flips,
                e.slots,
                u8::from(e.epoch_started),
                json_num(e.sim_ns),
                e.cell_deaths,
                e.ecp_consumed,
                u8::from(e.retired),
                u8::from(e.uncorrectable),
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(i: u64) -> WriteEvent {
        WriteEvent {
            write_index: i,
            addr: 0x1000 + i,
            flips: 60 + i,
            slots: 2,
            epoch_started: i.is_multiple_of(16),
            sim_ns: 150.0 * i as f64,
            ..WriteEvent::default()
        }
    }

    #[test]
    fn ring_keeps_the_last_n_and_counts_drops() {
        let mut r = FlightRecorder::new(4);
        for i in 1..=10 {
            r.record(event(i));
        }
        assert_eq!(r.recorded(), 10);
        assert_eq!(r.dropped(), 6);
        let kept: Vec<u64> = r.events().map(|e| e.write_index).collect();
        assert_eq!(kept, vec![7, 8, 9, 10], "oldest first");
    }

    #[test]
    fn dump_round_trips_through_the_parser() {
        let mut r = FlightRecorder::new(8);
        let mut ue = event(3);
        ue.cell_deaths = 2;
        ue.uncorrectable = true;
        r.record(WriteEvent { addr: 0x1000, ..WriteEvent::default() });
        r.record(event(1));
        r.record(event(2));
        r.record(ue);
        let mut out = Vec::new();
        r.write_jsonl(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let events = crate::parse::parse_jsonl(&text).unwrap();
        assert_eq!(events.len(), 5, "header + 4 events");
        assert_eq!(events[0].kind(), "flight_header");
        assert_eq!(events[0].u64("capacity"), Some(8));
        assert_eq!(events[0].u64("dropped"), Some(0));
        assert_eq!(events[1].str("action"), Some("first_touch"));
        assert_eq!(events[1].u64("write"), Some(0));
        assert_eq!(events[2].str("action"), Some("write"));
        assert_eq!(events[4].kind(), "flight");
        assert_eq!(events[4].u64("uncorrectable"), Some(1));
        assert_eq!(events[4].u64("addr"), Some(0x1000 + 3));
        assert_eq!(events[4].num("sim_ns"), Some(450.0));
    }

    #[test]
    fn capacity_zero_is_clamped() {
        let mut r = FlightRecorder::new(0);
        r.record(event(1));
        r.record(event(2));
        assert_eq!(r.events().count(), 1);
        assert_eq!(r.dropped(), 1);
    }
}
