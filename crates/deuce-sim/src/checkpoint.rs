//! Periodic checkpoints for long streaming runs.
//!
//! Simulator state (scheme lines, cell arrays, repair maps, timing
//! queues) is deliberately *not* serialised — it spans ten scheme state
//! types and several crates, and any drift between a snapshot format
//! and the live structs would silently corrupt results. Instead a
//! [`RunCheckpoint`] is a **deterministic progress fingerprint**: the
//! aggregate counters of the run at a known stream position. Because
//! every run is a pure function of (config, stream), resuming means
//! *replaying* the stream and verifying the fingerprint still matches
//! at the checkpointed position — divergence (a changed config, a
//! different trace file, a code change) is detected and reported
//! instead of producing subtly wrong numbers.
//!
//! Checkpoints are cheap (a JSONL line every N writes), so the real
//! compute-saving resume granularity lives one level up: the sweep
//! manifest layer skips whole completed cells (see
//! [`crate::manifest`]).

use deuce_telemetry::parse::{parse_jsonl, ParseError};

use crate::result::SimResult;

/// The aggregate counters of a streaming run at one stream position —
/// enough to verify bit-identical replay, written as one JSONL line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunCheckpoint {
    /// Trace events consumed when the checkpoint was taken.
    pub events_consumed: u64,
    /// Reads processed.
    pub reads: u64,
    /// Counted writes (first touches excluded).
    pub writes: u64,
    /// Data-bit flips so far.
    pub data_flips: u64,
    /// Metadata-bit flips so far.
    pub meta_flips: u64,
    /// Counter-bit flips so far.
    pub counter_flips: u64,
    /// DEUCE epochs started so far.
    pub epoch_starts: u64,
    /// Write slots consumed so far.
    pub total_slots: u64,
    /// Simulated time at the checkpoint, as raw `f64` bits so the
    /// comparison is exact (stored in hex — JSON numbers cannot carry
    /// all 64 bits).
    pub exec_time_ns_bits: u64,
    /// Pages the line-store backend had written back when the
    /// checkpoint was taken (0 for the in-RAM arena, which never
    /// flushes).
    pub flushed_pages: u64,
    /// Running fingerprint chaining every flushed page's index and
    /// checksum, in flush order (0 for the arena). Replay reproduces
    /// evictions at identical points, so a resume against an existing
    /// page file verifies the flushed-page state, not just the run
    /// counters.
    pub flush_fp: u64,
}

impl RunCheckpoint {
    /// Captures the current run counters at `events_consumed`.
    /// `flush_state` is the store backend's `(flushed_pages, flush_fp)`
    /// pair at this point in the stream.
    pub(crate) fn capture(
        events_consumed: u64,
        result: &SimResult,
        exec_time_ns: f64,
        flush_state: (u64, u64),
    ) -> Self {
        Self {
            events_consumed,
            reads: result.reads,
            writes: result.writes,
            data_flips: result.data_flips,
            meta_flips: result.meta_flips,
            counter_flips: result.counter_flips,
            epoch_starts: result.epoch_starts,
            total_slots: result.total_slots,
            exec_time_ns_bits: exec_time_ns.to_bits(),
            flushed_pages: flush_state.0,
            flush_fp: flush_state.1,
        }
    }

    /// Simulated time at the checkpoint.
    #[must_use]
    pub fn exec_time_ns(&self) -> f64 {
        f64::from_bits(self.exec_time_ns_bits)
    }

    /// Serialises the checkpoint as one JSONL line (with trailing
    /// newline). Counters are JSON numbers; `exec_time_ns_bits` is a
    /// hex string because JSON numbers lose integer precision past
    /// 2^53.
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        format!(
            "{{\"type\":\"run_checkpoint\",\"version\":1,\"events\":{},\"reads\":{},\
             \"writes\":{},\"data_flips\":{},\"meta_flips\":{},\"counter_flips\":{},\
             \"epoch_starts\":{},\"total_slots\":{},\"exec_ns_bits\":\"{:016x}\",\
             \"flushed_pages\":{},\"flush_fp\":\"{:016x}\"}}\n",
            self.events_consumed,
            self.reads,
            self.writes,
            self.data_flips,
            self.meta_flips,
            self.counter_flips,
            self.epoch_starts,
            self.total_slots,
            self.exec_time_ns_bits,
            self.flushed_pages,
            self.flush_fp,
        )
    }

    /// Parses the *last* checkpoint from JSONL text (a checkpoint file
    /// accumulates periodic lines; resume wants the furthest one).
    ///
    /// # Errors
    ///
    /// Returns [`ParseError`] on malformed JSONL, a missing checkpoint
    /// line, or missing fields.
    pub fn from_jsonl(text: &str) -> Result<Self, ParseError> {
        let events = parse_jsonl(text)?;
        let last = events
            .iter()
            .rev()
            .find(|e| e.kind() == "run_checkpoint")
            .ok_or_else(|| ParseError {
                line: 0,
                message: "no run_checkpoint line found".into(),
            })?;
        let field = |key: &str| {
            last.u64(key).ok_or_else(|| ParseError {
                line: 0,
                message: format!("checkpoint missing numeric field \"{key}\""),
            })
        };
        let exec_bits = last
            .str("exec_ns_bits")
            .and_then(|s| u64::from_str_radix(s, 16).ok())
            .ok_or_else(|| ParseError {
                line: 0,
                message: "checkpoint missing hex field \"exec_ns_bits\"".into(),
            })?;
        Ok(Self {
            events_consumed: field("events")?,
            reads: field("reads")?,
            writes: field("writes")?,
            data_flips: field("data_flips")?,
            meta_flips: field("meta_flips")?,
            counter_flips: field("counter_flips")?,
            epoch_starts: field("epoch_starts")?,
            total_slots: field("total_slots")?,
            exec_time_ns_bits: exec_bits,
            // Lenient: checkpoints written before out-of-core stores
            // carry no flush state, which matches the arena's (0, 0).
            flushed_pages: last.u64("flushed_pages").unwrap_or(0),
            flush_fp: last
                .str("flush_fp")
                .and_then(|s| u64::from_str_radix(s, 16).ok())
                .unwrap_or(0),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunCheckpoint {
        RunCheckpoint {
            events_consumed: 12_345,
            reads: 9_000,
            writes: 3_000,
            data_flips: 81_234,
            meta_flips: 777,
            counter_flips: 42,
            epoch_starts: 12,
            total_slots: 6_100,
            exec_time_ns_bits: 1.25e9_f64.to_bits(),
            flushed_pages: 5,
            flush_fp: 0xdead_beef_cafe_f00d,
        }
    }

    #[test]
    fn jsonl_roundtrip_is_exact() {
        let cp = sample();
        let text = cp.to_jsonl();
        assert!(text.ends_with('\n'));
        let back = RunCheckpoint::from_jsonl(&text).unwrap();
        assert_eq!(back, cp);
        assert_eq!(back.exec_time_ns(), 1.25e9);
    }

    #[test]
    fn resume_takes_the_last_checkpoint() {
        let mut text = String::new();
        let mut early = sample();
        early.events_consumed = 10;
        text.push_str(&early.to_jsonl());
        text.push_str(&sample().to_jsonl());
        let back = RunCheckpoint::from_jsonl(&text).unwrap();
        assert_eq!(back.events_consumed, 12_345);
    }

    #[test]
    fn pre_paging_checkpoints_parse_with_zero_flush_state() {
        let old = "{\"type\":\"run_checkpoint\",\"version\":1,\"events\":10,\"reads\":1,\
                   \"writes\":2,\"data_flips\":3,\"meta_flips\":4,\"counter_flips\":5,\
                   \"epoch_starts\":6,\"total_slots\":7,\
                   \"exec_ns_bits\":\"3fb999999999999a\"}\n";
        let cp = RunCheckpoint::from_jsonl(old).unwrap();
        assert_eq!(cp.flushed_pages, 0);
        assert_eq!(cp.flush_fp, 0);
        assert_eq!(cp.events_consumed, 10);
    }

    #[test]
    fn missing_or_malformed_input_errors() {
        assert!(RunCheckpoint::from_jsonl("").is_err());
        assert!(RunCheckpoint::from_jsonl("{\"type\":\"other\"}\n").is_err());
        let mut truncated = sample().to_jsonl();
        truncated.truncate(truncated.len() / 2);
        assert!(RunCheckpoint::from_jsonl(&truncated).is_err());
    }
}
