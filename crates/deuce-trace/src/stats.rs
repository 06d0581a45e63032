//! Trace statistics: the Table 2 characteristics plus the word/bit
//! modification statistics the DEUCE results hinge on.

use std::collections::HashMap;

use deuce_crypto::{LineBytes, LINE_BITS};

use crate::io::TraceIoError;
use crate::source::{TraceSource, WriteSource};
use crate::trace::{Op, Trace};

/// Summary statistics of a trace.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceStats {
    /// Events in the trace, reads and writebacks.
    pub events: u64,
    /// Writeback events.
    pub writes: u64,
    /// Read events.
    pub reads: u64,
    /// Read misses per kilo-instruction (per core, averaged).
    pub mpki: f64,
    /// Writebacks per kilo-instruction (per core, averaged).
    pub wbpki: f64,
    /// Mean 16-bit words modified per writeback (vs the previous write of
    /// the same line).
    pub avg_words_modified: f64,
    /// Mean data bits modified per writeback.
    pub avg_bits_modified: f64,
    /// Mean fraction of the 512 data bits modified per writeback (the
    /// unencrypted-DCW flip rate).
    pub dirty_bit_fraction: f64,
    /// Distinct lines touched.
    pub unique_lines: usize,
    /// Writebacks that were compared (first write per line is skipped).
    pub compared_writes: u64,
}

impl TraceStats {
    /// Computes statistics by replaying the trace's write stream
    /// ([`TraceStats::from_source`] over the trace).
    #[must_use]
    pub fn compute(trace: &Trace) -> Self {
        Self::from_source(&mut TraceSource::new(trace)).expect("an in-RAM source never fails")
    }

    /// Computes statistics in one pass over a stream. Only the latest
    /// value of each distinct line is held, so memory grows with the
    /// lines touched, not with the stream's length.
    ///
    /// # Errors
    ///
    /// Propagates the source's [`TraceIoError`].
    pub fn from_source<S: WriteSource + ?Sized>(source: &mut S) -> Result<Self, TraceIoError> {
        let mut last: HashMap<u64, LineBytes> = HashMap::new();
        let mut words_modified = 0u64;
        let mut bits_modified = 0u64;
        let mut compared = 0u64;
        let (mut events, mut reads, mut writes) = (0u64, 0u64, 0u64);
        let mut max_instr_per_core = [0u64; 1 << u8::BITS];

        while let Some(e) = source.next_event()? {
            events += 1;
            let per_core = &mut max_instr_per_core[usize::from(e.core)];
            *per_core = (*per_core).max(e.instr);
            match e.op {
                Op::Read => reads += 1,
                Op::Write => {
                    writes += 1;
                    let data = e.data.expect("write events carry data");
                    if let Some(prev) = last.insert(e.line.value(), data) {
                        compared += 1;
                        for w in 0..32 {
                            let range = w * 2..w * 2 + 2;
                            if prev[range.clone()] != data[range] {
                                words_modified += 1;
                            }
                        }
                        bits_modified += prev
                            .iter()
                            .zip(&data)
                            .map(|(a, b)| u64::from((a ^ b).count_ones()))
                            .sum::<u64>();
                    }
                }
            }
        }

        let kilo_instr: f64 = max_instr_per_core.iter().map(|&i| i as f64 / 1000.0).sum();
        let per_compared = |total: u64| if compared > 0 { total as f64 / compared as f64 } else { 0.0 };
        Ok(Self {
            events,
            writes,
            reads,
            mpki: if kilo_instr > 0.0 { reads as f64 / kilo_instr } else { 0.0 },
            wbpki: if kilo_instr > 0.0 { writes as f64 / kilo_instr } else { 0.0 },
            avg_words_modified: per_compared(words_modified),
            avg_bits_modified: per_compared(bits_modified),
            dirty_bit_fraction: per_compared(bits_modified) / LINE_BITS as f64,
            unique_lines: last.len(),
            compared_writes: compared,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Benchmark, TraceConfig};

    #[test]
    fn rates_match_profile() {
        let trace = TraceConfig::new(Benchmark::Mcf).writes(5000).seed(2).generate();
        let stats = TraceStats::compute(&trace);
        assert!((stats.wbpki - 8.78).abs() < 0.5, "wbpki {}", stats.wbpki);
        assert!((stats.mpki - 16.2).abs() < 1.2, "mpki {}", stats.mpki);
    }

    #[test]
    fn sparse_benchmark_has_few_modified_words() {
        let trace = TraceConfig::new(Benchmark::Libquantum)
            .writes(5000)
            .seed(2)
            .generate();
        let stats = TraceStats::compute(&trace);
        assert!(stats.avg_words_modified < 6.0, "{}", stats.avg_words_modified);
        assert!(stats.dirty_bit_fraction < 0.06, "{}", stats.dirty_bit_fraction);
    }

    #[test]
    fn dense_benchmark_has_many_modified_words() {
        let trace = TraceConfig::new(Benchmark::Gems).writes(5000).seed(2).generate();
        let stats = TraceStats::compute(&trace);
        assert!(stats.avg_words_modified > 20.0, "{}", stats.avg_words_modified);
    }

    #[test]
    fn empty_trace_is_all_zero() {
        let stats = TraceStats::compute(&Trace::default());
        assert_eq!(stats.compared_writes, 0);
        assert_eq!(stats.unique_lines, 0);
        assert_eq!(stats.dirty_bit_fraction, 0.0);
        assert_eq!((stats.events, stats.writes, stats.reads), (0, 0, 0));
        let streamed = TraceStats::from_source(&mut TraceConfig::new(Benchmark::Mcf).writes(0).stream());
        assert_eq!(streamed.unwrap(), stats);
    }

    /// One pass over a generator stream gives the statistics of the
    /// materialised trace, event counts included, for sparse, dense and
    /// multi-core profiles.
    #[test]
    fn streamed_stats_match_the_materialised_trace() {
        for (benchmark, cores) in [
            (Benchmark::Libquantum, 1),
            (Benchmark::Mcf, 4),
            (Benchmark::Gems, 2),
            (Benchmark::Soplex, 8),
        ] {
            let config = TraceConfig::new(benchmark).lines(64).writes(3000).cores(cores).seed(7);
            let trace = config.generate();
            let streamed = TraceStats::from_source(&mut config.stream()).expect("generator stream");
            assert_eq!(streamed, TraceStats::compute(&trace), "{benchmark:?}");
            assert_eq!(streamed.events, trace.len() as u64, "{benchmark:?}");
            assert_eq!(streamed.writes, trace.write_count() as u64, "{benchmark:?}");
            assert_eq!(streamed.reads, trace.read_count() as u64, "{benchmark:?}");
        }
    }
}
