//! Synthetic SPEC2006-calibrated writeback traces for secure-NVM studies.
//!
//! The DEUCE paper evaluates 12 SPEC2006 benchmarks (8-copy rate mode,
//! 4-billion-instruction slices) traced through a 64 MB L4 cache. Neither
//! the binaries nor the authors' traces are available, so this crate
//! builds *calibrated synthetic generators*: one profile per benchmark,
//! parameterized directly on the statistics every DEUCE result depends
//! on —
//!
//! 1. read/writeback arrival rates (Table 2's MPKI / WBPKI),
//! 2. how many 16-bit words of a line change per writeback and how
//!    *stable* that modified-word footprint is across writes (drives
//!    DEUCE, Figs. 9–10),
//! 3. how many and which bits change inside a modified word — counter,
//!    pointer, or float update patterns (drives DCW/FNW rates and the
//!    per-bit-position skew of Fig. 12),
//! 4. line reuse (Zipf working-set selection).
//!
//! The generators are deterministic given a seed.
//!
//! # Examples
//!
//! ```
//! use deuce_trace::{Benchmark, TraceConfig};
//!
//! let trace = TraceConfig::new(Benchmark::Libquantum)
//!     .lines(64)
//!     .writes(1_000)
//!     .seed(7)
//!     .generate();
//! assert_eq!(trace.write_count(), 1_000);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod attack;
mod generator;
mod io;
mod profiles;
mod source;
mod stats;
mod trace;
mod value_model;

pub use attack::{AttackKind, AttackTrace};
pub use generator::{GeneratorSource, TraceConfig, HELPER_MIN_WRITES};
pub use io::{
    open_source, read_trace, write_source_jsonl, write_source_to_file, write_trace,
    write_trace_jsonl, BinaryStreamSource, JsonlStreamSource, TraceIoError,
};
pub use source::{core_count, TraceSource, WriteSource};
pub use profiles::{Benchmark, BenchmarkProfile, FootprintDrift};
pub use stats::TraceStats;
pub use trace::{Op, Trace, TraceEvent};
pub use value_model::WordRole;

pub use deuce_crypto::{LineAddr, LineBytes, LINE_BYTES};
