//! A secure-memory controller facade over the DEUCE stack.
//!
//! The other crates expose the *mechanisms* (pads, schemes, wear
//! leveling, integrity). This crate packages them the way a memory
//! controller — or a downstream system wanting an encrypted NVM
//! region — consumes them: a byte-addressable [`SecureMemory`] with
//! transparent encryption, write-reduction, optional integrity
//! checking, and cumulative device statistics. The [`repair`] module
//! adds the graceful-degradation layer: per-line ECP correction
//! entries, retirement to a spare pool, and the [`UncorrectableError`]
//! end-of-life signal, which the trace-driven simulator (`deuce-sim`)
//! runs under fault injection.
//!
//! ```
//! use deuce_memctl::{MemoryBuilder, MemoryError};
//!
//! let mut memory = MemoryBuilder::new(4096).key_seed(7).build();
//! memory.write(100, b"hello secure world")?;
//! let mut buf = [0u8; 18];
//! memory.read(100, &mut buf)?;
//! assert_eq!(&buf, b"hello secure world");
//! // Bits flipped so far in the PCM cells:
//! assert!(memory.stats().bit_flips > 0);
//! # Ok::<(), MemoryError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod builder;
mod memory;
pub mod repair;

pub use builder::MemoryBuilder;
pub use memory::{MemoryError, MemoryStats, SecureMemory};
pub use repair::{EcpConfig, EcpRepair, RepairAction, UncorrectableError};

pub use deuce_schemes::{SchemeConfig, SchemeKind, WordSize};
pub use deuce_telemetry as telemetry;
