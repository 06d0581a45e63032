//! # DEUCE: Write-Efficient Encryption for Non-Volatile Memories
//!
//! A complete, from-scratch Rust reproduction of the system described in
//! *Young, Nair, Qureshi — "DEUCE: Write-Efficient Encryption for
//! Non-Volatile Memories", ASPLOS 2015*.
//!
//! Phase Change Memory (PCM) retains data after power-off, so PCM DIMMs must
//! be encrypted to resist stolen-DIMM and bus-snooping attacks. Counter-mode
//! encryption, however, flips ~50% of the bits in a cache line on every
//! write (the avalanche effect), even though a typical writeback modifies
//! only ~12% of the bits. DEUCE re-encrypts only the 16-bit words that have
//! changed since the start of a periodic *epoch*, using two virtual counters
//! (leading/trailing) derived from the single per-line write counter. This
//! cuts bit flips per write from 50% to ~24%, and combined with Horizontal
//! Wear Leveling doubles the memory's lifetime.
//!
//! This crate is a facade that re-exports the subsystem crates:
//!
//! - [`aes`] — FIPS-197 AES block cipher (the OTP generator).
//! - [`crypto`] — counter-mode one-time-pad engine and per-line counters.
//! - [`nvm`] — bit-level PCM device model: cells, banks, write slots,
//!   energy and endurance.
//! - [`schemes`] — the encryption/write-reduction schemes: DCW, FNW,
//!   counter-mode encryption, BLE, DEUCE, DynDEUCE and their combinations.
//! - [`wear`] — Start-Gap vertical wear leveling and Horizontal Wear
//!   Leveling (HWL).
//! - [`trace`] — synthetic SPEC2006-calibrated writeback trace generators.
//! - [`sim`] — the trace-driven system simulator and metrics.
//! - [`integrity`] — Merkle-tree counter authentication and line MACs
//!   against bus-tampering (pad-reuse) attacks.
//! - [`memctl`] — a byte-addressable [`memctl::SecureMemory`] facade
//!   combining encryption, write reduction, and integrity.
//! - [`cache`] — the L1–L4 write-back cache hierarchy that turns
//!   load/store streams into the writeback traffic PCM actually sees.
//! - [`telemetry`] — zero-dependency structured instrumentation:
//!   recorders, streaming histograms, time series, and JSONL/CSV export
//!   (a no-op unless a [`telemetry::TelemetryRecorder`] is attached).
//! - [`serve`] — a sharded multi-tenant request service over the
//!   simulator: isolated per-tenant key domains, bounded queues with
//!   explicit backpressure, and shard-count-invariant results.
//!
//! ## Quickstart
//!
//! Measure the bit flips per writeback of encrypted memory with and without
//! DEUCE on a libquantum-like workload:
//!
//! ```
//! use deuce::schemes::SchemeKind;
//! use deuce::sim::{RunError, Simulator, SimConfig};
//! use deuce::trace::{Benchmark, TraceConfig};
//!
//! let workload = TraceConfig::new(Benchmark::Libquantum)
//!     .lines(256)
//!     .writes(20_000)
//!     .seed(42);
//! let run = |kind| Simulator::new(SimConfig::new(kind)).run_source(&mut workload.stream());
//!
//! let encrypted = run(SchemeKind::EncryptedDcw)?;
//! let deuce = run(SchemeKind::Deuce)?;
//!
//! assert!(encrypted.flip_rate() > 0.45); // avalanche: ~50% of bits flip
//! assert!(deuce.flip_rate() < 0.30);     // DEUCE: ~24%
//! # Ok::<(), RunError>(())
//! ```

pub use deuce_aes as aes;
pub use deuce_cache as cache;
pub use deuce_crypto as crypto;
pub use deuce_integrity as integrity;
pub use deuce_memctl as memctl;
pub use deuce_nvm as nvm;
pub use deuce_rng as rng;
pub use deuce_schemes as schemes;
pub use deuce_serve as serve;
pub use deuce_sim as sim;
pub use deuce_telemetry as telemetry;
pub use deuce_trace as trace;
pub use deuce_wear as wear;
