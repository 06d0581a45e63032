//! Bit-level Phase Change Memory (PCM) device model.
//!
//! PCM writes are expensive: they are slower than reads, consume
//! significant power, and wear cells out (§1 of the DEUCE paper). PCM
//! systems therefore write only the bits that actually changed — *Data
//! Comparison Write* (DCW) — and schedule writes through narrow,
//! power-limited *write slots*. This crate models those device mechanisms
//! bit-exactly:
//!
//! - [`LineImage`] / [`MetaBits`] — the exact stored state of a line (512
//!   data bits plus scheme metadata bits), with XOR/popcount flip
//!   accounting ([`FlipCount`]).
//! - [`CellArray`] — per-bit-position write counters for endurance studies
//!   (Figs. 12 and 14), with support for the rotated writes of Horizontal
//!   Wear Leveling, and optional online stuck-at fault injection
//!   ([`StuckAtFaults`]) where cells die mid-run once their sampled
//!   endurance is exhausted.
//! - [`SlotConfig`] / [`write_slots`] — the §6.1 write-throughput model:
//!   128-bit write width, 150 ns per slot, at most 64 bit flips per slot
//!   (via the device's internal Flip-N-Write), and slot fragmentation.
//! - [`TimingParams`], [`EnergyParams`] — Table 1 latencies and a per-bit
//!   write-energy model for the Fig. 17 energy/power/EDP studies.
//! - [`FailureModel`] / [`line_lifetime_writes`] — per-cell endurance
//!   variation and Error-Correcting-Pointer (ECP \[4\]) lifetime
//!   extension.
//! - [`Geometry`] — ranks/banks address mapping for the memory controller.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cells;
mod ecp;
mod energy;
mod geometry;
mod line_image;
mod slots;
mod timing;

pub use cells::{CellArray, DeadCell, StuckAtFaults, WearSummary};
pub use ecp::{ecp_storage_bits, line_lifetime_writes, FailureModel};
pub use energy::EnergyParams;
pub use geometry::{BankId, Geometry};
pub use line_image::{FlipCount, LineImage, MetaBits};
pub use slots::{region_flips, write_slots, InvalidSlotConfig, RegionFlips, SlotConfig};
pub use timing::TimingParams;

pub use deuce_crypto::{LineBytes, LINE_BITS, LINE_BYTES};
