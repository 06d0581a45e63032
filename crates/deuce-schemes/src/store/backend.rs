//! The slot-storage interface behind [`crate::LineStore`]: fixed-size
//! pages of line slots, plus the state codec that lets per-line states
//! cross the RAM/disk boundary without `unsafe`.
//!
//! A backend owns the two SoA segments of every materialised slot —
//! 64-byte stored images and compact per-line states — grouped into
//! fixed-size pages of
//! [`SLOTS_PER_PAGE`] slots with a presence bitmap per page. Slot ids
//! are dense and assigned in materialisation order, so backends agree
//! on slot placement by construction and the scheme hot loop stays
//! borrow-based: access happens inside a closure while the slot's page
//! is pinned.

use deuce_crypto::{LineBytes, BLOCKS_PER_LINE, LINE_BYTES};

use crate::ble::{BleDeuceState, BleState};
use crate::core::CtrState;
use crate::deuce::DeuceState;
use crate::deuce_fnw::DeuceFnwState;
use crate::dyn_deuce::DynDeuceState;
use crate::fnw::{EncryptedFnwState, FnwState};
use crate::line::AnyState;
use crate::scheme::{LineMut, LineRef, LineScheme};

/// Line slots per page. Exactly one `u64` of presence bits.
pub const SLOTS_PER_PAGE: usize = 64;

/// Paging statistics of a cache-managed backend (all zero until the
/// first fault; fully-resident backends report `None` upstream).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StorePageStats {
    /// Cache misses that materialised a page (fresh or reloaded).
    pub page_faults: u64,
    /// Pages evicted from the resident cache.
    pub page_evictions: u64,
    /// Dirty pages written back to the page file (evictions plus the
    /// end-of-run flush).
    pub pages_flushed: u64,
    /// Bytes of line storage currently resident in RAM.
    pub resident_bytes: u64,
    /// Highest resident-byte watermark observed.
    pub peak_resident_bytes: u64,
}

/// Slot storage for a [`crate::LineStore`]: an append-only dense slot
/// space whose segments are reachable only through pin-scoped closures.
///
/// The two shipped implementations are [`crate::ArenaBackend`] (every
/// page permanently resident) and [`crate::FilePageBackend`] (an LRU
/// cache of resident pages over a page file). The contract between
/// them: identical slot ids for identical call sequences, and
/// bit-identical slot contents observed through
/// [`with_slot`](Self::with_slot) / [`with_slot_mut`](Self::with_slot_mut).
pub trait PageBackend<S: LineScheme> {
    /// Appends a slot holding `stored` / `state`, returning its dense
    /// id.
    ///
    /// # Panics
    ///
    /// Panics if more than `u32::MAX` slots are materialised.
    fn push(&mut self, stored: &LineBytes, state: S::State) -> u32;

    /// Materialised slots.
    fn len(&self) -> usize;

    /// Whether no slot has been materialised yet.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Pins `slot`'s page and lends its stored image and state mutably
    /// for the duration of `f`.
    fn with_slot_mut<T>(&mut self, slot: u32, f: impl FnOnce(LineMut<'_, S::State>) -> T) -> T;

    /// Pins `slot`'s page and lends its stored image and state for the
    /// duration of `f`.
    fn with_slot<T>(&self, slot: u32, f: impl FnOnce(LineRef<'_, S::State>) -> T) -> T;

    /// Bytes of line storage one materialised slot occupies in RAM: the
    /// stored image plus the in-memory state. The same for every
    /// backend; [`crate::LineStore::per_line_bytes`] reports it.
    fn per_line_bytes(&self) -> u64 {
        (LINE_BYTES + core::mem::size_of::<S::State>()) as u64
    }

    /// Bytes of line storage currently resident in RAM (materialised
    /// slots of resident pages only).
    fn resident_bytes(&self) -> u64;

    /// Paging statistics; `None` for fully-resident backends.
    fn paging_stats(&self) -> Option<StorePageStats> {
        None
    }

    /// Writes all dirty resident pages back to stable storage (no-op
    /// for fully-resident backends).
    fn flush(&mut self) {}

    /// Deterministic flush progress: `(pages flushed so far, running
    /// fingerprint chaining each flushed page's index and checksum, in
    /// flush order)`. `(0, 0)` for backends that never flush.
    fn flush_state(&self) -> (u64, u64) {
        (0, 0)
    }

    /// The first I/O error the backend swallowed, if any. Backends keep
    /// simulating deterministically past an I/O failure (the hot loop
    /// is infallible); drivers check this once at end of run.
    fn io_error(&self) -> Option<String> {
        None
    }
}

/// Fixed-width byte encoding for compact per-line states, so a page
/// file can persist them without `unsafe` byte-casting.
///
/// Every shipped state is a sequence of raw `u64` fields and encodes as
/// little-endian words; [`crate::AnyState`] adds one leading tag byte.
/// Only materialised slots are ever decoded: a page file stores the
/// others as zero bytes and gives them the backend's blank state on
/// load. Decoding is fallible because a page file is input: bytes that
/// name no state (an unknown [`crate::AnyState`] tag) decode to `None`.
pub trait StateCodec: Sized {
    /// Encoded size in bytes. Fixed per type, pinned by
    /// `tests/state_sizes.rs`.
    const ENCODED_BYTES: usize;

    /// Writes exactly [`ENCODED_BYTES`](Self::ENCODED_BYTES) bytes into
    /// `out`.
    fn encode(&self, out: &mut [u8]);

    /// Reads a state back from exactly
    /// [`ENCODED_BYTES`](Self::ENCODED_BYTES) bytes, or `None` if they
    /// encode no state.
    fn decode(bytes: &[u8]) -> Option<Self>;

    /// Whether `self` is a state of the same kind as `other`, so a page
    /// file whose blank state is `other` may hold it. Always true for a
    /// concrete state type; [`crate::AnyState`] compares variants, so a
    /// record carrying another scheme's state fails to load.
    fn same_kind(&self, other: &Self) -> bool {
        let _ = other;
        true
    }
}

/// Little-endian `u64` store at `offset`.
pub(crate) fn put_u64(out: &mut [u8], offset: usize, value: u64) {
    out[offset..offset + 8].copy_from_slice(&value.to_le_bytes());
}

/// Little-endian `u64` load at `offset`.
pub(crate) fn get_u64(bytes: &[u8], offset: usize) -> u64 {
    let mut word = [0u8; 8];
    word.copy_from_slice(&bytes[offset..offset + 8]);
    u64::from_le_bytes(word)
}

impl StateCodec for () {
    const ENCODED_BYTES: usize = 0;

    fn encode(&self, _out: &mut [u8]) {}

    fn decode(_bytes: &[u8]) -> Option<Self> {
        Some(())
    }
}

impl StateCodec for CtrState {
    const ENCODED_BYTES: usize = 8;

    fn encode(&self, out: &mut [u8]) {
        put_u64(out, 0, self.value());
    }

    fn decode(bytes: &[u8]) -> Option<Self> {
        Some(CtrState::from_raw(get_u64(bytes, 0)))
    }
}

impl StateCodec for FnwState {
    const ENCODED_BYTES: usize = 8;

    fn encode(&self, out: &mut [u8]) {
        put_u64(out, 0, self.flip_bits);
    }

    fn decode(bytes: &[u8]) -> Option<Self> {
        Some(Self { flip_bits: get_u64(bytes, 0) })
    }
}

impl StateCodec for EncryptedFnwState {
    const ENCODED_BYTES: usize = 16;

    fn encode(&self, out: &mut [u8]) {
        put_u64(out, 0, self.ctr.value());
        put_u64(out, 8, self.flip_bits);
    }

    fn decode(bytes: &[u8]) -> Option<Self> {
        Some(Self {
            ctr: CtrState::from_raw(get_u64(bytes, 0)),
            flip_bits: get_u64(bytes, 8),
        })
    }
}

impl StateCodec for DeuceState {
    const ENCODED_BYTES: usize = 16;

    fn encode(&self, out: &mut [u8]) {
        put_u64(out, 0, self.ctr.value());
        put_u64(out, 8, self.modified);
    }

    fn decode(bytes: &[u8]) -> Option<Self> {
        Some(Self {
            ctr: CtrState::from_raw(get_u64(bytes, 0)),
            modified: get_u64(bytes, 8),
        })
    }
}

impl StateCodec for DynDeuceState {
    const ENCODED_BYTES: usize = 16;

    fn encode(&self, out: &mut [u8]) {
        put_u64(out, 0, self.ctr.value());
        put_u64(out, 8, self.meta);
    }

    fn decode(bytes: &[u8]) -> Option<Self> {
        Some(Self {
            ctr: CtrState::from_raw(get_u64(bytes, 0)),
            meta: get_u64(bytes, 8),
        })
    }
}

impl StateCodec for DeuceFnwState {
    const ENCODED_BYTES: usize = 16;

    fn encode(&self, out: &mut [u8]) {
        put_u64(out, 0, self.ctr.value());
        put_u64(out, 8, self.meta);
    }

    fn decode(bytes: &[u8]) -> Option<Self> {
        Some(Self {
            ctr: CtrState::from_raw(get_u64(bytes, 0)),
            meta: get_u64(bytes, 8),
        })
    }
}

impl StateCodec for BleState {
    const ENCODED_BYTES: usize = 8 * BLOCKS_PER_LINE;

    fn encode(&self, out: &mut [u8]) {
        for (block, &ctr) in self.ctrs.iter().enumerate() {
            put_u64(out, block * 8, ctr);
        }
    }

    fn decode(bytes: &[u8]) -> Option<Self> {
        Some(Self {
            ctrs: core::array::from_fn(|block| get_u64(bytes, block * 8)),
        })
    }
}

impl StateCodec for BleDeuceState {
    const ENCODED_BYTES: usize = 8 * BLOCKS_PER_LINE + 8;

    fn encode(&self, out: &mut [u8]) {
        for (block, &ctr) in self.ctrs.iter().enumerate() {
            put_u64(out, block * 8, ctr);
        }
        put_u64(out, 8 * BLOCKS_PER_LINE, self.modified);
    }

    fn decode(bytes: &[u8]) -> Option<Self> {
        Some(Self {
            ctrs: core::array::from_fn(|block| get_u64(bytes, block * 8)),
            modified: get_u64(bytes, 8 * BLOCKS_PER_LINE),
        })
    }
}

/// [`AnyState`] payload bytes: the largest concrete state
/// ([`BleDeuceState`]).
const ANY_PAYLOAD_BYTES: usize = BleDeuceState::ENCODED_BYTES;

impl StateCodec for AnyState {
    /// One tag byte plus a fixed-size payload slot, so every
    /// [`AnyState`] occupies the same page-file footprint regardless of
    /// variant.
    const ENCODED_BYTES: usize = 1 + ANY_PAYLOAD_BYTES;

    fn encode(&self, out: &mut [u8]) {
        out[..Self::ENCODED_BYTES].fill(0);
        let (tag, payload) = out[..Self::ENCODED_BYTES]
            .split_first_mut()
            .expect("encoded AnyState is at least one byte");
        match self {
            AnyState::UnencryptedDcw => *tag = 0,
            AnyState::UnencryptedFnw(st) => {
                *tag = 1;
                st.encode(payload);
            }
            AnyState::EncryptedDcw(st) => {
                *tag = 2;
                st.encode(payload);
            }
            AnyState::EncryptedFnw(st) => {
                *tag = 3;
                st.encode(payload);
            }
            AnyState::Ble(st) => {
                *tag = 4;
                st.encode(payload);
            }
            AnyState::Deuce(st) => {
                *tag = 5;
                st.encode(payload);
            }
            AnyState::DynDeuce(st) => {
                *tag = 6;
                st.encode(payload);
            }
            AnyState::DeuceFnw(st) => {
                *tag = 7;
                st.encode(payload);
            }
            AnyState::BleDeuce(st) => {
                *tag = 8;
                st.encode(payload);
            }
            AnyState::AddrPad => *tag = 9,
        }
    }

    fn decode(bytes: &[u8]) -> Option<Self> {
        let payload = &bytes[1..Self::ENCODED_BYTES];
        Some(match bytes[0] {
            0 => AnyState::UnencryptedDcw,
            1 => AnyState::UnencryptedFnw(FnwState::decode(payload)?),
            2 => AnyState::EncryptedDcw(CtrState::decode(payload)?),
            3 => AnyState::EncryptedFnw(EncryptedFnwState::decode(payload)?),
            4 => AnyState::Ble(BleState::decode(payload)?),
            5 => AnyState::Deuce(DeuceState::decode(payload)?),
            6 => AnyState::DynDeuce(DynDeuceState::decode(payload)?),
            7 => AnyState::DeuceFnw(DeuceFnwState::decode(payload)?),
            8 => AnyState::BleDeuce(BleDeuceState::decode(payload)?),
            9 => AnyState::AddrPad,
            _ => return None,
        })
    }

    fn same_kind(&self, other: &Self) -> bool {
        std::mem::discriminant(self) == std::mem::discriminant(other)
    }
}
