//! DynDEUCE: morphing from DEUCE to FNW mid-epoch (§4.6).
//!
//! DEUCE loses to plain FNW when a workload rewrites most words of a line
//! every write (Gems, soplex). DynDEUCE keeps DEUCE's 32 tracking bits
//! plus a single *mode bit*: every epoch starts in DEUCE mode, and on each
//! in-epoch write the controller computes the exact bit flips both
//! encodings would cost (Fig. 11); if FNW is cheaper the line switches to
//! FNW mode — repurposing the 32 modified bits as FNW flip bits — until
//! the next epoch resets it to DEUCE.

use deuce_crypto::{EpochInterval, LineAddr, LineBytes, OtpEngine, Pad, VirtualCounterPair};
use deuce_nvm::{LineImage, MetaBits};

use crate::config::WordSize;
use crate::core::{assert_counter_width, mark_modified_words, CtrState};
use crate::fnw::{fnw_decode, fnw_encode};
use crate::scheme::{LineMut, LineRef, LineScheme, SchemeCell};
use crate::WriteOutcome;

/// Index of the mode bit within the 33-bit metadata (bits `0..32` are the
/// modified/flip bits).
const MODE_BIT: u32 = 32;

/// Per-line DynDEUCE state: the counter plus the raw 33-bit metadata.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DynDeuceState {
    /// The line counter.
    pub ctr: CtrState,
    /// Bits 0..32: modified bits (DEUCE mode) or flip bits (FNW mode).
    /// Bit 32: mode (0 = DEUCE, 1 = FNW).
    pub meta: u64,
}

/// The DynDEUCE scheme parameters shared by every line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DynDeuceScheme {
    /// Epoch interval (full re-encryption period; resets mode to DEUCE).
    pub epoch: EpochInterval,
    /// Line-counter width in bits.
    pub counter_bits: u32,
}

impl DynDeuceScheme {
    /// Word size is fixed at 2 bytes: the tracking bits must be
    /// repurposable as 16-bit-segment FNW flip bits, so the granularities
    /// must match (§4.6).
    const WORD: WordSize = WordSize::Bytes2;

    /// Creates the scheme.
    ///
    /// # Panics
    ///
    /// Panics if `counter_bits` is 0 or greater than 48.
    #[must_use]
    pub fn new(epoch: EpochInterval, counter_bits: u32) -> Self {
        assert_counter_width(counter_bits);
        Self { epoch, counter_bits }
    }

    fn meta_bits(state: &DynDeuceState) -> MetaBits {
        MetaBits::from_raw(state.meta, 33)
    }

    fn tracking_bits(state: &DynDeuceState) -> MetaBits {
        MetaBits::from_raw(state.meta & 0xFFFF_FFFF, 32)
    }

    fn in_fnw_mode(state: &DynDeuceState) -> bool {
        Self::meta_bits(state).get(MODE_BIT)
    }

    /// The stored line and metadata a DEUCE-mode encoding would produce.
    /// `pad` is the line pad for the current leading counter; `old` is
    /// the stored line decrypted under the trailing pad, right in every
    /// word not yet marked this epoch.
    fn deuce_candidate(
        self,
        pad: &Pad,
        stored: &LineBytes,
        old: &LineBytes,
        state: &DynDeuceState,
        data: &LineBytes,
    ) -> (LineBytes, MetaBits) {
        let w = Self::WORD.bytes();
        let mut modified = Self::tracking_bits(state);
        mark_modified_words(&mut modified, Self::WORD, old, data);
        let mut candidate = *stored;
        for word in 0..Self::WORD.words_per_line() {
            if modified.get(word as u32) {
                for (offset, i) in (word * w..(word + 1) * w).enumerate() {
                    candidate[i] = data[i] ^ pad.word(word, w)[offset];
                }
            }
        }
        (candidate, MetaBits::from_raw(modified.raw(), 33)) // mode bit stays 0
    }

    /// The stored line and metadata an FNW-mode encoding would produce:
    /// full re-encryption with the leading pad, flip bits repurposed from
    /// the current tracking bits, mode bit set.
    fn fnw_candidate(
        self,
        pad: &Pad,
        stored: &LineBytes,
        state: &DynDeuceState,
        data: &LineBytes,
    ) -> (LineBytes, MetaBits) {
        let ciphertext = pad.xor(data);
        let enc = fnw_encode(&ciphertext, stored, &Self::tracking_bits(state), 16);
        (
            enc.stored,
            MetaBits::from_raw(enc.flip_bits.raw() | 1 << MODE_BIT, 33),
        )
    }
}

impl LineScheme for DynDeuceScheme {
    type State = DynDeuceState;

    fn metadata_bits(&self) -> u32 {
        33
    }

    fn init(
        &self,
        engine: &OtpEngine,
        addr: LineAddr,
        initial: &LineBytes,
    ) -> (LineBytes, DynDeuceState) {
        (engine.line_pad(addr, 0).xor(initial), DynDeuceState::default())
    }

    fn write(
        &self,
        engine: &OtpEngine,
        addr: LineAddr,
        line: LineMut<'_, DynDeuceState>,
        data: &LineBytes,
    ) -> WriteOutcome {
        let old_image = LineImage::new(*line.stored, Self::meta_bits(line.state));
        let counter_flips = line.state.ctr.bump(self.counter_bits);
        let v = VirtualCounterPair::derive(line.state.ctr.value(), self.epoch);

        let epoch_started = v.is_epoch_start();
        if epoch_started {
            // Mode returns to DEUCE at every epoch start (§4.6).
            *line.stored = engine.line_pad(addr, v.lctr()).xor(data);
            line.state.meta = 0;
        } else if Self::in_fnw_mode(line.state) {
            // Committed to FNW until the next epoch: full re-encryption
            // with the fresh pad, FNW-encoded against the stored bits.
            let ciphertext = engine.line_pad(addr, v.lctr()).xor(data);
            let enc = fnw_encode(&ciphertext, line.stored, &Self::tracking_bits(line.state), 16);
            *line.stored = enc.stored;
            line.state.meta = enc.flip_bits.raw() | 1 << MODE_BIT;
        } else {
            // DEUCE mode: evaluate both encodings exactly (Fig. 11).
            // Every write so far this epoch was a DEUCE write, so the
            // unmarked words still decrypt under the trailing pad.
            let (pad, pad_tctr) = engine.line_pad_pair(addr, v.lctr(), v.tctr());
            let old = pad_tctr.xor(line.stored);
            let (deuce_stored, deuce_meta) =
                self.deuce_candidate(&pad, line.stored, &old, line.state, data);
            let (fnw_stored, fnw_meta) = self.fnw_candidate(&pad, line.stored, line.state, data);

            let deuce_img = LineImage::new(deuce_stored, deuce_meta);
            let fnw_img = LineImage::new(fnw_stored, fnw_meta);
            let deuce_flips = old_image.flips_to(&deuce_img).total();
            let fnw_flips = old_image.flips_to(&fnw_img).total();

            if fnw_flips < deuce_flips {
                *line.stored = fnw_stored;
                line.state.meta = fnw_meta.raw();
            } else {
                *line.stored = deuce_stored;
                line.state.meta = deuce_meta.raw();
            }
        }
        WriteOutcome::from_images(
            old_image,
            LineImage::new(*line.stored, Self::meta_bits(line.state)),
            counter_flips,
            epoch_started,
        )
    }

    fn read(&self, engine: &OtpEngine, addr: LineAddr, line: LineRef<'_, DynDeuceState>) -> LineBytes {
        let v = VirtualCounterPair::derive(line.state.ctr.value(), self.epoch);
        if Self::in_fnw_mode(line.state) {
            let ciphertext = fnw_decode(line.stored, &Self::tracking_bits(line.state), 16);
            engine.line_pad(addr, v.lctr()).xor(&ciphertext)
        } else {
            let (pad_lctr, pad_tctr) = engine.line_pad_pair(addr, v.lctr(), v.tctr());
            let w = Self::WORD.bytes();
            let tracking = Self::tracking_bits(line.state);
            let mut out = [0u8; deuce_crypto::LINE_BYTES];
            for word in 0..Self::WORD.words_per_line() {
                let pad = if tracking.get(word as u32) {
                    pad_lctr.word(word, w)
                } else {
                    pad_tctr.word(word, w)
                };
                for (offset, i) in (word * w..(word + 1) * w).enumerate() {
                    out[i] = line.stored[i] ^ pad[offset];
                }
            }
            out
        }
    }

    fn image(&self, line: LineRef<'_, DynDeuceState>) -> LineImage {
        LineImage::new(*line.stored, Self::meta_bits(line.state))
    }
}

/// One memory line under DynDEUCE.
///
/// # Examples
///
/// ```
/// use deuce_crypto::{EpochInterval, LineAddr, OtpEngine, SecretKey};
/// use deuce_schemes::DynDeuceLine;
///
/// let engine = OtpEngine::new(&SecretKey::from_seed(0));
/// let mut line = DynDeuceLine::new(&engine, LineAddr::new(0), &[0u8; 64], EpochInterval::DEFAULT, 28);
/// let data = [0x5Au8; 64]; // dense write: every word changes
/// let _ = line.write(&engine, &data);
/// assert_eq!(line.read(&engine), data);
/// ```
pub type DynDeuceLine = SchemeCell<DynDeuceScheme>;

impl DynDeuceLine {
    /// Initializes the line (encrypted in full at counter 0, DEUCE mode).
    #[must_use]
    pub fn new(
        engine: &OtpEngine,
        addr: LineAddr,
        initial: &LineBytes,
        epoch: EpochInterval,
        counter_bits: u32,
    ) -> Self {
        Self::with_scheme(DynDeuceScheme::new(epoch, counter_bits), engine, addr, initial)
    }

    /// Whether the line is currently in FNW mode.
    #[must_use]
    pub fn is_fnw_mode(&self) -> bool {
        DynDeuceScheme::in_fnw_mode(self.state())
    }

    /// Current counter value.
    #[must_use]
    pub fn counter(&self) -> u64 {
        self.state().ctr.value()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deuce_crypto::SecretKey;

    fn engine() -> OtpEngine {
        OtpEngine::new(&SecretKey::from_seed(21))
    }

    fn new_line(e: &OtpEngine, epoch: u64) -> DynDeuceLine {
        DynDeuceLine::new(
            e,
            LineAddr::new(5),
            &[0u8; 64],
            EpochInterval::new(epoch).unwrap(),
            28,
        )
    }

    #[test]
    fn sparse_writes_stay_in_deuce_mode() {
        let e = engine();
        let mut l = new_line(&e, 32);
        for i in 1..20u8 {
            let mut data = [0u8; 64];
            data[0] = i;
            let _ = l.write(&e, &data);
            assert!(!l.is_fnw_mode(), "write {i} should stay DEUCE");
            assert_eq!(l.read(&e), data);
        }
    }

    #[test]
    fn dense_writes_switch_to_fnw_mode() {
        let e = engine();
        let mut l = new_line(&e, 32);
        let mut switched = false;
        for i in 1..20u64 {
            let mut data = [0u8; 64];
            for (j, b) in data.iter_mut().enumerate() {
                *b = (i as u8).wrapping_mul(31).wrapping_add(j as u8);
            }
            let _ = l.write(&e, &data);
            assert_eq!(l.read(&e), data, "write {i}");
            switched |= l.is_fnw_mode();
        }
        assert!(switched, "dense writes should have triggered FNW mode");
    }

    #[test]
    fn mode_resets_at_epoch_start() {
        let e = engine();
        let mut l = new_line(&e, 4);
        // Force FNW mode with dense writes.
        for i in 1..4u64 {
            let mut data = [0u8; 64];
            for (j, b) in data.iter_mut().enumerate() {
                *b = (i as u8).wrapping_add(j as u8).wrapping_mul(13);
            }
            let _ = l.write(&e, &data);
        }
        assert!(l.is_fnw_mode());
        let data = [7u8; 64];
        let o = l.write(&e, &data); // 4th write: epoch start
        assert!(o.epoch_started);
        assert!(!l.is_fnw_mode(), "epoch start returns to DEUCE mode");
        assert_eq!(l.read(&e), data);
    }

    #[test]
    fn chooses_whichever_flips_less() {
        // DynDEUCE's write never flips more bits than the better of a
        // freshly-evaluated DEUCE or FNW candidate would.
        let e = engine();
        let mut l = new_line(&e, 32);
        let mut data = [0u8; 64];
        for round in 1..30u8 {
            for b in data.iter_mut().take(usize::from(round % 64) + 1) {
                *b = b.wrapping_add(round);
            }
            let before_read = l.read(&e);
            assert_eq!(before_read.len(), 64);
            let o = l.write(&e, &data);
            assert_eq!(l.read(&e), data, "round {round}");
            // Regression bound: never exceed full avalanche + all metadata.
            assert!(o.flips.total() <= 512 / 2 + 60);
        }
    }

    #[test]
    fn fnw_mode_persists_until_epoch() {
        let e = engine();
        let mut l = new_line(&e, 32);
        // Dense write to force FNW.
        let mut data = [0u8; 64];
        for (j, b) in data.iter_mut().enumerate() {
            *b = j as u8 ^ 0xA5;
        }
        let _ = l.write(&e, &data);
        if !l.is_fnw_mode() {
            // One more dense write to be sure.
            for b in data.iter_mut() {
                *b = b.wrapping_add(0x33);
            }
            let _ = l.write(&e, &data);
        }
        assert!(l.is_fnw_mode());
        // A sparse write now does NOT switch back (until epoch).
        data[0] ^= 1;
        let _ = l.write(&e, &data);
        assert!(l.is_fnw_mode(), "mode switch back mid-epoch is impossible");
        assert_eq!(l.read(&e), data);
    }
}
