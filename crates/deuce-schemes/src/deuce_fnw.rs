//! DEUCE+FNW: dedicated storage for both schemes (§4.6, Table 3).
//!
//! This configuration spends 64 metadata bits per line — 32 DEUCE
//! modified bits *and* 32 FNW flip bits — so each re-encrypted word can
//! additionally be stored inverted when that saves flips. It is the
//! upper bound DynDEUCE approximates with half the storage (Fig. 10:
//! 20.3% vs 22.0%).

use deuce_crypto::{EpochInterval, LineAddr, LineBytes, OtpEngine, VirtualCounterPair};
use deuce_nvm::{LineImage, MetaBits};

use crate::config::WordSize;
use crate::core::{assert_counter_width, mark_modified_words, CtrState};
use crate::scheme::{LineMut, LineRef, LineScheme, SchemeCell};
use crate::WriteOutcome;

/// Per-line DEUCE+FNW state: the counter plus the raw 64-bit metadata.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DeuceFnwState {
    /// The line counter.
    pub ctr: CtrState,
    /// Bits `0..32`: DEUCE modified bits; bits `32..64`: FNW flip bits.
    pub meta: u64,
}

/// The DEUCE+FNW scheme parameters shared by every line.
///
/// Metadata layout: bits `0..32` are DEUCE modified bits, bits `32..64`
/// are FNW flip bits (one per 16-bit word; word size is fixed at 2 bytes
/// so the granularities coincide).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeuceFnwScheme {
    /// Epoch interval (full re-encryption period).
    pub epoch: EpochInterval,
    /// Line-counter width in bits.
    pub counter_bits: u32,
}

impl DeuceFnwScheme {
    const WORD: WordSize = WordSize::Bytes2;
    const FLIP_BASE: u32 = 32;

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

    /// Stores ciphertext word `word`, choosing inversion FNW-style.
    fn store_word_fnw(stored: &mut LineBytes, meta: &mut MetaBits, word: usize, cipher: &[u8]) {
        let w = Self::WORD.bytes();
        let range = word * w..(word + 1) * w;
        let flip_idx = Self::FLIP_BASE + word as u32;
        let old_flip = meta.get(flip_idx);

        let mut normal = u32::from(old_flip);
        let mut inverted = u32::from(!old_flip);
        for (c, o) in cipher.iter().zip(&stored[range.clone()]) {
            normal += (c ^ o).count_ones();
            inverted += (!c ^ o).count_ones();
        }
        let invert = if inverted != normal { inverted < normal } else { old_flip };
        for (dst, src) in stored[range].iter_mut().zip(cipher) {
            *dst = if invert { !src } else { *src };
        }
        meta.set(flip_idx, invert);
    }
}

impl LineScheme for DeuceFnwScheme {
    type State = DeuceFnwState;

    fn metadata_bits(&self) -> u32 {
        64
    }

    fn init(
        &self,
        engine: &OtpEngine,
        addr: LineAddr,
        initial: &LineBytes,
    ) -> (LineBytes, DeuceFnwState) {
        (engine.line_pad(addr, 0).xor(initial), DeuceFnwState::default())
    }

    fn write(
        &self,
        engine: &OtpEngine,
        addr: LineAddr,
        line: LineMut<'_, DeuceFnwState>,
        data: &LineBytes,
    ) -> WriteOutcome {
        let mut meta = MetaBits::from_raw(line.state.meta, 64);
        let old_image = LineImage::new(*line.stored, meta);
        let counter_flips = line.state.ctr.bump(self.counter_bits);
        let v = VirtualCounterPair::derive(line.state.ctr.value(), self.epoch);
        let w = Self::WORD.bytes();

        let epoch_started = v.is_epoch_start();
        if epoch_started {
            // Clear modified bits, re-encrypt every word (FNW choice per
            // word keeps the flip bits useful even at epoch starts).
            let pad = engine.line_pad(addr, v.lctr());
            for word in 0..Self::WORD.words_per_line() {
                meta.set(word as u32, false);
                let mut cipher = [0u8; 8];
                for (offset, i) in (word * w..(word + 1) * w).enumerate() {
                    cipher[offset] = data[i] ^ pad.word(word, w)[offset];
                }
                Self::store_word_fnw(line.stored, &mut meta, word, &cipher[..w]);
            }
        } else {
            // An unmarked word still holds its epoch-start ciphertext
            // under the trailing pad, stored inverted iff its flip bit
            // is set: undo the inversion, decrypt, and mark what this
            // write changes.
            let (pad, pad_tctr) = engine.line_pad_pair(addr, v.lctr(), v.tctr());
            let mut old = pad_tctr.xor(line.stored);
            let mut inverted = meta.raw() >> Self::FLIP_BASE;
            while inverted != 0 {
                let word = inverted.trailing_zeros() as usize;
                inverted &= inverted - 1;
                old[word * w..(word + 1) * w].iter_mut().for_each(|b| *b = !*b);
            }
            mark_modified_words(&mut meta, Self::WORD, &old, data);
            for word in 0..Self::WORD.words_per_line() {
                if meta.get(word as u32) {
                    let mut cipher = [0u8; 8];
                    for (offset, i) in (word * w..(word + 1) * w).enumerate() {
                        cipher[offset] = data[i] ^ pad.word(word, w)[offset];
                    }
                    Self::store_word_fnw(line.stored, &mut meta, word, &cipher[..w]);
                }
            }
        }
        line.state.meta = meta.raw();
        WriteOutcome::from_images(
            old_image,
            LineImage::new(*line.stored, meta),
            counter_flips,
            epoch_started,
        )
    }

    fn read(&self, engine: &OtpEngine, addr: LineAddr, line: LineRef<'_, DeuceFnwState>) -> LineBytes {
        let meta = MetaBits::from_raw(line.state.meta, 64);
        let v = VirtualCounterPair::derive(line.state.ctr.value(), self.epoch);
        let (pad_lctr, pad_tctr) = engine.line_pad_pair(addr, v.lctr(), v.tctr());
        let w = Self::WORD.bytes();
        let mut out = [0u8; deuce_crypto::LINE_BYTES];
        for word in 0..Self::WORD.words_per_line() {
            let inverted = meta.get(Self::FLIP_BASE + word as u32);
            let pad = if meta.get(word as u32) {
                pad_lctr.word(word, w)
            } else {
                pad_tctr.word(word, w)
            };
            for (offset, i) in (word * w..(word + 1) * w).enumerate() {
                let stored = if inverted { !line.stored[i] } else { line.stored[i] };
                out[i] = stored ^ pad[offset];
            }
        }
        out
    }

    fn image(&self, line: LineRef<'_, DeuceFnwState>) -> LineImage {
        LineImage::new(*line.stored, MetaBits::from_raw(line.state.meta, 64))
    }
}

/// One memory line under DEUCE with dedicated FNW flip bits.
pub type DeuceFnwLine = SchemeCell<DeuceFnwScheme>;

impl DeuceFnwLine {
    /// Initializes the line (full encryption at counter 0, nothing
    /// inverted).
    #[must_use]
    pub fn new(
        engine: &OtpEngine,
        addr: LineAddr,
        initial: &LineBytes,
        epoch: EpochInterval,
        counter_bits: u32,
    ) -> Self {
        Self::with_scheme(DeuceFnwScheme::new(epoch, counter_bits), engine, addr, initial)
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
        OtpEngine::new(&SecretKey::from_seed(31))
    }

    #[test]
    fn roundtrip_across_epochs() {
        let e = engine();
        let mut l = DeuceFnwLine::new(&e, LineAddr::new(2), &[0u8; 64], EpochInterval::new(8).unwrap(), 28);
        for i in 0..40u8 {
            let mut data = [0u8; 64];
            data[usize::from(i % 16)] = i;
            data[50] = i.wrapping_mul(3);
            let _ = l.write(&e, &data);
            assert_eq!(l.read(&e), data, "write {i}");
        }
    }

    #[test]
    fn never_worse_than_plain_deuce_on_average() {
        let e = engine();
        let epoch = EpochInterval::DEFAULT;
        let mut plain = crate::DeuceLine::new(&e, LineAddr::new(3), &[0u8; 64], WordSize::Bytes2, epoch, 28);
        let mut combo = DeuceFnwLine::new(&e, LineAddr::new(3), &[0u8; 64], epoch, 28);
        let mut plain_total = 0u64;
        let mut combo_total = 0u64;
        for i in 0..640u64 {
            let mut data = [0u8; 64];
            data[0] = i as u8;
            data[1] = (i >> 8) as u8;
            data[20] = (i % 5) as u8;
            plain_total += u64::from(plain.write(&e, &data).flips.total());
            combo_total += u64::from(combo.write(&e, &data).flips.total());
        }
        assert!(
            combo_total <= plain_total,
            "DEUCE+FNW ({combo_total}) should not exceed DEUCE ({plain_total})"
        );
    }

    #[test]
    fn sparse_write_touches_only_its_word() {
        let e = engine();
        let mut l = DeuceFnwLine::new(&e, LineAddr::new(4), &[0u8; 64], EpochInterval::DEFAULT, 28);
        let mut data = [0u8; 64];
        data[10] = 0x80;
        let o = l.write(&e, &data);
        for bit in o.old_image.changed_bits(&o.new_image) {
            let word5_data = (80..96).contains(&bit);
            let word5_meta = bit == 512 + 5 || bit == 512 + 32 + 5;
            assert!(word5_data || word5_meta, "unexpected bit {bit} flipped");
        }
    }
}
