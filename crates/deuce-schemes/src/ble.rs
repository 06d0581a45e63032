//! Block-Level Encryption (BLE) and its DEUCE combination (§7.1).
//!
//! BLE provisions each 64-byte line with four counters, one per 16-byte
//! AES block, and re-encrypts only the blocks whose plaintext changed.
//! This cuts the avalanche from the whole line to the touched blocks
//! (50% → 33% average flips), but still rewrites 128 bits when a single
//! bit changes. DEUCE can run *inside* each block, decoupling the
//! re-encryption granularity (2-byte words) from the AES granularity —
//! the BLE+DEUCE combination reaches 19.9% (Fig. 18).

use deuce_crypto::{
    BlockCounters, EpochInterval, LineAddr, LineBytes, OtpEngine, VirtualCounterPair,
    BLOCKS_PER_LINE, BLOCK_BYTES,
};
use deuce_nvm::{LineImage, MetaBits};

use crate::config::WordSize;
use crate::core::assert_counter_width;
use crate::scheme::{LineMut, LineRef, LineScheme, SchemeCell};
use crate::WriteOutcome;

fn block_range(block: usize) -> core::ops::Range<usize> {
    block * BLOCK_BYTES..(block + 1) * BLOCK_BYTES
}

/// Per-line BLE state: the four raw per-block counter values.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BleState {
    /// Raw counter value per 16-byte block.
    pub ctrs: [u64; BLOCKS_PER_LINE],
}

/// Increments one raw block counter, returning the stored-bit flips.
fn bump_block(ctrs: &mut [u64; BLOCKS_PER_LINE], block: usize, width_bits: u32) -> u32 {
    let mask = (1u64 << width_bits) - 1;
    let old = ctrs[block];
    ctrs[block] = (old + 1) & mask;
    (old ^ ctrs[block]).count_ones()
}

/// Encrypts `initial` block-by-block at counter 0 (shared by BLE and
/// BLE+DEUCE, whose initial images are identical).
fn ble_init(engine: &OtpEngine, addr: LineAddr, initial: &LineBytes) -> LineBytes {
    let mut stored = [0u8; deuce_crypto::LINE_BYTES];
    for block in 0..BLOCKS_PER_LINE {
        let pad = engine.block_pad(addr, block, 0);
        let mut pt = [0u8; BLOCK_BYTES];
        pt.copy_from_slice(&initial[block_range(block)]);
        stored[block_range(block)].copy_from_slice(&pad.xor(&pt));
    }
    stored
}

/// Block-Level Encryption: one counter per 16-byte AES block, blocks with
/// unchanged plaintext keep their ciphertext.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BleScheme {
    /// Per-block counter width in bits.
    pub counter_bits: u32,
}

impl BleScheme {
    /// Creates the scheme.
    ///
    /// # Panics
    ///
    /// Panics if `counter_bits` is 0 or greater than 48.
    #[must_use]
    pub fn new(counter_bits: u32) -> Self {
        assert_counter_width(counter_bits);
        Self { counter_bits }
    }
}

impl LineScheme for BleScheme {
    type State = BleState;

    fn metadata_bits(&self) -> u32 {
        0
    }

    fn init(&self, engine: &OtpEngine, addr: LineAddr, initial: &LineBytes) -> (LineBytes, BleState) {
        (ble_init(engine, addr, initial), BleState::default())
    }

    fn write(
        &self,
        engine: &OtpEngine,
        addr: LineAddr,
        line: LineMut<'_, BleState>,
        data: &LineBytes,
    ) -> WriteOutcome {
        let old_image = LineImage::new(*line.stored, MetaBits::new(0));
        let old = self.read(engine, addr, line.view());
        let mut counter_flips = 0u32;
        for block in 0..BLOCKS_PER_LINE {
            let range = block_range(block);
            if data[range.clone()] == old[range.clone()] {
                continue;
            }
            counter_flips += bump_block(&mut line.state.ctrs, block, self.counter_bits);
            let pad = engine.block_pad(addr, block, line.state.ctrs[block]);
            let mut pt = [0u8; BLOCK_BYTES];
            pt.copy_from_slice(&data[range.clone()]);
            line.stored[range].copy_from_slice(&pad.xor(&pt));
        }
        WriteOutcome::from_images(
            old_image,
            LineImage::new(*line.stored, MetaBits::new(0)),
            counter_flips,
            false,
        )
    }

    fn read(&self, engine: &OtpEngine, addr: LineAddr, line: LineRef<'_, BleState>) -> LineBytes {
        let mut out = [0u8; deuce_crypto::LINE_BYTES];
        for block in 0..BLOCKS_PER_LINE {
            let pad = engine.block_pad(addr, block, line.state.ctrs[block]);
            let mut ct = [0u8; BLOCK_BYTES];
            ct.copy_from_slice(&line.stored[block_range(block)]);
            out[block_range(block)].copy_from_slice(&pad.xor(&ct));
        }
        out
    }

    fn image(&self, line: LineRef<'_, BleState>) -> LineImage {
        LineImage::new(*line.stored, MetaBits::new(0))
    }
}

/// One memory line under Block-Level Encryption.
pub type BleLine = SchemeCell<BleScheme>;

impl BleLine {
    /// Initializes the line: each block encrypted at its counter 0.
    #[must_use]
    pub fn new(engine: &OtpEngine, addr: LineAddr, initial: &LineBytes, counter_bits: u32) -> Self {
        Self::with_scheme(BleScheme::new(counter_bits), engine, addr, initial)
    }

    /// The per-block counter values.
    #[must_use]
    pub fn counters(&self) -> BlockCounters {
        BlockCounters::from_values(self.state().ctrs, self.scheme().counter_bits)
    }
}

/// Per-line BLE+DEUCE state: the four raw per-block counter values plus
/// the raw per-word modified bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BleDeuceState {
    /// Raw counter value per 16-byte block.
    pub ctrs: [u64; BLOCKS_PER_LINE],
    /// Raw per-word modified bits across the whole line.
    pub modified: u64,
}

/// BLE with DEUCE running inside each block.
///
/// Each block keeps its own counter with DEUCE epoch semantics; each word
/// keeps a modified bit. A block whose plaintext is untouched by a write
/// is skipped entirely (its counter does not advance), so words in cold
/// blocks never suffer epoch re-encryption — which is why the combination
/// beats standalone DEUCE (19.9% vs 23.7%).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BleDeuceScheme {
    /// DEUCE word granularity.
    pub word_size: WordSize,
    /// Per-block DEUCE epoch interval.
    pub epoch: EpochInterval,
    /// Per-block counter width in bits.
    pub counter_bits: u32,
}

impl BleDeuceScheme {
    /// Creates the scheme.
    ///
    /// # Panics
    ///
    /// Panics if the word size exceeds an AES block or `counter_bits` is
    /// 0 or greater than 48.
    #[must_use]
    pub fn new(word_size: WordSize, epoch: EpochInterval, counter_bits: u32) -> Self {
        assert!(
            word_size.bytes() <= BLOCK_BYTES,
            "word size must fit within an AES block"
        );
        assert_counter_width(counter_bits);
        Self {
            word_size,
            epoch,
            counter_bits,
        }
    }

    fn words_per_block(self) -> usize {
        BLOCK_BYTES / self.word_size.bytes()
    }

    fn modified_bits(self, state: &BleDeuceState) -> MetaBits {
        MetaBits::from_raw(state.modified, self.word_size.tracking_bits())
    }
}

impl LineScheme for BleDeuceScheme {
    type State = BleDeuceState;

    fn metadata_bits(&self) -> u32 {
        self.word_size.tracking_bits()
    }

    fn init(
        &self,
        engine: &OtpEngine,
        addr: LineAddr,
        initial: &LineBytes,
    ) -> (LineBytes, BleDeuceState) {
        (ble_init(engine, addr, initial), BleDeuceState::default())
    }

    fn write(
        &self,
        engine: &OtpEngine,
        addr: LineAddr,
        line: LineMut<'_, BleDeuceState>,
        data: &LineBytes,
    ) -> WriteOutcome {
        let mut modified = self.modified_bits(line.state);
        let old_image = LineImage::new(*line.stored, modified);
        let old = self.read(engine, addr, line.view());
        let w = self.word_size.bytes();
        let wpb = self.words_per_block();
        let mut counter_flips = 0u32;
        let mut any_epoch = false;

        for block in 0..BLOCKS_PER_LINE {
            let brange = block_range(block);
            if data[brange.clone()] == old[brange] {
                continue; // cold block: counter frozen, nothing rewritten
            }
            counter_flips += bump_block(&mut line.state.ctrs, block, self.counter_bits);
            let v = VirtualCounterPair::derive(line.state.ctrs[block], self.epoch);

            let lead_pad = engine.block_pad(addr, block, v.lctr());
            if v.is_epoch_start() {
                any_epoch = true;
                // Whole block re-encrypts; its modified bits reset.
                for word_in_block in 0..wpb {
                    let word = block * wpb + word_in_block;
                    modified.set(word as u32, false);
                    for (offset, i) in (word * w..(word + 1) * w).enumerate() {
                        line.stored[i] = data[i] ^ lead_pad.as_bytes()[word_in_block * w + offset];
                    }
                }
            } else {
                for word_in_block in 0..wpb {
                    let word = block * wpb + word_in_block;
                    let range = word * w..(word + 1) * w;
                    if data[range.clone()] != old[range] {
                        modified.set(word as u32, true);
                    }
                }
                for word_in_block in 0..wpb {
                    let word = block * wpb + word_in_block;
                    if modified.get(word as u32) {
                        for (offset, i) in (word * w..(word + 1) * w).enumerate() {
                            line.stored[i] =
                                data[i] ^ lead_pad.as_bytes()[word_in_block * w + offset];
                        }
                    }
                }
            }
        }
        line.state.modified = modified.raw();
        WriteOutcome::from_images(
            old_image,
            LineImage::new(*line.stored, modified),
            counter_flips,
            any_epoch,
        )
    }

    fn read(&self, engine: &OtpEngine, addr: LineAddr, line: LineRef<'_, BleDeuceState>) -> LineBytes {
        let modified = self.modified_bits(line.state);
        let w = self.word_size.bytes();
        let wpb = self.words_per_block();
        let mut out = [0u8; deuce_crypto::LINE_BYTES];
        for block in 0..BLOCKS_PER_LINE {
            let v = VirtualCounterPair::derive(line.state.ctrs[block], self.epoch);
            let lead = engine.block_pad(addr, block, v.lctr());
            let trail = engine.block_pad(addr, block, v.tctr());
            for word_in_block in 0..wpb {
                let word = block * wpb + word_in_block;
                let pad = if modified.get(word as u32) {
                    lead.as_bytes()
                } else {
                    trail.as_bytes()
                };
                for (offset, i) in (word * w..(word + 1) * w).enumerate() {
                    out[i] = line.stored[i] ^ pad[word_in_block * w + offset];
                }
            }
        }
        out
    }

    fn image(&self, line: LineRef<'_, BleDeuceState>) -> LineImage {
        LineImage::new(*line.stored, self.modified_bits(line.state))
    }
}

/// One memory line under BLE with DEUCE running inside each block.
pub type BleDeuceLine = SchemeCell<BleDeuceScheme>;

impl BleDeuceLine {
    /// Initializes the line.
    #[must_use]
    pub fn new(
        engine: &OtpEngine,
        addr: LineAddr,
        initial: &LineBytes,
        word_size: WordSize,
        epoch: EpochInterval,
        counter_bits: u32,
    ) -> Self {
        Self::with_scheme(
            BleDeuceScheme::new(word_size, epoch, counter_bits),
            engine,
            addr,
            initial,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deuce_crypto::SecretKey;

    fn engine() -> OtpEngine {
        OtpEngine::new(&SecretKey::from_seed(41))
    }

    #[test]
    fn ble_roundtrip() {
        let e = engine();
        let mut l = BleLine::new(&e, LineAddr::new(1), &[0u8; 64], 28);
        for i in 0..30u8 {
            let mut data = [0u8; 64];
            data[usize::from(i % 64)] = i + 1;
            let _ = l.write(&e, &data);
            assert_eq!(l.read(&e), data, "write {i}");
        }
    }

    #[test]
    fn ble_touches_only_changed_blocks() {
        let e = engine();
        let mut l = BleLine::new(&e, LineAddr::new(2), &[0u8; 64], 28);
        let mut data = [0u8; 64];
        data[0] = 1; // block 0 only
        let o = l.write(&e, &data);
        for bit in o.old_image.changed_bits(&o.new_image) {
            assert!(bit < 128, "bit {bit} outside block 0 flipped");
        }
        // Block 0's counter advanced; others untouched.
        assert_eq!(l.counters().value(0), 1);
        assert_eq!(l.counters().value(1), 0);
        // A single-block change re-encrypts ~64 of its 128 bits.
        assert!(o.flips.total() >= 40 && o.flips.total() <= 90);
    }

    #[test]
    fn ble_unchanged_write_flips_nothing() {
        let e = engine();
        let data = [5u8; 64];
        let mut l = BleLine::new(&e, LineAddr::new(3), &data, 28);
        let o = l.write(&e, &data);
        assert_eq!(o.flips.total(), 0);
        assert_eq!(o.counter_flips, 0);
    }

    #[test]
    fn ble_deuce_roundtrip_across_block_epochs() {
        let e = engine();
        let mut l = BleDeuceLine::new(
            &e,
            LineAddr::new(4),
            &[0u8; 64],
            WordSize::Bytes2,
            EpochInterval::new(4).unwrap(),
            28,
        );
        for i in 0..40u8 {
            let mut data = [0u8; 64];
            data[0] = i; // block 0
            data[40] = i.wrapping_mul(2); // block 2
            let _ = l.write(&e, &data);
            assert_eq!(l.read(&e), data, "write {i}");
        }
    }

    #[test]
    fn ble_deuce_sparse_write_is_cheaper_than_ble() {
        let e = engine();
        let mut ble = BleLine::new(&e, LineAddr::new(5), &[0u8; 64], 28);
        let mut combo = BleDeuceLine::new(
            &e,
            LineAddr::new(5),
            &[0u8; 64],
            WordSize::Bytes2,
            EpochInterval::DEFAULT,
            28,
        );
        let mut ble_total = 0u64;
        let mut combo_total = 0u64;
        for i in 0..320u64 {
            let mut data = [0u8; 64];
            data[0] = i as u8;
            data[1] = (i >> 8) as u8;
            ble_total += u64::from(ble.write(&e, &data).flips.total());
            combo_total += u64::from(combo.write(&e, &data).flips.total());
        }
        assert!(
            combo_total < ble_total,
            "BLE+DEUCE ({combo_total}) should beat BLE ({ble_total}) on sparse writes"
        );
    }

    #[test]
    fn ble_deuce_cold_blocks_never_reencrypt() {
        let e = engine();
        let mut l = BleDeuceLine::new(
            &e,
            LineAddr::new(6),
            &[0u8; 64],
            WordSize::Bytes2,
            EpochInterval::new(4).unwrap(),
            28,
        );
        // 20 writes (5 block epochs) confined to block 0.
        for i in 0..20u8 {
            let mut data = [0u8; 64];
            data[0] = i + 1;
            let o = l.write(&e, &data);
            for bit in o.old_image.changed_bits(&o.new_image) {
                let in_block0 = bit < 128;
                let block0_meta = (512..512 + 8).contains(&bit);
                assert!(in_block0 || block0_meta, "cold-block bit {bit} flipped");
            }
        }
    }
}
