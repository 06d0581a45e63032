//! Dual Counter Encryption (DEUCE) — the paper's contribution (§4).
//!
//! DEUCE keeps one stored line counter but derives two *virtual* counters
//! from it: the Leading Counter (LCTR, the counter itself) and the
//! Trailing Counter (TCTR, the counter with its in-epoch LSBs masked).
//! One *modified bit* per word records whether the word has changed since
//! the start of the current epoch:
//!
//! - At an **epoch start** (counter divisible by the epoch interval) the
//!   whole line re-encrypts with the LCTR pad and all modified bits reset.
//! - On every other write, all words modified at least once this epoch
//!   re-encrypt with the fresh LCTR pad; unmodified words keep their
//!   stored ciphertext (still decryptable with the TCTR pad).
//!
//! Since a typical writeback modifies only a few words, most of the line
//! is left untouched, cutting bit flips from 50% to ~24% at a cost of 32
//! metadata bits per line.

use deuce_crypto::{EpochInterval, LineAddr, LineBytes, OtpEngine, VirtualCounterPair};
use deuce_nvm::{LineImage, MetaBits};

use crate::config::WordSize;
use crate::core::{
    assert_counter_width, dual_pad_read, mark_modified_words, reencrypt_marked_words, CtrState,
};
use crate::scheme::{LineMut, LineRef, LineScheme, SchemeCell};
use crate::WriteOutcome;

/// Per-line DEUCE state: the raw line counter plus the raw per-word
/// modified bits (reset at each epoch start).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DeuceState {
    /// The line counter.
    pub ctr: CtrState,
    /// Raw per-word modified bits.
    pub modified: u64,
}

/// The DEUCE scheme parameters shared by every line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeuceScheme {
    /// Re-encryption word granularity.
    pub word_size: WordSize,
    /// Epoch interval (full re-encryption period).
    pub epoch: EpochInterval,
    /// Line-counter width in bits.
    pub counter_bits: u32,
}

impl DeuceScheme {
    /// Creates the scheme.
    ///
    /// # Panics
    ///
    /// Panics if `counter_bits` is 0 or greater than 48.
    #[must_use]
    pub fn new(word_size: WordSize, epoch: EpochInterval, counter_bits: u32) -> Self {
        assert_counter_width(counter_bits);
        Self {
            word_size,
            epoch,
            counter_bits,
        }
    }

    fn modified_bits(self, state: &DeuceState) -> MetaBits {
        MetaBits::from_raw(state.modified, self.word_size.tracking_bits())
    }
}

impl LineScheme for DeuceScheme {
    type State = DeuceState;

    fn metadata_bits(&self) -> u32 {
        self.word_size.tracking_bits()
    }

    fn init(&self, engine: &OtpEngine, addr: LineAddr, initial: &LineBytes) -> (LineBytes, DeuceState) {
        (engine.line_pad(addr, 0).xor(initial), DeuceState::default())
    }

    fn write(
        &self,
        engine: &OtpEngine,
        addr: LineAddr,
        line: LineMut<'_, DeuceState>,
        data: &LineBytes,
    ) -> WriteOutcome {
        let mut modified = self.modified_bits(line.state);
        let old_image = LineImage::new(*line.stored, modified);
        let counter_flips = line.state.ctr.bump(self.counter_bits);
        let v = VirtualCounterPair::derive(line.state.ctr.value(), self.epoch);

        let epoch_started = v.is_epoch_start();
        if epoch_started {
            // Full-line re-encryption; modified bits reset.
            *line.stored = engine.line_pad(addr, v.lctr()).xor(data);
            modified.clear();
        } else {
            // Mark words changed by *this* write, judged against the
            // stored line decrypted under the trailing pad (unchanged
            // within the epoch), then re-encrypt every word modified at
            // any point this epoch with the fresh leading pad (Fig. 6:
            // previously modified words re-encrypt on every write).
            let (pad, pad_tctr) = engine.line_pad_pair(addr, v.lctr(), v.tctr());
            mark_modified_words(&mut modified, self.word_size, &pad_tctr.xor(line.stored), data);
            reencrypt_marked_words(line.stored, data, &pad, &modified, self.word_size);
        }
        line.state.modified = modified.raw();
        WriteOutcome::from_images(
            old_image,
            LineImage::new(*line.stored, modified),
            counter_flips,
            epoch_started,
        )
    }

    fn read(&self, engine: &OtpEngine, addr: LineAddr, line: LineRef<'_, DeuceState>) -> LineBytes {
        let v = VirtualCounterPair::derive(line.state.ctr.value(), self.epoch);
        let (pad_lctr, pad_tctr) = engine.line_pad_pair(addr, v.lctr(), v.tctr());
        dual_pad_read(
            line.stored,
            &self.modified_bits(line.state),
            &pad_lctr,
            &pad_tctr,
            self.word_size,
        )
    }

    fn image(&self, line: LineRef<'_, DeuceState>) -> LineImage {
        LineImage::new(*line.stored, self.modified_bits(line.state))
    }
}

/// One memory line under DEUCE.
///
/// # Examples
///
/// ```
/// use deuce_crypto::{EpochInterval, LineAddr, OtpEngine, SecretKey};
/// use deuce_schemes::{DeuceLine, WordSize};
///
/// let engine = OtpEngine::new(&SecretKey::from_seed(0));
/// let mut line = DeuceLine::new(
///     &engine,
///     LineAddr::new(4),
///     &[0u8; 64],
///     WordSize::Bytes2,
///     EpochInterval::DEFAULT,
///     28,
/// );
/// let mut data = [0u8; 64];
/// data[0] = 1;
/// let outcome = line.write(&engine, &data);
/// assert_eq!(line.read(&engine), data);
/// assert_eq!(line.modified_words(), 1);
/// ```
pub type DeuceLine = SchemeCell<DeuceScheme>;

impl DeuceLine {
    /// Initializes the line: `initial` is encrypted in full at counter 0
    /// (which is an epoch start, so all modified bits are clear).
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
            DeuceScheme::new(word_size, epoch, counter_bits),
            engine,
            addr,
            initial,
        )
    }

    /// Number of words currently marked modified this epoch.
    #[must_use]
    pub fn modified_words(&self) -> u32 {
        self.scheme().modified_bits(self.state()).count_ones()
    }

    /// Current line-counter value.
    #[must_use]
    pub fn counter(&self) -> u64 {
        self.state().ctr.value()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deuce_crypto::SecretKey;

    fn line(engine: &OtpEngine, epoch: u64) -> DeuceLine {
        DeuceLine::new(
            engine,
            LineAddr::new(12),
            &[0u8; 64],
            WordSize::Bytes2,
            EpochInterval::new(epoch).unwrap(),
            28,
        )
    }

    #[test]
    fn read_returns_latest_write_always() {
        let engine = OtpEngine::new(&SecretKey::from_seed(1));
        let mut l = line(&engine, 4);
        for i in 0..20u8 {
            let mut data = [0u8; 64];
            data[usize::from(i % 8) * 2] = i + 1;
            data[33] = i.wrapping_mul(7);
            let _ = l.write(&engine, &data);
            assert_eq!(l.read(&engine), data, "after write {i}");
        }
    }

    #[test]
    fn single_word_write_flips_few_bits() {
        let engine = OtpEngine::new(&SecretKey::from_seed(2));
        let mut l = line(&engine, 32);
        let mut data = [0u8; 64];
        data[0] = 0xFF;
        let outcome = l.write(&engine, &data);
        // One 16-bit word re-encrypted (expected ~8 flips) + 1 modified
        // bit. Bound generously: 16 data + 1 meta.
        assert!(outcome.flips.total() <= 17, "flips = {}", outcome.flips.total());
        assert!(outcome.flips.meta == 1);
        assert!(!outcome.epoch_started);
    }

    #[test]
    fn unmodified_words_do_not_flip_between_epochs() {
        let engine = OtpEngine::new(&SecretKey::from_seed(3));
        let mut l = line(&engine, 32);
        let mut data = [0u8; 64];
        for i in 1..31u8 {
            data[0] = i;
            let outcome = l.write(&engine, &data);
            // Only word 0 is ever modified; its 16 stored bits plus the
            // single metadata bit are the only candidates.
            assert!(outcome.flips.total() <= 17, "write {i}: {}", outcome.flips.total());
            let region: Vec<u32> = outcome
                .old_image
                .changed_bits(&outcome.new_image)
                .collect();
            assert!(
                region.iter().all(|&b| b < 16 || b == 512),
                "write {i} touched bits outside word 0: {region:?}"
            );
        }
    }

    #[test]
    fn epoch_start_reencrypts_everything_and_clears_bits() {
        let engine = OtpEngine::new(&SecretKey::from_seed(4));
        let mut l = line(&engine, 4);
        let mut data = [0u8; 64];
        for i in 1..4u8 {
            data[0] = i;
            let o = l.write(&engine, &data);
            assert!(!o.epoch_started);
        }
        assert_eq!(l.modified_words(), 1);
        data[0] = 42;
        let o = l.write(&engine, &data); // counter reaches 4: epoch start
        assert!(o.epoch_started);
        assert_eq!(l.modified_words(), 0);
        // Full re-encryption flips ~half the bits.
        assert!(o.flips.data > 180, "epoch flips = {}", o.flips.data);
        assert_eq!(l.read(&engine), data);
    }

    #[test]
    fn previously_modified_words_reencrypt_every_write() {
        // Figure 6: W1 modified at ctr 1 keeps re-encrypting at ctr 2, 3.
        let engine = OtpEngine::new(&SecretKey::from_seed(5));
        let mut l = line(&engine, 32);
        let mut data = [0u8; 64];
        data[0] = 1; // word 0
        let _ = l.write(&engine, &data);
        let stored_word0_after_w1 = l.image().data()[..2].to_vec();
        data[2] = 2; // word 1; word 0 unchanged logically
        let o = l.write(&engine, &data);
        let stored_word0_after_w2 = l.image().data()[..2].to_vec();
        assert_ne!(
            stored_word0_after_w1, stored_word0_after_w2,
            "modified word 0 must re-encrypt with the new LCTR"
        );
        assert_eq!(l.modified_words(), 2);
        assert_eq!(l.read(&engine), data);
        assert!(o.flips.total() <= 34);
    }

    #[test]
    fn word_that_reverts_stays_modified() {
        let engine = OtpEngine::new(&SecretKey::from_seed(6));
        let mut l = line(&engine, 32);
        let mut data = [0u8; 64];
        data[0] = 9;
        let _ = l.write(&engine, &data);
        data[0] = 0; // revert to the epoch-start value
        let _ = l.write(&engine, &data);
        assert_eq!(l.modified_words(), 1, "modified bit is sticky within the epoch");
        assert_eq!(l.read(&engine), data);
    }

    #[test]
    fn dense_writes_behave_like_full_reencryption() {
        let engine = OtpEngine::new(&SecretKey::from_seed(7));
        let mut l = line(&engine, 32);
        let mut total = 0u64;
        let writes = 400u64;
        for i in 0..writes {
            let mut data = [0u8; 64];
            for (j, b) in data.iter_mut().enumerate() {
                *b = (i as u8).wrapping_mul(j as u8).wrapping_add(i as u8);
            }
            total += u64::from(l.write(&engine, &data).flips.total());
            assert_eq!(l.read(&engine), data);
        }
        let rate = total as f64 / writes as f64 / 512.0;
        assert!(rate > 0.45, "dense writes should approach 50%, got {rate}");
    }

    #[test]
    fn sparse_stable_footprint_is_cheap() {
        // The libquantum-like case: the same word written over and over.
        let engine = OtpEngine::new(&SecretKey::from_seed(8));
        let mut l = line(&engine, 32);
        let mut total = 0u64;
        let writes = 320u64;
        for i in 0..writes {
            let mut data = [0u8; 64];
            data[0] = (i + 1) as u8;
            total += u64::from(l.write(&engine, &data).flips.total());
        }
        let rate = total as f64 / writes as f64 / 512.0;
        // 31 of 32 writes touch ~8 bits (1 word), 1 of 32 writes ~256.
        // Expected ~ (31*8 + 256)/32 / 512 ≈ 3.1%.
        assert!(rate < 0.06, "sparse stable footprint rate {rate}");
    }

    #[test]
    fn word_size_granularity_respected() {
        let engine = OtpEngine::new(&SecretKey::from_seed(9));
        for ws in [WordSize::Bytes1, WordSize::Bytes2, WordSize::Bytes4, WordSize::Bytes8] {
            let mut l = DeuceLine::new(
                &engine,
                LineAddr::new(1),
                &[0u8; 64],
                ws,
                EpochInterval::DEFAULT,
                28,
            );
            let mut data = [0u8; 64];
            data[0] = 1; // first word only
            let o = l.write(&engine, &data);
            let max_bits = ws.bytes() as u32 * 8 + 1;
            assert!(
                o.flips.total() <= max_bits,
                "{ws:?}: {} > {max_bits}",
                o.flips.total()
            );
            assert_eq!(l.read(&engine), data);
        }
    }
}
