//! The shared cipher core every scheme builds on: counter state,
//! modified-word tracking, pad application, and dual-pad reads.
//!
//! Each of the paper's schemes is a small state machine over the same
//! counter-mode substrate — bump a counter, fetch a one-time pad, XOR,
//! count flips (§2.4, §4.3). These helpers implement that substrate
//! once, bit-identically to the historical per-scheme copies, so a
//! scheme file only contributes its policy (what to re-encrypt, when).

use std::sync::OnceLock;

use deuce_crypto::{xor_into, LineAddr, LineBytes, OtpEngine, Pad, SecretKey};
use deuce_nvm::MetaBits;

use crate::config::WordSize;

/// Compact per-line counter state: the raw value of a fixed-width
/// wrapping write counter.
///
/// This is [`deuce_crypto::LineCounter`] shrunk to its observable core —
/// the width lives in the scheme parameters (shared by every line) and
/// the wrap generation is dropped because no scheme output depends on it.
///
/// # Examples
///
/// ```
/// use deuce_schemes::CtrState;
///
/// let mut ctr = CtrState::ZERO;
/// assert_eq!(ctr.bump(28), 1); // 0 -> 1 flips one stored bit
/// assert_eq!(ctr.bump(28), 2); // 1 -> 2 flips two
/// assert_eq!(ctr.value(), 2);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct CtrState(u64);

impl CtrState {
    /// A counter at zero (every line starts here).
    pub const ZERO: Self = Self(0);

    /// Reconstructs a counter from its raw stored value (the inverse of
    /// [`value`](Self::value); used when decoding persisted line state).
    #[must_use]
    pub fn from_raw(value: u64) -> Self {
        Self(value)
    }

    /// Current counter value.
    #[must_use]
    pub fn value(self) -> u64 {
        self.0
    }

    /// Increments the counter modulo `width_bits`, returning the number
    /// of stored counter bits the transition flipped (the paper reports
    /// counter flips separately from the figure of merit).
    pub fn bump(&mut self, width_bits: u32) -> u32 {
        let mask = width_mask(width_bits);
        let old = self.0;
        self.0 = (self.0 + 1) & mask;
        ((self.0 ^ old) & mask).count_ones()
    }
}

/// The all-ones mask of a `width_bits`-wide counter.
#[must_use]
fn width_mask(width_bits: u32) -> u64 {
    if width_bits == 64 {
        u64::MAX
    } else {
        (1u64 << width_bits) - 1
    }
}

/// Validates a counter width exactly as [`deuce_crypto::LineCounter`]
/// does (the pad input reserves 48 bits for the counter).
pub(crate) fn assert_counter_width(width_bits: u32) {
    assert!(
        (1..=48).contains(&width_bits),
        "counter width {width_bits} out of range 1..=48"
    );
}

/// Marks the tracking bit of every word whose plaintext differs between
/// `old` (the line's previous value) and `data` (§4.3.2: modified bits
/// are sticky within an epoch, so bits already set stay set).
///
/// `old` need only be right in the words not yet marked, so a DEUCE line
/// supplies its stored bytes decrypted under the trailing pad: an
/// unmarked word still holds its epoch-start ciphertext, and the words
/// that decrypt to noise are marked already.
pub(crate) fn mark_modified_words(
    modified: &mut MetaBits,
    word_size: WordSize,
    old: &LineBytes,
    data: &LineBytes,
) {
    let w = word_size.bytes();
    for word in 0..word_size.words_per_line() {
        let range = word * w..(word + 1) * w;
        if data[range.clone()] != old[range] {
            modified.set(word as u32, true);
        }
    }
}

/// Re-encrypts every marked word with the (leading) pad, leaving
/// unmarked words' stored ciphertext untouched (Fig. 6).
pub(crate) fn reencrypt_marked_words(
    stored: &mut LineBytes,
    data: &LineBytes,
    pad: &Pad,
    modified: &MetaBits,
    word_size: WordSize,
) {
    let w = word_size.bytes();
    for word in 0..word_size.words_per_line() {
        if modified.get(word as u32) {
            let range = word * w..(word + 1) * w;
            stored[range.clone()].copy_from_slice(&data[range]);
            xor_into(&mut stored[word * w..(word + 1) * w], pad.word(word, w));
        }
    }
}

/// Decrypts a stored line where each word's tracking bit selects the
/// leading or trailing pad (Fig. 7).
pub(crate) fn dual_pad_read(
    stored: &LineBytes,
    modified: &MetaBits,
    pad_lctr: &Pad,
    pad_tctr: &Pad,
    word_size: WordSize,
) -> LineBytes {
    let w = word_size.bytes();
    let mut out = *stored;
    for word in 0..word_size.words_per_line() {
        let pad = if modified.get(word as u32) {
            pad_lctr.word(word, w)
        } else {
            pad_tctr.word(word, w)
        };
        xor_into(&mut out[word * w..(word + 1) * w], pad);
    }
    out
}

/// A process-wide engine for schemes that never consult one (plaintext
/// DCW/FNW), letting their engine-less legacy APIs delegate to the
/// shared [`crate::LineScheme`] machinery.
pub(crate) fn null_engine() -> &'static OtpEngine {
    static NULL: OnceLock<OtpEngine> = OnceLock::new();
    NULL.get_or_init(|| OtpEngine::new(&SecretKey::from_seed(0)))
}

/// `addr` placeholder for engine-less wrappers (plaintext schemes never
/// feed the address into any pad).
pub(crate) fn null_addr() -> LineAddr {
    LineAddr::new(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use deuce_crypto::LineCounter;

    /// `CtrState::bump` must replicate `LineCounter::increment` +
    /// `flips_from` exactly, including wrap behaviour.
    #[test]
    fn ctr_state_matches_line_counter() {
        for width in [1u32, 3, 28, 48] {
            let mut reference = LineCounter::new(width);
            let mut compact = CtrState::ZERO;
            for step in 0..40u64 {
                let old = reference.value();
                reference.increment();
                let expected = reference.flips_from(old);
                assert_eq!(compact.bump(width), expected, "width {width} step {step}");
                assert_eq!(compact.value(), reference.value(), "width {width} step {step}");
            }
        }
    }

    #[test]
    fn modified_word_marking_is_sticky() {
        let mut modified = MetaBits::new(32);
        let old = [0u8; 64];
        let mut data = [0u8; 64];
        data[0] = 1;
        mark_modified_words(&mut modified, WordSize::Bytes2, &old, &data);
        assert_eq!(modified.count_ones(), 1);
        // A later write that reverts word 0 must not clear its bit.
        mark_modified_words(&mut modified, WordSize::Bytes2, &data, &old);
        assert_eq!(modified.count_ones(), 1);
    }

    #[test]
    fn dual_pad_read_selects_per_word() {
        let lead = Pad::from_bytes([0xAA; 64]);
        let trail = Pad::from_bytes([0x55; 64]);
        let stored = [0u8; 64];
        let mut modified = MetaBits::new(32);
        modified.set(3, true);
        let out = dual_pad_read(&stored, &modified, &lead, &trail, WordSize::Bytes2);
        for (i, b) in out.iter().enumerate() {
            let expected = if (6..8).contains(&i) { 0xAA } else { 0x55 };
            assert_eq!(*b, expected, "byte {i}");
        }
    }
}
