//! The shared cipher core every scheme builds on: counter state,
//! modified-word tracking, pad application, and dual-pad reads.
//!
//! Each of the paper's schemes is a small state machine over the same
//! counter-mode substrate — bump a counter, fetch a one-time pad, XOR,
//! count flips (§2.4, §4.3). These helpers implement that substrate
//! once, bit-identically to the historical per-scheme copies, so a
//! scheme file only contributes its policy (what to re-encrypt, when).

use std::sync::OnceLock;

use deuce_crypto::{LineAddr, LineBytes, OtpEngine, Pad, SecretKey, LINE_BYTES};
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
///
/// The whole line is compared at once, one `u64` lane at a time, and
/// the changed-word mask is ORed into `modified` in one step.
pub(crate) fn mark_modified_words(
    modified: &mut MetaBits,
    word_size: WordSize,
    old: &LineBytes,
    data: &LineBytes,
) {
    let changed = match word_size {
        WordSize::Bytes1 => changed_words::<1>(old, data),
        WordSize::Bytes2 => changed_words::<2>(old, data),
        WordSize::Bytes4 => changed_words::<4>(old, data),
        WordSize::Bytes8 => changed_words::<8>(old, data),
    };
    *modified = MetaBits::from_raw(modified.raw() | changed, modified.width());
}

/// Re-encrypts every marked word with the (leading) pad, leaving
/// unmarked words' stored ciphertext untouched (Fig. 6). Each `u64`
/// lane blends `data ^ pad` into the marked words' bytes.
pub(crate) fn reencrypt_marked_words(
    stored: &mut LineBytes,
    data: &LineBytes,
    pad: &Pad,
    modified: &MetaBits,
    word_size: WordSize,
) {
    let marked = modified.raw();
    match word_size {
        WordSize::Bytes1 => reencrypt::<1>(stored, data, pad, marked),
        WordSize::Bytes2 => reencrypt::<2>(stored, data, pad, marked),
        WordSize::Bytes4 => reencrypt::<4>(stored, data, pad, marked),
        WordSize::Bytes8 => reencrypt::<8>(stored, data, pad, marked),
    }
}

/// Decrypts a stored line where each word's tracking bit selects the
/// leading or trailing pad (Fig. 7). Each `u64` lane picks its pad
/// bytes with one byte mask.
pub(crate) fn dual_pad_read(
    stored: &LineBytes,
    modified: &MetaBits,
    pad_lctr: &Pad,
    pad_tctr: &Pad,
    word_size: WordSize,
) -> LineBytes {
    let marked = modified.raw();
    match word_size {
        WordSize::Bytes1 => dual_pad::<1>(stored, marked, pad_lctr, pad_tctr),
        WordSize::Bytes2 => dual_pad::<2>(stored, marked, pad_lctr, pad_tctr),
        WordSize::Bytes4 => dual_pad::<4>(stored, marked, pad_lctr, pad_tctr),
        WordSize::Bytes8 => dual_pad::<8>(stored, marked, pad_lctr, pad_tctr),
    }
}

/// The line as eight little-endian `u64` lanes: word `k` of a
/// `W`-byte word size sits in lane `k / (8 / W)`, in its bytes
/// `W * (k % (8 / W))..`.
fn lanes(line: &LineBytes) -> [u64; 8] {
    let lanes = line.as_chunks::<8>().0;
    core::array::from_fn(|i| u64::from_le_bytes(lanes[i]))
}

/// The inverse of [`lanes`].
fn from_lanes(lanes: [u64; 8]) -> LineBytes {
    let mut line = [0u8; LINE_BYTES];
    for (bytes, lane) in line.as_chunks_mut::<8>().0.iter_mut().zip(lanes) {
        *bytes = lane.to_le_bytes();
    }
    line
}

/// The mask of `W`-byte words that differ between `old` and `data`.
fn changed_words<const W: usize>(old: &LineBytes, data: &LineBytes) -> u64 {
    let (old, data) = (lanes(old), lanes(data));
    (0..8).fold(0, |mask, i| {
        mask | Lane::<W>::nonzero_words(old[i] ^ data[i]) << (i * Lane::<W>::WORDS)
    })
}

/// [`reencrypt_marked_words`] at a fixed word width.
fn reencrypt<const W: usize>(stored: &mut LineBytes, data: &LineBytes, pad: &Pad, marked: u64) {
    let (s, d, p) = (lanes(stored), lanes(data), lanes(pad.as_bytes()));
    *stored = from_lanes(core::array::from_fn(|i| {
        let take = Lane::<W>::mask_of_words(marked >> (i * Lane::<W>::WORDS));
        s[i] ^ ((s[i] ^ d[i] ^ p[i]) & take)
    }));
}

/// [`dual_pad_read`] at a fixed word width.
fn dual_pad<const W: usize>(stored: &LineBytes, marked: u64, lead: &Pad, trail: &Pad) -> LineBytes {
    let (s, l, t) = (lanes(stored), lanes(lead.as_bytes()), lanes(trail.as_bytes()));
    from_lanes(core::array::from_fn(|i| {
        let take = Lane::<W>::mask_of_words(marked >> (i * Lane::<W>::WORDS));
        s[i] ^ t[i] ^ ((l[i] ^ t[i]) & take)
    }))
}

/// Bit patterns of `W`-byte words packed in a `u64` lane (`W` is 1, 2,
/// 4 or 8), for folding a lane into one bit per word and back.
struct Lane<const W: usize>;

impl<const W: usize> Lane<W> {
    /// Words per lane.
    const WORDS: usize = 8 / W;
    /// Bits per word.
    const BITS: u32 = 8 * W as u32;
    /// One bit per word of the lane, in the low bits.
    const WORD_MASK: u64 = u64::MAX >> (64 - Self::WORDS);
    /// Every bit of word 0.
    const ONES: u64 = u64::MAX >> (64 - Self::BITS);
    /// The lowest bit of every word.
    const LOW: u64 = u64::MAX / Self::ONES;
    /// The top bit of every word.
    const HIGH: u64 = Self::LOW << (Self::BITS - 1);
    /// Bit `k` of word `k`, for every word `k`.
    const DIAGONAL: u64 = {
        let mut diagonal = 0;
        let mut k = 0;
        while k < Self::WORDS {
            diagonal |= 1 << (k as u32 * (Self::BITS + 1));
            k += 1;
        }
        diagonal
    };
    /// Multiplying bits at positions `BITS * k` by this lands bit `k`
    /// at `GATHER_SHIFT + k`, with no two partial products overlapping.
    const GATHER: u64 = {
        let mut gather = 0;
        let mut k = 0;
        while k < Self::WORDS {
            gather |= 1 << ((Self::BITS - 1) * k as u32);
            k += 1;
        }
        gather
    };
    /// Where [`Self::GATHER`] lands bit 0.
    const GATHER_SHIFT: u32 = (Self::BITS - 1) * (Self::WORDS as u32 - 1);

    /// Bit `k` set iff word `k` of `x` is nonzero.
    #[inline(always)]
    fn nonzero_words(x: u64) -> u64 {
        // Adding all-but-the-top ones to a word's low bits carries into
        // its top bit iff they are nonzero, and never past the word.
        let low = !Self::HIGH;
        let top = (((x & low) + low) | x) & Self::HIGH;
        let gathered = (top >> (Self::BITS - 1)).wrapping_mul(Self::GATHER);
        (gathered >> Self::GATHER_SHIFT) & Self::WORD_MASK
    }

    /// Every bit of word `k` set iff bit `k` of `words` is set (bits
    /// past the lane's words are ignored).
    #[inline(always)]
    fn mask_of_words(words: u64) -> u64 {
        // Copy the word bits into every word, keep word `k`'s own bit,
        // then spread each nonzero word to all ones.
        let own = (words & Self::WORD_MASK).wrapping_mul(Self::LOW) & Self::DIAGONAL;
        let top = (own + !Self::HIGH) & Self::HIGH;
        (top >> (Self::BITS - 1)).wrapping_mul(Self::ONES)
    }
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
pub(crate) mod tests {
    use super::*;
    use deuce_crypto::{xor_into, LineCounter};
    use deuce_rng::{DeuceRng, Rng};

    /// The per-word loops the word-wide kernels replaced, kept as the
    /// reference the kernels are checked against.
    pub(crate) mod reference {
        use super::*;

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
    }

    const WORD_SIZES: [WordSize; 4] =
        [WordSize::Bytes1, WordSize::Bytes2, WordSize::Bytes4, WordSize::Bytes8];

    /// `old` with `changes` random bytes rewritten: few for a sparse
    /// write, every byte for a dense one. A rewritten byte may keep its
    /// value, so some draws change nothing.
    pub(crate) fn rewrite(rng: &mut DeuceRng, old: &LineBytes, changes: usize) -> LineBytes {
        let mut data = *old;
        if changes >= LINE_BYTES {
            rng.fill(&mut data);
        } else {
            for _ in 0..changes {
                data[rng.gen_range(0..LINE_BYTES)] = rng.gen();
            }
        }
        data
    }

    /// Each word-wide kernel agrees with its per-word loop at every
    /// word size, for sparse and dense changes over random lines and
    /// random sticky bits already set.
    #[test]
    fn kernels_match_the_per_word_reference() {
        let mut rng = DeuceRng::seed_from_u64(0x6b65_726e);
        for word_size in WORD_SIZES {
            let words = word_size.tracking_bits();
            for round in 0..2000 {
                let old: LineBytes = rng.gen();
                let data = rewrite(&mut rng, &old, [0, 1, 3, 8, LINE_BYTES][round % 5]);
                let sticky = rng.gen::<u64>() & rng.gen::<u64>() & (u64::MAX >> (64 - words));
                let lead = Pad::from_bytes(rng.gen());
                let trail = Pad::from_bytes(rng.gen());
                let stored: LineBytes = rng.gen();

                let mut fast = MetaBits::from_raw(sticky, words);
                let mut slow = fast;
                mark_modified_words(&mut fast, word_size, &old, &data);
                reference::mark_modified_words(&mut slow, word_size, &old, &data);
                assert_eq!(fast, slow, "{word_size:?} round {round}: marked words");

                let mut fast_stored = stored;
                let mut slow_stored = stored;
                reencrypt_marked_words(&mut fast_stored, &data, &lead, &fast, word_size);
                reference::reencrypt_marked_words(&mut slow_stored, &data, &lead, &slow, word_size);
                assert_eq!(fast_stored, slow_stored, "{word_size:?} round {round}: re-encryption");

                assert_eq!(
                    dual_pad_read(&stored, &fast, &lead, &trail, word_size),
                    reference::dual_pad_read(&stored, &slow, &lead, &trail, word_size),
                    "{word_size:?} round {round}: dual-pad read"
                );
            }
        }
    }

    /// The kernels leave bits past the word count alone: DEUCE+FNW
    /// keeps its flip bits above the 32 modified bits.
    #[test]
    fn marking_keeps_bits_above_the_words() {
        let flip_bits = 0xA5A5_0000_0000u64 << 16;
        let mut meta = MetaBits::from_raw(flip_bits, 64);
        let old = [0u8; LINE_BYTES];
        let data = [0xFFu8; LINE_BYTES];
        mark_modified_words(&mut meta, WordSize::Bytes2, &old, &data);
        assert_eq!(meta.raw(), flip_bits | 0xFFFF_FFFF);
    }

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
