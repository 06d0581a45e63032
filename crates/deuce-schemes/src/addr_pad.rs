//! Address-only pad encryption (§7.2).
//!
//! If a system only needs protection against the *stolen DIMM* attack —
//! not bus snooping — the paper observes it can drop the counter from
//! counter-mode encryption and derive each line's pad from the line
//! address alone. Data at rest is unreadable without the key, every
//! line's pad is unique (no cross-line dictionary attacks), and because
//! the pad never changes, bit flips stay at unencrypted-DCW levels.
//!
//! The cost is security against an on-bus adversary: consecutive
//! writebacks of a line are XORed with the *same* pad, so
//! `ct_1 ^ ct_2 = pt_1 ^ pt_2` leaks the plaintext difference — exactly
//! the trade-off §7.2 describes. The
//! `examples/stolen_dimm.rs` demo shows both sides.

use deuce_crypto::{LineAddr, LineBytes, OtpEngine};
use deuce_nvm::{LineImage, MetaBits};

use crate::scheme::{LineMut, LineRef, LineScheme, SchemeCell};
use crate::WriteOutcome;

/// The fixed counter value used for pad derivation (there is no stored
/// counter).
const PAD_EPOCH: u64 = 0;

/// Counterless encryption with a per-line, address-derived pad. Per-line
/// state: none (the pad never changes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AddrPadScheme;

impl LineScheme for AddrPadScheme {
    type State = ();

    fn metadata_bits(&self) -> u32 {
        0
    }

    fn init(&self, engine: &OtpEngine, addr: LineAddr, initial: &LineBytes) -> (LineBytes, ()) {
        (engine.line_pad(addr, PAD_EPOCH).xor(initial), ())
    }

    fn write(
        &self,
        engine: &OtpEngine,
        addr: LineAddr,
        line: LineMut<'_, ()>,
        data: &LineBytes,
    ) -> WriteOutcome {
        let old_image = LineImage::new(*line.stored, MetaBits::new(0));
        *line.stored = engine.line_pad(addr, PAD_EPOCH).xor(data);
        WriteOutcome::from_images(
            old_image,
            LineImage::new(*line.stored, MetaBits::new(0)),
            0,
            false,
        )
    }

    fn read(&self, engine: &OtpEngine, addr: LineAddr, line: LineRef<'_, ()>) -> LineBytes {
        engine.line_pad(addr, PAD_EPOCH).xor(line.stored)
    }

    fn image(&self, line: LineRef<'_, ()>) -> LineImage {
        LineImage::new(*line.stored, MetaBits::new(0))
    }
}

/// One memory line encrypted with a per-line, address-derived pad
/// (counterless).
pub type AddrPadLine = SchemeCell<AddrPadScheme>;

impl AddrPadLine {
    /// Initializes the line with `initial` encrypted under the address
    /// pad.
    #[must_use]
    pub fn new(engine: &OtpEngine, addr: LineAddr, initial: &LineBytes) -> Self {
        Self::with_scheme(AddrPadScheme, engine, addr, initial)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deuce_crypto::SecretKey;

    fn engine() -> OtpEngine {
        OtpEngine::new(&SecretKey::from_seed(77))
    }

    #[test]
    fn roundtrip_and_at_rest_secrecy() {
        let e = engine();
        let secret = [0x42u8; 64];
        let mut line = AddrPadLine::new(&e, LineAddr::new(3), &secret);
        assert_eq!(line.read(&e), secret);
        assert_ne!(line.image().data(), &secret, "at rest data is encrypted");
        let update = [0x43u8; 64];
        let _ = line.write(&e, &update);
        assert_eq!(line.read(&e), update);
    }

    #[test]
    fn flips_match_plaintext_dcw() {
        let e = engine();
        let mut line = AddrPadLine::new(&e, LineAddr::new(4), &[0u8; 64]);
        let mut data = [0u8; 64];
        data[0] = 0b101;
        let outcome = line.write(&e, &data);
        assert_eq!(outcome.flips.total(), 2, "only the changed plaintext bits flip");
    }

    #[test]
    fn distinct_lines_use_distinct_pads() {
        let e = engine();
        let a = AddrPadLine::new(&e, LineAddr::new(1), &[0u8; 64]);
        let b = AddrPadLine::new(&e, LineAddr::new(2), &[0u8; 64]);
        assert_ne!(a.image().data(), b.image().data());
    }

    /// The documented weakness: the XOR of two ciphertexts of the same
    /// line equals the XOR of the plaintexts — a bus snooper learns
    /// plaintext differences.
    #[test]
    fn bus_snooper_learns_plaintext_difference() {
        let e = engine();
        let pt1 = [0x11u8; 64];
        let mut line = AddrPadLine::new(&e, LineAddr::new(9), &pt1);
        let ct1 = *line.image().data();
        let mut pt2 = pt1;
        pt2[5] ^= 0xF0;
        let _ = line.write(&e, &pt2);
        let ct2 = *line.image().data();
        let mut leak = [0u8; 64];
        for i in 0..64 {
            leak[i] = ct1[i] ^ ct2[i];
        }
        let mut expected = [0u8; 64];
        expected[5] = 0xF0;
        assert_eq!(leak, expected, "pad reuse leaks pt1 ^ pt2");
    }
}
