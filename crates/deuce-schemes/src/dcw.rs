//! Data Comparison Write baselines: plaintext DCW and counter-mode
//! encrypted DCW (the paper's secure baseline).

use deuce_crypto::{LineAddr, LineBytes, OtpEngine};
use deuce_nvm::{LineImage, MetaBits};

use crate::core::{assert_counter_width, null_addr, null_engine, CtrState};
use crate::scheme::{LineMut, LineRef, LineScheme, SchemeCell};
use crate::WriteOutcome;

/// Plaintext Data Comparison Write \[7\]: store the data verbatim, flip
/// only the bits that changed. This is the unencrypted reference (12.4%
/// average flips in Fig. 5). Per-line state: none.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct UnencryptedDcwScheme;

impl LineScheme for UnencryptedDcwScheme {
    type State = ();

    fn metadata_bits(&self) -> u32 {
        0
    }

    fn init(&self, _engine: &OtpEngine, _addr: LineAddr, initial: &LineBytes) -> (LineBytes, ()) {
        (*initial, ())
    }

    fn write(
        &self,
        _engine: &OtpEngine,
        _addr: LineAddr,
        line: LineMut<'_, ()>,
        data: &LineBytes,
    ) -> WriteOutcome {
        let old_image = LineImage::new(*line.stored, MetaBits::new(0));
        *line.stored = *data;
        WriteOutcome::from_images(old_image, LineImage::new(*line.stored, MetaBits::new(0)), 0, false)
    }

    fn read(&self, _engine: &OtpEngine, _addr: LineAddr, line: LineRef<'_, ()>) -> LineBytes {
        *line.stored
    }

    fn image(&self, line: LineRef<'_, ()>) -> LineImage {
        LineImage::new(*line.stored, MetaBits::new(0))
    }
}

/// Plaintext memory with Data Comparison Write \[7\]: only the bits that
/// changed are written.
///
/// This wrapper keeps the historical engine-less `write`/`read` API over
/// the shared [`UnencryptedDcwScheme`] core.
#[derive(Debug, Clone)]
pub struct UnencryptedDcwLine {
    cell: SchemeCell<UnencryptedDcwScheme>,
}

impl UnencryptedDcwLine {
    /// Initializes the line with `initial`.
    #[must_use]
    pub fn new(initial: &LineBytes) -> Self {
        Self {
            cell: SchemeCell::with_scheme(UnencryptedDcwScheme, null_engine(), null_addr(), initial),
        }
    }

    /// Writes new data.
    #[must_use]
    pub fn write(&mut self, data: &LineBytes) -> WriteOutcome {
        self.cell.write(null_engine(), data)
    }

    /// Reads the line.
    #[must_use]
    pub fn read(&self) -> LineBytes {
        self.cell.read(null_engine())
    }

    /// The current stored image (no metadata).
    #[must_use]
    pub fn image(&self) -> LineImage {
        self.cell.image()
    }
}

/// Counter-mode encrypted memory (Fig. 2c / §2.4): each write increments
/// the per-line counter and re-encrypts the entire line with a fresh
/// one-time pad. The avalanche effect makes ~50% of the stored bits flip
/// on every write regardless of how little the plaintext changed — the
/// problem DEUCE exists to fix. Per-line state: the counter value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EncryptedDcwScheme {
    /// Line-counter width in bits.
    pub counter_bits: u32,
}

impl EncryptedDcwScheme {
    /// Creates the scheme with the given counter width.
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

impl LineScheme for EncryptedDcwScheme {
    type State = CtrState;

    fn metadata_bits(&self) -> u32 {
        0
    }

    fn init(&self, engine: &OtpEngine, addr: LineAddr, initial: &LineBytes) -> (LineBytes, CtrState) {
        (engine.line_pad(addr, 0).xor(initial), CtrState::ZERO)
    }

    fn write(
        &self,
        engine: &OtpEngine,
        addr: LineAddr,
        line: LineMut<'_, CtrState>,
        data: &LineBytes,
    ) -> WriteOutcome {
        let old_image = LineImage::new(*line.stored, MetaBits::new(0));
        let counter_flips = line.state.bump(self.counter_bits);
        *line.stored = engine.line_pad(addr, line.state.value()).xor(data);
        WriteOutcome::from_images(
            old_image,
            LineImage::new(*line.stored, MetaBits::new(0)),
            counter_flips,
            false,
        )
    }

    fn read(&self, engine: &OtpEngine, addr: LineAddr, line: LineRef<'_, CtrState>) -> LineBytes {
        engine.line_pad(addr, line.state.value()).xor(line.stored)
    }

    fn image(&self, line: LineRef<'_, CtrState>) -> LineImage {
        LineImage::new(*line.stored, MetaBits::new(0))
    }
}

/// One memory line under counter-mode encrypted DCW.
pub type EncryptedDcwLine = SchemeCell<EncryptedDcwScheme>;

impl EncryptedDcwLine {
    /// Initializes the line: `initial` is encrypted at counter 0.
    #[must_use]
    pub fn new(engine: &OtpEngine, addr: LineAddr, initial: &LineBytes, counter_bits: u32) -> Self {
        Self::with_scheme(EncryptedDcwScheme::new(counter_bits), engine, addr, initial)
    }

    /// The current line-counter value.
    #[must_use]
    pub fn counter(&self) -> u64 {
        self.state().value()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deuce_crypto::SecretKey;

    #[test]
    fn unencrypted_dcw_counts_exact_flips() {
        let mut line = UnencryptedDcwLine::new(&[0u8; 64]);
        let mut data = [0u8; 64];
        data[0] = 0b111;
        let outcome = line.write(&data);
        assert_eq!(outcome.flips.total(), 3);
        assert_eq!(line.read(), data);
        // Writing identical data flips nothing.
        assert_eq!(line.write(&data).flips.total(), 0);
    }

    #[test]
    fn encrypted_dcw_roundtrip() {
        let engine = OtpEngine::new(&SecretKey::from_seed(5));
        let mut line = EncryptedDcwLine::new(&engine, LineAddr::new(77), &[9u8; 64], 28);
        assert_eq!(line.read(&engine), [9u8; 64]);
        let data = [3u8; 64];
        let _ = line.write(&engine, &data);
        assert_eq!(line.read(&engine), data);
        assert_eq!(line.counter(), 1);
    }

    #[test]
    fn encrypted_dcw_avalanche_near_half() {
        let engine = OtpEngine::new(&SecretKey::from_seed(6));
        let mut line = EncryptedDcwLine::new(&engine, LineAddr::new(1), &[0u8; 64], 28);
        let mut total = 0u64;
        let writes = 2000u64;
        for i in 0..writes {
            let mut data = [0u8; 64];
            data[0] = i as u8; // one byte of logical change
            total += u64::from(line.write(&engine, &data).flips.total());
        }
        let rate = total as f64 / writes as f64 / 512.0;
        assert!((rate - 0.5).abs() < 0.01, "encrypted DCW flip rate {rate}");
    }

    #[test]
    fn encrypted_stored_bits_differ_from_plaintext() {
        let engine = OtpEngine::new(&SecretKey::from_seed(8));
        let line = EncryptedDcwLine::new(&engine, LineAddr::new(2), &[0u8; 64], 28);
        assert_ne!(line.image().data(), &[0u8; 64], "data at rest is encrypted");
    }

    #[test]
    fn counter_flip_accounting() {
        let engine = OtpEngine::new(&SecretKey::from_seed(9));
        let mut line = EncryptedDcwLine::new(&engine, LineAddr::new(3), &[0u8; 64], 28);
        let o1 = line.write(&engine, &[1u8; 64]);
        assert_eq!(o1.counter_flips, 1); // 0 -> 1
        let o2 = line.write(&engine, &[2u8; 64]);
        assert_eq!(o2.counter_flips, 2); // 1 -> 2 (0b01 -> 0b10)
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn zero_counter_width_rejected() {
        let _ = EncryptedDcwScheme::new(0);
    }
}
