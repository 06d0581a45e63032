//! Uniform dispatch over all schemes, so the simulator can run any
//! [`SchemeKind`] chosen at runtime.
//!
//! [`AnyScheme`] implements [`crate::LineScheme`] by matching on a
//! (scheme, state) pair, and [`SchemeLine`] is just
//! `SchemeCell<AnyScheme>` — the generic machinery with dispatch folded
//! into one `match` per operation. Code that knows its scheme at compile
//! time should use the concrete parameter structs ([`crate::DeuceScheme`]
//! …) instead and let monomorphisation remove the dispatch.

use deuce_crypto::{LineAddr, LineBytes, OtpEngine};
use deuce_nvm::LineImage;

use crate::addr_pad::AddrPadScheme;
use crate::ble::{BleDeuceScheme, BleDeuceState, BleScheme, BleState};
use crate::config::SchemeConfig;
use crate::dcw::{EncryptedDcwScheme, UnencryptedDcwScheme};
use crate::core::CtrState;
use crate::deuce::{DeuceScheme, DeuceState};
use crate::deuce_fnw::{DeuceFnwScheme, DeuceFnwState};
use crate::dyn_deuce::{DynDeuceScheme, DynDeuceState};
use crate::fnw::{EncryptedFnwScheme, EncryptedFnwState, FnwState, UnencryptedFnwScheme};
use crate::scheme::{LineMut, LineRef, LineScheme, SchemeCell};
use crate::{SchemeKind, WriteOutcome};

/// Any of the ten schemes, selected at runtime from a [`SchemeConfig`].
///
/// Carries the config-reported metadata bits separately from the scheme
/// because the two can legitimately differ: `SchemeConfig` accounts
/// DynDEUCE / DEUCE+FNW metadata at the configured word size, while their
/// line formats fix the word size at 2 bytes (33 / 64 stored bits).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AnyScheme {
    kind: AnySchemeKind,
    metadata_bits: u32,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AnySchemeKind {
    UnencryptedDcw(UnencryptedDcwScheme),
    UnencryptedFnw(UnencryptedFnwScheme),
    EncryptedDcw(EncryptedDcwScheme),
    EncryptedFnw(EncryptedFnwScheme),
    Ble(BleScheme),
    Deuce(DeuceScheme),
    DynDeuce(DynDeuceScheme),
    DeuceFnw(DeuceFnwScheme),
    BleDeuce(BleDeuceScheme),
    AddrPad(AddrPadScheme),
}

/// The per-line state of an [`AnyScheme`] line: the concrete scheme's
/// compact state behind one tag.
#[derive(Debug, Clone, Copy)]
pub enum AnyState {
    /// Plaintext DCW carries no state.
    UnencryptedDcw,
    /// Plaintext FNW flip bits.
    UnencryptedFnw(FnwState),
    /// Encrypted DCW counter.
    EncryptedDcw(CtrState),
    /// Encrypted FNW counter + flip bits.
    EncryptedFnw(EncryptedFnwState),
    /// BLE per-block counters.
    Ble(BleState),
    /// DEUCE counter + modified bits.
    Deuce(DeuceState),
    /// DynDEUCE counter + mode/tracking bits.
    DynDeuce(DynDeuceState),
    /// DEUCE+FNW counter + modified/flip bits.
    DeuceFnw(DeuceFnwState),
    /// BLE+DEUCE per-block counters + modified bits.
    BleDeuce(BleDeuceState),
    /// Address-pad encryption carries no state.
    AddrPad,
}

impl AnyScheme {
    /// Builds the runtime-dispatched scheme a [`SchemeConfig`] describes.
    #[must_use]
    pub fn from_config(config: &SchemeConfig) -> Self {
        let kind = match config.kind {
            SchemeKind::UnencryptedDcw => AnySchemeKind::UnencryptedDcw(UnencryptedDcwScheme),
            SchemeKind::UnencryptedFnw => {
                AnySchemeKind::UnencryptedFnw(UnencryptedFnwScheme::new(config.fnw_segment_bits))
            }
            SchemeKind::EncryptedDcw => {
                AnySchemeKind::EncryptedDcw(EncryptedDcwScheme::new(config.counter_bits))
            }
            SchemeKind::EncryptedFnw => AnySchemeKind::EncryptedFnw(EncryptedFnwScheme::new(
                config.fnw_segment_bits,
                config.counter_bits,
            )),
            SchemeKind::Ble => AnySchemeKind::Ble(BleScheme::new(config.counter_bits)),
            SchemeKind::Deuce => AnySchemeKind::Deuce(DeuceScheme::new(
                config.word_size,
                config.epoch,
                config.counter_bits,
            )),
            SchemeKind::DynDeuce => {
                AnySchemeKind::DynDeuce(DynDeuceScheme::new(config.epoch, config.counter_bits))
            }
            SchemeKind::DeuceFnw => {
                AnySchemeKind::DeuceFnw(DeuceFnwScheme::new(config.epoch, config.counter_bits))
            }
            SchemeKind::BleDeuce => AnySchemeKind::BleDeuce(BleDeuceScheme::new(
                config.word_size,
                config.epoch,
                config.counter_bits,
            )),
            SchemeKind::AddrPad => AnySchemeKind::AddrPad(AddrPadScheme),
        };
        Self {
            kind,
            metadata_bits: config.metadata_bits(),
        }
    }
}

impl LineScheme for AnyScheme {
    type State = AnyState;

    fn metadata_bits(&self) -> u32 {
        self.metadata_bits
    }

    fn init(&self, engine: &OtpEngine, addr: LineAddr, initial: &LineBytes) -> (LineBytes, AnyState) {
        match &self.kind {
            AnySchemeKind::UnencryptedDcw(s) => {
                let (stored, ()) = s.init(engine, addr, initial);
                (stored, AnyState::UnencryptedDcw)
            }
            AnySchemeKind::UnencryptedFnw(s) => {
                let (stored, st) = s.init(engine, addr, initial);
                (stored, AnyState::UnencryptedFnw(st))
            }
            AnySchemeKind::EncryptedDcw(s) => {
                let (stored, st) = s.init(engine, addr, initial);
                (stored, AnyState::EncryptedDcw(st))
            }
            AnySchemeKind::EncryptedFnw(s) => {
                let (stored, st) = s.init(engine, addr, initial);
                (stored, AnyState::EncryptedFnw(st))
            }
            AnySchemeKind::Ble(s) => {
                let (stored, st) = s.init(engine, addr, initial);
                (stored, AnyState::Ble(st))
            }
            AnySchemeKind::Deuce(s) => {
                let (stored, st) = s.init(engine, addr, initial);
                (stored, AnyState::Deuce(st))
            }
            AnySchemeKind::DynDeuce(s) => {
                let (stored, st) = s.init(engine, addr, initial);
                (stored, AnyState::DynDeuce(st))
            }
            AnySchemeKind::DeuceFnw(s) => {
                let (stored, st) = s.init(engine, addr, initial);
                (stored, AnyState::DeuceFnw(st))
            }
            AnySchemeKind::BleDeuce(s) => {
                let (stored, st) = s.init(engine, addr, initial);
                (stored, AnyState::BleDeuce(st))
            }
            AnySchemeKind::AddrPad(s) => {
                let (stored, ()) = s.init(engine, addr, initial);
                (stored, AnyState::AddrPad)
            }
        }
    }

    fn write(
        &self,
        engine: &OtpEngine,
        addr: LineAddr,
        line: LineMut<'_, AnyState>,
        data: &LineBytes,
    ) -> WriteOutcome {
        let LineMut { stored, state } = line;
        match (&self.kind, state) {
            (AnySchemeKind::UnencryptedDcw(s), AnyState::UnencryptedDcw) => {
                s.write(engine, addr, LineMut { stored, state: &mut () }, data)
            }
            (AnySchemeKind::UnencryptedFnw(s), AnyState::UnencryptedFnw(st)) => {
                s.write(engine, addr, LineMut { stored, state: st }, data)
            }
            (AnySchemeKind::EncryptedDcw(s), AnyState::EncryptedDcw(st)) => {
                s.write(engine, addr, LineMut { stored, state: st }, data)
            }
            (AnySchemeKind::EncryptedFnw(s), AnyState::EncryptedFnw(st)) => {
                s.write(engine, addr, LineMut { stored, state: st }, data)
            }
            (AnySchemeKind::Ble(s), AnyState::Ble(st)) => {
                s.write(engine, addr, LineMut { stored, state: st }, data)
            }
            (AnySchemeKind::Deuce(s), AnyState::Deuce(st)) => {
                s.write(engine, addr, LineMut { stored, state: st }, data)
            }
            (AnySchemeKind::DynDeuce(s), AnyState::DynDeuce(st)) => {
                s.write(engine, addr, LineMut { stored, state: st }, data)
            }
            (AnySchemeKind::DeuceFnw(s), AnyState::DeuceFnw(st)) => {
                s.write(engine, addr, LineMut { stored, state: st }, data)
            }
            (AnySchemeKind::BleDeuce(s), AnyState::BleDeuce(st)) => {
                s.write(engine, addr, LineMut { stored, state: st }, data)
            }
            (AnySchemeKind::AddrPad(s), AnyState::AddrPad) => {
                s.write(engine, addr, LineMut { stored, state: &mut () }, data)
            }
            _ => unreachable!("scheme/state mismatch"),
        }
    }

    fn read(&self, engine: &OtpEngine, addr: LineAddr, line: LineRef<'_, AnyState>) -> LineBytes {
        let LineRef { stored, state } = line;
        match (&self.kind, state) {
            (AnySchemeKind::UnencryptedDcw(s), AnyState::UnencryptedDcw) => {
                s.read(engine, addr, LineRef { stored, state: &() })
            }
            (AnySchemeKind::UnencryptedFnw(s), AnyState::UnencryptedFnw(st)) => {
                s.read(engine, addr, LineRef { stored, state: st })
            }
            (AnySchemeKind::EncryptedDcw(s), AnyState::EncryptedDcw(st)) => {
                s.read(engine, addr, LineRef { stored, state: st })
            }
            (AnySchemeKind::EncryptedFnw(s), AnyState::EncryptedFnw(st)) => {
                s.read(engine, addr, LineRef { stored, state: st })
            }
            (AnySchemeKind::Ble(s), AnyState::Ble(st)) => {
                s.read(engine, addr, LineRef { stored, state: st })
            }
            (AnySchemeKind::Deuce(s), AnyState::Deuce(st)) => {
                s.read(engine, addr, LineRef { stored, state: st })
            }
            (AnySchemeKind::DynDeuce(s), AnyState::DynDeuce(st)) => {
                s.read(engine, addr, LineRef { stored, state: st })
            }
            (AnySchemeKind::DeuceFnw(s), AnyState::DeuceFnw(st)) => {
                s.read(engine, addr, LineRef { stored, state: st })
            }
            (AnySchemeKind::BleDeuce(s), AnyState::BleDeuce(st)) => {
                s.read(engine, addr, LineRef { stored, state: st })
            }
            (AnySchemeKind::AddrPad(s), AnyState::AddrPad) => {
                s.read(engine, addr, LineRef { stored, state: &() })
            }
            _ => unreachable!("scheme/state mismatch"),
        }
    }

    fn image(&self, line: LineRef<'_, AnyState>) -> LineImage {
        let LineRef { stored, state } = line;
        match (&self.kind, state) {
            (AnySchemeKind::UnencryptedDcw(s), AnyState::UnencryptedDcw) => {
                s.image(LineRef { stored, state: &() })
            }
            (AnySchemeKind::UnencryptedFnw(s), AnyState::UnencryptedFnw(st)) => {
                s.image(LineRef { stored, state: st })
            }
            (AnySchemeKind::EncryptedDcw(s), AnyState::EncryptedDcw(st)) => {
                s.image(LineRef { stored, state: st })
            }
            (AnySchemeKind::EncryptedFnw(s), AnyState::EncryptedFnw(st)) => {
                s.image(LineRef { stored, state: st })
            }
            (AnySchemeKind::Ble(s), AnyState::Ble(st)) => s.image(LineRef { stored, state: st }),
            (AnySchemeKind::Deuce(s), AnyState::Deuce(st)) => s.image(LineRef { stored, state: st }),
            (AnySchemeKind::DynDeuce(s), AnyState::DynDeuce(st)) => {
                s.image(LineRef { stored, state: st })
            }
            (AnySchemeKind::DeuceFnw(s), AnyState::DeuceFnw(st)) => {
                s.image(LineRef { stored, state: st })
            }
            (AnySchemeKind::BleDeuce(s), AnyState::BleDeuce(st)) => {
                s.image(LineRef { stored, state: st })
            }
            (AnySchemeKind::AddrPad(s), AnyState::AddrPad) => s.image(LineRef { stored, state: &() }),
            _ => unreachable!("scheme/state mismatch"),
        }
    }
}

/// One memory line under any scheme, selected at runtime.
///
/// This is the type the trace-driven simulator instantiates per line when
/// the scheme is chosen at runtime; it forwards `write`/`read`/`image`
/// through [`AnyScheme`] to the concrete scheme.
///
/// # Examples
///
/// ```
/// use deuce_crypto::{LineAddr, OtpEngine, SecretKey};
/// use deuce_schemes::{SchemeConfig, SchemeKind, SchemeLine};
///
/// let engine = OtpEngine::new(&SecretKey::from_seed(0));
/// for kind in SchemeKind::ALL {
///     let config = SchemeConfig::new(kind);
///     let mut line = SchemeLine::new(&config, &engine, LineAddr::new(1), &[0u8; 64]);
///     let data = [0x42u8; 64];
///     let _ = line.write(&engine, &data);
///     assert_eq!(line.read(&engine), data, "{kind}");
/// }
/// ```
pub type SchemeLine = SchemeCell<AnyScheme>;

impl SchemeLine {
    /// Creates a line holding `initial` under the configured scheme.
    #[must_use]
    pub fn new(
        config: &SchemeConfig,
        engine: &OtpEngine,
        addr: LineAddr,
        initial: &LineBytes,
    ) -> Self {
        Self::with_scheme(AnyScheme::from_config(config), engine, addr, initial)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deuce_crypto::SecretKey;
    use deuce_rng::{DeuceRng, Rng};

    /// Differential test: every scheme must return exactly what was last
    /// written, across hundreds of random writes.
    #[test]
    fn all_schemes_roundtrip_random_writes() {
        let engine = OtpEngine::new(&SecretKey::from_seed(1234));
        let mut rng = DeuceRng::seed_from_u64(99);
        for kind in SchemeKind::ALL {
            let config = SchemeConfig::new(kind);
            let mut initial = [0u8; 64];
            rng.fill(&mut initial);
            let mut line = SchemeLine::new(&config, &engine, LineAddr::new(7), &initial);
            assert_eq!(line.read(&engine), initial, "{kind}: initial readback");
            let mut data = initial;
            for i in 0..200 {
                // Mix sparse and dense updates.
                if rng.gen_bool(0.7) {
                    let idx = rng.gen_range(0usize..64);
                    data[idx] = rng.gen();
                } else {
                    rng.fill(&mut data);
                }
                let outcome = line.write(&engine, &data);
                assert_eq!(line.read(&engine), data, "{kind}: write {i}");
                assert_eq!(
                    outcome.flips,
                    outcome.old_image.flips_to(&outcome.new_image),
                    "{kind}: flip accounting is image-derived"
                );
            }
        }
    }

    /// Encrypted schemes must never store the plaintext verbatim.
    #[test]
    fn encrypted_schemes_hide_plaintext() {
        let engine = OtpEngine::new(&SecretKey::from_seed(5));
        let pattern = b"TOP SECRET DATA!";
        let secret: [u8; 64] = std::array::from_fn(|i| pattern[i % pattern.len()]);
        for kind in SchemeKind::ALL {
            let config = SchemeConfig::new(kind);
            let line = SchemeLine::new(&config, &engine, LineAddr::new(9), &secret);
            let at_rest = line.image();
            if kind.is_encrypted() {
                assert_ne!(at_rest.data(), &secret, "{kind} stores plaintext at rest");
            } else {
                assert_eq!(at_rest.data(), &secret, "{kind} should store plaintext");
            }
        }
    }

    /// Metadata accounting survives dispatch.
    #[test]
    fn metadata_bits_forwarded() {
        let engine = OtpEngine::new(&SecretKey::from_seed(5));
        let line = SchemeLine::new(
            &SchemeConfig::new(SchemeKind::DynDeuce),
            &engine,
            LineAddr::new(0),
            &[0u8; 64],
        );
        assert_eq!(line.metadata_bits(), 33);
    }
}
