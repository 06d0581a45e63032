//! The monomorphisable scheme interface: [`LineScheme`] plus the
//! [`SchemeCell`] single-line owner built on it.
//!
//! A scheme is split into two pieces:
//!
//! - a small `Copy` **parameter struct** (word size, epoch, counter
//!   width …) shared by every line, implementing [`LineScheme`]; and
//! - a compact **per-line state** ([`LineScheme::State`]) holding only
//!   what varies per line — raw counter values and raw metadata bits.
//!
//! Storage (the 64 ciphertext bytes and the state) lives *outside* the
//! scheme, in a [`SchemeCell`] for a single line or a
//! [`crate::LineStore`] arena for many. No plaintext is kept: a scheme
//! that needs a line's previous value to find what a write changed
//! decrypts it from the stored bytes, as the paper's controller does. The simulator
//! hot loop is generic over `S: LineScheme` and monomorphises away all
//! dispatch; [`crate::SchemeLine`] (a `SchemeCell<AnyScheme>`) keeps the
//! runtime-selected path for CLI sweeps.

use deuce_crypto::{LineAddr, LineBytes, OtpEngine};
use deuce_nvm::LineImage;

use crate::WriteOutcome;

/// Mutable view of one line's storage, lent to [`LineScheme::write`].
#[derive(Debug)]
pub struct LineMut<'a, S> {
    /// Ciphertext exactly as stored in the PCM cells.
    pub stored: &'a mut LineBytes,
    /// The scheme's compact per-line state.
    pub state: &'a mut S,
}

impl<S> LineMut<'_, S> {
    /// The same line, lent shared (to decrypt it before a write).
    #[must_use]
    pub fn view(&self) -> LineRef<'_, S> {
        LineRef {
            stored: self.stored,
            state: self.state,
        }
    }
}

/// Shared view of one line's storage, lent to [`LineScheme::read`] and
/// [`LineScheme::image`].
#[derive(Debug, Clone, Copy)]
pub struct LineRef<'a, S> {
    /// Ciphertext exactly as stored in the PCM cells.
    pub stored: &'a LineBytes,
    /// The scheme's compact per-line state.
    pub state: &'a S,
}

/// One of the paper's per-line write-reduction state machines, expressed
/// over externally-owned storage.
///
/// Implementations must be bit-identical to the historical fat-enum
/// schemes: same stored images, same flip accounting, same epoch
/// behaviour (pinned by `deuce-sim/tests/scheme_parity.rs`).
pub trait LineScheme {
    /// Compact per-line state (raw counters and raw metadata bits).
    type State: Copy + core::fmt::Debug;

    /// Always `false`, and nothing reads it. No scheme keeps a plaintext
    /// copy of a line: one that needs a line's previous value decrypts
    /// it from the stored bytes. Retained so that wrappers forwarding it
    /// keep compiling.
    fn needs_shadow(&self) -> bool {
        false
    }

    /// Metadata bits per line for Table 3 accounting.
    fn metadata_bits(&self) -> u32;

    /// Encrypts/encodes `initial` into a fresh line's stored bytes and
    /// initial state (counter 0, which is an epoch start).
    fn init(&self, engine: &OtpEngine, addr: LineAddr, initial: &LineBytes)
        -> (LineBytes, Self::State);

    /// Drives one full-line write through the scheme state machine.
    fn write(
        &self,
        engine: &OtpEngine,
        addr: LineAddr,
        line: LineMut<'_, Self::State>,
        data: &LineBytes,
    ) -> WriteOutcome;

    /// Decrypts/decodes the logical line value.
    fn read(&self, engine: &OtpEngine, addr: LineAddr, line: LineRef<'_, Self::State>)
        -> LineBytes;

    /// The stored image (ciphertext + metadata bits) of a line.
    fn image(&self, line: LineRef<'_, Self::State>) -> LineImage;
}

/// One self-contained memory line under a scheme `S`: owns the stored
/// bytes and the per-line state.
///
/// The concrete line types ([`crate::DeuceLine`], [`crate::BleLine`],
/// …) are aliases of this with scheme-specific constructors, and
/// [`crate::SchemeLine`] is `SchemeCell<AnyScheme>`.
///
/// # Examples
///
/// ```
/// use deuce_crypto::{LineAddr, OtpEngine, SecretKey};
/// use deuce_schemes::{EncryptedDcwScheme, SchemeCell};
///
/// let engine = OtpEngine::new(&SecretKey::from_seed(1));
/// let scheme = EncryptedDcwScheme::new(28);
/// let mut line = SchemeCell::with_scheme(scheme, &engine, LineAddr::new(3), &[0u8; 64]);
/// let data = [7u8; 64];
/// let _ = line.write(&engine, &data);
/// assert_eq!(line.read(&engine), data);
/// ```
#[derive(Debug, Clone)]
pub struct SchemeCell<S: LineScheme> {
    scheme: S,
    addr: LineAddr,
    stored: LineBytes,
    state: S::State,
}

impl<S: LineScheme> SchemeCell<S> {
    /// Creates a line holding `initial` under `scheme`.
    #[must_use]
    pub fn with_scheme(scheme: S, engine: &OtpEngine, addr: LineAddr, initial: &LineBytes) -> Self {
        let (stored, state) = scheme.init(engine, addr, initial);
        Self {
            scheme,
            addr,
            stored,
            state,
        }
    }

    /// Writes a full line of new data, returning the exact device-level
    /// outcome.
    #[must_use]
    pub fn write(&mut self, engine: &OtpEngine, data: &LineBytes) -> WriteOutcome {
        self.scheme.write(
            engine,
            self.addr,
            LineMut {
                stored: &mut self.stored,
                state: &mut self.state,
            },
            data,
        )
    }

    /// Reads (and if necessary decrypts) the logical line value.
    #[must_use]
    pub fn read(&self, engine: &OtpEngine) -> LineBytes {
        self.scheme.read(
            engine,
            self.addr,
            LineRef {
                stored: &self.stored,
                state: &self.state,
            },
        )
    }

    /// The current stored image.
    #[must_use]
    pub fn image(&self) -> LineImage {
        self.scheme.image(LineRef {
            stored: &self.stored,
            state: &self.state,
        })
    }

    /// Metadata bits this line stores (Table 3 accounting).
    #[must_use]
    pub fn metadata_bits(&self) -> u32 {
        self.scheme.metadata_bits()
    }

    /// The scheme parameters this line runs under.
    #[must_use]
    pub fn scheme(&self) -> &S {
        &self.scheme
    }

    /// The compact per-line state.
    #[must_use]
    pub fn state(&self) -> &S::State {
        &self.state
    }
}
