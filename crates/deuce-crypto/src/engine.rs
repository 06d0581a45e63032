//! The OTP generation engine (the "AES engine" box in Figs. 2–4).
//!
//! The hot path assembles the counter-mode inputs of a line pad once —
//! the `(address, counter, domain)` prefix is shared and only the
//! sub-block byte varies — and encrypts them in one batched cipher
//! call: [`deuce_aes::Aes128::encrypt_blocks4`] for a single pad,
//! [`deuce_aes::Aes128::encrypt_blocks8`] when a dual-pad read wants
//! both the leading- and trailing-counter pads of a line at once
//! ([`OtpEngine::line_pad_pair`]). Which cipher tier runs those batches
//! (hardware AES, T-tables, or the byte-oriented reference oracle) is
//! resolved by `deuce-aes`'s runtime dispatch — see
//! [`OtpEngine::aes_backend`]; all tiers emit bit-identical pads and
//! are differentially tested to.

use std::sync::Mutex;
use std::time::Instant;

use deuce_aes::{Aes128, AesBackend};

use crate::pad::{BlockPad, Pad};
use crate::{SecretKey, LINE_BYTES};

/// A line address in the PCM address space.
///
/// Feeding the address into pad generation gives every line its own key
/// stream (Fig. 2b), defeating dictionary attacks across lines.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct LineAddr(u64);

impl LineAddr {
    /// Creates a line address.
    #[must_use]
    pub fn new(addr: u64) -> Self {
        Self(addr)
    }

    /// The raw address value.
    #[must_use]
    pub fn value(self) -> u64 {
        self.0
    }
}

impl From<u64> for LineAddr {
    fn from(addr: u64) -> Self {
        Self(addr)
    }
}

impl core::fmt::Display for LineAddr {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

/// Domain-separation tags for pad inputs, guaranteeing that line-granularity
/// pads and BLE block pads can never collide even for equal counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PadDomain {
    Line = 0,
    Block = 1,
}

/// Generates one-time pads from `(key, line address, counter)` via AES-128,
/// as in counter-mode encryption (§2.3–2.4 of the paper).
///
/// A 64-byte line pad is the concatenation of four AES blocks, each over a
/// distinct input `(address, counter, sub-block index, domain tag)`; pad
/// uniqueness therefore reduces to uniqueness of `(address, counter)`
/// pairs, which the line counter guarantees.
///
/// # Examples
///
/// ```
/// use deuce_crypto::{LineAddr, OtpEngine, SecretKey};
///
/// let engine = OtpEngine::new(&SecretKey::from_seed(1));
/// let pad_a = engine.line_pad(LineAddr::new(1), 5);
/// let pad_b = engine.line_pad(LineAddr::new(2), 5);
/// assert_ne!(pad_a, pad_b); // distinct lines, distinct pads
/// ```
#[derive(Debug)]
pub struct OtpEngine {
    cipher: Aes128,
    /// Wall-clock accounting of line-pad generation, present only when
    /// opted in via [`Self::with_pad_timing`] — the span tracer's
    /// `pad_generation` leaf. A `Mutex` (never contended: each
    /// simulation session owns its engine) keeps the engine `Sync` for
    /// shared `static` use.
    timing: Option<Mutex<PadTimingStats>>,
}

/// Wall-clock totals for line-pad generation.
///
/// Nondeterministic (wall time); never feeds simulated results, only
/// span traces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PadTimingStats {
    /// Line pads generated.
    pub calls: u64,
    /// Total wall-clock nanoseconds spent generating.
    pub wall_ns: u64,
}

impl Clone for OtpEngine {
    fn clone(&self) -> Self {
        Self {
            cipher: self.cipher.clone(),
            timing: self
                .timing
                .as_ref()
                .map(|t| Mutex::new(*t.lock().expect("pad timing lock poisoned"))),
        }
    }
}

impl OtpEngine {
    /// Creates an engine keyed with the controller's secret key, on the
    /// process-wide default cipher tier (the fastest the CPU supports,
    /// or the `DEUCE_AES_FORCE` override).
    #[must_use]
    pub fn new(key: &SecretKey) -> Self {
        Self {
            cipher: Aes128::new(key.as_bytes()),
            timing: None,
        }
    }

    /// Creates an engine that generates pads through the byte-oriented
    /// FIPS-197 reference cipher, one block at a time.
    ///
    /// Pads are bit-identical to [`Self::new`]'s; this constructor
    /// exists so differential tests and benchmarks can compare the
    /// tiers end to end.
    #[must_use]
    pub fn new_reference(key: &SecretKey) -> Self {
        Self::new(key).with_aes_backend(AesBackend::Reference)
    }

    /// Pins the engine's cipher to a specific tier, overriding the
    /// process default — pad bytes are identical on every tier.
    ///
    /// # Panics
    ///
    /// Panics if `backend` is unavailable on this host (hw on a CPU
    /// without AES support).
    #[must_use]
    pub fn with_aes_backend(mut self, backend: AesBackend) -> Self {
        self.cipher = self.cipher.with_backend(backend);
        self
    }

    /// The cipher tier this engine's pads are generated on.
    #[must_use]
    pub fn aes_backend(&self) -> AesBackend {
        self.cipher.backend()
    }

    /// Starts wall-clock timing of line-pad generation, for span
    /// tracing. Adds one `Instant::now` pair per [`Self::line_pad`] or
    /// [`Self::line_pad_pair`] call; pad bytes are unaffected.
    #[must_use]
    pub fn with_pad_timing(mut self) -> Self {
        self.timing = Some(Mutex::new(PadTimingStats::default()));
        self
    }

    /// Lifetime generation-call/wall-time totals, or `None` when timing
    /// was not enabled.
    #[must_use]
    pub fn pad_timing_stats(&self) -> Option<PadTimingStats> {
        self.timing
            .as_ref()
            .map(|t| *t.lock().expect("pad timing lock poisoned"))
    }

    /// Builds the 16-byte counter-mode input shared by all sub-blocks
    /// of a pad: address, 48-bit counter, and domain tag. Byte 14 (the
    /// sub-block index) is left zero for the caller to vary.
    #[inline]
    fn pad_input(addr: LineAddr, counter: u64, domain: PadDomain) -> [u8; 16] {
        let mut input = [0u8; 16];
        input[..8].copy_from_slice(&addr.value().to_le_bytes());
        // 48-bit counter field (LineCounter enforces width <= 48).
        input[8..14].copy_from_slice(&counter.to_le_bytes()[..6]);
        input[15] = domain as u8;
        input
    }

    /// Generates a line pad: four counter blocks through one batched
    /// cipher call, on whatever tier the cipher dispatched to.
    fn generate_line_pad(&self, addr: LineAddr, counter: u64) -> Pad {
        let input = Self::pad_input(addr, counter, PadDomain::Line);
        let mut blocks = [input; 4];
        for (sub, block) in blocks.iter_mut().enumerate() {
            block[14] = sub as u8;
        }
        let cts = self.cipher.encrypt_blocks4(&blocks);
        let mut bytes = [0u8; LINE_BYTES];
        for (sub, ct) in cts.iter().enumerate() {
            bytes[sub * 16..sub * 16 + 16].copy_from_slice(ct);
        }
        Pad::from_bytes(bytes)
    }

    /// Generates two line pads of the same address in one 8-block
    /// batched cipher call — the dual-pad read's AES work,
    /// issued wide enough to keep the hardware pipeline full.
    fn generate_line_pad_pair(&self, addr: LineAddr, ctr_a: u64, ctr_b: u64) -> (Pad, Pad) {
        let input_a = Self::pad_input(addr, ctr_a, PadDomain::Line);
        let input_b = Self::pad_input(addr, ctr_b, PadDomain::Line);
        let mut blocks = [input_a, input_a, input_a, input_a, input_b, input_b, input_b, input_b];
        for (i, block) in blocks.iter_mut().enumerate() {
            block[14] = (i % 4) as u8;
        }
        let cts = self.cipher.encrypt_blocks8(&blocks);
        let mut bytes_a = [0u8; LINE_BYTES];
        let mut bytes_b = [0u8; LINE_BYTES];
        for sub in 0..4 {
            bytes_a[sub * 16..sub * 16 + 16].copy_from_slice(&cts[sub]);
            bytes_b[sub * 16..sub * 16 + 16].copy_from_slice(&cts[4 + sub]);
        }
        (Pad::from_bytes(bytes_a), Pad::from_bytes(bytes_b))
    }

    /// Runs `generate`, which produces `pads` line pads, and adds its
    /// wall time to the totals when timing is enabled. A pair counts as
    /// two pads sharing one wall-clock span, so the totals stay
    /// comparable with the serial path.
    #[inline]
    fn timed<T>(&self, pads: u64, generate: impl FnOnce() -> T) -> T {
        let Some(timing) = &self.timing else {
            return generate();
        };
        let started = Instant::now();
        let out = generate();
        let elapsed = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let mut stats = timing.lock().expect("pad timing lock poisoned");
        stats.calls += pads;
        stats.wall_ns = stats.wall_ns.saturating_add(elapsed);
        out
    }

    /// Generates the 512-bit pad for a whole line at a given counter value.
    #[must_use]
    pub fn line_pad(&self, addr: LineAddr, counter: u64) -> Pad {
        self.timed(1, || self.generate_line_pad(addr, counter))
    }

    /// Generates the pads of one line at two counter values — a
    /// dual-pad DEUCE read's leading and trailing pads — in a single
    /// 8-block batched cipher call.
    ///
    /// Bytes are exactly `(self.line_pad(addr, ctr_a),
    /// self.line_pad(addr, ctr_b))`; equal counters (a line at its epoch
    /// start) collapse to a single [`Self::line_pad`] call.
    #[must_use]
    pub fn line_pad_pair(&self, addr: LineAddr, ctr_a: u64, ctr_b: u64) -> (Pad, Pad) {
        if ctr_a == ctr_b {
            let pad = self.line_pad(addr, ctr_a);
            return (pad, pad);
        }
        self.timed(2, || self.generate_line_pad_pair(addr, ctr_a, ctr_b))
    }

    /// Generates the 128-bit pad for one 16-byte AES block of a line
    /// (Block-Level Encryption, §7.1), at that block's own counter value.
    ///
    /// # Panics
    ///
    /// Panics if `block_index >= 4`.
    #[must_use]
    pub fn block_pad(&self, addr: LineAddr, block_index: usize, counter: u64) -> BlockPad {
        assert!(block_index < 4, "block index {block_index} out of range 0..4");
        let mut input = Self::pad_input(addr, counter, PadDomain::Block);
        input[14] = u8::try_from(block_index).expect("checked above");
        BlockPad::from_bytes(self.cipher.encrypt_block(&input))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine() -> OtpEngine {
        OtpEngine::new(&SecretKey::from_seed(42))
    }

    #[test]
    fn pads_are_deterministic() {
        let e = engine();
        let a = e.line_pad(LineAddr::new(3), 9);
        let b = e.line_pad(LineAddr::new(3), 9);
        assert_eq!(a, b);
    }

    #[test]
    fn pads_differ_across_counters() {
        let e = engine();
        assert_ne!(e.line_pad(LineAddr::new(3), 9), e.line_pad(LineAddr::new(3), 10));
    }

    #[test]
    fn pads_differ_across_lines() {
        let e = engine();
        assert_ne!(e.line_pad(LineAddr::new(3), 9), e.line_pad(LineAddr::new(4), 9));
    }

    #[test]
    fn pads_differ_across_keys() {
        let a = OtpEngine::new(&SecretKey::from_seed(1));
        let b = OtpEngine::new(&SecretKey::from_seed(2));
        assert_ne!(a.line_pad(LineAddr::new(3), 9), b.line_pad(LineAddr::new(3), 9));
    }

    #[test]
    fn line_and_block_domains_are_separated() {
        let e = engine();
        let line = e.line_pad(LineAddr::new(7), 5);
        for block in 0..4 {
            let block_pad = e.block_pad(LineAddr::new(7), block, 5);
            assert_ne!(
                &line.as_bytes()[block * 16..block * 16 + 16],
                block_pad.as_bytes().as_slice(),
                "block {block} pad collided with line pad slice"
            );
        }
    }

    #[test]
    fn sub_blocks_of_a_line_pad_differ() {
        let e = engine();
        let pad = e.line_pad(LineAddr::new(1), 1);
        let b = pad.as_bytes();
        assert_ne!(&b[0..16], &b[16..32]);
        assert_ne!(&b[16..32], &b[32..48]);
        assert_ne!(&b[32..48], &b[48..64]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn block_index_bound() {
        let _ = engine().block_pad(LineAddr::new(0), 4, 0);
    }

    #[test]
    fn pad_bits_look_balanced() {
        // Across many pads, the ones-density should be ~50% — this is what
        // makes naive re-encryption flip half the bits of the line.
        let e = engine();
        let mut ones = 0u64;
        let mut total = 0u64;
        for ctr in 0..256u64 {
            let pad = e.line_pad(LineAddr::new(0xdead), ctr);
            ones += pad.as_bytes().iter().map(|b| u64::from(b.count_ones())).sum::<u64>();
            total += 512;
        }
        let density = ones as f64 / total as f64;
        assert!((density - 0.5).abs() < 0.01, "pad density {density}");
    }

    #[test]
    fn pad_timing_counts_every_generation() {
        let timed = engine().with_pad_timing();
        let plain = engine();
        let addr = LineAddr::new(9);
        let pad = timed.line_pad(addr, 2);
        assert_eq!(pad, plain.line_pad(addr, 2), "timing never changes bytes");
        let _ = timed.line_pad(addr, 2);
        assert_eq!(timed.pad_timing_stats().expect("timing attached").calls, 2);
        // A distinct-counter pair is two pads; an equal-counter pair is one.
        let _ = timed.line_pad_pair(addr, 3, 4);
        let _ = timed.line_pad_pair(addr, 5, 5);
        assert_eq!(timed.pad_timing_stats().expect("timing attached").calls, 5);
        assert_eq!(plain.pad_timing_stats(), None);
    }

    #[test]
    fn line_pad_pair_matches_serial_calls() {
        let e = engine();
        let addr = LineAddr::new(0x1234);
        for (a, b) in [(0u64, 1u64), (5, 37), (32, 32), ((1 << 48) - 1, 0)] {
            let (pad_a, pad_b) = e.line_pad_pair(addr, a, b);
            assert_eq!(pad_a, e.line_pad(addr, a), "ctr {a}");
            assert_eq!(pad_b, e.line_pad(addr, b), "ctr {b}");
        }
    }

    #[test]
    fn backend_override_never_changes_pads() {
        let default_engine = engine();
        for backend in deuce_aes::available_backends() {
            let pinned = engine().with_aes_backend(*backend);
            assert_eq!(pinned.aes_backend(), *backend);
            for ctr in [0u64, 1, 31, 32, 1000] {
                assert_eq!(
                    pinned.line_pad(LineAddr::new(0x77), ctr),
                    default_engine.line_pad(LineAddr::new(0x77), ctr),
                    "{backend} ctr {ctr}"
                );
                assert_eq!(
                    pinned.block_pad(LineAddr::new(0x77), 2, ctr),
                    default_engine.block_pad(LineAddr::new(0x77), 2, ctr),
                    "{backend} ctr {ctr}"
                );
            }
        }
    }
}
