//! Layered storage for many lines under one scheme.
//!
//! [`LineStore`] replaces per-line fat-enum allocations with dense SoA
//! slot storage — 64-byte stored images and compact per-line states —
//! plus an address→slot index. No plaintext is stored. Lines are
//! materialised lazily on first touch, so constructing a store is O(1)
//! regardless of the address space it will cover.
//!
//! Slot storage lives behind the [`PageBackend`] trait: the default
//! [`ArenaBackend`] keeps every page resident in RAM (the historical
//! layout), while [`FilePageBackend`] caches a configurable number of
//! resident pages over a page file, enabling billion-line address
//! spaces within a fixed resident budget. Both backends observe the
//! same call sequence, so runs are bit-identical across them.

mod arena;
mod backend;
mod paged;

pub use arena::ArenaBackend;
pub use backend::{PageBackend, StateCodec, StorePageStats, SLOTS_PER_PAGE};
pub use paged::{FilePageBackend, PageHeader};

use std::collections::HashMap;

use deuce_crypto::{LineAddr, LineBytes, OtpEngine, LINE_BYTES};
use deuce_nvm::LineImage;

use crate::scheme::LineScheme;
use crate::WriteOutcome;

/// Dense, lazily-populated storage for every touched line of a memory
/// under a single scheme `S`, over a pluggable slot backend `B`
/// (in-RAM [`ArenaBackend`] by default).
///
/// # Examples
///
/// ```
/// use deuce_crypto::{LineAddr, OtpEngine, SecretKey};
/// use deuce_schemes::{EncryptedDcwScheme, LineStore};
///
/// let engine = OtpEngine::new(&SecretKey::from_seed(1));
/// let mut store = LineStore::new(EncryptedDcwScheme::new(28));
/// assert_eq!(store.len(), 0); // nothing materialised yet
///
/// let addr = LineAddr::new(42);
/// let outcome = store.write(&engine, addr, &[7u8; 64]);
/// assert!(outcome.flips.total() > 0);
/// assert_eq!(store.read(&engine, addr), Some([7u8; 64]));
/// assert_eq!(store.len(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct LineStore<S: LineScheme, B: PageBackend<S> = ArenaBackend<S>> {
    scheme: S,
    /// Address value → dense slot id in the backend.
    index: HashMap<u64, u32>,
    backend: B,
}

impl<S: LineScheme> LineStore<S> {
    /// Creates an empty arena-backed store; no line storage is
    /// allocated until a line is first touched.
    #[must_use]
    pub fn new(scheme: S) -> Self {
        Self::with_backend(scheme, ArenaBackend::new())
    }
}

impl<S: LineScheme, B: PageBackend<S>> LineStore<S, B> {
    /// Creates an empty store over an explicit backend (e.g. a
    /// [`FilePageBackend`] for out-of-core operation).
    #[must_use]
    pub fn with_backend(scheme: S, backend: B) -> Self {
        Self {
            scheme,
            index: HashMap::new(),
            backend,
        }
    }

    /// The scheme every line in this store runs under.
    #[must_use]
    pub fn scheme(&self) -> &S {
        &self.scheme
    }

    /// Number of materialised (touched) lines.
    #[must_use]
    pub fn len(&self) -> usize {
        self.backend.len()
    }

    /// Whether no line has been touched yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.backend.is_empty()
    }

    /// Whether `addr` has been materialised.
    #[must_use]
    pub fn contains(&self, addr: LineAddr) -> bool {
        self.index.contains_key(&addr.value())
    }

    /// Materialises `addr` holding `initial` (encrypted/encoded by the
    /// scheme) and returns its slot. A no-op returning the existing slot
    /// if the line is already present.
    pub fn materialize(&mut self, engine: &OtpEngine, addr: LineAddr, initial: &LineBytes) -> u32 {
        if let Some(&slot) = self.index.get(&addr.value()) {
            return slot;
        }
        let (stored, state) = self.scheme.init(engine, addr, initial);
        let slot = self.backend.push(&stored, state);
        self.index.insert(addr.value(), slot);
        slot
    }

    fn write_slot(
        &mut self,
        engine: &OtpEngine,
        addr: LineAddr,
        slot: u32,
        data: &LineBytes,
    ) -> WriteOutcome {
        let Self { scheme, backend, .. } = self;
        backend.with_slot_mut(slot, |line| scheme.write(engine, addr, line, data))
    }

    /// Simulator semantics: the first write to a line initialises it with
    /// the written data and is *not* counted (returns `None`); later
    /// writes run the scheme state machine.
    pub fn write_first_touch(
        &mut self,
        engine: &OtpEngine,
        addr: LineAddr,
        data: &LineBytes,
    ) -> Option<WriteOutcome> {
        if let Some(&slot) = self.index.get(&addr.value()) {
            Some(self.write_slot(engine, addr, slot, data))
        } else {
            let _ = self.materialize(engine, addr, data);
            None
        }
    }

    /// Memory semantics: an untouched line materialises zeroed, then
    /// every write — including the first — runs the scheme state machine
    /// and is counted.
    pub fn write(&mut self, engine: &OtpEngine, addr: LineAddr, data: &LineBytes) -> WriteOutcome {
        let slot = self.materialize(engine, addr, &[0u8; LINE_BYTES]);
        self.write_slot(engine, addr, slot, data)
    }

    /// Reads a line's logical value, or `None` if it was never touched.
    #[must_use]
    pub fn read(&self, engine: &OtpEngine, addr: LineAddr) -> Option<LineBytes> {
        let &slot = self.index.get(&addr.value())?;
        Some(
            self.backend
                .with_slot(slot, |line| self.scheme.read(engine, addr, line)),
        )
    }

    /// A line's stored image, or `None` if it was never touched.
    #[must_use]
    pub fn image(&self, addr: LineAddr) -> Option<LineImage> {
        let &slot = self.index.get(&addr.value())?;
        Some(self.backend.with_slot(slot, |line| self.scheme.image(line)))
    }

    /// Bytes of line storage one materialised line occupies in RAM: the
    /// stored image and the compact state. Index overhead is excluded,
    /// so the figure is deterministic.
    #[must_use]
    pub fn per_line_bytes(&self) -> u64 {
        self.backend.per_line_bytes()
    }

    /// Bytes of line storage currently resident in RAM. For the arena
    /// backend this is every materialised line; for a paged backend,
    /// only materialised slots of resident pages — so the two agree
    /// exactly until the first eviction, and the paged figure stays
    /// bounded by the resident budget thereafter.
    #[must_use]
    pub fn resident_bytes(&self) -> u64 {
        self.backend.resident_bytes()
    }

    /// Paging statistics, or `None` for fully-resident backends.
    #[must_use]
    pub fn paging_stats(&self) -> Option<StorePageStats> {
        self.backend.paging_stats()
    }

    /// Writes all dirty resident pages back to stable storage (no-op
    /// for fully-resident backends).
    pub fn flush(&mut self) {
        self.backend.flush();
    }

    /// Deterministic flush progress: `(pages flushed, running
    /// fingerprint chaining each flushed page's index and checksum)`;
    /// `(0, 0)` for backends that never flush.
    #[must_use]
    pub fn flush_state(&self) -> (u64, u64) {
        self.backend.flush_state()
    }

    /// The first I/O error the backend swallowed, if any.
    #[must_use]
    pub fn io_error(&self) -> Option<String> {
        self.backend.io_error()
    }

    /// An order-independent fingerprint of the store's entire contents:
    /// a per-line FNV-1a hash over the address, the stored (encrypted)
    /// image bytes, and the metadata bits, combined with a commutative
    /// wrapping sum, so the value never depends on visitation order.
    /// Two stores hold bit-identical memory images iff their
    /// fingerprints match, regardless of backend (arena or paged) or
    /// materialisation order. Hashing the stored image (not the
    /// plaintext) keeps this pad-generation-free and O(lines).
    ///
    /// Lines are visited in ascending address order. The sum would make
    /// any order produce the same value, but on a paged backend each
    /// visit can fault a page in: the address index is a `HashMap`
    /// whose iteration order varies per process, and walking it raw
    /// makes `store_page_faults` / eviction counters — and which pages
    /// end up resident — nondeterministic in every run that
    /// fingerprints (checkpointed runs, the serve layer's replay
    /// contract). Sorted order pins the paging side effects and is
    /// page-sequential, the cheapest faulting pattern.
    #[must_use]
    pub fn content_fingerprint(&self) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0100_0000_01b3;
        let mut entries: Vec<(u64, u32)> =
            self.index.iter().map(|(&addr, &slot)| (addr, slot)).collect();
        entries.sort_unstable_by_key(|&(addr, _)| addr);
        let mut combined: u64 = 0;
        for (addr, slot) in entries {
            let image = self.backend.with_slot(slot, |line| self.scheme.image(line));
            let mut h = OFFSET;
            for byte in addr.to_le_bytes() {
                h = (h ^ u64::from(byte)).wrapping_mul(PRIME);
            }
            for &byte in image.data() {
                h = (h ^ u64::from(byte)).wrapping_mul(PRIME);
            }
            for byte in image.meta().raw().to_le_bytes() {
                h = (h ^ u64::from(byte)).wrapping_mul(PRIME);
            }
            combined = combined.wrapping_add(h);
        }
        combined
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{SchemeConfig, SchemeKind};
    use crate::deuce::DeuceScheme;
    use crate::line::AnyScheme;
    use crate::SchemeLine;
    use deuce_crypto::{EpochInterval, SecretKey};
    use std::path::PathBuf;

    fn engine() -> OtpEngine {
        OtpEngine::new(&SecretKey::from_seed(0xFEED))
    }

    /// A unique-enough scratch page-file path for one test.
    fn page_file(tag: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("deuce-store-test-{}-{tag}.pages", std::process::id()));
        p
    }

    fn paged_store(
        config: &SchemeConfig,
        tag: &str,
        resident_pages: usize,
    ) -> (LineStore<AnyScheme, FilePageBackend<AnyScheme>>, PathBuf) {
        let scheme = AnyScheme::from_config(config);
        let path = page_file(tag);
        let (_, blank) = scheme.init(&engine(), LineAddr::new(0), &[0u8; LINE_BYTES]);
        let backend =
            FilePageBackend::create(&path, resident_pages, blank).expect("create page file");
        (LineStore::with_backend(scheme, backend), path)
    }

    /// The arena path must be bit-identical to a standalone `SchemeCell`
    /// driving the same writes, for every runtime-selected scheme.
    #[test]
    fn arena_matches_scheme_cell_for_all_kinds() {
        let e = engine();
        for kind in SchemeKind::ALL {
            let config = SchemeConfig::new(kind);
            let addr = LineAddr::new(19);
            let initial = [3u8; LINE_BYTES];
            let mut cell = SchemeLine::new(&config, &e, addr, &initial);
            let mut store = LineStore::new(AnyScheme::from_config(&config));
            let _ = store.materialize(&e, addr, &initial);
            for i in 0..40u8 {
                let mut data = [i; LINE_BYTES];
                data[5] = i.wrapping_mul(7);
                let from_cell = cell.write(&e, &data);
                let from_store = store.write(&e, addr, &data);
                assert_eq!(from_cell.flips, from_store.flips, "{kind} write {i}");
                assert_eq!(from_cell.counter_flips, from_store.counter_flips, "{kind} write {i}");
                assert_eq!(cell.image().data(), store.image(addr).unwrap().data(), "{kind}");
                assert_eq!(store.read(&e, addr), Some(cell.read(&e)), "{kind} write {i}");
            }
        }
    }

    #[test]
    fn first_touch_is_uncounted_then_counted() {
        let e = engine();
        let scheme = DeuceScheme::new(
            crate::WordSize::Bytes2,
            EpochInterval::DEFAULT,
            28,
        );
        let mut store = LineStore::new(scheme);
        let addr = LineAddr::new(4);
        assert!(store.write_first_touch(&e, addr, &[9u8; 64]).is_none());
        assert!(store.write_first_touch(&e, addr, &[10u8; 64]).is_some());
        assert_eq!(store.read(&e, addr), Some([10u8; 64]));
    }

    #[test]
    fn untouched_lines_cost_nothing() {
        let e = engine();
        let mut store = LineStore::new(DeuceScheme::new(
            crate::WordSize::Bytes2,
            EpochInterval::DEFAULT,
            28,
        ));
        assert_eq!(store.resident_bytes(), 0);
        assert!(store.read(&e, LineAddr::new(1)).is_none());
        assert!(store.image(LineAddr::new(1)).is_none());
        let _ = store.write(&e, LineAddr::new(1), &[1u8; 64]);
        // 64 stored + 16 state (counter + modified bits).
        assert_eq!(store.per_line_bytes(), 80);
        assert_eq!(store.resident_bytes(), store.per_line_bytes());
        assert!(store.contains(LineAddr::new(1)));
        assert!(!store.contains(LineAddr::new(2)));
    }

    /// Under constant eviction pressure (one resident page), the paged
    /// backend must produce bit-identical writes, reads, and images to
    /// the arena — for every runtime-selected scheme.
    #[test]
    fn paged_matches_arena_under_eviction_for_all_kinds() {
        let e = engine();
        // 3 pages' worth of lines, strided so revisits interleave pages.
        let lines = 3 * SLOTS_PER_PAGE as u64;
        for kind in SchemeKind::ALL {
            let config = SchemeConfig::new(kind);
            let mut arena = LineStore::new(AnyScheme::from_config(&config));
            let (mut paged, path) = paged_store(&config, &format!("parity-{kind}"), 1);
            for round in 0..3u8 {
                for line in 0..lines {
                    let addr = LineAddr::new(line * 17 + 3);
                    let mut data = [round.wrapping_mul(31).wrapping_add(line as u8); LINE_BYTES];
                    data[(line % 64) as usize] ^= 0x5A;
                    let a = arena.write_first_touch(&e, addr, &data);
                    let p = paged.write_first_touch(&e, addr, &data);
                    assert_eq!(a.is_some(), p.is_some(), "{kind} r{round} l{line}");
                    if let (Some(a), Some(p)) = (a, p) {
                        assert_eq!(a.flips, p.flips, "{kind} r{round} l{line}");
                        assert_eq!(a.counter_flips, p.counter_flips, "{kind} r{round} l{line}");
                    }
                }
            }
            for line in 0..lines {
                let addr = LineAddr::new(line * 17 + 3);
                assert_eq!(arena.read(&e, addr), paged.read(&e, addr), "{kind} read l{line}");
                assert_eq!(
                    arena.image(addr).map(|i| *i.data()),
                    paged.image(addr).map(|i| *i.data()),
                    "{kind} image l{line}"
                );
            }
            let stats = paged.paging_stats().expect("paged backend reports stats");
            assert!(stats.page_evictions > 0, "{kind}: expected eviction pressure");
            assert!(paged.io_error().is_none(), "{kind}: {:?}", paged.io_error());
            let _ = std::fs::remove_file(path);
        }
    }

    /// Residency accounting: identical to the arena before any
    /// eviction, bounded by the resident budget afterwards, with flush
    /// progressing the deterministic fingerprint.
    #[test]
    fn paged_residency_is_exact_and_bounded() {
        let e = engine();
        let config = SchemeConfig::new(SchemeKind::Deuce);
        let mut arena = LineStore::new(AnyScheme::from_config(&config));
        let budget_pages = 2;
        let (mut paged, path) = paged_store(&config, "residency", budget_pages);
        // Fill exactly the budget: no eviction, byte-identical residency.
        for line in 0..(budget_pages * SLOTS_PER_PAGE) as u64 {
            let _ = arena.write(&e, LineAddr::new(line), &[7u8; LINE_BYTES]);
            let _ = paged.write(&e, LineAddr::new(line), &[7u8; LINE_BYTES]);
        }
        assert_eq!(arena.resident_bytes(), paged.resident_bytes());
        assert_eq!(paged.paging_stats().unwrap().page_evictions, 0);
        // Overflow the budget: arena grows, paged stays within it.
        let cap = budget_pages as u64 * SLOTS_PER_PAGE as u64 * paged.per_line_bytes();
        for line in 0..(8 * SLOTS_PER_PAGE) as u64 {
            let _ = paged.write(&e, LineAddr::new(1_000_000 + line), &[9u8; LINE_BYTES]);
            assert!(paged.resident_bytes() <= cap);
        }
        let stats = paged.paging_stats().unwrap();
        assert!(stats.page_evictions > 0);
        assert!(stats.peak_resident_bytes <= cap);
        assert_eq!(stats.resident_bytes, paged.resident_bytes());
        // Flushing writes the dirty resident pages and moves the
        // fingerprint off its initial value.
        let before = paged.flush_state();
        paged.flush();
        let after = paged.flush_state();
        assert!(after.0 > before.0, "flush wrote dirty pages");
        assert_ne!(after.1, before.1, "fingerprint advanced");
        assert!(paged.io_error().is_none());
        let _ = std::fs::remove_file(path);
    }

    /// The content fingerprint matches across backends under eviction
    /// pressure, is insensitive to materialisation order, and moves
    /// when any stored line changes.
    #[test]
    fn content_fingerprint_matches_across_backends_and_orders() {
        let e = engine();
        let config = SchemeConfig::new(SchemeKind::Deuce);
        let mut arena = LineStore::new(AnyScheme::from_config(&config));
        let mut reversed = LineStore::new(AnyScheme::from_config(&config));
        let (mut paged, path) = paged_store(&config, "content-fp", 1);
        let lines = 3 * SLOTS_PER_PAGE as u64;
        let addrs: Vec<u64> = (0..lines).map(|l| l * 13 + 5).collect();
        for &a in &addrs {
            let _ = arena.write(&e, LineAddr::new(a), &[a as u8; LINE_BYTES]);
            let _ = paged.write(&e, LineAddr::new(a), &[a as u8; LINE_BYTES]);
        }
        for &a in addrs.iter().rev() {
            let _ = reversed.write(&e, LineAddr::new(a), &[a as u8; LINE_BYTES]);
        }
        assert_eq!(arena.content_fingerprint(), paged.content_fingerprint());
        assert_eq!(arena.content_fingerprint(), reversed.content_fingerprint());
        let before = arena.content_fingerprint();
        let _ = arena.write(&e, LineAddr::new(addrs[0]), &[0xA5; LINE_BYTES]);
        assert_ne!(before, arena.content_fingerprint(), "a changed line moves the fingerprint");
        let _ = std::fs::remove_file(path);
    }

    /// Identical call sequences on identical budgets reach identical
    /// flush fingerprints — the property run checkpoints rely on.
    #[test]
    fn flush_fingerprint_is_deterministic() {
        let e = engine();
        let config = SchemeConfig::new(SchemeKind::BleDeuce);
        let mut fps = Vec::new();
        for attempt in 0..2 {
            let (mut store, path) = paged_store(&config, &format!("fp-{attempt}"), 1);
            for line in 0..(3 * SLOTS_PER_PAGE) as u64 {
                let _ = store.write(&e, LineAddr::new(line * 5), &[line as u8; LINE_BYTES]);
            }
            store.flush();
            fps.push(store.flush_state());
            let _ = std::fs::remove_file(path);
        }
        assert_eq!(fps[0], fps[1]);
        assert!(fps[0].0 > 0);
    }
}
