//! The out-of-core backend: a page file plus an LRU cache of resident
//! pages.
//!
//! # Page layout
//!
//! The file opens with a 32-byte [`PageHeader`] describing the slot
//! layout, followed by fixed-size page records at
//! `HEADER + index * record_bytes`:
//!
//! ```text
//! [present: u64 LE][stored: 64 x 64B][state: 64 x ENCODED_BYTES][checksum: u64 LE]
//! ```
//!
//! The file holds what the PCM cells and the controller's metadata
//! would: ciphertext and per-line state, never plaintext. Slots of a
//! page that were never materialised encode as zero bytes. The trailing
//! checksum covers everything before it and is seeded from the page
//! index (see [`page_checksum`]); a page is verified, and every present
//! slot's state decoded once, before the page is used.
//!
//! # Pin/unpin discipline
//!
//! Slot access goes through [`PageBackend::with_slot`] /
//! [`PageBackend::with_slot_mut`]: the slot's page is pinned (faulted
//! in if absent, moved to the front of the LRU list) for exactly the
//! closure's duration, so at most one page is pinned at a time and
//! eviction can never invalidate a borrow. Faulting a page beyond the
//! resident budget first evicts the least-recently-used page, writing
//! it back iff dirty, and reads the incoming page into its buffer.
//! Resident pages stay in record form: stored images are lent in place,
//! and a slot's state is decoded for the pin and, after a mutable pin,
//! encoded back.
//!
//! # Determinism
//!
//! Given the same call sequence and resident budget, faults, evictions
//! and write-backs happen at identical points: the LRU order is exact,
//! and the end-of-run [`flush`](PageBackend::flush) walks pages in
//! index order. The running fingerprint that chains each flushed page's
//! index and checksum (in flush order) is therefore reproducible under
//! replay, which is what lets run checkpoints incorporate flush
//! progress.
//!
//! # I/O failures
//!
//! The scheme hot loop is infallible, so the backend latches the first
//! I/O error, failed checksum or undecodable state and keeps
//! simulating, on blank pages where a load failed; drivers surface the
//! latched error at end of run. A page is only ever *read* from disk if
//! this backend instance flushed it earlier, so stale content from a
//! previous process can never leak into results — resuming against an
//! existing page file is a pure replay that rebuilds the file.

use std::cell::RefCell;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::os::unix::fs::FileExt;
use std::path::Path;

use deuce_crypto::{LineBytes, LINE_BYTES};

use crate::scheme::{LineMut, LineRef, LineScheme};
use crate::store::backend::{
    get_u64, put_u64, PageBackend, StateCodec, StorePageStats, SLOTS_PER_PAGE,
};

/// Odd multipliers of the four checksum lanes: each lane step is then a
/// bijection of the lane.
const LANE_MULS: [u64; 4] = [
    0x9e37_79b9_7f4a_7c15,
    0xc2b2_ae3d_27d4_eb4f,
    0x1656_67b1_9e37_79f9,
    0xd6e8_feb8_6659_fd93,
];

/// Initial lane values. Lane 0 is odd and also takes the page index
/// (above its low bit); lanes 1–3 are even.
const LANE_SEEDS: [u64; 4] = [
    0x243f_6a88_85a3_08d3,
    0x1319_8a2e_0370_7344,
    0xa409_3822_299f_31d0,
    0x082e_fa98_ec4e_6c88,
];

/// `flush_fp` before the first flush (nonzero, so a paged checkpoint
/// never matches an arena's `(0, 0)`).
const FLUSH_FP_SEED: u64 = 0xcbf2_9ce4_8422_2325;

/// A bijective 64-bit finaliser (MurmurHash3's `fmix64`); maps 0 to 0.
fn fmix64(mut h: u64) -> u64 {
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^ (h >> 33)
}

/// The checksum of page `page`'s record body (everything before the
/// trailing checksum word).
///
/// Four independent lanes take the body's little-endian words in turn,
/// each stepping `lane = (lane ^ word) * K` with an odd `K`; the tail
/// shorter than a word is zero-padded. The lanes are XORed and passed
/// through [`fmix64`]. What this detects for certain, not just with high
/// probability:
///
/// - any change confined to one body word, so every single-byte flip:
///   every step is a bijection of its lane, so the lane ends different
///   while the other three are unchanged;
/// - a record stored at another page's offset: only lane 0 is seeded
///   from the page index, by the same argument;
/// - an all-zero record (a hole in the file), for every page index: odd
///   multipliers keep each lane's parity, so the XOR of the lanes is odd,
///   and `fmix64` maps only 0 to the zero word stored there.
///
/// It is a checksum, not a MAC: anyone who can write the file can
/// recompute it.
fn page_checksum(page: u32, body: &[u8]) -> u64 {
    let mut lanes = LANE_SEEDS;
    lanes[0] ^= u64::from(page) << 1;
    let mut chunks = body.chunks_exact(32);
    for chunk in &mut chunks {
        for (i, lane) in lanes.iter_mut().enumerate() {
            *lane = (*lane ^ get_u64(chunk, 8 * i)).wrapping_mul(LANE_MULS[i]);
        }
    }
    for (i, word) in chunks.remainder().chunks(8).enumerate() {
        let mut padded = [0u8; 8];
        padded[..word.len()].copy_from_slice(word);
        lanes[i] = (lanes[i] ^ u64::from_le_bytes(padded)).wrapping_mul(LANE_MULS[i]);
    }
    fmix64(lanes[0] ^ lanes[1] ^ lanes[2] ^ lanes[3])
}

/// Whether `record` (a full page record, trailing checksum included)
/// verifies as page `page`.
fn verifies(page: u32, record: &[u8]) -> bool {
    let (body, checksum) = record.split_at(record.len() - 8);
    get_u64(checksum, 0) == page_checksum(page, body)
}

/// The page file's leading descriptor. Fixed 32-byte encoding, pinned
/// by `tests/state_sizes.rs`; a layout change must bump `VERSION`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageHeader {
    /// File magic, [`PageHeader::MAGIC`].
    pub magic: u32,
    /// Layout version, [`PageHeader::VERSION`].
    pub version: u16,
    /// Slots per page ([`SLOTS_PER_PAGE`]).
    pub slots_per_page: u16,
    /// Stored-image bytes per slot ([`LINE_BYTES`]).
    pub line_bytes: u32,
    /// Encoded state bytes per slot.
    pub state_bytes: u32,
}

impl PageHeader {
    /// `"DEUC"` little-endian.
    pub const MAGIC: u32 = u32::from_le_bytes(*b"DEUC");
    /// Current on-disk layout version. Version 2 added the trailing
    /// page checksum; version 3 dropped the plaintext shadow segment
    /// (bytes 16..20 of the header, its flag, are now reserved).
    pub const VERSION: u16 = 3;
    /// Encoded header size in bytes (trailing bytes reserved as zero).
    pub const BYTES: usize = 32;

    /// Encodes the header into its fixed 32-byte form.
    #[must_use]
    pub fn encode(&self) -> [u8; Self::BYTES] {
        let mut out = [0u8; Self::BYTES];
        out[0..4].copy_from_slice(&self.magic.to_le_bytes());
        out[4..6].copy_from_slice(&self.version.to_le_bytes());
        out[6..8].copy_from_slice(&self.slots_per_page.to_le_bytes());
        out[8..12].copy_from_slice(&self.line_bytes.to_le_bytes());
        out[12..16].copy_from_slice(&self.state_bytes.to_le_bytes());
        out
    }

    /// Decodes a header from its fixed 32-byte form.
    #[must_use]
    pub fn decode(bytes: &[u8; Self::BYTES]) -> Self {
        let word = |r: core::ops::Range<usize>| {
            let mut w = [0u8; 4];
            w.copy_from_slice(&bytes[r]);
            u32::from_le_bytes(w)
        };
        let half = |r: core::ops::Range<usize>| {
            let mut h = [0u8; 2];
            h.copy_from_slice(&bytes[r]);
            u16::from_le_bytes(h)
        };
        Self {
            magic: word(0..4),
            version: half(4..6),
            slots_per_page: half(6..8),
            line_bytes: word(8..12),
            state_bytes: word(12..16),
        }
    }

    /// Bytes of one page record under this layout: the presence word,
    /// the slot segments and the trailing checksum.
    #[must_use]
    pub fn record_bytes(&self) -> usize {
        8 + usize::from(self.slots_per_page) * (self.line_bytes + self.state_bytes) as usize + 8
    }
}

/// Slot-layout constants shared by the cache and the disk format.
#[derive(Debug, Clone, Copy)]
struct PageLayout {
    /// Encoded state bytes per slot.
    state_bytes: usize,
    /// On-disk bytes of one page record ([`PageHeader::record_bytes`]).
    record_bytes: usize,
}

/// Bytes of a record's stored segment.
const STORED_BYTES: usize = SLOTS_PER_PAGE * LINE_BYTES;

impl PageLayout {
    /// Byte offset of page `index` in the file.
    fn page_offset(&self, index: u32) -> u64 {
        PageHeader::BYTES as u64 + u64::from(index) * self.record_bytes as u64
    }

    /// A record's stored segment and state segment, borrowed
    /// disjointly.
    fn segments<'a>(&self, record: &'a mut [u8]) -> (&'a mut [LineBytes], &'a mut [u8]) {
        let (stored, rest) = record[8..].split_at_mut(STORED_BYTES);
        (stored.as_chunks_mut().0, &mut rest[..SLOTS_PER_PAGE * self.state_bytes])
    }

    /// Slot `off`'s stored image and encoded state in a record.
    fn slot<'a>(&self, record: &'a [u8], off: usize) -> (&'a LineBytes, &'a [u8]) {
        let stored = &record[8..8 + STORED_BYTES].as_chunks().0[off];
        let sb = self.state_bytes;
        (stored, &record[8 + STORED_BYTES + off * sb..][..sb])
    }

    /// The first present slot of `record` whose encoded state does not
    /// decode as a `T` of `blank`'s kind.
    fn undecodable<T: StateCodec>(&self, record: &[u8], blank: &T) -> Option<usize> {
        let present = get_u64(record, 0);
        (0..SLOTS_PER_PAGE).find(|&off| {
            present & (1u64 << off) != 0
                && !T::decode(self.slot(record, off).1).is_some_and(|state| state.same_kind(blank))
        })
    }
}

/// No frame: the end of the LRU list, or a page that is not resident.
const NIL: u32 = u32::MAX;

/// One slab entry of the resident cache: one page, held as its page
/// record, plus the frame's links in the LRU list. Stored images are
/// lent in place; a slot's state is decoded when the slot is pinned and
/// encoded back after a mutable pin. The record buffer is
/// allocated once and reused by every page the frame holds, so a fault
/// reads straight into it and a write-back writes straight from it.
#[derive(Debug)]
struct Frame {
    /// The page this frame holds.
    page: u32,
    /// Bit `i` set iff slot `i` of the page has been materialised.
    /// Written into the record's presence word at write-back.
    present: u64,
    dirty: bool,
    /// The next frame toward the most recently pinned end, or [`NIL`].
    newer: u32,
    /// The next frame toward the least recently pinned end, or [`NIL`].
    older: u32,
    /// The page record (see the module docs).
    record: Vec<u8>,
}

impl Frame {
    /// Empties the frame for a page that has no verified record: no slot
    /// present, all bytes zero.
    fn reset(&mut self) {
        self.present = 0;
        self.record.fill(0);
    }

    /// Completes the record for page `page`: the presence word, zero
    /// bytes in every slot that is not present, and the trailing
    /// checksum, which it returns.
    fn seal(&mut self, page: u32, layout: &PageLayout) -> u64 {
        put_u64(&mut self.record, 0, self.present);
        let (stored, states) = layout.segments(&mut self.record);
        let mut absent = !self.present;
        while absent != 0 {
            let slot = absent.trailing_zeros() as usize;
            absent &= absent - 1;
            stored[slot].fill(0);
            states[slot * layout.state_bytes..][..layout.state_bytes].fill(0);
        }
        let body = self.record.len() - 8;
        let checksum = page_checksum(page, &self.record[..body]);
        put_u64(&mut self.record, body, checksum);
        checksum
    }
}

/// One entry of the dense page table.
#[derive(Debug, Clone, Copy)]
struct PageEntry {
    /// The frame holding the page, or [`NIL`] if it is not resident.
    frame: u32,
    /// Whether THIS instance wrote the page to disk — the only pages
    /// ever read back (stale content from older processes is never
    /// trusted).
    flushed: bool,
}

#[derive(Debug)]
struct PagedInner<S: LineScheme> {
    file: File,
    layout: PageLayout,
    /// The state of every slot that is not present in its page — in a
    /// fresh page, or in one whose record failed to load: the scheme's
    /// own state for a zero line, so a run past a failed load keeps
    /// simulating.
    blank: S::State,
    /// The resident cache: at most `capacity` frames, allocated on
    /// demand and never freed.
    frames: Vec<Frame>,
    /// Most and least recently pinned frames, or [`NIL`] while empty.
    head: u32,
    tail: u32,
    /// Indexed by page. Slot ids, and so page ids, are dense.
    pages: Vec<PageEntry>,
    /// Resident-page capacity (>= 1).
    capacity: usize,
    /// Total slots pushed (dense; the next slot id).
    len: usize,
    /// Materialised slots currently resident.
    resident_slots: u64,
    peak_resident_slots: u64,
    flushed_pages: u64,
    /// Running fingerprint over `(page, checksum)` of every flushed
    /// page, in flush order.
    flush_fp: u64,
    page_faults: u64,
    page_evictions: u64,
    error: Option<String>,
}

/// Page index and intra-page offset of a dense slot id.
fn locate(slot: u32) -> (u32, usize) {
    (
        slot / SLOTS_PER_PAGE as u32,
        (slot as usize) % SLOTS_PER_PAGE,
    )
}

impl<S: LineScheme> PagedInner<S>
where
    S::State: StateCodec,
{
    fn note_error(&mut self, message: String) {
        self.error.get_or_insert(message);
    }

    /// Slot `off`'s state in frame `f`: decoded if the slot is present,
    /// the blank state otherwise. (Present slots always decode: a load
    /// checks them, and pushes and mutable pins encode valid states.)
    fn state(&self, f: usize, off: usize) -> S::State {
        let frame = &self.frames[f];
        if frame.present & (1u64 << off) == 0 {
            self.blank
        } else {
            S::State::decode(self.layout.slot(&frame.record, off).1).unwrap_or(self.blank)
        }
    }

    /// Detaches frame `f` from the LRU list.
    fn unlink(&mut self, f: u32) {
        let (newer, older) = (self.frames[f as usize].newer, self.frames[f as usize].older);
        match newer {
            NIL => self.head = older,
            n => self.frames[n as usize].older = older,
        }
        match older {
            NIL => self.tail = newer,
            o => self.frames[o as usize].newer = newer,
        }
    }

    /// Links frame `f` in as the most recently pinned.
    fn link_front(&mut self, f: u32) {
        let head = self.head;
        let frame = &mut self.frames[f as usize];
        frame.newer = NIL;
        frame.older = head;
        match head {
            NIL => self.tail = f,
            h => self.frames[h as usize].newer = f,
        }
        self.head = f;
    }

    /// Ensures `page` is resident, makes it the most recently pinned,
    /// and returns its frame.
    fn pin(&mut self, page: u32) -> usize {
        let p = page as usize;
        if p >= self.pages.len() {
            self.pages.resize(p + 1, PageEntry { frame: NIL, flushed: false });
        }
        let f = self.pages[p].frame;
        if f != NIL {
            if f != self.head {
                self.unlink(f);
                self.link_front(f);
            }
            return f as usize;
        }
        self.page_faults += 1;
        let f = if self.frames.len() < self.capacity {
            self.frames.push(Frame {
                page,
                present: 0,
                dirty: false,
                newer: NIL,
                older: NIL,
                record: vec![0u8; self.layout.record_bytes],
            });
            (self.frames.len() - 1) as u32
        } else {
            let f = self.tail;
            self.evict(f);
            f
        };
        self.pages[p].frame = f;
        let frame = &mut self.frames[f as usize];
        frame.page = page;
        frame.dirty = false;
        if self.pages[p].flushed {
            self.load(f as usize);
        } else {
            frame.reset();
        }
        self.link_front(f);
        self.resident_slots += u64::from(self.frames[f as usize].present.count_ones());
        self.peak_resident_slots = self.peak_resident_slots.max(self.resident_slots);
        f as usize
    }

    /// Evicts frame `f`'s page, writing it back iff dirty, and leaves the
    /// frame unlinked for reuse.
    fn evict(&mut self, f: u32) {
        self.unlink(f);
        let frame = &self.frames[f as usize];
        let (page, dirty) = (frame.page, frame.dirty);
        self.resident_slots -= u64::from(frame.present.count_ones());
        self.page_evictions += 1;
        if dirty {
            self.write_back(f as usize);
        }
        self.pages[page as usize].frame = NIL;
    }

    fn write_back(&mut self, f: usize) {
        let frame = &mut self.frames[f];
        let page = frame.page;
        let checksum = frame.seal(page, &self.layout);
        if let Err(err) = self.file.write_all_at(&frame.record, self.layout.page_offset(page)) {
            self.note_error(format!("page {page}: write-back failed: {err}"));
            return;
        }
        self.flush_fp = fmix64(fmix64(self.flush_fp ^ u64::from(page)) ^ checksum);
        self.pages[page as usize].flushed = true;
        self.flushed_pages += 1;
    }

    /// Reads frame `f`'s page into it and verifies it. A page that
    /// cannot be read, fails its checksum or holds a present slot whose
    /// state does not decode, or decodes to another scheme's state,
    /// latches an error and comes back empty.
    fn load(&mut self, f: usize) {
        let layout = self.layout;
        let frame = &mut self.frames[f];
        let page = frame.page;
        let failure = match self.file.read_exact_at(&mut frame.record, layout.page_offset(page)) {
            Err(err) => Some(format!("page {page}: load failed: {err}")),
            Ok(()) if !verifies(page, &frame.record) => {
                Some(format!("page {page}: checksum mismatch, the page file is corrupt"))
            }
            Ok(()) => layout.undecodable(&frame.record, &self.blank).map(|off| {
                format!("page {page}: slot {off} holds no valid state, the page file is corrupt")
            }),
        };
        match failure {
            None => frame.present = get_u64(&frame.record, 0),
            Some(message) => {
                frame.reset();
                self.note_error(message);
            }
        }
    }

    /// Writes every dirty resident page back, in page-index order.
    fn flush_dirty(&mut self) {
        let mut dirty: Vec<(u32, usize)> = self
            .frames
            .iter()
            .enumerate()
            .filter(|(_, frame)| frame.dirty)
            .map(|(f, frame)| (frame.page, f))
            .collect();
        dirty.sort_unstable();
        for (_, f) in dirty {
            self.write_back(f);
            self.frames[f].dirty = false;
        }
    }
}

/// An out-of-core [`PageBackend`]: a configurable-capacity LRU cache of
/// resident pages over a page file, with write-back eviction of dirty
/// pages. Observably bit-identical to [`crate::ArenaBackend`] for the
/// same call sequence — only residency accounting and paging statistics
/// differ.
#[derive(Debug)]
pub struct FilePageBackend<S: LineScheme> {
    /// Interior mutability so the shared-access path (`read`/`image`,
    /// which take `&self`) can still fault pages in.
    inner: RefCell<PagedInner<S>>,
}

impl<S: LineScheme> FilePageBackend<S>
where
    S::State: StateCodec,
{
    /// Creates (truncating) the page file at `path` with room for
    /// `resident_pages` resident pages (clamped to at least 1). `blank`
    /// is the state of every slot a page does not hold — in a fresh
    /// page, or in one whose record fails to load. Pass the scheme's own
    /// state for a zero line (what [`LineScheme::init`] returns), so a
    /// run past a failed load keeps simulating until the driver reports
    /// the error.
    ///
    /// An existing file is truncated: correctness never depends on
    /// prior content because only pages flushed by this instance are
    /// ever read back. Resuming a run against an existing page file
    /// therefore replays from the start and rebuilds it.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error if the file cannot be created
    /// or the header cannot be written.
    pub fn create(
        path: &Path,
        resident_pages: usize,
        blank: S::State,
    ) -> std::io::Result<Self> {
        let header = PageHeader {
            magic: PageHeader::MAGIC,
            version: PageHeader::VERSION,
            slots_per_page: SLOTS_PER_PAGE as u16,
            line_bytes: LINE_BYTES as u32,
            state_bytes: S::State::ENCODED_BYTES as u32,
        };
        let layout = PageLayout {
            state_bytes: S::State::ENCODED_BYTES,
            record_bytes: header.record_bytes(),
        };
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        file.write_all(&header.encode())?;
        Ok(Self {
            inner: RefCell::new(PagedInner {
                file,
                layout,
                blank,
                frames: Vec::new(),
                head: NIL,
                tail: NIL,
                pages: Vec::new(),
                capacity: resident_pages.max(1),
                len: 0,
                resident_slots: 0,
                peak_resident_slots: 0,
                flushed_pages: 0,
                flush_fp: FLUSH_FP_SEED,
                page_faults: 0,
                page_evictions: 0,
                error: None,
            }),
        })
    }
}

impl<S: LineScheme> PageBackend<S> for FilePageBackend<S>
where
    S::State: StateCodec,
{
    fn push(&mut self, stored: &LineBytes, state: S::State) -> u32 {
        let inner = self.inner.get_mut();
        let slot = u32::try_from(inner.len).expect("more than u32::MAX lines");
        let (page, off) = locate(slot);
        let f = inner.pin(page);
        let layout = inner.layout;
        let frame = &mut inner.frames[f];
        let (stored_seg, states) = layout.segments(&mut frame.record);
        stored_seg[off] = *stored;
        state.encode(&mut states[off * layout.state_bytes..][..layout.state_bytes]);
        frame.present |= 1u64 << off;
        frame.dirty = true;
        inner.len += 1;
        inner.resident_slots += 1;
        inner.peak_resident_slots = inner.peak_resident_slots.max(inner.resident_slots);
        slot
    }

    fn len(&self) -> usize {
        self.inner.borrow().len
    }

    fn with_slot_mut<T>(&mut self, slot: u32, f: impl FnOnce(LineMut<'_, S::State>) -> T) -> T {
        let inner = self.inner.get_mut();
        let (page, off) = locate(slot);
        let frame = inner.pin(page);
        let mut state = inner.state(frame, off);
        let layout = inner.layout;
        let frame = &mut inner.frames[frame];
        frame.dirty = true;
        let (stored, states) = layout.segments(&mut frame.record);
        let out = f(LineMut {
            stored: &mut stored[off],
            state: &mut state,
        });
        state.encode(&mut states[off * layout.state_bytes..][..layout.state_bytes]);
        out
    }

    fn with_slot<T>(&self, slot: u32, f: impl FnOnce(LineRef<'_, S::State>) -> T) -> T {
        let mut inner = self.inner.borrow_mut();
        let (page, off) = locate(slot);
        let frame = inner.pin(page);
        let state = inner.state(frame, off);
        f(LineRef {
            stored: inner.layout.slot(&inner.frames[frame].record, off).0,
            state: &state,
        })
    }

    fn resident_bytes(&self) -> u64 {
        self.inner.borrow().resident_slots * PageBackend::<S>::per_line_bytes(self)
    }

    fn paging_stats(&self) -> Option<StorePageStats> {
        let inner = self.inner.borrow();
        let per_line = PageBackend::<S>::per_line_bytes(self);
        Some(StorePageStats {
            page_faults: inner.page_faults,
            page_evictions: inner.page_evictions,
            pages_flushed: inner.flushed_pages,
            resident_bytes: inner.resident_slots * per_line,
            peak_resident_bytes: inner.peak_resident_slots * per_line,
        })
    }

    fn flush(&mut self) {
        self.inner.get_mut().flush_dirty();
    }

    fn flush_state(&self) -> (u64, u64) {
        let inner = self.inner.borrow();
        (inner.flushed_pages, inner.flush_fp)
    }

    fn io_error(&self) -> Option<String> {
        self.inner.borrow().error.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{SchemeConfig, SchemeKind};
    use crate::line::AnyScheme;
    use crate::LineStore;
    use deuce_crypto::{LineAddr, OtpEngine, SecretKey};

    /// Page 0's record as a one-page DEUCE store flushes it: all 64
    /// slots present, each written twice so counters and modified bits
    /// are live.
    fn deuce_record() -> Vec<u8> {
        let engine = OtpEngine::new(&SecretKey::from_seed(7));
        let scheme = AnyScheme::from_config(&SchemeConfig::new(SchemeKind::Deuce));
        let (_, blank) = scheme.init(&engine, LineAddr::new(0), &[0u8; LINE_BYTES]);
        let path = std::env::temp_dir()
            .join(format!("deuce-paged-record-{}.pages", std::process::id()));
        let backend = FilePageBackend::create(&path, 1, blank).expect("create page file");
        let mut store = LineStore::with_backend(scheme, backend);
        for round in 0..2u8 {
            for line in 0..SLOTS_PER_PAGE as u64 {
                let mut data = [round; LINE_BYTES];
                data[line as usize] = line as u8;
                let _ = store.write(&engine, LineAddr::new(line), &data);
            }
        }
        store.flush();
        assert!(store.io_error().is_none(), "{:?}", store.io_error());
        let file = std::fs::read(&path).expect("read page file");
        std::fs::remove_file(&path).ok();
        file[PageHeader::BYTES..].to_vec()
    }

    #[test]
    fn every_single_byte_flip_fails_verification() {
        let mut record = deuce_record();
        assert_eq!(record.len(), 6_736, "one DEUCE record: 8 + 64 x (64 + 41) + 8");
        assert!(verifies(0, &record), "the flushed record verifies");
        for at in 0..record.len() {
            for mask in [0x01u8, 0x80, 0xff] {
                record[at] ^= mask;
                assert!(!verifies(0, &record), "flip {mask:#04x} at byte {at} went unnoticed");
                record[at] ^= mask;
            }
        }
        assert!(!verifies(1, &record), "a record at another page's offset fails");
    }

    /// A record whose checksum verifies but whose present slot carries
    /// an unknown state tag fails to load like a corrupt one: the page
    /// comes up blank and the latched error names it. Nothing panics.
    #[test]
    fn a_forged_state_tag_fails_the_load_not_the_process() {
        forge_slot_zero_tag(0xEE);
    }

    /// A slot whose tag names another scheme's valid state (4 is BLE, in
    /// a DEUCE store) fails the load too, instead of reaching the
    /// scheme with a state it cannot handle.
    #[test]
    fn another_schemes_state_fails_the_load_not_the_process() {
        forge_slot_zero_tag(4);
    }

    /// Evicts a DEUCE page to its file, rewrites slot 0's `AnyState` tag
    /// as `tag` under a valid checksum, and reads the page back.
    fn forge_slot_zero_tag(tag: u8) {
        let engine = OtpEngine::new(&SecretKey::from_seed(5));
        let scheme = AnyScheme::from_config(&SchemeConfig::new(SchemeKind::Deuce));
        let (_, blank) = scheme.init(&engine, LineAddr::new(0), &[0u8; LINE_BYTES]);
        let path = std::env::temp_dir()
            .join(format!("deuce-paged-forged-{tag}-{}.pages", std::process::id()));
        let backend = FilePageBackend::create(&path, 1, blank).expect("create page file");
        let mut store = LineStore::with_backend(scheme, backend);
        // Filling page 1 evicts page 0 to the file.
        for line in 0..2 * SLOTS_PER_PAGE as u64 {
            let _ = store.write(&engine, LineAddr::new(line), &[line as u8; LINE_BYTES]);
        }
        let file = OpenOptions::new().read(true).write(true).open(&path).expect("open");
        let mut header = [0u8; PageHeader::BYTES];
        file.read_exact_at(&mut header, 0).expect("read header");
        let mut record = vec![0u8; PageHeader::decode(&header).record_bytes()];
        file.read_exact_at(&mut record, PageHeader::BYTES as u64).expect("read page 0");
        assert!(verifies(0, &record));
        record[8 + STORED_BYTES] = tag; // slot 0's AnyState tag
        let body = record.len() - 8;
        let checksum = page_checksum(0, &record[..body]);
        put_u64(&mut record, body, checksum);
        file.write_all_at(&record, PageHeader::BYTES as u64).expect("forge page 0");

        let _ = store.read(&engine, LineAddr::new(0));
        let error = store.io_error().expect("the forged page latches an error");
        assert!(error.starts_with("page 0: slot 0 holds no valid state"), "{error}");
        std::fs::remove_file(&path).ok();
    }

    /// A reference LRU cache of pages and the paging counters it implies.
    #[derive(Debug, Default)]
    struct ReferenceLru {
        capacity: usize,
        /// Resident pages with their dirty bits, least recently pinned
        /// first.
        resident: Vec<(u32, bool)>,
        faults: u64,
        evictions: u64,
        flushes: u64,
    }

    impl ReferenceLru {
        fn pin(&mut self, page: u32, dirty: bool) {
            if let Some(at) = self.resident.iter().position(|&(p, _)| p == page) {
                let (_, was_dirty) = self.resident.remove(at);
                self.resident.push((page, was_dirty || dirty));
                return;
            }
            self.faults += 1;
            if self.resident.len() == self.capacity {
                self.evictions += 1;
                self.flushes += u64::from(self.resident.remove(0).1);
            }
            self.resident.push((page, dirty));
        }
    }

    /// The slab list evicts exactly the least recently pinned page: the
    /// paging counters track a reference LRU over a random mix of pins,
    /// mutable pins and pushes, and every slot reads back what was last
    /// written to it.
    #[test]
    fn eviction_order_is_exact_lru() {
        use deuce_rng::{DeuceRng, Rng};
        let engine = OtpEngine::new(&SecretKey::from_seed(3));
        let scheme = AnyScheme::from_config(&SchemeConfig::new(SchemeKind::EncryptedDcw));
        let (_, blank) = scheme.init(&engine, LineAddr::new(0), &[0u8; LINE_BYTES]);
        let path =
            std::env::temp_dir().join(format!("deuce-paged-lru-{}.pages", std::process::id()));
        let capacity = 3;
        let mut backend =
            FilePageBackend::<AnyScheme>::create(&path, capacity, blank).expect("create page file");
        let mut reference = ReferenceLru { capacity, ..ReferenceLru::default() };
        let mut images: Vec<LineBytes> = Vec::new();
        let mut rng = DeuceRng::seed_from_u64(11);
        for step in 0..4_000u32 {
            let len = images.len() as u32;
            let choice = rng.gen_range(0..8u32);
            if len == 0 || (choice == 0 && len < 8 * SLOTS_PER_PAGE as u32) {
                let image = [step as u8; LINE_BYTES];
                let (_, state) = scheme.init(&engine, LineAddr::new(u64::from(len)), &image);
                assert_eq!(backend.push(&image, state), len);
                images.push(image);
                reference.pin(len / SLOTS_PER_PAGE as u32, true);
            } else {
                let slot = rng.gen_range(0..len);
                if choice < 4 {
                    let stored = backend.with_slot(slot, |line| *line.stored);
                    assert_eq!(stored, images[slot as usize], "slot {slot} at step {step}");
                    reference.pin(slot / SLOTS_PER_PAGE as u32, false);
                } else {
                    let image = [(step >> 3) as u8 ^ 0x5a; LINE_BYTES];
                    backend.with_slot_mut(slot, |line| *line.stored = image);
                    images[slot as usize] = image;
                    reference.pin(slot / SLOTS_PER_PAGE as u32, true);
                }
            }
            let stats = backend.paging_stats().expect("paged backend reports stats");
            assert_eq!(
                (stats.page_faults, stats.page_evictions, stats.pages_flushed),
                (reference.faults, reference.evictions, reference.flushes),
                "step {step}"
            );
        }
        assert!(reference.evictions > 1_000, "the mix must keep the cache under pressure");
        assert!(backend.io_error().is_none(), "{:?}", backend.io_error());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn an_all_zero_record_fails_for_every_page_index() {
        let zeros = vec![0u8; 6_736];
        let pages = (0..4096).chain((0..4096).map(|k| u32::MAX - k)).chain([1 << 16, 1 << 24]);
        for page in pages {
            assert!(!verifies(page, &zeros), "a zero hole verifies as page {page}");
        }
    }
}
