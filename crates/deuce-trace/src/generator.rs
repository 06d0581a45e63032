//! The trace generator: turns a [`BenchmarkProfile`] into a concrete
//! request stream.

use std::collections::VecDeque;
use std::io;
use std::ops::{Deref, DerefMut};
use std::sync::mpsc::{self, Receiver, Sender};
use std::thread::{self, JoinHandle};

use deuce_rng::{DeuceRng, Rng};

use deuce_crypto::{LineAddr, LineBytes, LINE_BYTES};

use crate::io::TraceIoError;
use crate::profiles::{Benchmark, BenchmarkProfile};
use crate::source::WriteSource;
use crate::trace::{Trace, TraceEvent};
use crate::value_model::WordRole;

/// 16-bit words per line (the value model's update granularity).
const WORDS: usize = LINE_BYTES / 2;

/// 16-byte blocks per line (Block-Level Encryption's granularity); a
/// set of blocks fits in the low bits of a `u8` mask.
const BLOCKS: usize = 4;

/// 16-bit words per 16-byte block.
const WORDS_PER_BLOCK: usize = WORDS / BLOCKS;

/// Builder-style configuration for trace generation.
///
/// # Examples
///
/// ```
/// use deuce_trace::{Benchmark, TraceConfig};
///
/// let trace = TraceConfig::new(Benchmark::Mcf)
///     .lines(128)
///     .writes(5_000)
///     .cores(8)
///     .seed(1)
///     .generate();
/// assert_eq!(trace.write_count(), 5_000);
/// assert!(trace.read_count() > 0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TraceConfig {
    benchmark: Benchmark,
    lines: usize,
    writes: usize,
    cores: u8,
    seed: u64,
    include_reads: bool,
}

impl TraceConfig {
    /// Creates a config with defaults: 256 lines/core working set,
    /// 10 000 writes, 1 core, reads included, seed 0.
    #[must_use]
    pub fn new(benchmark: Benchmark) -> Self {
        Self {
            benchmark,
            lines: 256,
            writes: 10_000,
            cores: 1,
            seed: 0,
            include_reads: true,
        }
    }

    /// Working-set size in lines per core.
    ///
    /// # Panics
    ///
    /// Panics if `lines == 0`.
    #[must_use]
    pub fn lines(mut self, lines: usize) -> Self {
        assert!(lines > 0, "working set must be non-empty");
        self.lines = lines;
        self
    }

    /// Total writeback count across all cores.
    #[must_use]
    pub fn writes(mut self, writes: usize) -> Self {
        self.writes = writes;
        self
    }

    /// Number of cores in rate mode (each runs its own copy).
    ///
    /// # Panics
    ///
    /// Panics if `cores == 0`.
    #[must_use]
    pub fn cores(mut self, cores: u8) -> Self {
        assert!(cores > 0, "need at least one core");
        self.cores = cores;
        self
    }

    /// RNG seed (traces are deterministic given the seed).
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Disables read-event generation (flip-rate studies only need
    /// writes).
    #[must_use]
    pub fn without_reads(mut self) -> Self {
        self.include_reads = false;
        self
    }

    /// The benchmark being generated.
    #[must_use]
    pub fn benchmark(&self) -> Benchmark {
        self.benchmark
    }

    /// Generates the trace by materialising the whole stream
    /// ([`TraceConfig::stream`] yields the identical event sequence
    /// without holding it in RAM). Generation runs on the caller's
    /// thread.
    #[must_use]
    pub fn generate(&self) -> Trace {
        let mut generator = self.generator();
        Trace::from_events(std::iter::from_fn(|| generator.next_event()).collect())
    }

    /// Creates a streaming generator over this config: the same event
    /// sequence as [`TraceConfig::generate`], produced on demand in
    /// O(working set) memory instead of O(trace length).
    ///
    /// A stream of at least [`HELPER_MIN_WRITES`] writebacks generates
    /// on a helper thread, started by the first pull, while the caller
    /// consumes; a shorter one generates on the caller's thread. The
    /// event sequence is the same either way.
    ///
    /// # Examples
    ///
    /// ```
    /// use deuce_trace::{Benchmark, Trace, TraceConfig};
    ///
    /// let config = TraceConfig::new(Benchmark::Mcf).writes(1_000).seed(2);
    /// let streamed = Trace::from_source(&mut config.stream()).unwrap();
    /// assert_eq!(streamed, config.generate());
    /// ```
    #[must_use]
    pub fn stream(&self) -> GeneratorSource {
        // Writebacks round-robin over cores starting at 0, so a stream
        // with fewer writes than cores only ever touches the leading
        // cores; reads are issued by the same core as their writeback.
        let cores = if self.writes == 0 { 1 } else { usize::from(self.cores).min(self.writes) };
        let generator = self.generator();
        let feed = if self.writes >= HELPER_MIN_WRITES {
            Feed::Unstarted(generator)
        } else {
            Feed::Inline(generator)
        };
        GeneratorSource { cores, feed }
    }

    fn generator(&self) -> Generator {
        let profile = self.benchmark.profile();
        let cores: Vec<CoreGenerator> = (0..self.cores)
            .map(|core| {
                CoreGenerator::new(
                    core,
                    &profile,
                    self.lines,
                    self.seed
                        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                        .wrapping_add(u64::from(core)),
                    self.include_reads,
                )
            })
            .collect();
        Generator {
            zipf: ZipfPick::new(self.lines, profile.line_zipf),
            profile,
            cores,
            pending: VecDeque::new(),
            writes_emitted: 0,
            writes_total: self.writes,
        }
    }
}

/// The writeback count from which [`TraceConfig::stream`] generates on
/// a helper thread: 2^17.
///
/// The helper pays only by overlapping generation with the consumer's
/// own work. It costs about 0.3 ms per stream to start and stop, plus a
/// wake-up per batch. Measured on a 2-vCPU Xeon guest, draining mcf
/// streams (one core, 65,536 lines) with no other work took, inline
/// against helper: 0.04 against 0.36 ms at 32 writebacks, 2.2 against
/// 3.0 ms at 3k, 45 against 42 ms at 64k, 71 against 87 ms at 128k and
/// 227 against 221 ms at 400k. A consumer that simulates each event
/// gains (perfbench's mcf-full, 400k writebacks, ran 1.65× faster with
/// both helpers), but a set-up that drains many short streams only
/// pays: threading every stream made perfbench's serve-zipf set-up,
/// which drains 64 tenant streams of at most about 42k writebacks,
/// 1.13× slower at the median.
pub const HELPER_MIN_WRITES: usize = 1 << 17;

/// Events per batch the helper hands over (a batch ends at the first
/// writeback boundary at or past this count).
const BATCH_EVENTS: usize = 2048;

/// Filled batches the helper may run ahead of the consumer.
const BATCHES_AHEAD: usize = 8;

/// A seeded benchmark generator as a [`WriteSource`]: yields the exact
/// event sequence of [`TraceConfig::generate`] without materialising
/// it. Created by [`TraceConfig::stream`].
///
/// A stream of at least [`HELPER_MIN_WRITES`] writebacks moves its
/// generator to a helper thread at the first pull. Dropping the source
/// stops that thread and joins it.
#[derive(Debug)]
pub struct GeneratorSource {
    /// Computed up front: the simulator sizes its timing model from it
    /// before the first pull.
    cores: usize,
    feed: Feed,
}

/// Where a [`GeneratorSource`]'s events come from.
#[derive(Debug)]
enum Feed {
    /// Stepped on the caller's thread.
    Inline(Generator),
    /// A long stream whose helper starts at the first pull, so a timer
    /// started after [`TraceConfig::stream`] sees all the generation.
    Unstarted(Generator),
    /// Generating on a helper thread.
    Helper(Helper),
    /// The helper thread could not be started; every pull fails.
    Failed,
}

impl WriteSource for GeneratorSource {
    fn cores(&self) -> usize {
        self.cores
    }

    fn next_event(&mut self) -> Result<Option<TraceEvent>, TraceIoError> {
        if matches!(self.feed, Feed::Unstarted(_)) {
            if let Feed::Unstarted(generator) = std::mem::replace(&mut self.feed, Feed::Failed) {
                let helper = Helper::spawn(generator).map_err(|e| {
                    io::Error::new(e.kind(), format!("start the generator thread: {e}"))
                })?;
                self.feed = Feed::Helper(helper);
            }
        }
        match &mut self.feed {
            Feed::Inline(generator) => Ok(generator.next_event()),
            Feed::Helper(helper) => Ok(helper.next_event()),
            Feed::Unstarted(_) | Feed::Failed => {
                Err(io::Error::other("the generator thread could not be started").into())
            }
        }
    }
}

/// The generator proper: the profile, the line ranking every core
/// shares, one generator per core, the events of the writeback being
/// handed out, and the writeback counts.
#[derive(Debug)]
struct Generator {
    profile: BenchmarkProfile,
    zipf: ZipfPick,
    cores: Vec<CoreGenerator>,
    pending: VecDeque<TraceEvent>,
    writes_emitted: usize,
    writes_total: usize,
}

impl Generator {
    /// Appends the next writeback, preceded by its reads, to `out`;
    /// `false` at end of stream.
    fn emit(&mut self, out: &mut VecDeque<TraceEvent>) -> bool {
        if self.writes_emitted == self.writes_total {
            return false;
        }
        let core = self.writes_emitted % self.cores.len();
        self.cores[core].emit_writeback(&self.profile, &self.zipf, out);
        self.writes_emitted += 1;
        true
    }

    /// The next event, or `None` at end of stream.
    fn next_event(&mut self) -> Option<TraceEvent> {
        if self.pending.is_empty() {
            let mut pending = std::mem::take(&mut self.pending);
            self.emit(&mut pending);
            self.pending = pending;
        }
        self.pending.pop_front()
    }

    /// Appends writebacks to `batch` until it holds at least
    /// [`BATCH_EVENTS`] events or the stream ends.
    fn fill(&mut self, batch: &mut VecDeque<TraceEvent>) {
        while batch.len() < BATCH_EVENTS && self.emit(batch) {}
    }
}

/// A [`Generator`] on its own thread. It fills batches into a bounded
/// queue, in stream order, and ends the stream with an empty batch; the
/// consumer sends each emptied batch back for reuse.
#[derive(Debug)]
struct Helper {
    /// The batch being handed out.
    batch: VecDeque<TraceEvent>,
    /// Filled batches; `None` once the stream has ended.
    full: Option<Receiver<VecDeque<TraceEvent>>>,
    /// Emptied batches, back to the helper.
    empty: Sender<VecDeque<TraceEvent>>,
    /// `None` once joined.
    thread: Option<JoinHandle<()>>,
}

impl Helper {
    fn spawn(mut generator: Generator) -> io::Result<Self> {
        let (full_tx, full) = mpsc::sync_channel(BATCHES_AHEAD);
        let (empty, empty_rx) = mpsc::channel();
        let thread = thread::Builder::new()
            .name("deuce-generator".into())
            .spawn(move || loop {
                let mut batch = empty_rx
                    .try_recv()
                    .unwrap_or_else(|_| VecDeque::with_capacity(BATCH_EVENTS));
                generator.fill(&mut batch);
                // An empty batch marks the end of the stream. A closed
                // queue means the source was dropped.
                let end = batch.is_empty();
                if full_tx.send(batch).is_err() || end {
                    break;
                }
            })?;
        Ok(Self { batch: VecDeque::new(), full: Some(full), empty, thread: Some(thread) })
    }

    fn next_event(&mut self) -> Option<TraceEvent> {
        loop {
            if let Some(event) = self.batch.pop_front() {
                return Some(event);
            }
            match self.full.as_ref()?.recv() {
                // The end of the stream. The helper is still freeing its
                // generator; `Drop` joins it.
                Ok(batch) if batch.is_empty() => {
                    self.full = None;
                    return None;
                }
                Ok(batch) => {
                    let spent = std::mem::replace(&mut self.batch, batch);
                    // The helper stops taking batches back only at the
                    // end of the stream.
                    let _ = self.empty.send(spent);
                }
                // The helper hung up before the end: it panicked, and
                // its panic continues here.
                Err(_) => {
                    self.full = None;
                    if let Some(Err(payload)) = self.thread.take().map(JoinHandle::join) {
                        std::panic::resume_unwind(payload);
                    }
                    return None;
                }
            }
        }
    }
}

impl Drop for Helper {
    fn drop(&mut self) {
        // Closing the queue first wakes a helper blocked on a full one.
        self.full = None;
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// Per-line generator state.
#[derive(Debug, Clone)]
struct LineState {
    data: LineBytes,
    hot: HotWords,
    writes: u64,
}

/// A line's hot words, held inline in draw order. They are distinct,
/// so a line has at most [`WORDS`] of them.
#[derive(Debug, Clone, Copy)]
struct HotWords {
    words: [u8; WORDS],
    len: u8,
}

impl HotWords {
    /// Copies of `words`, in order (`words` holds at most [`WORDS`]).
    fn copied(words: &[u8]) -> Self {
        let mut hot = Self { words: [0; WORDS], len: 0 };
        words.iter().for_each(|&w| hot.push(w));
        hot
    }

    fn push(&mut self, word: u8) {
        self.words[usize::from(self.len)] = word;
        self.len += 1;
    }

    /// Removes the word at `index`, keeping the others in order.
    fn remove(&mut self, index: usize) {
        self.words.copy_within(index + 1..usize::from(self.len), index);
        self.len -= 1;
    }

    /// Drops repeats of a word from a sorted set, keeping the first.
    fn dedup(&mut self) {
        let mut kept = 0;
        for i in 0..usize::from(self.len) {
            if kept == 0 || self.words[i] != self.words[kept - 1] {
                self.words[kept] = self.words[i];
                kept += 1;
            }
        }
        self.len = kept as u8;
    }
}

impl Deref for HotWords {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.words[..usize::from(self.len)]
    }
}

impl DerefMut for HotWords {
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.words[..usize::from(self.len)]
    }
}

/// One core's generator (rate mode: every core runs the same profile on
/// its own address range).
#[derive(Debug)]
struct CoreGenerator {
    core: u8,
    rng: DeuceRng,
    /// Every line shares the core's role layout; only the hot set
    /// jitters per line.
    roles: [WordRole; WORDS],
    lines: Vec<LineState>,
    instr: u64,
    instr_per_write: f64,
    reads_per_write: f64,
    read_debt: f64,
    include_reads: bool,
}

impl CoreGenerator {
    fn new(
        core: u8,
        profile: &BenchmarkProfile,
        lines: usize,
        seed: u64,
        include_reads: bool,
    ) -> Self {
        let mut rng = DeuceRng::seed_from_u64(seed);
        // Layout template: programs lay the same structs out in every
        // line of an array, so hot-word positions and roles repeat across
        // lines (with some jitter). This cross-line correlation is what
        // concentrates writes on fixed bit positions (Fig. 12's 6–27×
        // skew) and limits DEUCE's un-leveled lifetime gain (Fig. 14).
        let template_hot = sample_hot_words(&mut rng, profile.hot_words.min(WORDS));
        let roles: [WordRole; WORDS] = core::array::from_fn(|_| profile.roles.pick(rng.gen()));
        const LAYOUT_JITTER: f64 = 0.2;

        let line_states = (0..lines)
            .map(|_| {
                let mut data = [0u8; LINE_BYTES];
                rng.fill(&mut data);
                let mut hot = HotWords::copied(&template_hot);
                for w in hot.iter_mut() {
                    if rng.gen_bool(LAYOUT_JITTER) {
                        // Jitter within the same 16-byte block.
                        let candidate = (*w / 8) * 8 + rng.gen_range(0..8u8);
                        if !template_hot.contains(&candidate) {
                            *w = candidate;
                        }
                    }
                }
                hot.sort_unstable();
                hot.dedup();
                LineState {
                    data,
                    hot,
                    writes: 0,
                }
            })
            .collect();

        Self {
            core,
            rng,
            roles,
            lines: line_states,
            instr: 0,
            instr_per_write: 1000.0 / profile.wbpki,
            reads_per_write: profile.mpki / profile.wbpki,
            read_debt: 0.0,
            include_reads,
        }
    }

    fn pick_line(&mut self, zipf: &ZipfPick) -> usize {
        zipf.pick(self.rng.gen())
    }

    fn addr(&self, line: usize) -> LineAddr {
        LineAddr::new(u64::from(self.core) << 32 | line as u64)
    }

    /// Emits one writeback (preceded by its share of reads) into `out`;
    /// `zipf` ranks the core's lines.
    fn emit_writeback(
        &mut self,
        profile: &BenchmarkProfile,
        zipf: &ZipfPick,
        out: &mut VecDeque<TraceEvent>,
    ) {
        self.instr += self.instr_per_write as u64;

        if self.include_reads {
            self.read_debt += self.reads_per_write;
            while self.read_debt >= 1.0 {
                self.read_debt -= 1.0;
                let line = self.pick_line(zipf);
                let addr = self.addr(line);
                out.push_back(TraceEvent::read(self.core, self.instr, addr));
            }
        }

        let line_idx = self.pick_line(zipf);
        let addr = self.addr(line_idx);

        // Split borrows: mutate the line state with a local RNG handle.
        let line = &mut self.lines[line_idx];
        line.writes += 1;

        // Footprint drift: re-sample part of the hot set periodically.
        if let Some(period) = profile.drift.period {
            if period > 0 && line.writes.is_multiple_of(period) {
                let replace = ((line.hot.len() as f64) * profile.drift.fraction).round() as usize;
                for _ in 0..replace {
                    if line.hot.is_empty() {
                        break;
                    }
                    let victim = self.rng.gen_range(0..line.hot.len());
                    line.hot.remove(victim);
                }
                // Drifted-in words keep the spatial clustering: prefer
                // words from blocks the footprint already occupies.
                let blocks = block_mask(&line.hot);
                while line.hot.len() < profile.hot_words.min(WORDS) {
                    let candidate = if blocks != 0 && self.rng.gen_bool(0.7) {
                        let nth = self.rng.gen_range(0..blocks.count_ones() as usize);
                        nth_block(blocks, nth) * WORDS_PER_BLOCK as u8 + self.rng.gen_range(0..8u8)
                    } else {
                        self.rng.gen_range(0..WORDS) as u8
                    };
                    if !line.hot.contains(&candidate) {
                        line.hot.push(candidate);
                    }
                }
            }
        }

        // Decide which hot blocks this write touches: writebacks update
        // one field group at a time, so each hot block participates with
        // `block_activity` probability (at least one participates). Hot
        // blocks draw in ascending order: the generated bytes depend on
        // the RNG draw sequence.
        let hot_blocks = block_mask(&line.hot);
        let mut active = 0u8;
        for b in 0..BLOCKS {
            if hot_blocks & 1 << b != 0 && self.rng.gen_bool(profile.block_activity) {
                active |= 1 << b;
            }
        }
        if active == 0 {
            let nth = self.rng.gen_range(0..hot_blocks.count_ones() as usize);
            active = 1 << nth_block(hot_blocks, nth);
        }

        // Touch hot words in the active blocks.
        let mut touched_any = false;
        for i in 0..line.hot.len() {
            let word = usize::from(line.hot[i]);
            if active & 1 << (word / WORDS_PER_BLOCK) == 0 {
                continue;
            }
            if self.rng.gen_bool(profile.touch_probability) {
                let old = u16::from_le_bytes([line.data[word * 2], line.data[word * 2 + 1]]);
                let new = self.roles[word].next_value(old, &mut self.rng);
                line.data[word * 2..word * 2 + 2].copy_from_slice(&new.to_le_bytes());
                touched_any = true;
            }
        }
        if !touched_any {
            // A writeback with zero modified bits would be dropped by the
            // cache; force at least one word change.
            let word = usize::from(line.hot[self.rng.gen_range(0..line.hot.len())]);
            let old = u16::from_le_bytes([line.data[word * 2], line.data[word * 2 + 1]]);
            let new = self.roles[word].next_value(old, &mut self.rng);
            line.data[word * 2..word * 2 + 2].copy_from_slice(&new.to_le_bytes());
        }

        let data = line.data;
        out.push_back(TraceEvent::write(self.core, self.instr, addr, data));
    }
}

/// Zipf-distributed line ranks: the CDF over ranks plus a cut-point
/// table that narrows each pick to a short stretch of it.
///
/// `pick(u)` is the first rank whose CDF value is at least `u` — a
/// binary search of the whole CDF. With `K` a power of two, `u · K` is
/// exact, so bucket `k = ⌊u · K⌋` satisfies `k / K ≤ u < (k + 1) / K`,
/// and the answer lies between `guide[k]` and `guide[k + 1]`, the first
/// ranks reaching `k / K` and `(k + 1) / K`. Searching only that stretch
/// gives the same index by construction.
#[derive(Debug)]
struct ZipfPick {
    cdf: Vec<f64>,
    /// `guide[k]` is the first rank whose CDF value is at least `k / K`,
    /// for `k` in `0..=K`; `cdf.len()` if there is none.
    guide: Vec<u32>,
}

impl ZipfPick {
    /// The picker for `lines` ranks weighted `1 / (rank + 1)^exponent`.
    fn new(lines: usize, exponent: f64) -> Self {
        let mut cdf: Vec<f64> = (0..lines)
            .map(|r| 1.0 / ((r + 1) as f64).powf(exponent))
            .collect();
        let total: f64 = cdf.iter().sum();
        let mut acc = 0.0;
        for w in &mut cdf {
            acc += *w / total;
            *w = acc;
        }
        let buckets = lines.next_power_of_two();
        let mut rank = 0;
        let guide = (0..=buckets)
            .map(|k| {
                let edge = k as f64 / buckets as f64;
                while rank < lines && cdf[rank] < edge {
                    rank += 1;
                }
                u32::try_from(rank).expect("line ranks fit in 32 bits")
            })
            .collect();
        Self { cdf, guide }
    }

    /// The first rank whose CDF value is at least `u`, for `u` in
    /// `[0, 1)`; the last rank if rounding left the CDF short of `u`.
    fn pick(&self, u: f64) -> usize {
        let buckets = self.guide.len() - 1;
        let k = ((u * buckets as f64) as usize).min(buckets - 1);
        let lo = self.guide[k] as usize;
        let hi = self.guide[k + 1] as usize;
        (lo + self.cdf[lo..hi].partition_point(|&c| c < u)).min(self.cdf.len() - 1)
    }
}

/// The set of 16-byte blocks that hold the words in `words`, as a mask.
fn block_mask(words: &[u8]) -> u8 {
    words
        .iter()
        .fold(0, |mask, &w| mask | 1 << (usize::from(w) / WORDS_PER_BLOCK))
}

/// The `nth` block (counting from 0, in ascending order) set in `mask`.
fn nth_block(mask: u8, nth: usize) -> u8 {
    (0..BLOCKS as u8)
        .filter(|&b| mask & 1 << b != 0)
        .nth(nth)
        .expect("nth is below the mask's block count")
}

/// Samples a spatially-clustered hot-word footprint: real writebacks
/// exhibit block-level locality (structs and array slices), so hot words
/// concentrate in a few 16-byte blocks rather than scattering across the
/// line. This is what gives Block-Level Encryption its ~33% average
/// (Fig. 18) instead of degenerating to 50%.
fn sample_hot_words(rng: &mut DeuceRng, count: usize) -> Vec<u8> {
    let blocks_needed = count.div_ceil(5).clamp(1, BLOCKS);
    let hot_blocks = sample_distinct(rng, blocks_needed, BLOCKS);
    // Candidate words: all words of the hot blocks.
    let mut candidates: Vec<u8> = hot_blocks
        .iter()
        .flat_map(|&b| (0..WORDS_PER_BLOCK as u8).map(move |w| b * WORDS_PER_BLOCK as u8 + w))
        .collect();
    // Partial shuffle, take `count`.
    for i in 0..count.min(candidates.len()) {
        let j = rng.gen_range(i..candidates.len());
        candidates.swap(i, j);
    }
    candidates.truncate(count.min(WORDS_PER_BLOCK * BLOCKS));
    candidates
}

fn sample_distinct(rng: &mut DeuceRng, count: usize, range: usize) -> Vec<u8> {
    let mut positions: Vec<u8> = (0..range as u8).collect();
    for i in 0..count.min(range) {
        let j = rng.gen_range(i..range);
        positions.swap(i, j);
    }
    positions.truncate(count.min(range));
    positions
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Op;

    #[test]
    fn deterministic_given_seed() {
        let a = TraceConfig::new(Benchmark::Mcf).writes(500).seed(9).generate();
        let b = TraceConfig::new(Benchmark::Mcf).writes(500).seed(9).generate();
        assert_eq!(a, b);
        let c = TraceConfig::new(Benchmark::Mcf).writes(500).seed(10).generate();
        assert_ne!(a, c);
    }

    #[test]
    fn read_write_ratio_tracks_table2() {
        let trace = TraceConfig::new(Benchmark::Libquantum)
            .writes(4000)
            .seed(1)
            .generate();
        let ratio = trace.read_count() as f64 / trace.write_count() as f64;
        let expected = 22.9 / 9.78;
        assert!(
            (ratio - expected).abs() / expected < 0.05,
            "read/write ratio {ratio}, expected {expected}"
        );
    }

    #[test]
    fn writes_carry_data_reads_do_not() {
        let trace = TraceConfig::new(Benchmark::Astar).writes(200).generate();
        for e in trace.events() {
            match e.op {
                Op::Read => assert!(e.data.is_none()),
                Op::Write => assert!(e.data.is_some()),
            }
        }
    }

    #[test]
    fn every_write_changes_the_line() {
        use std::collections::HashMap;
        let trace = TraceConfig::new(Benchmark::Wrf).writes(2000).seed(3).generate();
        let mut last: HashMap<u64, LineBytes> = HashMap::new();
        let mut checked = 0;
        for e in trace.writes() {
            let data = e.data.unwrap();
            if let Some(prev) = last.get(&e.line.value()) {
                assert_ne!(prev, &data, "writeback with no modified bits");
                checked += 1;
            }
            last.insert(e.line.value(), data);
        }
        assert!(checked > 1000);
    }

    #[test]
    fn cores_use_disjoint_address_ranges() {
        let trace = TraceConfig::new(Benchmark::Gems)
            .writes(800)
            .cores(4)
            .generate();
        for e in trace.events() {
            assert_eq!(e.line.value() >> 32, u64::from(e.core));
        }
    }

    #[test]
    fn instruction_counts_advance_per_core() {
        let trace = TraceConfig::new(Benchmark::Milc).writes(400).cores(2).generate();
        for core in 0..2u8 {
            let instrs: Vec<u64> = trace
                .events()
                .iter()
                .filter(|e| e.core == core)
                .map(|e| e.instr)
                .collect();
            assert!(instrs.windows(2).all(|w| w[0] <= w[1]), "core {core} non-monotonic");
            assert!(*instrs.last().unwrap() > 0);
        }
    }

    #[test]
    fn working_set_is_respected() {
        let trace = TraceConfig::new(Benchmark::Soplex)
            .lines(32)
            .writes(1000)
            .generate();
        for e in trace.events() {
            assert!((e.line.value() & 0xFFFF_FFFF) < 32);
        }
    }

    #[test]
    fn sample_distinct_is_distinct() {
        let mut rng = DeuceRng::seed_from_u64(5);
        for _ in 0..100 {
            let s = sample_distinct(&mut rng, 10, 32);
            let set: std::collections::HashSet<_> = s.iter().collect();
            assert_eq!(set.len(), 10);
        }
    }

    /// The whole-CDF binary search the cut-point table must reproduce.
    fn full_search(zipf: &ZipfPick, u: f64) -> usize {
        zipf.cdf.partition_point(|&c| c < u).min(zipf.cdf.len() - 1)
    }

    /// The cut-point pick against the whole-CDF search at u = 0, the
    /// largest f64 below 1, every bucket edge and every CDF value and
    /// their neighbours, and random draws; for one line, powers of two
    /// and line counts that are not.
    #[test]
    fn cut_point_pick_matches_full_search() {
        let largest_below_one = 1.0 - f64::EPSILON / 2.0;
        assert!(largest_below_one < 1.0 && largest_below_one.next_up() == 1.0);
        let mut rng = DeuceRng::seed_from_u64(11);
        // Exponent 0 is uniform: with a power-of-two line count every
        // CDF value lands exactly on a bucket edge.
        for lines in [1, 2, 7, 256, 1_000, 65_536] {
            for exponent in [0.0, 0.4, 0.6, 0.9, 3.0] {
                let zipf = ZipfPick::new(lines, exponent);
                let buckets = zipf.guide.len() - 1;
                assert!(buckets.is_power_of_two() && buckets >= lines);
                let mut probes = vec![0.0, largest_below_one];
                for k in 0..buckets {
                    let edge = k as f64 / buckets as f64;
                    probes.extend([edge, edge.next_up(), edge.next_down().max(0.0)]);
                }
                probes.extend(
                    zipf.cdf
                        .iter()
                        .flat_map(|&c| [c, c.next_up(), c.next_down()]),
                );
                probes.extend((0..1_000).map(|_| rng.gen::<f64>()));
                for u in probes.into_iter().filter(|u| (0.0..1.0).contains(u)) {
                    assert_eq!(
                        zipf.pick(u),
                        full_search(&zipf, u),
                        "lines {lines}, exponent {exponent}, u {u:e}"
                    );
                }
            }
        }
    }
}
