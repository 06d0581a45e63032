//! Per-bit-position write counting for endurance and wear studies, plus
//! online stuck-at fault injection.

use crate::ecp::FailureModel;
use crate::line_image::LineImage;

/// Configuration for online stuck-at fault injection in a [`CellArray`].
///
/// Each physical cell gets a deterministic endurance threshold sampled
/// from [`FailureModel`] (lognormal-ish variation, seeded), multiplied by
/// `endurance_scale`. The write that reaches a cell's threshold fails:
/// the cell becomes permanently stuck at the value it held *before* that
/// write (the failed flip does not take), matching PCM write-verify
/// behavior where a worn-out cell no longer switches.
///
/// `endurance_scale` exists because real endurance (~10^8 writes) makes
/// online wear-out intractable to simulate; scaling it down to e.g.
/// `1e-6` produces deaths within thousands of writes while preserving
/// the *relative* endurance variation across cells.
///
/// # Examples
///
/// ```
/// use deuce_nvm::{FailureModel, StuckAtFaults};
///
/// // Mean endurance scaled from 1e8 down to ~100 writes per cell.
/// let faults = StuckAtFaults::new(FailureModel::PAPER, 1e-6);
/// let t = faults.threshold(0);
/// assert!(t >= 1);
/// // Deterministic in the cell id.
/// assert_eq!(t, faults.threshold(0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StuckAtFaults {
    /// Per-cell endurance distribution, deterministic in `(seed, cell)`.
    pub model: FailureModel,
    /// Multiplier applied to every sampled endurance (use `1.0` for
    /// realistic endurance, tiny values for accelerated-wear runs).
    pub endurance_scale: f64,
}

impl StuckAtFaults {
    /// Creates a fault configuration.
    ///
    /// # Panics
    ///
    /// Panics if `endurance_scale` is not finite and positive.
    #[must_use]
    pub fn new(model: FailureModel, endurance_scale: f64) -> Self {
        assert!(
            endurance_scale.is_finite() && endurance_scale > 0.0,
            "endurance scale must be finite and positive"
        );
        Self {
            model,
            endurance_scale,
        }
    }

    /// The write count at which global cell `cell` dies (its write
    /// numbered `threshold(cell)` is the one that fails), always ≥ 1.
    #[must_use]
    pub fn threshold(&self, cell: u64) -> u64 {
        let scaled = (self.model.endurance_of(cell) * self.endurance_scale).ceil();
        (scaled as u64).max(1)
    }
}

/// One permanently failed cell: its physical bit position within the
/// line and the value it is stuck at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeadCell {
    /// Physical cell position within the line (after HWL rotation).
    pub physical_bit: u32,
    /// The value the cell is frozen at (its last successfully stored
    /// value).
    pub stuck_value: bool,
}

/// 64-bit lanes per plane: 576 cells, room for 512 data cells and up
/// to 64 metadata cells.
const LANES: usize = 9;

/// The most cells a [`CellArray`] line holds.
pub const MAX_LINE_BITS: u32 = 64 * LANES as u32;

/// Links to no plane: a line with no planes yet, or a top plane.
const NO_PLANE: u32 = u32::MAX;

/// Planes per pool chunk: 40 MiB of address space. A chunk is reserved
/// whole and filled in order, so it never grows and a plane never moves.
/// A reservation this large is mapped straight from the OS by glibc (and
/// by the other common allocators), so a chunk's unused pages cost
/// nothing, and a dropped array hands its pages back at once rather
/// than leaving them in the allocator arena of the thread that wrote it.
const CHUNK_PLANES: usize = 1 << 19;

/// The cells one DCW write flips, in the linear bit order of
/// [`LineImage::bit`]: bit `i % 64` of lane `i / 64` is set iff bit `i`
/// differs. The mask carries its line's width, so a [`CellArray`] of
/// another width rejects it.
///
/// # Examples
///
/// ```
/// use deuce_nvm::{CellArray, FlipMask, LineImage};
///
/// let old = LineImage::zeroed(32);
/// let mut new = old;
/// new.data_mut()[0] = 0b101; // logical bits 0 and 2
/// let mut cells = CellArray::new(1, 544);
/// cells.record_flips(0, &FlipMask::between(&old, &new), 3);
/// assert_eq!((cells.count(0, 3), cells.count(0, 4), cells.count(0, 5)), (1, 0, 1));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlipMask {
    lanes: [u64; LANES],
    bits: u32,
}

impl FlipMask {
    /// The cells DCW writes when `new` replaces `old`.
    ///
    /// # Panics
    ///
    /// Panics if the metadata widths differ.
    #[must_use]
    pub fn between(old: &LineImage, new: &LineImage) -> Self {
        let mut lanes = [0u64; LANES];
        for (base, word) in old.changed_words(new) {
            lanes[(base / 64) as usize] = word;
        }
        Self { lanes, bits: old.total_bits() }
    }

    /// The flipped logical bits, ascending.
    fn logical_bits(&self) -> impl Iterator<Item = u32> + '_ {
        self.lanes.iter().enumerate().flat_map(|(i, &lane)| {
            let base = i as u32 * 64;
            let mut word = lane;
            std::iter::from_fn(move || {
                (word != 0).then(|| {
                    let bit = base + word.trailing_zeros();
                    word &= word - 1;
                    bit
                })
            })
        })
    }

    /// The mask over physical cells: logical bit `i` lands in cell
    /// `(i + rotation) % bits`.
    fn rotated(&self, rotation: u32) -> [u64; LANES] {
        let rotation = rotation % self.bits;
        if rotation == 0 {
            return self.lanes;
        }
        let mut cells = shifted_up(&self.lanes, rotation);
        let wrapped = shifted_down(&self.lanes, self.bits - rotation);
        for (cell, wrap) in cells.iter_mut().zip(wrapped) {
            *cell |= wrap;
        }
        // Clear what the upward shift pushed past the line's last cell.
        let full = (self.bits / 64) as usize;
        if full < LANES {
            cells[full] &= (1u64 << (self.bits % 64)) - 1;
            cells[full + 1..].fill(0);
        }
        cells
    }
}

/// `lanes` as one 576-bit number shifted up by `by` (< 576) bits.
fn shifted_up(lanes: &[u64; LANES], by: u32) -> [u64; LANES] {
    let (words, bits) = ((by / 64) as usize, by % 64);
    let mut out = [0u64; LANES];
    for i in words..LANES {
        out[i] = lanes[i - words] << bits;
        if bits > 0 && i > words {
            out[i] |= lanes[i - words - 1] >> (64 - bits);
        }
    }
    out
}

/// `lanes` as one 576-bit number shifted down by `by` (< 576) bits.
fn shifted_down(lanes: &[u64; LANES], by: u32) -> [u64; LANES] {
    let (words, bits) = ((by / 64) as usize, by % 64);
    let mut out = [0u64; LANES];
    for i in 0..LANES - words {
        out[i] = lanes[i + words] >> bits;
        if bits > 0 && i + words + 1 < LANES {
            out[i] |= lanes[i + words + 1] << (64 - bits);
        }
    }
    out
}

/// One bit of every cell's count in a line: plane `p` of a line holds
/// bit `p`.
#[derive(Debug, Clone)]
struct Plane {
    lanes: [u64; LANES],
    /// Pool index of the line's next plane up, or [`NO_PLANE`].
    up: u32,
}

/// Every line's bit-sliced counts.
#[derive(Debug, Clone, Default)]
struct Planes {
    /// Pool index of each line's plane 0, or [`NO_PLANE`]; grown to the
    /// highest line that has planes.
    bottom: Vec<u32>,
    /// The pool: the planes of every line, appended as lines gain them,
    /// in chunks of [`CHUNK_PLANES`]. Plane `i` is
    /// `chunks[i / CHUNK_PLANES][i % CHUNK_PLANES]`; a plane never moves
    /// and is never freed.
    chunks: Vec<Vec<Plane>>,
}

impl Planes {
    /// Planes in the pool.
    fn len(&self) -> usize {
        self.chunks
            .last()
            .map_or(0, |last| (self.chunks.len() - 1) * CHUNK_PLANES + last.len())
    }

    fn plane(&self, index: u32) -> &Plane {
        let index = index as usize;
        &self.chunks[index / CHUNK_PLANES][index % CHUNK_PLANES]
    }

    fn plane_mut(&mut self, index: u32) -> &mut Plane {
        let index = index as usize;
        &mut self.chunks[index / CHUNK_PLANES][index % CHUNK_PLANES]
    }

    /// Appends `plane` to the pool and returns its index.
    fn push(&mut self, plane: Plane) -> u32 {
        let index = u32::try_from(self.len())
            .ok()
            .filter(|&index| index != NO_PLANE)
            .expect("the plane pool holds fewer than 2^32 - 1 planes");
        match self.chunks.last_mut() {
            Some(chunk) if chunk.len() < CHUNK_PLANES => chunk.push(plane),
            _ => {
                let mut chunk = Vec::with_capacity(CHUNK_PLANES);
                chunk.push(plane);
                self.chunks.push(chunk);
            }
        }
        index
    }

    /// Adds one to every count whose cell is set in `carry`: a
    /// ripple-carry add from plane 0 up that stops at the first plane
    /// with no carry out. A carry out of the top plane becomes a new
    /// top plane.
    fn add(&mut self, line: usize, mut carry: [u64; LANES]) {
        if carry == [0; LANES] {
            return;
        }
        if line >= self.bottom.len() {
            self.bottom.resize(line + 1, NO_PLANE);
        }
        let mut below = None;
        let mut next = self.bottom[line];
        while next != NO_PLANE {
            let plane = self.plane_mut(next);
            let mut left = 0;
            for (cell, bit) in plane.lanes.iter_mut().zip(&mut carry) {
                let sum = *cell ^ *bit;
                *bit &= *cell;
                *cell = sum;
                left |= *bit;
            }
            if left == 0 {
                return;
            }
            below = Some(next);
            next = plane.up;
        }
        let top = self.push(Plane { lanes: carry, up: NO_PLANE });
        match below {
            Some(plane) => self.plane_mut(plane).up = top,
            None => self.bottom[line] = top,
        }
    }

    /// The planes of `line`, plane 0 first.
    fn of(&self, line: usize) -> impl Iterator<Item = &[u64; LANES]> + '_ {
        let mut next = self.bottom.get(line).copied().unwrap_or(NO_PLANE);
        std::iter::from_fn(move || {
            (next != NO_PLANE).then(|| {
                let plane = self.plane(next);
                next = plane.up;
                &plane.lanes
            })
        })
    }

    /// The count of `line`'s cell `bit`.
    fn count(&self, line: usize, bit: u32) -> u64 {
        let (lane, shift) = ((bit / 64) as usize, bit % 64);
        self.of(line)
            .enumerate()
            .map(|(p, lanes)| (lanes[lane] >> shift & 1) << p)
            .sum()
    }
}

/// Per-line fault bookkeeping, present only when injection is enabled.
#[derive(Debug, Clone)]
struct FaultState {
    config: StuckAtFaults,
    /// By line, grown to the highest line written.
    lines: Vec<LineFaults>,
}

/// One line's fault bookkeeping.
#[derive(Debug, Clone, Default)]
struct LineFaults {
    /// Writes recorded to the line. No cell of the line has more, so
    /// no cell can die before this reaches `floor`.
    writes: u64,
    /// The lowest threshold among the line's cells, computed at its
    /// first write (0 before it).
    floor: u64,
    /// Dead cells, in death order.
    dead: Vec<DeadCell>,
}

/// Per-cell write counters for a region of PCM lines.
///
/// Every line has `bits_per_line` cells (512 data bits plus metadata,
/// at most [`MAX_LINE_BITS`]). [`CellArray::record_write`] applies Data
/// Comparison Write semantics: only the bits that differ between the
/// old and new image are counted as written. A rotation offset (from
/// Horizontal Wear Leveling) maps logical bit positions to physical
/// cells.
///
/// This feeds Fig. 12 (per-bit-position write skew) and Fig. 14
/// (lifetime).
///
/// Counts are exact `u64` values at every accessor. They are stored
/// bit-sliced: plane `p` of a line holds bit `p` of each of its cells'
/// counts, in nine `u64` lanes. A line has no planes until it is
/// written, and gains one only when a carry leaves its top plane, so a
/// line written `w` times holds at most ⌈log2(w + 1)⌉ planes. All planes
/// share one append-only pool.
///
/// # Examples
///
/// ```
/// use deuce_nvm::{CellArray, LineImage, MetaBits};
///
/// let mut cells = CellArray::new(4, 544);
/// let old = LineImage::zeroed(32);
/// let mut new = old;
/// new.data_mut()[0] = 1;
/// cells.record_write(0, &old, &new, 0);
/// assert_eq!(cells.writes_recorded(), 1);
/// assert_eq!(cells.count(0, 0), 1);
/// ```
#[derive(Debug, Clone)]
pub struct CellArray {
    planes: Planes,
    lines: usize,
    bits_per_line: u32,
    writes: u64,
    faults: Option<FaultState>,
}

impl CellArray {
    /// Creates a zeroed cell array for `lines` lines of `bits_per_line`
    /// cells each, with fault injection disabled. Nothing is allocated
    /// per line until the line is written.
    ///
    /// # Panics
    ///
    /// Panics if `lines` or `bits_per_line` is zero, or `bits_per_line`
    /// exceeds [`MAX_LINE_BITS`].
    #[must_use]
    pub fn new(lines: usize, bits_per_line: u32) -> Self {
        assert!(lines > 0, "cell array needs at least one line");
        assert!(bits_per_line > 0, "cell array needs at least one bit per line");
        assert!(
            bits_per_line <= MAX_LINE_BITS,
            "cell array lines hold at most {MAX_LINE_BITS} cells"
        );
        Self {
            planes: Planes::default(),
            lines,
            bits_per_line,
            writes: 0,
            faults: None,
        }
    }

    /// Creates a cell array with online stuck-at fault injection: every
    /// cell carries a deterministic endurance threshold and
    /// [`record_write`](Self::record_write) reports the cells each write
    /// kills.
    ///
    /// # Panics
    ///
    /// As [`new`](Self::new).
    ///
    /// # Examples
    ///
    /// ```
    /// use deuce_nvm::{CellArray, FailureModel, LineImage, StuckAtFaults};
    ///
    /// // Scale endurance down so every cell dies on its first write.
    /// let faults = StuckAtFaults::new(FailureModel::PAPER, 1e-10);
    /// let mut cells = CellArray::with_faults(1, 544, faults);
    /// let old = LineImage::zeroed(32);
    /// let mut new = old;
    /// new.data_mut()[0] = 1; // flip bit 0
    /// let deaths = cells.record_write(0, &old, &new, 0);
    /// assert_eq!(deaths, vec![0]);
    /// // The cell is stuck at its pre-write value, so the intended
    /// // image reads back with bit 0 still clear.
    /// assert!(!cells.faulted_image(0, &new, 0).bit(0));
    /// ```
    #[must_use]
    pub fn with_faults(lines: usize, bits_per_line: u32, faults: StuckAtFaults) -> Self {
        let mut array = Self::new(lines, bits_per_line);
        array.faults = Some(FaultState { config: faults, lines: Vec::new() });
        array
    }

    /// Number of lines tracked.
    #[must_use]
    pub fn lines(&self) -> usize {
        self.lines
    }

    /// Cells per line.
    #[must_use]
    pub fn bits_per_line(&self) -> u32 {
        self.bits_per_line
    }

    /// Total line writes recorded.
    #[must_use]
    pub fn writes_recorded(&self) -> u64 {
        self.writes
    }

    /// Records a DCW write of `new` over `old` to `line`, with the bits
    /// rotated left by `rotation` positions (HWL): logical bit `i` lands in
    /// physical cell `(i + rotation) % bits_per_line`.
    ///
    /// Returns the physical cells this write killed, in ascending
    /// *logical* bit order: physical order starting at the rotation and
    /// wrapping past the last cell. It is always empty unless the array
    /// was built with [`with_faults`](Self::with_faults). A cell dies on
    /// the write that reaches its endurance threshold; the failed flip
    /// does not take, so the cell stays stuck at the value `old` held
    /// there. Write counts keep accumulating past death so wear
    /// statistics are identical with and without fault injection.
    ///
    /// # Panics
    ///
    /// Panics if `line` is out of range or the images' total bits don't
    /// match `bits_per_line`.
    pub fn record_write(
        &mut self,
        line: usize,
        old: &LineImage,
        new: &LineImage,
        rotation: u32,
    ) -> Vec<u32> {
        let flips = FlipMask::between(old, new);
        self.add(line, &flips, rotation);
        let Some(faults) = &mut self.faults else {
            return Vec::new();
        };
        if line >= faults.lines.len() {
            faults.lines.resize_with(line + 1, LineFaults::default);
        }
        let bits = self.bits_per_line;
        let base = line as u64 * u64::from(bits);
        let config = faults.config;
        let state = &mut faults.lines[line];
        state.writes += 1;
        if state.floor == 0 {
            state.floor = (0..u64::from(bits))
                .map(|cell| config.threshold(base + cell))
                .min()
                .expect("a line has cells");
        }
        let mut deaths = Vec::new();
        if state.writes < state.floor {
            return deaths;
        }
        let rotation = rotation % bits;
        for bit in flips.logical_bits() {
            let physical = (bit + rotation) % bits;
            // Counts only ever increase, so the threshold is crossed
            // exactly once per cell.
            if self.planes.count(line, physical) == config.threshold(base + u64::from(physical)) {
                state.dead.push(DeadCell {
                    physical_bit: physical,
                    stuck_value: old.bit(bit),
                });
                deaths.push(physical);
            }
        }
        deaths
    }

    /// Records a write by its flip mask alone: the same counts as
    /// [`record_write`](Self::record_write) over the two images the mask
    /// was taken from.
    ///
    /// # Panics
    ///
    /// Panics if `line` is out of range, the mask's width doesn't match
    /// `bits_per_line`, or the array injects faults (a dying cell's stuck
    /// value comes from the old image).
    pub fn record_flips(&mut self, line: usize, flips: &FlipMask, rotation: u32) {
        assert!(
            self.faults.is_none(),
            "a fault-injecting cell array records writes from both images"
        );
        self.add(line, flips, rotation);
    }

    /// Adds `flips`, rotated, to `line`'s counts.
    fn add(&mut self, line: usize, flips: &FlipMask, rotation: u32) {
        assert!(line < self.lines, "line {line} out of range");
        assert_eq!(
            flips.bits, self.bits_per_line,
            "image size does not match cell array"
        );
        self.planes.add(line, flips.rotated(rotation));
        self.writes += 1;
    }

    /// Whether this array was built with online fault injection.
    #[must_use]
    pub fn faults_enabled(&self) -> bool {
        self.faults.is_some()
    }

    /// The cells of `line` that have failed so far, in death order.
    /// Empty when fault injection is disabled.
    ///
    /// # Panics
    ///
    /// Panics if `line` is out of range.
    #[must_use]
    pub fn dead_cells(&self, line: usize) -> &[DeadCell] {
        assert!(line < self.lines, "line {line} out of range");
        self.faults
            .as_ref()
            .and_then(|f| f.lines.get(line))
            .map_or(&[], |state| &state.dead)
    }

    /// Total dead cells across all lines.
    #[must_use]
    pub fn dead_cell_count(&self) -> u64 {
        self.faults.as_ref().map_or(0, |f| {
            f.lines.iter().map(|state| state.dead.len() as u64).sum()
        })
    }

    /// What a read of `line` actually returns: `intended` with every
    /// dead cell overridden by its stuck value. `rotation` must be the
    /// line's current HWL rotation, so stuck *physical* cells land on
    /// the right *logical* positions.
    ///
    /// # Panics
    ///
    /// Panics if `line` is out of range or `intended` doesn't match the
    /// array's bits-per-line.
    #[must_use]
    pub fn faulted_image(&self, line: usize, intended: &LineImage, rotation: u32) -> LineImage {
        assert!(line < self.lines, "line {line} out of range");
        assert_eq!(
            intended.total_bits(),
            self.bits_per_line,
            "image size does not match cell array"
        );
        let mut image = *intended;
        for dead in self.dead_cells(line) {
            let logical = (dead.physical_bit + self.bits_per_line - rotation % self.bits_per_line)
                % self.bits_per_line;
            image.set_bit(logical, dead.stuck_value);
        }
        image
    }

    /// Write count of one physical cell.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    #[must_use]
    pub fn count(&self, line: usize, bit: u32) -> u64 {
        assert!(line < self.lines && bit < self.bits_per_line);
        self.planes.count(line, bit)
    }

    /// Per-bit-position totals summed across all lines (the Fig. 12
    /// series).
    #[must_use]
    pub fn position_totals(&self) -> Vec<u64> {
        let mut totals = vec![0u64; self.bits_per_line as usize];
        for line in 0..self.planes.bottom.len() {
            for (p, lanes) in self.planes.of(line).enumerate() {
                for (i, &lane) in lanes.iter().enumerate() {
                    let mut word = lane;
                    while word != 0 {
                        totals[i * 64 + word.trailing_zeros() as usize] += 1 << p;
                        word &= word - 1;
                    }
                }
            }
        }
        totals
    }

    /// Summary statistics used by the lifetime model.
    #[must_use]
    pub fn wear_summary(&self) -> WearSummary {
        let mut max = 0;
        let mut total = 0;
        let mut stack: Vec<&[u64; LANES]> = Vec::new();
        for line in 0..self.planes.bottom.len() {
            stack.clear();
            stack.extend(self.planes.of(line));
            // From the top plane down, keep the cells that hold each
            // plane's bit whenever any does: they hold the line's
            // largest count.
            let mut widest = [u64::MAX; LANES];
            let mut line_max = 0u64;
            for (p, lanes) in stack.iter().enumerate().rev() {
                let mut kept = widest;
                let mut any = 0;
                for (keep, lane) in kept.iter_mut().zip(lanes.iter()) {
                    *keep &= lane;
                    any |= *keep;
                }
                if any != 0 {
                    widest = kept;
                    line_max |= 1 << p;
                }
                total += u64::from(lanes.iter().map(|lane| lane.count_ones()).sum::<u32>()) << p;
            }
            max = max.max(line_max);
        }
        let cells = self.lines as u64 * u64::from(self.bits_per_line);
        WearSummary {
            max_cell_writes: max,
            total_bit_writes: total,
            // Unwritten lines count towards the average as zeros.
            avg_cell_writes: total as f64 / cells as f64,
            line_writes: self.writes,
            cells,
        }
    }
}

/// Aggregate wear statistics over a [`CellArray`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WearSummary {
    /// Writes to the most-written cell (determines lifetime: the first
    /// cell to reach the endurance limit kills the line).
    pub max_cell_writes: u64,
    /// Total bit writes across all cells.
    pub total_bit_writes: u64,
    /// Mean writes per cell.
    pub avg_cell_writes: f64,
    /// Line-level writes recorded.
    pub line_writes: u64,
    /// Number of cells tracked.
    pub cells: u64,
}

impl WearSummary {
    /// Ratio of the most-written cell to the average (Fig. 12's metric;
    /// 1.0 = perfectly uniform).
    #[must_use]
    pub fn max_over_avg(&self) -> f64 {
        if self.avg_cell_writes == 0.0 {
            0.0
        } else {
            self.max_cell_writes as f64 / self.avg_cell_writes
        }
    }

    /// Relative lifetime under an endurance limit: proportional to
    /// `1 / max_cell_writes` per line write. Normalizing two summaries'
    /// values against each other reproduces Fig. 14.
    #[must_use]
    pub fn lifetime_metric(&self) -> f64 {
        if self.max_cell_writes == 0 {
            f64::INFINITY
        } else {
            self.line_writes as f64 / self.max_cell_writes as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LineImage;

    fn image_with_bits(bits: &[u32]) -> LineImage {
        let mut img = LineImage::zeroed(32);
        for &b in bits {
            if b < 512 {
                img.data_mut()[(b / 8) as usize] |= 1 << (b % 8);
            } else {
                img.meta_mut().set(b - 512, true);
            }
        }
        img
    }

    #[test]
    fn records_only_changed_bits() {
        let mut cells = CellArray::new(2, 544);
        let old = LineImage::zeroed(32);
        let new = image_with_bits(&[0, 100, 512]);
        cells.record_write(1, &old, &new, 0);
        assert_eq!(cells.count(1, 0), 1);
        assert_eq!(cells.count(1, 100), 1);
        assert_eq!(cells.count(1, 512), 1);
        assert_eq!(cells.count(1, 1), 0);
        assert_eq!(cells.count(0, 0), 0, "other lines untouched");
    }

    #[test]
    fn rotation_remaps_positions() {
        let mut cells = CellArray::new(1, 544);
        let old = LineImage::zeroed(32);
        let new = image_with_bits(&[540]);
        cells.record_write(0, &old, &new, 10); // 540 + 10 = 550 % 544 = 6
        assert_eq!(cells.count(0, 6), 1);
        assert_eq!(cells.count(0, 540), 0);
    }

    #[test]
    fn position_totals_sum_lines() {
        let mut cells = CellArray::new(3, 544);
        let old = LineImage::zeroed(32);
        let new = image_with_bits(&[7]);
        for line in 0..3 {
            cells.record_write(line, &old, &new, 0);
        }
        let totals = cells.position_totals();
        assert_eq!(totals[7], 3);
        assert_eq!(totals.iter().sum::<u64>(), 3);
    }

    #[test]
    fn wear_summary_statistics() {
        let mut cells = CellArray::new(1, 544);
        let old = LineImage::zeroed(32);
        let new = image_with_bits(&[0, 1]);
        cells.record_write(0, &old, &new, 0);
        cells.record_write(0, &new, &image_with_bits(&[1]), 0); // flips bit 0 back
        let s = cells.wear_summary();
        assert_eq!(s.max_cell_writes, 2); // bit 0 written twice
        assert_eq!(s.total_bit_writes, 3);
        assert_eq!(s.line_writes, 2);
        assert!(s.max_over_avg() > 1.0);
        assert!((s.lifetime_metric() - 1.0).abs() < f64::EPSILON);
    }

    /// Differential check against plain `u64` counters: the word-level
    /// XOR path must count exactly the cells the bit-at-a-time
    /// `changed_bits` loop would, under every rotation. With `hammer`
    /// set, one cell of line 1 also toggles that many times, passing
    /// 65,536 three times, so its count reaches the line's 18th plane.
    /// Line 2 is never written.
    #[test]
    fn word_level_path_matches_bit_loop() {
        let mut lcg = 0x0dd_b1a5_ed00_d5eeu64;
        let mut next = move || {
            lcg = lcg
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            lcg
        };
        let zero = LineImage::zeroed(32);
        let one = image_with_bits(&[5]);
        for (rotation, hammer) in [
            (0u32, 0u64),
            (1, 0),
            (13, 0),
            (543, 0),
            (0, 200_000),
            (543, 200_000),
        ] {
            let mut cells = CellArray::new(3, 544);
            let mut reference = vec![0u64; 3 * 544];
            let mut old = LineImage::zeroed(32);
            for _ in 0..10 {
                let mut new = LineImage::zeroed(32);
                for b in new.data_mut().iter_mut() {
                    *b = next() as u8;
                }
                *new.meta_mut() = crate::MetaBits::from_raw(next() & 0xFFFF_FFFF, 32);
                for bit in old.changed_bits(&new) {
                    reference[((bit + rotation) % 544) as usize] += 1;
                }
                cells.record_write(0, &old, &new, rotation);
                cells.record_write(1, &old, &new, rotation);
                old = new;
            }
            reference.copy_within(0..544, 544);
            for i in 0..hammer {
                let (from, to) = if i % 2 == 0 {
                    (&zero, &one)
                } else {
                    (&one, &zero)
                };
                cells.record_write(1, from, to, rotation);
            }
            reference[544 + ((5 + rotation) % 544) as usize] += hammer;

            let case = format!("rotation {rotation}, hammer {hammer}");
            for (cell, &want) in reference.iter().enumerate() {
                let (line, bit) = (cell / 544, (cell % 544) as u32);
                assert_eq!(
                    cells.count(line, bit),
                    want,
                    "{case}: line {line} bit {bit}"
                );
            }
            let totals: Vec<u64> = (0..544)
                .map(|pos| (0..3).map(|line| reference[line * 544 + pos]).sum())
                .collect();
            assert_eq!(cells.position_totals(), totals, "{case}");
            let total: u64 = reference.iter().sum();
            let want = WearSummary {
                max_cell_writes: reference.iter().copied().max().unwrap(),
                total_bit_writes: total,
                avg_cell_writes: total as f64 / reference.len() as f64,
                line_writes: 20 + hammer,
                cells: reference.len() as u64,
            };
            assert_eq!(cells.wear_summary(), want, "{case}");
        }
    }

    #[test]
    fn empty_summary_is_sane() {
        let cells = CellArray::new(1, 10);
        let s = cells.wear_summary();
        assert_eq!(s.max_over_avg(), 0.0);
        assert!(s.lifetime_metric().is_infinite());
    }

    /// A fixed-threshold model: cv = 0 makes every cell's endurance
    /// exactly `mean`, so scale 1.0 gives a threshold of `mean` writes.
    fn fixed_threshold(mean: f64) -> StuckAtFaults {
        StuckAtFaults::new(
            crate::FailureModel {
                mean_endurance: mean,
                cv: 0.0,
                seed: 0,
            },
            1.0,
        )
    }

    #[test]
    fn fault_free_array_reports_nothing() {
        let mut cells = CellArray::new(1, 544);
        assert!(!cells.faults_enabled());
        let deaths = cells.record_write(0, &LineImage::zeroed(32), &image_with_bits(&[0]), 0);
        assert!(deaths.is_empty());
        assert!(cells.dead_cells(0).is_empty());
        assert_eq!(cells.dead_cell_count(), 0);
    }

    /// Bit 0 toggles every write (odd writes 0 -> 1, even writes
    /// 1 -> 0), so the write numbered `threshold` fails and the cell
    /// sticks at the value before it. The thresholds beyond `u16::MAX`
    /// land on and around the 16-bit counters' wrap points.
    #[test]
    fn cell_dies_at_threshold_and_sticks_at_old_value() {
        let zero = LineImage::zeroed(32);
        let one = image_with_bits(&[0]);
        for threshold in [3u64, 65_535, 65_536, 65_537, 131_075] {
            let mut cells = CellArray::with_faults(1, 544, fixed_threshold(threshold as f64));
            let mut died_at = Vec::new();
            for write in 1..=threshold + 2 {
                let (from, to) = if write % 2 == 1 {
                    (&zero, &one)
                } else {
                    (&one, &zero)
                };
                let deaths = cells.record_write(0, from, to, 0);
                if !deaths.is_empty() {
                    assert_eq!(deaths, vec![0], "threshold {threshold}");
                    died_at.push(write);
                }
            }
            // Writes before the threshold survive, the one reaching it
            // fails, and further writes keep counting but never
            // re-report the death.
            assert_eq!(died_at, vec![threshold], "threshold {threshold}");
            assert_eq!(cells.count(0, 0), threshold + 2);
            assert_eq!(cells.dead_cell_count(), 1);
            let dead = cells.dead_cells(0);
            assert_eq!(dead[0].physical_bit, 0);
            // An odd write found the cell at 0, an even one at 1.
            let stuck = threshold % 2 == 0;
            assert_eq!(dead[0].stuck_value, stuck, "threshold {threshold}");
            // Whatever the intended image holds, the device returns the
            // stuck value.
            for intended in [&zero, &one] {
                let seen = cells.faulted_image(0, intended, 0);
                assert_eq!(seen.bit(0), stuck, "threshold {threshold}");
                assert_eq!(
                    intended.flips_to(&seen).total(),
                    u32::from(intended.bit(0) != stuck)
                );
            }
        }
    }

    #[test]
    fn faulted_image_maps_physical_cells_through_rotation() {
        let mut cells = CellArray::with_faults(1, 544, fixed_threshold(1.0));
        let zero = LineImage::zeroed(32);
        let new = image_with_bits(&[540]);
        // Logical 540 under rotation 10 wears physical cell 6.
        let deaths = cells.record_write(0, &zero, &new, 10);
        assert_eq!(deaths, vec![6]);
        assert_eq!(cells.dead_cells(0)[0].physical_bit, 6);
        // Read back under the same rotation: logical 540 is stuck at 0.
        assert!(!cells.faulted_image(0, &new, 10).bit(540));
        // After the rotation advances, the same physical cell shadows a
        // different logical position: (6 + 544 - 11) % 544 = 539.
        let probe = image_with_bits(&[539]);
        assert!(!cells.faulted_image(0, &probe, 11).bit(539));
    }

    #[test]
    fn wear_statistics_identical_with_and_without_faults() {
        let mut plain = CellArray::new(2, 544);
        let mut faulty = CellArray::with_faults(2, 544, fixed_threshold(2.0));
        let mut lcg = 0x5eed_f00d_u64;
        let mut old = [LineImage::zeroed(32), LineImage::zeroed(32)];
        for step in 0..200 {
            lcg = lcg
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let line = (step % 2) as usize;
            let mut new = old[line];
            new.data_mut()[(lcg % 64) as usize] ^= (lcg >> 8) as u8;
            plain.record_write(line, &old[line], &new, step % 5);
            faulty.record_write(line, &old[line], &new, step % 5);
            old[line] = new;
        }
        for line in 0..2 {
            for bit in 0..544 {
                assert_eq!(plain.count(line, bit), faulty.count(line, bit));
            }
        }
        assert_eq!(plain.wear_summary(), faulty.wear_summary());
        assert!(faulty.dead_cell_count() > 0, "threshold 2 should kill cells");
    }

    /// A fixed LCG, so every differential run sees the same writes.
    fn lcg(mut state: u64) -> impl FnMut() -> u64 {
        move || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            state ^ state >> 29
        }
    }

    /// `old` with a random flip mask applied: per 64-bit word, dense,
    /// sparse (one bit in eight) or a single bit.
    fn random_write(old: &LineImage, next: &mut impl FnMut() -> u64) -> LineImage {
        let mut word = || match next() % 3 {
            0 => next(),
            1 => next() & next() & next(),
            _ => 1 << (next() % 64),
        };
        let mut new = *old;
        for chunk in new.data_mut().chunks_exact_mut(8) {
            let flipped = u64::from_le_bytes(chunk.try_into().unwrap()) ^ word();
            chunk.copy_from_slice(&flipped.to_le_bytes());
        }
        let width = old.meta().width();
        let mask = if width == 64 { u64::MAX } else { (1u64 << width) - 1 };
        *new.meta_mut() = crate::MetaBits::from_raw((old.meta().raw() ^ word()) & mask, width);
        new
    }

    /// The bit-sliced planes against the `u16` reference they replaced:
    /// random flip masks under every rotation `0..n`, for every line
    /// width `n` from the narrowest to the widest, with and without
    /// faults. Every write's deaths, in order, and then every count,
    /// the position totals, the summary and the dead cells must agree.
    /// A third array fed masks alone must end up identical to the first.
    #[test]
    fn planes_match_the_u16_reference() {
        const LINES: usize = 5;
        let mut next = lcg(0x09e1_1ced_5eed);
        let faults = StuckAtFaults::new(
            crate::FailureModel {
                mean_endurance: 40.0,
                cv: 0.3,
                seed: 7,
            },
            1.0,
        );
        for meta in [0u32, 1, 32, 64] {
            let bits = 512 + meta;
            for faults in [None, Some(faults)] {
                let case = format!("{bits} bits, faults {}", faults.is_some());
                let mut planes = match faults {
                    Some(f) => CellArray::with_faults(LINES, bits, f),
                    None => CellArray::new(LINES, bits),
                };
                let mut masks_only = CellArray::new(LINES, bits);
                let mut reference = reference::U16Cells::new(LINES, bits, faults);
                let mut old = [LineImage::zeroed(meta); LINES];
                for rotation in 0..bits {
                    let line = (rotation as usize * 3 + rotation as usize / LINES) % LINES;
                    let new = random_write(&old[line], &mut next);
                    let deaths = planes.record_write(line, &old[line], &new, rotation);
                    let want = reference.record_write(line, &old[line], &new, rotation);
                    assert_eq!(deaths, want, "{case}, rotation {rotation}");
                    masks_only.record_flips(line, &FlipMask::between(&old[line], &new), rotation);
                    old[line] = new;
                }
                for line in 0..LINES {
                    for bit in 0..bits {
                        let want = reference.count(line, bit);
                        assert_eq!(planes.count(line, bit), want, "{case}: line {line} bit {bit}");
                    }
                    assert_eq!(planes.dead_cells(line), reference.dead_cells(line), "{case}");
                }
                assert_eq!(planes.position_totals(), reference.position_totals(), "{case}");
                assert_eq!(planes.wear_summary(), reference.wear_summary(), "{case}");
                assert_eq!(planes.dead_cell_count(), reference.dead_cell_count(), "{case}");
                assert_eq!(planes.writes_recorded(), u64::from(bits), "{case}");
                if faults.is_some() {
                    assert!(planes.dead_cell_count() > 100, "{case}: too few deaths to compare");
                } else {
                    assert_eq!(format!("{masks_only:?}"), format!("{planes:?}"), "{case}");
                }
            }
        }
    }

    /// A line gains a plane only when a carry leaves its top plane, and
    /// a write that flips nothing gives a line none.
    #[test]
    fn a_line_gains_planes_only_as_its_counts_grow() {
        let mut cells = CellArray::new(3, 544);
        let zero = LineImage::zeroed(32);
        let one = image_with_bits(&[9]);
        cells.record_write(2, &zero, &zero, 0);
        assert_eq!(cells.planes.len(), 0);
        let mut image = zero;
        for write in 1..=8u32 {
            let next = if write % 2 == 1 { one } else { zero };
            cells.record_write(2, &image, &next, 0);
            image = next;
            // Counts 1, 2..3, 4..7 and 8 need 1, 2, 3 and 4 planes.
            assert_eq!(cells.planes.len(), (32 - write.leading_zeros()) as usize);
        }
        assert_eq!(cells.count(2, 9), 8);
        assert_eq!(cells.wear_summary().max_cell_writes, 8);
        assert_eq!(cells.writes_recorded(), 9);
    }

    /// Nothing is allocated per line up front, so the line count may be
    /// far beyond what the host could hold counts for.
    #[test]
    fn an_array_allocates_nothing_per_line_up_front() {
        let faults = fixed_threshold(1.0);
        let mut cells = CellArray::with_faults(1 << 40, 544, faults);
        let deaths = cells.record_write(3, &LineImage::zeroed(32), &image_with_bits(&[1]), 0);
        assert_eq!(deaths, vec![1]);
        assert_eq!(cells.dead_cell_count(), 1);
        assert!(cells.dead_cells((1 << 40) - 1).is_empty());
        let summary = cells.wear_summary();
        assert_eq!((summary.max_cell_writes, summary.cells), (1, 544 << 40));
    }

    /// A mask over another line width is rejected like a mismatched
    /// image.
    #[test]
    #[should_panic(expected = "image size does not match cell array")]
    fn a_mask_of_another_width_is_rejected() {
        let mut cells = CellArray::new(1, 545);
        let zero = LineImage::zeroed(32);
        cells.record_flips(0, &FlipMask::between(&zero, &image_with_bits(&[0])), 0);
    }

    /// The `u16`-plus-spill array the bit-sliced planes replaced, kept as
    /// the reference `planes_match_the_u16_reference` compares against.
    mod reference {
        use std::collections::BTreeMap;

        use crate::cells::{DeadCell, StuckAtFaults, WearSummary};
        use crate::LineImage;

        pub struct U16Cells {
            /// The low 16 bits of every cell's write count.
            counts: Vec<u16>,
            /// `count >> 16` of every cell that has passed `u16::MAX`.
            spill: BTreeMap<usize, u64>,
            /// One past the highest line written.
            touched: usize,
            bits_per_line: u32,
            writes: u64,
            /// The fault model and each line's dead cells.
            faults: Option<(StuckAtFaults, Vec<Vec<DeadCell>>)>,
        }

        impl U16Cells {
            pub fn new(lines: usize, bits_per_line: u32, faults: Option<StuckAtFaults>) -> Self {
                Self {
                    counts: vec![0; lines * bits_per_line as usize],
                    spill: BTreeMap::new(),
                    touched: 0,
                    bits_per_line,
                    writes: 0,
                    faults: faults.map(|f| (f, vec![Vec::new(); lines])),
                }
            }

            pub fn record_write(
                &mut self,
                line: usize,
                old: &LineImage,
                new: &LineImage,
                rotation: u32,
            ) -> Vec<u32> {
                assert_eq!(old.total_bits(), self.bits_per_line);
                let base = line * self.bits_per_line as usize;
                self.touched = self.touched.max(line + 1);
                let mut deaths = Vec::new();
                for (word_base, mut word) in old.changed_words(new) {
                    while word != 0 {
                        let bit = word_base + word.trailing_zeros();
                        word &= word - 1;
                        let physical = (bit + rotation) % self.bits_per_line;
                        let cell = base + physical as usize;
                        let low = self.counts[cell].wrapping_add(1);
                        self.counts[cell] = low;
                        if low == 0 {
                            *self.spill.entry(cell).or_insert(0) += 1;
                        }
                        if let Some((config, dead)) = &mut self.faults {
                            let high = self.spill.get(&cell).map_or(0, |high| high << 16);
                            if high | u64::from(low) == config.threshold(cell as u64) {
                                dead[line].push(DeadCell {
                                    physical_bit: physical,
                                    stuck_value: old.bit(bit),
                                });
                                deaths.push(physical);
                            }
                        }
                    }
                }
                self.writes += 1;
                deaths
            }

            pub fn dead_cells(&self, line: usize) -> &[DeadCell] {
                self.faults.as_ref().map_or(&[], |(_, dead)| &dead[line])
            }

            pub fn dead_cell_count(&self) -> u64 {
                self.faults
                    .as_ref()
                    .map_or(0, |(_, dead)| dead.iter().map(|d| d.len() as u64).sum())
            }

            pub fn count(&self, line: usize, bit: u32) -> u64 {
                self.total(line * self.bits_per_line as usize + bit as usize)
            }

            fn total(&self, cell: usize) -> u64 {
                self.spill.get(&cell).map_or(0, |high| high << 16) | u64::from(self.counts[cell])
            }

            fn written(&self) -> &[u16] {
                &self.counts[..self.touched * self.bits_per_line as usize]
            }

            pub fn position_totals(&self) -> Vec<u64> {
                let bits = self.bits_per_line as usize;
                let mut totals = vec![0u64; bits];
                for line in self.written().chunks_exact(bits) {
                    for (total, &low) in totals.iter_mut().zip(line) {
                        *total += u64::from(low);
                    }
                }
                for (&cell, &high) in &self.spill {
                    totals[cell % bits] += high << 16;
                }
                totals
            }

            pub fn wear_summary(&self) -> WearSummary {
                let max = match self.spill.keys().map(|&cell| self.total(cell)).max() {
                    Some(max) => max,
                    None => self.written().iter().copied().max().map_or(0, u64::from),
                };
                let low: u64 = self.written().iter().map(|&low| u64::from(low)).sum();
                let high: u64 = self.spill.values().map(|&high| high << 16).sum();
                let total = low + high;
                WearSummary {
                    max_cell_writes: max,
                    total_bit_writes: total,
                    avg_cell_writes: total as f64 / self.counts.len() as f64,
                    line_writes: self.writes,
                    cells: self.counts.len() as u64,
                }
            }
        }
    }
}
