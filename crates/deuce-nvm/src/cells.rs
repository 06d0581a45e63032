//! Per-bit-position write counting for endurance and wear studies, plus
//! online stuck-at fault injection.

use std::collections::BTreeMap;

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

/// Per-line fault bookkeeping, present only when injection is enabled.
#[derive(Debug, Clone)]
struct FaultState {
    config: StuckAtFaults,
    /// Dead cells per line, in death order.
    dead: Vec<Vec<DeadCell>>,
}

/// Per-cell write counters for a region of PCM lines.
///
/// Every line has `bits_per_line` cells (512 data bits plus metadata).
/// [`CellArray::record_write`] applies Data Comparison Write semantics:
/// only the bits that differ between the old and new image are counted as
/// written. A rotation offset (from Horizontal Wear Leveling) maps logical
/// bit positions to physical cells.
///
/// This feeds Fig. 12 (per-bit-position write skew) and Fig. 14
/// (lifetime).
///
/// Counts are exact `u64` values at every accessor. They are stored as
/// 16 bits per cell, with the high part of any cell that has passed
/// `u16::MAX` kept in a side map, so a written line costs 2 bytes per
/// cell rather than 8.
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
    /// The low 16 bits of every cell's write count.
    counts: Vec<u16>,
    /// `count >> 16` of every cell that has passed `u16::MAX`, by cell.
    spill: BTreeMap<usize, u64>,
    /// One past the highest line written: every cell beyond it is zero.
    touched: usize,
    lines: usize,
    bits_per_line: u32,
    writes: u64,
    faults: Option<FaultState>,
}

impl CellArray {
    /// Creates a zeroed cell array for `lines` lines of `bits_per_line`
    /// cells each, with fault injection disabled.
    ///
    /// # Panics
    ///
    /// Panics if `lines` or `bits_per_line` is zero.
    #[must_use]
    pub fn new(lines: usize, bits_per_line: u32) -> Self {
        assert!(lines > 0, "cell array needs at least one line");
        assert!(bits_per_line > 0, "cell array needs at least one bit per line");
        Self {
            counts: vec![0; lines * bits_per_line as usize],
            spill: BTreeMap::new(),
            touched: 0,
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
    /// Panics if `lines` or `bits_per_line` is zero.
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
        array.faults = Some(FaultState {
            config: faults,
            dead: vec![Vec::new(); lines],
        });
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
    /// Returns the physical cells this write killed (in increasing
    /// linear order), which is always empty unless the array was built
    /// with [`with_faults`](Self::with_faults). A cell dies on the write
    /// that reaches its endurance threshold; the failed flip does not
    /// take, so the cell stays stuck at the value `old` held there. Write
    /// counts keep accumulating past death so wear statistics are
    /// identical with and without fault injection.
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
        assert!(line < self.lines, "line {line} out of range");
        assert_eq!(
            old.total_bits(),
            self.bits_per_line,
            "image size does not match cell array"
        );
        let base = line * self.bits_per_line as usize;
        self.touched = self.touched.max(line + 1);
        let mut deaths = Vec::new();
        // Word-level XOR: untouched 64-bit words are skipped entirely;
        // only set bits of changed words are walked.
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
                if let Some(faults) = &mut self.faults {
                    // Counts only ever increase, so the threshold is
                    // crossed exactly once per cell.
                    let count = self.spill.get(&cell).map_or(0, |high| high << 16) | u64::from(low);
                    if count == faults.config.threshold(cell as u64) {
                        faults.dead[line].push(DeadCell {
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
        self.faults.as_ref().map_or(&[], |f| &f.dead[line])
    }

    /// Total dead cells across all lines.
    #[must_use]
    pub fn dead_cell_count(&self) -> u64 {
        self.faults
            .as_ref()
            .map_or(0, |f| f.dead.iter().map(|d| d.len() as u64).sum())
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
        self.total(line * self.bits_per_line as usize + bit as usize)
    }

    /// The exact write count of linear cell `cell`.
    fn total(&self, cell: usize) -> u64 {
        self.spill.get(&cell).map_or(0, |high| high << 16) | u64::from(self.counts[cell])
    }

    /// The counters of every line written so far; the rest are zero.
    fn written(&self) -> &[u16] {
        &self.counts[..self.touched * self.bits_per_line as usize]
    }

    /// Per-bit-position totals summed across all lines (the Fig. 12
    /// series).
    #[must_use]
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

    /// Summary statistics used by the lifetime model.
    #[must_use]
    pub fn wear_summary(&self) -> WearSummary {
        // A spilled cell has passed u16::MAX, so it outranks every cell
        // that has not.
        let max = match self.spill.keys().map(|&cell| self.total(cell)).max() {
            Some(max) => max,
            None => self.written().iter().copied().max().map_or(0, u64::from),
        };
        let low: u64 = self.written().iter().map(|&low| u64::from(low)).sum();
        let high: u64 = self.spill.values().map(|&high| high << 16).sum();
        let total = low + high;
        // Unwritten lines count towards the average as zeros.
        let avg = total as f64 / self.counts.len() as f64;
        WearSummary {
            max_cell_writes: max,
            total_bit_writes: total,
            avg_cell_writes: avg,
            line_writes: self.writes,
            cells: self.counts.len() as u64,
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
    /// 65,536 three times, so its count lives partly in the spill map.
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
}
