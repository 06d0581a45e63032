//! ECP repair, line retirement, and the spare-line remap table.
//!
//! This is the controller's graceful-degradation layer, modeled on the
//! DEUCE paper's reference \[4\] (Schechter et al., "Use ECP, not
//! ECC"): every line carries `n` *Error-Correcting Pointer* entries —
//! a pointer to a dead cell plus a replacement bit — so a line
//! transparently survives its first `n` stuck-at cell deaths. When the
//! `n+1`-th cell dies, the controller *retires* the line: its contents
//! move to a line from a spare pool and a remap-table entry redirects
//! all future traffic. Once the spare pool is empty, the next death is
//! an [`UncorrectableError`] — the device has reached end of life.
//!
//! [`EcpRepair`] tracks all three mechanisms per logical line. It works
//! on dense line *indices* (the same index space as
//! [`deuce_nvm::CellArray`]), with physical indices `0..lines` for the
//! primary region and `lines..lines + spare_lines` for the spare pool.
//!
//! ```
//! use deuce_memctl::{EcpConfig, EcpRepair, RepairAction};
//!
//! let mut repair = EcpRepair::new(4, EcpConfig { entries_per_line: 1, spare_lines: 1 });
//! // First death on line 2: an ECP entry absorbs it.
//! assert_eq!(repair.note_death(2, 17), RepairAction::Corrected);
//! // Second death: entries exhausted, the line retires to spare 0,
//! // which lives at physical index 4.
//! assert_eq!(repair.note_death(2, 40), RepairAction::Retired { spare: 0 });
//! assert_eq!(repair.resolve(2), 4);
//! // Spare's first death starts a fresh entry budget.
//! assert_eq!(repair.note_death(2, 9), RepairAction::Corrected);
//! // ...but the pool is empty now, so the next exhaustion is fatal.
//! assert_eq!(repair.note_death(2, 10), RepairAction::Uncorrectable);
//! assert!(repair.line_failed(2));
//! ```

use std::fmt;

use deuce_nvm::{CellArray, LineImage};

/// Sizing of the repair layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EcpConfig {
    /// ECP correction entries per line (the paper's reference \[4\] uses
    /// ECP-6; `0` retires a line on its first death).
    pub entries_per_line: u8,
    /// Spare lines available for retirement (`0` means the first
    /// entry-exhausting death is uncorrectable).
    pub spare_lines: u32,
}

impl EcpConfig {
    /// ECP-6 with no spare pool, the \[4\] baseline.
    pub const ECP6: Self = Self {
        entries_per_line: 6,
        spare_lines: 0,
    };
}

/// What the repair layer did about one cell death.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RepairAction {
    /// The dead cell was already covered by an ECP entry; nothing was
    /// consumed.
    AlreadyCovered,
    /// A fresh ECP entry now points at the dead cell.
    Corrected,
    /// Entries were exhausted; the line retired to spare `spare` (its
    /// physical index is `lines + spare`).
    Retired {
        /// Index into the spare pool the line now occupies.
        spare: u32,
    },
    /// Entries exhausted and no spare left: the line has failed.
    Uncorrectable,
}

/// A cell death that could not be repaired: the line's ECP entries and
/// the device's spare pool are both exhausted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UncorrectableError {
    /// The logical line index that failed.
    pub line: usize,
}

impl fmt::Display for UncorrectableError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "uncorrectable error: line {} has dead cells beyond ECP and spare capacity",
            self.line
        )
    }
}

impl std::error::Error for UncorrectableError {}

/// Per-line ECP entries, the retirement remap table, and the spare
/// pool — see the [module docs](self) for the full flow.
#[derive(Debug, Clone)]
pub struct EcpRepair {
    config: EcpConfig,
    lines: usize,
    /// ECP entries per logical line: the *physical* cells (of the line's
    /// current physical location) being corrected, in consumption order.
    pointed: Vec<Vec<u32>>,
    /// Logical line → spare id, once retired.
    remap: Vec<Option<u32>>,
    /// Logical lines that have gone uncorrectable.
    failed: Vec<bool>,
    spares_used: u32,
    entries_consumed: u64,
    lines_retired: u64,
}

impl EcpRepair {
    /// Creates a repair layer for `lines` logical lines.
    ///
    /// # Panics
    ///
    /// Panics if `lines` is zero.
    #[must_use]
    pub fn new(lines: usize, config: EcpConfig) -> Self {
        assert!(lines > 0, "repair layer needs at least one line");
        Self {
            config,
            lines,
            pointed: vec![Vec::new(); lines],
            remap: vec![None; lines],
            failed: vec![false; lines],
            spares_used: 0,
            entries_consumed: 0,
            lines_retired: 0,
        }
    }

    /// The layer's sizing.
    #[must_use]
    pub fn config(&self) -> EcpConfig {
        self.config
    }

    /// Logical lines covered (excluding spares).
    #[must_use]
    pub fn lines(&self) -> usize {
        self.lines
    }

    /// The physical line index logical `line` currently occupies:
    /// `line` itself, or `lines + spare` after retirement.
    ///
    /// # Panics
    ///
    /// Panics if `line` is out of range.
    #[must_use]
    pub fn resolve(&self, line: usize) -> usize {
        assert!(line < self.lines, "line {line} out of range");
        match self.remap[line] {
            Some(spare) => self.lines + spare as usize,
            None => line,
        }
    }

    /// ECP entries currently consumed on `line` (resets on retirement —
    /// the spare starts with a fresh budget).
    ///
    /// # Panics
    ///
    /// Panics if `line` is out of range.
    #[must_use]
    pub fn entries_used(&self, line: usize) -> u32 {
        assert!(line < self.lines, "line {line} out of range");
        self.pointed[line].len() as u32
    }

    /// Total ECP entries consumed over the device's life (including
    /// entries later abandoned by retirement).
    #[must_use]
    pub fn entries_consumed(&self) -> u64 {
        self.entries_consumed
    }

    /// Retirements performed so far.
    #[must_use]
    pub fn lines_retired(&self) -> u64 {
        self.lines_retired
    }

    /// Spares consumed so far.
    #[must_use]
    pub fn spares_used(&self) -> u32 {
        self.spares_used
    }

    /// Spares still available.
    #[must_use]
    pub fn spares_left(&self) -> u32 {
        self.config.spare_lines - self.spares_used
    }

    /// Whether `line` has been retired to a spare.
    ///
    /// # Panics
    ///
    /// Panics if `line` is out of range.
    #[must_use]
    pub fn is_retired(&self, line: usize) -> bool {
        assert!(line < self.lines, "line {line} out of range");
        self.remap[line].is_some()
    }

    /// Whether `line` has suffered an uncorrectable death.
    ///
    /// # Panics
    ///
    /// Panics if `line` is out of range.
    #[must_use]
    pub fn line_failed(&self, line: usize) -> bool {
        assert!(line < self.lines, "line {line} out of range");
        self.failed[line]
    }

    /// Handles the death of `physical_cell` (a cell of `line`'s current
    /// physical location). Idempotent: a death in an already-pointed-to
    /// cell consumes nothing.
    ///
    /// On retirement the line's ECP entries reset — its dead cells stay
    /// behind in the abandoned physical line — and `resolve` starts
    /// returning the spare's physical index. The stored image travels
    /// with the logical line; the retirement copy-write is not charged
    /// to wear or timing (a once-per-line-lifetime event, negligible
    /// next to the write stream that caused it).
    ///
    /// # Panics
    ///
    /// Panics if `line` is out of range.
    pub fn note_death(&mut self, line: usize, physical_cell: u32) -> RepairAction {
        assert!(line < self.lines, "line {line} out of range");
        if self.failed[line] {
            return RepairAction::Uncorrectable;
        }
        if self.pointed[line].contains(&physical_cell) {
            return RepairAction::AlreadyCovered;
        }
        if self.pointed[line].len() < self.config.entries_per_line as usize {
            self.pointed[line].push(physical_cell);
            self.entries_consumed += 1;
            return RepairAction::Corrected;
        }
        if self.spares_used < self.config.spare_lines {
            let spare = self.spares_used;
            self.spares_used += 1;
            self.lines_retired += 1;
            self.remap[line] = Some(spare);
            self.pointed[line].clear();
            return RepairAction::Retired { spare };
        }
        self.failed[line] = true;
        RepairAction::Uncorrectable
    }

    /// What a read of logical `line` returns: the faulted image of its
    /// current physical line, with every ECP-pointed cell overridden by
    /// its replacement bit (which always holds the intended value). The
    /// result equals `intended` unless the line has failed, in which
    /// case the unrepairable stuck cells remain and an error is
    /// returned.
    ///
    /// `cells` must cover the primary region *and* the spare pool
    /// (`lines + spare_lines` lines); `rotation` is the line's current
    /// HWL rotation.
    ///
    /// # Errors
    ///
    /// Returns [`UncorrectableError`] if `line` has dead cells beyond
    /// ECP and spare capacity.
    ///
    /// # Panics
    ///
    /// Panics if `line` is out of range or `cells` doesn't cover the
    /// spare pool.
    pub fn read_line(
        &self,
        cells: &CellArray,
        line: usize,
        intended: &LineImage,
        rotation: u32,
    ) -> Result<LineImage, UncorrectableError> {
        if self.failed[line] {
            return Err(UncorrectableError { line });
        }
        let physical = self.resolve(line);
        assert!(
            physical < cells.lines(),
            "cell array does not cover the spare pool"
        );
        let mut image = cells.faulted_image(physical, intended, rotation);
        let bits = cells.bits_per_line();
        for &cell in &self.pointed[line] {
            let logical = (cell + bits - rotation % bits) % bits;
            image.set_bit(logical, intended.bit(logical));
        }
        Ok(image)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deuce_nvm::{FailureModel, StuckAtFaults};

    fn config(entries: u8, spares: u32) -> EcpConfig {
        EcpConfig {
            entries_per_line: entries,
            spare_lines: spares,
        }
    }

    #[test]
    fn second_death_in_pointed_cell_consumes_nothing() {
        let mut r = EcpRepair::new(2, config(2, 0));
        assert_eq!(r.note_death(0, 7), RepairAction::Corrected);
        assert_eq!(r.entries_used(0), 1);
        // The same cell dying again (e.g. replayed by an outer layer)
        // must not burn a second entry.
        assert_eq!(r.note_death(0, 7), RepairAction::AlreadyCovered);
        assert_eq!(r.entries_used(0), 1);
        assert_eq!(r.entries_consumed(), 1);
        // A different cell does.
        assert_eq!(r.note_death(0, 8), RepairAction::Corrected);
        assert_eq!(r.entries_used(0), 2);
    }

    #[test]
    fn retirement_with_zero_spares_is_uncorrectable() {
        let mut r = EcpRepair::new(1, config(1, 0));
        assert_eq!(r.note_death(0, 0), RepairAction::Corrected);
        assert_eq!(r.note_death(0, 1), RepairAction::Uncorrectable);
        assert!(r.line_failed(0));
        assert_eq!(r.lines_retired(), 0);
        // Failure is sticky.
        assert_eq!(r.note_death(0, 2), RepairAction::Uncorrectable);
    }

    #[test]
    fn zero_entry_lines_retire_on_first_death() {
        let mut r = EcpRepair::new(2, config(0, 1));
        assert_eq!(r.note_death(1, 5), RepairAction::Retired { spare: 0 });
        assert_eq!(r.resolve(1), 2);
        assert!(r.is_retired(1));
        assert_eq!(r.spares_left(), 0);
    }

    #[test]
    fn retirement_resets_the_entry_budget() {
        let mut r = EcpRepair::new(1, config(1, 2));
        assert_eq!(r.note_death(0, 0), RepairAction::Corrected);
        assert_eq!(r.note_death(0, 1), RepairAction::Retired { spare: 0 });
        assert_eq!(r.entries_used(0), 0, "spare starts fresh");
        assert_eq!(r.note_death(0, 0), RepairAction::Corrected, "same cell id, new physical line");
        assert_eq!(r.note_death(0, 1), RepairAction::Retired { spare: 1 });
        assert_eq!(r.resolve(0), 1 + 1, "second spare");
        assert_eq!(r.lines_retired(), 2);
        assert_eq!(r.entries_consumed(), 2);
    }

    #[test]
    fn reads_from_retired_line_return_the_remapped_image() {
        // One logical line, one spare; every cell dies on its first
        // write.
        let faults = StuckAtFaults::new(
            FailureModel {
                mean_endurance: 1.0,
                cv: 0.0,
                seed: 0,
            },
            1.0,
        );
        let mut cells = CellArray::with_faults(2, 544, faults);
        let mut r = EcpRepair::new(1, config(1, 1));
        let zero = LineImage::zeroed(32);
        let mut first = zero;
        first.data_mut()[0] = 0b01;
        // Write 1 to physical line 0: bit 0 dies, ECP absorbs it.
        let deaths = cells.record_write(0, &zero, &first, 0);
        assert_eq!(deaths, vec![0]);
        assert_eq!(r.note_death(0, 0), RepairAction::Corrected);
        // ECP read-repair hides the stuck cell.
        assert_eq!(r.read_line(&cells, 0, &first, 0).unwrap(), first);
        // Write 2 flips bit 1 too: the second death retires the line.
        let mut second = first;
        second.data_mut()[0] = 0b11;
        let deaths = cells.record_write(0, &first, &second, 0);
        assert_eq!(deaths, vec![1]);
        assert_eq!(r.note_death(0, 1), RepairAction::Retired { spare: 0 });
        assert_eq!(r.resolve(0), 1);
        // The spare physical line is pristine, so the read returns the
        // intended image even though physical line 0 is full of stuck
        // cells.
        assert_eq!(r.read_line(&cells, 0, &second, 0).unwrap(), second);
        // Subsequent writes wear the spare: its first death is absorbed
        // by the fresh entry budget, the next one is fatal.
        let mut third = second;
        third.data_mut()[0] = 0b10;
        let deaths = cells.record_write(r.resolve(0), &second, &third, 0);
        assert_eq!(deaths, vec![0], "spare's cell 0 dies on its first write");
        assert_eq!(r.note_death(0, 0), RepairAction::Corrected);
        let mut fourth = third;
        fourth.data_mut()[0] = 0b00;
        let deaths = cells.record_write(r.resolve(0), &third, &fourth, 0);
        assert_eq!(deaths, vec![1]);
        assert_eq!(r.note_death(0, 1), RepairAction::Uncorrectable);
        assert!(r.read_line(&cells, 0, &fourth, 0).is_err());
        let err = r.read_line(&cells, 0, &fourth, 0).unwrap_err();
        assert_eq!(err.line, 0);
        assert!(err.to_string().contains("uncorrectable"));
    }

    #[test]
    fn read_repair_respects_rotation() {
        let faults = StuckAtFaults::new(
            FailureModel {
                mean_endurance: 1.0,
                cv: 0.0,
                seed: 0,
            },
            1.0,
        );
        let mut cells = CellArray::with_faults(1, 544, faults);
        let mut r = EcpRepair::new(1, config(2, 0));
        let zero = LineImage::zeroed(32);
        let mut img = zero;
        img.set_bit(540, true);
        // Logical 540 under rotation 10 → physical cell 6 dies.
        let deaths = cells.record_write(0, &zero, &img, 10);
        assert_eq!(deaths, vec![6]);
        assert_eq!(r.note_death(0, 6), RepairAction::Corrected);
        // Without repair the stuck cell shadows logical 540...
        assert!(!cells.faulted_image(0, &img, 10).bit(540));
        // ...with repair the replacement bit restores it.
        assert_eq!(r.read_line(&cells, 0, &img, 10).unwrap(), img);
    }

    /// One write under rotation 10 kills cells on both sides of the
    /// wrap. The deaths come in ascending logical order — physical
    /// order from the rotation up, then from cell 0 — and the ECP
    /// entries go to the first of them: here cell 6, the last to die,
    /// is the one left uncovered.
    #[test]
    fn deaths_across_the_wrap_come_in_logical_order() {
        let faults = StuckAtFaults::new(
            FailureModel {
                mean_endurance: 1.0,
                cv: 0.0,
                seed: 0,
            },
            1.0,
        );
        let mut cells = CellArray::with_faults(1, 544, faults);
        let mut r = EcpRepair::new(1, config(3, 0));
        let zero = LineImage::zeroed(32);
        let mut img = zero;
        // Logical 0, 5, 533 and 540 land in physical 10, 15, 543 and 6.
        for logical in [0, 5, 533, 540] {
            img.set_bit(logical, true);
        }
        let deaths = cells.record_write(0, &zero, &img, 10);
        assert_eq!(deaths, vec![10, 15, 543, 6]);
        let physical: Vec<u32> = cells.dead_cells(0).iter().map(|d| d.physical_bit).collect();
        assert_eq!(physical, deaths, "dead cells are kept in death order");
        // The session hands the deaths to the repair layer in order.
        let actions: Vec<RepairAction> = deaths.iter().map(|&cell| r.note_death(0, cell)).collect();
        assert_eq!(
            actions,
            [
                RepairAction::Corrected,
                RepairAction::Corrected,
                RepairAction::Corrected,
                RepairAction::Uncorrectable,
            ]
        );
        assert_eq!(r.entries_used(0), 3);
        assert!(r.line_failed(0));
        // The covered cells read back as intended; uncovered cell 6
        // (logical 540) is stuck at 0, so the line is uncorrectable.
        assert!(r.read_line(&cells, 0, &img, 10).is_err());
        let repaired = |cell: u32| r.pointed[0].contains(&cell);
        assert!([10, 15, 543].into_iter().all(repaired) && !repaired(6));
    }
}
