//! Shared result-summary formatting.
//!
//! `run`, `compare`, `sweep`, and `report` all print the same headline
//! metrics; [`RunSummary`] is the one place their rows and labels are
//! defined, whether the numbers come from a live [`SimResult`] or from
//! a parsed telemetry file.

use std::io::{self, Write};

use deuce_sim::{store_totals, FaultReport, SimResult, StorePageStats};

/// Tab-separated header matching [`RunSummary::metric_cells`], shared
/// by the `compare` and `sweep` tables.
pub const METRIC_HEADER: &str = "flip_rate\tslots_per_write\texec_time_us";

/// The headline metrics of one simulated run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunSummary {
    /// Counted writes (excludes first touches).
    pub writes: u64,
    /// Reads serviced.
    pub reads: u64,
    /// Mean figure-of-merit flips per write.
    pub flips_per_write: f64,
    /// Flips per write as a fraction of the line's data bits.
    pub flip_rate: f64,
    /// Mean write slots per write.
    pub slots_per_write: f64,
    /// Execution time in microseconds.
    pub exec_time_us: f64,
    /// Total memory energy in microjoules.
    pub energy_uj: f64,
    /// Mean memory power in milliwatts.
    pub power_mw: f64,
    /// Metadata bits per line, when known.
    pub metadata_bits: Option<u64>,
    /// Resident bytes of the line-store arena at end of run, when known.
    pub line_store_bytes: Option<u64>,
}

impl From<&SimResult> for RunSummary {
    fn from(result: &SimResult) -> Self {
        Self {
            writes: result.writes,
            reads: result.reads,
            flips_per_write: result.avg_flips_per_write(),
            flip_rate: result.flip_rate(),
            slots_per_write: result.avg_slots_per_write(),
            exec_time_us: result.exec_time_ns / 1000.0,
            energy_uj: result.energy_pj() / 1e6,
            power_mw: result.power_mw(),
            metadata_bits: Some(u64::from(result.metadata_bits)),
            line_store_bytes: Some(result.line_store_bytes),
        }
    }
}

impl RunSummary {
    /// Writes the `key\tvalue` summary block (the `deuce run` /
    /// `deuce report` body).
    ///
    /// # Errors
    ///
    /// Returns I/O errors from the writer.
    pub fn write_to<W: Write>(&self, out: &mut W) -> io::Result<()> {
        writeln!(out, "writes\t{}", self.writes)?;
        writeln!(out, "reads\t{}", self.reads)?;
        writeln!(out, "flips_per_write\t{:.1}", self.flips_per_write)?;
        writeln!(out, "flip_rate\t{:.1}%", self.flip_rate * 100.0)?;
        writeln!(out, "slots_per_write\t{:.2}", self.slots_per_write)?;
        writeln!(out, "exec_time_us\t{:.1}", self.exec_time_us)?;
        writeln!(out, "energy_uj\t{:.2}", self.energy_uj)?;
        writeln!(out, "power_mw\t{:.1}", self.power_mw)?;
        if let Some(bits) = self.metadata_bits {
            writeln!(out, "metadata_bits_per_line\t{bits}")?;
        }
        if let Some(bytes) = self.line_store_bytes {
            writeln!(out, "line_store_bytes\t{bytes}")?;
        }
        Ok(())
    }

    /// The table cells under [`METRIC_HEADER`].
    #[must_use]
    pub fn metric_cells(&self) -> String {
        format!(
            "{:.1}%\t{:.2}\t{:.1}",
            self.flip_rate * 100.0,
            self.slots_per_write,
            self.exec_time_us
        )
    }
}

/// Writes a fault-injecting run's `fault_*` rows, printed after the
/// [`RunSummary`] block.
///
/// # Errors
///
/// Returns I/O errors from the writer.
pub fn write_fault_rows<W: Write>(out: &mut W, report: &FaultReport) -> io::Result<()> {
    let opt = |v: Option<u64>| v.map_or_else(|| "-".to_string(), |w| w.to_string());
    writeln!(out, "fault_cell_deaths\t{}", report.cell_deaths)?;
    writeln!(out, "fault_ecp_entries_consumed\t{}", report.ecp_entries_consumed)?;
    writeln!(out, "fault_lines_retired\t{}", report.lines_retired)?;
    writeln!(out, "fault_uncorrectable_writes\t{}", report.uncorrectable_writes)?;
    writeln!(out, "fault_first_retirement_write\t{}", opt(report.first_retirement_write))?;
    writeln!(out, "fault_first_uncorrectable_write\t{}", opt(report.first_uncorrectable_write))?;
    writeln!(out, "fault_spare_lines_left\t{}", report.spare_lines_left)
}

/// Writes a page-file-backed run's `store_*` rows, printed after the
/// [`RunSummary`] block (only such runs have them, so in-RAM output is
/// unchanged).
///
/// # Errors
///
/// Returns I/O errors from the writer.
pub fn write_store_rows<W: Write>(out: &mut W, stats: &StorePageStats) -> io::Result<()> {
    for (key, value) in store_totals(stats) {
        writeln!(out, "store_{key}\t{value}")?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunSummary {
        RunSummary {
            writes: 100,
            reads: 50,
            flips_per_write: 130.0,
            flip_rate: 130.0 / 512.0,
            slots_per_write: 2.64,
            exec_time_us: 10.0,
            energy_uj: 0.33,
            power_mw: 33.0,
            metadata_bits: Some(32),
            line_store_bytes: Some(9216),
        }
    }

    #[test]
    fn summary_block_lists_every_metric() {
        let mut out = Vec::new();
        sample().write_to(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("writes\t100"));
        assert!(text.contains("flip_rate\t25.4%"));
        assert!(text.contains("slots_per_write\t2.64"));
        assert!(text.contains("metadata_bits_per_line\t32"));
        assert!(text.contains("line_store_bytes\t9216"));
        let mut without = sample();
        without.metadata_bits = None;
        without.line_store_bytes = None;
        let mut out = Vec::new();
        without.write_to(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(!text.contains("metadata_bits"));
        assert!(!text.contains("line_store_bytes"));
    }

    #[test]
    fn metric_cells_line_up_with_the_header() {
        assert_eq!(METRIC_HEADER.split('\t').count(), sample().metric_cells().split('\t').count());
        assert_eq!(sample().metric_cells(), "25.4%\t2.64\t10.0");
    }

    #[test]
    fn fault_rows_render_every_row() {
        let report = FaultReport {
            cell_deaths: 12,
            ecp_entries_consumed: 9,
            lines_retired: 1,
            uncorrectable_writes: 2,
            first_retirement_write: Some(400),
            first_uncorrectable_write: None,
            spare_lines_left: 7,
            ecp_entries_used: vec![1, 0, 6],
        };
        let mut out = Vec::new();
        write_fault_rows(&mut out, &report).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("fault_cell_deaths\t12"));
        assert!(text.contains("fault_first_retirement_write\t400"));
        assert!(text.contains("fault_first_uncorrectable_write\t-"));
        assert!(text.contains("fault_spare_lines_left\t7"));
    }

    #[test]
    fn store_rows_render_every_row() {
        let stats = StorePageStats {
            page_faults: 40,
            page_evictions: 36,
            pages_flushed: 30,
            resident_bytes: 4_608,
            peak_resident_bytes: 9_216,
        };
        let mut out = Vec::new();
        write_store_rows(&mut out, &stats).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("store_page_faults\t40"));
        assert!(text.contains("store_page_evictions\t36"));
        assert!(text.contains("store_pages_flushed\t30"));
        assert!(text.contains("store_resident_bytes\t4608"));
        assert!(text.contains("store_peak_resident_bytes\t9216"));
    }

    #[test]
    fn sim_result_conversion_uses_derived_metrics() {
        let result = SimResult {
            writes: 10,
            reads: 4,
            data_flips: 500,
            meta_flips: 12,
            total_slots: 25,
            exec_time_ns: 2_000.0,
            metadata_bits: 12,
            ..SimResult::default()
        };
        let summary = RunSummary::from(&result);
        assert_eq!(summary.writes, 10);
        assert!((summary.flips_per_write - 51.2).abs() < 1e-12);
        assert!((summary.slots_per_write - 2.5).abs() < 1e-12);
        assert!((summary.exec_time_us - 2.0).abs() < 1e-12);
        assert_eq!(summary.metadata_bits, Some(12));
    }
}
