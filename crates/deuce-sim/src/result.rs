//! Aggregated simulation results and derived metrics.

use deuce_crypto::AesBackend;
use deuce_nvm::{CellArray, EnergyParams, WearSummary};
use deuce_schemes::StorePageStats;
use deuce_telemetry::{Counter, Recorder};
use deuce_wear::{relative_lifetime, LifetimePolicy};

/// What online fault injection observed over a run: the graceful-
/// degradation ladder from cell deaths through ECP consumption and line
/// retirement to uncorrectable writes (Fig. 14's lifetime question
/// answered online rather than analytically).
///
/// Write indices are 1-based positions in the counted write stream, so
/// `first_uncorrectable_write == Some(n)` means the device sustained
/// `n - 1` clean line writes — the number two schemes are compared on.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultReport {
    /// Cells that permanently failed (stuck-at) during the run.
    pub cell_deaths: u64,
    /// ECP correction entries consumed across all lines, including
    /// entries freed again when their line retired.
    pub ecp_entries_consumed: u64,
    /// Lines retired to the spare pool.
    pub lines_retired: u64,
    /// Writes that hit a line with no correction resources left.
    pub uncorrectable_writes: u64,
    /// Write index of the first line retirement, if any.
    pub first_retirement_write: Option<u64>,
    /// Write index of the first uncorrectable write — the run's
    /// end-of-life point, if reached.
    pub first_uncorrectable_write: Option<u64>,
    /// Spare lines still unused at end of run.
    pub spare_lines_left: u32,
    /// ECP entries currently in use, per logical line (final state;
    /// retired lines restart at zero on their spare).
    pub ecp_entries_used: Vec<u32>,
}

/// Everything one simulation run produced.
///
/// All figure-of-merit accessors are derived on demand so a single run
/// feeds every figure: flips (Figs. 5/8/9/10/18), slots (Fig. 15),
/// execution time (Fig. 16), energy/power/EDP (Fig. 17) and wear
/// (Figs. 12/14).
#[derive(Debug, Clone)]
pub struct SimResult {
    /// Writes counted (excludes each line's initial placement write).
    pub writes: u64,
    /// Reads serviced.
    pub reads: u64,
    /// Initial placements: each line's first write, not counted in
    /// `writes`. Filled in at finish.
    pub first_touches: u64,
    /// Data-bit flips across all counted writes.
    pub data_flips: u64,
    /// Metadata-bit flips across all counted writes.
    pub meta_flips: u64,
    /// Counter-storage flips (reported separately; see
    /// [`crate::MetricConfig`]).
    pub counter_flips: u64,
    /// Whether counter flips were included in the figure of merit.
    pub counters_in_metric: bool,
    /// Write slots consumed across all counted writes.
    pub total_slots: u64,
    /// DEUCE epoch starts observed.
    pub epoch_starts: u64,
    /// Execution time from the timing model.
    pub exec_time_ns: f64,
    /// Energy parameters used (for deriving energy/power).
    pub energy_params: EnergyParams,
    /// Per-cell wear tracking, when enabled.
    pub cells: Option<CellArray>,
    /// Metadata bits per line of the simulated scheme.
    pub metadata_bits: u32,
    /// Counter-cache accesses, one per request, when the counter-cache
    /// model is enabled.
    pub counter_cache_accesses: u64,
    /// Counter-cache misses (extra counter-line reads), when the
    /// counter-cache model is enabled.
    pub counter_cache_misses: u64,
    /// Dirty counter-line evictions written back to memory, when the
    /// counter-cache model is enabled.
    pub counter_cache_writebacks: u64,
    /// Counter-cache hit ratio (0 when the model is disabled).
    pub counter_cache_hit_ratio: f64,
    /// Resident bytes of the line store at end of run: 64 stored bytes
    /// plus the compact state per resident line (112 under
    /// `AnyScheme`); the address index is excluded.
    pub line_store_bytes: u64,
    /// Fault-injection observations, when faults were enabled.
    pub faults: Option<FaultReport>,
    /// Store-paging statistics for this run, when the out-of-core page
    /// file backend was used (`None` for the in-RAM arena). Purely a
    /// residency metric: paging never changes any other field of the
    /// result.
    pub store: Option<StorePageStats>,
    /// The AES dispatch tier pad generation ran on, so throughput
    /// numbers are attributable to a tier. A host/dispatch property:
    /// every tier produces bit-identical pads, so no other field
    /// depends on it.
    pub aes_backend: AesBackend,
}

/// An empty result: every counter zero, no wear tracking, and the
/// paper's energy parameters. Accumulating drivers start from this and
/// fill in what they measure (`..SimResult::default()` keeps struct
/// literals short as fields are added).
impl Default for SimResult {
    fn default() -> Self {
        Self {
            writes: 0,
            reads: 0,
            first_touches: 0,
            data_flips: 0,
            meta_flips: 0,
            counter_flips: 0,
            counters_in_metric: false,
            total_slots: 0,
            epoch_starts: 0,
            exec_time_ns: 0.0,
            energy_params: EnergyParams::PAPER,
            cells: None,
            metadata_bits: 0,
            counter_cache_accesses: 0,
            counter_cache_misses: 0,
            counter_cache_writebacks: 0,
            counter_cache_hit_ratio: 0.0,
            line_store_bytes: 0,
            faults: None,
            store: None,
            // The portable tier; sessions overwrite this with the
            // engine's actual dispatch choice.
            aes_backend: AesBackend::default(),
        }
    }
}

impl SimResult {
    /// The run total a telemetry [`Counter`] names: every counter is a
    /// field of the result.
    #[must_use]
    pub fn counter(&self, counter: Counter) -> u64 {
        match counter {
            Counter::Reads => self.reads,
            Counter::Writes => self.writes,
            Counter::FirstTouches => self.first_touches,
            Counter::DataFlips => self.data_flips,
            Counter::MetaFlips => self.meta_flips,
            Counter::CounterFlips => self.counter_flips,
            Counter::EpochStarts => self.epoch_starts,
            Counter::SlotsTotal => self.total_slots,
            Counter::CounterAccesses => self.counter_cache_accesses,
            Counter::CounterFills => self.counter_cache_misses,
            Counter::CounterWritebacks => self.counter_cache_writebacks,
        }
    }

    /// Adds every [`Counter`] to `rec`: the one way a run's totals reach
    /// a recorder, from a finishing session and from an aggregate over
    /// several runs alike.
    pub fn record_counters<R: Recorder>(&self, rec: &mut R) {
        for counter in Counter::ALL {
            rec.add(counter, self.counter(counter));
        }
    }

    /// Total bit flips counted by the figure of merit.
    #[must_use]
    pub fn metric_flips(&self) -> u64 {
        let base = self.data_flips + self.meta_flips;
        if self.counters_in_metric {
            base + self.counter_flips
        } else {
            base
        }
    }

    /// Mean flips per write.
    #[must_use]
    pub fn avg_flips_per_write(&self) -> f64 {
        if self.writes == 0 {
            0.0
        } else {
            self.metric_flips() as f64 / self.writes as f64
        }
    }

    /// The paper's figure of merit: mean modified bits per write as a
    /// fraction of the 512 data bits in a line.
    #[must_use]
    pub fn flip_rate(&self) -> f64 {
        self.avg_flips_per_write() / deuce_crypto::LINE_BITS as f64
    }

    /// Mean write slots consumed per write (Fig. 15).
    #[must_use]
    pub fn avg_slots_per_write(&self) -> f64 {
        if self.writes == 0 {
            0.0
        } else {
            self.total_slots as f64 / self.writes as f64
        }
    }

    /// Total memory energy in picojoules (writes + reads + background).
    ///
    /// The write term charges every flip the figure of merit counts —
    /// including counter-storage flips when
    /// [`counters_in_metric`](Self::counters_in_metric) is set, since
    /// those bits are written to the same PCM cells.
    #[must_use]
    pub fn energy_pj(&self) -> f64 {
        let metric_flips = self.metric_flips();
        let flips = u32::try_from(metric_flips).unwrap_or(u32::MAX);
        // write_energy_pj is linear, so one call with the total is exact
        // when it fits; fall back to explicit multiplication otherwise.
        let write = if u64::from(flips) == metric_flips {
            self.energy_params.write_energy_pj(flips)
        } else {
            self.energy_params.write_pj_per_bit * metric_flips as f64
        };
        let read = self.energy_params.read_energy_pj() * self.reads as f64;
        let background = self.energy_params.background_energy_pj(self.exec_time_ns as u64);
        write + read + background
    }

    /// Mean memory power in milliwatts over the run.
    #[must_use]
    pub fn power_mw(&self) -> f64 {
        if self.exec_time_ns == 0.0 {
            0.0
        } else {
            self.energy_pj() / self.exec_time_ns
        }
    }

    /// Energy-delay product (pJ · ns), the Fig. 17 metric.
    #[must_use]
    pub fn edp(&self) -> f64 {
        self.energy_pj() * self.exec_time_ns
    }

    /// Speedup of this run relative to `baseline` (same trace).
    #[must_use]
    pub fn speedup_over(&self, baseline: &SimResult) -> f64 {
        if self.exec_time_ns == 0.0 {
            1.0
        } else {
            baseline.exec_time_ns / self.exec_time_ns
        }
    }

    /// Wear summary, if cell tracking was enabled.
    #[must_use]
    pub fn wear_summary(&self) -> Option<WearSummary> {
        self.cells.as_ref().map(CellArray::wear_summary)
    }

    /// Relative lifetime metric under a policy; `None` without cell
    /// tracking. Normalize two runs' values against each other for
    /// Fig. 14.
    #[must_use]
    pub fn lifetime(&self, policy: LifetimePolicy) -> Option<f64> {
        let cells = self.cells.as_ref()?;
        let summary = cells.wear_summary();
        Some(relative_lifetime(
            &cells.position_totals(),
            summary.max_cell_writes,
            summary.line_writes,
            policy,
        ))
    }
}

/// A paged run's five store totals, named once for the telemetry
/// `store` section (`store_<key>`) and `deuce run`'s `store_*` rows.
#[must_use]
pub fn store_totals(stats: &StorePageStats) -> [(&'static str, u64); 5] {
    [
        ("page_faults", stats.page_faults),
        ("page_evictions", stats.page_evictions),
        ("pages_flushed", stats.pages_flushed),
        ("resident_bytes", stats.resident_bytes),
        ("peak_resident_bytes", stats.peak_resident_bytes),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SimResult {
        SimResult {
            writes: 100,
            reads: 50,
            data_flips: 12_800, // 128/write = 25%
            meta_flips: 200,
            counter_flips: 150,
            total_slots: 264,
            epoch_starts: 3,
            exec_time_ns: 10_000.0,
            metadata_bits: 32,
            ..SimResult::default()
        }
    }

    #[test]
    fn default_is_a_zero_run() {
        let r = SimResult::default();
        assert_eq!(r.writes, 0);
        assert_eq!(r.metric_flips(), 0);
        assert_eq!(r.avg_flips_per_write(), 0.0);
        assert_eq!(r.energy_pj(), 0.0);
        assert!(r.cells.is_none());
    }

    #[test]
    fn flip_rate_excludes_counters_by_default() {
        let r = sample();
        assert!((r.avg_flips_per_write() - 130.0).abs() < 1e-9);
        assert!((r.flip_rate() - 130.0 / 512.0).abs() < 1e-12);
        let mut with = sample();
        with.counters_in_metric = true;
        assert!(with.flip_rate() > r.flip_rate());
    }

    #[test]
    fn slots_and_speedup() {
        let r = sample();
        assert!((r.avg_slots_per_write() - 2.64).abs() < 1e-9);
        let mut slower = sample();
        slower.exec_time_ns = 20_000.0;
        assert!((r.speedup_over(&slower) - 2.0).abs() < 1e-12);
        assert!((slower.speedup_over(&r) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn energy_power_edp_consistency() {
        let r = sample();
        let e = r.energy_pj();
        assert!(e > 0.0);
        assert!((r.power_mw() - e / 10_000.0).abs() < 1e-9);
        assert!((r.edp() - e * 10_000.0).abs() < 1e-3);
    }

    #[test]
    fn energy_charges_counter_flips_when_in_metric() {
        let base = sample();
        let mut with = sample();
        with.counters_in_metric = true;
        // 150 counter flips × write energy per bit, on top of the base.
        let extra = with.energy_params.write_pj_per_bit * 150.0;
        assert!(
            (with.energy_pj() - base.energy_pj() - extra).abs() < 1e-9,
            "counter flips in the metric must be charged as written bits: \
             {} vs {} + {extra}",
            with.energy_pj(),
            base.energy_pj(),
        );
        // Out of the metric, counter flips stay unpriced.
        assert!((base.energy_pj() - energy_by_hand(&base)).abs() < 1e-9);
    }

    fn energy_by_hand(r: &SimResult) -> f64 {
        r.energy_params.write_pj_per_bit * (r.data_flips + r.meta_flips) as f64
            + r.energy_params.read_energy_pj() * r.reads as f64
            + r.energy_params.background_energy_pj(r.exec_time_ns as u64)
    }

    #[test]
    fn zero_writes_are_safe() {
        let mut r = sample();
        r.writes = 0;
        r.exec_time_ns = 0.0;
        assert_eq!(r.avg_flips_per_write(), 0.0);
        assert_eq!(r.avg_slots_per_write(), 0.0);
        assert_eq!(r.power_mw(), 0.0);
        assert_eq!(r.speedup_over(&sample()), 1.0);
        assert!(r.lifetime(LifetimePolicy::Raw).is_none());
    }
}
