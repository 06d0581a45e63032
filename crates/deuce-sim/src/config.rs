//! Simulation configuration.

use std::path::PathBuf;

use deuce_nvm::{EnergyParams, FailureModel, Geometry, SlotConfig, TimingParams};
use deuce_schemes::{SchemeConfig, SchemeKind};
use deuce_wear::HwlMode;

/// Which vertical wear-leveling algorithm drives the HWL rotation
/// (§5.3 extends HWL to both).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum VerticalWl {
    /// Start-Gap \[20\]: deterministic rotation via Start/Gap registers.
    #[default]
    StartGap,
    /// Security Refresh \[21\]: randomized key-XOR remapping.
    SecurityRefresh,
}

use crate::counter_cache::CounterCacheConfig;

/// CPU-side parameters (Table 1: 8 cores, each 4-wide at 4 GHz).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpuParams {
    /// Peak retired instructions per nanosecond per core
    /// (width × frequency; 4-wide × 4 GHz = 16).
    pub instr_per_ns: f64,
}

impl CpuParams {
    /// The paper's Table 1 core.
    pub const PAPER: Self = Self { instr_per_ns: 16.0 };
}

impl Default for CpuParams {
    fn default() -> Self {
        Self::PAPER
    }
}

/// What counts toward the modified-bits figure of merit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MetricConfig {
    /// Also count flips in the separately-stored line/block counters.
    /// The paper's percentages exclude them (its encrypted baseline is
    /// exactly 50%), so the default is `false`.
    pub count_counter_bits: bool,
}

/// Wear-tracking configuration. When present, the simulator maintains a
/// per-cell write-count array and (optionally) rotates writes through
/// Horizontal Wear Leveling on top of Start-Gap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WearConfig {
    /// Maximum distinct lines the trace touches (sizes the cell array
    /// and the Start-Gap ring).
    pub lines: usize,
    /// HWL rotation mode; `None` = vertical wear leveling only (no
    /// intra-line rotation), as in the paper's "DEUCE" bar of Fig. 14.
    pub hwl: Option<HwlMode>,
    /// Start-Gap gap-movement interval ψ in line writes (100 in the
    /// Start-Gap paper), or the Security Refresh swap interval.
    pub gap_interval: u32,
    /// The vertical wear-leveling substrate HWL piggy-backs on.
    pub vwl: VerticalWl,
}

impl WearConfig {
    /// Wear tracking without intra-line rotation.
    #[must_use]
    pub fn vertical_only(lines: usize) -> Self {
        Self {
            lines,
            hwl: None,
            gap_interval: 100,
            vwl: VerticalWl::StartGap,
        }
    }

    /// Wear tracking with HWL rotation.
    #[must_use]
    pub fn with_hwl(lines: usize, mode: HwlMode) -> Self {
        Self {
            lines,
            hwl: Some(mode),
            gap_interval: 100,
            vwl: VerticalWl::StartGap,
        }
    }

    /// Selects the vertical wear-leveling substrate.
    #[must_use]
    pub fn vertical_leveler(mut self, vwl: VerticalWl) -> Self {
        self.vwl = vwl;
        self
    }

    /// Overrides the gap-movement interval.
    #[must_use]
    pub fn gap_interval(mut self, interval: u32) -> Self {
        self.gap_interval = interval;
        self
    }
}

/// Online fault-injection configuration: cells die mid-run once their
/// sampled endurance (scaled by `endurance_scale`) is exhausted, ECP
/// entries absorb the first deaths per line, exhausted lines retire to
/// a spare pool, and an exhausted pool makes further deaths
/// uncorrectable. Requires wear tracking ([`WearConfig`]) — the cell
/// array is where wear accumulates and cells die.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// ECP correction entries per line (the paper's reference \[4\]
    /// provisions 6).
    pub ecp_entries: u8,
    /// Spare lines for retirement; `0` means the first entry-exhausting
    /// death is uncorrectable.
    pub spare_lines: u32,
    /// Per-cell endurance distribution (deterministic, seeded).
    pub endurance: FailureModel,
    /// Multiplier on every sampled endurance. Real PCM endurance
    /// (~10^8) would need ~10^8 writes per cell to exercise, so
    /// accelerated-wear studies scale it down (e.g. `1e-6` ≈ 100-write
    /// mean endurance) while preserving relative cell-to-cell
    /// variation.
    pub endurance_scale: f64,
}

impl FaultConfig {
    /// ECP-6, no spares, unscaled paper endurance.
    pub const PAPER: Self = Self {
        ecp_entries: 6,
        spare_lines: 0,
        endurance: FailureModel::PAPER,
        endurance_scale: 1.0,
    };

    /// ECP-6 with the given endurance scale-down (the accelerated-wear
    /// entry point the CLI's `--endurance-scale` maps to).
    #[must_use]
    pub fn accelerated(endurance_scale: f64) -> Self {
        Self {
            endurance_scale,
            ..Self::PAPER
        }
    }

    /// Overrides the ECP entry budget per line.
    #[must_use]
    pub fn ecp_entries(mut self, entries: u8) -> Self {
        self.ecp_entries = entries;
        self
    }

    /// Overrides the spare-line pool size.
    #[must_use]
    pub fn spare_lines(mut self, spares: u32) -> Self {
        self.spare_lines = spares;
        self
    }
}

/// Out-of-core line-store configuration: a page file plus a resident
/// page cache of `resident_pages` pages (each
/// [`deuce_schemes::SLOTS_PER_PAGE`] line slots). The simulated result
/// is bit-identical to the in-RAM arena; only residency accounting and
/// the `store_page_*` telemetry block differ.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileStoreConfig {
    /// Page-file path. Created (truncating any existing file) at run
    /// start; resumable runs rebuild it deterministically by replay.
    pub path: PathBuf,
    /// Resident page cache capacity in pages (clamped to at least 1).
    pub resident_pages: usize,
}

impl FileStoreConfig {
    /// A file store at `path` with the given resident-page budget.
    #[must_use]
    pub fn new(path: impl Into<PathBuf>, resident_pages: usize) -> Self {
        Self { path: path.into(), resident_pages }
    }
}

/// Where `LineStore` slot storage lives during a run.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum StoreBackend {
    /// Every materialised line stays resident in RAM (the default, and
    /// the historical behaviour).
    #[default]
    Arena,
    /// Out-of-core: a page file with an LRU resident page cache,
    /// enabling address spaces far beyond host RAM.
    File(FileStoreConfig),
}

/// Full simulation configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// The memory encoding to simulate.
    pub scheme: SchemeConfig,
    /// Seed for the controller's secret key.
    pub key_seed: u64,
    /// Figure-of-merit accounting options.
    pub metric: MetricConfig,
    /// Write-slot model.
    pub slot: SlotConfig,
    /// Device timing.
    pub timing: TimingParams,
    /// Device energy model.
    pub energy: EnergyParams,
    /// Rank/bank geometry.
    pub geometry: Geometry,
    /// CPU model.
    pub cpu: CpuParams,
    /// Wear tracking (off by default; flip/perf studies don't need it).
    pub wear: Option<WearConfig>,
    /// Online fault injection (off by default; requires `wear`). When
    /// enabled, cells die once their scaled endurance is exhausted and
    /// the run degrades through ECP repair → line retirement →
    /// uncorrectable errors, reported in
    /// [`SimResult::faults`](crate::SimResult::faults).
    pub faults: Option<FaultConfig>,
    /// Global write-power budget as a number of concurrently drivable
    /// write slots (§6.1 / \[22\]); `None` = power delivery never limits
    /// concurrency (banks do).
    pub power_channels: Option<usize>,
    /// Counter-cache model; `None` (the default, and the paper's
    /// implicit assumption) means counters are always on chip and cost
    /// no memory traffic.
    pub counter_cache: Option<CounterCacheConfig>,
    /// Wall-clock timing of pad generation, feeding the
    /// span tracer's `pad_generation` leaf. Off by default; never
    /// affects simulated results.
    pub pad_timing: bool,
    /// Line-store slot backend: the in-RAM arena (default) or an
    /// out-of-core page file. Never changes simulated results — only
    /// residency and the `store_page_*` telemetry block.
    pub store: StoreBackend,
}

impl SimConfig {
    /// Default (paper Table 1) configuration for a scheme kind.
    #[must_use]
    pub fn new(kind: SchemeKind) -> Self {
        Self::with_scheme(SchemeConfig::new(kind))
    }

    /// Default configuration with an explicit scheme configuration
    /// (custom epoch / word size).
    #[must_use]
    pub fn with_scheme(scheme: SchemeConfig) -> Self {
        Self {
            scheme,
            key_seed: 0x00DE_C0DE,
            metric: MetricConfig::default(),
            slot: SlotConfig::PAPER,
            timing: TimingParams::PAPER,
            energy: EnergyParams::PAPER,
            geometry: Geometry::PAPER,
            cpu: CpuParams::PAPER,
            wear: None,
            faults: None,
            power_channels: None,
            counter_cache: None,
            pad_timing: false,
            store: StoreBackend::Arena,
        }
    }

    /// Enables the counter-cache traffic model.
    #[must_use]
    pub fn with_counter_cache(mut self, config: CounterCacheConfig) -> Self {
        self.counter_cache = Some(config);
        self
    }

    /// Selects the line-store slot backend.
    #[must_use]
    pub fn with_store_backend(mut self, store: StoreBackend) -> Self {
        self.store = store;
        self
    }

    /// Enables wall-clock timing of pad generation (for span tracing).
    #[must_use]
    pub fn with_pad_timing(mut self) -> Self {
        self.pad_timing = true;
        self
    }

    /// Limits global write power to `channels` concurrent write slots.
    #[must_use]
    pub fn with_power_channels(mut self, channels: usize) -> Self {
        self.power_channels = Some(channels);
        self
    }

    /// Enables wear tracking.
    #[must_use]
    pub fn with_wear(mut self, wear: WearConfig) -> Self {
        self.wear = Some(wear);
        self
    }

    /// Enables online fault injection. The simulator panics at run
    /// start if faults are configured without wear tracking — there is
    /// no cell array to wear out otherwise.
    #[must_use]
    pub fn with_faults(mut self, faults: FaultConfig) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Sets the key seed.
    #[must_use]
    pub fn key_seed(mut self, seed: u64) -> Self {
        self.key_seed = seed;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_paper_values() {
        let c = SimConfig::new(SchemeKind::Deuce);
        assert_eq!(c.timing.read_ns, 75);
        assert_eq!(c.timing.write_slot_ns, 150);
        assert_eq!(c.slot.region_bits(), 128);
        assert_eq!(c.geometry.total_banks(), 32);
        assert!((c.cpu.instr_per_ns - 16.0).abs() < 1e-12);
        assert!(c.wear.is_none());
        assert!(c.faults.is_none());
        assert!(!c.pad_timing);
        assert!(!c.metric.count_counter_bits);
        assert_eq!(c.store, StoreBackend::Arena);
    }

    #[test]
    fn store_backend_builder() {
        let c = SimConfig::new(SchemeKind::Deuce)
            .with_store_backend(StoreBackend::File(FileStoreConfig::new("/tmp/x.pages", 8)));
        match &c.store {
            StoreBackend::File(f) => {
                assert_eq!(f.resident_pages, 8);
                assert_eq!(f.path, PathBuf::from("/tmp/x.pages"));
            }
            StoreBackend::Arena => panic!("expected file backend"),
        }
    }

    #[test]
    fn fault_config_builders() {
        let f = FaultConfig::accelerated(1e-6).ecp_entries(2).spare_lines(4);
        assert_eq!(f.ecp_entries, 2);
        assert_eq!(f.spare_lines, 4);
        assert!((f.endurance_scale - 1e-6).abs() < 1e-18);
        assert_eq!(f.endurance, FailureModel::PAPER);
        assert_eq!(FaultConfig::PAPER.ecp_entries, 6);
    }

    #[test]
    fn wear_config_builders() {
        let w = WearConfig::with_hwl(64, HwlMode::Hashed).gap_interval(10);
        assert_eq!(w.lines, 64);
        assert_eq!(w.gap_interval, 10);
        assert_eq!(w.hwl, Some(HwlMode::Hashed));
        assert_eq!(WearConfig::vertical_only(8).hwl, None);
    }
}
