//! The three workloads, their sizes, and the seeded inputs they feed
//! the program. The program only ever sees these generated inputs.

use deuce_rng::{derive_seed, DeuceRng, Rng};
use deuce_trace::{LineAddr, TraceEvent, LINE_BYTES};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's full controller on the generator's `mcf` profile.
    McfFull,
    /// Writes scattered over a billion-line space through the page file.
    SparsePaged,
    /// deuce-serve with Zipf-skewed tenants.
    ServeZipf,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "mcf-full" => Some(Self::McfFull),
            "sparse-paged" => Some(Self::SparsePaged),
            "serve-zipf" => Some(Self::ServeZipf),
            _ => None,
        }
    }
}

/// `Full` is what the benchmark measures; `Smoke` is a seconds-long
/// version of the same workload for the benchmark's own tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Smoke,
}

impl Size {
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "full" => Some(Self::Full),
            "smoke" => Some(Self::Smoke),
            _ => None,
        }
    }
}

/// Dimensions of every workload at one size.
#[derive(Debug, Clone, Copy)]
pub struct Dims {
    /// mcf-full: working-set lines per core (4 cores).
    pub mcf_lines: usize,
    /// mcf-full: writebacks per repetition.
    pub mcf_writes: usize,
    /// sparse-paged: distinct lines the stream draws from.
    pub sparse_touched: u64,
    /// sparse-paged: writes per repetition.
    pub sparse_writes: u64,
    /// sparse-paged: resident page budget (64 line slots per page).
    pub sparse_resident_pages: usize,
    /// serve-zipf: writebacks summed over all tenants, per repetition.
    pub serve_writes: usize,
    /// serve-zipf: working-set lines per tenant.
    pub serve_lines: usize,
}

impl Dims {
    pub fn of(size: Size) -> Self {
        match size {
            Size::Full => Self {
                mcf_lines: 65_536,
                mcf_writes: 400_000,
                sparse_touched: 65_536,
                sparse_writes: 98_304,
                sparse_resident_pages: 256,
                serve_writes: 200_000,
                serve_lines: 512,
            },
            Size::Smoke => Self {
                mcf_lines: 1_024,
                mcf_writes: 6_000,
                sparse_touched: 4_096,
                sparse_writes: 6_000,
                sparse_resident_pages: 8,
                serve_writes: 6_000,
                serve_lines: 64,
            },
        }
    }
}

pub const MCF_CORES: u8 = 4;
/// The sparse workload's address space: 2^30 lines (64 GiB of PCM).
pub const SPARSE_SPACE: u64 = 1 << 30;
pub const SERVE_TENANTS: usize = 64;
pub const SERVE_SHARDS: usize = 2;
pub const SERVE_QUEUE_DEPTH: usize = 1024;
pub const SERVE_BATCH: usize = 32;
/// Requests the closed-loop submitter keeps accepted but unapplied:
/// three quarters of the service's total queue capacity, so queues stay
/// busy and `QueueFull` is the exception.
pub const SERVE_IN_FLIGHT: u64 = (SERVE_SHARDS * SERVE_QUEUE_DEPTH * 3 / 4) as u64;
/// Zipf exponent of the tenants' request shares.
pub const SERVE_ZIPF_S: f64 = 1.0;

/// The controller key seed a workload derives from its seed.
pub fn key_seed(seed: u64, index: u64) -> u64 {
    derive_seed(seed, 0x6b65_7900 + index)
}

/// The sparse workload's writes: uniform over `touched` distinct lines
/// scattered across [`SPARSE_SPACE`] by an odd-multiplier bijection,
/// each write carrying fresh random data.
pub fn sparse_events(seed: u64, dims: &Dims) -> Vec<TraceEvent> {
    const SCATTER: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut rng = DeuceRng::seed_from_u64(derive_seed(seed, 0x5350));
    (1..=dims.sparse_writes)
        .map(|i| {
            let rank = rng.gen_range(0..dims.sparse_touched);
            let mut data = [0u8; LINE_BYTES];
            rng.fill(&mut data);
            let addr = LineAddr::new(rank.wrapping_mul(SCATTER) & (SPARSE_SPACE - 1));
            TraceEvent::write(0, i * 1000, addr, data)
        })
        .collect()
}
