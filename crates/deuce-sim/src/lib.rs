//! Trace-driven system simulator for secure PCM memory.
//!
//! Ties the whole stack together: a [`StepSession`] is the memory
//! controller. Each event of a [`deuce_trace::WriteSource`] passes its
//! optional counter cache, then a lazily populated
//! [`deuce_schemes::LineStore`] that encodes the write under the
//! configured scheme, then a timing model with per-bank queues and
//! blocking reads, then an optional [`deuce_wear`] Start-Gap + HWL wear
//! layer. The bit-exact write outcomes feed the [`deuce_nvm`] device
//! model (flips, write slots, energy, cell wear), and execution time
//! comes from the timing model — from which the paper's speedup /
//! energy / power / EDP figures derive. Grids of
//! independent runs shard across threads with [`ParallelSweep`],
//! bit-identical to a sequential loop.
//!
//! With [`FaultConfig`] the run also injects online stuck-at cell
//! faults: cells die once their sampled endurance is exhausted, ECP
//! entries and line retirement absorb the deaths, and
//! [`SimResult::faults`] reports the degradation timeline — when the
//! device first retired a line and when it first hit an uncorrectable
//! write (the online version of the paper's Fig. 14 lifetime question).
//!
//! # Examples
//!
//! ```
//! use deuce_sim::{RunError, SimConfig, Simulator};
//! use deuce_schemes::SchemeKind;
//! use deuce_trace::{Benchmark, TraceConfig};
//!
//! let mut stream = TraceConfig::new(Benchmark::Mcf).writes(2_000).stream();
//! let result = Simulator::new(SimConfig::new(SchemeKind::Deuce)).run_source(&mut stream)?;
//! assert!(result.flip_rate() > 0.0 && result.flip_rate() < 0.5);
//! # Ok::<(), RunError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod checkpoint;
mod config;
mod counter_cache;
mod manifest;
mod result;
mod session;
mod simulator;
mod sweep;
mod timing;

pub use checkpoint::RunCheckpoint;
pub use config::{
    CpuParams, FaultConfig, FileStoreConfig, MetricConfig, SimConfig, StoreBackend, VerticalWl,
    WearConfig,
};
pub use counter_cache::{
    counter_line_addr, CounterCache, CounterCacheConfig, CounterTraffic, COUNTER_REGION,
};
pub use manifest::{
    grid_fingerprint, merge_manifests, read_manifest, CellRecord, ManifestError, ManifestHeader,
    ManifestWriter, ShardSpec,
};
pub use result::{store_totals, FaultReport, SimResult};
pub use session::{SessionStep, StepSession};
pub use simulator::{Checkpoints, RunError, Simulator};
pub use sweep::ParallelSweep;
pub use timing::MemoryTimingModel;

pub use deuce_schemes::{SchemeConfig, SchemeKind, StorePageStats};
pub use deuce_telemetry as telemetry;
pub use deuce_wear::{HwlMode, LifetimePolicy};
