//! The mechanistic pipeline: a load/store stream runs through a real
//! L1–L4 cache hierarchy, whose last-level misses and evictions become
//! the PCM trace the secure-memory simulator consumes — validating the
//! shape the calibrated generators assume (writebacks are sparse because
//! stores coalesce in the hierarchy).
//!
//! ```text
//! cargo run --release --example cache_pipeline
//! ```

use deuce::cache::{AccessStream, Hierarchy, HierarchyConfig};
use deuce::schemes::SchemeKind;
use deuce::sim::{RunError, SimConfig, Simulator};
use deuce::trace::{Trace, TraceSource, TraceStats};

fn main() -> Result<(), RunError> {
    // 16k-line (1 MiB) working set over a scaled hierarchy whose last
    // level holds 2k lines: enough pressure for steady PCM traffic.
    let mut hierarchy = Hierarchy::new(&HierarchyConfig::scaled_paper(), 0);
    let mut stream = AccessStream::new(16_384, 0.4, 4, 42);
    let mut trace = Trace::default();
    let accesses = 200_000;
    for _ in 0..accesses {
        let access = stream.next_access();
        hierarchy.access(&access, &mut trace);
    }

    println!("{accesses} loads/stores through the hierarchy:");
    for (level, stats) in hierarchy.stats().iter().enumerate() {
        println!(
            "  L{} miss ratio {:>5.1}%   writebacks {:>6}",
            level + 1,
            stats.miss_ratio() * 100.0,
            stats.writebacks,
        );
    }
    let stats = TraceStats::compute(&trace);
    println!();
    println!(
        "PCM sees {} reads and {} writebacks; each writeback has {:.1}% of \
         its bits dirty\n(coalescing in the hierarchy is what makes \
         writebacks sparse — the paper's ~12% premise).",
        trace.read_count(),
        trace.write_count(),
        stats.dirty_bit_fraction * 100.0,
    );

    // The same trace drives the secure-memory schemes end to end.
    println!();
    println!("running the hierarchy-produced trace through the schemes:");
    for kind in [SchemeKind::EncryptedDcw, SchemeKind::Deuce, SchemeKind::DynDeuce] {
        let simulator = Simulator::new(SimConfig::new(kind));
        let result = simulator.run_source(&mut TraceSource::new(&trace))?;
        println!(
            "  {:<10} {:>5.1}% flips/write, {:.2} slots/write",
            kind.label(),
            result.flip_rate() * 100.0,
            result.avg_slots_per_write(),
        );
    }
    Ok(())
}
