//! Lifetime planning: given a PCM module's cell endurance and a write
//! rate, how many years does each configuration last? Reproduces the
//! Fig. 14 methodology and extends it to absolute-lifetime estimates.
//!
//! ```text
//! cargo run --release --example lifetime_planner
//! ```

use deuce::schemes::SchemeKind;
use deuce::sim::{HwlMode, LifetimePolicy, RunError, SimConfig, Simulator, WearConfig};
use deuce::trace::{Benchmark, TraceConfig, TraceSource};

/// Representative PCM cell endurance (writes per cell).
const CELL_ENDURANCE: f64 = 1e8;
/// Sustained per-line write rate after vertical wear leveling spreads
/// the traffic: a memory system sinking ~10^8 line writebacks/sec over
/// the 5×10^8 lines of a 32 GB module gives each line ~0.2 writes/sec.
const LINE_WRITES_PER_SEC: f64 = 0.2;

fn main() -> Result<(), RunError> {
    let lines = 64;
    let trace = TraceConfig::new(Benchmark::Mcf)
        .lines(lines)
        .writes(30_000)
        .seed(7)
        .generate();

    let configs: [(&str, SchemeKind, Option<HwlMode>); 5] = [
        ("Encrypted (baseline)", SchemeKind::EncryptedDcw, None),
        ("Encrypted + FNW", SchemeKind::EncryptedFnw, None),
        ("DEUCE", SchemeKind::Deuce, None),
        ("DEUCE + HWL", SchemeKind::Deuce, Some(HwlMode::Hashed)),
        ("DEUCE + HWL(algebraic)", SchemeKind::Deuce, Some(HwlMode::Algebraic)),
    ];

    println!(
        "{:<24} {:>12} {:>12} {:>10}",
        "configuration", "rel.lifetime", "vs baseline", "years"
    );
    println!("{}", "-".repeat(62));

    let mut baseline_metric = None;
    for (name, kind, hwl) in configs {
        let wear = match hwl {
            Some(mode) => WearConfig::with_hwl(lines, mode).gap_interval(2),
            None => WearConfig::vertical_only(lines),
        };
        let config = SimConfig::new(kind).with_wear(wear);
        let result = Simulator::new(config).run_source(&mut TraceSource::new(&trace))?;
        let metric = result
            .lifetime(LifetimePolicy::VerticalLeveled)
            .expect("wear tracking enabled");
        let baseline = *baseline_metric.get_or_insert(metric);

        // metric = line-writes sustained per unit of binding-cell wear;
        // absolute lifetime = endurance * metric / write rate.
        let seconds = CELL_ENDURANCE * metric / LINE_WRITES_PER_SEC;
        let years = seconds / (3600.0 * 24.0 * 365.0);
        println!(
            "{name:<24} {metric:>12.2} {:>11.2}x {years:>10.1}",
            metric / baseline
        );
    }

    println!();
    println!("DEUCE alone halves the bits written but keeps hammering the");
    println!("same word positions, so the binding cell barely improves");
    println!("(the paper's 1.11x). Horizontal Wear Leveling rotates the");
    println!("line through all 544 bit positions using only the Start-Gap");
    println!("registers — no per-line storage — and converts the full");
    println!("bit-write reduction into lifetime (~2x and beyond, Fig. 14).");
    println!();
    println!("Note: the algebraic rotation needs Start to sweep many times");
    println!("(hundreds of thousands of increments over an app's life,");
    println!("§5.3); this short run completes only ~230 sweeps, so the");
    println!("hashed footnote-2 variant — which decorrelates rotation");
    println!("across lines — levels fully at simulation scale.");
    Ok(())
}
